//! Smoke tests over the experiment harness: every experiment module must
//! keep producing well-formed tables with the expected row structure.
//! (The full sweeps run via `ecfd experiments`, which `cargo test` does
//! not exercise — CI smoke-runs that front end with `ecfd experiments
//! e2` — so this guards the experiment code against bit-rot.)

use fd_bench::experiments;

#[test]
fn e2_phase_depth_produces_the_protocol_rows() {
    let tables = experiments::e2::run();
    assert_eq!(tables.len(), 1);
    let t = &tables[0];
    assert_eq!(t.rows.len(), 8, "4 protocols × 2 sizes");
    // The measured step counts must match the paper's phase counts: the
    // cells are pre-formatted, so spot-check the ◇C n=5 row.
    let ec_row = &t.rows[0];
    assert_eq!(ec_row[3], "5.00", "◇C = 5 communication steps: {ec_row:?}");
    let mr_row = &t.rows[4];
    assert_eq!(mr_row[3], "3.00", "MR = 3 communication steps: {mr_row:?}");
    let paxos_row = &t.rows[6];
    assert_eq!(
        paxos_row[3], "5.00",
        "Paxos measures like ◇C: {paxos_row:?}"
    );
}

/// Theorem 3's shape: CT burns a round on every coordinator the detector
/// suspects from t = 0, so it decides in round k + 1; the leader-based
/// protocols decide in round 1. Suspected-from-the-start coordinators
/// never change the detector's output, so a protocol that re-checked its
/// clauses only on output changes would accept their propositions and
/// decide everything in round 1 (and wait forever on a crashed one).
#[test]
fn e3_ct_rotates_past_every_coordinator_suspected_from_the_start() {
    let tables = experiments::e3::run();
    let rounds = |label: &str| -> Vec<&str> {
        tables[0]
            .rows
            .iter()
            .filter(|row| row[0] == label)
            .map(|row| row[2].as_str())
            .collect()
    };
    assert_eq!(rounds("CT ◇S"), ["1", "3", "5", "7", "9"]);
    assert_eq!(rounds("◇C (paper)"), ["1"; 5]);
    assert_eq!(rounds("MR Ω"), ["1"; 5]);
}

#[test]
fn e7_accuracy_rows_hold_their_claims() {
    let tables = experiments::e7::run();
    let t = &tables[0];
    assert_eq!(t.rows.len(), 4);
    for row in &t.rows {
        assert_eq!(row[3], "yes", "◇C must hold in every construction: {row:?}");
    }
    // Ω-grade accuracy row suspects n−1 = 7; the others exactly 2.
    assert_eq!(t.rows[0][1], "2.00");
    assert_eq!(t.rows[1][1], "2.00");
    assert_eq!(t.rows[2][1], "7.00");
    assert_eq!(t.rows[3][1], "2.00");
}

#[test]
fn e9c_gossip_vs_candidate_costs_are_quadratic_vs_linear() {
    let tables = experiments::e9::run();
    let t = tables.iter().find(|t| t.id == "E9c").expect("E9c present");
    // Rows alternate gossip/candidate for n = 4, 8, 16.
    let parse = |cell: &str| cell.parse::<f64>().unwrap();
    for pair in t.rows.chunks(2) {
        let n: f64 = pair[0][1].parse().unwrap();
        let gossip = parse(&pair[0][2]);
        let candidate = parse(&pair[1][2]);
        assert!(
            (gossip - n * (n - 1.0)).abs() <= n,
            "gossip ≈ n(n−1): {pair:?}"
        );
        assert!(
            (candidate - (n - 1.0)).abs() <= 1.0,
            "candidate ≈ n−1: {pair:?}"
        );
    }
}

#[test]
fn table_json_export_works() {
    let tables = experiments::e2::run();
    let json = serde_json::to_string(&tables[0]).expect("tables serialize");
    assert!(json.contains("\"id\":\"E2\""));
}

//! End-to-end tests of the large-n scale surface: the `scale` campaign
//! scenario's determinism contract (byte-identical per-seed results
//! whatever the worker count), the golden table of every cell's event
//! count, message volume and observation digest, and the three detector
//! cost classes run through the full property checkers at sizes the
//! rest of the test suite never reaches.
//!
//! The checker sweeps use *completeness-sized* horizons — long enough
//! for suspicion to fully disseminate (hop-by-hop on the ring, that is
//! O(n) poll periods) — unlike the event-volume-sized horizons of the
//! scale cells themselves, which only demand weak completeness.

use ecfd::bench::scale::{scale_cell_of, ScaleCell, ScaleClass, ScaleNet, ScaleScenario};
use ecfd::campaign::{Campaign, Scenario};
use ecfd::core::{FdClass, FdRun, ProcessSet, Standalone};
use ecfd::detectors::{
    HeartbeatConfig, HeartbeatDetector, RingConfig, RingDetector, VCubeConfig, VCubeDetector,
};
use ecfd::sim::{
    LinkModel, NetworkConfig, ProcessId, SimDuration, Time, Trace, TraceMode, WorldBuilder,
};

fn stable_net(n: usize) -> NetworkConfig {
    NetworkConfig::new(n).with_default(LinkModel::reliable_uniform(
        SimDuration::from_millis(1),
        SimDuration::from_millis(4),
    ))
}

/// Run one detector class at size `n` with a single crash, in ObsOnly
/// trace mode (what the scale sweep uses — the checkers only need
/// observations and crash records).
fn run_class(
    class: ScaleClass,
    n: usize,
    crash: (usize, u64),
    horizon_ms: u64,
    seed: u64,
) -> (Trace, Time) {
    let end = Time::from_millis(horizon_ms);
    let builder = WorldBuilder::new(stable_net(n))
        .seed(seed)
        .trace_mode(TraceMode::ObsOnly)
        .crash_at(ProcessId(crash.0), Time::from_millis(crash.1));
    let trace = match class {
        ScaleClass::Heartbeat => {
            let mut w = builder.build(|pid, n| {
                Standalone(HeartbeatDetector::new(pid, n, HeartbeatConfig::default()))
            });
            w.run_until_time(end);
            w.into_results().0
        }
        ScaleClass::Ring => {
            let mut w = builder
                .build(|pid, n| Standalone(RingDetector::new(pid, n, RingConfig::default())));
            w.run_until_time(end);
            w.into_results().0
        }
        ScaleClass::VCube => {
            let mut w = builder
                .build(|pid, n| Standalone(VCubeDetector::new(pid, n, VCubeConfig::default())));
            w.run_until_time(end);
            w.into_results().0
        }
    };
    (trace, end)
}

/// All three classes at `n`: ◇P holds and every correct process ends
/// suspecting exactly the crashed one.
fn checker_sweep(n: usize, horizon_ms: &[u64; 3]) {
    let victim = n / 3;
    let crash = (victim, 300);
    for (class, &h) in ScaleClass::ALL.iter().zip(horizon_ms) {
        let (trace, end) = run_class(*class, n, crash, h, 7 + n as u64);
        let run = FdRun::new(&trace, n, end);
        run.check_class(FdClass::EventuallyPerfect)
            .unwrap_or_else(|e| panic!("{:?} at n={n}: {e:?}", class));
        let crashed: ProcessSet = [ProcessId(victim)].into_iter().collect();
        for p in (0..n).filter(|&p| p != victim) {
            assert_eq!(
                run.final_suspects(ProcessId(p)),
                crashed,
                "{class:?} at n={n}: process {p} has the wrong final suspect list"
            );
        }
    }
}

#[test]
fn all_three_classes_satisfy_eventually_perfect_at_n_64() {
    // Ring needs ~n poll periods (640ms) post-detection for the suspect
    // list to circulate; heartbeat and vCube converge within a few
    // timeouts. Horizons per class: heartbeat, ring, vcube.
    checker_sweep(64, &[1200, 2500, 1500]);
}

/// The n = 256 sweep processes tens of millions of kernel events under
/// the quadratic class — minutes in a debug test binary. Run with
/// `cargo test --release -- --ignored`.
#[test]
#[ignore]
fn all_three_classes_satisfy_eventually_perfect_at_n_256() {
    checker_sweep(256, &[1500, 6000, 2000]);
}

#[test]
fn scale_campaign_seeds_are_independent_of_job_count() {
    // Seeds 0..6 are the six n = 64 cells (the cell list is n-major);
    // larger sizes are covered by the ignored full sweep below.
    let scenario = ecfd::bench::campaign::scenario_by_name("scale").expect("scale is registered");
    let serial = Campaign::new(scenario.as_ref(), 0..6).jobs(1).run();
    let parallel = Campaign::new(scenario.as_ref(), 0..6).jobs(4).run();
    assert_eq!(
        serial.results, parallel.results,
        "per-seed verdicts and digests must be byte-identical across --jobs"
    );
    assert_eq!(
        serial.failed(),
        0,
        "weak completeness must hold on every n = 64 cell: {:?}",
        serial
            .results
            .iter()
            .filter(|r| r.violation.is_some())
            .collect::<Vec<_>>()
    );
}

#[test]
fn scale_seed_layout_wraps_the_cell_list() {
    // 22 cells: 4 sizes × 3 classes × 2 nets minus the two
    // heartbeat@4096 cells. Seed 22 restarts the list.
    let c0 = scale_cell_of(0);
    let c22 = scale_cell_of(22);
    assert_eq!(c0.n, 64);
    assert_eq!((c22.n, c22.class), (c0.n, c0.class));
    assert_eq!(scale_cell_of(21).n, 4096);
}

/// The acceptance sweep: every cell of the scale family (n up to 4096),
/// byte-identical across `--jobs {1,4}`. About a minute of work — run
/// with `cargo test --release -- --ignored`.
#[test]
#[ignore]
fn full_scale_sweep_is_deterministic_across_jobs() {
    let scenario = ecfd::bench::campaign::scenario_by_name("scale").expect("scale is registered");
    let serial = Campaign::new(scenario.as_ref(), 0..22).jobs(1).run();
    let parallel = Campaign::new(scenario.as_ref(), 0..22).jobs(4).run();
    assert_eq!(serial.results, parallel.results);
    assert_eq!(serial.failed(), 0, "full scale sweep must be clean");
}

/// One golden row: `(class, n, net, seeds, events, messages, digest)` —
/// the cell run for seeds `0..seeds`, events and messages summed, each
/// seed's observation digest rotated left by the seed and XOR-folded.
type Row = (ScaleClass, usize, ScaleNet, u64, u64, u64, u64);

/// Every cell of the scale family. These are the paper's §4 message
/// costs at scale (EXPERIMENTS.md cites this table): per ×4 in n the
/// heartbeat volume grows ≈×17 per unit time, vCube ≈×5, the ring ≈×4.
/// Events, messages and digests are machine-independent; a row that
/// moves without an intentional protocol or kernel change is a
/// determinism bug.
#[rustfmt::skip] // one row per line, the shape the failure message prints
const GOLDEN: [Row; 22] = {
    use {ScaleClass::*, ScaleNet::*};
    [
        (Heartbeat, 64, Stable, 4, 817612, 814716, 0x2e1b61683596b19f),
        (Heartbeat, 64, Lossy, 4, 709627, 814716, 0xf80e3cf35fbe0bb4),
        (Ring, 64, Stable, 4, 837211, 509836, 0xc5478293dc4a1feb),
        (Ring, 64, Lossy, 4, 703179, 473430, 0xd292e2673ddec0a7),
        (VCube, 64, Stable, 4, 1669434, 1544192, 0x2a655b12e91d500c),
        (VCube, 64, Lossy, 4, 777789, 766911, 0xd95d0e4fd034eda8),
        (Heartbeat, 256, Stable, 4, 5239792, 5470260, 0x61ecaadfbbdd9910),
        (Heartbeat, 256, Lossy, 4, 4517495, 5470260, 0xa49ca13fc85e9b0d),
        (Ring, 256, Stable, 4, 1345751, 819244, 0x4b4af72b0cbe4ef5),
        (Ring, 256, Lossy, 4, 1143191, 763377, 0x77099925143baf32),
        (VCube, 256, Stable, 4, 3507125, 3311325, 0x27090b3f3ceaa2b1),
        (VCube, 256, Lossy, 4, 1747415, 1821635, 0x3806c336e4f156f8),
        (Heartbeat, 1024, Stable, 2, 20967422, 23031822, 0xbef7a309bd9d4bfb),
        (Heartbeat, 1024, Lossy, 2, 18000807, 23031822, 0xa708c1dd1daeab15),
        (Ring, 1024, Stable, 2, 1346607, 820998, 0xc10cf8c111c0b540),
        (Ring, 1024, Lossy, 2, 1158835, 768596, 0xaf462c800dad1097),
        (VCube, 1024, Stable, 2, 4326960, 4143723, 0x0a2a78dc9650e2d9),
        (VCube, 1024, Lossy, 2, 2631207, 2877456, 0x5a66f0ae9a82b8bb),
        (Ring, 4096, Stable, 1, 806163, 495575, 0xd699ba114300edb8),
        (Ring, 4096, Lossy, 1, 708126, 467976, 0x500d7d3155973065),
        (VCube, 4096, Stable, 1, 3072097, 3000183, 0x7955b7d4e2eb045a),
        (VCube, 4096, Lossy, 1, 1746685, 1973285, 0x3988821149dc8163),
    ]
};

/// Re-run the golden rows `pick` selects through the scale scenario's
/// executor and compare every column.
fn check_golden_rows(pick: impl Fn(ScaleClass, usize) -> bool) {
    let mut executor = ScaleScenario.make_executor();
    let mut drifted = String::new();
    for want in GOLDEN.iter().filter(|row| pick(row.0, row.1)) {
        let &(class, n, net, seeds, ..) = want;
        let cell = ScaleCell { class, n, net };
        let (mut events, mut messages, mut digest) = (0, 0, 0u64);
        for seed in 0..seeds {
            let outcome = executor.execute(&cell.plan(seed), None);
            events += outcome.events;
            messages += outcome.messages;
            digest ^= outcome.trace.digest().rotate_left(seed as u32);
        }
        if (class, n, net, seeds, events, messages, digest) != *want {
            drifted += &format!(
                "        ({class:?}, {n}, {net:?}, {seeds}, {events}, {messages}, {digest:#018x}),\n"
            );
        }
    }
    assert!(
        drifted.is_empty(),
        "golden rows drifted; if the change is intentional, paste these observed rows over \
         theirs in GOLDEN:\n{drifted}"
    );
}

/// The vCube rows CI's `test` job re-runs on every push: tier-1 pins
/// vCube at n = 64 only (`dim` 6); these four pin `dim` 8 and 10, and
/// their lossy halves the retry path of a test (cap evictions, which
/// used to set these digests, are rare now that few tests fail).
fn vcube_mid(class: ScaleClass, n: usize) -> bool {
    class == ScaleClass::VCube && (n == 256 || n == 1024)
}

#[test]
fn golden_rows_hold_at_n_64() {
    check_golden_rows(|_, n| n == 64);
}

/// Four cells, ≈ 12 M events — release only:
/// `cargo test --release --test scale_e2e -- --ignored golden_rows_hold_for`
/// (the filter takes the next test along, as CI's `test` job does).
#[test]
#[ignore]
fn golden_rows_hold_for_vcube_at_n_256_and_1024() {
    check_golden_rows(vcube_mid);
}

/// The heartbeat and ring rows at n = 256 (four cells, ≈ 14 M events):
/// their suspicions fall on deadlines, not on a 5 ms grid, and CI's
/// `test` job re-runs them beside the vCube rows — release only.
#[test]
#[ignore]
fn golden_rows_hold_for_heartbeat_and_ring_at_n_256() {
    check_golden_rows(|class, n| class != ScaleClass::VCube && n == 256);
}

/// The other eight large cells, up to n = 4096 (≈2 GB peak) — release
/// only: `cargo test --release --test scale_e2e -- --ignored golden_rows`
/// (the filter takes the two tests above along).
#[test]
#[ignore]
fn golden_rows_hold_at_n_256_and_up() {
    check_golden_rows(|class, n| n >= 1024 && !vcube_mid(class, n));
}

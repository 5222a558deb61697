//! `--selfcheck`: does the benchmark agree with itself?
//!
//! Runs the workloads as two interleaved sets (A B A B …) of the same
//! code on the same seed and compares the sets the way a later PR will
//! compare a parent with a change: host-time and heap metrics by their
//! medians against the metric's bound, simulated metrics for equality.
//! If two sets of the *same* code differ by more than a bound, the
//! bound is inside the noise and no claim can rest on it.

use crate::runner;
use crate::spec::{EndToEnd, Kind, END_TO_END};
use crate::stats;
use crate::workload::Options;

/// Runs per set.
pub const RUNS_PER_SET: usize = 5;

/// Compare one metric's two sets.
pub fn compare(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Result<(), String> {
    match metric.kind {
        // A pure function of the inputs: the same seed gives the same
        // value on every run of either set.
        Kind::Simulated => {
            let first = a[0];
            match a.iter().chain(b).find(|v| v.to_bits() != first.to_bits()) {
                None => Ok(()),
                Some(v) => Err(format!("simulated values differ: {first} vs {v}")),
            }
        }
        Kind::HostTime | Kind::Heap => {
            let (ma, mb) = (stats::median(a), stats::median(b));
            let gap = (ma - mb).abs() / ma.min(mb);
            if gap <= metric.bound {
                Ok(())
            } else {
                Err(format!(
                    "medians {ma:.6} and {mb:.6} differ by {gap:.3}, bound {}",
                    metric.bound
                ))
            }
        }
    }
}

fn describe(xs: &[f64]) -> String {
    let (q1, q3) = stats::quartiles(xs);
    format!("{:>14.5} [{:>14.5}, {:>14.5}]", stats::median(xs), q1, q3)
}

/// Run the check over `names`; prints a table and returns whether every
/// pair agreed and every run was correct.
pub fn run(names: &[&str], opt: Options, seconds: f64) -> bool {
    // values[workload][set][metric] = one value per run.
    let mut values = vec![
        [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()]
        ];
        names.len()
    ];
    let mut ok = true;
    for round in 0..RUNS_PER_SET {
        for set in 0..2 {
            for (w, name) in names.iter().enumerate() {
                let report = runner::run(name, opt, seconds);
                ok &= report.correct();
                for problem in &report.problems {
                    println!("PROBLEM {problem}");
                }
                for (m, metric) in report.metrics.iter().enumerate() {
                    values[w][set][m].push(metric.value);
                }
            }
            println!(
                "selfcheck: round {} of {RUNS_PER_SET}, set {} done",
                round + 1,
                ["A", "B"][set]
            );
        }
    }
    println!(
        "{:<16} {:<20} {:^46} {:^46} verdict",
        "workload", "metric", "set A: median [q1, q3]", "set B: median [q1, q3]"
    );
    for (w, name) in names.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let (a, b) = (&values[w][0][m], &values[w][1][m]);
            let verdict = match compare(metric, a, b) {
                Ok(()) => "ok".to_string(),
                Err(why) => {
                    ok = false;
                    format!("FAIL {why}")
                }
            };
            println!(
                "{name:<16} {:<20} {} {} {verdict}",
                metric.name,
                describe(a),
                describe(b)
            );
        }
    }
    println!("selfcheck: {}", if ok { "passed" } else { "FAILED" });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(kind: Kind, bound: f64) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "u",
            better: "lower",
            bound,
            kind,
        }
    }

    #[test]
    fn host_time_sets_are_compared_by_median_against_the_bound() {
        let m = metric(Kind::HostTime, 0.10);
        // Medians 10 and 10.9: 9 % apart. One wild sample does not matter.
        assert!(compare(&m, &[10.0, 9.0, 55.0], &[10.9, 10.8, 11.0]).is_ok());
        // 12 % apart, in either order.
        assert!(compare(&m, &[10.0, 10.0, 10.0], &[11.2, 11.2, 11.2]).is_err());
        assert!(compare(&m, &[11.2, 11.2, 11.2], &[10.0, 10.0, 10.0]).is_err());
    }

    #[test]
    fn simulated_sets_must_be_identical() {
        let m = metric(Kind::Simulated, 0.10);
        assert!(compare(&m, &[1.5, 1.5], &[1.5, 1.5]).is_ok());
        assert!(compare(&m, &[1.5, 1.5], &[1.5, 1.5000000001]).is_err());
        assert!(compare(&m, &[1.5, 1.6], &[1.5, 1.5]).is_err());
    }
}

//! # fd-mc — bounded exhaustive schedule exploration for `fd-sim` worlds
//!
//! Randomized campaigns (1000 seeds of `ecfd campaign`) sample the
//! schedule space; this crate *enumerates* it, within explicit budgets.
//! The motivating bug class is PR 6's retransmit hole: one lost
//! pre-GST message wedging consensus rounds forever, found only at
//! seed 147 of a thousand. A seed is one arbitrary linearization per
//! instant plus one arbitrary loss pattern; exhaustive exploration at
//! small `n` checks *every* same-instant delivery order, every
//! timeout-vs-delivery race, every in-budget forced loss, and every
//! grid-placed crash schedule — the parametric-verification stance of
//! Tran/Konnov/Widder applied at the concrete small cutoffs (`n` = 3,
//! 4) where the paper's quorum arithmetic already bites.
//!
//! The pieces:
//!
//! * [`McTarget`] — a deterministic world factory plus the named
//!   properties (see `fd_core::properties::NAMED_CHECKS` and
//!   PROPERTIES.md) every explored run must satisfy.
//! * [`explore()`] — the bounded DFS over scheduler nondeterminism,
//!   pruned by sleep-set partial-order reduction and a state-digest
//!   visited set (both switchable, both soundness-tested). It reports
//!   each failed property's first violating run raw ([`FoundViolation`]),
//!   and [`run_one`] re-executes it byte-identically.
//!
//! `fd-bench::mc` writes a violation as an `fd_campaign::Artifact`, so
//! `ecfd campaign --replay FILE [--shrink]` replays and shrinks it.
//!
//! Exploration is exact, not probabilistic: a clean [`McReport`] with
//! `complete = true` and no depth caps means *no* schedule within the
//! budgets violates the target's properties.
//!
//! ## Example
//!
//! ```
//! use fd_mc::{explore, McConfig, McTarget};
//! use fd_sim::prelude::*;
//! use fd_sim::LinkModel;
//!
//! // Two processes ping each other once; nothing to violate, but the
//! // exploration enumerates both delivery orders at the shared instant.
//! struct Ping;
//! #[derive(Clone, Debug)]
//! struct Hi;
//! impl SimMessage for Hi {
//!     fn kind(&self) -> &'static str { "hi" }
//! }
//! impl Actor for Ping {
//!     type Msg = Hi;
//!     fn on_start(&mut self, ctx: &mut Context<'_, Hi>) {
//!         ctx.send_to_others(Hi);
//!     }
//!     fn on_message(&mut self, _: &mut Context<'_, Hi>, _: ProcessId, _: Hi) {}
//!     fn on_timer(&mut self, _: &mut Context<'_, Hi>, _: TimerTag) {}
//! }
//!
//! let target = McTarget {
//!     name: "ping".into(),
//!     n: 2,
//!     horizon: Time::from_millis(10),
//!     properties: vec![],
//!     factory: Box::new(|| {
//!         let net = NetworkConfig::new(2)
//!             .with_default(LinkModel::reliable_const(SimDuration::from_millis(1)));
//!         Box::new(WorldBuilder::new(net).track_state(true).build(|_, _| Ping))
//!     }),
//! };
//! let report = explore(&target, &McConfig::default());
//! assert!(report.complete && report.violations.is_empty());
//! assert!(report.stats.runs >= 2); // both orders of the t=1ms batch
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod explore;
pub mod replay;

pub use explore::{
    crash_schedules, explore, run_one, Exec, ExploreStats, FoundViolation, McConfig, McReport,
    McTarget,
};
pub use replay::{Choice, CpRecord, OptionRec, Replayer};

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::obs;
    use fd_sim::prelude::*;
    use fd_sim::LinkModel;

    /// A deliberately race-prone toy consensus: p0 proposes 7 to the
    /// others; each other process decides the first proposal it
    /// receives, or its own pid if its local timeout fires first. On
    /// reliable links the proposal always wins the race (1ms delay vs
    /// 10ms timeout) and everyone agrees on 7; only a forced loss can
    /// push a process onto the timeout path and break agreement.
    struct RaceDecide {
        decided: bool,
    }

    #[derive(Clone, Debug)]
    struct Propose(u64);
    impl SimMessage for Propose {
        fn kind(&self) -> &'static str {
            "race.propose"
        }
    }

    const TIMEOUT: TimerTag = TimerTag {
        ns: 0x7e57,
        kind: 1,
        data: 0,
    };

    impl Actor for RaceDecide {
        type Msg = Propose;
        fn on_start(&mut self, ctx: &mut Context<'_, Propose>) {
            if ctx.me() == ProcessId(0) {
                ctx.observe(obs::PROPOSE, Payload::U64(7));
                self.decided = true; // p0 abstains from deciding
                ctx.send_to_others(Propose(7));
            } else {
                ctx.set_timer(SimDuration::from_millis(10), TIMEOUT);
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Propose>, _: ProcessId, m: Propose) {
            if !self.decided {
                self.decided = true;
                ctx.observe(obs::DECIDE, Payload::U64Pair(m.0, 1));
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Propose>, _: TimerTag) {
            if !self.decided {
                self.decided = true;
                ctx.observe(obs::DECIDE, Payload::U64Pair(ctx.me().0 as u64, 1));
            }
        }
    }

    fn race_world(n: usize) -> Box<dyn SchedWorld> {
        let net = NetworkConfig::new(n)
            .with_default(LinkModel::reliable_const(SimDuration::from_millis(1)));
        Box::new(
            WorldBuilder::new(net)
                .track_state(true)
                .build(|_, _| RaceDecide { decided: false }),
        )
    }

    fn race_target(n: usize, properties: Vec<&'static str>) -> McTarget {
        McTarget {
            name: "race-decide".into(),
            n,
            horizon: Time::from_millis(20),
            properties,
            factory: Box::new(move || race_world(n)),
        }
    }

    use fd_sim::SchedWorld;

    #[test]
    fn first_branch_is_the_canonical_schedule() {
        // Branch zero of the exploration (empty script) must be
        // byte-identical to the plain `run_until_time` schedule —
        // the wheel's (time, seq) order is the canonical schedule.
        let target = race_target(3, vec![]);
        let cfg = McConfig::default();
        let exec = run_one(&target, &cfg, &[], &[]);

        let mut plain = race_world(3);
        let mut canon = fd_sim::CanonicalScheduler;
        plain.run_scheduled_until(Time::from_millis(20), &mut canon);
        let (trace, _) = plain.take_results();
        assert_eq!(exec.trace_digest, trace.digest());

        let net = NetworkConfig::new(3)
            .with_default(LinkModel::reliable_const(SimDuration::from_millis(1)));
        let mut wheel = WorldBuilder::new(net).build(|_, _| RaceDecide { decided: false });
        wheel.run_until_time(Time::from_millis(20));
        let (wheel_trace, _) = wheel.take_results();
        assert_eq!(exec.trace_digest, wheel_trace.digest());
    }

    #[test]
    fn agreement_holds_without_forced_losses() {
        let target = race_target(3, vec![fd_obs::keys::CONSENSUS_AGREEMENT]);
        let report = explore(&target, &McConfig::default());
        assert!(report.complete, "tiny space must be exhausted");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.stats.runs >= 2, "delivery order must be explored");
        assert_eq!(report.stats.depth_capped_runs, 0);
    }

    /// A violation is reported raw — the first violating run, which
    /// [`run_one`] re-executes to the same trace digest. (Shrinking it
    /// and replaying it from disk are `ecfd campaign`'s, tested in
    /// `tests/mc_artifacts.rs`.)
    #[test]
    fn a_found_violation_reruns_to_its_digest() {
        let target = race_target(3, vec![fd_obs::keys::CONSENSUS_AGREEMENT]);
        let cfg = McConfig {
            drops: 1,
            ..McConfig::default()
        };
        let report = explore(&target, &cfg);
        assert!(report.complete);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        let v = &report.violations[0];
        assert_eq!(v.property, fd_obs::keys::CONSENSUS_AGREEMENT);
        assert!(v.schedule.is_empty(), "no crash budget, no crash");
        assert!(v.choices.iter().any(|c| c.is_drop()), "{:?}", v.choices);

        let again = run_one(&target, &cfg, &v.schedule, &v.choices);
        assert_eq!(again.trace_digest, v.trace_digest);
        assert!(again.violations.iter().any(|f| f.check == v.property));
    }

    #[test]
    fn por_and_dedup_preserve_violations_and_final_states() {
        for drops in [0usize, 1] {
            let target = race_target(3, vec![fd_obs::keys::CONSENSUS_AGREEMENT]);
            let base = McConfig {
                drops,
                por: false,
                dedup: false,
                ..McConfig::default()
            };
            let full = explore(&target, &base);
            assert!(full.complete);

            for (por, dedup) in [(true, false), (false, true), (true, true)] {
                let cfg = McConfig {
                    por,
                    dedup,
                    ..base.clone()
                };
                let pruned = explore(&target, &cfg);
                assert!(pruned.complete);
                let props = |r: &McReport| {
                    r.violations
                        .iter()
                        .map(|v| v.property.clone())
                        .collect::<std::collections::BTreeSet<_>>()
                };
                assert_eq!(props(&full), props(&pruned), "por={por} dedup={dedup}");
                assert_eq!(
                    full.final_digests, pruned.final_digests,
                    "por={por} dedup={dedup} drops={drops}"
                );
                assert!(pruned.stats.runs <= full.stats.runs);
            }
        }
    }

    #[test]
    fn por_actually_reduces_the_search() {
        // n = 4 puts three same-instant deliveries (and later three
        // timers) in one batch — with only two, every post-choice
        // remainder is a single-option non-choice and sleep sets never
        // get to prune anything.
        let target = race_target(4, vec![]);
        let on = explore(&target, &McConfig::default());
        let off = explore(
            &target,
            &McConfig {
                por: false,
                dedup: false,
                ..McConfig::default()
            },
        );
        assert!(
            on.stats.runs < off.stats.runs,
            "POR must prune: {} vs {}",
            on.stats.runs,
            off.stats.runs
        );
        assert!(on.stats.sleep_skips > 0);
    }

    #[test]
    fn crash_schedules_enumerate_the_grid() {
        let cfg = McConfig {
            crashes: 1,
            crash_window: Time::from_millis(50),
            crash_grid: SimDuration::from_millis(25),
            ..McConfig::default()
        };
        let scheds = crash_schedules(3, &cfg);
        // No-crash + 3 victims × {0, 25, 50}ms.
        assert_eq!(scheds.len(), 1 + 3 * 3);
        assert!(scheds[0].is_empty());

        let two = McConfig {
            crashes: 2,
            ..cfg.clone()
        };
        let scheds2 = crash_schedules(3, &two);
        // Adds C(3,2)=3 ordered victim pairs × 3×3 time assignments.
        assert_eq!(scheds2.len(), 1 + 3 * 3 + 3 * 9);
    }

    #[test]
    fn crashes_are_explored_and_reported_in_witness_plans() {
        // With a crash budget, the explorer must consider crashing the
        // proposer before its sends are delivered... but crashes only
        // take effect at whole instants, and p0's sends happen in
        // on_start at t=0 with delivery at 1ms. A crash of p1 or p2 at
        // t=0 silences that process: its messages (none) and timers die
        // with it, but the *other* undecided process still decides 7 —
        // agreement (vacuously over one decider) holds. Termination is
        // the property a crash visibly changes; here we just assert the
        // schedules are enumerated and runs multiply.
        let target = race_target(3, vec![fd_obs::keys::CONSENSUS_AGREEMENT]);
        let cfg = McConfig {
            crashes: 1,
            crash_window: Time::from_millis(10),
            crash_grid: SimDuration::from_millis(5),
            ..McConfig::default()
        };
        let report = explore(&target, &cfg);
        assert!(report.complete);
        assert_eq!(report.stats.schedules, 1 + 3 * 3);
        assert!(report.violations.is_empty());
    }

    #[test]
    fn max_runs_truncates_instead_of_hanging() {
        let target = race_target(3, vec![]);
        let cfg = McConfig {
            drops: 2,
            max_runs: 3,
            ..McConfig::default()
        };
        let report = explore(&target, &cfg);
        assert!(!report.complete);
        assert!(report.stats.truncated);
        assert!(report.stats.runs <= 3);
    }

    /// `ecfd mc`'s per-target block and verdict line, on a hand-built
    /// report: column layout, the POR factor, the violation pair, and
    /// the three verdicts in precedence order.
    #[test]
    fn report_renders_the_target_block_and_the_verdict() {
        let mut clean = McReport {
            target: "ec-n3".into(),
            n: 3,
            stats: ExploreStats {
                runs: 40,
                schedules: 1,
                distinct_states: 12,
                choice_points: 14,
                sleep_skips: 9,
                visited_hits: 2,
                depth_capped_runs: 40,
                ..ExploreStats::default()
            },
            violations: vec![],
            complete: true,
            final_digests: vec![],
        };
        assert_eq!(
            clean.render(7, Some(100), "w"),
            "  ec-n3        runs=40      schedules=1    states=12     cps=14      sleep_skips=9       \
visited_hits=2      capped=40     wall=     7ms exhaustive por-reduction=2.50x\n"
        );
        assert_eq!(
            McReport::render_verdict([&clean]),
            "mc: exhaustive within budgets, no violations\n"
        );
        clean.complete = false;
        assert!(clean.render(7, None, "w").ends_with("ms TRUNCATED\n"));
        let truncated = clean;
        assert!(McReport::render_verdict([&truncated]).starts_with("mc: clean but truncated"));

        let violated = McReport {
            target: "race-decide".into(),
            n: 3,
            stats: ExploreStats::default(),
            violations: vec![FoundViolation {
                property: "consensus.agreement".into(),
                detail: "p1 decided 7, p2 decided 2".into(),
                schedule: vec![],
                choices: vec![Choice::Drop(1)],
                trace_digest: 0,
            }],
            complete: true,
            final_digests: vec![],
        };
        let text = violated.render(0, None, "target/w");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert_eq!(
            lines[1],
            "    VIOLATION consensus.agreement: p1 decided 7, p2 decided 2"
        );
        assert_eq!(
            lines[2],
            "    artifact: target/w/race-decide-consensus-agreement.json"
        );
        assert_eq!(
            McReport::render_verdict([&truncated, &violated]),
            "mc: violations found — artifacts written\n"
        );
    }
}

//! A model-checking counterexample, end to end on a toy world: found by
//! `fd_mc::explore`, written as a campaign artifact of an
//! `fd_bench::mc::McScenario`, read back from JSON, replayed and shrunk
//! by `fd_campaign` — the path `ecfd mc` and `ecfd campaign --replay
//! FILE [--shrink]` take.

use ecfd::prelude::*;
use fd_bench::mc::{mc_net, McParams, McScenario};
use fd_campaign::Artifact;
use fd_core::obs;
use fd_mc::{explore, Choice, McConfig, McTarget};

/// A deliberately race-prone toy consensus: p0 proposes 7 to the
/// others; each other process decides the first proposal it receives,
/// or its own pid if its local timeout fires first. On reliable links
/// the proposal always wins the race (1 ms delay vs 10 ms timeout) and
/// everyone agrees on 7; only a forced loss can push a process onto the
/// timeout path and break agreement.
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

const TIMEOUT: TimerTag = TimerTag::new(0x7e57, 1, 0);

impl RaceDecide {
    fn decide(&mut self, ctx: &mut Context<'_, Propose>, value: u64) {
        if !self.decided {
            self.decided = true;
            ctx.observe(obs::DECIDE, Payload::U64Pair(value, 1));
        }
    }
}

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
        self.decide(ctx, m.0);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Propose>, _: TimerTag) {
        let me = ctx.me().0 as u64;
        self.decide(ctx, me);
    }
}

fn race_target(n: usize, horizon: Time) -> McTarget {
    McTarget {
        name: format!("race-n{n}"),
        n,
        horizon,
        properties: vec![fd_obs::keys::CONSENSUS_AGREEMENT],
        factory: Box::new(move || {
            let world = WorldBuilder::new(mc_net(n))
                .track_state(true)
                .build(|_, _| RaceDecide { decided: false });
            Box::new(world)
        }),
    }
}

/// The race's one violation at n = 3 under one forced loss, as `ecfd mc`
/// writes it (before shrinking).
fn race_artifact() -> (McScenario, Artifact) {
    let scenario = McScenario {
        name: "mc-race".into(),
        build: Box::new(race_target),
    };
    let target = (scenario.build)(3, Time::from_millis(20));
    let cfg = McConfig {
        drops: 1,
        ..McConfig::default()
    };
    let report = explore(&target, &cfg);
    assert!(report.complete);
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    let artifact = scenario.artifact(&target, &cfg, &report.violations[0]);
    (scenario, artifact)
}

#[test]
fn a_forced_loss_breaks_agreement_and_shrinks_to_one_drop() {
    let (scenario, artifact) = race_artifact();
    assert_eq!(artifact.property, fd_obs::keys::CONSENSUS_AGREEMENT);
    let out = fd_campaign::shrink(&scenario, &artifact).unwrap();
    // The shrunk counterexample is minimal: exactly one choice, a drop,
    // and no crash.
    let choices = McParams::of(&out.artifact.plan).unwrap().choices;
    assert_eq!(choices.len(), 1, "{choices:?}");
    assert!(choices[0].is_drop());
    assert!(out.artifact.plan.crashes.is_empty(), "no crashes needed");
    // Agreement is a safety property, so the horizon is cut too.
    assert!(out.artifact.plan.horizon < artifact.plan.horizon);
}

#[test]
fn mc_artifacts_replay_byte_identically() {
    let (scenario, artifact) = race_artifact();
    let once = fd_campaign::replay(&scenario, &artifact).unwrap();
    let twice = fd_campaign::replay(&scenario, &artifact).unwrap();
    assert!(once.digest_matches, "replay must hit the recorded digest");
    assert!(once.reproduced());
    assert_eq!(once.digest, twice.digest);

    // And the JSON round-trip preserves the artifact exactly.
    let json = serde_json::to_string_pretty(&artifact).unwrap();
    let back: Artifact = serde_json::from_str(&json).unwrap();
    assert_eq!(back.digest, artifact.digest);
    let choices = McParams::of(&back.plan).unwrap().choices;
    assert!(choices.iter().any(|c| matches!(c, Choice::Drop(_))));
    assert!(
        fd_campaign::replay(&scenario, &back)
            .unwrap()
            .digest_matches
    );
    assert_eq!(json, serde_json::to_string_pretty(&back).unwrap());
}

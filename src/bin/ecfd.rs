//! `ecfd` — scenario driver CLI.
//!
//! Run consensus instances, failure detectors, or a replicated log over
//! the deterministic simulator, straight from the command line:
//!
//! ```bash
//! ecfd consensus --n 7 --protocol ec --crash 2@50 --seed 9 --timeline
//! ecfd detector --kind ring --n 6 --crash 3@200 --run-ms 3000
//! ecfd log --n 5 --commands 8 --crash 4@40
//! ecfd classes
//! ```
//!
//! Argument parsing is hand-rolled (the workspace deliberately has no CLI
//! dependency); `--help` prints the grammar.

use ecfd::prelude::*;
use fd_consensus::{ConsensusNode, EcMergedConsensus, MultiEc, MultiNode};
use fd_core::Standalone;
use fd_detectors::{
    FusedConfig, FusedDetector, HeartbeatDetector, OmegaGossip, OmegaGossipConfig, OmegaGossipNode,
    RingDetector, StableLeaderConfig, StableLeaderDetector, VCubeConfig, VCubeDetector,
};
use std::process::ExitCode;

/// One `USAGE` entry per element, each starting `  ecfd <subcommand>`.
const USAGE: &[&str] = &[
    "  ecfd consensus [--n N] [--protocol ec|ecm|ct|mr|paxos] [--seed S]
                 [--crash P@MS ...] [--horizon-ms MS] [--timeline]",
    "  ecfd detector  [--kind heartbeat|ring|leader|fused|stable|gossip|vcube]
                 [--n N] [--seed S] [--crash P@MS ...] [--run-ms MS] [--timeline]",
    "  ecfd log       [--n N] [--commands K] [--seed S] [--crash P@MS ...]",
    "  ecfd campaign  --scenario NAME [--seeds A..B] [--jobs N] [--artifact-dir DIR]
                 [--metrics-out FILE]",
    "  ecfd campaign  --plan FILE [--scenario chaos|kv] [--seeds A..B] [--jobs N]
                 [--artifact-dir DIR]",
    "  ecfd campaign  --replay FILE [--shrink] [--metrics-out FILE]",
    "  ecfd kv-bench  [--seeds N] [--out FILE]",
    "  ecfd obs-report FILE",
    "  ecfd lint      [--format human|json] [--deny-warnings] [--rule ID ...]
                 [--root DIR] [--graph-out FILE] [--graph-format json|dot]",
    "  ecfd mc        (--detector hb|ring|leader | --protocol ec|ct|paxos|multi | --all)
                 [--n N] [--horizon-ms MS] [--depth D] [--crashes K] [--drops L]
                 [--crash-window-ms MS] [--crash-grid-ms MS] [--max-runs R]
                 [--no-por] [--no-dedup] [--por-baseline]
                 [--witness-dir DIR] [--json FILE]",
    "  ecfd mc        --replay FILE (--detector X | --protocol X)",
    "  ecfd classes",
    "  ecfd help",
];

const SIM_OPTIONS: &str = "\
OPTIONS:
  --n N             number of processes (default 5)
  --protocol X      consensus protocol: ec (the paper's ◇C algorithm, default),
                    ecm (merged Phase 0/1 variant), ct (Chandra–Toueg ◇S),
                    mr (Mostefaoui–Raynal Ω), paxos (single-decree synod)
  --kind X          failure detector family (default heartbeat)
  --seed S          run seed (default 42); same seed ⇒ identical run
  --crash P@MS      crash process P at MS milliseconds (repeatable)
  --horizon-ms MS   consensus give-up horizon (default 10000)
  --run-ms MS       detector run length (default 3000)
  --commands K      commands submitted to the replicated log (default 6)
  --timeline        print the chronological observation timeline
  --max-processes N cap on distinct processes in a --timeline listing
                    (default 64): larger casts degrade to the one-line
                    summary instead of flooding the terminal
";

const CAMPAIGN_OPTIONS: &str = "\
CAMPAIGN OPTIONS:
  --scenario NAME   campaign scenario (e8, scale, chaos, kv, blind)
  --plan FILE       run a fixed chaos plan (JSON, see crates/fd-chaos/CATALOG.md)
                    for every seed; defaults to --scenario chaos, combine
                    with --scenario kv to drive the replicated KV service
                    under the plan. A missing or malformed plan file
                    exits with code 2 and a file/parse diagnostic.
  --seeds A..B      seed range to sweep, half-open (default 0..100)
  --jobs N          worker threads (default: all cores)
  --artifact-dir D  where failing seeds write repro JSON (default target/campaign)
  --replay FILE     re-execute a repro artifact instead of sweeping
  --shrink          after a replay, greedily minimize the counterexample
  --metrics-out F   write kernel/campaign metrics as JSON Lines to F
                    (render later with `ecfd obs-report F`); per-seed
                    verdicts and digests are identical with or without it
";

const KV_BENCH_OPTIONS: &str = "\
KV-BENCH OPTIONS:
  --seeds N         seeds per detector class in the standard
                    crash/restart plan (default 200)
  --out FILE        write the serving-stack benchmark JSON to FILE
                    (same shape as the committed BENCH_kv.json)
";

const LINT_OPTIONS: &str = "\
LINT OPTIONS:
  --format F        report format: human (default) or json
  --deny-warnings   treat warn-level findings as errors (CI runs this)
  --rule ID         run only the named rule (repeatable; see
                    crates/fd-lint/RULES.md for the catalog)
  --root DIR        workspace root to scan (default: nearest ancestor
                    with a [workspace] Cargo.toml)
  --graph-out FILE  also dump the workspace call graph the HP rules
                    reason over (hot-path roots marked)
  --graph-format F  call-graph dump format: json (default) or dot

  Exit codes: 0 clean, 1 findings, 2 internal error (bad flags,
  unknown rule ID, unreadable workspace).
";

const MC_OPTIONS: &str = "\
MC OPTIONS (bounded exhaustive schedule exploration, see fd-mc):
  --detector X      explore a standalone detector world: hb, ring, leader
  --protocol X      explore a consensus stack: ec (with the retransmission
                    watchdog), ct, paxos, or the multi replicated log
  --all             explore every detector class and every protocol
  --n N             processes (default 3; exhaustive exploration is meant
                    for n=3..4)
  --horizon-ms MS   run horizon per execution (default 300)
  --depth D         recorded choice points per run; nondeterminism past
                    the cap is resolved canonically (default 6)
  --crashes K       max crash victims per schedule, placed exhaustively
                    on the time grid (default 0)
  --drops L         max forced message losses per run (default 0)
  --crash-window-ms MS  crash placement window (default 100)
  --crash-grid-ms MS    crash placement grid step (default 25)
  --max-runs R      hard cap on executions; exceeding it reports a
                    truncated (non-exhaustive) search (default 200000)
  --no-por          disable sleep-set partial-order reduction
  --no-dedup        disable visited-state pruning
  --por-baseline    also run with POR off and report the reduction factor
  --witness-dir D   where violation witnesses are written
                    (default target/mc-witnesses)
  --json FILE       write the full exploration reports as JSON
  --replay FILE     replay a witness JSON byte-identically instead of
                    exploring (target flags select the world to replay on)

  Exit codes: 0 exhaustive and clean (replay: reproduced), 1 violations
  found or replay diverged, 2 bad flags / setup errors.
";

/// Each options section with the subcommands whose flags it documents.
const SECTIONS: &[(&[&str], &str)] = &[
    (&["consensus", "detector", "log"], SIM_OPTIONS),
    (&["campaign"], CAMPAIGN_OPTIONS),
    (&["kv-bench"], KV_BENCH_OPTIONS),
    (&["lint"], LINT_OPTIONS),
    (&["mc"], MC_OPTIONS),
];

/// The usage text: every subcommand's for `None`, one's for `Some(name)`
/// (`None` back if there is no such subcommand).
fn help(cmd: Option<&str>) -> Option<String> {
    let wanted = |names: &[&str]| cmd.is_none_or(|c| names.contains(&c));
    let mut usage = String::new();
    for entry in USAGE {
        if wanted(&[entry.split_whitespace().nth(1).unwrap_or("")]) {
            usage = usage + entry + "\n";
        }
    }
    let sections = SECTIONS.iter().filter(|(names, _)| wanted(names));
    let sections: String = sections.map(|(_, text)| format!("\n{text}")).collect();
    let title = match cmd {
        None => "ecfd — eventually consistent failure detectors, runnable\n\n",
        Some(_) => "",
    };
    (!usage.is_empty()).then(|| format!("{title}USAGE:\n{usage}{sections}"))
}

#[derive(Debug, Default)]
struct Args {
    n: usize,
    seed: u64,
    protocol: String,
    kind: String,
    crashes: Vec<(usize, u64)>,
    horizon_ms: u64,
    run_ms: u64,
    commands: u64,
    timeline: bool,
    scenario: String,
    seeds: (u64, u64),
    jobs: usize,
    artifact_dir: String,
    replay: Option<String>,
    plan: Option<String>,
    shrink: bool,
    metrics_out: Option<String>,
    max_processes: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        n: 5,
        seed: 42,
        protocol: "ec".into(),
        kind: "heartbeat".into(),
        horizon_ms: 10_000,
        run_ms: 3_000,
        commands: 6,
        seeds: (0, 100),
        jobs: std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
        artifact_dir: "target/campaign".into(),
        max_processes: 64,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut take = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--n" => a.n = take()?.parse().map_err(|e| format!("--n: {e}"))?,
            "--seed" => a.seed = take()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--protocol" => a.protocol = take()?.clone(),
            "--kind" => a.kind = take()?.clone(),
            "--horizon-ms" => {
                a.horizon_ms = take()?.parse().map_err(|e| format!("--horizon-ms: {e}"))?
            }
            "--run-ms" => a.run_ms = take()?.parse().map_err(|e| format!("--run-ms: {e}"))?,
            "--commands" => a.commands = take()?.parse().map_err(|e| format!("--commands: {e}"))?,
            "--timeline" => a.timeline = true,
            "--max-processes" => {
                a.max_processes = take()?
                    .parse()
                    .map_err(|e| format!("--max-processes: {e}"))?;
                if a.max_processes == 0 {
                    return Err("--max-processes must be at least 1".into());
                }
            }
            "--scenario" => a.scenario = take()?.clone(),
            "--seeds" => {
                let spec = take()?;
                let (lo, hi) = spec
                    .split_once("..")
                    .ok_or_else(|| format!("--seeds wants A..B (half-open), got {spec}"))?;
                a.seeds = (
                    lo.parse().map_err(|e| format!("--seeds start: {e}"))?,
                    hi.parse().map_err(|e| format!("--seeds end: {e}"))?,
                );
                if a.seeds.0 >= a.seeds.1 {
                    return Err(format!(
                        "--seeds: empty range {spec} (half-open A..B needs B > A)"
                    ));
                }
            }
            "--jobs" => {
                a.jobs = take()?.parse().map_err(|e| format!("--jobs: {e}"))?;
                if a.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--artifact-dir" => a.artifact_dir = take()?.clone(),
            "--replay" => a.replay = Some(take()?.clone()),
            "--plan" => a.plan = Some(take()?.clone()),
            "--shrink" => a.shrink = true,
            "--metrics-out" => a.metrics_out = Some(take()?.clone()),
            "--crash" => {
                let spec = take()?;
                let (p, ms) = spec
                    .split_once('@')
                    .ok_or_else(|| format!("--crash wants P@MS, got {spec}"))?;
                a.crashes.push((
                    p.parse().map_err(|e| format!("--crash process: {e}"))?,
                    ms.parse().map_err(|e| format!("--crash time: {e}"))?,
                ));
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.n == 0 || a.n > fd_core::MAX_PROCESSES {
        return Err(format!("--n must be in 1..={}", fd_core::MAX_PROCESSES));
    }
    for &(p, _) in &a.crashes {
        if p >= a.n {
            return Err(format!("--crash process p{p} out of range for n={}", a.n));
        }
    }
    if 2 * a.crashes.len() >= a.n {
        eprintln!(
            "warning: {} crashes with n={} violates f < n/2 — liveness not guaranteed",
            a.crashes.len(),
            a.n
        );
    }
    Ok(a)
}

fn scenario_of(a: &Args) -> Scenario {
    let mut sc = Scenario::failure_free(a.n, a.seed, Time::from_millis(a.horizon_ms));
    for &(p, ms) in &a.crashes {
        sc = sc.with_crash(ProcessId(p), Time::from_millis(ms));
    }
    sc
}

fn print_timeline(trace: &fd_sim::Trace, max_processes: usize) {
    println!("\ntimeline:");
    print!(
        "{}",
        fd_sim::Timeline::new(trace)
            .max_processes(max_processes)
            .render()
    );
}

fn cmd_consensus(a: &Args) -> Result<(), String> {
    let sc = scenario_of(a);
    println!(
        "consensus: protocol={} n={} seed={} crashes={:?}",
        a.protocol, a.n, a.seed, a.crashes
    );
    let r = match a.protocol.as_str() {
        "ec" => run_scenario(default_net(a.n), &sc, fd_consensus::ec_node_hb),
        "ct" => run_scenario(default_net(a.n), &sc, fd_consensus::ct_node_hb),
        "mr" => run_scenario(default_net(a.n), &sc, fd_consensus::mr_node_leader),
        "paxos" => run_scenario(default_net(a.n), &sc, fd_consensus::paxos_node_leader),
        "ecm" => run_scenario(default_net(a.n), &sc, |pid, n| {
            ConsensusNode::new(
                pid,
                LeaderByFirstNonSuspected::new(
                    HeartbeatDetector::new(pid, n, HeartbeatConfig::default()),
                    n,
                ),
                EcMergedConsensus::new(pid, n, ConsensusConfig::default()),
            )
        }),
        other => return Err(format!("unknown protocol {other} (ec|ecm|ct|mr|paxos)")),
    };
    if !r.all_decided {
        return Err(
            "no decision before the horizon (crashed majority, or horizon too small)".into(),
        );
    }
    let check = ConsensusRun::new(&r.trace, a.n);
    check.check_all().map_err(|v| v.to_string())?;
    println!(
        "decided {} in round {} at {} ({} protocol messages)",
        r.decided_value(),
        r.max_decision_round().unwrap(),
        r.decide_time.unwrap(),
        r.metrics.sent_total(),
    );
    println!("uniform agreement + validity + integrity + termination verified ✓");
    if a.timeline {
        print_timeline(&r.trace, a.max_processes);
    }
    Ok(())
}

fn cmd_detector(a: &Args) -> Result<(), String> {
    println!(
        "detector: kind={} n={} seed={} crashes={:?}",
        a.kind, a.n, a.seed, a.crashes
    );
    let net = default_net(a.n);
    let mut b = WorldBuilder::new(net).seed(a.seed);
    for &(p, ms) in &a.crashes {
        b = b.crash_at(ProcessId(p), Time::from_millis(ms));
    }
    let end = Time::from_millis(a.run_ms);
    let (trace, metrics) = match a.kind.as_str() {
        "heartbeat" => {
            let mut w = b.build(|pid, n| {
                Standalone(LeaderByFirstNonSuspected::new(
                    HeartbeatDetector::new(pid, n, HeartbeatConfig::default()),
                    n,
                ))
            });
            w.run_until_time(end);
            w.into_results()
        }
        "ring" => {
            let mut w = b.build(|pid, n| {
                Standalone(LeaderByFirstNonSuspected::new(
                    RingDetector::new(pid, n, RingConfig::default()),
                    n,
                ))
            });
            w.run_until_time(end);
            w.into_results()
        }
        "leader" => {
            let mut w =
                b.build(|pid, n| Standalone(LeaderDetector::new(pid, n, LeaderConfig::default())));
            w.run_until_time(end);
            w.into_results()
        }
        "fused" => {
            let mut w =
                b.build(|pid, n| Standalone(FusedDetector::new(pid, n, FusedConfig::default())));
            w.run_until_time(end);
            w.into_results()
        }
        "stable" => {
            let mut w = b.build(|pid, n| {
                Standalone(StableLeaderDetector::new(
                    pid,
                    n,
                    StableLeaderConfig::default(),
                ))
            });
            w.run_until_time(end);
            w.into_results()
        }
        "gossip" => {
            let mut w = b.build(|pid, n| {
                OmegaGossipNode::new(
                    HeartbeatDetector::new(pid, n, HeartbeatConfig::default()),
                    OmegaGossip::new(pid, n, OmegaGossipConfig::default()),
                )
            });
            w.run_until_time(end);
            w.into_results()
        }
        "vcube" => {
            let mut w = b.build(|pid, n| {
                Standalone(LeaderByFirstNonSuspected::new(
                    VCubeDetector::new(pid, n, VCubeConfig::default()),
                    n,
                ))
            });
            w.run_until_time(end);
            w.into_results()
        }
        other => return Err(format!("unknown detector {other}")),
    };
    let run = FdRun::new(&trace, a.n, end);
    println!("{}", fd_sim::trace_summary(&trace));
    for p in run.correct().iter() {
        println!(
            "  {p}: suspects {}  trusts {}",
            run.final_suspects(p),
            run.final_trusted(p)
                .map_or("-".to_string(), |q| q.to_string()),
        );
    }
    for class in [
        FdClass::EventuallyConsistent,
        FdClass::EventuallyPerfect,
        FdClass::Omega,
    ] {
        match run.check_class(class) {
            Ok(()) => println!("  {class}: holds ✓"),
            Err(v) => println!("  {class}: {v}"),
        }
    }
    println!("  total messages: {}", metrics.sent_total());
    if a.timeline {
        print_timeline(&trace, a.max_processes);
    }
    Ok(())
}

fn cmd_log(a: &Args) -> Result<(), String> {
    println!(
        "replicated log: n={} commands={} seed={} crashes={:?}",
        a.n, a.commands, a.seed, a.crashes
    );
    let mut b = WorldBuilder::new(default_net(a.n)).seed(a.seed);
    for &(p, ms) in &a.crashes {
        b = b.crash_at(ProcessId(p), Time::from_millis(ms));
    }
    let mut w = b.build(|pid, n| {
        MultiNode::new(
            pid,
            LeaderByFirstNonSuspected::new(
                HeartbeatDetector::new(pid, n, HeartbeatConfig::default()),
                n,
            ),
            MultiEc::new(pid, n, ConsensusConfig::default()),
        )
    });
    for k in 0..a.commands {
        let submitter = (k as usize) % a.n;
        let cmd = 1000 + k;
        w.interact(ProcessId(submitter), move |node, ctx| node.submit(ctx, cmd));
    }
    let crashed: Vec<usize> = a.crashes.iter().map(|&(p, _)| p).collect();
    let survivor_cmds: Vec<u64> = (0..a.commands)
        .filter(|&k| !crashed.contains(&((k as usize) % a.n)))
        .map(|k| 1000 + k)
        .collect();
    let done = w.run_until(Time::from_millis(a.horizon_ms), |w| {
        w.correct().iter().all(|&p| {
            let vals: Vec<u64> = w.actor(p).log().iter().map(|(_, v)| *v).collect();
            survivor_cmds.iter().all(|c| vals.contains(c))
        })
    });
    if !done {
        return Err("log did not converge before the horizon".into());
    }
    let reference_pid = *w.correct().first().expect("a survivor");
    let log = w.actor(ProcessId(reference_pid.index())).log();
    println!("log at {reference_pid} ({} slots, {}):", log.len(), w.now());
    for (slot, v) in &log {
        if *v == fd_consensus::NOOP {
            println!("  [{slot}] (noop)");
        } else {
            println!("  [{slot}] command {v}");
        }
    }
    Ok(())
}

/// Campaign failures that must map to distinct process exit codes:
/// "a seed violated a property" (1) and "the sweep never started —
/// bad plan file, unknown scenario" (2) mean different things to CI.
enum CampaignError {
    /// Setup never completed: unreadable/unparseable plan file, unknown
    /// scenario name, contradictory flags. Exit code 2.
    Setup(String),
    /// The sweep (or replay) ran and found failures. Exit code 1.
    Run(String),
}

fn cmd_campaign(a: &Args) -> ExitCode {
    match run_campaign(a) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CampaignError::Run(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(CampaignError::Setup(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Load the fixed plan behind `--plan` and wrap it in the scenario
/// `--scenario` picked (chaos by default, `kv` for the KV service).
/// Every failure here is a [`CampaignError::Setup`]: the file is
/// missing, unreadable, not JSON, not a chaos plan, or illegal.
fn plan_scenario(a: &Args, path: &str) -> Result<Box<dyn fd_campaign::Scenario>, CampaignError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CampaignError::Setup(format!("--plan {path}: {e}")))?;
    let plan: fd_chaos::ChaosPlan = serde_json::from_str(&text)
        .map_err(|e| CampaignError::Setup(format!("--plan {path}: not a chaos plan: {e}")))?;
    println!(
        "fixed chaos plan {path}: n={} detector={:?} horizon={} events={}",
        plan.n,
        plan.detector,
        plan.horizon,
        plan.events.len()
    );
    match a.scenario.as_str() {
        "" | fd_chaos::CHAOS => Ok(Box::new(
            fd_chaos::ChaosScenario::fixed(plan)
                .map_err(|e| CampaignError::Setup(format!("--plan {path}: {e}")))?,
        )),
        fd_kv::KV => {
            Ok(Box::new(fd_kv::KvScenario::fixed(plan).map_err(|e| {
                CampaignError::Setup(format!("--plan {path}: {e}"))
            })?))
        }
        other => Err(CampaignError::Setup(format!(
            "--plan drives the chaos or kv scenario; it cannot combine with --scenario {other:?}"
        ))),
    }
}

fn run_campaign(a: &Args) -> Result<(), CampaignError> {
    use fd_bench::campaign::{scenario_by_name, scenario_names};

    if let Some(path) = &a.replay {
        let path = std::path::Path::new(path);
        let artifact = fd_campaign::Artifact::load(path).map_err(CampaignError::Setup)?;
        let scenario = scenario_by_name(&artifact.scenario).ok_or_else(|| {
            CampaignError::Setup(format!(
                "artifact names unknown scenario {:?}",
                artifact.scenario
            ))
        })?;
        println!(
            "replaying {}: scenario {} seed {} property {}",
            path.display(),
            artifact.scenario,
            artifact.seed,
            artifact.property
        );
        let r = fd_campaign::replay(scenario.as_ref(), &artifact).map_err(CampaignError::Run)?;
        match &r.violation {
            Some(detail) => println!("violation reproduced ✓  {detail}"),
            None => println!("violation did NOT reproduce"),
        }
        println!(
            "trace digest {:#018x} ({})",
            r.digest,
            if r.digest_matches {
                "matches artifact"
            } else {
                "DIFFERS from artifact"
            }
        );
        if a.shrink {
            if !r.reproduced() {
                return Err(CampaignError::Run(
                    "refusing to shrink: the violation did not reproduce".into(),
                ));
            }
            let out =
                fd_campaign::shrink(scenario.as_ref(), &artifact).map_err(CampaignError::Run)?;
            println!(
                "shrunk in {} accepted steps ({} attempts):",
                out.applied.len(),
                out.attempts
            );
            for step in &out.applied {
                println!("  - {step}");
            }
            if let Some(metrics_path) = &a.metrics_out {
                let registry = fd_obs::Registry::new();
                registry
                    .counter(fd_obs::keys::CAMPAIGN_SHRINK_STEPS)
                    .add(out.applied.len() as u64);
                registry
                    .counter(fd_obs::keys::CAMPAIGN_SHRINK_ATTEMPTS)
                    .add(out.attempts as u64);
                let metrics_path = std::path::Path::new(metrics_path);
                fd_obs::write_jsonl_file(metrics_path, &registry.snapshot())
                    .map_err(|e| CampaignError::Run(format!("{}: {e}", metrics_path.display())))?;
                println!("metrics: {}", metrics_path.display());
            }
            let min = artifact_sibling(path, &out.artifact).map_err(CampaignError::Run)?;
            println!("minimal counterexample: {}", min.display());
        }
        return if r.reproduced() {
            Ok(())
        } else {
            Err(CampaignError::Run("artifact is stale".into()))
        };
    }

    let scenario: Box<dyn fd_campaign::Scenario> = if let Some(path) = &a.plan {
        plan_scenario(a, path)?
    } else {
        if a.scenario.is_empty() {
            return Err(CampaignError::Setup(format!(
                "--scenario is required (known: {})",
                scenario_names().join(", ")
            )));
        }
        scenario_by_name(&a.scenario).ok_or_else(|| {
            CampaignError::Setup(format!(
                "unknown scenario {:?} (known: {})",
                a.scenario,
                scenario_names().join(", ")
            ))
        })?
    };
    let registry = fd_obs::Registry::new();
    let mut campaign = fd_campaign::Campaign::new(scenario.as_ref(), a.seeds.0..a.seeds.1)
        .jobs(a.jobs)
        .artifact_dir(&a.artifact_dir);
    if a.metrics_out.is_some() {
        campaign = campaign.observe(&registry);
    }
    let report = campaign.run();
    print!("{}", report.render());
    if let Some(metrics_path) = &a.metrics_out {
        let metrics_path = std::path::Path::new(metrics_path);
        fd_campaign::write_metrics_file(metrics_path, &report, &registry)
            .map_err(|e| CampaignError::Run(format!("{}: {e}", metrics_path.display())))?;
        println!("metrics: {}", metrics_path.display());
    }
    if report.failed() > 0 {
        Err(CampaignError::Run(format!(
            "{} of {} seeds violated a property",
            report.failed(),
            report.results.len()
        )))
    } else {
        Ok(())
    }
}

/// Write a shrunk artifact next to the one it came from, `-min` suffixed.
fn artifact_sibling(
    original: &std::path::Path,
    artifact: &fd_campaign::Artifact,
) -> Result<std::path::PathBuf, String> {
    let stem = original
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("artifact");
    let path = original.with_file_name(format!("{stem}-min.json"));
    let json = serde_json::to_string_pretty(artifact).map_err(|e| e.to_string())?;
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Render a metrics JSONL file written by `campaign --metrics-out`.
fn cmd_obs_report(rest: &[String]) -> Result<(), String> {
    let [path] = rest else {
        return Err("obs-report wants exactly one argument: the metrics JSONL file".into());
    };
    let path = std::path::Path::new(path);
    let rows = fd_obs::read_jsonl_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let text =
        fd_campaign::render_metrics(&rows).map_err(|e| format!("{}: {e}", path.display()))?;
    print!("{text}");
    Ok(())
}

/// Run the replicated-KV serving-stack benchmark: every detector class
/// over N seeds of the standard crash/restart plan, reporting commit
/// latency, failover blackout, and catch-up volume (`BENCH_kv.json`).
fn cmd_kv_bench(rest: &[String]) -> Result<(), String> {
    let mut seeds = 200u64;
    let mut out: Option<String> = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut take = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seeds" => {
                seeds = take()?.parse().map_err(|e| format!("--seeds: {e}"))?;
                if seeds == 0 {
                    return Err("--seeds must be at least 1".into());
                }
            }
            "--out" => out = Some(take()?.clone()),
            other => return Err(format!("unknown kv-bench flag {other}")),
        }
    }
    println!("kv-bench: standard crash/restart plan, {seeds} seeds per detector class …");
    let bench = fd_kv::kv_bench(seeds);
    if let serde::Value::Obj(detectors) = bench.field("detectors") {
        for (key, d) in detectors {
            let commit = d.field("commit_us");
            let blackout = d.field("blackout_us");
            println!(
                "{key:<14} commit p50 {:>7}us p99 {:>7}us p99.9 {:>7}us | blackout p50 {:>7}us p99 {:>7}us | violations {}",
                commit.field("p50").as_u64().unwrap_or(0),
                commit.field("p99").as_u64().unwrap_or(0),
                commit.field("p999").as_u64().unwrap_or(0),
                blackout.field("p50").as_u64().unwrap_or(0),
                blackout.field("p99").as_u64().unwrap_or(0),
                d.field("violations").as_u64().unwrap_or(0),
            );
        }
    }
    if let Some(path) = &out {
        write_json(path, &bench)?;
        println!("kv json: {path}");
    }
    Ok(())
}

/// Flags of `ecfd lint` (parsed separately from [`Args`]).
#[derive(Debug, PartialEq)]
struct LintArgs {
    format: LintFormat,
    deny_warnings: bool,
    rules: Vec<String>,
    root: Option<String>,
    graph_out: Option<String>,
    graph_format: fd_lint::GraphFormat,
}

#[derive(Debug, PartialEq, Eq)]
enum LintFormat {
    Human,
    Json,
}

fn parse_lint_args(argv: &[String]) -> Result<LintArgs, String> {
    let mut a = LintArgs {
        format: LintFormat::Human,
        deny_warnings: false,
        rules: Vec::new(),
        root: None,
        graph_out: None,
        graph_format: fd_lint::GraphFormat::Json,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut take = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--format" => {
                a.format = match take()?.as_str() {
                    "human" => LintFormat::Human,
                    "json" => LintFormat::Json,
                    other => return Err(format!("--format must be human or json, got {other}")),
                }
            }
            "--deny-warnings" => a.deny_warnings = true,
            "--rule" => a.rules.push(take()?.clone()),
            "--root" => a.root = Some(take()?.clone()),
            "--graph-out" => a.graph_out = Some(take()?.clone()),
            "--graph-format" => {
                a.graph_format = match take()?.as_str() {
                    "json" => fd_lint::GraphFormat::Json,
                    "dot" => fd_lint::GraphFormat::Dot,
                    other => {
                        return Err(format!("--graph-format must be json or dot, got {other}"))
                    }
                }
            }
            other => return Err(format!("unknown lint flag {other}")),
        }
    }
    Ok(a)
}

/// Run the determinism analyzer over the workspace. Returns the process
/// exit code directly because, unlike the other subcommands, "findings
/// exist" (1) and "the linter itself failed" (2) must stay distinct.
fn cmd_lint(rest: &[String]) -> ExitCode {
    let a = match parse_lint_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let opts = fd_lint::Options { rules: a.rules };
    let root = match &a.root {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| std::path::PathBuf::from("."));
            match fd_lint::find_workspace_root(&cwd) {
                Ok(root) => root,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    };
    let report = match fd_lint::lint_workspace(&root, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &a.graph_out {
        let graph = match fd_lint::dump_graph(&root, a.graph_format) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = std::fs::write(path, graph) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::from(2);
        }
    }
    match a.format {
        LintFormat::Human => print!("{}", report.render_human()),
        LintFormat::Json => println!("{}", report.render_json()),
    }
    ExitCode::from(report.exit_code(a.deny_warnings))
}

fn write_json(path: &str, v: &serde::Value) -> Result<(), String> {
    let json = serde_json::to_string_pretty(v).map_err(|e| e.to_string())?;
    std::fs::write(path, json + "\n").map_err(|e| format!("{path}: {e}"))
}

fn cmd_classes() {
    println!("failure-detector classes (Fig. 1 + Ω + the paper's ◇C):\n");
    for class in FdClass::ALL {
        let comp = class
            .completeness()
            .map_or("-".into(), |c| format!("{c:?}"));
        let acc = class.accuracy().map_or("-".into(), |a| format!("{a:?}"));
        let leader = if class.has_leader() { "yes" } else { "no" };
        println!("  {class:<3}  completeness={comp:<7} accuracy={acc:<14} leader-output={leader}");
    }
    println!("\nreducibility (can the row be built from ◇C?):");
    for class in FdClass::ALL {
        use fd_core::SystemModel::*;
        let asy = class.implementable_from(FdClass::EventuallyConsistent, Asynchronous);
        let psy = class.implementable_from(FdClass::EventuallyConsistent, PartiallySynchronous);
        println!("  {class:<3}  async={asy:<5}  partial-synchrony={psy}");
    }
}

#[derive(Debug)]
struct McArgs {
    detector: Option<String>,
    protocol: Option<String>,
    all: bool,
    n: usize,
    horizon_ms: u64,
    cfg: fd_mc::McConfig,
    por_baseline: bool,
    witness_dir: String,
    json: Option<String>,
    replay: Option<String>,
}

fn parse_mc_args(argv: &[String]) -> Result<McArgs, String> {
    let mut a = McArgs {
        detector: None,
        protocol: None,
        all: false,
        n: 3,
        horizon_ms: 300,
        cfg: fd_mc::McConfig {
            depth: 6,
            ..fd_mc::McConfig::default()
        },
        por_baseline: false,
        witness_dir: "target/mc-witnesses".into(),
        json: None,
        replay: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut take = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--detector" => a.detector = Some(take()?.clone()),
            "--protocol" => a.protocol = Some(take()?.clone()),
            "--all" => a.all = true,
            "--n" => a.n = take()?.parse().map_err(|e| format!("--n: {e}"))?,
            "--horizon-ms" => {
                a.horizon_ms = take()?.parse().map_err(|e| format!("--horizon-ms: {e}"))?
            }
            "--depth" => a.cfg.depth = take()?.parse().map_err(|e| format!("--depth: {e}"))?,
            "--crashes" => {
                a.cfg.crashes = take()?.parse().map_err(|e| format!("--crashes: {e}"))?
            }
            "--drops" => a.cfg.drops = take()?.parse().map_err(|e| format!("--drops: {e}"))?,
            "--crash-window-ms" => {
                let ms: u64 = take()?
                    .parse()
                    .map_err(|e| format!("--crash-window-ms: {e}"))?;
                a.cfg.crash_window = Time::from_millis(ms);
            }
            "--crash-grid-ms" => {
                let ms: u64 = take()?
                    .parse()
                    .map_err(|e| format!("--crash-grid-ms: {e}"))?;
                if ms == 0 {
                    return Err("--crash-grid-ms must be at least 1".into());
                }
                a.cfg.crash_grid = SimDuration::from_millis(ms);
            }
            "--max-runs" => {
                a.cfg.max_runs = take()?.parse().map_err(|e| format!("--max-runs: {e}"))?
            }
            "--no-por" => a.cfg.por = false,
            "--no-dedup" => a.cfg.dedup = false,
            "--por-baseline" => a.por_baseline = true,
            "--witness-dir" => a.witness_dir = take()?.clone(),
            "--json" => a.json = Some(take()?.clone()),
            "--replay" => a.replay = Some(take()?.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.n == 0 || a.n > fd_core::MAX_PROCESSES {
        return Err(format!("--n must be in 1..={}", fd_core::MAX_PROCESSES));
    }
    if !a.all && a.detector.is_none() && a.protocol.is_none() {
        return Err("pick a target: --detector, --protocol, or --all".into());
    }
    Ok(a)
}

/// The targets an `ecfd mc` invocation explores, in order.
fn mc_targets(a: &McArgs) -> Result<Vec<fd_mc::McTarget>, String> {
    use fd_bench::mc::{detector_kind, detector_target, protocol_target, McProtocol};
    let horizon = Time::from_millis(a.horizon_ms);
    let mut out = Vec::new();
    if a.all {
        for kind in fd_chaos::DetectorKind::ALL {
            out.push(detector_target(kind, a.n, horizon));
        }
        for proto in McProtocol::ALL {
            out.push(protocol_target(proto, a.n, horizon));
        }
        return Ok(out);
    }
    if let Some(name) = &a.detector {
        let kind = detector_kind(name).ok_or_else(|| format!("--detector: unknown kind {name}"))?;
        out.push(detector_target(kind, a.n, horizon));
    }
    if let Some(name) = &a.protocol {
        let proto = McProtocol::parse(name)
            .ok_or_else(|| format!("--protocol: unknown protocol {name}"))?;
        out.push(protocol_target(proto, a.n, horizon));
    }
    Ok(out)
}

fn cmd_mc_replay(a: &McArgs, path: &str) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let w = fd_mc::Witness::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let rebuilt = McArgs {
        detector: a.detector.clone(),
        protocol: a.protocol.clone(),
        all: false,
        n: w.n,
        horizon_ms: 0, // overwritten with the witness's horizon below
        cfg: a.cfg.clone(),
        por_baseline: false,
        witness_dir: a.witness_dir.clone(),
        json: None,
        replay: None,
    };
    let mut targets = mc_targets(&rebuilt)?;
    let mut target = targets.remove(0);
    target.horizon = w.horizon;
    if target.name != w.target {
        eprintln!(
            "warning: witness was recorded on {:?}, replaying on {:?}",
            w.target, target.name
        );
    }
    let outcome = fd_mc::replay_witness(&target, &a.cfg, &w);
    println!(
        "replay {}: property {} — digest {:#018x} ({}), violation {}",
        w.target,
        w.property,
        outcome.trace_digest,
        if outcome.reproduced {
            "reproduced byte-identically"
        } else {
            "DIVERGED from witness"
        },
        if outcome.violated {
            "reproduced"
        } else {
            "NOT reproduced"
        },
    );
    if let Some(d) = &outcome.detail {
        println!("  {d}");
    }
    Ok(outcome.reproduced && outcome.violated)
}

/// One target's exploration, timed, with the optional POR-off baseline.
#[derive(serde::Serialize)]
struct McCell {
    report: fd_mc::McReport,
    wall_ms: u64,
    baseline_runs: Option<usize>,
}

fn cmd_mc(rest: &[String]) -> ExitCode {
    let a = match parse_mc_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &a.replay {
        if a.all || (a.detector.is_some() == a.protocol.is_some()) {
            eprintln!("error: --replay wants exactly one of --detector / --protocol");
            return ExitCode::from(2);
        }
        return match cmd_mc_replay(&a, path) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let targets = match mc_targets(&a) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "mc: n={} horizon={}ms depth={} crashes={} drops={} por={} dedup={}",
        a.n, a.horizon_ms, a.cfg.depth, a.cfg.crashes, a.cfg.drops, a.cfg.por, a.cfg.dedup
    );
    let mut cells = Vec::new();
    let mut any_violation = false;
    let mut any_truncated = false;
    for target in &targets {
        // fd-lint: allow(ND002, reason = "wall-clock timing for the mc report; exploration results, witnesses, and digests never read it")
        let start = std::time::Instant::now();
        let report = fd_mc::explore(target, &a.cfg);
        let wall_ms = start.elapsed().as_millis() as u64;
        let baseline_runs = if a.por_baseline {
            let off = fd_mc::explore(
                target,
                &fd_mc::McConfig {
                    por: false,
                    ..a.cfg.clone()
                },
            );
            Some(off.stats.runs)
        } else {
            None
        };
        let s = &report.stats;
        print!(
            "  {:<12} runs={:<7} schedules={:<4} states={:<6} cps={:<7} sleep_skips={:<7} \
visited_hits={:<6} capped={:<6} wall={:>6}ms {}",
            report.target,
            s.runs,
            s.schedules,
            s.distinct_states,
            s.choice_points,
            s.sleep_skips,
            s.visited_hits,
            s.depth_capped_runs,
            wall_ms,
            if report.complete {
                "exhaustive"
            } else {
                "TRUNCATED"
            },
        );
        if let Some(b) = baseline_runs {
            let factor = b as f64 / s.runs.max(1) as f64;
            print!(" por-reduction={factor:.2}x");
        }
        println!();
        if !report.complete {
            any_truncated = true;
        }
        if !report.violations.is_empty() {
            any_violation = true;
            if let Err(e) = std::fs::create_dir_all(&a.witness_dir) {
                eprintln!("error: {}: {e}", a.witness_dir);
                return ExitCode::from(2);
            }
            for v in &report.violations {
                let file = format!(
                    "{}/{}-{}.json",
                    a.witness_dir,
                    report.target,
                    v.property.replace('.', "-")
                );
                println!("    VIOLATION {}: {}", v.property, v.detail);
                match std::fs::write(&file, v.witness.to_json() + "\n") {
                    Ok(()) => println!("    witness: {file}"),
                    Err(e) => {
                        eprintln!("error: {file}: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
        }
        cells.push(McCell {
            report,
            wall_ms,
            baseline_runs,
        });
    }
    if let Some(path) = &a.json {
        let json = match serde_json::to_string_pretty(&cells) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("error: serializing report: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = std::fs::write(path, json + "\n") {
            eprintln!("error: {path}: {e}");
            return ExitCode::from(2);
        }
        println!("report: {path}");
    }
    if any_violation {
        println!("mc: violations found — witnesses written");
        ExitCode::FAILURE
    } else if any_truncated {
        println!("mc: clean but truncated (raise --max-runs for an exhaustive verdict)");
        ExitCode::SUCCESS
    } else {
        println!("mc: exhaustive within budgets, no violations");
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let full_help = help(None).unwrap_or_default();
    let Some((cmd, rest)) = argv.split_first() else {
        print!("{full_help}");
        return ExitCode::FAILURE;
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        print!("{full_help}");
        return ExitCode::SUCCESS;
    }
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        if let Some(text) = help(Some(cmd)) {
            print!("{text}");
            return ExitCode::SUCCESS;
        }
    }
    let result = match cmd.as_str() {
        "classes" => {
            cmd_classes();
            Ok(())
        }
        "kv-bench" => cmd_kv_bench(rest),
        "obs-report" => cmd_obs_report(rest),
        "lint" => return cmd_lint(rest),
        "mc" => return cmd_mc(rest),
        "campaign" | "consensus" | "detector" | "log" => {
            let args = match parse_args(rest) {
                Ok(args) => args,
                Err(e) => {
                    eprintln!("error: {e}\n");
                    eprint!("{}", help(Some(cmd)).unwrap_or_default());
                    // A campaign that never started is a setup error
                    // (2), not a seed that violated a property (1).
                    return ExitCode::from(if cmd == "campaign" { 2 } else { 1 });
                }
            };
            match cmd.as_str() {
                "campaign" => return cmd_campaign(&args),
                "consensus" => cmd_consensus(&args),
                "detector" => cmd_detector(&args),
                _ => cmd_log(&args),
            }
        }
        other => Err(format!("unknown command {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    fn parse_lint(s: &str) -> Result<LintArgs, String> {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_lint_args(&argv)
    }

    #[test]
    fn lint_defaults() {
        let a = parse_lint("").unwrap();
        assert_eq!(a.format, LintFormat::Human);
        assert!(!a.deny_warnings);
        assert!(a.rules.is_empty());
        assert!(a.root.is_none());
        assert!(a.graph_out.is_none());
        assert_eq!(a.graph_format, fd_lint::GraphFormat::Json);
    }

    #[test]
    fn lint_full_flag_set() {
        let a = parse_lint(
            "--format json --deny-warnings --rule ND001 --rule UH002 --root /x \
             --graph-out g.dot --graph-format dot",
        )
        .unwrap();
        assert_eq!(a.format, LintFormat::Json);
        assert!(a.deny_warnings);
        assert_eq!(a.rules, vec!["ND001".to_string(), "UH002".to_string()]);
        assert_eq!(a.root.as_deref(), Some("/x"));
        assert_eq!(a.graph_out.as_deref(), Some("g.dot"));
        assert_eq!(a.graph_format, fd_lint::GraphFormat::Dot);
    }

    #[test]
    fn lint_rejects_bad_flags() {
        assert!(parse_lint("--format yaml").is_err());
        assert!(parse_lint("--rule").is_err());
        assert!(parse_lint("--frmt json").is_err());
        assert!(parse_lint("--graph-format svg").is_err());
        assert!(parse_lint("--graph-out").is_err());
    }

    #[test]
    fn lint_unknown_rule_id_lists_valid_ones() {
        // Flag parsing accepts any ID; the registry check rejects it
        // with the full catalog (the CLI surfaces this as exit 2).
        let err = fd_lint::validate_rule_ids(&["ND999".to_string()]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("ND999"), "{msg}");
        assert!(msg.contains("ND001") && msg.contains("SUP001"), "{msg}");
    }

    #[test]
    fn defaults() {
        let a = parse("").unwrap();
        assert_eq!(a.n, 5);
        assert_eq!(a.seed, 42);
        assert_eq!(a.protocol, "ec");
        assert!(a.crashes.is_empty());
    }

    #[test]
    fn full_flag_set() {
        let a = parse("--n 7 --protocol ct --seed 9 --crash 2@50 --crash 3@75 --timeline").unwrap();
        assert_eq!(a.n, 7);
        assert_eq!(a.protocol, "ct");
        assert_eq!(a.seed, 9);
        assert_eq!(a.crashes, vec![(2, 50), (3, 75)]);
        assert!(a.timeline);
    }

    #[test]
    fn campaign_flags() {
        let a = parse("--scenario e8 --seeds 10..1000 --jobs 4 --artifact-dir /tmp/art").unwrap();
        assert_eq!(a.scenario, "e8");
        assert_eq!(a.seeds, (10, 1000));
        assert_eq!(a.jobs, 4);
        assert_eq!(a.artifact_dir, "/tmp/art");
        assert!(a.replay.is_none());
        let a = parse("--replay target/campaign/x.json --shrink").unwrap();
        assert_eq!(a.replay.as_deref(), Some("target/campaign/x.json"));
        assert!(a.shrink);
    }

    #[test]
    fn bad_campaign_flags_rejected() {
        assert!(parse("--seeds 5").is_err(), "not a range");
        assert!(parse("--seeds a..b").is_err(), "not numbers");
        assert!(parse("--seeds 9..2").is_err(), "reversed range");
        let e = parse("--seeds 3..3").unwrap_err();
        assert!(
            e.contains("empty range") && e.contains("B > A"),
            "empty half-open range must be rejected with a clear message, got: {e}"
        );
        assert!(parse("--jobs 0").is_err());
        assert!(parse("--jobs many").is_err());
    }

    #[test]
    fn metrics_out_flag_parses() {
        let a = parse("--scenario e8 --seeds 0..8 --metrics-out /tmp/m.jsonl").unwrap();
        assert_eq!(a.metrics_out.as_deref(), Some("/tmp/m.jsonl"));
        assert!(parse("--metrics-out").is_err(), "needs a value");
    }

    #[test]
    fn bad_crash_spec_rejected() {
        assert!(parse("--crash nope").is_err());
        assert!(parse("--crash 9@10").is_err(), "out of range for default n");
        assert!(parse("--n 0").is_err());
        assert!(parse("--mystery 1").is_err());
    }
}

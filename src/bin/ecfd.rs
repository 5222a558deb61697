//! `ecfd` — scenario driver CLI.
//!
//! Run consensus instances, failure detectors, a replicated log, seed
//! campaigns, the model checker, the determinism lint or the paper's
//! experiments over the deterministic simulator:
//!
//! ```bash
//! ecfd consensus --n 7 --protocol ec --crash 2@50 --seed 9 --timeline
//! ecfd detector --kind ring --n 6 --crash 3@200 --run-ms 3000
//! ecfd log --n 5 --commands 8 --crash 4@40
//! ecfd classes
//! ```
//!
//! The whole command line is one table, [`COMMANDS`]: a row per
//! subcommand holding its usage synopsis, the flags *it* accepts, its
//! positional arguments and its `run` function. [`parse`] walks argv
//! against a row, [`help`] renders rows, [`Matches`] does the typed
//! reads, and `main` maps every outcome to its exit code. (The
//! workspace deliberately has no CLI dependency.)

use ecfd::prelude::*;
use fd_bench::mc::McScenario;
use fd_consensus::{Decider, EcMergedConsensus, Log, MultiEc};
use fd_core::Standalone;
use fd_detectors::{
    FusedConfig, FusedDetector, HeartbeatDetector, OmegaGossip, OmegaGossipConfig, RingDetector,
    StableLeaderConfig, StableLeaderDetector, VCubeConfig, VCubeDetector,
};
use std::fmt::Display;
use std::num::{NonZeroU64, NonZeroUsize};
use std::process::ExitCode;
use std::str::FromStr;

/// One flag of one subcommand: its name, the placeholder for its value
/// in the help (empty for a switch), the value read when the flag is
/// absent (the help prints it) and its help text.
struct Flag(
    &'static str,
    &'static str,
    Option<&'static str>,
    &'static str,
);

/// One subcommand.
struct Cmd {
    name: &'static str,
    run: fn(&Matches) -> Result<(), Stop>,
    /// Positional arguments: what they are, at least and at most how many.
    args: (&'static str, usize, usize),
    /// One entry per usage form: what follows `ecfd <name>`.
    usage: &'static [&'static str],
    flags: &'static [Flag],
}

const NO_ARGS: (&str, usize, usize) = ("", 0, 0);

/// The flags `consensus`, `detector` and `log` have in common.
#[rustfmt::skip]
impl Flag {
    const N: Flag = Flag("--n", "N", Some("5"), "number of processes");
    const SEED: Flag = Flag("--seed", "S", Some("42"), "run seed; same seed ⇒ identical run");
    const CRASH: Flag = Flag("--crash", "P@MS", None,
        "crash process P at MS milliseconds, fractions allowed (repeatable)");
    const HORIZON_MS: Flag = Flag("--horizon-ms", "MS", Some("10000"), "give up if not done by then");
    const TIMELINE: Flag = Flag("--timeline", "", None, "print the chronological observation timeline");
    const MAX_PROCESSES: Flag = Flag("--max-processes", "N", Some("64"),
        "cap on distinct processes in a --timeline listing: larger\n\
         casts degrade to the one-line summary instead of flooding\n\
         the terminal");
}

/// The command line: one row per subcommand, laid out by hand so that a
/// flag reads as one entry.
#[rustfmt::skip]
static COMMANDS: &[Cmd] = &[
    Cmd {
        name: "consensus", run: cmd_consensus, args: NO_ARGS,
        usage: &["[--n N] [--protocol ec|ecm|ct|mr|paxos] [--seed S] [--crash P@MS ...]\n\
                  [--horizon-ms MS] [--timeline] [--max-processes N]"],
        flags: &[
            Flag::N,
            Flag("--protocol", "X", Some("ec"),
                "consensus protocol: ec (the paper's ◇C algorithm),\n\
                 ecm (merged Phase 0/1 variant), ct (Chandra–Toueg ◇S),\n\
                 mr (Mostefaoui–Raynal Ω), paxos (single-decree synod)"),
            Flag::SEED, Flag::CRASH, Flag::HORIZON_MS, Flag::TIMELINE, Flag::MAX_PROCESSES,
        ],
    },
    Cmd {
        name: "detector", run: cmd_detector, args: NO_ARGS,
        usage: &["[--kind heartbeat|ring|leader|fused|transform|stable|gossip|vcube] [--n N]\n\
                  [--seed S] [--crash P@MS ...] [--run-ms MS] [--loss P] [--timeline]\n\
                  [--max-processes N]"],
        flags: &[
            Flag("--kind", "X", Some("heartbeat"),
                "failure detector family (transform: the paper's Fig. 2,\n\
                 ◇C → ◇P over the leader detector)"),
            Flag::N, Flag::SEED, Flag::CRASH,
            Flag("--run-ms", "MS", Some("3000"), "detector run length"),
            Flag("--loss", "P", None,
                "fair-lossy links instead of reliable ones: each message\n\
                 is dropped with probability P, the rest take 1–8 ms"),
            Flag::TIMELINE, Flag::MAX_PROCESSES,
        ],
    },
    Cmd {
        name: "log", run: cmd_log, args: NO_ARGS,
        usage: &["[--n N] [--commands K] [--seed S] [--crash P@MS ...] [--horizon-ms MS]"],
        flags: &[
            Flag::N,
            Flag("--commands", "K", Some("6"), "commands submitted to the replicated log"),
            Flag::SEED, Flag::CRASH, Flag::HORIZON_MS,
        ],
    },
    Cmd {
        name: "campaign", run: cmd_campaign, args: NO_ARGS,
        usage: &[
            "--scenario NAME [--seeds A..B] [--jobs N] [--artifact-dir DIR]\n\
             [--metrics-out FILE]",
            "--plan FILE [--scenario chaos|kv] [--seeds A..B] [--jobs N]\n\
             [--artifact-dir DIR] [--metrics-out FILE]",
            "--replay FILE [--shrink] [--metrics-out FILE]",
        ],
        flags: &[
            Flag("--scenario", "NAME", None, "campaign scenario (e8, scale, chaos, kv, blind)"),
            Flag("--plan", "FILE", None,
                "run a fixed chaos plan (JSON, see crates/fd-chaos/CATALOG.md)\n\
                 for every seed; defaults to --scenario chaos, combine\n\
                 with --scenario kv to drive the replicated KV service\n\
                 under the plan"),
            Flag("--seeds", "A..B", Some("0..100"), "seed range to sweep, half-open"),
            Flag("--jobs", "N", None, "worker threads (default: all cores)"),
            Flag("--artifact-dir", "DIR", Some("target/campaign"),
                "where failing seeds write repro JSON"),
            Flag("--replay", "FILE", None, "re-execute a repro artifact instead of sweeping"),
            Flag("--shrink", "", None, "after a replay, greedily minimize the counterexample"),
            Flag("--metrics-out", "FILE", None,
                "write kernel/campaign metrics as JSON Lines to FILE\n\
                 (render later with `ecfd obs-report FILE`); per-seed\n\
                 verdicts and digests are identical with or without it"),
        ],
    },
    Cmd {
        name: "kv-bench", run: cmd_kv_bench, args: NO_ARGS,
        usage: &["[--seeds N] [--out FILE]"],
        flags: &[
            Flag("--seeds", "N", Some("200"),
                "seeds per detector class in the standard\n\
                 crash/restart plan"),
            Flag("--out", "FILE", None,
                "write the serving-stack benchmark JSON to FILE\n\
                 (same shape as the committed BENCH_kv.json)"),
        ],
    },
    Cmd {
        name: "obs-report", run: cmd_obs_report,
        args: ("exactly one argument: the metrics JSONL file", 1, 1),
        usage: &["FILE"],
        flags: &[],
    },
    Cmd {
        name: "experiments", run: cmd_experiments, args: ("experiment ids", 0, usize::MAX),
        usage: &["[E1 ... E10]"],
        flags: &[],
    },
    Cmd {
        name: "lint", run: cmd_lint, args: NO_ARGS,
        usage: &["[--format human|json] [--deny-warnings] [--rule ID ...] [--root DIR]\n\
                  [--graph-out FILE] [--graph-format json|dot]"],
        flags: &[
            Flag("--format", "F", Some("human"), "report format: human or json"),
            Flag("--deny-warnings", "", None, "treat warn-level findings as errors (CI runs this)"),
            Flag("--rule", "ID", None,
                "run only the named rule (repeatable; see\n\
                 crates/fd-lint/RULES.md for the catalog)"),
            Flag("--root", "DIR", None,
                "workspace root to scan (default: nearest ancestor\n\
                 with a [workspace] Cargo.toml)"),
            Flag("--graph-out", "FILE", None,
                "also dump the workspace call graph the HP rules\n\
                 reason over (hot-path roots marked)"),
            Flag("--graph-format", "F", Some("json"), "call-graph dump format: json or dot"),
        ],
    },
    Cmd {
        name: "mc", run: cmd_mc, args: NO_ARGS,
        usage: &[
            "(--detector hb|ring|leader | --protocol ec|ct|paxos|multi | --all)\n\
             [--n N] [--horizon-ms MS] [--depth D] [--crashes K] [--drops L]\n\
             [--crash-window-ms MS] [--crash-grid-ms MS] [--max-runs R]\n\
             [--no-por] [--no-dedup] [--por-baseline]\n\
             [--artifact-dir DIR] [--json FILE]",
        ],
        flags: &[
            Flag("--detector", "X", None, "explore a standalone detector world: hb, ring, leader"),
            Flag("--protocol", "X", None,
                "explore a consensus stack: ec (with the retransmission\n\
                 watchdog), ct, paxos, or the multi replicated log"),
            Flag("--all", "", None, "explore every detector class and every protocol"),
            Flag("--n", "N", Some("3"),
                "processes; exhaustive exploration is meant for\n\
                 n=3..4"),
            Flag("--horizon-ms", "MS", Some("300"), "run horizon per execution"),
            Flag("--depth", "D", Some("6"),
                "recorded choice points per run; nondeterminism past\n\
                 the cap is resolved canonically"),
            Flag("--crashes", "K", Some("0"),
                "max crash victims per schedule, placed exhaustively\n\
                 on the time grid"),
            Flag("--drops", "L", Some("0"), "max forced message losses per run"),
            Flag("--crash-window-ms", "MS", Some("100"), "crash placement window"),
            Flag("--crash-grid-ms", "MS", Some("25"), "crash placement grid step"),
            Flag("--max-runs", "R", Some("200000"),
                "hard cap on executions; exceeding it reports a\n\
                 truncated (non-exhaustive) search"),
            Flag("--no-por", "", None, "disable sleep-set partial-order reduction"),
            Flag("--no-dedup", "", None, "disable visited-state pruning"),
            Flag("--por-baseline", "", None, "also run with POR off and report the reduction factor"),
            Flag("--artifact-dir", "DIR", Some("target/mc-artifacts"),
                "where violations write shrunk repro JSON, which\n\
                 `ecfd campaign` replays like a failing seed's"),
            Flag("--json", "FILE", None, "write the full exploration reports as JSON"),
        ],
    },
    Cmd { name: "classes", run: cmd_classes, args: NO_ARGS, usage: &[""], flags: &[] },
    Cmd {
        name: "help", run: cmd_help, args: ("a subcommand", 0, 1),
        usage: &["[SUBCOMMAND]"],
        flags: &[],
    },
];

const EXIT_CODES: &str = "
EXIT CODES:
  0  ran clean
  1  ran and found something: a violated property, a lint finding, no
     decision before the horizon, a stale or diverged replay
  2  nothing ran: unknown command, bad flag or value, unreadable file,
     unknown rule, scenario or experiment
";

/// The help text: every subcommand's usage for `None`, one subcommand's
/// usage and options for `Some`.
fn help(cmd: Option<&Cmd>) -> String {
    let mut out = String::new();
    if cmd.is_none() {
        out += "ecfd — eventually consistent failure detectors, runnable\n\n";
    }
    out += "USAGE:\n";
    for c in COMMANDS {
        if cmd.is_none_or(|one| one.name == c.name) {
            for form in c.usage {
                let line = format!(
                    "  ecfd {:<9} {}",
                    c.name,
                    form.replace('\n', "\n                 ")
                );
                out = out + line.trim_end() + "\n";
            }
        }
    }
    match cmd {
        None => out = out + "\nOptions: ecfd <subcommand> --help\n" + EXIT_CODES,
        Some(c) => {
            if !c.flags.is_empty() {
                out += "\nOPTIONS:\n";
            }
            for &Flag(name, metavar, default, text) in c.flags {
                let mut text = text.replace('\n', "\n                    ");
                if let Some(d) = default {
                    text += &format!(" (default {d})");
                }
                let head = format!("{name} {metavar}");
                out += &format!("  {:<17} {text}\n", head.trim_end());
            }
        }
    }
    out
}

/// Why a subcommand stopped short of "ran clean". `main` turns this into
/// the process exit code, and nothing else does.
#[derive(Debug)]
enum Stop {
    /// Exit 1: it ran and found something. The message is empty when
    /// stdout already carries the report.
    Found(String),
    /// Exit 2: nothing ran. `true` when a bad flag or value is why: the
    /// subcommand's usage then follows the message.
    Nothing(String, bool),
}

fn found(e: impl Display) -> Stop {
    Stop::Found(e.to_string())
}

fn setup(e: impl Display) -> Stop {
    Stop::Nothing(e.to_string(), false)
}

fn usage(e: impl Display) -> Stop {
    Stop::Nothing(e.to_string(), true)
}

/// What [`parse`] made of one subcommand's argv.
struct Matches<'a> {
    cmd: &'static Cmd,
    /// `(flag, value)` in argv order; a switch's value is empty.
    given: Vec<(&'static str, &'a str)>,
    args: Vec<&'a str>,
    help: bool,
}

/// Walk `argv` (what follows the subcommand name) against `cmd`'s row.
fn parse<'a>(cmd: &'static Cmd, argv: &'a [String]) -> Result<Matches<'a>, Stop> {
    let mut m = Matches {
        cmd,
        given: Vec::new(),
        args: Vec::new(),
        help: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            m.help = true;
            return Ok(m);
        }
        if !arg.starts_with("--") {
            m.args.push(arg);
            continue;
        }
        let flag = cmd.flags.iter().find(|flag| flag.0 == arg);
        let &Flag(name, metavar, ..) =
            flag.ok_or_else(|| usage(format!("{} has no flag {arg}", cmd.name)))?;
        let value = match metavar {
            "" => "",
            _ => it
                .next()
                .ok_or_else(|| usage(format!("{arg} needs a value")))?,
        };
        m.given.push((name, value));
    }
    let (what, at_least, at_most) = cmd.args;
    if let Some(extra) = m.args.get(at_most) {
        let name = cmd.name;
        return Err(usage(format!("{name}: unexpected argument {extra}")));
    }
    if m.args.len() < at_least {
        return Err(usage(format!("{} wants {what}", cmd.name)));
    }
    Ok(m)
}

/// Parse one value of flag `name`, naming the flag in the error.
fn typed<T: FromStr<Err: Display>>(name: &str, raw: &str) -> Result<T, Stop> {
    raw.parse().map_err(|e| usage(format!("{name}: {e}")))
}

impl<'a> Matches<'a> {
    /// Every value given for `name`, in argv order.
    fn all(&self, name: &'static str) -> impl Iterator<Item = &'a str> + '_ {
        let given = self.given.iter().filter(move |(flag, _)| *flag == name);
        given.map(|&(_, value)| value)
    }

    fn has(&self, name: &'static str) -> bool {
        self.all(name).next().is_some()
    }

    /// The last value given for `name`, else the row's default, parsed;
    /// `None` when there is neither.
    fn opt<T: FromStr<Err: Display>>(&self, name: &'static str) -> Result<Option<T>, Stop> {
        let flag = self.cmd.flags.iter().find(|flag| flag.0 == name);
        let Flag(_, _, default, _) =
            flag.expect("a subcommand reads only the flags its row declares");
        let raw = self.all(name).last().or(*default);
        raw.map(|raw| typed(name, raw)).transpose()
    }

    fn get<T: FromStr<Err: Display>>(&self, name: &'static str) -> Result<T, Stop> {
        self.opt(name)?
            .ok_or_else(|| usage(format!("{name} is required")))
    }
}

/// A `--seeds A..B` value: a non-empty half-open range.
struct Seeds(std::ops::Range<u64>);

impl FromStr for Seeds {
    type Err = String;
    fn from_str(s: &str) -> Result<Seeds, String> {
        let (lo, hi) = s
            .split_once("..")
            .ok_or_else(|| format!("wants A..B (half-open), got {s}"))?;
        let lo: u64 = lo.parse().map_err(|e| format!("start: {e}"))?;
        let hi: u64 = hi.parse().map_err(|e| format!("end: {e}"))?;
        if lo >= hi {
            return Err(format!("empty range {s} (half-open A..B needs B > A)"));
        }
        Ok(Seeds(lo..hi))
    }
}

/// `--n`, bounded by what a [`ProcessSet`] can hold.
fn process_count(m: &Matches) -> Result<usize, Stop> {
    let n = m.get("--n")?;
    if n == 0 || n > fd_core::MAX_PROCESSES {
        let max = fd_core::MAX_PROCESSES;
        return Err(usage(format!("--n must be in 1..={max}")));
    }
    Ok(n)
}

/// What `consensus`, `detector` and `log` have in common: a cast, a seed
/// and a crash plan.
struct Sim {
    n: usize,
    seed: u64,
    crashes: Vec<(usize, Time)>,
}

impl Sim {
    fn read(m: &Matches) -> Result<Sim, Stop> {
        let n = process_count(m)?;
        let mut crashes = Vec::new();
        for spec in m.all("--crash") {
            let (p, ms) = spec
                .split_once('@')
                .ok_or_else(|| usage(format!("--crash wants P@MS, got {spec}")))?;
            let (p, ms): (usize, f64) = (typed("--crash process", p)?, typed("--crash time", ms)?);
            if p >= n {
                let e = format!("--crash process p{p} out of range for n={n}");
                return Err(usage(e));
            }
            if !(0.0..=1e12).contains(&ms) {
                return Err(usage(format!("--crash time {ms} is not a time in ms")));
            }
            // Fractions reach down to the kernel's microsecond tick.
            crashes.push((p, Time((ms * 1e3).round() as u64)));
        }
        if 2 * crashes.len() >= n {
            eprintln!(
                "warning: {} crashes with n={n} violates f < n/2 — liveness not guaranteed",
                crashes.len(),
            );
        }
        Ok(Sim {
            n,
            seed: m.get("--seed")?,
            crashes,
        })
    }

    /// A world builder over `net` with the crash plan set.
    fn builder(&self, net: NetworkConfig) -> WorldBuilder {
        let mut b = WorldBuilder::new(net).seed(self.seed);
        for &(p, at) in &self.crashes {
            b = b.crash_at(ProcessId(p), at);
        }
        b
    }

    /// The crash plan as `[(process, ms), …]`.
    fn crash_list(&self) -> String {
        let each = self.crashes.iter();
        let each = each.map(|(p, at)| format!("({p}, {})", at.ticks() as f64 / 1e3));
        format!("[{}]", each.collect::<Vec<_>>().join(", "))
    }
}

/// `--timeline [--max-processes N]`: the cap to render under, if asked.
fn timeline_cap(m: &Matches) -> Result<Option<usize>, Stop> {
    let cap: NonZeroUsize = m.get("--max-processes")?;
    Ok(m.has("--timeline").then_some(cap.get()))
}

fn print_timeline(trace: &fd_sim::Trace, cap: Option<usize>) {
    if let Some(cap) = cap {
        println!("\ntimeline:");
        let timeline = fd_sim::Timeline::new(trace).max_processes(cap);
        print!("{}", timeline.render());
    }
}

/// The ◇C detector most stacks here run on: heartbeat ◇P plus the
/// first-non-suspected leader rule.
fn hb_leader(pid: ProcessId, n: usize) -> LeaderByFirstNonSuspected<HeartbeatDetector> {
    LeaderByFirstNonSuspected::new(
        HeartbeatDetector::new(pid, n, HeartbeatConfig::default()),
        n,
    )
}

fn cmd_consensus(m: &Matches) -> Result<(), Stop> {
    let sim = Sim::read(m)?;
    let crashes = sim.crash_list();
    let Sim { n, seed, .. } = sim;
    let protocol: String = m.get("--protocol")?;
    let timeline = timeline_cap(m)?;
    let mut sc = Scenario::failure_free(n, seed, Time::from_millis(m.get("--horizon-ms")?));
    for &(p, at) in &sim.crashes {
        sc = sc.with_crash(ProcessId(p), at);
    }
    let r = match protocol.as_str() {
        "ec" => run_scenario(default_net(n), &sc, fd_consensus::ec_node_hb),
        "ct" => run_scenario(default_net(n), &sc, fd_consensus::ct_node_hb),
        "mr" => run_scenario(default_net(n), &sc, fd_consensus::mr_node_leader),
        "paxos" => run_scenario(default_net(n), &sc, fd_consensus::paxos_node_leader),
        "ecm" => run_scenario(default_net(n), &sc, |pid, n| {
            let protocol = EcMergedConsensus::new(pid, n);
            Stack::new(hb_leader(pid, n), Decider::new(pid, protocol))
        }),
        other => return Err(usage(format!("--protocol: unknown protocol {other}"))),
    };
    println!("consensus: protocol={protocol} n={n} seed={seed} crashes={crashes}");
    if !r.all_decided {
        return Err(found(
            "no decision before the horizon (crashed majority, or horizon too small)",
        ));
    }
    ConsensusRun::new(&r.trace, n).check_all().map_err(found)?;
    println!(
        "decided {} in round {} at {} ({} protocol messages)",
        r.decided_value(),
        r.max_decision_round().expect("all_decided"),
        r.decide_time.expect("all_decided"),
        r.metrics.sent_total(),
    );
    println!("uniform agreement + validity + integrity + termination verified ✓");
    print_timeline(&r.trace, timeline);
    Ok(())
}

/// Run a detector-only world to `end` and hand back what it recorded.
fn detect<A: fd_sim::Actor>(
    b: WorldBuilder,
    end: Time,
    make: impl FnMut(ProcessId, usize) -> A,
) -> (fd_sim::Trace, fd_sim::Metrics) {
    let mut w = b.build(make);
    w.run_until_time(end);
    w.into_results()
}

fn cmd_detector(m: &Matches) -> Result<(), Stop> {
    let sim = Sim::read(m)?;
    let kind: String = m.get("--kind")?;
    let timeline = timeline_cap(m)?;
    let end = Time::from_millis(m.get("--run-ms")?);
    let net = match m.opt::<f64>("--loss")? {
        None => default_net(sim.n),
        Some(p) if (0.0..1.0).contains(&p) => {
            let (min, max) = (SimDuration::from_millis(1), SimDuration::from_millis(8));
            NetworkConfig::new(sim.n).with_default(LinkModel::fair_lossy(min, max, p))
        }
        Some(p) => return Err(usage(format!("--loss {p} is not a probability below 1"))),
    };
    let b = sim.builder(net);
    let (trace, metrics) = match kind.as_str() {
        "heartbeat" => detect(b, end, |pid, n| Standalone(hb_leader(pid, n))),
        "ring" => detect(b, end, |pid, n| {
            let ring = RingDetector::new(pid, n, RingConfig::default());
            Standalone(LeaderByFirstNonSuspected::new(ring, n))
        }),
        "leader" => detect(b, end, |pid, n| {
            Standalone(LeaderDetector::new(pid, n, LeaderConfig::default()))
        }),
        "fused" => detect(b, end, |pid, n| {
            Standalone(FusedDetector::new(pid, n, FusedConfig::default()))
        }),
        "transform" => detect(b, end, |pid, n| {
            Stack::new(
                LeaderDetector::new(pid, n, LeaderConfig::default()),
                EcToEp::new(pid, n, EcToEpConfig::default()),
            )
        }),
        "stable" => detect(b, end, |pid, n| {
            Standalone(StableLeaderDetector::new(
                pid,
                n,
                StableLeaderConfig::default(),
            ))
        }),
        "gossip" => detect(b, end, |pid, n| {
            Stack::new(
                HeartbeatDetector::new(pid, n, HeartbeatConfig::default()),
                OmegaGossip::new(pid, n, OmegaGossipConfig::default()),
            )
        }),
        "vcube" => detect(b, end, |pid, n| {
            let vcube = VCubeDetector::new(pid, n, VCubeConfig::default());
            Standalone(LeaderByFirstNonSuspected::new(vcube, n))
        }),
        other => return Err(usage(format!("--kind: unknown detector {other}"))),
    };
    let crashes = sim.crash_list();
    let Sim { n, seed, .. } = sim;
    println!("detector: kind={kind} n={n} seed={seed} crashes={crashes}");
    let mut run = FdRun::new(&trace, n, end);
    if kind == "transform" {
        // The ◇P list Fig. 2 builds, not the ◇C one below it.
        run = run.with_suspects_tag(EP_SUSPECTS_OUT);
    }
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
    // What is not a delivery is a timer, bar the handful of crash and
    // fault events and the messages that reached a crashed process.
    let (events, deliveries) = (metrics.events_processed(), metrics.delivered_total());
    println!(
        "  events: {events} (timers {}, deliveries {deliveries})",
        events - deliveries
    );
    let qos = run.qos();
    let ms = |sorted: &[u64], per_mille| match fd_core::nearest_rank(sorted, per_mille) {
        Some(us) => format!("{:.3}", us as f64 / 1e3),
        None => "-".to_string(),
    };
    println!(
        "  detection time: p50 {} ms, p95 {} ms ({} of {} pairs, share {:.3})",
        ms(&qos.detection_us, 500),
        ms(&qos.detection_us, 950),
        qos.detection_us.len(),
        qos.pairs,
        qos.detected_share(),
    );
    println!(
        "  mistakes: {} ({:.3} per process-second), duration p50 {} ms, p95 {} ms",
        qos.false_suspicions,
        qos.mistake_rate(),
        ms(&qos.mistake_us, 500),
        ms(&qos.mistake_us, 950),
    );
    print_timeline(&trace, timeline);
    Ok(())
}

fn cmd_log(m: &Matches) -> Result<(), Stop> {
    let sim = Sim::read(m)?;
    let commands: u64 = m.get("--commands")?;
    let horizon = Time::from_millis(m.get("--horizon-ms")?);
    let (Sim { n, seed, .. }, crashes) = (&sim, sim.crash_list());
    println!("replicated log: n={n} commands={commands} seed={seed} crashes={crashes}");
    let mut w = sim.builder(default_net(sim.n)).build(|pid, n| {
        let log = MultiEc::new(pid, n);
        Stack::new(hb_leader(pid, n), Log::new(pid, log))
    });
    for k in 0..commands {
        let submitter = (k as usize) % n;
        let cmd = 1000 + k;
        w.interact(ProcessId(submitter), move |node, ctx| {
            node.with_above(ctx, |log, ctx, _| log.submit(ctx, cmd))
        });
    }
    let crashed: Vec<usize> = sim.crashes.iter().map(|&(p, _)| p).collect();
    let survivor_cmds: Vec<u64> = (0..commands)
        .filter(|&k| !crashed.contains(&((k as usize) % n)))
        .map(|k| 1000 + k)
        .collect();
    let done = w.run_until(horizon, |w| {
        w.correct().iter().all(|&p| {
            let vals: Vec<u64> = w.actor(p).above.log().iter().map(|(_, v)| *v).collect();
            survivor_cmds.iter().all(|c| vals.contains(c))
        })
    });
    if !done {
        return Err(found("log did not converge before the horizon"));
    }
    let reference_pid = *w.correct().first().expect("a survivor");
    let log = w.actor(ProcessId(reference_pid.index())).above.log();
    let slots = log.last().map_or(0, |(slot, _)| slot + 1);
    println!(
        "log at {reference_pid} ({} entries in {slots} slots, {}):",
        log.len(),
        w.now()
    );
    for (slot, v) in &log {
        if *v == fd_consensus::NOOP {
            println!("  [{slot}] (noop)");
        } else {
            println!("  [{slot}] command {v}");
        }
    }
    Ok(())
}

/// Load the fixed plan behind `--plan` and wrap it in the scenario
/// `--scenario` picked (chaos by default, `kv` for the KV service).
/// Every failure here is a [`setup`] stop: the file is missing,
/// unreadable, not JSON, not a chaos plan, or illegal.
fn plan_scenario(scenario: &str, path: &str) -> Result<Box<dyn fd_campaign::Scenario>, Stop> {
    let in_plan = |e: &dyn Display| setup(format!("--plan {path}: {e}"));
    let text = std::fs::read_to_string(path).map_err(|e| in_plan(&e))?;
    let plan: fd_chaos::ChaosPlan =
        serde_json::from_str(&text).map_err(|e| in_plan(&format!("not a chaos plan: {e}")))?;
    println!(
        "fixed chaos plan {path}: n={} detector={:?} horizon={} events={}",
        plan.n,
        plan.detector,
        plan.horizon,
        plan.events.len()
    );
    match scenario {
        "" | fd_chaos::CHAOS => Ok(Box::new(
            fd_chaos::ChaosScenario::fixed(plan).map_err(|e| in_plan(&e))?,
        )),
        fd_kv::KV => Ok(Box::new(
            fd_kv::KvScenario::fixed(plan).map_err(|e| in_plan(&e))?,
        )),
        other => Err(setup(format!(
            "--plan drives the chaos or kv scenario; it cannot combine with --scenario {other:?}"
        ))),
    }
}

/// `campaign --replay FILE [--shrink] [--metrics-out FILE]`.
fn replay_artifact(path: &str, shrink: bool, metrics_out: Option<&str>) -> Result<(), Stop> {
    let path = std::path::Path::new(path);
    let artifact = fd_campaign::Artifact::load(path).map_err(setup)?;
    let scenario = fd_bench::campaign::scenario_by_name(&artifact.scenario).ok_or_else(|| {
        let name = &artifact.scenario;
        setup(format!("artifact names unknown scenario {name:?}"))
    })?;
    let r = fd_campaign::replay(scenario.as_ref(), &artifact).map_err(found)?;
    print!("{}", r.render(path, &artifact));
    if shrink {
        if !r.reproduced() {
            return Err(found("refusing to shrink: the violation did not reproduce"));
        }
        let out = fd_campaign::shrink(scenario.as_ref(), &artifact).map_err(found)?;
        print!("{}", out.render());
        if let Some(metrics_path) = metrics_out {
            let registry = fd_obs::Registry::new();
            registry
                .counter(fd_obs::keys::CAMPAIGN_SHRINK_STEPS)
                .add(out.applied.len() as u64);
            registry
                .counter(fd_obs::keys::CAMPAIGN_SHRINK_ATTEMPTS)
                .add(out.attempts as u64);
            fd_obs::write_jsonl_file(metrics_path.as_ref(), &registry.snapshot())
                .map_err(|e| found(format!("{metrics_path}: {e}")))?;
            println!("metrics: {metrics_path}");
        }
        let min = artifact_sibling(path, &out.artifact).map_err(found)?;
        println!("minimal counterexample: {}", min.display());
    }
    if r.reproduced() {
        Ok(())
    } else {
        Err(found("artifact is stale"))
    }
}

fn cmd_campaign(m: &Matches) -> Result<(), Stop> {
    use fd_bench::campaign::{scenario_by_name, scenario_names};

    let metrics_out: Option<String> = m.opt("--metrics-out")?;
    if let Some(path) = m.opt::<String>("--replay")? {
        return replay_artifact(&path, m.has("--shrink"), metrics_out.as_deref());
    }
    let name = m.opt::<String>("--scenario")?.unwrap_or_default();
    let Seeds(seeds) = m.get("--seeds")?;
    let jobs = match m.opt::<NonZeroUsize>("--jobs")? {
        Some(jobs) => jobs,
        None => std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN),
    };
    let artifact_dir: String = m.get("--artifact-dir")?;

    let scenario: Box<dyn fd_campaign::Scenario> = if let Some(path) = m.opt::<String>("--plan")? {
        plan_scenario(&name, &path)?
    } else {
        let known = scenario_names().join(", ");
        if name.is_empty() {
            return Err(setup(format!("--scenario is required (known: {known})")));
        }
        scenario_by_name(&name)
            .ok_or_else(|| setup(format!("unknown scenario {name:?} (known: {known})")))?
    };
    let registry = fd_obs::Registry::new();
    let mut campaign = fd_campaign::Campaign::new(scenario.as_ref(), seeds)
        .jobs(jobs.get())
        .artifact_dir(&artifact_dir);
    if metrics_out.is_some() {
        campaign = campaign.observe(&registry);
    }
    let report = campaign.run();
    print!("{}", report.render());
    if let Some(metrics_path) = &metrics_out {
        fd_campaign::write_metrics_file(metrics_path.as_ref(), &report, &registry)
            .map_err(|e| found(format!("{metrics_path}: {e}")))?;
        println!("metrics: {metrics_path}");
    }
    if report.failed() > 0 {
        let (failed, of) = (report.failed(), report.results.len());
        return Err(found(format!("{failed} of {of} seeds violated a property")));
    }
    Ok(())
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
    artifact
        .write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn cmd_obs_report(m: &Matches) -> Result<(), Stop> {
    let path = std::path::Path::new(m.args[0]);
    let in_file = |e: &dyn Display| setup(format!("{}: {e}", path.display()));
    let rows = fd_obs::read_jsonl_file(path).map_err(|e| in_file(&e))?;
    let text = fd_campaign::render_metrics(&rows).map_err(|e| in_file(&e))?;
    print!("{text}");
    Ok(())
}

/// Run the replicated-KV serving-stack benchmark: every detector class
/// over N seeds of the standard crash/restart plan, reporting commit
/// latency, failover blackout, and catch-up volume (`BENCH_kv.json`).
fn cmd_kv_bench(m: &Matches) -> Result<(), Stop> {
    let seeds: NonZeroU64 = m.get("--seeds")?;
    let out: Option<String> = m.opt("--out")?;
    println!("kv-bench: standard crash/restart plan, {seeds} seeds per detector class …");
    let bench = fd_kv::kv_bench(seeds.get());
    if let serde::Value::Obj(detectors) = bench.field("detectors") {
        for (key, d) in detectors {
            let commit = d.field("commit_us");
            let batch = d.field("batch_ops");
            let blackout = d.field("blackout_us");
            println!(
                "{key:<14} commit p50 {:>7}us p99 {:>7}us p99.9 {:>7}us | ops/batch mean {:.2} p99 {} | blackout p50 {:>7}us p99 {:>7}us | violations {}",
                commit.field("p50").as_u64().unwrap_or(0),
                commit.field("p99").as_u64().unwrap_or(0),
                commit.field("p999").as_u64().unwrap_or(0),
                batch.field("mean").as_f64().unwrap_or(0.0),
                batch.field("p99").as_u64().unwrap_or(0),
                blackout.field("p50").as_u64().unwrap_or(0),
                blackout.field("p99").as_u64().unwrap_or(0),
                d.field("violations").as_u64().unwrap_or(0),
            );
        }
    }
    if let Some(path) = &out {
        let json = serde_json::to_string_pretty(&bench).map_err(setup)?;
        std::fs::write(path, json + "\n").map_err(|e| setup(format!("{path}: {e}")))?;
        println!("kv json: {path}");
    }
    Ok(())
}

fn cmd_experiments(m: &Matches) -> Result<(), Stop> {
    use fd_bench::experiments::ALL;
    let mut chosen = Vec::new();
    for id in &m.args {
        let known = ALL.iter().find(|(name, _)| name.eq_ignore_ascii_case(id));
        chosen.push(known.ok_or_else(|| {
            let ids = ALL.map(|(name, _)| name).join(", ");
            usage(format!("unknown experiment {id} (known: {ids})"))
        })?);
    }
    if chosen.is_empty() {
        chosen.extend(&ALL);
    }
    for (_, run) in chosen {
        for table in run() {
            table.emit();
        }
    }
    Ok(())
}

/// Run the determinism analyzer over the workspace; findings are
/// [`Stop::Found`], a linter that could not run is a [`setup`] stop.
fn cmd_lint(m: &Matches) -> Result<(), Stop> {
    let render: fn(&fd_lint::Report) -> String = match m.get::<String>("--format")?.as_str() {
        "human" => |report| report.render_human(),
        "json" => |report| report.render_json() + "\n",
        other => {
            let e = format!("--format must be human or json, got {other}");
            return Err(usage(e));
        }
    };
    let graph_format = match m.get::<String>("--graph-format")?.as_str() {
        "json" => fd_lint::GraphFormat::Json,
        "dot" => fd_lint::GraphFormat::Dot,
        other => {
            let e = format!("--graph-format must be json or dot, got {other}");
            return Err(usage(e));
        }
    };
    let opts = fd_lint::Options {
        rules: m.all("--rule").map(String::from).collect(),
    };
    let root = match m.opt::<String>("--root")? {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| std::path::PathBuf::from("."));
            fd_lint::find_workspace_root(&cwd).map_err(setup)?
        }
    };
    let report = fd_lint::lint_workspace(&root, &opts).map_err(setup)?;
    if let Some(path) = m.opt::<String>("--graph-out")? {
        let graph = fd_lint::dump_graph(&root, graph_format).map_err(setup)?;
        std::fs::write(&path, graph).map_err(|e| setup(format!("writing {path}: {e}")))?;
    }
    print!("{}", render(&report));
    match report.exit_code(m.has("--deny-warnings")) {
        0 => Ok(()),
        _ => Err(Stop::Found(String::new())),
    }
}

/// `help [SUBCOMMAND]`: that subcommand's help; the global help for
/// none or for a name that is not one.
fn cmd_help(m: &Matches) -> Result<(), Stop> {
    let about = m.args.first();
    print!("{}", help(COMMANDS.iter().find(|c| Some(&c.name) == about)));
    Ok(())
}

fn cmd_classes(_: &Matches) -> Result<(), Stop> {
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
    Ok(())
}

/// The target families `--detector` / `--protocol` / `--all` name, in
/// order.
fn mc_scenarios(m: &Matches) -> Result<Vec<McScenario>, Stop> {
    use fd_bench::mc::{detector_kind, detector_label, McProtocol};
    if m.has("--all") {
        return Ok(McScenario::all());
    }
    let mut labels = Vec::new();
    if let Some(name) = m.opt::<String>("--detector")? {
        let kind = detector_kind(&name);
        let kind = kind.ok_or_else(|| usage(format!("--detector: unknown kind {name}")))?;
        labels.push(detector_label(kind));
    }
    if let Some(name) = m.opt::<String>("--protocol")? {
        let proto = McProtocol::parse(&name);
        let proto = proto.ok_or_else(|| usage(format!("--protocol: unknown protocol {name}")))?;
        labels.push(proto.label());
    }
    if labels.is_empty() {
        return Err(usage("pick a target: --detector, --protocol, or --all"));
    }
    let family = |label| McScenario::by_name(&format!("mc-{label}"));
    Ok(labels.into_iter().filter_map(family).collect())
}

/// One target's exploration, timed, with the optional POR-off baseline.
#[derive(serde::Serialize)]
struct McCell {
    report: fd_mc::McReport,
    wall_ms: u64,
    baseline_runs: Option<usize>,
}

fn cmd_mc(m: &Matches) -> Result<(), Stop> {
    let n = process_count(m)?;
    let horizon_ms: u64 = m.get("--horizon-ms")?;
    let cfg = fd_mc::McConfig {
        depth: m.get("--depth")?,
        drops: m.get("--drops")?,
        crashes: m.get("--crashes")?,
        crash_window: Time::from_millis(m.get("--crash-window-ms")?),
        crash_grid: SimDuration::from_millis(m.get::<NonZeroU64>("--crash-grid-ms")?.get()),
        por: !m.has("--no-por"),
        dedup: !m.has("--no-dedup"),
        max_runs: m.get("--max-runs")?,
    };
    let artifact_dir: String = m.get("--artifact-dir")?;
    let json_out: Option<String> = m.opt("--json")?;
    let scenarios = mc_scenarios(m)?;
    println!(
        "mc: n={n} horizon={horizon_ms}ms depth={} crashes={} drops={} por={} dedup={}",
        cfg.depth, cfg.crashes, cfg.drops, cfg.por, cfg.dedup
    );
    let mut cells = Vec::new();
    for scenario in &scenarios {
        let target = &(scenario.build)(n, Time::from_millis(horizon_ms));
        // fd-lint: allow(ND002, reason = "wall-clock timing for the mc report; exploration results, artifacts, and digests never read it")
        let start = std::time::Instant::now();
        let report = fd_mc::explore(target, &cfg);
        let wall_ms = start.elapsed().as_millis() as u64;
        let baseline_runs = m.has("--por-baseline").then(|| {
            let por_off = fd_mc::McConfig {
                por: false,
                ..cfg.clone()
            };
            fd_mc::explore(target, &por_off).stats.runs
        });
        if !report.violations.is_empty() {
            std::fs::create_dir_all(&artifact_dir)
                .map_err(|e| setup(format!("{artifact_dir}: {e}")))?;
            for v in &report.violations {
                let raw = scenario.artifact(target, &cfg, v);
                let shrunk = fd_campaign::shrink(scenario, &raw).map_err(found)?.artifact;
                let file = report.artifact_file(&artifact_dir, v);
                shrunk
                    .write(file.as_ref())
                    .map_err(|e| setup(format!("{file}: {e}")))?;
            }
        }
        print!("{}", report.render(wall_ms, baseline_runs, &artifact_dir));
        cells.push(McCell {
            report,
            wall_ms,
            baseline_runs,
        });
    }
    if let Some(path) = &json_out {
        let json = serde_json::to_string_pretty(&cells)
            .map_err(|e| setup(format!("serializing report: {e}")))?;
        std::fs::write(path, json + "\n").map_err(|e| setup(format!("{path}: {e}")))?;
        println!("report: {path}");
    }
    let reports = || cells.iter().map(|c| &c.report);
    print!("{}", fd_mc::McReport::render_verdict(reports()));
    if reports().any(|r| !r.violations.is_empty()) {
        return Err(Stop::Found(String::new()));
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let name = match argv.first().map(String::as_str) {
        Some("--help" | "-h") => Some("help"),
        name => name,
    };
    let cmd = name.and_then(|name| COMMANDS.iter().find(|c| c.name == name));
    let outcome = match (name, cmd) {
        (None, _) => Err(usage("no subcommand given")),
        (Some(name), None) => Err(setup(format!("unknown command {name}"))),
        (_, Some(c)) => parse(c, &argv[1..]).and_then(|m| {
            if m.help {
                print!("{}", help(cmd));
                return Ok(());
            }
            (c.run)(&m)
        }),
    };
    ExitCode::from(match outcome {
        Ok(()) => 0,
        Err(Stop::Found(e)) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            1
        }
        Err(Stop::Nothing(e, show_usage)) => {
            eprintln!("error: {e}");
            if show_usage {
                eprint!("\n{}", help(cmd));
            }
            2
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str) -> &'static Cmd {
        COMMANDS.iter().find(|c| c.name == name).expect("a row")
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// Whether `sub` refuses `args`, at parse time or at its first typed
    /// read (every `run` reads its flags before it does anything).
    fn refused(sub: &str, args: &str) -> bool {
        let args = argv(args);
        let stop = parse(row(sub), &args).and_then(|m| (m.cmd.run)(&m));
        matches!(stop, Err(Stop::Nothing(_, true)))
    }

    #[test]
    fn lint_defaults() {
        let args = argv("");
        let m = parse(row("lint"), &args).unwrap();
        assert_eq!(m.get::<String>("--format").unwrap(), "human");
        assert!(!m.has("--deny-warnings"));
        assert_eq!(m.all("--rule").count(), 0);
        assert_eq!(m.opt::<String>("--root").unwrap(), None);
        assert_eq!(m.opt::<String>("--graph-out").unwrap(), None);
        assert_eq!(m.get::<String>("--graph-format").unwrap(), "json");
    }

    #[test]
    fn lint_full_flag_set() {
        let args = argv(
            "--format json --deny-warnings --rule ND001 --rule UH002 --root /x \
             --graph-out g.dot --graph-format dot",
        );
        let m = parse(row("lint"), &args).unwrap();
        assert_eq!(m.get::<String>("--format").unwrap(), "json");
        assert!(m.has("--deny-warnings"));
        assert_eq!(m.all("--rule").collect::<Vec<_>>(), ["ND001", "UH002"]);
        assert_eq!(m.opt::<String>("--root").unwrap().as_deref(), Some("/x"));
        assert_eq!(
            m.opt::<String>("--graph-out").unwrap().as_deref(),
            Some("g.dot")
        );
        assert_eq!(m.get::<String>("--graph-format").unwrap(), "dot");
    }

    #[test]
    fn lint_rejects_bad_flags() {
        assert!(refused("lint", "--format yaml"));
        assert!(refused("lint", "--rule"));
        assert!(refused("lint", "--frmt json"));
        assert!(refused("lint", "--graph-format svg"));
        assert!(refused("lint", "--graph-out"));
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
        let args = argv("");
        let m = parse(row("consensus"), &args).unwrap();
        let sim = Sim::read(&m).unwrap();
        assert_eq!((sim.n, sim.seed), (5, 42));
        assert_eq!(m.get::<String>("--protocol").unwrap(), "ec");
        assert!(sim.crashes.is_empty());
        let args = argv("--all");
        let m = parse(row("mc"), &args).unwrap();
        assert_eq!(process_count(&m).unwrap(), 3, "mc has its own --n default");
    }

    #[test]
    fn full_flag_set() {
        let args = argv("--n 7 --protocol ct --seed 9 --crash 2@50 --crash 3@75.25 --timeline");
        let m = parse(row("consensus"), &args).unwrap();
        let sim = Sim::read(&m).unwrap();
        assert_eq!((sim.n, sim.seed), (7, 9));
        assert_eq!(m.get::<String>("--protocol").unwrap(), "ct");
        assert_eq!(
            sim.crashes,
            vec![(2, Time::from_millis(50)), (3, Time(75_250))]
        );
        assert_eq!(sim.crash_list(), "[(2, 50), (3, 75.25)]");
        assert_eq!(timeline_cap(&m).unwrap(), Some(64));
    }

    #[test]
    fn campaign_flags() {
        let args = argv("--scenario e8 --seeds 10..1000 --jobs 4 --artifact-dir /tmp/art");
        let m = parse(row("campaign"), &args).unwrap();
        assert_eq!(m.get::<String>("--scenario").unwrap(), "e8");
        assert_eq!(m.get::<Seeds>("--seeds").unwrap().0, 10..1000);
        assert_eq!(m.get::<NonZeroUsize>("--jobs").unwrap().get(), 4);
        assert_eq!(m.get::<String>("--artifact-dir").unwrap(), "/tmp/art");
        assert_eq!(m.opt::<String>("--replay").unwrap(), None);
        let args = argv("--replay target/campaign/x.json --shrink");
        let m = parse(row("campaign"), &args).unwrap();
        assert_eq!(
            m.opt::<String>("--replay").unwrap().as_deref(),
            Some("target/campaign/x.json")
        );
        assert!(m.has("--shrink"));
    }

    #[test]
    fn bad_campaign_flags_rejected() {
        assert!(refused("campaign", "--seeds 5"), "not a range");
        assert!(refused("campaign", "--seeds a..b"), "not numbers");
        assert!(refused("campaign", "--seeds 9..2"), "reversed range");
        let args = argv("--seeds 3..3");
        let m = parse(row("campaign"), &args).unwrap();
        let Err(Stop::Nothing(e, true)) = m.get::<Seeds>("--seeds") else {
            panic!("an empty half-open range must be rejected");
        };
        assert!(
            e.starts_with("--seeds") && e.contains("empty range") && e.contains("B > A"),
            "empty half-open range must be rejected with a clear message, got: {e}"
        );
        assert!(refused("campaign", "--scenario e8 --jobs 0"));
        assert!(refused("campaign", "--scenario e8 --jobs many"));
    }

    #[test]
    fn metrics_out_flag_parses() {
        let args = argv("--scenario e8 --seeds 0..8 --metrics-out /tmp/m.jsonl");
        let m = parse(row("campaign"), &args).unwrap();
        assert_eq!(
            m.opt::<String>("--metrics-out").unwrap().as_deref(),
            Some("/tmp/m.jsonl")
        );
        assert!(refused("campaign", "--metrics-out"), "needs a value");
    }

    #[test]
    fn bad_crash_spec_rejected() {
        assert!(refused("consensus", "--crash nope"));
        assert!(
            refused("consensus", "--crash 9@10"),
            "out of range for default n"
        );
        assert!(refused("consensus", "--crash 1@-5"), "before time zero");
        assert!(refused("consensus", "--crash 1@NaN"));
        assert!(refused("detector", "--loss 1"), "a link that drops all");
        assert!(refused("consensus", "--n 0"));
        assert!(refused("consensus", "--mystery 1"));
    }

    /// Every `ecfd …` line the docs print must still parse against the
    /// table (flag names and arity; nothing runs).
    #[test]
    fn documented_command_lines_parse() {
        let docs = [
            include_str!("../../README.md"),
            include_str!("../../EXPERIMENTS.md"),
            include_str!("../../crates/fd-chaos/CATALOG.md"),
        ];
        let mut checked = 0;
        for line in docs.iter().flat_map(|doc| doc.lines()) {
            if !line.starts_with("ecfd ") {
                continue;
            }
            let args = argv(line.split('#').next().unwrap_or(line));
            let cmd = COMMANDS.iter().find(|c| c.name == args[1]);
            let cmd = cmd.unwrap_or_else(|| panic!("no subcommand in `{line}`"));
            if let Err(stop) = parse(cmd, &args[2..]) {
                panic!("documented `{line}` no longer parses: {stop:?}");
            }
            checked += 1;
        }
        assert!(
            checked >= 20,
            "only {checked} documented command lines found"
        );
    }
}

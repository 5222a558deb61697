//! The ecfd benchmark. See `README.md` beside this package.

mod alloc;
mod cal;
mod detector;
mod e8;
mod kv;
mod layers;
mod openloop;
mod runner;
mod selfcheck;
mod spans;
mod spec;
mod stats;
mod workload;

use std::io::Write;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: ecfd-benchmark [--workload NAME] [--seed N] [--seconds N] \
[--trace 0|1] [--quick] [--selfcheck] [--spec]
  --workload NAME  one of the six workloads (default: all, one after another)
  --seed N         workload seed; every generated input derives from it (default 1)
  --seconds N      how long the timed reps of a run last (default 10)
  --trace 0|1      1 = the traced run: per-layer metrics instead of end-to-end ones
  --quick          sizes ~20x smaller (smoke runs and `cargo test`)
  --selfcheck      run the workloads as two interleaved sets of five runs and compare them
  --spec           print BENCHMARK.json and exit";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    selfcheck: bool,
    spec: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        quick: false,
        selfcheck: false,
        spec: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !workload::names().contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?}; one of {}",
                        workload::names().join(", ")
                    ));
                }
                out.workload = Some(name);
            }
            "--seed" => {
                out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--quick" => out.quick = true,
            "--selfcheck" => out.selfcheck = true,
            "--spec" => out.spec = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

/// The result line the acceptance driver parses.
fn result_line(r: &runner::Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// Where the traced run leaves its spans: beside the executable, which
/// is inside the build directory of whatever checkout runs this.
fn trace_path() -> Option<std::path::PathBuf> {
    Some(std::env::current_exe().ok()?.parent()?.join("trace.jsonl"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.spec {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let opt = workload::Options {
        seed: args.seed,
        quick: args.quick,
    };
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => workload::names(),
    };
    if args.selfcheck {
        return if selfcheck::run(&names, opt, args.seconds) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let mut all_correct = true;
    let mut trace_file = args
        .trace
        .then(trace_path)
        .flatten()
        .and_then(|p| std::fs::File::create(p).ok())
        .map(std::io::BufWriter::new);
    for name in names {
        let report = if args.trace {
            let (report, tracer) = runner::run_traced(name, opt, args.seconds);
            if let Some(f) = &mut trace_file {
                if let Err(e) = tracer.write_jsonl(name, f) {
                    eprintln!("warning: could not write the span file: {e}");
                }
            }
            report
        } else {
            runner::run(name, opt, args.seconds)
        };
        for note in &report.notes {
            println!("{note}");
        }
        for problem in &report.problems {
            println!("PROBLEM {problem}");
        }
        for m in &report.metrics {
            println!("{name:>16}  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
        }
        all_correct &= report.correct();
        println!("{}", result_line(&report));
    }
    if let Some(mut f) = trace_file {
        if let Err(e) = f.flush() {
            eprintln!("warning: could not write the span file: {e}");
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

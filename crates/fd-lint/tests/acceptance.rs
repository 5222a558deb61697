//! Acceptance tests from the rule families' reason for existing: seed a
//! hazard the old token scanner could not see, and require the analyzer
//! to catch it at the exact site.

use fd_lint::{analyze_sources, Finding, Options, SourceFile};

fn file(rel_path: &str, src: &str) -> SourceFile {
    SourceFile {
        rel_path: rel_path.to_string(),
        src: src.to_string(),
    }
}

/// The real fd-obs registry, so the seeded-key tests run against the
/// keys the workspace actually registers.
fn real_registry() -> SourceFile {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../fd-obs/src/keys.rs");
    file(
        "crates/fd-obs/src/keys.rs",
        &std::fs::read_to_string(path).expect("fd-obs registry source"),
    )
}

fn deny_hits<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings
        .iter()
        .filter(|f| f.rule == rule && !f.suppressed)
        .collect()
}

#[test]
fn a_typoed_obs_key_is_caught_at_its_site_with_a_suggestion() {
    // "completness" — the dropped-letter typo a grep for the registered
    // key never finds, silently detaching a checker from its dashboards.
    let seeded = "\
fn check(trace: &[(&str, u64)]) -> bool {
    trace.iter().any(|(k, _)| *k == \"fd.weak_completness\")
}
";
    let report = analyze_sources(
        &[
            real_registry(),
            file("crates/fd-detectors/src/seeded.rs", seeded),
        ],
        &Options::default(),
    );
    let obs = deny_hits(&report.findings, "OBS001");
    assert_eq!(obs.len(), 1, "{:?}", report.findings);
    let f = obs[0];
    assert_eq!(
        (f.file.as_str(), f.line, f.col),
        ("crates/fd-detectors/src/seeded.rs", 2, 37),
        "caught at the literal itself"
    );
    assert!(
        f.message.contains("fd.weak_completeness"),
        "suggests the registered neighbor: {}",
        f.message
    );
}

#[test]
fn a_registered_key_referenced_by_constant_passes() {
    let ok = "\
fn check(trace: &[(&str, u64)]) -> bool {
    trace.iter().any(|(k, _)| *k == fd_obs::keys::FD_WEAK_COMPLETENESS)
}
";
    let report = analyze_sources(
        &[
            real_registry(),
            file("crates/fd-detectors/src/seeded.rs", ok),
        ],
        &Options::default(),
    );
    assert!(
        deny_hits(&report.findings, "OBS001").is_empty(),
        "{:?}",
        report.findings
    );
}

#[test]
fn a_seeded_hot_path_unwrap_is_caught_at_its_site() {
    let seeded = "\
struct Q {
    slots: Vec<Option<u64>>,
}
impl Q {
    // fd-lint: hot_path
    fn pop(&mut self) -> u64 {
        self.take_head()
    }
    fn take_head(&mut self) -> u64 {
        self.slots.pop().unwrap().unwrap()
    }
}
";
    let report = analyze_sources(
        &[file("crates/fd-sim/src/seeded_q.rs", seeded)],
        &Options::default(),
    );
    let hp = deny_hits(&report.findings, "HP001");
    assert_eq!(hp.len(), 2, "both unwraps: {:?}", report.findings);
    assert_eq!(
        (hp[0].line, hp[0].col),
        (10, 26),
        "first unwrap at its exact site"
    );
    assert_eq!((hp[1].line, hp[1].col), (10, 35));
    assert!(
        hp[0].message.contains("Q::pop → Q::take_head"),
        "names the path from the marked root: {}",
        hp[0].message
    );
}

#[test]
fn an_emitter_with_no_consumer_is_drift() {
    // A private registry plus one emitter and no consumer anywhere: the
    // metric key is write-only, anchored at its registry row.
    let registry = "\
obs_keys! {
    Metric SEEDED_ORPHAN = \"seeded.orphan\";
}
";
    let emitter = "\
fn tick(r: &fd_obs::Registry) {
    r.counter(fd_obs::keys::SEEDED_ORPHAN).add(1);
}
";
    let report = analyze_sources(
        &[
            file("crates/fd-obs/src/keys.rs", registry),
            file("crates/fd-sim/src/emit.rs", emitter),
        ],
        &Options::default(),
    );
    let drift: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "OBS002" && !f.suppressed)
        .collect();
    assert_eq!(drift.len(), 1, "{:?}", report.findings);
    assert_eq!(drift[0].file, "crates/fd-obs/src/keys.rs");
    assert_eq!(drift[0].line, 2, "anchored at the registry row");
    assert!(
        drift[0].message.contains("never consumed"),
        "{}",
        drift[0].message
    );
}

#[test]
fn a_silent_wildcard_in_a_receive_path_is_caught() {
    let seeded = "\
enum PingMsg {
    Ping,
    Pong,
    Halt,
}
fn on_message(msg: PingMsg) {
    match msg {
        PingMsg::Ping => reply(),
        _ => {}
    }
}
fn reply() {}
";
    let report = analyze_sources(
        &[file("crates/fd-consensus/src/seeded_rx.rs", seeded)],
        &Options::default(),
    );
    let msg = deny_hits(&report.findings, "MSG001");
    assert_eq!(msg.len(), 1, "{:?}", report.findings);
    assert_eq!((msg[0].line, msg[0].col), (9, 9));
}

// ---------------------------------------------------------------- API001

const ORPHAN: &str = "pub struct Widget;\npub fn make() -> Widget { Widget }\n";

/// Lint `crates/fd-kv/src/widget.rs` (contents `widget`) next to one
/// other file, returning the unsuppressed API001 and SUP001 findings.
fn orphan_run(widget: &str, other: (&str, &str)) -> (Vec<Finding>, Vec<Finding>) {
    let report = analyze_sources(
        &[
            file("crates/fd-kv/src/widget.rs", widget),
            file(other.0, other.1),
        ],
        &Options::default(),
    );
    let of = |rule| {
        deny_hits(&report.findings, rule)
            .into_iter()
            .cloned()
            .collect()
    };
    (of("API001"), of("SUP001"))
}

#[test]
fn a_file_nobody_names_is_an_orphan_and_a_reexport_or_a_test_does_not_save_it() {
    // The crate root re-exports it, its own tests and an integration
    // test call it, a comment and a string mention it: none is a caller.
    let widget =
        format!("{ORPHAN}#[cfg(test)]\nmod tests {{ #[test] fn t() {{ super::make(); }} }}\n");
    let root = "pub mod widget;\npub use widget::{make, Widget};\n\
                // make() builds a Widget\nfn f() -> &'static str { \"Widget\" }\n";
    let (api, _) = orphan_run(&widget, ("crates/fd-kv/src/lib.rs", root));
    assert_eq!(api.len(), 1, "{api:?}");
    assert_eq!(
        (api[0].file.as_str(), api[0].line, api[0].col),
        ("crates/fd-kv/src/widget.rs", 1, 1)
    );
    assert!(
        api[0].message.contains("Widget, make"),
        "{}",
        api[0].message
    );
    let test_caller = "fn t() { fd_kv::widget::make(); }\n";
    let (api, _) = orphan_run(ORPHAN, ("tests/widget_e2e.rs", test_caller));
    assert_eq!(api.len(), 1, "integration tests are not callers: {api:?}");
}

#[test]
fn a_file_called_from_another_crate_the_benchmark_or_an_example_is_not_an_orphan() {
    let caller = "fn f() { let _ = fd_kv::widget::make(); }\n";
    for path in [
        "crates/fd-core/src/user.rs",
        "benchmark/src/layers.rs",
        "examples/quickstart.rs",
    ] {
        let (api, _) = orphan_run(ORPHAN, (path, caller));
        assert!(api.is_empty(), "{path} calls it: {api:?}");
    }
    // The benchmark package is read for call sites, never linted: its
    // wall-clock read is not an ND002 finding and it is not counted.
    let timed = "fn f() { let _ = (fd_kv::widget::make(), std::time::Instant::now()); }\n";
    let report = analyze_sources(
        &[
            file("crates/fd-kv/src/widget.rs", ORPHAN),
            file("benchmark/src/layers.rs", timed),
        ],
        &Options::default(),
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.files_scanned, 1);
}

#[test]
fn a_reasoned_allow_keeps_an_orphan_and_a_stale_one_is_sup001() {
    let allowed = format!(
        "//! Kept on purpose.\n\n\
         // fd-lint: allow(API001, reason = \"paper construction, exercised by tests only\")\n{ORPHAN}"
    );
    let bystander = ("crates/fd-core/src/user.rs", "fn unrelated() {}\n");
    let (api, sup) = orphan_run(&allowed, bystander);
    assert!(api.is_empty() && sup.is_empty(), "{api:?} {sup:?}");
    // Once something calls the file the allow suppresses nothing.
    let caller = (
        "crates/fd-core/src/user.rs",
        "fn f() { fd_kv::widget::make(); }\n",
    );
    let (api, sup) = orphan_run(&allowed, caller);
    assert!(api.is_empty(), "{api:?}");
    assert_eq!(sup.len(), 1, "{sup:?}");
    assert!(
        sup[0].message.contains("suppresses nothing"),
        "{}",
        sup[0].message
    );
}

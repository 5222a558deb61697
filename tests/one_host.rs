//! One way to assemble a node: outside test code, the workspace
//! implements `fd_sim::Actor` for the two `fd-core` hosts, two synthetic
//! load generators, and one wrapper on its way out — nothing else. A
//! protocol that wants a node of its own implements `Over<D>` and is
//! hosted by `Stack`; a new hand-written host fails here. Likewise one
//! round shell: the decide task lives in `fd-consensus/src/api.rs`, and a
//! protocol that grows its own fails — and nothing in the consensus or
//! experiment crates polls the detector: its output arrives as an event.
//! And one slot drive: `fd_consensus::Log` announces, joins and proposes
//! in a log slot for every host, the KV service included.

use std::fs;
use std::path::{Path, PathBuf};

/// `(file, implementing type)`.
const HOSTS: [(&str, &str); 5] = [
    ("crates/fd-bench/src/mc.rs", "McEcNode"), // until ROADMAP 2(c)
    ("crates/fd-campaign/src/builtin.rs", "BlindActor"),
    ("crates/fd-core/src/component.rs", "Stack"),
    ("crates/fd-core/src/component.rs", "Standalone"),
    ("crates/fd-sim/src/bench.rs", "Flooder"),
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// `(path relative to the repo root, source before the first
/// `#[cfg(test)]`)` of every file under `crates/*/src`.
fn shipped_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/ exists") {
        rust_files(&krate.unwrap().path().join("src"), &mut files);
    }
    let mut sources: Vec<(String, String)> = files
        .iter()
        .map(|file| {
            let src = fs::read_to_string(file).unwrap();
            let shipped = src.split("#[cfg(test)]").next().unwrap();
            let rel = file.strip_prefix(root).unwrap().to_str().unwrap();
            (rel.replace('\\', "/"), shipped.to_string())
        })
        .collect();
    sources.sort();
    sources
}

#[test]
fn only_the_listed_types_implement_actor_outside_tests() {
    let mut found = Vec::new();
    for (rel, shipped) in shipped_sources() {
        for line in shipped.lines().filter(|l| l.starts_with("impl")) {
            if let Some((_, host)) = line.split_once(" Actor for ") {
                let name: String = host.chars().take_while(|c| c.is_alphanumeric()).collect();
                found.push((rel.clone(), name));
            }
        }
    }
    found.sort();
    let found: Vec<(&str, &str)> = found.iter().map(|(f, t)| (&**f, &**t)).collect();
    assert_eq!(
        found, HOSTS,
        "left: `impl Actor for` on disk, right: allowed"
    );
}

#[test]
fn nothing_polls() {
    let sources = shipped_sources();
    let naming = |needle: &str| -> Vec<&str> {
        sources
            .iter()
            .filter(|(_, src)| src.contains(needle))
            .map(|(rel, _)| &**rel)
            .collect()
    };
    for knob in ["TIMER_POLL", "poll_period", "fast_poll", "ConsensusConfig"] {
        let found: Vec<&str> = naming(knob)
            .into_iter()
            .filter(|rel| {
                rel.starts_with("crates/fd-consensus/") || rel.starts_with("crates/fd-bench/")
            })
            .collect();
        assert!(
            found.is_empty(),
            "{knob} is back in {found:?}: the detector's output is an event"
        );
    }
    assert_eq!(
        naming("fn on_decide_delivered"),
        ["crates/fd-consensus/src/api.rs"],
        "Fig. 4's decide task is written once"
    );
}

#[test]
fn the_slot_drive_is_written_once() {
    let sources = shipped_sources();
    for needle in ["fn ensure_proposed", "fn propose_in_slot", "Open { slot"] {
        let found: Vec<&str> = sources
            .iter()
            .filter(|(_, src)| src.contains(needle))
            .map(|(rel, _)| &**rel)
            .collect();
        assert_eq!(
            found,
            ["crates/fd-consensus/src/multi.rs"],
            "`{needle}` outside the log: a second copy of the slot drive"
        );
    }
    let lifted: Vec<&str> = sources
        .iter()
        .filter(|(_, src)| src.contains("lift: fn("))
        .map(|(rel, _)| &**rel)
        .collect();
    assert!(
        lifted.is_empty(),
        "a multiplexer method lifts into a host's message type again: {lifted:?}"
    );
}

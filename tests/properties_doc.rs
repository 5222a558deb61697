//! PROPERTIES.md ↔ checker registry consistency.
//!
//! PROPERTIES.md is the written spec of every property the workspace
//! enforces. A spec that drifts from the code is worse than no spec:
//! a monitor without a catalog entry is an undocumented obligation,
//! and a catalog entry without a monitor is a claim nothing checks.
//! This test diffs the document against the generated key registry in
//! both directions, and verifies that every checker anchor the
//! document cites names a real file and an item that file defines.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use fd_obs::keys::{self, KeyCategory};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn properties_md() -> String {
    fs::read_to_string(repo_root().join("PROPERTIES.md")).expect("PROPERTIES.md exists")
}

/// Keys the catalog must document: every registered `Check`, plus the
/// one `Obs` key that doubles as a monitor name (`kv.recovery`, the
/// fd-kv restart catch-up monitor).
fn registered_monitors() -> BTreeSet<&'static str> {
    let mut set: BTreeSet<&'static str> = keys::ALL
        .iter()
        .filter(|(_, _, cat)| *cat == KeyCategory::Check)
        .map(|(_, key, _)| *key)
        .collect();
    set.insert(keys::KV_RECOVERY);
    set
}

/// Keys PROPERTIES.md documents: one `### `key`` heading per entry.
fn documented_monitors(doc: &str) -> BTreeSet<String> {
    doc.lines()
        .filter_map(|l| l.strip_prefix("### `"))
        .filter_map(|rest| rest.split('`').next())
        .map(str::to_string)
        .collect()
}

#[test]
fn every_registered_monitor_is_documented() {
    let doc = properties_md();
    let documented = documented_monitors(&doc);
    let missing: Vec<&str> = registered_monitors()
        .into_iter()
        .filter(|k| !documented.contains(*k))
        .collect();
    assert!(
        missing.is_empty(),
        "registered monitors with no PROPERTIES.md entry (add a `### \\`key\\`` section): {missing:?}"
    );
}

#[test]
fn every_documented_monitor_is_registered() {
    let doc = properties_md();
    let registered = registered_monitors();
    let orphans: Vec<String> = documented_monitors(&doc)
        .into_iter()
        .filter(|k| !registered.contains(k.as_str()))
        .collect();
    assert!(
        orphans.is_empty(),
        "PROPERTIES.md documents monitors that are not registered in fd-obs::keys: {orphans:?}"
    );
}

#[test]
fn documented_monitors_match_named_checks() {
    // Every name `run_named_check` understands is a Check key, so the
    // two registries can only drift if someone adds a check without
    // registering its key (or vice versa). Pin the overlap here so the
    // doc test above transitively covers NAMED_CHECKS too.
    let registered = registered_monitors();
    for name in fd_core::properties::NAMED_CHECKS {
        assert!(
            registered.contains(name),
            "NAMED_CHECKS entry {name:?} is not a registered Check key"
        );
    }
}

/// Every `path::item` anchor in PROPERTIES.md must name a file inside
/// the repo that defines a `fn` or `struct` called `item` — by name, so
/// code moving within the file never stales the document.
#[test]
fn checker_anchors_point_at_real_code() {
    let doc = properties_md();
    // Markdown-link anchors of the form
    // [`crates/.../file.rs::item`](crates/.../file.rs).
    let anchors: Vec<(&str, &str)> = doc
        .split("[`crates/")
        .skip(1)
        .filter_map(|tail| tail.split('`').next()?.split_once("::"))
        .collect();
    assert!(
        anchors.len() >= 20,
        "expected at least one file::item anchor per catalog entry, found {}",
        anchors.len()
    );
    assert_eq!(
        doc.matches(".rs:").count(),
        doc.matches(".rs::").count(),
        "PROPERTIES.md cites a `file.rs:LINE`; cite `file.rs::item`"
    );
    for (path, item) in anchors {
        let path = format!("crates/{path}");
        let src = fs::read_to_string(repo_root().join(&path))
            .unwrap_or_else(|e| panic!("PROPERTIES.md cites missing file {path}: {e}"));
        let defines = |kw: &str| {
            src.match_indices(&format!("{kw} {item}"))
                .any(|(at, found)| {
                    !src[at + found.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
                })
        };
        assert!(
            defines("fn") || defines("struct"),
            "PROPERTIES.md cites {path}::{item}, but the file defines no such fn or struct — \
             the checker was renamed or moved; update the anchor"
        );
    }
}

/// The exhaustive-coverage claims in the summary table must agree with
/// what the fd-mc targets actually check.
#[test]
fn exhaustive_column_matches_mc_targets() {
    use fd_bench::mc::{detector_target, protocol_target, McProtocol};
    use fd_chaos::DetectorKind;
    use fd_sim::Time;

    let doc = properties_md();
    let mut exhaustive: BTreeSet<&str> = BTreeSet::new();
    for kind in DetectorKind::ALL {
        for p in detector_target(kind, 3, Time::from_millis(300)).properties {
            exhaustive.insert(p);
        }
    }
    for proto in McProtocol::ALL {
        for p in protocol_target(proto, 3, Time::from_millis(300)).properties {
            exhaustive.insert(p);
        }
    }
    // consensus.all subsumes its four clauses; the doc marks them
    // exhaustive "via consensus.all".
    if exhaustive.contains(keys::CONSENSUS_ALL) {
        for k in [
            keys::CONSENSUS_AGREEMENT,
            keys::CONSENSUS_VALIDITY,
            keys::CONSENSUS_INTEGRITY,
            keys::CONSENSUS_TERMINATION,
        ] {
            exhaustive.insert(k);
        }
    }
    for key in exhaustive {
        // Find the summary-table row for this key and require a ✓ (not
        // a —) in the exhaustive column (the last cell).
        let row = doc
            .lines()
            .find(|l| l.starts_with(&format!("| `{key}` ")))
            .unwrap_or_else(|| panic!("no summary-table row for exhaustively-covered {key}"));
        // `\|` inside backticked CLI flags is an escaped pipe, not a
        // cell separator.
        let unescaped = row.replace("\\|", "¦");
        let last = unescaped
            .trim_end_matches('|')
            .rsplit('|')
            .next()
            .unwrap_or("")
            .to_string();
        assert!(
            last.contains('✓'),
            "{key} is checked by an fd-mc target but its summary row does not mark it exhaustive: {row}"
        );
    }
}

//! The crate maps cannot go stale: every place that lists the
//! workspace's crates — README's crate table, DESIGN §2's tree, DESIGN
//! §5's module inventory and the facade's re-exports — names exactly the
//! directories under `crates/`. A crate deleted (or added) without its
//! documentation fails here, not in a reader's head.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The text of `doc` from the heading line starting with `from` up to
/// the next heading line starting with `to`.
fn section<'a>(doc: &'a str, from: &str, to: &str) -> &'a str {
    let start = doc.find(from).unwrap_or_else(|| panic!("no {from:?}"));
    let len = doc[start..].find(to).unwrap_or_else(|| panic!("no {to:?}"));
    &doc[start..start + len]
}

/// The `fd-*` crate names that directly follow `prefix` at the start of
/// a line (`fd_x` spellings normalised to `fd-x`).
fn crates_after(text: &str, prefix: &str) -> BTreeSet<String> {
    text.lines()
        .filter_map(|line| line.strip_prefix(prefix))
        .filter(|rest| rest.starts_with("fd"))
        .map(|rest| {
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_lowercase() || matches!(c, '-' | '_'))
                .collect();
            name.replace('_', "-")
        })
        .collect()
}

#[test]
fn every_crate_map_names_exactly_the_crates_directory() {
    let dirs: BTreeSet<String> = fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("crates"))
        .expect("crates/ exists")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    assert!(dirs.len() >= 10, "crates/ looks wrong: {dirs:?}");

    let design = read("DESIGN.md");
    let tree = section(&design, "## 2. Workspace layout", "\n## 3.");
    let mut tree_crates = crates_after(tree, "    ├── ");
    tree_crates.extend(crates_after(tree, "    └── "));
    let inventory = section(&design, "## 5. Module inventory", "\n## 6.");
    for (what, named) in [
        (
            "README.md crate table",
            crates_after(&read("README.md"), "| [`"),
        ),
        ("DESIGN.md §2 tree", tree_crates),
        ("DESIGN.md §5 inventory", crates_after(inventory, "### ")),
        (
            "src/lib.rs re-exports",
            crates_after(&read("src/lib.rs"), "pub use "),
        ),
    ] {
        assert_eq!(
            named, dirs,
            "{what} and crates/ disagree (left: documented, right: on disk)"
        );
    }
}

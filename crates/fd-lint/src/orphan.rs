//! API001 — orphan-module (warn): a source file none of whose
//! top-level `pub` items is named anywhere else.
//!
//! Name-level, like the rest of the engine: a file under `crates/*/src`
//! or `src/` is an orphan when no identifier token in the non-test code
//! of any *other* file spells one of its top-level `pub fn` / `struct` /
//! `enum` / `trait` / `type` / `const` / `static` names. `use` items do
//! not count — a re-export is not a caller — and neither do comments or
//! strings (they are not identifier tokens). `examples/` and the
//! caller-only `benchmark/src` files count as callers; `tests/` and
//! `#[cfg(test)]` scopes do not, which is the point: a module only its
//! own tests reach is surface nobody needs. The finding anchors at the
//! file's first code line, so one reasoned allow above it governs the
//! file.

use crate::obskeys::finding_at;
use crate::report::Finding;
use crate::rules::Rule;
use crate::tokens::TokKind;
use crate::FileModel;
use std::collections::{BTreeMap, BTreeSet};

const ITEM_KW: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "union",
];

/// The identifiers `f` spells as a caller: those of its non-test code
/// outside `use` items, and none at all for a test file that is not an
/// example.
fn spelled(f: &FileModel) -> BTreeSet<&str> {
    if f.path_is_test && !f.rel_path.starts_with("examples/") {
        return BTreeSet::new();
    }
    let in_use = crate::scan::use_stmt_mask(&f.toks);
    f.toks
        .iter()
        .enumerate()
        .filter(|&(i, t)| t.kind == TokKind::Ident && !in_use[i] && !f.scopes.in_test(i))
        .map(|(_, t)| t.text.as_str())
        .collect()
}

/// Names of the non-test `pub` items at brace depth 0 of `f`, plus the
/// `pub const`s its `obs_keys!` rows generate (the key registry's real
/// API, invisible to an item scan).
fn top_level_pub_names(f: &FileModel) -> Vec<String> {
    let toks = &f.toks;
    let mut names: Vec<String> = crate::obskeys::parse_registry(toks)
        .into_iter()
        .map(|row| row.const_name)
        .collect();
    let mut depth = 0i64;
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
        }
        if depth != 0 || !t.is_ident("pub") || f.scopes.in_test(i) {
            continue;
        }
        // `pub const fn` / `pub async fn` / `pub unsafe fn`: the item
        // keyword is the `fn`.
        let kw = i + 1 + usize::from(toks.get(i + 2).is_some_and(|b| b.is_ident("fn")));
        if let (Some(k), Some(name)) = (toks.get(kw), toks.get(kw + 1)) {
            if ITEM_KW.contains(&k.text.as_str()) && name.kind == TokKind::Ident {
                names.push(name.text.clone());
            }
        }
    }
    names
}

/// Run API001 over the linted `files`, reading `callers` (files that are
/// scanned but never linted) as additional call sites.
pub(crate) fn run_orphan_rule(
    files: &[FileModel],
    callers: &[FileModel],
    rule: &'static Rule,
    out: &mut Vec<Finding>,
) {
    let spelled: Vec<BTreeSet<&str>> = files.iter().chain(callers).map(spelled).collect();
    let mut spelled_in: BTreeMap<&str, usize> = BTreeMap::new();
    for name in spelled.iter().flatten() {
        *spelled_in.entry(name).or_default() += 1;
    }
    for (fi, f) in files.iter().enumerate() {
        // Every linted path that is not a test, bench or example lies
        // under `crates/*/src` or `src/`.
        let (Some(first), false) = (f.toks.first(), f.path_is_test) else {
            continue;
        };
        let names = top_level_pub_names(f);
        let elsewhere = |name: &String| {
            let own = usize::from(spelled[fi].contains(name.as_str()));
            spelled_in.get(name.as_str()).copied().unwrap_or(0) > own
        };
        if names.is_empty() || names.iter().any(elsewhere) {
            continue;
        }
        let message = format!(
            "none of this file's top-level pub items ({}) is named in the non-test code of \
             any other file (`use` items and tests do not count): delete the module, or \
             allow with the reason it is kept",
            names.join(", ")
        );
        out.push(finding_at(rule, f, first, message));
    }
}

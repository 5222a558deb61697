//! The observation-key registry rules: OBS001 (unregistered or raw key
//! literals) and OBS002 (emitter/consumer drift).
//!
//! The registry is `crates/fd-obs/src/keys.rs`: the linter re-parses its
//! `obs_keys!` invocation at the token level (`Category NAME = "key";`),
//! so the rules need no build-time coupling to fd-obs — they work on the
//! same file set the rest of the engine scans, and go quiet when the
//! registry file is absent from the set (single-file `lint_source`
//! runs).
//!
//! ## OBS001 — unregistered-obs-key (deny)
//!
//! A non-test string literal that *looks like* an observation key
//! (lowercase dotted segments) and whose first segment is a registered
//! namespace must be the registry's string exactly — and even then, raw
//! literals are findings: reference the generated const so typos are
//! compile errors, not vacuous monitors. Unknown keys get a
//! nearest-match suggestion (edit distance), because the failure this
//! rule exists for is `fd.weak_completness`.
//!
//! ## OBS002 — obs-key-drift (warn)
//!
//! Every `Metric`/`Obs` entry must have at least one *emit* site and one
//! *consume* site somewhere in the workspace (tests count — a key whose
//! only consumer is a test assertion is still consumed). `Check` keys
//! are consumed by checker tables with no single emit site, and `Kind`
//! keys are aggregated generically; both are exempt. An occurrence is an
//! identifier that resolves to the generated const through any chain of
//! `use … as …` re-exports (aggregated workspace-wide), or the key
//! string itself. A site is an *emit* when it feeds a known emit call
//! (`observe`, `annotate`, `counter`, `gauge`, `histogram`, `span`) or a
//! `tag:` field, or sits in a `kind`/`tag` fn; everything else is a
//! *consume*. Findings anchor at the registry entry so one suppression
//! line in `keys.rs` governs the key.

use crate::items::enclosing_fn;
use crate::report::Finding;
use crate::rules::Rule;
use crate::tokens::{Tok, TokKind};
use crate::FileModel;
use std::collections::{BTreeMap, BTreeSet};

/// One parsed `Category NAME = "key";` registry row.
pub(crate) struct RegistryEntry {
    pub const_name: String,
    pub key: String,
    pub category: String,
    pub line: u32,
    pub col: u32,
}

/// Index of the registry file in the analyzed set, if present.
pub(crate) fn registry_file(files: &[FileModel]) -> Option<usize> {
    files
        .iter()
        .position(|f| f.rel_path.ends_with("fd-obs/src/keys.rs"))
}

/// Parse the `obs_keys!` rows out of the registry file's token stream.
pub(crate) fn parse_registry(toks: &[Tok]) -> Vec<RegistryEntry> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let cat = &toks[i];
        if cat.kind != TokKind::Ident
            || !matches!(cat.text.as_str(), "Metric" | "Obs" | "Check" | "Kind")
        {
            continue;
        }
        let (Some(name), Some(eq), Some(key), Some(semi)) = (
            toks.get(i + 1),
            toks.get(i + 2),
            toks.get(i + 3),
            toks.get(i + 4),
        ) else {
            continue;
        };
        if name.kind == TokKind::Ident
            && eq.is_punct('=')
            && key.kind == TokKind::Str
            && semi.is_punct(';')
        {
            if let Some(k) = str_contents(&key.text) {
                out.push(RegistryEntry {
                    const_name: name.text.clone(),
                    key: k.to_string(),
                    category: cat.text.clone(),
                    line: name.line,
                    col: name.col,
                });
            }
        }
    }
    out
}

/// The contents of a string-literal token (between the outermost
/// quotes), or `None` for char literals and soup.
fn str_contents(text: &str) -> Option<&str> {
    if !text.starts_with('"') && !text.starts_with("r\"") && !text.starts_with("r#") {
        return None; // char / byte literals are never keys
    }
    let start = text.find('"')? + 1;
    let end = text.rfind('"')?;
    if end < start {
        return None;
    }
    Some(&text[start..end])
}

/// Does `s` look like an observation key: at least two non-empty dotted
/// segments of `[a-z0-9_]`, starting with a letter?
fn is_key_shape(s: &str) -> bool {
    let mut segs = s.split('.');
    let Some(first) = segs.next() else {
        return false;
    };
    if !first.chars().next().is_some_and(|c| c.is_ascii_lowercase()) {
        return false;
    }
    let mut rest = 0usize;
    for seg in std::iter::once(first).chain(s.split('.').skip(1)) {
        if seg.is_empty()
            || !seg
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        {
            return false;
        }
        rest += 1;
    }
    rest >= 2
}

/// Levenshtein edit distance (two-row DP) for typo suggestions.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Calls that attach a key to an emission.
const EMIT_FNS: &[&str] = &[
    "observe",
    "annotate",
    "counter",
    "gauge",
    "histogram",
    "span",
];

/// Is the occurrence at token `i` an emit site (vs a consume site)?
fn is_emit_site(f: &FileModel, i: usize) -> bool {
    let toks = &f.toks;
    for j in (i.saturating_sub(8)..i).rev() {
        let t = &toks[j];
        if t.kind == TokKind::Ident
            && EMIT_FNS.contains(&t.text.as_str())
            && toks.get(j + 1).is_some_and(|n| n.is_punct('('))
        {
            return true;
        }
        // Struct-literal `tag: KEY` / `kind: KEY` field init.
        if (t.is_ident("tag") || t.is_ident("kind"))
            && toks.get(j + 1).is_some_and(|n| n.is_punct(':'))
            && !toks.get(j + 2).is_some_and(|n| n.is_punct(':'))
        {
            return true;
        }
    }
    enclosing_fn(&f.items, i).is_some_and(|fun| fun.name == "kind" || fun.name == "tag")
}

/// Run OBS001/OBS002 over the analyzed file set.
pub(crate) fn run_obs_rules(
    files: &[FileModel],
    obs001: Option<&'static Rule>,
    obs002: Option<&'static Rule>,
    out: &mut Vec<Finding>,
) {
    let Some(reg_idx) = registry_file(files) else {
        return;
    };
    let registry = parse_registry(&files[reg_idx].toks);
    if registry.is_empty() {
        return;
    }
    let namespaces: BTreeSet<&str> = registry
        .iter()
        .filter_map(|e| e.key.split('.').next())
        .collect();
    let by_key: BTreeMap<&str, &RegistryEntry> =
        registry.iter().map(|e| (e.key.as_str(), e)).collect();
    let const_names: BTreeSet<&str> = registry.iter().map(|e| e.const_name.as_str()).collect();

    if let Some(rule) = obs001 {
        for (fi, f) in files.iter().enumerate() {
            if fi == reg_idx {
                continue;
            }
            for (i, t) in f.toks.iter().enumerate() {
                if t.kind != TokKind::Str || f.path_is_test || f.scopes.in_test(i) {
                    continue;
                }
                let Some(s) = str_contents(&t.text) else {
                    continue;
                };
                if !is_key_shape(s) {
                    continue;
                }
                let ns = s.split('.').next().unwrap_or("");
                if !namespaces.contains(ns) {
                    continue;
                }
                let message = match by_key.get(s) {
                    Some(e) => format!(
                        "raw obs-key literal {s:?}: reference `fd_obs::keys::{}` (directly or \
                         via a re-export) so the registry stays the single source of truth",
                        e.const_name
                    ),
                    None => {
                        let nearest = registry
                            .iter()
                            .map(|e| (edit_distance(s, &e.key), e.key.as_str()))
                            .min()
                            .filter(|&(d, _)| d <= 3)
                            .map(|(_, k)| k);
                        match nearest {
                            Some(k) => format!(
                                "{s:?} is not in the fd-obs key registry — did you mean {k:?}? \
                                 A typo'd key makes its monitor silently vacuous; fix the name \
                                 or register it in crates/fd-obs/src/keys.rs"
                            ),
                            None => format!(
                                "{s:?} uses registered namespace `{ns}.` but is not in the \
                                 fd-obs key registry; register it in crates/fd-obs/src/keys.rs \
                                 or rename the namespace"
                            ),
                        }
                    }
                };
                out.push(finding_at(rule, f, t, message));
            }
        }
    }

    if let Some(rule) = obs002 {
        // Workspace-wide alias map: `use fd_obs::keys::X as Y` (and
        // re-export chains) make `Y` count as `X` in every file.
        let mut aliases: BTreeMap<&str, &str> = BTreeMap::new();
        for f in files {
            for (alias, orig) in f.uses.rename_pairs() {
                aliases.entry(alias.as_str()).or_insert(orig.as_str());
            }
        }
        let resolve = |name: &str| -> Option<String> {
            let mut cur = name.to_string();
            for _ in 0..4 {
                if const_names.contains(cur.as_str()) {
                    return Some(cur);
                }
                match aliases.get(cur.as_str()) {
                    Some(&next) if next != cur => cur = next.to_string(),
                    _ => return None,
                }
            }
            None
        };

        // (emits, consumes) per const name.
        let mut counts: BTreeMap<&str, (usize, usize)> = registry
            .iter()
            .filter(|e| e.category == "Metric" || e.category == "Obs")
            .map(|e| (e.const_name.as_str(), (0, 0)))
            .collect();
        for (fi, f) in files.iter().enumerate() {
            let in_use = crate::scan::use_stmt_mask(&f.toks);
            for (i, t) in f.toks.iter().enumerate() {
                let cname: Option<String> = match t.kind {
                    TokKind::Str => str_contents(&t.text)
                        .and_then(|s| by_key.get(s))
                        .map(|e| e.const_name.clone()),
                    TokKind::Ident if !in_use[i] && fi != reg_idx => resolve(&t.text),
                    _ => None,
                };
                let Some(cname) = cname else {
                    continue;
                };
                // A literal inside the registry file is the definition.
                if fi == reg_idx {
                    continue;
                }
                if let Some(c) = counts.get_mut(cname.as_str()) {
                    if is_emit_site(f, i) {
                        c.0 += 1;
                    } else {
                        c.1 += 1;
                    }
                }
            }
        }
        let reg_file = &files[reg_idx];
        for e in registry
            .iter()
            .filter(|e| e.category == "Metric" || e.category == "Obs")
        {
            let (emits, consumes) = counts[e.const_name.as_str()];
            let message = match (emits, consumes) {
                (0, 0) => format!(
                    "registry key {:?} ({}) is never referenced outside the registry — dead \
                     entry; wire it up or delete it",
                    e.key,
                    e.category.to_lowercase()
                ),
                (_, 0) => format!(
                    "registry key {:?} ({}) is emitted but never consumed — dead telemetry; \
                     add a checker/report consumer or delete the key",
                    e.key,
                    e.category.to_lowercase()
                ),
                (0, _) => format!(
                    "registry key {:?} ({}) is consumed but never emitted — its checks are \
                     vacuous; wire up the emit site or delete the key",
                    e.key,
                    e.category.to_lowercase()
                ),
                _ => continue,
            };
            out.push(Finding {
                rule: rule.id.to_string(),
                name: rule.name.to_string(),
                severity: rule.severity,
                file: reg_file.rel_path.clone(),
                line: e.line,
                col: e.col,
                module: reg_file.module.clone(),
                feature: None,
                message,
                suppressed: false,
                reason: None,
            });
        }
    }
}

/// An unsuppressed `rule` finding in `f`, anchored at token `t`.
pub(crate) fn finding_at(rule: &'static Rule, f: &FileModel, t: &Tok, message: String) -> Finding {
    Finding {
        rule: rule.id.to_string(),
        name: rule.name.to_string(),
        severity: rule.severity,
        file: f.rel_path.clone(),
        line: t.line,
        col: t.col,
        module: f.module.clone(),
        feature: None,
        message,
        suppressed: false,
        reason: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::lex;

    #[test]
    fn registry_rows_parse_and_shapes_classify() {
        let (toks, _) = lex("obs_keys! { Metric SIM_EVENTS = \"sim.events\";\n\
             Obs FD_SUSPECTS = \"fd.suspects\";\n\
             Kind HB_ALIVE = \"hb.alive\"; }\n\
             fn label() { match c { KeyCategory::Metric => \"metric\", _ => \"x\" } }");
        let reg = parse_registry(&toks);
        let rows: Vec<(&str, &str, &str)> = reg
            .iter()
            .map(|e| (e.const_name.as_str(), e.key.as_str(), e.category.as_str()))
            .collect();
        assert_eq!(
            rows,
            vec![
                ("SIM_EVENTS", "sim.events", "Metric"),
                ("FD_SUSPECTS", "fd.suspects", "Obs"),
                ("HB_ALIVE", "hb.alive", "Kind"),
            ],
            "match arms and prose must not parse as rows"
        );
        assert!(is_key_shape("fd.weak_completness"));
        assert!(is_key_shape("rt.p3.send_ns"));
        // File names are key-shaped; the namespace gate is what keeps
        // "metrics.jsonl" out of OBS001 — `metrics` is not registered.
        assert!(is_key_shape("metrics.jsonl"));
        assert!(!is_key_shape("fd."), "empty segment");
        assert!(!is_key_shape("fd"), "single segment");
        assert!(!is_key_shape("Fd.suspects"), "uppercase head");
        assert!(!is_key_shape("fd.sus-pects"), "hyphen");
    }

    #[test]
    fn edit_distance_finds_the_dropped_letter() {
        assert_eq!(
            edit_distance("fd.weak_completness", "fd.weak_completeness"),
            1
        );
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("same", "same"), 0);
    }
}

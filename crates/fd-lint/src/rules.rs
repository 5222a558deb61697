//! The rule registry and per-rule checks.
//!
//! Every rule encodes one clause of the determinism / hygiene policy
//! written down in `DESIGN.md` §"Determinism contract" and tabulated in
//! `crates/fd-lint/RULES.md`. Rules are deliberately conservative,
//! line-level pattern matchers: they know `use` renames, `cfg(test)`
//! scopes, and which identifiers were declared with unordered container
//! types, but they do not type-check. False positives are handled with a
//! reasoned `// fd-lint: allow(ID, reason = "…")` at the site.

use crate::report::{Finding, Severity};
use crate::scan::{Scopes, UseMap};
use crate::tokens::{Tok, TokKind};
use std::collections::BTreeSet;

/// A rule's registry entry.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable identifier (`ND001`, `UH002`, …).
    pub id: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// One-line description for reports and `RULES.md`.
    pub summary: &'static str,
}

/// Every rule the engine knows, in report order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "ND001",
        name: "hashmap-iter-in-sim-code",
        severity: Severity::Deny,
        summary: "iteration over an unordered HashMap/HashSet in deterministic simulation code",
    },
    Rule {
        id: "ND002",
        name: "wall-clock",
        severity: Severity::Deny,
        summary: "wall-clock time (Instant::now/SystemTime) outside fd-obs",
    },
    Rule {
        id: "ND003",
        name: "ambient-rng",
        severity: Severity::Deny,
        summary: "ambient randomness (thread_rng/rand::random/OsRng) — all randomness must flow from the seeded World RNG",
    },
    Rule {
        id: "ND004",
        name: "unordered-float-key",
        severity: Severity::Deny,
        summary: "floating-point type used as a map/set key",
    },
    Rule {
        id: "ND005",
        name: "rc-pointer-identity",
        severity: Severity::Deny,
        summary: "Rc/Arc or raw pointer used as a map/set key, or pointer-identity hashing",
    },
    Rule {
        id: "UH001",
        name: "unsafe-code",
        severity: Severity::Deny,
        summary: "unsafe code anywhere in the workspace",
    },
    Rule {
        id: "UH002",
        name: "unwrap-in-kernel-hot-path",
        severity: Severity::Warn,
        summary: "unwrap/expect in the kernel hot path (fd-sim world/event)",
    },
    Rule {
        id: "UH003",
        name: "pub-item-missing-docs",
        severity: Severity::Warn,
        summary: "public item without a doc comment on the fd-core/fd-sim API surface",
    },
    Rule {
        id: "HP001",
        name: "panic-reachable-from-hot-path",
        severity: Severity::Deny,
        summary: "unwrap/expect/panicking macro/slice index transitively reachable from a `// fd-lint: hot_path` root",
    },
    Rule {
        id: "HP002",
        name: "alloc-reachable-from-hot-path",
        severity: Severity::Warn,
        summary: "clone/format!/collect/unreserved Vec growth transitively reachable from a `// fd-lint: hot_path` root",
    },
    Rule {
        id: "OBS001",
        name: "unregistered-obs-key",
        severity: Severity::Deny,
        summary: "raw or typo'd observation-key literal; keys come from the fd-obs registry",
    },
    Rule {
        id: "OBS002",
        name: "obs-key-drift",
        severity: Severity::Warn,
        summary: "registered Metric/Obs key with no emitter or no consumer anywhere in the workspace",
    },
    Rule {
        id: "MSG001",
        name: "silent-wildcard-message-drop",
        severity: Severity::Deny,
        summary: "empty wildcard arm (`_ => {}`) in a protocol-message receive match",
    },
    Rule {
        id: "API001",
        name: "orphan-module",
        severity: Severity::Warn,
        summary: "no top-level pub item of the file is named in any other file's non-test code",
    },
    Rule {
        id: "SUP001",
        name: "invalid-suppression",
        severity: Severity::Deny,
        summary: "fd-lint allow directive without a reason, or naming an unknown rule",
    },
];

/// Look a rule up by ID.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// The crates whose non-test code runs inside a deterministic `World`
/// and therefore must not observe unordered iteration.
const DET_CRATES: &[&str] = &[
    "fd-sim",
    "fd-consensus",
    "fd-detectors",
    "fd-broadcast",
    "fd-chaos",
    "fd-kv",
    "fd-mc",
];

/// Crates allowed to read the wall clock: the observability layer owns
/// it (it is outside the byte-identical-replay boundary; so is the
/// `benchmark/` package, which is not part of the linted workspace).
const WALL_CLOCK_EXEMPT: &[&str] = &["fd-obs"];

/// The kernel hot path: files where a panic costs every in-flight
/// campaign seed, so `unwrap`/`expect` need an explicit invariant.
const HOT_PATH_FILES: &[&str] = &["crates/fd-sim/src/world.rs", "crates/fd-sim/src/event.rs"];

/// Crates whose public API surface the docs rule covers.
const DOCS_CRATES: &[&str] = &["fd-core", "fd-sim"];

/// Files where UH003 escalates from warn to deny: every public knob in
/// the link and topology modules is an adversary knob of the chaos
/// layer, so its doc line is part of the fault-injection contract
/// (`crates/fd-chaos/CATALOG.md`), not just API hygiene.
const UH003_DENY_FILES: &[&str] = &["crates/fd-sim/src/link.rs", "crates/fd-sim/src/topology.rs"];

/// Methods that observe a container's iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Unordered containers (ND001) and all keyed containers (ND004/ND005).
pub(crate) const UNORDERED: &[&str] = &["HashMap", "HashSet"];
const KEYED: &[&str] = &["HashMap", "HashSet", "BTreeMap", "BTreeSet"];

/// Everything the rule checks need to know about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path with `/` separators.
    pub rel_path: &'a str,
    /// Crate the file belongs to (`fd-sim`, `ecfd`, …).
    pub crate_name: &'a str,
    /// Module path derived from the file location (`fd_sim::event`).
    pub module: &'a str,
    /// Whole file is test/bench/example code (by directory).
    pub path_is_test: bool,
    /// Token stream.
    pub toks: &'a [Tok],
    /// `use`-rename resolution.
    pub uses: &'a UseMap,
    /// `cfg(test)` / feature item scopes.
    pub scopes: &'a Scopes,
    /// Identifiers declared with HashMap/HashSet types in this file.
    pub tracked_unordered: &'a [String],
    /// Source lines that sit directly below the end of a doc comment —
    /// an item whose head is on one of these lines is documented.
    pub doc_lines: &'a BTreeSet<u32>,
    /// Extracted fn definitions (owner, body extent, hot-path marker).
    pub items: &'a [crate::items::FnDef],
}

impl FileCtx<'_> {
    fn is_test_at(&self, idx: usize) -> bool {
        self.path_is_test || self.scopes.in_test(idx)
    }

    fn finding(&self, rule: &'static Rule, idx: usize, message: String) -> Finding {
        let t = &self.toks[idx];
        Finding {
            rule: rule.id.to_string(),
            name: rule.name.to_string(),
            severity: rule.severity,
            file: self.rel_path.to_string(),
            line: t.line,
            col: t.col,
            module: self.module.to_string(),
            feature: self.scopes.feature_at(idx).map(str::to_string),
            message,
            suppressed: false,
            reason: None,
        }
    }
}

/// Run every rule in `active` over one file.
pub fn run_rules(ctx: &FileCtx<'_>, active: &[&'static Rule]) -> Vec<Finding> {
    let mut out = Vec::new();
    for rule in active {
        match rule.id {
            "ND001" => nd001(ctx, rule, &mut out),
            "ND002" => nd002(ctx, rule, &mut out),
            "ND003" => nd003(ctx, rule, &mut out),
            "ND004" => nd004(ctx, rule, &mut out),
            "ND005" => nd005(ctx, rule, &mut out),
            "UH001" => uh001(ctx, rule, &mut out),
            "UH002" => uh002(ctx, rule, &mut out),
            "UH003" => uh003(ctx, rule, &mut out),
            "MSG001" => msg001(ctx, rule, &mut out),
            // SUP001 is emitted by the suppression pass; HP001/HP002,
            // OBS001/OBS002 and API001 run in the cross-file phase
            // (graph / obskeys / orphan).
            _ => {}
        }
    }
    out
}

/// MSG001 — an empty wildcard arm in a match over a protocol message
/// enum silently drops messages. PR 6's round-wedge bug was exactly
/// this: a `_ => {}` in a receive path ate a retransmitted announcement
/// and the instance wedged. A match is a *receive path* when its body
/// names a `*Msg` enum variant path, or when it sits inside an
/// `on_message` fn. `_ => None` and other value-producing wildcards are
/// fine — they make the drop visible to the caller.
fn msg001(ctx: &FileCtx<'_>, rule: &'static Rule, out: &mut Vec<Finding>) {
    if !DET_CRATES.contains(&ctx.crate_name) {
        return;
    }
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if !toks[i].is_ident("match") || ctx.is_test_at(i) {
            continue;
        }
        let Some(open) = crate::items::body_open(toks, i + 1) else {
            continue;
        };
        let close = crate::items::matching_brace(toks, open).min(toks.len());
        let in_on_message =
            crate::items::enclosing_fn(ctx.items, i).is_some_and(|f| f.name == "on_message");
        let names_msg_enum = (open..close).any(|k| {
            toks[k].kind == TokKind::Ident
                && toks[k].text.ends_with("Msg")
                && toks.get(k + 1).is_some_and(|n| n.is_punct(':'))
                && toks.get(k + 2).is_some_and(|n| n.is_punct(':'))
        });
        if !in_on_message && !names_msg_enum {
            continue;
        }
        let mut depth = 0i64;
        for j in open..close {
            let t = &toks[j];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
            } else if depth == 1
                && t.is_ident("_")
                && toks.get(j + 1).is_some_and(|n| n.is_punct('='))
                && toks.get(j + 2).is_some_and(|n| n.is_punct('>'))
            {
                let empty_block = toks.get(j + 3).is_some_and(|n| n.is_punct('{'))
                    && toks.get(j + 4).is_some_and(|n| n.is_punct('}'));
                let unit = toks.get(j + 3).is_some_and(|n| n.is_punct('('))
                    && toks.get(j + 4).is_some_and(|n| n.is_punct(')'));
                if empty_block || unit {
                    out.push(
                        ctx.finding(
                            rule,
                            j,
                            "empty wildcard arm in a protocol-message match silently drops \
                         messages (the PR 6 round-wedge failure mode); enumerate the \
                         remaining variants explicitly, or allow with the reason the drop \
                         is correct"
                                .to_string(),
                        ),
                    );
                }
            }
        }
    }
}

/// ND001 — iteration over HashMap/HashSet in deterministic crates.
fn nd001(ctx: &FileCtx<'_>, rule: &'static Rule, out: &mut Vec<Finding>) {
    if !DET_CRATES.contains(&ctx.crate_name) {
        return;
    }
    let tracked = |name: &str| ctx.tracked_unordered.iter().any(|t| t == name);
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.is_test_at(i) {
            continue;
        }
        let t = &toks[i];
        // `recv.iter()` / `self.recv.retain(…)` — method observing order.
        if t.kind == TokKind::Ident
            && ITER_METHODS.contains(&t.text.as_str())
            && i >= 2
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            let recv = &toks[i - 2];
            if recv.kind == TokKind::Ident && tracked(&recv.text) {
                out.push(ctx.finding(
                    rule,
                    i,
                    format!(
                        "`{}.{}()` observes unordered iteration ({} is a HashMap/HashSet); \
                         switch to BTreeMap/BTreeSet or iterate over sorted keys",
                        recv.text, t.text, recv.text
                    ),
                ));
            }
        }
        // `for x in &map {` / `for x in map {`.
        if t.is_ident("in") && i >= 1 {
            let preceded_by_for = toks[..i].iter().rev().take(8).any(|p| p.is_ident("for"));
            if !preceded_by_for {
                continue;
            }
            let mut j = i + 1;
            while toks
                .get(j)
                .is_some_and(|n| n.is_punct('&') || n.is_ident("mut"))
            {
                j += 1;
            }
            if toks.get(j).is_some_and(|n| n.is_ident("self"))
                && toks.get(j + 1).is_some_and(|n| n.is_punct('.'))
            {
                j += 2;
            }
            let (Some(name), Some(next)) = (toks.get(j), toks.get(j + 1)) else {
                continue;
            };
            if name.kind == TokKind::Ident && tracked(&name.text) && next.is_punct('{') {
                out.push(ctx.finding(
                    rule,
                    j,
                    format!(
                        "`for … in {}` iterates a HashMap/HashSet in unordered order",
                        name.text
                    ),
                ));
            }
        }
    }
}

/// ND002 — wall-clock reads outside fd-obs.
fn nd002(ctx: &FileCtx<'_>, rule: &'static Rule, out: &mut Vec<Finding>) {
    if WALL_CLOCK_EXEMPT.contains(&ctx.crate_name) {
        return;
    }
    let toks = ctx.toks;
    let in_use = crate::scan::use_stmt_mask(toks);
    for i in 0..toks.len() {
        if ctx.is_test_at(i) || in_use[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let canonical = ctx.uses.canonical(&t.text);
        if canonical == "Instant"
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 3).is_some_and(|n| n.is_ident("now"))
        {
            out.push(
                ctx.finding(
                    rule,
                    i,
                    "`Instant::now()` reads the wall clock; simulated components must use \
                 `ctx.now()` (wall-clock observability lives in fd-obs)"
                        .to_string(),
                ),
            );
        }
        if canonical == "SystemTime"
            && !toks.get(i.wrapping_sub(1)).is_some_and(|p| p.is_punct('.'))
        {
            out.push(
                ctx.finding(
                    rule,
                    i,
                    "`SystemTime` is wall-clock time; deterministic code must derive time from \
                 the simulated clock"
                        .to_string(),
                ),
            );
        }
    }
}

/// ND003 — ambient randomness anywhere (tests included: a test that
/// draws from process entropy cannot be replayed from its seed).
fn nd003(ctx: &FileCtx<'_>, rule: &'static Rule, out: &mut Vec<Finding>) {
    const BANNED: &[&str] = &["thread_rng", "from_entropy", "OsRng", "getrandom"];
    let toks = ctx.toks;
    let in_use = crate::scan::use_stmt_mask(toks);
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || in_use[i] {
            continue;
        }
        let canonical = ctx.uses.canonical(&t.text);
        if BANNED.contains(&canonical) {
            out.push(ctx.finding(
                rule,
                i,
                format!(
                    "`{}` draws ambient randomness; all randomness must flow from the \
                     seeded World RNG streams",
                    t.text
                ),
            ));
        }
        // `rand::random` (path form; a renamed bare `random` cannot be
        // distinguished from a local fn without type info).
        if t.is_ident("rand")
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 3).is_some_and(|n| n.is_ident("random"))
        {
            out.push(ctx.finding(
                rule,
                i,
                "`rand::random()` draws from the ambient thread RNG".to_string(),
            ));
        }
    }
}

/// Scan the first generic argument after `Name<`, returning its token
/// indices (stops at the matching `,` or `>` at angle depth 0).
fn first_generic_arg(toks: &[Tok], open_idx: usize) -> Vec<usize> {
    let mut depth = 1i64;
    let mut i = open_idx + 1;
    let mut arg = Vec::new();
    while i < toks.len() && depth > 0 {
        let t = &toks[i];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.is_punct(',') && depth == 1 {
            break;
        } else if t.is_punct(';') || t.is_punct('{') {
            break; // not a generic argument list after all
        }
        arg.push(i);
        i += 1;
    }
    arg
}

/// ND004 — float-typed keys in keyed containers.
fn nd004(ctx: &FileCtx<'_>, rule: &'static Rule, out: &mut Vec<Finding>) {
    if !DET_CRATES.contains(&ctx.crate_name) && ctx.crate_name != "fd-core" {
        return;
    }
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.is_test_at(i) {
            continue;
        }
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && KEYED.contains(&ctx.uses.canonical(&t.text))
            && toks.get(i + 1).is_some_and(|n| n.is_punct('<'))
        {
            let key = first_generic_arg(toks, i + 1);
            if key
                .iter()
                .any(|&k| toks[k].is_ident("f32") || toks[k].is_ident("f64"))
            {
                out.push(ctx.finding(
                    rule,
                    i,
                    format!(
                        "`{}` keyed by a floating-point type: NaN breaks Eq/Ord and rounding \
                         makes key identity platform-sensitive",
                        t.text
                    ),
                ));
            }
        }
    }
}

/// ND005 — pointer-identity keys (Rc/Arc/raw pointers) and pointer
/// hashing.
fn nd005(ctx: &FileCtx<'_>, rule: &'static Rule, out: &mut Vec<Finding>) {
    if !DET_CRATES.contains(&ctx.crate_name) && ctx.crate_name != "fd-core" {
        return;
    }
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.is_test_at(i) {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let canonical = ctx.uses.canonical(&t.text);
        if KEYED.contains(&canonical) && toks.get(i + 1).is_some_and(|n| n.is_punct('<')) {
            let key = first_generic_arg(toks, i + 1);
            let key_head = key.iter().find(|&&k| toks[k].kind == TokKind::Ident);
            let raw_ptr = key.first().is_some_and(|&k| toks[k].is_punct('*'));
            if raw_ptr
                || key_head.is_some_and(|&k| {
                    let h = ctx.uses.canonical(&toks[k].text);
                    h == "Rc" || h == "Arc"
                })
            {
                out.push(ctx.finding(
                    rule,
                    i,
                    format!(
                        "`{}` keyed by Rc/Arc/raw pointer: allocation addresses differ \
                         across runs, so any order or hash derived from them is \
                         nondeterministic",
                        t.text
                    ),
                ));
            }
        }
        // `Rc::as_ptr` / `Arc::as_ptr` / `ptr::hash`.
        if (canonical == "Rc" || canonical == "Arc" || t.is_ident("ptr"))
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && toks
                .get(i + 3)
                .is_some_and(|n| n.is_ident("as_ptr") || n.is_ident("hash"))
        {
            out.push(ctx.finding(
                rule,
                i,
                format!(
                    "`{}::{}` exposes an allocation address; deriving order or hashes from \
                     it is nondeterministic across runs",
                    t.text,
                    toks[i + 3].text
                ),
            ));
        }
    }
}

/// UH001 — `unsafe` anywhere (tests included).
fn uh001(ctx: &FileCtx<'_>, rule: &'static Rule, out: &mut Vec<Finding>) {
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.is_ident("unsafe") {
            out.push(
                ctx.finding(
                    rule,
                    i,
                    "`unsafe` in a workspace where every crate carries #![forbid(unsafe_code)]"
                        .to_string(),
                ),
            );
        }
    }
}

/// UH002 — unwrap/expect in the kernel hot path.
fn uh002(ctx: &FileCtx<'_>, rule: &'static Rule, out: &mut Vec<Finding>) {
    if !HOT_PATH_FILES.contains(&ctx.rel_path) {
        return;
    }
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.is_test_at(i) {
            continue;
        }
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && i >= 1
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            out.push(ctx.finding(
                rule,
                i,
                format!(
                    "`.{}()` in the kernel hot path: a panic here aborts every in-flight \
                     campaign seed; restructure to make the invariant local, or allow with \
                     the invariant as the reason",
                    t.text
                ),
            ));
        }
    }
}

/// UH003 — public item without a doc comment (fd-core/fd-sim only;
/// double-anchors rustc's `missing_docs`, which both crates deny).
fn uh003(ctx: &FileCtx<'_>, rule: &'static Rule, out: &mut Vec<Finding>) {
    if !DOCS_CRATES.contains(&ctx.crate_name) {
        return;
    }
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.is_test_at(i) {
            continue;
        }
        let t = &toks[i];
        if !t.is_ident("pub") {
            continue;
        }
        // Item position: preceded by a block/item boundary (or file start).
        let boundary = match toks[..i].last() {
            None => true,
            Some(p) => {
                p.is_punct('{')
                    || p.is_punct('}')
                    || p.is_punct(';')
                    || p.is_punct(']')
                    || p.is_punct(',')
            }
        };
        if !boundary {
            continue;
        }
        // Restricted visibility is not public API.
        if toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        // What kind of item? Only flag API-surface kinds; `pub use`
        // re-exports and `pub mod` declarations document elsewhere.
        let Some(next) = toks.get(i + 1) else {
            continue;
        };
        let is_item_kw = matches!(
            next.text.as_str(),
            "fn" | "struct" | "enum" | "trait" | "type" | "const" | "static" | "union"
        );
        let is_field = next.kind == TokKind::Ident
            && !is_item_kw
            && next.text != "use"
            && next.text != "mod"
            && next.text != "impl"
            && next.text != "unsafe"
            && next.text != "async"
            && toks.get(i + 2).is_some_and(|n| n.is_punct(':'));
        if !is_item_kw && !is_field {
            continue;
        }
        if ctx.doc_lines.contains(&head_line(ctx, i)) {
            continue;
        }
        let mut f = ctx.finding(
            rule,
            i,
            format!(
                "public {} without a doc comment on the {} API surface",
                if is_field {
                    "field"
                } else {
                    next.text.as_str()
                },
                ctx.crate_name
            ),
        );
        if UH003_DENY_FILES.contains(&ctx.rel_path) {
            f.severity = Severity::Deny;
            f.message.push_str(
                " (deny in this file: link/topology knobs are the chaos layer's \
                 documented adversary surface)",
            );
        }
        out.push(f);
    }
}

/// The source line where the item's attribute block starts (the line a
/// doc comment must end just above).
fn head_line(ctx: &FileCtx<'_>, pub_idx: usize) -> u32 {
    let toks = ctx.toks;
    let mut start = pub_idx;
    // Walk back over attached attributes: `… # [ … ] pub`.
    loop {
        if start == 0 {
            break;
        }
        let prev = &toks[start - 1];
        if !prev.is_punct(']') {
            break;
        }
        // Find the '[' matching this ']'.
        let mut depth = 0i64;
        let mut j = start - 1;
        loop {
            if toks[j].is_punct(']') {
                depth += 1;
            } else if toks[j].is_punct('[') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if j == 0 {
                break;
            }
            j -= 1;
        }
        if j >= 1 && toks[j - 1].is_punct('#') {
            start = j - 1;
        } else {
            break;
        }
    }
    toks[start].line
}

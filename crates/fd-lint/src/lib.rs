//! # fd-lint — workspace determinism analyzer
//!
//! Statically enforces the simulator's byte-identical-replay contract.
//! Every result this workspace produces (campaign sweeps, golden
//! wheel-vs-classic digests, artifact→replay→shrink) rests on one
//! property: *the same seed replays the same bytes*. PR 1–3 enforce that
//! dynamically, with trace digests — which catch a nondeterminism bug
//! only after a seed happens to trip it. This crate brings the contract
//! forward to build time: a dependency-light, token/line-level scanner
//! (no `syn`; it must build offline against the vendored shims) that
//! walks the whole workspace and flags the hazard patterns that break
//! replay — unordered iteration, wall-clock reads, ambient randomness,
//! pointer-identity keys — plus the hygiene rules (`unsafe`, hot-path
//! unwraps, undocumented public API) the burn-down anchored.
//!
//! The scanner is *not* a type checker. It knows `use` renames,
//! `#[cfg(test)]` and `#[cfg(feature = …)]` item scopes, module paths,
//! and which identifiers were declared with unordered container types in
//! the same file; it does not resolve types across files. The policy for
//! false positives is a per-site suppression that **requires a reason**:
//!
//! ```text
//! // fd-lint: allow(ND001, reason = "u64 sum — iteration order cannot affect the result")
//! let total: u64 = self.sent_by_kind.values().sum();
//! ```
//!
//! A reasonless allow is itself an error (`SUP001`). The rule table
//! lives in `crates/fd-lint/RULES.md`; the policy it encodes is
//! `DESIGN.md` §"Determinism contract".
//!
//! Run it as `ecfd lint [--format json] [--deny-warnings] [--rule ID]`,
//! or use [`lint_workspace`] / [`lint_source`] as a library (the engine
//! tests and the CI job do both).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
mod items;
mod obskeys;
mod orphan;
mod report;
mod rules;
mod scan;
mod tokens;

pub use report::{Finding, Report, Severity};
pub use rules::{rule_by_id, Rule, RULES};

use rules::FileCtx;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// One in-memory source file handed to [`analyze_sources`].
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (decides crate,
    /// module, and test classification).
    pub rel_path: String,
    /// File contents.
    pub src: String,
}

/// Everything the per-file and cross-file phases know about one file.
pub(crate) struct FileModel {
    pub(crate) rel_path: String,
    pub(crate) crate_name: String,
    pub(crate) module: String,
    pub(crate) path_is_test: bool,
    pub(crate) toks: Vec<tokens::Tok>,
    pub(crate) uses: scan::UseMap,
    pub(crate) scopes: scan::Scopes,
    pub(crate) tracked: Vec<String>,
    pub(crate) doc_lines: BTreeSet<u32>,
    pub(crate) suppressions: Vec<scan::Suppression>,
    pub(crate) items: Vec<items::FnDef>,
}

impl FileModel {
    fn build(file: &SourceFile) -> FileModel {
        let (toks, comments) = tokens::lex(&file.src);
        let uses = scan::UseMap::from_tokens(&toks);
        let scopes = scan::find_scopes(&toks);
        let tracked = scan::tracked_idents(&toks, &uses, rules::UNORDERED);

        // Lines holding at least one token, for attaching own-line
        // allows and hot-path markers.
        let mut code_lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        code_lines.dedup();
        let suppressions = scan::find_suppressions(&comments, &code_lines);

        // Lines directly below the end of a doc comment. Own-line
        // `fd-lint:` marker/allow comments are transparent: a
        // `// fd-lint: hot_path` between the doc block and the fn must
        // not make UH003 think the fn is undocumented.
        let marker_lines: BTreeSet<u32> = comments
            .iter()
            .filter(|c| {
                c.own_line
                    && c.text
                        .trim_start_matches('/')
                        .trim_start_matches('*')
                        .trim_start()
                        .starts_with("fd-lint:")
            })
            .map(|c| c.line)
            .collect();
        let mut doc_lines: BTreeSet<u32> = BTreeSet::new();
        for c in comments.iter().filter(|c| c.doc) {
            let end = c.line + c.text.matches('\n').count() as u32;
            let mut below = end + 1;
            while marker_lines.contains(&below) {
                below += 1;
            }
            doc_lines.insert(below);
        }

        let path_is_test = path_is_test(&file.rel_path);
        let hot_lines = items::hot_marker_lines(&comments, &code_lines);
        let in_test = |idx: usize| path_is_test || scopes.in_test(idx);
        let items = items::extract_fns(&toks, &in_test, &hot_lines);

        FileModel {
            rel_path: file.rel_path.clone(),
            crate_name: crate_of(&file.rel_path),
            module: module_of(&file.rel_path),
            path_is_test,
            toks,
            uses,
            scopes,
            tracked,
            doc_lines,
            suppressions,
            items,
        }
    }
}

/// Engine options.
#[derive(Debug, Default, Clone)]
pub struct Options {
    /// Restrict the run to these rule IDs (must exist in [`RULES`]).
    /// Empty means all rules. `SUP001` always runs: suppression hygiene
    /// is not optional.
    pub rules: Vec<String>,
}

/// Lint error (I/O, bad configuration). Maps to exit code 2.
#[derive(Debug)]
pub struct LintError(pub String);

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for LintError {}

/// Validate a `--rule` filter against the registry; the error lists the
/// valid IDs.
pub fn validate_rule_ids(ids: &[String]) -> Result<(), LintError> {
    for id in ids {
        if rule_by_id(id).is_none() {
            let valid: Vec<&str> = RULES.iter().map(|r| r.id).collect();
            return Err(LintError(format!(
                "unknown rule ID {id:?} (valid: {})",
                valid.join(", ")
            )));
        }
    }
    Ok(())
}

/// The active rule set for the given options.
fn active_rules(opts: &Options) -> Vec<&'static Rule> {
    if opts.rules.is_empty() {
        RULES.iter().collect()
    } else {
        RULES
            .iter()
            .filter(|r| r.id == "SUP001" || opts.rules.iter().any(|id| id == r.id))
            .collect()
    }
}

/// Lint one source file given its workspace-relative path. Public so the
/// engine tests (and the seeded-hazard acceptance check) can lint
/// in-memory sources without a file tree. Cross-file rules run over the
/// single-file "workspace": hot-path reachability works if the file
/// carries its own markers; the obs-key rules are quiet unless the file
/// *is* the registry (pass the registry alongside via
/// [`analyze_sources`] to exercise them).
pub fn lint_source(rel_path: &str, src: &str, opts: &Options) -> Vec<Finding> {
    analyze_sources(
        &[SourceFile {
            rel_path: rel_path.to_string(),
            src: src.to_string(),
        }],
        opts,
    )
    .findings
}

/// Analyze a set of in-memory sources as one workspace: per-file rules,
/// then the cross-file phase (hot-path reachability over the call
/// graph, obs-key registry consistency, orphan modules), then the
/// suppression pass. Files under `benchmark/` are read as call sites by
/// the orphan rule and otherwise ignored — the package is outside the
/// linted workspace (it owns the wall clock).
/// This is the whole engine; [`lint_workspace`] is a directory walk in
/// front of it.
pub fn analyze_sources(files: &[SourceFile], opts: &Options) -> Report {
    let build = |callers: bool| -> Vec<FileModel> {
        let wanted = files.iter().filter(|f| caller_only(&f.rel_path) == callers);
        wanted.map(FileModel::build).collect()
    };
    let (models, callers) = (build(false), build(true));
    let active = active_rules(opts);
    let mut findings = Vec::new();

    // Phase 1: per-file rules.
    for m in &models {
        let ctx = FileCtx {
            rel_path: &m.rel_path,
            crate_name: &m.crate_name,
            module: &m.module,
            path_is_test: m.path_is_test,
            toks: &m.toks,
            uses: &m.uses,
            scopes: &m.scopes,
            tracked_unordered: &m.tracked,
            doc_lines: &m.doc_lines,
            items: &m.items,
        };
        findings.extend(rules::run_rules(&ctx, &active));
    }

    // Phase 2: cross-file rules.
    let by_id = |id: &str| active.iter().find(|r| r.id == id).copied();
    let (hp001, hp002) = (by_id("HP001"), by_id("HP002"));
    if hp001.is_some() || hp002.is_some() {
        let gfiles: Vec<graph::GraphFile<'_>> = models
            .iter()
            .map(|m| graph::GraphFile {
                rel_path: &m.rel_path,
                crate_name: &m.crate_name,
                toks: &m.toks,
                fns: &m.items,
            })
            .collect();
        let modules: Vec<String> = models.iter().map(|m| m.module.clone()).collect();
        let is_test_at =
            |fi: usize, idx: usize| models[fi].path_is_test || models[fi].scopes.in_test(idx);
        let ctx = graph::HotCtx {
            files: &gfiles,
            modules: &modules,
            is_test_at: &is_test_at,
        };
        graph::run_hot_path_rules(&ctx, hp001, hp002, &mut findings);
    }
    let (obs001, obs002) = (by_id("OBS001"), by_id("OBS002"));
    if obs001.is_some() || obs002.is_some() {
        obskeys::run_obs_rules(&models, obs001, obs002, &mut findings);
    }
    if let Some(api001) = by_id("API001") {
        orphan::run_orphan_rule(&models, &callers, api001, &mut findings);
    }

    // Phase 3: suppressions. A reasoned allow naming the rule silences
    // the finding (matched through the finding's own file, so cross-file
    // rules are suppressed where they anchor); a reasonless or
    // unknown-rule allow is itself an error.
    let sup_rule = rule_by_id("SUP001").expect("SUP001 is registered");
    let mut sup_findings = Vec::new();
    for m in &models {
        for sup in &m.suppressions {
            if sup.reason.is_none() {
                sup_findings.push(Finding {
                    rule: sup_rule.id.to_string(),
                    name: sup_rule.name.to_string(),
                    severity: sup_rule.severity,
                    file: m.rel_path.clone(),
                    line: sup.line,
                    col: sup.col,
                    module: m.module.clone(),
                    feature: None,
                    message: format!(
                        "fd-lint allow({}) without a reason: every suppression must carry \
                         `reason = \"…\"` explaining why the site is safe",
                        sup.rules.join(", ")
                    ),
                    suppressed: false,
                    reason: None,
                });
            }
            for r in &sup.rules {
                if rule_by_id(r).is_none() {
                    sup_findings.push(Finding {
                        rule: sup_rule.id.to_string(),
                        name: sup_rule.name.to_string(),
                        severity: sup_rule.severity,
                        file: m.rel_path.clone(),
                        line: sup.line,
                        col: sup.col,
                        module: m.module.clone(),
                        feature: None,
                        message: format!(
                            "fd-lint allow names unknown rule {r:?} (valid: {})",
                            RULES.iter().map(|r| r.id).collect::<Vec<_>>().join(", ")
                        ),
                        suppressed: false,
                        reason: None,
                    });
                }
            }
        }
    }
    let mut used: Vec<Vec<bool>> = models
        .iter()
        .map(|m| vec![false; m.suppressions.len()])
        .collect();
    for f in &mut findings {
        let Some(mi) = models.iter().position(|m| m.rel_path == f.file) else {
            continue;
        };
        if let Some((si, sup)) = models[mi].suppressions.iter().enumerate().find(|(_, s)| {
            s.target_line == f.line && s.reason.is_some() && s.rules.contains(&f.rule)
        }) {
            f.suppressed = true;
            f.reason = sup.reason.clone();
            used[mi][si] = true;
        }
    }
    // A reasoned allow that silenced nothing is stale — the hazard it
    // excused was removed, or it sits in the wrong file (cross-file
    // findings anchor at the sink, not the hot-path root). Only checked
    // when one of its named rules actually ran, so `--rule` subsets
    // don't misreport allows for the rules left out.
    for (mi, m) in models.iter().enumerate() {
        for (si, sup) in m.suppressions.iter().enumerate() {
            if used[mi][si]
                || sup.reason.is_none()
                || !sup.rules.iter().any(|r| active.iter().any(|a| a.id == r))
            {
                continue;
            }
            sup_findings.push(Finding {
                rule: sup_rule.id.to_string(),
                name: sup_rule.name.to_string(),
                severity: sup_rule.severity,
                file: m.rel_path.clone(),
                line: sup.line,
                col: sup.col,
                module: m.module.clone(),
                feature: None,
                message: format!(
                    "fd-lint allow({}) suppresses nothing on its target line \
                     (line {}); remove the stale allow or move it to the line \
                     the finding anchors on",
                    sup.rules.join(", "),
                    sup.target_line
                ),
                suppressed: false,
                reason: None,
            });
        }
    }
    findings.extend(sup_findings);
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.col,
            b.rule.as_str(),
        ))
    });
    Report {
        findings,
        rules_run: active.iter().map(|r| r.id.to_string()).collect(),
        files_scanned: models.len(),
    }
}

/// Lint every first-party `.rs` file under `root` (a workspace
/// checkout). Scans `crates/`, `src/`, `tests/`, and `examples/`, plus
/// `benchmark/src` as API001 call sites only; skips `target/` and the
/// vendored `shims/` (third-party API subsets, anchored by their own
/// `#![forbid(unsafe_code)]`).
pub fn lint_workspace(root: &Path, opts: &Options) -> Result<Report, LintError> {
    validate_rule_ids(&opts.rules)?;
    let sources = collect_sources(root)?;
    Ok(analyze_sources(&sources, opts))
}

/// Output format of the call-graph dump (`ecfd lint --graph-out`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphFormat {
    /// Version-pinned JSON (`{"version":1,"nodes":[…],"edges":[…]}`).
    Json,
    /// Graphviz DOT (hot-path roots filled, test fns dashed).
    Dot,
}

/// Serialize the workspace call graph the HP rules reason over — the
/// artifact CI uploads when a hot-path finding fails a build, so the
/// offending `root → … → sink` chain can be inspected without rerunning.
pub fn dump_graph(root: &Path, format: GraphFormat) -> Result<String, LintError> {
    let sources = collect_sources(root)?;
    Ok(dump_graph_sources(&sources, format))
}

/// [`dump_graph`] over in-memory sources (engine tests).
pub fn dump_graph_sources(files: &[SourceFile], format: GraphFormat) -> String {
    let models: Vec<FileModel> = files
        .iter()
        .filter(|f| !caller_only(&f.rel_path))
        .map(FileModel::build)
        .collect();
    let gfiles: Vec<graph::GraphFile<'_>> = models
        .iter()
        .map(|m| graph::GraphFile {
            rel_path: &m.rel_path,
            crate_name: &m.crate_name,
            toks: &m.toks,
            fns: &m.items,
        })
        .collect();
    let g = graph::CallGraph::build(&gfiles);
    match format {
        GraphFormat::Json => graph::graph_json(&g, &gfiles),
        GraphFormat::Dot => graph::graph_dot(&g, &gfiles),
    }
}

/// Read every first-party `.rs` file under `root` into memory, sorted by
/// path.
fn collect_sources(root: &Path) -> Result<Vec<SourceFile>, LintError> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples", "benchmark/src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)
                .map_err(|e| LintError(format!("walking {}: {e}", dir.display())))?;
        }
    }
    files.sort();
    let mut out = Vec::with_capacity(files.len());
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)
            .map_err(|e| LintError(format!("{}: {e}", path.display())))?;
        out.push(SourceFile { rel_path: rel, src });
    }
    Ok(out)
}

/// Walk up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]` — the root `ecfd lint` analyzes by default.
pub fn find_workspace_root(start: &Path) -> Result<PathBuf, LintError> {
    let mut dir = start
        .canonicalize()
        .map_err(|e| LintError(format!("{}: {e}", start.display())))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest)
                .map_err(|e| LintError(format!("{}: {e}", manifest.display())))?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        match dir.parent() {
            Some(p) => dir = p.to_path_buf(),
            None => {
                return Err(LintError(format!(
                    "no workspace Cargo.toml above {}",
                    start.display()
                )))
            }
        }
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "shims" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Files scanned as API001 call sites but never linted.
fn caller_only(rel: &str) -> bool {
    rel.starts_with("benchmark/")
}

/// The crate a workspace-relative path belongs to.
fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("unknown").to_string(),
        Some("shims") => format!("shim-{}", parts.next().unwrap_or("unknown")),
        _ => String::from("ecfd"),
    }
}

/// Whole-file test scope: integration tests, benches, and examples are
/// not simulation code.
fn path_is_test(rel: &str) -> bool {
    rel.split('/')
        .any(|c| c == "tests" || c == "benches" || c == "examples")
}

/// A rust-ish module path derived from the file location
/// (`crates/fd-sim/src/event.rs` → `fd_sim::event`).
fn module_of(rel: &str) -> String {
    let crate_name = crate_of(rel).replace('-', "_");
    let mut comps: Vec<&str> = rel.split('/').collect();
    // Drop the crates/<name> prefix and the src dir.
    if comps.first() == Some(&"crates") {
        comps.drain(..2);
    }
    if comps.first() == Some(&"src") {
        comps.remove(0);
    }
    let mut mods: Vec<String> = comps
        .iter()
        .map(|c| c.trim_end_matches(".rs").replace('-', "_"))
        .filter(|c| c != "lib" && c != "main" && c != "mod" && !c.is_empty())
        .collect();
    mods.insert(0, crate_name);
    mods.join("::")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_paths_from_locations() {
        assert_eq!(module_of("crates/fd-sim/src/event.rs"), "fd_sim::event");
        assert_eq!(module_of("crates/fd-sim/src/lib.rs"), "fd_sim");
        assert_eq!(module_of("src/bin/ecfd.rs"), "ecfd::bin::ecfd");
        assert_eq!(
            module_of("tests/campaign_e2e.rs"),
            "ecfd::tests::campaign_e2e"
        );
        assert_eq!(
            module_of("crates/fd-bench/src/experiments/e8.rs"),
            "fd_bench::experiments::e8"
        );
    }

    #[test]
    fn crate_and_test_classification() {
        assert_eq!(crate_of("crates/fd-core/src/set.rs"), "fd-core");
        assert_eq!(crate_of("src/lib.rs"), "ecfd");
        assert!(path_is_test("crates/fd-sim/benches/kernel.rs"));
        assert!(path_is_test("tests/prop_kernel.rs"));
        assert!(!path_is_test("crates/fd-sim/src/world.rs"));
    }

    #[test]
    fn unknown_rule_filter_is_rejected_with_the_valid_list() {
        let err = validate_rule_ids(&[String::from("ND999")]).unwrap_err();
        assert!(err.0.contains("ND999"));
        for r in RULES {
            assert!(err.0.contains(r.id), "error must list {}", r.id);
        }
    }
}

//! Repro artifacts: a failing seed, serialized.
//!
//! When a campaign run violates a property, the engine writes everything
//! needed to reproduce it — the full [`RunPlan`], the violated property,
//! and a digest of the offending trace — as one JSON file. [`replay`]
//! re-executes the plan and confirms both that the same property still
//! fails and that the trace is byte-identical (same digest).

use crate::monitor::check_property;
use crate::plan::RunPlan;
use crate::scenario::Scenario;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// A serialized counterexample.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Artifact {
    /// Scenario registry name (replay looks the scenario up by this).
    pub scenario: String,
    /// The failing seed (informational once the plan is shrunk).
    pub seed: u64,
    /// The violated property (a monitor / named-check name).
    pub property: String,
    /// Human-readable violation detail.
    pub detail: String,
    /// FNV digest of the failing run's trace.
    pub digest: u64,
    /// The full plan to re-execute.
    pub plan: RunPlan,
}

impl Artifact {
    /// The file name this artifact saves under.
    pub fn file_name(&self) -> String {
        let safe: String = self
            .scenario
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        format!("{safe}-seed{}.json", self.seed)
    }

    /// Write the artifact as pretty JSON into `dir` (created if needed).
    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        self.write(&path)?;
        Ok(path)
    }

    /// Write the artifact as pretty JSON to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(path, json)
    }

    /// Load an artifact from a JSON file.
    pub fn load(path: &Path) -> Result<Artifact, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// What re-executing an artifact's plan produced.
#[derive(Debug)]
pub struct ReplayResult {
    /// Detail of the re-observed violation, if the property failed again.
    pub violation: Option<String>,
    /// Digest of the replayed trace.
    pub digest: u64,
    /// Whether the replayed trace matches the artifact's digest.
    pub digest_matches: bool,
}

impl ReplayResult {
    /// Whether the replay reproduced the recorded violation.
    pub fn reproduced(&self) -> bool {
        self.violation.is_some()
    }

    /// Human-readable summary (what `ecfd campaign --replay` prints):
    /// which artifact was replayed from where, whether the violation
    /// came back, and whether the trace digest still matches.
    pub fn render(&self, path: &Path, artifact: &Artifact) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "replaying {}: scenario {} seed {} property {}",
            path.display(),
            artifact.scenario,
            artifact.seed,
            artifact.property
        );
        let _ = match &self.violation {
            Some(detail) => writeln!(out, "violation reproduced ✓  {detail}"),
            None => writeln!(out, "violation did NOT reproduce"),
        };
        let _ = writeln!(
            out,
            "trace digest {:#018x} ({})",
            self.digest,
            if self.digest_matches {
                "matches artifact"
            } else {
                "DIFFERS from artifact"
            }
        );
        out
    }
}

/// Re-execute an artifact's plan under `scenario` and re-check the
/// recorded property. Errors if the scenario does not match or the
/// property name is unknown.
pub fn replay(scenario: &dyn Scenario, artifact: &Artifact) -> Result<ReplayResult, String> {
    if scenario.name() != artifact.scenario {
        return Err(format!(
            "artifact is for scenario {:?}, not {:?}",
            artifact.scenario,
            scenario.name()
        ));
    }
    scenario.check_plan(&artifact.plan)?;
    let outcome = scenario.make_executor().execute(&artifact.plan, None);
    let digest = outcome.trace.digest();
    let check = check_property(&scenario.monitors(), &artifact.property, &outcome)?;
    Ok(ReplayResult {
        violation: check.err().map(|v| v.to_string()),
        digest,
        digest_matches: digest == artifact.digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::BlindScenario;
    use crate::engine::Campaign;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("fd-campaign-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn failing_seed_round_trips_through_disk_and_replays() {
        let sc = BlindScenario;
        let (result, artifact) = Campaign::run_seed(&sc, 3);
        assert!(!result.passed());
        let artifact = artifact.expect("failing seed yields an artifact");
        assert_eq!(artifact.property, "fd.strong_completeness");

        let dir = scratch_dir("replay");
        let path = artifact.save(&dir).unwrap();
        assert!(
            path.to_string_lossy().ends_with("blind-seed3.json"),
            "{path:?}"
        );
        let loaded = Artifact::load(&path).unwrap();
        assert_eq!(loaded.digest, artifact.digest);
        assert_eq!(loaded.plan.crashes, artifact.plan.crashes);

        let replayed = replay(&sc, &loaded).unwrap();
        assert!(replayed.reproduced(), "replay must reproduce the violation");
        assert!(
            replayed.digest_matches,
            "replay must regenerate the identical trace"
        );
    }

    #[test]
    fn replay_result_renders_header_verdict_and_digest() {
        let artifact = Artifact {
            scenario: "blind".into(),
            seed: 3,
            property: "fd.strong_completeness".into(),
            detail: String::new(),
            digest: 0xab,
            plan: RunPlan::new(3, fd_sim::Time::from_secs(1), fd_sim::NetworkConfig::new(2)),
        };
        let reproduced = ReplayResult {
            violation: Some("p1 never suspected p0".into()),
            digest: 0xab,
            digest_matches: true,
        };
        assert_eq!(
            reproduced.render(Path::new("a/blind-seed3.json"), &artifact),
            "replaying a/blind-seed3.json: scenario blind seed 3 property fd.strong_completeness\n\
             violation reproduced ✓  p1 never suspected p0\n\
             trace digest 0x00000000000000ab (matches artifact)\n"
        );
        let stale = ReplayResult {
            violation: None,
            digest: 0xcd,
            digest_matches: false,
        };
        let text = stale.render(Path::new("x.json"), &artifact);
        assert!(text.contains("\nviolation did NOT reproduce\n"), "{text}");
        assert!(
            text.ends_with("trace digest 0x00000000000000cd (DIFFERS from artifact)\n"),
            "{text}"
        );
    }

    #[test]
    fn replay_rejects_wrong_scenario() {
        let sc = BlindScenario;
        let (_, artifact) = Campaign::run_seed(&sc, 0);
        let mut artifact = artifact.unwrap();
        artifact.scenario = "other".to_string();
        assert!(replay(&sc, &artifact).is_err());
    }
}

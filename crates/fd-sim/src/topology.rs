//! Network topology: the per-directed-link configuration of a run.
//!
//! Every ordered pair of distinct processes is connected by a directed link
//! (the paper assumes two opposite reliable links per pair; other models
//! are opt-in per experiment). Self-links exist for uniformity — a process
//! "sending to itself" is delivered after a constant one-tick delay.

use crate::link::LinkModel;
use crate::process::ProcessId;
use crate::time::{SimDuration, Time};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The link configuration of an `n`-process system.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    n: usize,
    default: LinkModel,
    loopback: LinkModel,
    overrides: BTreeMap<(ProcessId, ProcessId), LinkModel>,
}

impl NetworkConfig {
    /// A fully connected network of `n` processes with the default
    /// (reliable, jittery) link model everywhere.
    pub fn new(n: usize) -> NetworkConfig {
        NetworkConfig {
            n,
            default: LinkModel::default(),
            loopback: LinkModel::reliable_const(SimDuration(1)),
            overrides: BTreeMap::new(),
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Set the model used by every link without an explicit override.
    pub fn with_default(mut self, model: LinkModel) -> Self {
        self.default = model;
        self
    }

    /// Override one directed link.
    pub fn with_link(mut self, from: ProcessId, to: ProcessId, model: LinkModel) -> Self {
        assert!(
            from.index() < self.n && to.index() < self.n,
            "link endpoints out of range"
        );
        self.overrides.insert((from, to), model);
        self
    }

    /// Override every link *into* `to` (the "input links of the leader"
    /// requirement of the Fig. 2 transformation).
    pub fn with_links_into(mut self, to: ProcessId, model: LinkModel) -> Self {
        for i in 0..self.n {
            let from = ProcessId(i);
            if from != to {
                self.overrides.insert((from, to), model.clone());
            }
        }
        self
    }

    /// Override every link *out of* `from` (the "output links of the
    /// leader" requirement of the Fig. 2 transformation).
    pub fn with_links_out_of(mut self, from: ProcessId, model: LinkModel) -> Self {
        for i in 0..self.n {
            let to = ProcessId(i);
            if from != to {
                self.overrides.insert((from, to), model.clone());
            }
        }
        self
    }

    /// Make every link eventually timely with a shared GST and bound — the
    /// global partial-synchrony model of \[6,8\].
    pub fn partially_synchronous(
        n: usize,
        gst: Time,
        bound: SimDuration,
        pre_max: SimDuration,
        pre_drop: f64,
    ) -> NetworkConfig {
        NetworkConfig::new(n)
            .with_default(LinkModel::eventually_timely(gst, bound, pre_max, pre_drop))
    }

    /// Replace the default link model in place — the mutating twin of
    /// [`NetworkConfig::with_default`], used by scheduled interventions
    /// (see [`crate::chaos`]) that change the whole network's regime
    /// mid-run (e.g. a movable GST sweep). Existing per-link overrides
    /// are untouched.
    pub fn set_default(&mut self, model: LinkModel) {
        self.default = model;
    }

    /// Override one directed link in place — the mutating twin of
    /// [`NetworkConfig::with_link`], used by scheduled interventions to
    /// cut (`LinkModel::Dead`) or heal (restore the original model) a
    /// link while a run is executing. Panics if either endpoint is out
    /// of range.
    pub fn set_link(&mut self, from: ProcessId, to: ProcessId, model: LinkModel) {
        // fd-lint: allow(HP001, reason = "documented panic on out-of-range endpoints; interventions are rare control-plane events, not per-message work")
        assert!(
            from.index() < self.n && to.index() < self.n,
            "link endpoints out of range"
        );
        self.overrides.insert((from, to), model);
    }

    /// The model governing the directed link `from → to`.
    #[inline]
    pub fn link(&self, from: ProcessId, to: ProcessId) -> &LinkModel {
        if from == to {
            return &self.loopback;
        }
        // Most runs configure no per-link overrides; skip the map probe
        // entirely on that (per-send hot) path.
        if self.overrides.is_empty() {
            return &self.default;
        }
        self.overrides.get(&(from, to)).unwrap_or(&self.default)
    }

    /// Whether every link in the network (default, loopback, and all
    /// overrides) is RNG-free — see [`LinkModel::is_rng_free`]. Model
    /// checking requires this: state hashes assume the network RNG
    /// stream is never consumed, so delivery reordering cannot shift
    /// later draws.
    pub fn is_rng_free(&self) -> bool {
        self.default.is_rng_free()
            && self.loopback.is_rng_free()
            && self.overrides.values().all(LinkModel::is_rng_free)
    }

    /// A copy of this configuration restricted to the first `new_n`
    /// processes: link overrides touching removed processes are dropped.
    /// Used by the campaign shrinker to try smaller systems.
    pub fn shrunk_to(&self, new_n: usize) -> NetworkConfig {
        assert!(
            0 < new_n && new_n <= self.n,
            "shrunk_to wants 0 < new_n <= n"
        );
        NetworkConfig {
            n: new_n,
            default: self.default.clone(),
            loopback: self.loopback.clone(),
            overrides: self
                .overrides
                .iter()
                .filter(|((from, to), _)| from.index() < new_n && to.index() < new_n)
                .map(|(k, m)| (*k, m.clone()))
                .collect(),
        }
    }

    /// Apply a transformation to every link model in the configuration
    /// (default, loopback, and each override). Used by the campaign
    /// shrinker to, e.g., reduce loss probabilities while a failure
    /// persists.
    pub fn map_links(&self, mut f: impl FnMut(&LinkModel) -> LinkModel) -> NetworkConfig {
        NetworkConfig {
            n: self.n,
            default: f(&self.default),
            loopback: f(&self.loopback),
            overrides: self.overrides.iter().map(|(k, m)| (*k, f(m))).collect(),
        }
    }
}

// Hand-written serde impls: the override map is keyed by a tuple, which
// JSON objects cannot express, so it serializes as an array of
// `[from, to, model]` triples sorted by key (deterministic output — the
// campaign engine hashes artifacts).
impl Serialize for NetworkConfig {
    fn to_value(&self) -> serde::Value {
        let mut links: Vec<(&(ProcessId, ProcessId), &LinkModel)> = self.overrides.iter().collect();
        links.sort_by_key(|(k, _)| **k);
        let triples = links
            .into_iter()
            .map(|((from, to), model)| {
                serde::Value::Arr(vec![from.to_value(), to.to_value(), model.to_value()])
            })
            .collect();
        serde::Value::Obj(vec![
            ("n".to_string(), self.n.to_value()),
            ("default".to_string(), self.default.to_value()),
            ("loopback".to_string(), self.loopback.to_value()),
            ("overrides".to_string(), serde::Value::Arr(triples)),
        ])
    }
}

impl Deserialize for NetworkConfig {
    fn from_value(v: &serde::Value) -> Result<NetworkConfig, serde::Error> {
        let n = usize::from_value(v.field("n"))?;
        if n == 0 {
            return Err(serde::Error::msg("NetworkConfig: n must be positive"));
        }
        let triples = <Vec<(ProcessId, ProcessId, LinkModel)>>::from_value(v.field("overrides"))?;
        let mut overrides = BTreeMap::new();
        for (from, to, model) in triples {
            if from.index() >= n || to.index() >= n {
                return Err(serde::Error::msg(format!(
                    "NetworkConfig: override {from}->{to} out of range for n={n}"
                )));
            }
            overrides.insert((from, to), model);
        }
        Ok(NetworkConfig {
            n,
            default: LinkModel::from_value(v.field("default"))?,
            loopback: LinkModel::from_value(v.field("loopback"))?,
            overrides,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_applies_everywhere() {
        let cfg = NetworkConfig::new(3).with_default(LinkModel::reliable_const(SimDuration(7)));
        assert_eq!(
            *cfg.link(ProcessId(0), ProcessId(2)),
            LinkModel::reliable_const(SimDuration(7))
        );
    }

    #[test]
    fn override_beats_default() {
        let cfg = NetworkConfig::new(3).with_link(ProcessId(0), ProcessId(1), LinkModel::Dead);
        assert_eq!(*cfg.link(ProcessId(0), ProcessId(1)), LinkModel::Dead);
        assert_eq!(*cfg.link(ProcessId(1), ProcessId(0)), LinkModel::default());
    }

    #[test]
    fn loopback_is_fast_and_reliable() {
        let cfg = NetworkConfig::new(2).with_default(LinkModel::Dead);
        assert_eq!(
            *cfg.link(ProcessId(0), ProcessId(0)),
            LinkModel::reliable_const(SimDuration(1))
        );
    }

    #[test]
    fn into_and_out_of_cover_all_peers() {
        let n = 4;
        let leader = ProcessId(2);
        let cfg = NetworkConfig::new(n)
            .with_links_into(leader, LinkModel::reliable_const(SimDuration(3)))
            .with_links_out_of(
                leader,
                LinkModel::fair_lossy(SimDuration(1), SimDuration(2), 0.5),
            );
        for i in 0..n {
            let p = ProcessId(i);
            if p != leader {
                assert_eq!(
                    *cfg.link(p, leader),
                    LinkModel::reliable_const(SimDuration(3))
                );
                assert!(matches!(cfg.link(leader, p), LinkModel::FairLossy { .. }));
            }
        }
        // Unrelated links keep the default.
        assert_eq!(*cfg.link(ProcessId(0), ProcessId(1)), LinkModel::default());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_link_panics() {
        let _ = NetworkConfig::new(2).with_link(ProcessId(0), ProcessId(5), LinkModel::Dead);
    }

    #[test]
    fn serde_round_trip_preserves_every_link() {
        let cfg = NetworkConfig::new(4)
            .with_default(LinkModel::fair_lossy(SimDuration(1), SimDuration(9), 0.25))
            .with_link(ProcessId(2), ProcessId(0), LinkModel::Dead)
            .with_links_into(
                ProcessId(3),
                LinkModel::eventually_timely(
                    Time::from_millis(40),
                    SimDuration(5),
                    SimDuration(100),
                    0.5,
                ),
            );
        let json = serde_json::to_string(&cfg).unwrap();
        let back: NetworkConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.n(), cfg.n());
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(
                    cfg.link(ProcessId(i), ProcessId(j)),
                    back.link(ProcessId(i), ProcessId(j)),
                    "link {i}->{j} must survive the round trip"
                );
            }
        }
        // Deterministic bytes: override order must not depend on hash state.
        assert_eq!(json, serde_json::to_string(&back).unwrap());
    }

    #[test]
    fn shrunk_to_drops_out_of_range_overrides() {
        let cfg = NetworkConfig::new(5)
            .with_link(ProcessId(0), ProcessId(1), LinkModel::Dead)
            .with_link(ProcessId(4), ProcessId(0), LinkModel::Dead);
        let small = cfg.shrunk_to(3);
        assert_eq!(small.n(), 3);
        assert_eq!(*small.link(ProcessId(0), ProcessId(1)), LinkModel::Dead);
        // The override that referenced p4 is gone; p2->p0 is the default.
        assert_eq!(
            *small.link(ProcessId(2), ProcessId(0)),
            LinkModel::default()
        );
    }

    #[test]
    fn map_links_rewrites_all_positions() {
        let cfg = NetworkConfig::new(3)
            .with_default(LinkModel::fair_lossy(SimDuration(1), SimDuration(2), 0.8))
            .with_link(ProcessId(0), ProcessId(1), LinkModel::Dead);
        let healed = cfg.map_links(|m| match m {
            LinkModel::FairLossy { delay, .. } => LinkModel::Reliable { delay: *delay },
            other => other.clone(),
        });
        assert!(matches!(
            healed.link(ProcessId(1), ProcessId(0)),
            LinkModel::Reliable { .. }
        ));
        assert_eq!(*healed.link(ProcessId(0), ProcessId(1)), LinkModel::Dead);
    }
}

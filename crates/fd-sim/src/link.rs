//! Link models.
//!
//! The paper uses three kinds of directed links:
//!
//! * **Reliable** links (§2.1): every message sent is eventually delivered,
//!   with no bound on delay in the asynchronous model.
//! * **Partially synchronous / eventually timely** links (§4, the model of
//!   Chandra–Toueg \[6\] and Dwork–Lynch–Stockmeyer \[8\]): after some finite
//!   *global stabilization time* GST, every message is delivered within an
//!   (unknown to the algorithm) bound Δ. Before GST, delays are arbitrary.
//! * **Fair-lossy** links (§4, the output links of the leader in Fig. 2):
//!   messages may be lost, but if infinitely many are sent, infinitely many
//!   are delivered.
//!
//! A [`LinkModel`] maps a send instant to an optional delivery instant,
//! sampling any randomness from the network RNG stream.

use crate::time::{SimDuration, Time};
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A distribution of message delays.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DelayDist {
    /// Always exactly this delay.
    Constant(SimDuration),
    /// Uniform in `[min, max]` (inclusive).
    Uniform {
        /// Smallest possible delay.
        min: SimDuration,
        /// Largest possible delay.
        max: SimDuration,
    },
    /// Mostly uniform in `[min, max]`, but with probability `spike_prob`
    /// the delay is instead uniform in `[max, spike_max]` — a crude heavy
    /// tail that exercises timeout adaptation.
    Spiky {
        /// Smallest base delay.
        min: SimDuration,
        /// Largest base delay.
        max: SimDuration,
        /// Probability of a spike.
        spike_prob: f64,
        /// Largest spike delay.
        spike_max: SimDuration,
    },
}

impl DelayDist {
    /// Sample a delay.
    pub fn sample(&self, rng: &mut SmallRng) -> SimDuration {
        match *self {
            DelayDist::Constant(d) => d,
            DelayDist::Uniform { min, max } => {
                debug_assert!(min <= max, "uniform delay with min > max");
                SimDuration(rng.gen_range(min.0..=max.0))
            }
            DelayDist::Spiky {
                min,
                max,
                spike_prob,
                spike_max,
            } => {
                if rng.gen_bool(spike_prob.clamp(0.0, 1.0)) {
                    SimDuration(rng.gen_range(max.0..=spike_max.0.max(max.0)))
                } else {
                    SimDuration(rng.gen_range(min.0..=max.0))
                }
            }
        }
    }

    /// Whether sampling this distribution never consumes the RNG —
    /// exactly the [`DelayDist::Constant`] case (a degenerate uniform
    /// still draws). Model-checked worlds require RNG-free delays: the
    /// network RNG is shared across links, so any draw makes its stream
    /// position depend on the delivery *order* the scheduler chose, and
    /// state hashes of equivalent interleavings would diverge.
    pub fn is_rng_free(&self) -> bool {
        matches!(self, DelayDist::Constant(_))
    }
}

/// Behaviour of one directed link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LinkModel {
    /// Reliable: never drops; delay drawn from `delay`.
    Reliable {
        /// The delay distribution.
        delay: DelayDist,
    },
    /// Eventually timely (partial synchrony): messages sent at or after
    /// `gst` are delivered within `bound`; messages sent before `gst` are
    /// dropped with probability `pre_drop` and otherwise delayed by
    /// `pre_delay` (which may be far larger than `bound`).
    EventuallyTimely {
        /// The global stabilization time.
        gst: Time,
        /// The post-GST delay bound (Δ).
        bound: SimDuration,
        /// Pre-GST delay distribution.
        pre_delay: DelayDist,
        /// Pre-GST drop probability.
        pre_drop: f64,
    },
    /// Fair-lossy: each message independently dropped with probability
    /// `drop`; surviving messages delayed by `delay`. Because drops are
    /// independent, infinitely many sends yield infinitely many
    /// deliveries almost surely — the paper's fairness condition.
    FairLossy {
        /// The delay distribution of surviving messages.
        delay: DelayDist,
        /// Independent per-message drop probability.
        drop: f64,
    },
    /// Drops every message. Used to model partitioned links in adversarial
    /// scenarios (not part of the paper's model, but useful for testing
    /// that completeness does not depend on a particular link).
    Dead,
}

impl LinkModel {
    /// A reliable link with constant delay `d`.
    pub fn reliable_const(d: SimDuration) -> LinkModel {
        LinkModel::Reliable {
            delay: DelayDist::Constant(d),
        }
    }

    /// A reliable link with delay uniform in `[min, max]`.
    pub fn reliable_uniform(min: SimDuration, max: SimDuration) -> LinkModel {
        LinkModel::Reliable {
            delay: DelayDist::Uniform { min, max },
        }
    }

    /// An eventually timely link: chaotic (uniform up to `pre_max`, dropped
    /// with probability `pre_drop`) before `gst`, bounded by `bound` after.
    pub fn eventually_timely(
        gst: Time,
        bound: SimDuration,
        pre_max: SimDuration,
        pre_drop: f64,
    ) -> LinkModel {
        LinkModel::EventuallyTimely {
            gst,
            bound,
            pre_delay: DelayDist::Uniform {
                min: SimDuration(1),
                max: pre_max,
            },
            pre_drop,
        }
    }

    /// A fair-lossy link with uniform delays.
    pub fn fair_lossy(min: SimDuration, max: SimDuration, drop: f64) -> LinkModel {
        LinkModel::FairLossy {
            delay: DelayDist::Uniform { min, max },
            drop,
        }
    }

    /// Given a send at `now`, decide when (if ever) the message arrives.
    pub fn deliver_at(&self, now: Time, rng: &mut SmallRng) -> Option<Time> {
        match *self {
            LinkModel::Reliable { delay } => Some(now + delay.sample(rng)),
            LinkModel::EventuallyTimely {
                gst,
                bound,
                pre_delay,
                pre_drop,
            } => {
                if now >= gst {
                    // Post-GST: uniform within the (unknown) bound, never
                    // dropped. A minimum of one tick keeps causality strict.
                    let d = SimDuration(rng.gen_range(1..=bound.0.max(1)));
                    Some(now + d)
                } else if rng.gen_bool(pre_drop.clamp(0.0, 1.0)) {
                    None
                } else {
                    Some(now + pre_delay.sample(rng))
                }
            }
            LinkModel::FairLossy { delay, drop } => {
                if rng.gen_bool(drop.clamp(0.0, 1.0)) {
                    None
                } else {
                    Some(now + delay.sample(rng))
                }
            }
            LinkModel::Dead => None,
        }
    }

    /// Whether [`deliver_at`](LinkModel::deliver_at) never consumes the
    /// RNG on this link, at any instant. Required of every link in a
    /// model-checked world (see [`DelayDist::is_rng_free`]): reliable
    /// constant-delay links and dead links qualify; anything with a drop
    /// probability or a sampled delay does not.
    pub fn is_rng_free(&self) -> bool {
        match *self {
            LinkModel::Reliable { delay } => delay.is_rng_free(),
            LinkModel::Dead => true,
            LinkModel::EventuallyTimely { .. } | LinkModel::FairLossy { .. } => false,
        }
    }

    /// Whether this link can ever drop a message.
    ///
    /// Note that lossiness says nothing about *fairness*: a
    /// [`LinkModel::Dead`] link is lossy but drops everything, while a
    /// fair-lossy link with `drop < 1` is lossy yet still delivers
    /// infinitely often. Use [`LinkModel::is_fair`] for the paper's §4
    /// fairness condition.
    pub fn is_lossy(&self) -> bool {
        match *self {
            LinkModel::Reliable { .. } => false,
            LinkModel::EventuallyTimely { pre_drop, .. } => pre_drop > 0.0,
            LinkModel::FairLossy { drop, .. } => drop > 0.0,
            LinkModel::Dead => true,
        }
    }

    /// Whether this link satisfies the paper's §4 fairness condition: if
    /// infinitely many messages are sent, infinitely many are delivered.
    ///
    /// This is the property the ◇C transformations assume of leader
    /// output links; an earlier revision classified [`LinkModel::Dead`]
    /// together with fair-lossy links via [`LinkModel::is_lossy`], which
    /// conflates "may drop" with "drops everything". Fairness is decided
    /// by *eventual* behaviour:
    ///
    /// * Reliable and eventually-timely links are fair (post-GST every
    ///   message is delivered, whatever happened before GST).
    /// * Fair-lossy links are fair iff `drop < 1` — independent drops
    ///   then deliver infinitely often almost surely.
    /// * Dead links are not fair.
    pub fn is_fair(&self) -> bool {
        match *self {
            LinkModel::Reliable { .. } => true,
            LinkModel::EventuallyTimely { .. } => true,
            LinkModel::FairLossy { drop, .. } => drop < 1.0,
            LinkModel::Dead => false,
        }
    }
}

impl Default for LinkModel {
    /// A mildly jittery reliable link: uniform delay in \[1, 5\] ms.
    fn default() -> Self {
        LinkModel::reliable_uniform(SimDuration::from_millis(1), SimDuration::from_millis(5))
    }
}

/// Link-layer message mangling, applied on top of every non-loopback
/// link's base model while installed (see
/// [`NetChange::SetMangler`](crate::chaos::NetChange::SetMangler)).
///
/// A mangler models a misbehaving network layer rather than a link
/// *regime*: the base [`LinkModel`] first decides whether and when a
/// message would arrive, and the mangler then perturbs that verdict —
/// dropping the message outright, skewing its delivery time (bounded
/// reordering: a skewed message can overtake or be overtaken by its
/// neighbours within `skew`), or duplicating it. All randomness is drawn
/// from the network RNG stream in a fixed order (drop, then reorder,
/// then duplicate), so runs remain byte-identical for a given seed and
/// schedule. Loopback sends (`from == to`) are never mangled — protocol
/// components rely on self-delivery for internal scheduling.
///
/// Probabilities are clamped to `[0, 1]` at draw time; a probability of
/// zero skips its RNG draw entirely.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkMangler {
    /// Per-message drop probability (in addition to base-model loss).
    pub drop: f64,
    /// Probability of enqueueing a second delivery of the message.
    pub duplicate: f64,
    /// Probability of skewing the delivery time by up to `skew`.
    pub reorder: f64,
    /// Largest extra delay a reorder or duplicate offset can add; draws
    /// are uniform in `[1, skew]` ticks (a zero `skew` acts as one tick).
    pub skew: SimDuration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::derive_network_rng;

    fn rng() -> SmallRng {
        derive_network_rng(1)
    }

    #[test]
    fn constant_delay_is_exact() {
        let m = LinkModel::reliable_const(SimDuration::from_millis(2));
        let t = m.deliver_at(Time::from_millis(10), &mut rng()).unwrap();
        assert_eq!(t, Time::from_millis(12));
    }

    #[test]
    fn uniform_delay_within_bounds() {
        let m = LinkModel::reliable_uniform(SimDuration(10), SimDuration(20));
        let mut r = rng();
        for _ in 0..1000 {
            let t = m.deliver_at(Time(100), &mut r).unwrap();
            assert!(t >= Time(110) && t <= Time(120), "{t}");
        }
    }

    #[test]
    fn eventually_timely_respects_bound_after_gst() {
        let gst = Time::from_millis(50);
        let bound = SimDuration::from_millis(3);
        let m = LinkModel::eventually_timely(gst, bound, SimDuration::from_millis(500), 0.5);
        let mut r = rng();
        for _ in 0..1000 {
            let sent = Time::from_millis(60);
            let t = m
                .deliver_at(sent, &mut r)
                .expect("post-GST messages are never dropped");
            assert!(t > sent && t <= sent + bound);
        }
    }

    #[test]
    fn eventually_timely_pre_gst_can_drop_and_lag() {
        let gst = Time::from_millis(50);
        let m = LinkModel::eventually_timely(
            gst,
            SimDuration::from_millis(3),
            SimDuration::from_millis(500),
            0.5,
        );
        let mut r = rng();
        let mut drops = 0;
        let mut late = 0;
        for _ in 0..2000 {
            match m.deliver_at(Time::ZERO, &mut r) {
                None => drops += 1,
                Some(t) if t > Time::ZERO + SimDuration::from_millis(3) => late += 1,
                Some(_) => {}
            }
        }
        assert!(drops > 500, "expected ~50% pre-GST drops, got {drops}");
        assert!(
            late > 500,
            "expected many pre-GST deliveries beyond the bound, got {late}"
        );
    }

    #[test]
    fn fair_lossy_delivers_infinitely_often() {
        let m = LinkModel::fair_lossy(SimDuration(1), SimDuration(5), 0.9);
        let mut r = rng();
        let delivered = (0..10_000)
            .filter(|_| m.deliver_at(Time::ZERO, &mut r).is_some())
            .count();
        assert!(
            delivered > 500,
            "90% loss still lets ~10% through, got {delivered}"
        );
    }

    #[test]
    fn dead_link_drops_everything() {
        let mut r = rng();
        assert!(LinkModel::Dead.deliver_at(Time::ZERO, &mut r).is_none());
        assert!(LinkModel::Dead.is_lossy());
    }

    #[test]
    fn lossiness_classification() {
        assert!(!LinkModel::default().is_lossy());
        assert!(LinkModel::fair_lossy(SimDuration(1), SimDuration(2), 0.1).is_lossy());
        assert!(!LinkModel::fair_lossy(SimDuration(1), SimDuration(2), 0.0).is_lossy());
    }

    /// Regression: `Dead` used to be classified only via `is_lossy`,
    /// which also returns `true` for genuinely fair-lossy links — a dead
    /// link is lossy but must never count as fair (§4 fairness demands
    /// infinitely many deliveries from infinitely many sends).
    #[test]
    fn fairness_classification_separates_dead_from_fair_lossy() {
        assert!(LinkModel::default().is_fair());
        assert!(LinkModel::reliable_const(SimDuration(1)).is_fair());
        assert!(
            LinkModel::eventually_timely(
                Time::from_millis(50),
                SimDuration(3),
                SimDuration(500),
                1.0
            )
            .is_fair(),
            "pre-GST chaos does not break fairness; post-GST delivers everything"
        );
        let lossy = LinkModel::fair_lossy(SimDuration(1), SimDuration(2), 0.9);
        assert!(lossy.is_lossy() && lossy.is_fair(), "fair-lossy is both");
        assert!(
            !LinkModel::fair_lossy(SimDuration(1), SimDuration(2), 1.0).is_fair(),
            "drop probability 1.0 degenerates to a dead link"
        );
        let dead = LinkModel::Dead;
        assert!(
            dead.is_lossy() && !dead.is_fair(),
            "dead is lossy but not fair"
        );
    }

    #[test]
    fn spiky_delay_spikes() {
        let d = DelayDist::Spiky {
            min: SimDuration(1),
            max: SimDuration(10),
            spike_prob: 0.3,
            spike_max: SimDuration(1000),
        };
        let mut r = rng();
        let spikes = (0..5000)
            .filter(|_| d.sample(&mut r) > SimDuration(10))
            .count();
        assert!(spikes > 1000 && spikes < 2000, "spike count {spikes}");
    }
}

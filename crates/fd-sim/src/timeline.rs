//! Human-readable trace rendering.
//!
//! Debugging a distributed protocol means reading event orderings. The
//! [`Timeline`] builder turns a recorded [`Trace`] into an annotated,
//! chronological listing of its observations and crashes (per-message
//! events are counted by [`summary`], not listed):
//!
//! ```text
//! [   25.000ms] ✖ p3 crashed
//! [   43.120ms] p0  fd.suspects → {p3}
//! ```

use crate::trace::{Payload, Trace, TraceKind};
use std::fmt::Write as _;

/// A configurable renderer over a [`Trace`].
///
/// ```
/// use fd_sim::{Payload, ProcessId, Time, Timeline, Trace, TraceEvent, TraceKind};
///
/// let trace = Trace::from_events(vec![TraceEvent {
///     at: Time::from_millis(9),
///     kind: TraceKind::Observation {
///         pid: ProcessId(0),
///         tag: "fd.trusted",
///         payload: Payload::Pid(ProcessId(1)),
///     },
/// }]);
/// let listing = Timeline::new(&trace).render();
/// assert!(listing.contains("p0  fd.trusted → p1"));
/// ```
pub struct Timeline<'a> {
    trace: &'a Trace,
    tags: Option<Vec<&'a str>>,
    max_processes: Option<usize>,
}

impl<'a> Timeline<'a> {
    /// Render every observation and crash, but not the (usually
    /// overwhelming) per-message events.
    pub fn new(trace: &'a Trace) -> Timeline<'a> {
        Timeline {
            trace,
            tags: None,
            max_processes: None,
        }
    }

    /// Only show observations with these tags.
    pub fn only_tags(mut self, tags: &[&'a str]) -> Self {
        self.tags = Some(tags.to_vec());
        self
    }

    /// Degrade to the one-line [`summary`] when the trace involves
    /// more than `max` distinct processes. A per-process listing of an
    /// n = 4096 world is unreadable and can run to hundreds of
    /// megabytes; above the threshold a summary is the honest rendering.
    pub fn max_processes(mut self, max: usize) -> Self {
        self.max_processes = Some(max);
        self
    }

    /// Distinct processes the rendering would touch.
    fn distinct_processes(&self) -> usize {
        let mut seen = std::collections::BTreeSet::new();
        for ev in self.trace.events() {
            match &ev.kind {
                TraceKind::Observation { pid, tag, .. } => {
                    if !tag.starts_with("chaos.") {
                        seen.insert(*pid);
                    }
                }
                TraceKind::Crashed { pid } => {
                    seen.insert(*pid);
                }
                TraceKind::Sent { .. }
                | TraceKind::Delivered { .. }
                | TraceKind::Dropped { .. } => {}
            }
        }
        seen.len()
    }

    fn fmt_payload(p: &Payload) -> String {
        match p {
            Payload::None => String::new(),
            Payload::U64(x) => x.to_string(),
            Payload::Pid(p) => p.to_string(),
            Payload::Pids(v) => {
                let inner: Vec<String> = v.iter().map(|p| p.to_string()).collect();
                format!("{{{}}}", inner.join(","))
            }
            Payload::PidU64(p, x) => format!("({p}, {x})"),
            Payload::U64Pair(a, b) => format!("({a}, {b})"),
            Payload::Text(s) => s.clone(),
        }
    }

    /// Produce the listing (or, above the
    /// [`max_processes`](Timeline::max_processes) threshold, the
    /// one-line summary).
    pub fn render(&self) -> String {
        if let Some(max) = self.max_processes {
            let distinct = self.distinct_processes();
            if distinct > max {
                return format!(
                    "{} distinct processes exceed the {} per-process listing \
                     limit; showing the summary instead (raise the limit \
                     for a full listing)\n{}\n",
                    distinct,
                    max,
                    summary(self.trace)
                );
            }
        }
        let mut out = String::new();
        for ev in self.trace.events() {
            // Formatted lazily: most events are filtered out below, and
            // formatting the stamp for them is wasted work.
            let stamp = || format!("[{:>10.3}ms]", ev.at.ticks() as f64 / 1000.0);
            match &ev.kind {
                TraceKind::Observation { pid, tag, payload } => {
                    if let Some(tags) = &self.tags {
                        if !tags.contains(tag) {
                            continue;
                        }
                    }
                    // Chaos interventions (partition cuts, heals, GST
                    // markers, …) are environment-wide bands, not
                    // per-process output: they render as full-width
                    // annotations (the `p0` attribution is a harness
                    // artifact).
                    if tag.starts_with("chaos.") {
                        let p = Self::fmt_payload(payload);
                        let body = if p.is_empty() {
                            (*tag).to_string()
                        } else {
                            format!("{tag} {p}")
                        };
                        let _ = writeln!(out, "{} ══ {body} ══", stamp());
                        continue;
                    }
                    let _ = writeln!(
                        out,
                        "{} {pid}  {tag} → {}",
                        stamp(),
                        Self::fmt_payload(payload)
                    );
                }
                TraceKind::Crashed { pid } => {
                    let _ = writeln!(out, "{} ✖ {pid} crashed", stamp());
                }
                TraceKind::Sent { .. }
                | TraceKind::Delivered { .. }
                | TraceKind::Dropped { .. } => {}
            }
        }
        out
    }
}

/// A one-line statistical summary of a trace.
pub fn summary(trace: &Trace) -> String {
    let mut sent = 0usize;
    let mut delivered = 0usize;
    let mut dropped = 0usize;
    let mut crashes = 0usize;
    let mut observations = 0usize;
    for ev in trace.events() {
        match ev.kind {
            TraceKind::Sent { .. } => sent += 1,
            TraceKind::Delivered { .. } => delivered += 1,
            TraceKind::Dropped { .. } => dropped += 1,
            TraceKind::Crashed { .. } => crashes += 1,
            TraceKind::Observation { .. } => observations += 1,
        }
    }
    format!(
        "{} events: {sent} sent, {delivered} delivered, {dropped} dropped, {crashes} crashed, {observations} observations",
        trace.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::ProcessId;
    use crate::time::Time;
    use crate::trace::{DropReason, TraceEvent};

    fn sample() -> Trace {
        Trace::from_events(vec![
            TraceEvent {
                at: Time::from_millis(1),
                kind: TraceKind::Sent {
                    from: ProcessId(0),
                    to: ProcessId(1),
                    kind: "hb",
                    round: None,
                },
            },
            TraceEvent {
                at: Time::from_millis(2),
                kind: TraceKind::Delivered {
                    from: ProcessId(0),
                    to: ProcessId(1),
                    kind: "hb",
                    round: Some(3),
                },
            },
            TraceEvent {
                at: Time::from_millis(5),
                kind: TraceKind::Crashed { pid: ProcessId(2) },
            },
            TraceEvent {
                at: Time::from_millis(9),
                kind: TraceKind::Observation {
                    pid: ProcessId(0),
                    tag: "fd.trusted",
                    payload: Payload::Pid(ProcessId(1)),
                },
            },
            TraceEvent {
                at: Time::from_millis(12),
                kind: TraceKind::Dropped {
                    from: ProcessId(1),
                    to: ProcessId(2),
                    kind: "hb",
                    reason: DropReason::ReceiverCrashed,
                },
            },
        ])
    }

    #[test]
    fn default_shows_observations_and_crashes_only() {
        let tr = sample();
        let out = Timeline::new(&tr).render();
        assert!(out.contains("p2 crashed"));
        assert!(out.contains("fd.trusted → p1"));
        assert!(!out.contains("hb"), "messages hidden by default:\n{out}");
        assert_eq!(out.lines().count(), 2);
    }

    #[test]
    fn tag_filter() {
        let tr = sample();
        let out = Timeline::new(&tr).only_tags(&["nope"]).render();
        assert!(!out.contains("fd.trusted"));
        assert!(out.contains("crashed"), "crashes are not tag-filtered");
    }

    /// A two-cut chaos plan renders partition and heal bands in order.
    #[test]
    fn chaos_bands_render_for_a_two_cut_plan() {
        let tr = Trace::from_events(vec![
            TraceEvent {
                at: Time::from_millis(10),
                kind: TraceKind::Observation {
                    pid: ProcessId(0),
                    tag: "chaos.partition",
                    payload: Payload::pids([ProcessId(0), ProcessId(1)]),
                },
            },
            TraceEvent {
                at: Time::from_millis(20),
                kind: TraceKind::Observation {
                    pid: ProcessId(0),
                    tag: "chaos.heal",
                    payload: Payload::pids([ProcessId(0), ProcessId(1)]),
                },
            },
            TraceEvent {
                at: Time::from_millis(30),
                kind: TraceKind::Observation {
                    pid: ProcessId(0),
                    tag: "chaos.partition",
                    payload: Payload::pids([ProcessId(2), ProcessId(3)]),
                },
            },
            TraceEvent {
                at: Time::from_millis(40),
                kind: TraceKind::Observation {
                    pid: ProcessId(0),
                    tag: "chaos.heal",
                    payload: Payload::pids([ProcessId(2), ProcessId(3)]),
                },
            },
            TraceEvent {
                at: Time::from_millis(45),
                kind: TraceKind::Observation {
                    pid: ProcessId(0),
                    tag: "chaos.gst",
                    payload: Payload::None,
                },
            },
        ]);
        let out = Timeline::new(&tr).render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5, "{out}");
        assert!(lines[0].contains("══ chaos.partition {p0,p1} ══"), "{out}");
        assert!(lines[1].contains("══ chaos.heal {p0,p1} ══"), "{out}");
        assert!(lines[2].contains("══ chaos.partition {p2,p3} ══"), "{out}");
        assert!(lines[3].contains("══ chaos.heal {p2,p3} ══"), "{out}");
        assert!(
            lines[4].contains("══ chaos.gst ══"),
            "empty payload renders without a gap: {out}"
        );
        // An explicit tag filter still applies.
        let tagged = Timeline::new(&tr).only_tags(&["chaos.gst"]).render();
        assert_eq!(tagged.lines().count(), 1, "{tagged}");
    }

    /// Above the `max_processes` threshold the renderer degrades to the
    /// one-line summary.
    #[test]
    fn max_processes_degrades_to_summary() {
        let tr = Trace::from_events(
            (0..100)
                .map(|i| TraceEvent {
                    at: Time::from_millis(i as u64),
                    kind: TraceKind::Observation {
                        pid: ProcessId(i),
                        tag: "fd.suspects",
                        payload: Payload::None,
                    },
                })
                .collect(),
        );
        // 100 distinct processes > 10: summary.
        let out = Timeline::new(&tr).max_processes(10).render();
        assert!(out.contains("100 distinct processes"), "{out}");
        assert!(out.contains("100 events"), "{out}");
        assert!(!out.contains("fd.suspects →"), "{out}");
        // Under the limit: full listing.
        let full = Timeline::new(&tr).max_processes(100).render();
        assert_eq!(full.lines().count(), 100);
    }

    #[test]
    fn summary_counts() {
        let s = summary(&sample());
        assert_eq!(
            s,
            "5 events: 1 sent, 1 delivered, 1 dropped, 1 crashed, 1 observations"
        );
    }
}

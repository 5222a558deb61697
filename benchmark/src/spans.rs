//! Spans around the calls the harness makes into each layer.
//!
//! The benchmark measures from outside: a span brackets every call into
//! a layer's public functions (`plan`, `execute`, `check`, `extract`),
//! nested under one `rep` span per timed repetition. Spans stay in
//! memory and are written out once, when the run ends. A layer's self
//! time is its span's duration minus the part its children cover.
//!
//! With tracing off (`Tracer::off`) `enter`/`exit` do nothing — not even
//! read the clock — so the end-to-end numbers carry no tracing cost.

use std::io::Write;
use std::time::Instant;

/// The layer boundaries the harness records, in reporting order.
pub const LAYERS: [&str; 4] = ["plan", "execute", "check", "extract"];
/// The root span of one timed repetition.
pub const REP: &str = "rep";

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    pub rep: u32,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Token returned by [`Tracer::enter`]; hand it back to [`Tracer::exit`].
pub struct Open(Option<usize>);

impl Tracer {
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Number subsequent spans as belonging to repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost-first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, workload: &str, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{workload}\",\"rep\":{}}}",
                s.name, s.start_ns, s.end_ns, s.rep
            )?;
        }
        Ok(())
    }
}

/// Self time per span: duration minus the time its direct children
/// cover. Children never overlap each other (the tracer is a stack), so
/// each child interval is subtracted exactly once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end_ns - s.start_ns;
        }
    }
    own
}

/// Total self time of the spans named `name` in repetition `rep`.
pub fn self_time_of(spans: &[Span], name: &str, rep: u32) -> u64 {
    self_times(spans)
        .iter()
        .zip(spans)
        .filter(|(_, s)| s.name == name && s.rep == rep)
        .map(|(t, _)| t)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn child_intervals_are_subtracted_once() {
        // rep [0,100) ⊃ execute [10,70) ⊃ check [20,30); rep ⊃ plan [70,90).
        let spans = vec![
            span(REP, 0, 100, None),
            span("execute", 10, 70, Some(0)),
            span("check", 20, 30, Some(1)),
            span("plan", 70, 90, Some(0)),
        ];
        // The grandchild comes off its parent only, not off the root too.
        assert_eq!(self_times(&spans), vec![20, 50, 10, 20]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root span");
        assert_eq!(self_time_of(&spans, "execute", 0), 50);
        assert_eq!(self_time_of(&spans, "execute", 1), 0);
    }

    #[test]
    fn tracer_nests_and_numbers_spans() {
        let mut t = Tracer::on();
        t.set_rep(3);
        let rep = t.enter(REP);
        t.span("plan", || ());
        t.span("execute", || ());
        t.exit(rep);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s.iter().all(|s| s.rep == 3 && s.end_ns >= s.start_ns));
        let own: u64 = self_times(s).iter().sum();
        assert_eq!(own, s[0].end_ns - s[0].start_ns);
        let mut out = Vec::new();
        t.write_jsonl("w", &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().all(|l| l.contains("\"workload\":\"w\"")));
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::off();
        let rep = t.enter(REP);
        assert_eq!(t.span("plan", || 5), 5);
        t.exit(rep);
        assert!(t.spans().is_empty());
    }
}

//! Benchmark-side spans around each call into a layer of the program.
//!
//! A span has a name, a start, an end, the span that caused it, and the op
//! it belongs to. The first segment of a name (before any `.`) is its layer:
//! `pdc.replan` belongs to `pdc`, `figures.fig6` to `figures`. A span with
//! no parent is an op's root; its self time is the op's unattributed
//! remainder. With spans off, [`Spans::time`] only calls its closure, so the
//! traced and untraced runs execute the same code.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name.
    pub name: &'static str,
    /// The op (or request) this span belongs to.
    pub op: u64,
    /// Index of the enclosing span, `None` for an op's root.
    pub parent: Option<usize>,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

/// An in-memory span recorder for one thread.
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Spans {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Spans {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Sets the op id for the spans recorded next.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// Records a span measured elsewhere (another thread's timestamps) and
    /// returns its index, for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        Some(self.spans.len() - 1)
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, ms, of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Number of root spans (ops) recorded.
    pub fn roots(&self) -> usize {
        self.spans.iter().filter(|s| s.parent.is_none()).count()
    }

    /// Writes the spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name, s.op, parent, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// The layer of a span name: its first `.`-separated segment.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Total self time per layer in nanoseconds: each span's duration minus the
/// part of its interval covered by its children (clipped to the span,
/// overlapping children counted once). Root spans are reported under
/// `unattributed`.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut intervals: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| {
                (
                    spans[c].start_ns.clamp(s.start_ns, s.end_ns),
                    spans[c].end_ns.clamp(s.start_ns, s.end_ns),
                )
            })
            .filter(|(a, b)| b > a)
            .collect();
        intervals.sort_unstable();
        let mut covered = 0;
        let mut reach = s.start_ns;
        for (a, b) in intervals {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let key = if s.parent.is_none() {
            "unattributed"
        } else {
            layer(s.name)
        };
        *out.entry(key.to_string()).or_default() += (s.end_ns - s.start_ns) - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let spans = vec![
            span("op", None, 0, 100),
            span("pdc", Some(0), 10, 30),
            span("pdc.replan", Some(0), 20, 50),
            // Sticks out past its parent: only 90..100 is covered.
            span("exec", Some(0), 90, 120),
            // A grandchild: covers part of `exec`, not of the root.
            span("codec.write", Some(3), 95, 105),
        ];
        let st = self_times(&spans);
        assert_eq!(st["unattributed"], 100 - 40 - 10);
        assert_eq!(st["pdc"], 20 + 30);
        assert_eq!(st["exec"], 30 - 10);
        assert_eq!(st["codec"], 10);
        // Self times partition the roots' wall time when children nest.
        let nested = vec![
            span("op", None, 0, 50),
            span("dag", Some(0), 0, 10),
            span("pdc", Some(0), 10, 40),
            span("exec", Some(2), 20, 30),
        ];
        let st = self_times(&nested);
        assert_eq!(st.values().sum::<u64>(), 50);
        assert_eq!(st["pdc"], 20);
    }

    #[test]
    fn recorder_nests_and_is_inert_when_off() {
        let mut on = Spans::new(true, Instant::now());
        on.set_op(7);
        let v = on.time("op", |s| s.time("pdc", |s| s.time("exec", |_| 3)));
        assert_eq!(v, 3);
        let sp = on.spans();
        assert_eq!(sp.len(), 3);
        assert_eq!((sp[1].parent, sp[2].parent), (Some(0), Some(1)));
        assert!(sp.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert_eq!(on.roots(), 1);

        let mut off = Spans::new(false, Instant::now());
        assert_eq!(off.time("op", |_| 5), 5);
        assert!(off.spans().is_empty());
        assert_eq!(layer("figures.fig6"), "figures");
    }
}

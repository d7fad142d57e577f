//! In-memory spans and counters recorded around the benchmark's own calls
//! into each layer, written out once when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `synth` or `sim.ant`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The op the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span and counter recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Every span recorded, in start order.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    /// The op new spans are attributed to.
    pub op: u64,
    /// Named counts recorded at the same boundaries as the spans.
    pub counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(1 << 14),
            stack: Vec::new(),
            op: 0,
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; close it with
    /// [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> usize {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(index);
        index
    }

    /// Closes span `index` (and any span left open inside it).
    pub fn end(&mut self, index: usize) {
        let now = self.now_ns();
        while let Some(open) = self.stack.pop() {
            self.spans[open].end_ns = now;
            if open == index {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name);
        let out = f();
        self.end(span);
        out
    }

    /// Adds `value` to counter `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.counters.entry(name).or_insert(0.0) += value;
    }

    /// Counter `name`, 0 when never recorded.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Moves another thread's spans and counters into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        for (name, value) in other.counters {
            self.add(name, value);
        }
    }

    /// Count and total ms of the spans named `name`.
    pub fn total(&self, name: &str) -> (u64, f64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0.0), |(n, ms), s| (n + 1, ms + s.dur_ns() as f64 / 1e6))
    }

    /// Durations in ms of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of span `index`: its duration minus what its children
    /// cover (children never overlap: one thread records them in order).
    pub fn self_ns(&self, index: usize) -> u64 {
        let span = &self.spans[index];
        // Spans are stored in start order, so the children sit right after
        // their parent, among the spans that start before it ends.
        let children: u64 = self.spans[index + 1..]
            .iter()
            .take_while(|s| s.start_ns <= span.end_ns)
            .filter(|s| s.parent == Some(index))
            .map(Span::dur_ns)
            .sum();
        span.dur_ns().saturating_sub(children)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.begin("outer");
        let inner = t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        assert_eq!(inner, 7);
        t.end(outer);
        assert_eq!(t.spans[1].parent, Some(outer));
        let inner_ns = t.spans[1].dur_ns();
        assert!(inner_ns >= 2_000_000);
        assert_eq!(t.self_ns(outer) + inner_ns, t.spans[outer].dur_ns());
        assert_eq!(t.total("inner").0, 1);
    }

    #[test]
    fn absorb_rebases_parents_and_sums_counters() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.time("x", || ());
        a.add("n", 1.0);
        let mut b = Tracer::new(epoch);
        let p = b.begin("y");
        b.time("z", || ());
        b.end(p);
        b.add("n", 2.0);
        a.absorb(b);
        assert_eq!(a.spans.len(), 3);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.counter("n"), 3.0);
    }
}

//! Driver-side tracing: one span per call into a layer's public function,
//! recorded in memory and written to `trace.jsonl` when the run ends.
//!
//! The program under test is not instrumented here (spans inside the
//! program are a later change): the benchmark splits `Sinew::query` into
//! its public steps and times each from outside.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call. `parent` indexes into the same recorder; spans of one
/// operation share `op_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread span recorder. Threads share the epoch so their spans line
/// up on one clock when merged.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<u32>, op_id: u64) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, id: u32) -> u64 {
        let now = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = now;
        s.dur_ns()
    }

    /// Time `f` as a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.begin(name, parent, op_id);
        let out = f();
        (out, self.end(id))
    }

    /// Append another recorder's spans (same epoch), re-basing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap each other (two
/// threads) or stick out of the parent (clock skew); overlap is counted
/// once and the part outside the parent is ignored.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Durations in microseconds of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// Counter values captured at a named boundary of the run.
pub struct CounterMark {
    pub at: &'static str,
    pub at_ns: u64,
    pub values: Vec<(&'static str, f64)>,
}

/// One JSON object per line: spans first (`"kind":"span"`), then counter
/// snapshots (`"kind":"counters"`).
pub fn write_jsonl(path: &Path, spans: &[Span], marks: &[CounterMark]) -> std::io::Result<()> {
    let self_ns = self_times_ns(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"kind\":\"span\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{},\"self_ns\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op_id, self_ns[i]
        )?;
    }
    for m in marks {
        let values: Vec<String> = m
            .values
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        writeln!(
            out,
            "{{\"kind\":\"counters\",\"at\":\"{}\",\"at_ns\":{},\"values\":{{{}}}}}",
            m.at,
            m.at_ns,
            values.join(",")
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // op[0..100] -> exec[10..90] -> scan[20..60]
        let spans = vec![
            span("op", 0, 100, None),
            span("exec", 10, 90, Some(0)),
            span("scan", 20, 60, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 40, 40]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_to_parent() {
        // children [10..50] and [30..70] overlap by 20; [90..130] sticks out
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 90, 130, Some(0)),
        ];
        // covered = [10..70] + [90..100] = 70
        assert_eq!(self_times_ns(&spans)[0], 30);
        // a child wholly inside another adds nothing
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 80, Some(0)),
            span("b", 20, 30, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let root = a.begin("op", None, 1);
        a.end(root);
        let mut b = Tracer::new(epoch);
        let r = b.begin("op", None, 2);
        let c = b.begin("child", Some(r), 2);
        b.end(c);
        b.end(r);
        a.absorb(b);
        assert_eq!(a.spans.len(), 3);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.spans[1].parent, None);
    }
}

//! In-memory spans recorded by the benchmark around its calls into each
//! layer, with self time and a Chrome-trace writer.
//!
//! A span has a name, a start, an end and the span that caused it; spans
//! of one operation share an `op` id. Each thread records into its own
//! [`Tracer`] (rank threads return theirs from the rank body), so
//! recording takes no lock. Span ids come from one process-wide counter,
//! so parents recorded on another thread stay unambiguous.

use crate::report::{num, string};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A finished span. Times are seconds since the tracer epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: &'static str,
    pub rank: Option<usize>,
    pub start: f64,
    pub end: f64,
}

/// A span that has been opened and not yet closed.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u64,
    parent: Option<u64>,
    op: u64,
    name: &'static str,
    rank: Option<usize>,
    start: f64,
}

/// Per-thread span recorder sharing a common epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    pub fn open(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        rank: Option<usize>,
    ) -> Open {
        Open {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent,
            op,
            name,
            rank,
            start: self.now(),
        }
    }

    pub fn close(&mut self, o: Open) {
        let end = self.now();
        self.push(o, end);
    }

    /// Close `o` at an explicit time (spans reconstructed from reported
    /// phase durations).
    pub fn push(&mut self, o: Open, end: f64) {
        self.spans.push(Span {
            id: o.id,
            parent: o.parent,
            op: o.op,
            name: o.name,
            rank: o.rank,
            start: o.start,
            end,
        });
    }

    /// Open a span that starts at an explicit time.
    pub fn open_at(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        rank: Option<usize>,
        start: f64,
    ) -> Open {
        Open {
            start,
            ..self.open(name, op, parent, rank)
        }
    }

    /// Run `f` inside a span and return its result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        rank: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let o = self.open(name, op, parent, rank);
        let r = f();
        self.close(o);
        r
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children may overlap, e.g. concurrent ranks).
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(f64, f64)> = children
                .get(&s.id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                        .filter(|(a, b)| b > a)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, (s.end - s.start - covered).max(0.0))
        })
        .collect()
}

/// Per operation, the largest value of `f` over the spans named `name`
/// (the slowest rank, for spans recorded once per rank). Operations with
/// no such span are skipped.
pub fn per_op_max(spans: &[Span], name: &str, f: impl Fn(&Span) -> f64) -> Vec<f64> {
    let mut by_op: HashMap<u64, f64> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        let v = f(s);
        by_op.entry(s.op).and_modify(|m| *m = m.max(v)).or_insert(v);
    }
    let mut ops: Vec<(u64, f64)> = by_op.into_iter().collect();
    ops.sort_by_key(|&(op, _)| op);
    ops.into_iter().map(|(_, v)| v).collect()
}

/// Chrome trace-event JSON: one process per operation, one thread per
/// rank (thread 0 for spans outside the rank world).
pub fn chrome_json(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": {}, \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": {}, \"tid\": {}, \
                 \"args\": {{\"id\": {}, \"parent\": {}}}}}",
                string(s.name),
                num(s.start * 1e6),
                num((s.end - s.start) * 1e6),
                s.op,
                s.rank.map_or(0, |r| r + 1),
                s.id,
                s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
            )
        })
        .collect();
    format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "s",
            rank: None,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let spans = vec![
            span(1, None, 0.0, 10.0),
            span(2, Some(1), 1.0, 4.0),
            span(3, Some(1), 3.0, 6.0),  // overlaps span 2
            span(4, Some(1), 8.0, 12.0), // runs past the parent's end
            span(5, Some(2), 1.0, 2.0),
        ];
        let st = self_times(&spans);
        assert!((st[&1] - 3.0).abs() < 1e-12, "{}", st[&1]);
        assert!((st[&2] - 2.0).abs() < 1e-12);
        assert!((st[&3] - 3.0).abs() < 1e-12);
    }
}

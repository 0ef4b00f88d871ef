//! In-memory spans recorded by the benchmark around its calls into the
//! program, and the self-time arithmetic that turns them into a
//! per-layer breakdown.
//!
//! A span has a name (the layer it is charged to), a start, an end and a
//! parent. A span's *self time* is its duration minus the part of its
//! interval that its children cover, so over one tree the self times add
//! up to the root's duration exactly.
//!
//! Work the benchmark cannot wrap from outside (for example the probes
//! inside one `Orchestrator::run_until` call) is charged through
//! *estimated* child spans: a cost measured by replaying that layer's
//! public call on the run's own inputs, times the layer's count from the
//! program's `obs` registry. Estimated children are placed back to back
//! from the parent's start and scaled down together if they would
//! overrun it, so the parent's self time is the unattributed remainder.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer the span's self time is charged to.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// True when the extent is an estimate rather than a wrapped call.
    pub estimated: bool,
}

/// Span store for one thread of the benchmark.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    /// Every span recorded, parents before children.
    pub spans: Vec<Span>,
    /// Wall time the tracer's own bookkeeping took (timed by the caller
    /// and added with [`Tracer::charge_overhead`]).
    pub overhead_ns: u64,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            overhead_ns: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span over `[start, end]`; returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            estimated: false,
        });
        self.spans.len() - 1
    }

    /// Adds estimated children to `parent`: `(layer, ns)` parts placed
    /// back to back from the parent's start, scaled down together when
    /// their sum exceeds the parent's duration.
    pub fn estimate(&mut self, parent: usize, parts: &[(&'static str, f64)]) {
        let (p_start, p_end) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
        let dur = (p_end - p_start) as f64;
        let total: f64 = parts.iter().map(|(_, ns)| ns.max(0.0)).sum();
        let scale = if total > dur && total > 0.0 {
            dur / total
        } else {
            1.0
        };
        let mut at = p_start as f64;
        for &(name, ns) in parts {
            let len = ns.max(0.0) * scale;
            if len <= 0.0 {
                continue;
            }
            let start_ns = at.round() as u64;
            at += len;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: (at.round() as u64).clamp(start_ns, p_end),
                parent: Some(parent),
                estimated: true,
            });
        }
    }

    /// Adds bookkeeping time to the overhead tally.
    pub fn charge_overhead(&mut self, ns: u64) {
        self.overhead_ns += ns;
    }

    /// Moves another tracer's spans (same origin) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.overhead_ns += other.overhead_ns;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per layer name, summed over every span.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_times(&self.spans)) {
            *out.entry(span.name).or_insert(0) += own;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"estimated\":{}}}",
                s.name, s.start_ns, s.end_ns, s.estimated
            )?;
        }
        f.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to its own).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (ps, pe) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.max(ps), s.end_ns.min(pe));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
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
            estimated: false,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_root() {
        // root 0..100 ─┬─ a 10..40 ── c 20..30
        //              └─ b 50..90
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("c", 20, 30, Some(1)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![30, 20, 40, 10]);
        assert_eq!(own.iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            // Runs past its parent: only the overlap is covered.
            span("c", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn estimates_fill_the_parent_and_leave_the_remainder() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        let root = t.push(
            "core",
            origin,
            origin + std::time::Duration::from_nanos(1_000),
            None,
        );
        t.estimate(root, &[("netsim", 300.0), ("dsa", 200.0), ("none", 0.0)]);
        let by = t.self_by_name();
        assert_eq!(by["core"], 500);
        assert_eq!(by["netsim"], 300);
        assert_eq!(by["dsa"], 200);
        assert!(!by.contains_key("none"));
    }

    #[test]
    fn overrunning_estimates_are_scaled_to_fit() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        let root = t.push(
            "core",
            origin,
            origin + std::time::Duration::from_nanos(1_000),
            None,
        );
        t.estimate(root, &[("netsim", 1_500.0), ("dsa", 500.0)]);
        let by = t.self_by_name();
        assert_eq!(by["core"], 0);
        assert_eq!(by["netsim"] + by["dsa"], 1_000);
        assert_eq!(by["netsim"], 750);
    }

    #[test]
    fn absorb_reindexes_parents() {
        let origin = Instant::now();
        let later = origin + std::time::Duration::from_nanos(100);
        let mut a = Tracer::new(origin);
        a.push("gen", origin, later, None);
        let mut b = Tracer::new(origin);
        let root = b.push("gen", origin, later, None);
        b.push("transport", origin, later, Some(root));
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.self_by_name()["gen"], 100);
        assert_eq!(a.self_by_name()["transport"], 100);
    }
}

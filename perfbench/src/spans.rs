//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer of the program: its name, start,
//! end and the span that caused it. Spans are kept in memory while the
//! workload runs and written out once it ends, so recording costs one
//! clock read per boundary plus a short push under a lock.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span.
pub type SpanId = u64;

/// One closed span. Times are nanoseconds since the trace started.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// This span's id.
    pub id: SpanId,
    /// The span that caused it.
    pub parent: Option<SpanId>,
    /// Layer call name, e.g. `campaign.prepare.refine`.
    pub name: String,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A trace: the closed spans of one traced pass.
pub struct Trace {
    origin: Instant,
    next_id: AtomicU64,
    done: Mutex<Vec<SpanRec>>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }
}

impl Trace {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; `f` gets the new span's id so
    /// it can parent spans of its own.
    pub fn span<R>(
        &self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        let rec = SpanRec {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
        };
        self.done
            .lock()
            .expect("span lock poisoned by a panicking worker")
            .push(rec);
        out
    }

    /// Every closed span, in closing order.
    pub fn into_spans(self) -> Vec<SpanRec> {
        self.done
            .into_inner()
            .expect("span lock poisoned by a panicking worker")
    }
}

/// Run `f` under a span when a trace is given, and plainly otherwise.
pub fn timed<R>(
    trace: Option<&Trace>,
    name: impl FnOnce() -> String,
    parent: Option<SpanId>,
    f: impl FnOnce(Option<SpanId>) -> R,
) -> R {
    match trace {
        Some(t) => t.span(name(), parent, |id| f(Some(id))),
        None => f(None),
    }
}

/// Per-name totals: call count, summed duration and summed self time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times: each span's duration minus the part of its
    /// interval that its children cover (children of parallel workers can
    /// overlap, so coverage is the union of their intervals).
    pub self_ns: u64,
}

/// Fold spans into per-name totals with self times.
pub fn totals(spans: &[SpanRec]) -> BTreeMap<String, NameTotals> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map(|iv| union_len(iv, s.start_ns, s.end_ns))
            .unwrap_or(0);
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns() - covered;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut len, mut cur) = (0u64, lo);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cur), b.min(hi));
        if b > a {
            len += b - a;
            cur = b;
        }
    }
    len
}

/// Write spans as JSON lines (`id`, `parent`, `name`, `start_ns`,
/// `end_ns`) to `path`, creating its directory.
pub fn write_jsonl(spans: &[SpanRec], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            rec(1, None, "trials", 0, 100),
            // Two workers overlap on [20, 40]: the union covers 50 ns.
            rec(2, Some(1), "trial", 10, 40),
            rec(3, Some(1), "trial", 20, 60),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["trials"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            t["trial"],
            NameTotals {
                count: 2,
                total_ns: 70,
                self_ns: 70
            }
        );
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let tr = Trace::default();
        tr.span("outer", None, |id| tr.span("inner", Some(id), |_| ()));
        let spans = tr.into_spans();
        let outer = spans
            .iter()
            .find(|s| s.name == "outer")
            .expect("outer span");
        let inner = spans
            .iter()
            .find(|s| s.name == "inner")
            .expect("inner span");
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}

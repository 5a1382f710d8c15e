//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans live in a thread-local buffer (name, start, end, parent) and are
//! written out once, when the run ends. Tracing is off unless
//! [`enable`] was called, and then [`span`] costs one branch.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the trace epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<usize>,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread.
pub fn enable() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        });
    });
}

/// Runs `f` inside a span named `name` when tracing is on.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let opened = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let tr = t.as_mut()?;
        let id = tr.spans.len();
        let start_ns = elapsed_ns(tr.epoch);
        let parent = tr.open.last().copied();
        tr.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        tr.open.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = opened {
        TRACER.with(|t| {
            if let Some(tr) = t.borrow_mut().as_mut() {
                let end = elapsed_ns(tr.epoch);
                tr.open.pop();
                if let Some(s) = tr.spans.get_mut(id) {
                    s.end_ns = end;
                }
            }
        });
    }
    out
}

fn elapsed_ns(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Stops tracing and hands back every span recorded on this thread.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| t.borrow_mut().take().map(|tr| tr.spans).unwrap_or_default())
}

/// Per span name: how many spans, their total time and their self time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(c) = s.parent.and_then(|p| children.get_mut(p)) {
            c.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.clamp(cursor, s.end_ns);
                let b = b.clamp(a, s.end_ns);
                covered += b - a;
                cursor = b;
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Folds spans into per-name totals.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

/// Renders spans as JSON lines: `{"id", "name", "start_ns", "end_ns",
/// "parent", "self_ns"}`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"self_ns\": {self_ns}}}",
            s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let spans = [
            s("root", 0, 100, None),
            s("a", 10, 30, Some(0)),
            s("b", 40, 90, Some(0)),
            s("b.inner", 50, 60, Some(2)),
            s("other", 200, 250, None),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10, 50]);
        let t = totals(&spans);
        assert_eq!(t["root"].total_ns, 100);
        assert_eq!(t["root"].self_ns, 30);
        assert_eq!(t["b"].self_ns, 40);
    }

    #[test]
    fn overlapping_or_overhanging_children_count_once() {
        let spans = [
            s("root", 0, 100, None),
            s("a", 10, 50, Some(0)),
            s("b", 40, 70, Some(0)),
            s("c", 90, 130, Some(0)),
        ];
        // Covered: [10, 70) and [90, 100) = 70 ns.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn spans_nest_and_record_only_when_enabled() {
        assert_eq!(span("off", || 7), 7);
        assert!(take().is_empty());
        enable();
        let v = span("outer", || span("inner", || 3) + span("inner", || 4));
        assert_eq!(v, 7);
        let spans = take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let t = totals(&spans);
        assert_eq!(t["inner"].count, 2);
        assert!(t["outer"].self_ns <= t["outer"].total_ns);
        assert_eq!(to_jsonl(&spans).lines().count(), 3);
    }
}

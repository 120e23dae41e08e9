//! Bench-side spans: the benchmark records one around each call it
//! makes into a layer, keeps them in memory, and writes them out as
//! Chrome trace-event JSON when the run ends. Nothing here reaches into
//! the program under test.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// This span's id, unique within a recorder.
    pub id: u32,
    /// The span that caused this one, if any.
    pub parent: Option<u32>,
    /// The operation (job, cell or run) the span belongs to; every span
    /// of one operation shares it.
    pub op: u64,
    /// Layer-qualified name, e.g. `sim.engine.run`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// A small per-thread number (Chrome's `tid`).
    pub tid: u64,
}

fn thread_number() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Runs `f` inside a span; `f` receives the span's id so it can
    /// parent the calls it makes.
    pub fn span<T>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<u32>,
        f: impl FnOnce(u32) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f(id);
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("a span closure panicked while recording")
            .push(Span {
                id,
                parent,
                op,
                name,
                start_ns,
                end_ns,
                tid: thread_number(),
            });
        out
    }

    /// Everything recorded so far, ordered by start time.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("a span closure panicked while recording"),
        );
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Runs `f` inside a span when a recorder is attached, bare otherwise —
/// so traced and untraced repetitions share one code path.
pub fn span<T>(
    recorder: Option<&Recorder>,
    name: &'static str,
    op: u64,
    parent: Option<u32>,
    f: impl FnOnce(Option<u32>) -> T,
) -> T {
    match recorder {
        Some(r) => r.span(name, op, parent, |id| f(Some(id))),
        None => f(None),
    }
}

/// Self time per span name, in nanoseconds: each span's duration minus
/// the part of its interval that its direct children cover. Children
/// may overlap one another (cells on parallel workers) and may stick
/// out of the parent; the covered part is the union of the child
/// intervals clipped to the parent.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        *out.entry(s.name).or_default() += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    out
}

/// Renders spans as a Chrome trace (`chrome://tracing`, Perfetto):
/// complete events in microseconds, with id / parent / op in `args`.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}{}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.tid,
            s.id,
            parent,
            s.op,
            if i + 1 == spans.len() { "\n" } else { ",\n" },
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
            tid: 1,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // job [0,100) > wait [10,90) > poll [20,30), poll [40,50)
        let spans = [
            sp(1, None, "job", 0, 100),
            sp(2, Some(1), "wait", 10, 90),
            sp(3, Some(2), "poll", 20, 30),
            sp(4, Some(2), "poll", 40, 50),
        ];
        let t = self_times(&spans);
        assert_eq!(t["job"], 20); // only its direct child counts
        assert_eq!(t["wait"], 60);
        assert_eq!(t["poll"], 20);
        // Self times partition the root's duration.
        assert_eq!(t.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_cover_their_union() {
        // Two parallel cells overlap on [30,50); a third hangs past the
        // parent's end and is clipped.
        let spans = [
            sp(1, None, "exec", 0, 100),
            sp(2, Some(1), "cell", 10, 50),
            sp(3, Some(1), "cell", 30, 70),
            sp(4, Some(1), "cell", 90, 120),
        ];
        let t = self_times(&spans);
        // Union inside the parent: [10,70) + [90,100) = 70.
        assert_eq!(t["exec"], 30);
        assert_eq!(t["cell"], 40 + 40 + 30);
    }

    #[test]
    fn recorder_parents_and_orders_spans() {
        let rec = Recorder::default();
        let got = rec.span("outer", 7, None, |outer| {
            span(Some(&rec), "inner", 7, Some(outer), |inner| {
                assert!(inner.is_some());
                5
            })
        });
        assert_eq!(got, 5);
        assert_eq!(span(None, "bare", 0, None, |id| id), None);
        let spans = rec.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(rec.take().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let spans = [
            sp(1, None, "a.b", 1_000, 3_500),
            sp(2, Some(1), "c", 2_000, 2_500),
        ];
        let doc = turnroute_experiment::json::parse(&chrome_trace_json(&spans)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("a.b"));
        assert_eq!(events[0].get("dur").unwrap().as_f64(), Some(2.5));
        assert!(events[0]
            .get("args")
            .unwrap()
            .get("parent")
            .unwrap()
            .is_null());
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }
}

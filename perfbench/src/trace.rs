//! In-memory span recorder for the traced run, and the per-layer
//! aggregation of its spans.
//!
//! A span is a name, a start, an end and a parent. Names are
//! `<layer>.<what>` where the layer is a workspace crate (`workloads`,
//! `ir`, `analysis`, `passes`, `lint`, `vm`, `core`, `bench`) or a layer
//! inside one (`pa`); the traced copies in `traced.rs` open them around
//! calls into each crate's public functions, so the program itself
//! carries no tracing. Spans are kept in memory and written out when
//! the run ends.

use crate::json::{num, quote};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed (or, after a panic, still open) span. Times are seconds
/// since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub thread: usize,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }

    pub fn layer(&self) -> &'static str {
        layer_of(self.name)
    }
}

pub fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

fn rec() -> &'static Recorder {
    static REC: OnceLock<Recorder> = OnceLock::new();
    REC.get_or_init(|| Recorder {
        origin: Instant::now(),
        spans: Mutex::new(Vec::new()),
        counts: Mutex::new(BTreeMap::new()),
    })
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static THREAD: usize = {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// Seconds since the recorder's origin.
pub fn now() -> f64 {
    rec().origin.elapsed().as_secs_f64()
}

/// Closes its span when dropped, so a panicking body still ends it.
struct Guard(usize);

impl Drop for Guard {
    fn drop(&mut self) {
        let end = now();
        if let Ok(mut spans) = rec().spans.lock() {
            spans[self.0].end = end;
        }
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Run `f` inside a span named `name`, parented to this thread's
/// innermost open span.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let parent = current();
    let start = now();
    let id = {
        let mut spans = rec().spans.lock().expect("span list poisoned");
        spans.push(Span {
            name,
            start,
            end: f64::NAN,
            parent,
            thread: THREAD.with(|t| *t),
        });
        spans.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push(id));
    let _guard = Guard(id);
    f()
}

/// The innermost open span of this thread.
pub fn current() -> Option<usize> {
    STACK.with(|s| s.borrow().last().copied())
}

/// Run `f` on this (spawned) thread as if `parent` were its innermost
/// open span, so its spans join the spawning thread's tree.
pub fn with_parent<T>(parent: Option<usize>, f: impl FnOnce() -> T) -> T {
    let Some(p) = parent else { return f() };
    STACK.with(|s| s.borrow_mut().push(p));
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    let _pop = Pop;
    f()
}

/// Add `n` to the counter `name`.
pub fn count(name: &'static str, n: u64) {
    *rec()
        .counts
        .lock()
        .expect("counter map poisoned")
        .entry(name)
        .or_insert(0) += n;
}

/// Everything recorded so far; the recorder starts empty again.
pub fn take() -> (Vec<Span>, BTreeMap<&'static str, u64>) {
    let spans = std::mem::take(&mut *rec().spans.lock().expect("span list poisoned"));
    let counts = std::mem::take(&mut *rec().counts.lock().expect("counter map poisoned"));
    (spans, counts)
}

/// Total length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn union_len(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut cur): (f64, Option<(f64, f64)>) = (0.0, None);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Per-name and per-layer time of a span set.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Summed duration of every span with this name (thread-seconds).
    pub by_name: BTreeMap<&'static str, f64>,
    /// Per layer: summed duration of its spans that have no ancestor in
    /// the same layer.
    pub busy: BTreeMap<&'static str, f64>,
    /// Per layer: summed self time (duration minus the union of child
    /// spans) of its spans.
    pub self_time: BTreeMap<&'static str, f64>,
}

pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut b = Breakdown::default();
    for (i, s) in spans.iter().enumerate() {
        let d = s.secs();
        *b.by_name.entry(s.name).or_insert(0.0) += d;
        let mut nested = false;
        let mut up = s.parent;
        while let Some(p) = up {
            if spans[p].layer() == s.layer() {
                nested = true;
                break;
            }
            up = spans[p].parent;
        }
        if !nested {
            *b.busy.entry(s.layer()).or_insert(0.0) += d;
        }
        let mut kids: Vec<(f64, f64)> = children[i]
            .iter()
            .map(|&c| (spans[c].start, spans[c].end))
            .collect();
        let covered = union_len(&mut kids, s.start, s.end);
        *b.self_time.entry(s.layer()).or_insert(0.0) += (d - covered).max(0.0);
    }
    b
}

/// Share of `[lo, hi]` that no root span covers.
pub fn unattributed_share(spans: &[Span], lo: f64, hi: f64) -> f64 {
    if hi <= lo {
        return 0.0;
    }
    let mut roots: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start, s.end))
        .collect();
    1.0 - union_len(&mut roots, lo, hi) / (hi - lo)
}

/// The span tree and counters as one JSON document.
pub fn to_json(spans: &[Span], counts: &BTreeMap<&'static str, u64>) -> String {
    let mut out = String::from("{\n  \"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": {i}, \"name\": {}, \"start_s\": {}, \"end_s\": {}, \"parent\": {}, \"thread\": {}}}{}\n",
            quote(s.name),
            num(s.start),
            num(s.end),
            s.parent.map_or("null".to_owned(), |p| p.to_string()),
            s.thread,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"counts\": {");
    let body: Vec<String> = counts
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    out.push_str(&body.join(", "));
    out.push_str("}\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            thread: 0,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut v = vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (-1.0, 0.5)];
        assert!((union_len(&mut v, 0.0, 5.5) - 3.5).abs() < 1e-12);
        assert_eq!(union_len(&mut [], 0.0, 1.0), 0.0);
    }

    #[test]
    fn busy_and_self_time_by_layer() {
        // bench.suite [0,10] > analysis.context [1,4] > analysis.vuln [2,3]
        //                    > vm.execute [5,9] and vm.execute [6,8] on
        //                      a second thread (overlapping).
        let spans = vec![
            sp("bench.suite", 0.0, 10.0, None),
            sp("analysis.context", 1.0, 4.0, Some(0)),
            sp("analysis.vuln", 2.0, 3.0, Some(1)),
            sp("vm.execute", 5.0, 9.0, Some(0)),
            sp("vm.execute", 6.0, 8.0, Some(0)),
        ];
        let b = breakdown(&spans);
        assert_eq!(b.by_name["vm.execute"], 6.0);
        // analysis.vuln nests inside analysis.context: counted once.
        assert_eq!(b.busy["analysis"], 3.0);
        assert_eq!(b.busy["vm"], 6.0);
        // bench.suite self = 10 - union([1,4],[5,9],[6,8]) = 3.
        assert_eq!(b.self_time["bench"], 3.0);
        assert_eq!(b.self_time["analysis"], 2.0 + 1.0);
    }

    #[test]
    fn unattributed_counts_gaps_between_roots() {
        let spans = vec![
            sp("bench.suite", 0.0, 4.0, None),
            sp("vm.build", 1.0, 2.0, Some(0)),
            sp("bench.eq6", 5.0, 10.0, None),
        ];
        assert!((unattributed_share(&spans, 0.0, 10.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn recorder_builds_a_tree_across_threads() {
        take();
        span("bench.test", || {
            let parent = current();
            std::thread::scope(|s| {
                s.spawn(|| with_parent(parent, || span("vm.build", || count("vm.builds", 2))));
            });
        });
        let (spans, counts) = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_ne!(spans[0].thread, spans[1].thread);
        assert!(spans.iter().all(|s| s.end >= s.start));
        assert_eq!(counts["vm.builds"], 2);
        assert_eq!(current(), None);
    }
}

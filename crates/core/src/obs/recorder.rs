//! Low-overhead per-worker recording of spans and lifecycle events.
//!
//! The hot path is a preallocated lock-free ring per lane: a writer claims
//! a slot with one `fetch_add` and publishes it with one release store —
//! no mutex, no allocation, no syscall. Claims made on different threads
//! are ordered by the same atomic, so any two causally-ordered records
//! (e.g. a task's `Ready`, recorded before the ready-queue push that hands
//! it to another core, and that core's `Scheduled`) land in causal order;
//! per-task event sequences can therefore be read straight off the
//! drained stream. When a ring fills, writers overflow into a
//! mutex-guarded spill vector — no record is lost, only the "lock-free"
//! property degrades.
//!
//! The recorder also *measures itself*: [`EventRecorder::finish`] times a
//! burst of synthetic records and scales by the number of records actually
//! taken, yielding the tracing-overhead estimate reported alongside
//! results (acceptance: tracing must be honest about its own cost).

use super::counters::RtCounters;
use super::event::{EventKind, RtEvent};
use crate::profile::{Span, SpanKind, Trace};
use crate::rt::RtProbe;
use crate::task::TaskId;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

struct Slot<T> {
    ready: AtomicBool,
    data: UnsafeCell<MaybeUninit<T>>,
}

/// A fixed-capacity multi-producer ring with mutex spill-over. Drained
/// once, at quiescence (no concurrent writers).
struct Ring<T: Copy> {
    slots: Box<[Slot<T>]>,
    head: AtomicUsize,
    spill: Mutex<Vec<T>>,
}

// The UnsafeCell is written exactly once per claimed slot (the claim is
// exclusive by fetch_add) and read only after the release-store of
// `ready` is observed.
unsafe impl<T: Copy + Send> Sync for Ring<T> {}

impl<T: Copy> Ring<T> {
    fn new(capacity: usize) -> Ring<T> {
        Ring {
            slots: (0..capacity)
                .map(|_| Slot {
                    ready: AtomicBool::new(false),
                    data: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            head: AtomicUsize::new(0),
            spill: Mutex::new(Vec::new()),
        }
    }

    #[inline]
    fn push(&self, value: T) {
        let idx = self.head.fetch_add(1, Ordering::SeqCst);
        if let Some(slot) = self.slots.get(idx) {
            unsafe { (*slot.data.get()).write(value) };
            slot.ready.store(true, Ordering::Release);
        } else {
            self.spill
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(value);
        }
    }

    /// Drain every record in claim order (ring first, then spill). Must
    /// only run with no concurrent writers; slots whose publish never
    /// landed (impossible at quiescence) are skipped.
    fn drain(&self) -> Vec<T> {
        let n = self.head.swap(0, Ordering::SeqCst).min(self.slots.len());
        let mut out = Vec::with_capacity(n);
        for slot in &self.slots[..n] {
            if slot.ready.swap(false, Ordering::Acquire) {
                out.push(unsafe { (*slot.data.get()).assume_init() });
            }
        }
        out.append(&mut self.spill.lock().unwrap_or_else(|e| e.into_inner()));
        out
    }
}

/// Per-lane span rings plus one shared lifecycle-event ring, implementing
/// [`RtProbe`]. Lanes are sized from the kernel's worker count (workers
/// `0..n-1` plus the producer lane `n-1`); a span from an out-of-range
/// lane is a bug caught by `debug_assert` and clamped in release builds.
pub struct EventRecorder {
    lanes: Vec<Ring<Span>>,
    events: Option<Ring<RtEvent>>,
}

/// Default span-ring capacity per lane.
pub const SPAN_RING_CAPACITY: usize = 16 * 1024;
/// Default lifecycle-event ring capacity.
pub const EVENT_RING_CAPACITY: usize = 256 * 1024;

/// What one run's observability produced: the span trace, the lifecycle
/// event stream, and the counters both back-ends surface uniformly.
#[derive(Clone, Debug, Default)]
pub struct ObsReport {
    /// Per-worker span trace (Gantt, breakdown).
    pub trace: Trace,
    /// Lifecycle event stream in causal order.
    pub events: Vec<RtEvent>,
    /// Aggregated kernel counters.
    pub counters: RtCounters,
}

impl EventRecorder {
    /// A recorder with `lanes` span lanes (kernel worker count plus one
    /// producer lane). `record_events` enables the lifecycle stream.
    pub fn new(lanes: usize, record_events: bool) -> EventRecorder {
        EventRecorder::with_capacity(
            lanes,
            record_events,
            SPAN_RING_CAPACITY,
            EVENT_RING_CAPACITY,
        )
    }

    /// As [`EventRecorder::new`] with explicit ring capacities.
    pub fn with_capacity(
        lanes: usize,
        record_events: bool,
        span_capacity: usize,
        event_capacity: usize,
    ) -> EventRecorder {
        EventRecorder {
            lanes: (0..lanes).map(|_| Ring::new(span_capacity)).collect(),
            events: record_events.then(|| Ring::new(event_capacity)),
        }
    }

    #[inline]
    fn record(&self, kind: EventKind, id: TaskId, core: u32, t_ns: u64) {
        self.record_aux(kind, id, core, t_ns, u64::MAX);
    }

    #[inline]
    fn record_aux(&self, kind: EventKind, id: TaskId, core: u32, t_ns: u64, aux: u64) {
        if let Some(ring) = &self.events {
            ring.push(RtEvent {
                t_ns,
                aux,
                id,
                core,
                kind,
            });
        }
    }

    /// Time a burst of synthetic records, returning the estimated cost in
    /// nanoseconds of `n_records` real ones. Uses a scratch recorder so
    /// the measurement does not pollute the stream being estimated.
    pub fn estimate_overhead_ns(n_records: u64) -> u64 {
        const CALIBRATION: u64 = 4096;
        let scratch = EventRecorder::with_capacity(1, true, 64, CALIBRATION as usize);
        let t0 = std::time::Instant::now();
        for i in 0..CALIBRATION {
            scratch.record(EventKind::Completed, TaskId(i as u32), 0, i);
        }
        let per_record = t0.elapsed().as_nanos() as u64 / CALIBRATION;
        per_record.saturating_mul(n_records)
    }

    /// Drain everything into an [`ObsReport`]. Must run at quiescence.
    ///
    /// `rebase` subtracts the earliest timestamp (span start or event)
    /// from every record — the wall-clock back-end's `Instant` offsets
    /// become zero-based; the virtual-time back-end passes `false` because
    /// its clock already starts at zero. `span_ns` measures the extent of
    /// *execution* spans (work/overhead/idle); a discovery-only trace
    /// falls back to the full extent so it stays well-formed (regression:
    /// `t_min` must come from all spans, not just execution ones, or a
    /// wall-clock discovery-only trace keeps its arbitrary origin).
    pub fn finish(&self, rebase: bool, n_workers: usize, discovery_ns: u64) -> ObsReport {
        let mut spans: Vec<Span> = Vec::new();
        for lane in &self.lanes {
            spans.append(&mut lane.drain());
        }
        let mut events = match &self.events {
            Some(ring) => ring.drain(),
            None => Vec::new(),
        };
        let n_records = (spans.len() + events.len()) as u64;

        let t0 = if rebase {
            spans
                .iter()
                .map(|s| s.start_ns)
                .chain(events.iter().map(|e| e.t_ns))
                .min()
                .unwrap_or(0)
        } else {
            0
        };
        for s in &mut spans {
            s.start_ns -= t0;
            s.end_ns -= t0;
        }
        for e in &mut events {
            e.t_ns -= t0;
        }
        let exec_extent = |f: &dyn Fn(&Span) -> bool| {
            let lo = spans.iter().filter(|s| f(s)).map(|s| s.start_ns).min();
            let hi = spans.iter().filter(|s| f(s)).map(|s| s.end_ns).max();
            match (lo, hi) {
                (Some(lo), Some(hi)) => Some(hi - lo),
                _ => None,
            }
        };
        let span_ns = exec_extent(&|s: &Span| s.kind != SpanKind::Discovery)
            .or_else(|| exec_extent(&|_| true))
            .unwrap_or(0);

        let counters = RtCounters {
            events_recorded: events.len() as u64,
            events_dropped: 0,
            trace_overhead_ns: if n_records > 0 {
                EventRecorder::estimate_overhead_ns(n_records)
            } else {
                0
            },
            ..Default::default()
        };
        ObsReport {
            trace: Trace {
                spans,
                n_workers,
                discovery_ns,
                span_ns,
            },
            events,
            counters,
        }
    }
}

impl RtProbe for EventRecorder {
    fn task_created(&self, id: TaskId, t_ns: u64) {
        self.record(EventKind::Created, id, u32::MAX, t_ns);
    }
    fn task_ready(&self, id: TaskId, t_ns: u64) {
        self.record(EventKind::Ready, id, u32::MAX, t_ns);
    }
    fn task_scheduled(&self, id: TaskId, core: usize, t_ns: u64) {
        self.record(EventKind::Scheduled, id, core as u32, t_ns);
    }
    fn task_completed(&self, id: TaskId, core: usize, t_ns: u64) {
        self.record(EventKind::Completed, id, core as u32, t_ns);
    }
    fn comm_posted(&self, id: TaskId, req: u64, core: usize, t_ns: u64) {
        self.record_aux(EventKind::CommPosted, id, core as u32, t_ns, req);
    }
    fn comm_completed(&self, id: TaskId, req: u64, core: usize, t_ns: u64) {
        self.record_aux(EventKind::CommCompleted, id, core as u32, t_ns, req);
    }
    fn span(&self, span: Span) {
        let lane = span.worker as usize;
        debug_assert!(
            lane < self.lanes.len(),
            "span from out-of-range lane {lane} (recorder has {})",
            self.lanes.len()
        );
        self.lanes[lane.min(self.lanes.len().saturating_sub(1))].push(span);
    }
    fn lifecycle_enabled(&self) -> bool {
        self.events.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(worker: u32, s: u64, e: u64, kind: SpanKind) -> Span {
        Span {
            worker,
            start_ns: s,
            end_ns: e,
            kind,
            name: "t",
            iter: 0,
        }
    }

    #[test]
    fn records_and_rebases_spans_and_events() {
        let r = EventRecorder::new(2, true);
        r.span(span(0, 1_000, 1_500, SpanKind::Work));
        r.span(span(1, 1_200, 2_000, SpanKind::Work));
        r.task_created(TaskId(0), 900);
        r.task_completed(TaskId(0), 0, 1_500);
        let obs = r.finish(true, 2, 7);
        assert_eq!(obs.trace.discovery_ns, 7);
        assert_eq!(obs.trace.span_ns, 1_000, "work extent");
        // earliest record is the Created event at 900: everything shifts
        assert_eq!(obs.events[0].t_ns, 0);
        assert_eq!(obs.trace.spans.iter().map(|s| s.start_ns).min(), Some(100));
        assert_eq!(obs.counters.events_recorded, 2);
        assert_eq!(obs.counters.events_dropped, 0);
        assert!(obs.counters.trace_overhead_ns > 0, "self-measured cost");
    }

    #[test]
    fn discovery_only_trace_is_zero_based() {
        // Regression: a wall-clock trace holding only discovery spans must
        // still be rebased to zero and keep a meaningful extent.
        let r = EventRecorder::new(1, false);
        r.span(span(0, 5_000_000, 5_000_400, SpanKind::Discovery));
        r.span(span(0, 5_000_400, 5_001_000, SpanKind::Discovery));
        let obs = r.finish(true, 1, 1_000);
        assert_eq!(obs.trace.spans.iter().map(|s| s.start_ns).min(), Some(0));
        assert_eq!(obs.trace.span_ns, 1_000, "falls back to full extent");
    }

    #[test]
    fn execution_extent_excludes_discovery() {
        // discovery spans 0..1000 on the producer lane, work only 400..600
        let r = EventRecorder::new(2, false);
        r.span(span(1, 0, 1_000, SpanKind::Discovery));
        r.span(span(0, 400, 600, SpanKind::Work));
        let obs = r.finish(true, 2, 1_000);
        assert_eq!(obs.trace.span_ns, 200, "span_ns is the execution extent");
    }

    #[test]
    fn virtual_time_is_not_rebased() {
        let r = EventRecorder::new(1, true);
        r.span(span(0, 100, 200, SpanKind::Work));
        r.task_created(TaskId(3), 50);
        let obs = r.finish(false, 1, 0);
        assert_eq!(obs.trace.spans[0].start_ns, 100);
        assert_eq!(obs.events[0].t_ns, 50);
    }

    #[test]
    fn ring_overflow_spills_without_loss() {
        let r = EventRecorder::with_capacity(1, true, 4, 4);
        for i in 0..10u32 {
            r.task_created(TaskId(i), i as u64);
        }
        let obs = r.finish(false, 1, 0);
        assert_eq!(obs.events.len(), 10, "overflow spills, never drops");
        let ids: Vec<u32> = obs.events.iter().map(|e| e.id.0).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>(), "claim order kept");
    }

    #[test]
    fn concurrent_pushes_keep_causal_order() {
        use std::sync::Arc;
        let r = Arc::new(EventRecorder::new(4, true));
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let r = Arc::clone(&r);
                let b = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    b.wait();
                    for i in 0..1_000u32 {
                        r.task_created(TaskId(t * 1_000 + i), 0);
                        r.span(span(t, i as u64, i as u64 + 1, SpanKind::Work));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let obs = r.finish(false, 4, 0);
        assert_eq!(obs.events.len(), 4_000);
        assert_eq!(obs.trace.spans.len(), 4_000);
        // per-thread order is preserved (claims of one thread are ordered)
        for t in 0..4u32 {
            let ids: Vec<u32> = obs
                .events
                .iter()
                .filter(|e| e.id.0 / 1_000 == t)
                .map(|e| e.id.0)
                .collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(ids, sorted, "thread {t} claims in order");
        }
    }

    #[test]
    fn null_events_cost_nothing_to_finish() {
        let r = EventRecorder::new(1, false);
        assert!(!r.lifecycle_enabled());
        r.task_created(TaskId(0), 1); // silently ignored
        let obs = r.finish(true, 1, 0);
        assert!(obs.events.is_empty());
        assert_eq!(obs.counters.trace_overhead_ns, 0);
    }
}

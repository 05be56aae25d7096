//! Event sinks: where a simulated run's events go.
//!
//! The execution engine (`skip-runtime`) is generic over an [`EventSink`].
//! Two implementations live here:
//!
//! 1. [`Trace`] — the full CUPTI-style recorder. Every event is interned
//!    and stored; this is what the SKIP profiler and the Chrome exporter
//!    consume, and its output is pinned byte-for-byte by the golden
//!    fixture.
//! 2. [`RunSummary`] — a zero-allocation aggregator for consumers that
//!    only need a handful of numbers (the serving latency model prices a
//!    cold key from `last kernel end − first op begin` alone). It tracks
//!    first/last timestamps, per-class kernel busy time and event counts
//!    in fixed-size fields and discards everything else, so summarising a
//!    run costs no heap traffic at all on the sink side.
//!
//! Kernel class attribution crosses a crate boundary: the hardware model's
//! kernel taxonomy lives in `skip-hw`, which this crate must not depend on
//! (the trace format is upstream of the platform model). Producers
//! therefore tag kernels with an opaque [`KernelClassTag`] slot index; the
//! runtime maps its `KernelClass` enum onto tags.

use skip_des::{SimDuration, SimTime};

use crate::event::{CpuOpEvent, KernelEvent, RuntimeLaunchEvent};
use crate::ids::NameId;
use crate::trace::Trace;

/// Opaque kernel-class slot for per-class busy-time attribution.
///
/// The producer (the runtime) owns the mapping from its kernel taxonomy to
/// slots; [`RunSummary`] just accumulates busy time per slot. Tags at or
/// beyond [`KernelClassTag::SLOTS`] are clamped into the last slot, so an
/// extended taxonomy degrades to "other" instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelClassTag(u8);

impl KernelClassTag {
    /// Number of distinct accumulation slots a [`RunSummary`] carries.
    pub const SLOTS: usize = 16;

    /// Creates a tag for `slot`, clamping into the last slot if out of
    /// range.
    #[must_use]
    pub const fn new(slot: u8) -> Self {
        if (slot as usize) < Self::SLOTS {
            KernelClassTag(slot)
        } else {
            KernelClassTag((Self::SLOTS - 1) as u8)
        }
    }

    /// The slot index.
    #[must_use]
    pub const fn slot(self) -> usize {
        self.0 as usize
    }
}

/// Destination for the events one engine run produces.
///
/// The engine calls [`intern_name`](Self::intern_name) before recording an
/// event that carries a name, exactly as it would against a [`Trace`]; a
/// sink that does not store names (like [`RunSummary`]) may return a dummy
/// id. Events arrive in the same order a real profiler would observe them
/// (per-thread/per-stream timestamp order).
pub trait EventSink {
    /// Interns an event name, returning the id to embed in events.
    fn intern_name(&mut self, name: &str) -> NameId;
    /// Records a CPU operator event.
    fn record_cpu_op(&mut self, ev: CpuOpEvent);
    /// Records a runtime launch event.
    fn record_launch(&mut self, ev: RuntimeLaunchEvent);
    /// Records a kernel event, tagged with its class slot.
    fn record_kernel(&mut self, ev: KernelEvent, class: KernelClassTag);
}

/// The full recorder: events land in the trace unchanged. The class tag is
/// dropped — a trace attributes kernels by name, not by class.
impl EventSink for Trace {
    fn intern_name(&mut self, name: &str) -> NameId {
        self.intern(name)
    }

    fn record_cpu_op(&mut self, ev: CpuOpEvent) {
        self.push_cpu_op(ev);
    }

    fn record_launch(&mut self, ev: RuntimeLaunchEvent) {
        self.push_launch(ev);
    }

    fn record_kernel(&mut self, ev: KernelEvent, _class: KernelClassTag) {
        self.push_kernel(ev);
    }
}

/// Aggregates of one engine run, accumulated without storing events.
///
/// Mirrors the reductions the serving stack applies to full traces: the
/// inference latency of the paper's Eq. 4 ([`latency`](Self::latency)),
/// the overall event span ([`span`](Self::span)), per-class kernel busy
/// time and event counts. All fields are fixed-size; recording an event
/// never allocates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunSummary {
    first_cpu_begin: Option<SimTime>,
    last_kernel_end: Option<SimTime>,
    first_begin: Option<SimTime>,
    last_end: Option<SimTime>,
    class_busy: [SimDuration; KernelClassTag::SLOTS],
    cpu_ops: u64,
    launches: u64,
    kernels: u64,
}

impl RunSummary {
    /// An empty summary (no events recorded yet).
    #[must_use]
    pub fn new() -> Self {
        RunSummary::default()
    }

    /// Inference latency (paper Eq. 4): last kernel end − first CPU
    /// operator begin.
    ///
    /// Matches the serving latency model's trace reduction exactly,
    /// including the edge cases: a missing first operator reads as time
    /// zero, the subtraction saturates, and a run with no kernels falls
    /// back to the event span.
    #[must_use]
    pub fn latency(&self) -> SimDuration {
        let first = self.first_cpu_begin.unwrap_or(SimTime::ZERO);
        match self.last_kernel_end {
            Some(end) => end.saturating_duration_since(first),
            None => self.span(),
        }
    }

    /// Wall-clock span across all recorded events (last end − first
    /// begin), zero when empty. Matches [`Trace::span`] for traces without
    /// counter samples (the engine emits none).
    #[must_use]
    pub fn span(&self) -> SimDuration {
        match (self.first_begin, self.last_end) {
            (Some(a), Some(b)) => b.duration_since(a),
            _ => SimDuration::ZERO,
        }
    }

    /// Earliest CPU operator begin, if any operator was recorded.
    #[must_use]
    pub fn first_cpu_begin(&self) -> Option<SimTime> {
        self.first_cpu_begin
    }

    /// Latest kernel end, if any kernel was recorded.
    #[must_use]
    pub fn last_kernel_end(&self) -> Option<SimTime> {
        self.last_kernel_end
    }

    /// Total kernel busy time attributed to `class`.
    #[must_use]
    pub fn class_busy(&self, class: KernelClassTag) -> SimDuration {
        self.class_busy[class.slot()]
    }

    /// Total kernel busy time across all classes.
    #[must_use]
    pub fn gpu_busy(&self) -> SimDuration {
        self.class_busy
            .iter()
            .fold(SimDuration::ZERO, |acc, &d| acc + d)
    }

    /// Number of CPU operator events recorded.
    #[must_use]
    pub fn cpu_ops(&self) -> u64 {
        self.cpu_ops
    }

    /// Number of runtime launch events recorded.
    #[must_use]
    pub fn launches(&self) -> u64 {
        self.launches
    }

    /// Number of kernel events recorded.
    #[must_use]
    pub fn kernels(&self) -> u64 {
        self.kernels
    }

    fn see(&mut self, begin: SimTime, end: SimTime) {
        self.first_begin = Some(self.first_begin.map_or(begin, |f| f.min(begin)));
        self.last_end = Some(self.last_end.map_or(end, |l| l.max(end)));
    }
}

impl EventSink for RunSummary {
    fn intern_name(&mut self, _name: &str) -> NameId {
        NameId::new(0)
    }

    fn record_cpu_op(&mut self, ev: CpuOpEvent) {
        self.first_cpu_begin = Some(self.first_cpu_begin.map_or(ev.begin, |f| f.min(ev.begin)));
        self.see(ev.begin, ev.end);
        self.cpu_ops += 1;
    }

    fn record_launch(&mut self, ev: RuntimeLaunchEvent) {
        self.see(ev.begin, ev.end);
        self.launches += 1;
    }

    fn record_kernel(&mut self, ev: KernelEvent, class: KernelClassTag) {
        self.last_kernel_end = Some(self.last_kernel_end.map_or(ev.end, |l| l.max(ev.end)));
        self.see(ev.begin, ev.end);
        self.class_busy[class.slot()] += ev.end.duration_since(ev.begin);
        self.kernels += 1;
    }
}

/// Reduces an existing trace to the same aggregates a [`RunSummary`] sink
/// would have accumulated during the run (counter samples carry no class
/// information and are ignored, as the engine never emits them). Kernel
/// busy time all lands in slot 0 — a stored trace does not retain the
/// producer's class tags.
#[must_use]
pub fn summarize_trace(trace: &Trace) -> RunSummary {
    let mut s = RunSummary::new();
    for ev in trace.cpu_ops() {
        s.record_cpu_op(*ev);
    }
    for ev in trace.launches() {
        s.record_launch(ev);
    }
    for ev in trace.kernels() {
        s.record_kernel(ev, KernelClassTag::new(0));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{CorrelationId, OpId, StreamId, ThreadId};

    fn ns(v: u64) -> SimTime {
        SimTime::from_nanos(v)
    }

    fn op(begin: u64, end: u64) -> CpuOpEvent {
        CpuOpEvent {
            id: OpId::new(0),
            name: NameId::new(0),
            thread: ThreadId::MAIN,
            begin: ns(begin),
            end: ns(end),
        }
    }

    fn kernel(begin: u64, end: u64) -> KernelEvent {
        KernelEvent {
            name: NameId::new(0),
            stream: StreamId::DEFAULT,
            begin: ns(begin),
            end: ns(end),
            correlation: CorrelationId::new(1),
        }
    }

    #[test]
    fn latency_is_last_kernel_end_minus_first_cpu_begin() {
        let mut s = RunSummary::new();
        s.record_cpu_op(op(10, 40));
        s.record_cpu_op(op(5, 20)); // earlier begin recorded out of order
        s.record_kernel(kernel(50, 90), KernelClassTag::new(0));
        s.record_kernel(kernel(90, 120), KernelClassTag::new(1));
        assert_eq!(s.latency(), SimDuration::from_nanos(115));
        assert_eq!(s.first_cpu_begin(), Some(ns(5)));
        assert_eq!(s.last_kernel_end(), Some(ns(120)));
        assert_eq!(s.cpu_ops(), 2);
        assert_eq!(s.kernels(), 2);
    }

    /// Pinned semantics for kernel-free runs: `latency()` falls back to
    /// the overall event span, exactly like the serving model's reduction
    /// of a kernel-free trace.
    #[test]
    fn zero_kernel_latency_falls_back_to_span() {
        let mut s = RunSummary::new();
        s.record_cpu_op(op(100, 160));
        s.record_cpu_op(op(160, 400));
        assert_eq!(s.last_kernel_end(), None);
        assert_eq!(s.span(), SimDuration::from_nanos(300));
        assert_eq!(s.latency(), SimDuration::from_nanos(300));
        // Entirely empty: both reductions are zero, not a panic.
        let empty = RunSummary::new();
        assert_eq!(empty.latency(), SimDuration::ZERO);
        assert_eq!(empty.span(), SimDuration::ZERO);
    }

    #[test]
    fn latency_saturates_when_kernels_end_before_first_op() {
        let mut s = RunSummary::new();
        s.record_cpu_op(op(500, 600));
        s.record_kernel(kernel(0, 100), KernelClassTag::new(0));
        assert_eq!(s.latency(), SimDuration::ZERO);
    }

    #[test]
    fn class_busy_accumulates_per_slot_and_clamps() {
        let mut s = RunSummary::new();
        s.record_kernel(kernel(0, 10), KernelClassTag::new(2));
        s.record_kernel(kernel(10, 25), KernelClassTag::new(2));
        s.record_kernel(kernel(25, 30), KernelClassTag::new(200)); // clamped
        assert_eq!(
            s.class_busy(KernelClassTag::new(2)),
            SimDuration::from_nanos(25)
        );
        assert_eq!(
            s.class_busy(KernelClassTag::new((KernelClassTag::SLOTS - 1) as u8)),
            SimDuration::from_nanos(5)
        );
        assert_eq!(s.gpu_busy(), SimDuration::from_nanos(30));
    }

    #[test]
    fn trace_sink_matches_direct_pushes() {
        let mut via_sink = Trace::default();
        let name = EventSink::intern_name(&mut via_sink, "aten::linear");
        via_sink.record_cpu_op(CpuOpEvent { name, ..op(0, 10) });
        via_sink.record_launch(RuntimeLaunchEvent {
            name,
            thread: ThreadId::MAIN,
            begin: ns(2),
            end: ns(4),
            correlation: CorrelationId::new(1),
        });
        via_sink.record_kernel(kernel(5, 9), KernelClassTag::new(3));

        let mut direct = Trace::default();
        let n = direct.intern("aten::linear");
        direct.push_cpu_op(CpuOpEvent {
            name: n,
            ..op(0, 10)
        });
        direct.push_launch(RuntimeLaunchEvent {
            name: n,
            thread: ThreadId::MAIN,
            begin: ns(2),
            end: ns(4),
            correlation: CorrelationId::new(1),
        });
        direct.push_kernel(kernel(5, 9));
        assert_eq!(via_sink, direct);
    }

    #[test]
    fn summarize_trace_matches_sink_reductions() {
        let mut t = Trace::default();
        let n = t.intern("x");
        t.push_cpu_op(CpuOpEvent {
            name: n,
            ..op(3, 8)
        });
        t.push_launch(RuntimeLaunchEvent {
            name: n,
            thread: ThreadId::MAIN,
            begin: ns(4),
            end: ns(5),
            correlation: CorrelationId::new(1),
        });
        t.push_kernel(KernelEvent {
            name: n,
            ..kernel(6, 20)
        });
        let s = summarize_trace(&t);
        assert_eq!(s.latency(), SimDuration::from_nanos(17));
        assert_eq!(s.span(), t.span());
        assert_eq!((s.cpu_ops(), s.launches(), s.kernels()), (1, 1, 1));
        assert_eq!(s.gpu_busy(), SimDuration::from_nanos(14));
    }
}

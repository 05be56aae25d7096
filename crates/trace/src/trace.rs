//! The [`Trace`] container: everything one profiled inference produced.

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};
use skip_des::{SimDuration, SimTime};

use crate::event::{CounterEvent, CpuOpEvent, KernelEvent, RuntimeLaunchEvent};
use crate::ids::{CorrelationId, NameId, StreamId, ThreadId};
use crate::names::NameTable;

/// Descriptive metadata attached to a trace: which workload, which platform,
/// which execution mode produced it.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Model name, e.g. `"gpt2"`.
    pub model: String,
    /// Platform name, e.g. `"intel_h100"`.
    pub platform: String,
    /// Execution mode, e.g. `"eager"`.
    pub exec_mode: String,
    /// Inference phase, e.g. `"prefill"`.
    pub phase: String,
    /// Batch size.
    pub batch_size: u32,
    /// Input sequence length in tokens.
    pub seq_len: u32,
}

/// Errors produced by [`Trace::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// An event's end timestamp precedes its begin timestamp.
    NegativeDuration {
        /// Human-readable description of the offending event.
        what: String,
    },
    /// Two kernels share a correlation ID.
    DuplicateKernelCorrelation(CorrelationId),
    /// Two launch calls share a correlation ID.
    DuplicateLaunchCorrelation(CorrelationId),
    /// A kernel's correlation ID has no matching launch call.
    OrphanKernel(CorrelationId),
    /// A kernel begins before the launch call that triggered it.
    KernelBeforeLaunch(CorrelationId),
    /// Two kernels on the same stream overlap in time.
    StreamOverlap {
        /// The stream on which the overlap occurred.
        stream: StreamId,
    },
    /// A counter sample holds a NaN or infinite value.
    NonFiniteCounter {
        /// The counter track the bad sample belongs to.
        track: String,
    },
    /// An event's name id does not resolve through the trace's name table.
    UnknownName(NameId),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::NegativeDuration { what } => {
                write!(f, "event has end before begin: {what}")
            }
            TraceError::DuplicateKernelCorrelation(c) => {
                write!(f, "duplicate kernel correlation id {c}")
            }
            TraceError::DuplicateLaunchCorrelation(c) => {
                write!(f, "duplicate launch correlation id {c}")
            }
            TraceError::OrphanKernel(c) => {
                write!(f, "kernel correlation id {c} has no launch call")
            }
            TraceError::KernelBeforeLaunch(c) => {
                write!(f, "kernel {c} begins before its launch call")
            }
            TraceError::StreamOverlap { stream } => {
                write!(f, "overlapping kernels on {stream}")
            }
            TraceError::NonFiniteCounter { track } => {
                write!(f, "counter track {track} holds a non-finite sample")
            }
            TraceError::UnknownName(id) => {
                write!(f, "event name {id} is not in the trace's name table")
            }
        }
    }
}

impl Error for TraceError {}

/// Column-major (struct-of-arrays) storage for the launch array: each field
/// of [`RuntimeLaunchEvent`] lives in its own contiguous `Vec`, so analyses
/// that scan one field — the attribution sweep reads only the timestamp
/// columns — walk dense cache lines instead of striding over whole event
/// structs. Serialized as the row-major event list it replaced (see the
/// manual `Serialize`/`Deserialize` impls below), so the JSON encoding is
/// byte-identical to the AoS layout.
#[derive(Debug, Clone, Default)]
struct LaunchColumns {
    names: Vec<NameId>,
    threads: Vec<ThreadId>,
    begins: Vec<SimTime>,
    ends: Vec<SimTime>,
    correlations: Vec<CorrelationId>,
}

impl LaunchColumns {
    fn len(&self) -> usize {
        self.begins.len()
    }

    fn push(&mut self, ev: RuntimeLaunchEvent) {
        self.names.push(ev.name);
        self.threads.push(ev.thread);
        self.begins.push(ev.begin);
        self.ends.push(ev.end);
        self.correlations.push(ev.correlation);
    }

    fn get(&self, i: usize) -> RuntimeLaunchEvent {
        RuntimeLaunchEvent {
            name: self.names[i],
            thread: self.threads[i],
            begin: self.begins[i],
            end: self.ends[i],
            correlation: self.correlations[i],
        }
    }
}

impl From<Vec<RuntimeLaunchEvent>> for LaunchColumns {
    fn from(rows: Vec<RuntimeLaunchEvent>) -> Self {
        let mut cols = LaunchColumns::default();
        cols.names.reserve(rows.len());
        cols.threads.reserve(rows.len());
        cols.begins.reserve(rows.len());
        cols.ends.reserve(rows.len());
        cols.correlations.reserve(rows.len());
        for ev in rows {
            cols.push(ev);
        }
        cols
    }
}

impl From<LaunchColumns> for Vec<RuntimeLaunchEvent> {
    fn from(cols: LaunchColumns) -> Self {
        (0..cols.len()).map(|i| cols.get(i)).collect()
    }
}

// Columns encode as the row-major event list they replaced, keeping the
// serialized trace format identical to the AoS layout.
impl Serialize for LaunchColumns {
    fn to_value(&self) -> serde::Value {
        let rows: Vec<RuntimeLaunchEvent> = (0..self.len()).map(|i| self.get(i)).collect();
        rows.to_value()
    }
}

impl<'de> Deserialize<'de> for LaunchColumns {
    fn from_value(value: &'de serde::Value) -> Result<Self, serde::DeError> {
        Ok(Vec::<RuntimeLaunchEvent>::from_value(value)?.into())
    }
}

/// Column-major (struct-of-arrays) storage for the kernel array; see
/// [`LaunchColumns`] for the layout rationale and serialization contract.
#[derive(Debug, Clone, Default)]
struct KernelColumns {
    names: Vec<NameId>,
    streams: Vec<StreamId>,
    begins: Vec<SimTime>,
    ends: Vec<SimTime>,
    correlations: Vec<CorrelationId>,
}

impl KernelColumns {
    fn len(&self) -> usize {
        self.begins.len()
    }

    fn push(&mut self, ev: KernelEvent) {
        self.names.push(ev.name);
        self.streams.push(ev.stream);
        self.begins.push(ev.begin);
        self.ends.push(ev.end);
        self.correlations.push(ev.correlation);
    }

    fn get(&self, i: usize) -> KernelEvent {
        KernelEvent {
            name: self.names[i],
            stream: self.streams[i],
            begin: self.begins[i],
            end: self.ends[i],
            correlation: self.correlations[i],
        }
    }
}

impl From<Vec<KernelEvent>> for KernelColumns {
    fn from(rows: Vec<KernelEvent>) -> Self {
        let mut cols = KernelColumns::default();
        cols.names.reserve(rows.len());
        cols.streams.reserve(rows.len());
        cols.begins.reserve(rows.len());
        cols.ends.reserve(rows.len());
        cols.correlations.reserve(rows.len());
        for ev in rows {
            cols.push(ev);
        }
        cols
    }
}

impl From<KernelColumns> for Vec<KernelEvent> {
    fn from(cols: KernelColumns) -> Self {
        (0..cols.len()).map(|i| cols.get(i)).collect()
    }
}

impl Serialize for KernelColumns {
    fn to_value(&self) -> serde::Value {
        let rows: Vec<KernelEvent> = (0..self.len()).map(|i| self.get(i)).collect();
        rows.to_value()
    }
}

impl<'de> Deserialize<'de> for KernelColumns {
    fn from_value(value: &'de serde::Value) -> Result<Self, serde::DeError> {
        Ok(Vec::<KernelEvent>::from_value(value)?.into())
    }
}

/// Borrowed view over the trace's launch columns.
///
/// Iterating (`for l in trace.launches()`) yields *owned*
/// [`RuntimeLaunchEvent`]s materialized from the columns — events are
/// `Copy`, so this costs the same loads the AoS layout did. Sweeps that
/// only need one field should read the column accessors
/// ([`Launches::begins`], [`Launches::ends`], …) directly: those are the
/// contiguous arrays the struct-of-arrays layout exists for.
#[derive(Clone, Copy)]
pub struct Launches<'a> {
    cols: &'a LaunchColumns,
}

impl<'a> Launches<'a> {
    /// Number of launch events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// `true` if there are no launch events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cols.len() == 0
    }

    /// The `i`-th launch event, materialized from the columns.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (like slice indexing).
    #[must_use]
    pub fn get(&self, i: usize) -> RuntimeLaunchEvent {
        self.cols.get(i)
    }

    /// The first launch event, if any.
    #[must_use]
    pub fn first(&self) -> Option<RuntimeLaunchEvent> {
        (!self.is_empty()).then(|| self.get(0))
    }

    /// The last launch event, if any.
    #[must_use]
    pub fn last(&self) -> Option<RuntimeLaunchEvent> {
        self.len().checked_sub(1).map(|i| self.get(i))
    }

    /// Iterates over launch events in insertion order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = RuntimeLaunchEvent> + 'a {
        let cols = self.cols;
        (0..cols.len()).map(move |i| cols.get(i))
    }

    /// The interned-name column.
    #[must_use]
    pub fn names(&self) -> &'a [NameId] {
        &self.cols.names
    }

    /// The thread column.
    #[must_use]
    pub fn threads(&self) -> &'a [ThreadId] {
        &self.cols.threads
    }

    /// The begin-timestamp column.
    #[must_use]
    pub fn begins(&self) -> &'a [SimTime] {
        &self.cols.begins
    }

    /// The end-timestamp column.
    #[must_use]
    pub fn ends(&self) -> &'a [SimTime] {
        &self.cols.ends
    }

    /// The correlation-id column.
    #[must_use]
    pub fn correlations(&self) -> &'a [CorrelationId] {
        &self.cols.correlations
    }
}

impl<'a> IntoIterator for Launches<'a> {
    type Item = RuntimeLaunchEvent;
    type IntoIter = Box<dyn ExactSizeIterator<Item = RuntimeLaunchEvent> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        let cols = self.cols;
        Box::new((0..cols.len()).map(move |i| cols.get(i)))
    }
}

/// Borrowed view over the trace's kernel columns; see [`Launches`] for the
/// iteration/column-access contract.
#[derive(Clone, Copy)]
pub struct Kernels<'a> {
    cols: &'a KernelColumns,
}

impl<'a> Kernels<'a> {
    /// Number of kernel events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// `true` if there are no kernel events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cols.len() == 0
    }

    /// The `i`-th kernel event, materialized from the columns.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (like slice indexing).
    #[must_use]
    pub fn get(&self, i: usize) -> KernelEvent {
        self.cols.get(i)
    }

    /// The first kernel event, if any.
    #[must_use]
    pub fn first(&self) -> Option<KernelEvent> {
        (!self.is_empty()).then(|| self.get(0))
    }

    /// The last kernel event, if any.
    #[must_use]
    pub fn last(&self) -> Option<KernelEvent> {
        self.len().checked_sub(1).map(|i| self.get(i))
    }

    /// Iterates over kernel events in insertion order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = KernelEvent> + 'a {
        let cols = self.cols;
        (0..cols.len()).map(move |i| cols.get(i))
    }

    /// The interned-name column.
    #[must_use]
    pub fn names(&self) -> &'a [NameId] {
        &self.cols.names
    }

    /// The stream column.
    #[must_use]
    pub fn streams(&self) -> &'a [StreamId] {
        &self.cols.streams
    }

    /// The begin-timestamp column.
    #[must_use]
    pub fn begins(&self) -> &'a [SimTime] {
        &self.cols.begins
    }

    /// The end-timestamp column.
    #[must_use]
    pub fn ends(&self) -> &'a [SimTime] {
        &self.cols.ends
    }

    /// The correlation-id column.
    #[must_use]
    pub fn correlations(&self) -> &'a [CorrelationId] {
        &self.cols.correlations
    }
}

impl<'a> IntoIterator for Kernels<'a> {
    type Item = KernelEvent;
    type IntoIter = Box<dyn ExactSizeIterator<Item = KernelEvent> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        let cols = self.cols;
        Box::new((0..cols.len()).map(move |i| cols.get(i)))
    }
}

/// A complete profiled-inference trace: CPU operator events, runtime launch
/// calls and GPU kernel executions, plus metadata.
///
/// Events are stored in insertion order; producers append in timestamp order
/// per thread/stream (as a real profiler does), and consumers that need
/// global orderings sort themselves.
///
/// The launch and kernel arrays — the hot arrays every analysis sweeps —
/// are stored column-major (struct-of-arrays): one contiguous `Vec` per
/// field. [`Trace::launches`]/[`Trace::kernels`] return lightweight views
/// that iterate owned events for row-style consumers and expose the raw
/// timestamp/name/correlation columns for sweeps. CPU operator events stay
/// row-major: they are consumed whole (hierarchy recovery needs every
/// field). The serialized form is unchanged — columns encode as the
/// row-major event lists they replaced.
///
/// Event names are interned in the trace's [`NameTable`]: producers call
/// [`Trace::intern`] before pushing an event, consumers resolve with
/// [`Trace::name`]. Two traces compare equal when their events carry the
/// same *resolved* names — the numeric id assignment (which depends on
/// interning order) is not observable.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    meta: TraceMeta,
    /// Interned event names. Absent from traces serialized before interning
    /// existed (all of which carried names inline — see `chrome` import for
    /// the migration path).
    #[serde(default)]
    names: NameTable,
    cpu_ops: Vec<CpuOpEvent>,
    launches: LaunchColumns,
    kernels: KernelColumns,
    /// Absent from traces serialized before counter support existed.
    #[serde(default)]
    counters: Vec<CounterEvent>,
}

impl Trace {
    /// Creates an empty trace carrying `meta`.
    #[must_use]
    pub fn new(meta: TraceMeta) -> Self {
        Trace {
            meta,
            ..Trace::default()
        }
    }

    /// The trace metadata.
    #[must_use]
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Interns an event name, returning its stable id (idempotent).
    pub fn intern(&mut self, name: &str) -> NameId {
        self.names.intern(name)
    }

    /// Resolves an interned event name.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not interned in this trace.
    #[must_use]
    pub fn name(&self, id: NameId) -> &str {
        self.names.resolve(id)
    }

    /// The trace's name table.
    #[must_use]
    pub fn names(&self) -> &NameTable {
        &self.names
    }

    /// CPU operator events in insertion order.
    #[must_use]
    pub fn cpu_ops(&self) -> &[CpuOpEvent] {
        &self.cpu_ops
    }

    /// Runtime launch events in insertion order, as a column view.
    #[must_use]
    pub fn launches(&self) -> Launches<'_> {
        Launches {
            cols: &self.launches,
        }
    }

    /// Kernel events in insertion order, as a column view.
    #[must_use]
    pub fn kernels(&self) -> Kernels<'_> {
        Kernels {
            cols: &self.kernels,
        }
    }

    /// Appends a CPU operator event.
    pub fn push_cpu_op(&mut self, ev: CpuOpEvent) {
        self.cpu_ops.push(ev);
    }

    /// Appends a runtime launch event.
    pub fn push_launch(&mut self, ev: RuntimeLaunchEvent) {
        self.launches.push(ev);
    }

    /// Appends a kernel event.
    pub fn push_kernel(&mut self, ev: KernelEvent) {
        self.kernels.push(ev);
    }

    /// Counter samples in insertion order.
    #[must_use]
    pub fn counters(&self) -> &[CounterEvent] {
        &self.counters
    }

    /// Appends a counter sample.
    pub fn push_counter(&mut self, ev: CounterEvent) {
        self.counters.push(ev);
    }

    /// Earliest begin timestamp across all events, or `None` if empty.
    #[must_use]
    pub fn first_timestamp(&self) -> Option<SimTime> {
        let ops = self.cpu_ops.iter().map(|e| e.begin);
        let ls = self.launches.begins.iter().copied();
        let ks = self.kernels.begins.iter().copied();
        let cs = self.counters.iter().map(|e| e.at);
        ops.chain(ls).chain(ks).chain(cs).min()
    }

    /// Latest end timestamp across all events, or `None` if empty.
    #[must_use]
    pub fn last_timestamp(&self) -> Option<SimTime> {
        let ops = self.cpu_ops.iter().map(|e| e.end);
        let ls = self.launches.ends.iter().copied();
        let ks = self.kernels.ends.iter().copied();
        let cs = self.counters.iter().map(|e| e.at);
        ops.chain(ls).chain(ks).chain(cs).max()
    }

    /// Wall-clock span of the trace (last end − first begin).
    #[must_use]
    pub fn span(&self) -> SimDuration {
        match (self.first_timestamp(), self.last_timestamp()) {
            (Some(a), Some(b)) => b.duration_since(a),
            _ => SimDuration::ZERO,
        }
    }

    /// Total number of events of all kinds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cpu_ops.len() + self.launches.len() + self.kernels.len() + self.counters.len()
    }

    /// `true` if the trace holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The set of streams that executed at least one kernel, ascending.
    #[must_use]
    pub fn streams(&self) -> Vec<StreamId> {
        let set: BTreeSet<StreamId> = self.kernels.streams.iter().copied().collect();
        set.into_iter().collect()
    }

    /// Kernels of one stream, sorted by begin time.
    #[must_use]
    pub fn kernels_on(&self, stream: StreamId) -> Vec<KernelEvent> {
        let mut ks: Vec<KernelEvent> = (0..self.kernels.len())
            .filter(|&i| self.kernels.streams[i] == stream)
            .map(|i| self.kernels.get(i))
            .collect();
        ks.sort_by_key(|k| (k.begin, k.correlation));
        ks
    }

    /// Checks the structural invariants a CUPTI trace satisfies:
    /// non-negative durations, every event name resolvable, unique
    /// correlation IDs per side, every kernel matched to a launch that
    /// precedes it, and non-overlapping kernels per stream.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), TraceError> {
        let resolve = |id: NameId| self.names.get(id).ok_or(TraceError::UnknownName(id));
        for o in &self.cpu_ops {
            let name = resolve(o.name)?;
            if o.end < o.begin {
                return Err(TraceError::NegativeDuration {
                    what: format!("cpu op {} ({name})", o.id),
                });
            }
        }
        // Correlation id → launch begin, for the kernel-after-launch check
        // below (a map lookup per kernel, not a scan per kernel).
        let mut launch_begins = std::collections::BTreeMap::new();
        for i in 0..self.launches.len() {
            let corr = self.launches.correlations[i];
            resolve(self.launches.names[i])?;
            if self.launches.ends[i] < self.launches.begins[i] {
                return Err(TraceError::NegativeDuration {
                    what: format!("launch {corr}"),
                });
            }
            if launch_begins
                .insert(corr, self.launches.begins[i])
                .is_some()
            {
                return Err(TraceError::DuplicateLaunchCorrelation(corr));
            }
        }
        let mut kernel_ids = BTreeSet::new();
        for i in 0..self.kernels.len() {
            let corr = self.kernels.correlations[i];
            let name = resolve(self.kernels.names[i])?;
            if self.kernels.ends[i] < self.kernels.begins[i] {
                return Err(TraceError::NegativeDuration {
                    what: format!("kernel {corr} ({name})"),
                });
            }
            if !kernel_ids.insert(corr) {
                return Err(TraceError::DuplicateKernelCorrelation(corr));
            }
            // Kernel must begin at or after the begin of its launch call.
            match launch_begins.get(&corr) {
                None => return Err(TraceError::OrphanKernel(corr)),
                Some(&launch_begin) if self.kernels.begins[i] < launch_begin => {
                    return Err(TraceError::KernelBeforeLaunch(corr));
                }
                Some(_) => {}
            }
        }
        // Per-stream kernels must not overlap.
        for stream in self.streams() {
            let ks = self.kernels_on(stream);
            for w in ks.windows(2) {
                if w[1].begin < w[0].end {
                    return Err(TraceError::StreamOverlap { stream });
                }
            }
        }
        for c in &self.counters {
            if !c.value.is_finite() {
                return Err(TraceError::NonFiniteCounter {
                    track: c.track.clone(),
                });
            }
        }
        Ok(())
    }
}

/// Semantic equality: meta, counters, and events with *resolved* names.
///
/// Two traces that record identical events may still assign different
/// numeric name ids (interning order depends on the producer — e.g. a
/// Chrome-trace import interns in export order, not simulation order), so
/// comparing raw `NameId`s would be wrong. Names are compared through each
/// trace's own table instead.
impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.meta == other.meta
            && self.counters == other.counters
            && self.cpu_ops.len() == other.cpu_ops.len()
            && self.launches.len() == other.launches.len()
            && self.kernels.len() == other.kernels.len()
            && self.cpu_ops.iter().zip(&other.cpu_ops).all(|(a, b)| {
                a.id == b.id
                    && a.thread == b.thread
                    && a.begin == b.begin
                    && a.end == b.end
                    && self.names.get(a.name) == other.names.get(b.name)
            })
            && self.launches.threads == other.launches.threads
            && self.launches.begins == other.launches.begins
            && self.launches.ends == other.launches.ends
            && self.launches.correlations == other.launches.correlations
            && self
                .launches
                .names
                .iter()
                .zip(&other.launches.names)
                .all(|(&a, &b)| self.names.get(a) == other.names.get(b))
            && self.kernels.streams == other.kernels.streams
            && self.kernels.begins == other.kernels.begins
            && self.kernels.ends == other.kernels.ends
            && self.kernels.correlations == other.kernels.correlations
            && self
                .kernels
                .names
                .iter()
                .zip(&other.kernels.names)
                .all(|(&a, &b)| self.names.get(a) == other.names.get(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{OpId, ThreadId};

    fn ns(v: u64) -> SimTime {
        SimTime::from_nanos(v)
    }

    fn sample_trace() -> Trace {
        let mut t = Trace::new(TraceMeta {
            model: "gpt2".into(),
            platform: "intel_h100".into(),
            exec_mode: "eager".into(),
            phase: "prefill".into(),
            batch_size: 1,
            seq_len: 512,
        });
        let linear = t.intern("aten::linear");
        t.push_cpu_op(CpuOpEvent {
            id: OpId::new(0),
            name: linear,
            thread: ThreadId::MAIN,
            begin: ns(0),
            end: ns(100),
        });
        let launch = t.intern("cudaLaunchKernel");
        t.push_launch(RuntimeLaunchEvent {
            name: launch,
            thread: ThreadId::MAIN,
            begin: ns(10),
            end: ns(20),
            correlation: CorrelationId::new(1),
        });
        let gemm = t.intern("gemm");
        t.push_kernel(KernelEvent {
            name: gemm,
            stream: StreamId::DEFAULT,
            begin: ns(30),
            end: ns(80),
            correlation: CorrelationId::new(1),
        });
        t
    }

    #[test]
    fn sample_is_valid_and_spans_correctly() {
        let t = sample_trace();
        t.validate().unwrap();
        assert_eq!(t.first_timestamp(), Some(ns(0)));
        assert_eq!(t.last_timestamp(), Some(ns(100)));
        assert_eq!(t.span(), SimDuration::from_nanos(100));
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.streams(), vec![StreamId::DEFAULT]);
    }

    #[test]
    fn names_resolve_through_the_trace() {
        let t = sample_trace();
        assert_eq!(t.name(t.cpu_ops()[0].name), "aten::linear");
        assert_eq!(t.name(t.launches().get(0).name), "cudaLaunchKernel");
        assert_eq!(t.name(t.kernels().get(0).name), "gemm");
        assert_eq!(t.names().len(), 3);
    }

    #[test]
    fn unknown_name_rejected() {
        let mut t = Trace::default();
        t.push_cpu_op(CpuOpEvent {
            id: OpId::new(0),
            name: NameId::new(7), // never interned
            thread: ThreadId::MAIN,
            begin: ns(0),
            end: ns(1),
        });
        assert_eq!(t.validate(), Err(TraceError::UnknownName(NameId::new(7))));
    }

    #[test]
    fn equality_is_by_resolved_name_not_raw_id() {
        // Same events, opposite interning order → equal anyway.
        let build = |flip: bool| {
            let mut t = Trace::default();
            let (a, b) = if flip {
                let b = t.intern("b");
                let a = t.intern("a");
                (a, b)
            } else {
                let a = t.intern("a");
                let b = t.intern("b");
                (a, b)
            };
            let l = t.intern("cudaLaunchKernel");
            for (corr, name) in [(1u64, a), (2, b)] {
                t.push_launch(RuntimeLaunchEvent {
                    name: l,
                    thread: ThreadId::MAIN,
                    begin: ns(corr * 10),
                    end: ns(corr * 10 + 1),
                    correlation: CorrelationId::new(corr),
                });
                t.push_kernel(KernelEvent {
                    name,
                    stream: StreamId::DEFAULT,
                    begin: ns(corr * 20),
                    end: ns(corr * 20 + 5),
                    correlation: CorrelationId::new(corr),
                });
            }
            t
        };
        assert_eq!(build(false), build(true));
        // …and different resolved names are unequal even with equal ids.
        let mut x = Trace::default();
        let nx = x.intern("x");
        x.push_kernel(KernelEvent {
            name: nx,
            stream: StreamId::DEFAULT,
            begin: ns(0),
            end: ns(1),
            correlation: CorrelationId::new(1),
        });
        let mut y = Trace::default();
        let ny = y.intern("y");
        y.push_kernel(KernelEvent {
            name: ny,
            stream: StreamId::DEFAULT,
            begin: ns(0),
            end: ns(1),
            correlation: CorrelationId::new(1),
        });
        assert_ne!(x, y);
    }

    #[test]
    fn orphan_kernel_rejected() {
        let mut t = sample_trace();
        let orphan = t.intern("orphan");
        t.push_kernel(KernelEvent {
            name: orphan,
            stream: StreamId::DEFAULT,
            begin: ns(90),
            end: ns(95),
            correlation: CorrelationId::new(99),
        });
        assert_eq!(
            t.validate(),
            Err(TraceError::OrphanKernel(CorrelationId::new(99)))
        );
    }

    #[test]
    fn duplicate_correlations_rejected() {
        let mut t = sample_trace();
        let launch = t.intern("cudaLaunchKernel");
        t.push_launch(RuntimeLaunchEvent {
            name: launch,
            thread: ThreadId::MAIN,
            begin: ns(40),
            end: ns(45),
            correlation: CorrelationId::new(1),
        });
        assert_eq!(
            t.validate(),
            Err(TraceError::DuplicateLaunchCorrelation(CorrelationId::new(
                1
            )))
        );
    }

    #[test]
    fn kernel_before_launch_rejected() {
        let mut t = Trace::default();
        let launch = t.intern("cudaLaunchKernel");
        let k = t.intern("k");
        t.push_launch(RuntimeLaunchEvent {
            name: launch,
            thread: ThreadId::MAIN,
            begin: ns(50),
            end: ns(60),
            correlation: CorrelationId::new(1),
        });
        t.push_kernel(KernelEvent {
            name: k,
            stream: StreamId::DEFAULT,
            begin: ns(40),
            end: ns(70),
            correlation: CorrelationId::new(1),
        });
        assert_eq!(
            t.validate(),
            Err(TraceError::KernelBeforeLaunch(CorrelationId::new(1)))
        );
    }

    #[test]
    fn stream_overlap_rejected() {
        let mut t = Trace::default();
        let launch = t.intern("cudaLaunchKernel");
        let k = t.intern("k");
        for (corr, (b, e)) in [(1u64, (10u64, 50u64)), (2, (40, 60))] {
            t.push_launch(RuntimeLaunchEvent {
                name: launch,
                thread: ThreadId::MAIN,
                begin: ns(0),
                end: ns(5),
                correlation: CorrelationId::new(corr),
            });
            t.push_kernel(KernelEvent {
                name: k,
                stream: StreamId::DEFAULT,
                begin: ns(b),
                end: ns(e),
                correlation: CorrelationId::new(corr),
            });
        }
        assert_eq!(
            t.validate(),
            Err(TraceError::StreamOverlap {
                stream: StreamId::DEFAULT
            })
        );
    }

    #[test]
    fn negative_duration_rejected() {
        let mut t = Trace::default();
        let bad = t.intern("aten::bad");
        t.push_cpu_op(CpuOpEvent {
            id: OpId::new(0),
            name: bad,
            thread: ThreadId::MAIN,
            begin: ns(10),
            end: ns(5),
        });
        assert!(matches!(
            t.validate(),
            Err(TraceError::NegativeDuration { .. })
        ));
    }

    #[test]
    fn empty_trace_is_valid() {
        let t = Trace::default();
        t.validate().unwrap();
        assert!(t.is_empty());
        assert_eq!(t.span(), SimDuration::ZERO);
        assert_eq!(t.first_timestamp(), None);
    }

    #[test]
    fn serde_roundtrip() {
        let t = sample_trace();
        let json = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
        // The id assignment itself round-trips too.
        assert_eq!(t.names(), back.names());
        assert_eq!(t.kernels().get(0).name, back.kernels().get(0).name);
    }

    #[test]
    fn counters_extend_span_and_len() {
        let mut t = sample_trace();
        let before = t.len();
        t.push_counter(CounterEvent {
            track: "queue_depth".into(),
            at: ns(500),
            value: 3.0,
        });
        t.validate().unwrap();
        assert_eq!(t.len(), before + 1);
        assert_eq!(t.counters().len(), 1);
        assert_eq!(t.last_timestamp(), Some(ns(500)));
    }

    #[test]
    fn non_finite_counter_rejected() {
        let mut t = Trace::default();
        t.push_counter(CounterEvent {
            track: "bad".into(),
            at: ns(0),
            value: f64::NAN,
        });
        assert_eq!(
            t.validate(),
            Err(TraceError::NonFiniteCounter {
                track: "bad".into()
            })
        );
    }

    #[test]
    fn pre_counter_serialization_still_parses() {
        // Traces written before counter (and name-table) support lack both
        // fields entirely.
        let t: Trace = serde_json::from_str(
            r#"{"meta":{"model":"","platform":"","exec_mode":"","phase":"",
                 "batch_size":0,"seq_len":0},
                "cpu_ops":[],"launches":[],"kernels":[]}"#,
        )
        .unwrap();
        assert!(t.counters().is_empty());
        assert!(t.names().is_empty());
    }

    #[test]
    fn kernels_on_sorts_by_begin() {
        let mut t = Trace::default();
        let launch = t.intern("cudaLaunchKernel");
        for (corr, b) in [(1u64, 100u64), (2, 10)] {
            t.push_launch(RuntimeLaunchEvent {
                name: launch,
                thread: ThreadId::MAIN,
                begin: ns(0),
                end: ns(1),
                correlation: CorrelationId::new(corr),
            });
            let name = t.intern(&format!("k{corr}"));
            t.push_kernel(KernelEvent {
                name,
                stream: StreamId::DEFAULT,
                begin: ns(b),
                end: ns(b + 5),
                correlation: CorrelationId::new(corr),
            });
        }
        let names: Vec<&str> = t
            .kernels_on(StreamId::DEFAULT)
            .iter()
            .map(|k| t.name(k.name))
            .collect();
        assert_eq!(names, vec!["k2", "k1"]);
    }
}

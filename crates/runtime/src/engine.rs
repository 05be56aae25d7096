//! The execution engine: walks operator graphs on the platform model and
//! emits CUPTI-style traces.
//!
//! The execution core ([`Exec`]) is generic over an event sink: the same
//! simulation drives the full [`Trace`] recorder and the zero-allocation
//! [`RunSummary`] aggregator ([`Engine::run_summary`]), so consumers that
//! only need a latency number skip event materialization entirely.
//!
//! Eager-style workload runs replay a pre-priced [`Schedule`] compiled once
//! per graph shape and platform; [`Engine::run_reference`] walks the
//! operator tree instead and must produce the same trace byte for byte.
//! Arbitrary operator graphs ([`Engine::run_graph`]) always take the tree
//! walk.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use skip_des::{FifoResource, IdAllocator, SimDuration, SimTime};
use skip_hw::{KernelClass, Platform};
use skip_llm::{AttentionImpl, GraphOptions, KernelSpec, OpNode, Workload};
use skip_trace::{
    CorrelationId, CpuOpEvent, EventSink, KernelClassTag, KernelEvent, NameId, OpId, RunSummary,
    RuntimeLaunchEvent, StreamId, ThreadId, Trace, TraceMeta,
};

use crate::compiled::{
    self, COMPILED_DISPATCH_NS, CUDAGRAPH_ENTRY_NS, GUARD_EVAL_NS, REPLAY_NODE_NS,
};
use crate::mode::{CompileMode, ExecMode};
use crate::schedule::{self, Schedule, Step};

/// Maps the hardware kernel taxonomy onto [`RunSummary`] class slots.
///
/// The trace crate cannot depend on the platform model, so summaries
/// accumulate per-class busy time under opaque tags; this is the producer
/// side of that mapping. Future taxonomy additions land in the last
/// ("other") slot rather than panicking.
#[must_use]
pub fn kernel_class_tag(class: KernelClass) -> KernelClassTag {
    KernelClassTag::new(match class {
        KernelClass::Gemm => 0,
        KernelClass::Elementwise => 1,
        KernelClass::Reduction => 2,
        KernelClass::Gather => 3,
        KernelClass::Memory => 4,
        KernelClass::FusedAttention => 5,
        KernelClass::FusedChain => 6,
        KernelClass::Null => 7,
        _ => (KernelClassTag::SLOTS - 1) as u8,
    })
}

/// Executes workloads on one platform.
///
/// See the crate docs for the timing semantics. An `Engine` is cheap to
/// construct and stateless across runs; every [`Engine::run`] produces an
/// independent trace.
#[derive(Debug, Clone)]
pub struct Engine {
    platform: Platform,
    /// Canonical platform serialization, computed lazily on the first
    /// schedule lookup — the platform half of the schedule-table key.
    /// Shared (`Arc`) so cloning an engine keeps the cached signature.
    platform_sig: Arc<OnceLock<Arc<str>>>,
}

impl Engine {
    /// Creates an engine for `platform`.
    #[must_use]
    pub fn new(platform: Platform) -> Self {
        Engine {
            platform,
            platform_sig: Arc::new(OnceLock::new()),
        }
    }

    /// The canonical serialization of this engine's platform. Platforms
    /// are structural configuration data, so equal signatures mean equal
    /// timing models.
    fn platform_sig(&self) -> Arc<str> {
        Arc::clone(self.platform_sig.get_or_init(|| {
            serde_json::to_string(&self.platform)
                .expect("platform serializes")
                .into()
        }))
    }

    /// The platform this engine simulates.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Runs one forward pass of `workload` under `mode`, returning the
    /// profiled trace. Deterministic: same inputs, same trace.
    #[must_use]
    pub fn run(&self, workload: &Workload, mode: ExecMode) -> Trace {
        let sink = Trace::new(self.meta_for(workload, mode));
        checked(self.run_sink(workload, mode, sink, true))
    }

    /// [`Engine::run`] with schedule replay disabled: the operator tree is
    /// walked and every operator simulated individually. This is the
    /// differential-testing reference — [`Engine::run`] must produce a
    /// byte-identical trace.
    #[must_use]
    pub fn run_reference(&self, workload: &Workload, mode: ExecMode) -> Trace {
        let sink = Trace::new(self.meta_for(workload, mode));
        checked(self.run_sink(workload, mode, sink, false))
    }

    /// Runs one forward pass recording only aggregates: no events are
    /// stored, interned or allocated. The summary's reductions (latency,
    /// span, busy times, counts) are identical to what the full trace of
    /// the same run would reduce to.
    #[must_use]
    pub fn run_summary(&self, workload: &Workload, mode: ExecMode) -> RunSummary {
        self.run_sink(workload, mode, RunSummary::new(), true)
    }

    fn meta_for(&self, workload: &Workload, mode: ExecMode) -> TraceMeta {
        TraceMeta {
            model: workload.model.name.clone(),
            platform: self.platform.name.clone(),
            exec_mode: mode.label(),
            phase: workload.phase.label().into(),
            batch_size: workload.batch_size,
            seq_len: workload.seq_len,
        }
    }

    fn run_sink<S: EventSink>(
        &self,
        workload: &Workload,
        mode: ExecMode,
        sink: S,
        fast: bool,
    ) -> S {
        match mode {
            ExecMode::Eager => self.run_tree(workload, GraphOptions::default(), sink, fast),
            ExecMode::FlashAttention2 => self.run_tree(
                workload,
                GraphOptions {
                    attention: AttentionImpl::FlashAttention2,
                },
                sink,
                fast,
            ),
            ExecMode::TorchCompile(cm) => self.run_compiled(workload, cm, sink),
        }
    }

    /// Replays an explicit kernel stream eagerly: one `Simple`-complexity
    /// dispatch operator plus one `cudaLaunchKernel` per kernel.
    ///
    /// This is the measurement backend for *applied* proximity-score
    /// fusion (paper §VI future work): replay the eager stream and the
    /// fusion-transformed stream and compare latencies — the measured
    /// counterpart of the idealized Eq. 8 speedup.
    #[must_use]
    pub fn replay_stream(&self, kernels: &[KernelSpec], meta: TraceMeta) -> Trace {
        let mut exec = Exec::new(&self.platform, Trace::new(meta));
        // The `replay::<kernel>` label is built (and interned) once per
        // *distinct* kernel name, not once per launch.
        let mut replay_names: HashMap<&str, NameId> = HashMap::new();
        for spec in kernels {
            let name = match replay_names.get(spec.name.as_str()) {
                Some(&id) => id,
                None => {
                    let id = exec.sink.intern(&format!("replay::{}", spec.name));
                    replay_names.insert(&spec.name, id);
                    id
                }
            };
            let begin = exec.cpu_now;
            let id = OpId::new(exec.op_ids.next_id());
            exec.cpu_now += self.platform.cpu.op_cost(skip_hw::OpComplexity::Simple);
            exec.launch_kernel(spec, 1.0);
            exec.sink.record_cpu_op(CpuOpEvent {
                id,
                name,
                thread: ThreadId::MAIN,
                begin,
                end: exec.cpu_now,
            });
        }
        checked(exec.into_sink())
    }

    /// Eager-style execution of an arbitrary operator graph: the entry
    /// point for workloads beyond the transformer zoo (recommendation
    /// models, GNNs — the paper's §VI scope extension). `input_bytes` is
    /// the host→device input copy preceding the forward pass.
    #[must_use]
    pub fn run_graph(
        &self,
        graph: &skip_llm::OperatorGraph,
        input_bytes: u64,
        meta: TraceMeta,
    ) -> Trace {
        let mut exec = Exec::new(&self.platform, Trace::new(meta));
        exec.h2d_input(input_bytes);
        exec.exec_ops(graph.ops());
        checked(exec.into_sink())
    }

    /// Eager-style execution of the operator tree.
    ///
    /// The fast path replays the pre-priced [`Schedule`] compiled once per
    /// (shared graph, platform) shape signature; the reference path
    /// (`fast = false`) walks the operator tree per run. Both produce
    /// byte-identical traces — the schedule performs the same arithmetic in
    /// the same order.
    fn run_tree<S: EventSink>(
        &self,
        workload: &Workload,
        opts: GraphOptions,
        sink: S,
        fast: bool,
    ) -> S {
        // Shared-cache build: batch sweeps and serving replicas re-run the
        // same workload shapes constantly, and construction was more than
        // half the cost of a summary-sink run.
        let graph = workload.graph_shared(opts);
        let mut exec = Exec::new(&self.platform, sink);
        exec.h2d_input(workload.input_bytes());
        if fast {
            let sched = schedule::schedule_for(&graph, &self.platform, &self.platform_sig());
            exec.exec_schedule(&sched);
        } else {
            exec.exec_ops(graph.ops());
        }
        exec.into_sink()
    }

    /// `torch.compile` execution: guard evaluation, then either per-kernel
    /// Inductor dispatch (Default) or a single CUDA-graph replay
    /// (ReduceOverhead / MaxAutotune) of the fused kernel stream.
    fn run_compiled<S: EventSink>(&self, workload: &Workload, cm: CompileMode, sink: S) -> S {
        let graph = workload.graph_shared(GraphOptions::default());
        let stream = compiled::inductor_stream(&graph, cm);
        let mut exec = Exec::new(&self.platform, sink);
        exec.h2d_input(workload.input_bytes());

        // Per-forward entry cost: full Dynamo guard evaluation for the
        // Inductor wrapper; a lighter cached re-entry for cudagraph replay.
        let entry = if cm.uses_cuda_graphs() {
            CUDAGRAPH_ENTRY_NS
        } else {
            GUARD_EVAL_NS
        };
        let guard_eval = exec.sink.intern_name("torch::_dynamo::guard_eval");
        exec.cpu_op(guard_eval, SimDuration::from_nanos_f64(entry));

        let gemm_factor = cm.gemm_duration_factor();
        if cm.uses_cuda_graphs() {
            // One cudaGraphLaunch; every captured node becomes available the
            // moment the graph reaches the device.
            let graph_launch = exec.sink.intern_name("cudaGraphLaunch");
            let launch_begin = exec.cpu_now;
            exec.cpu_now += self.platform.cpu.launch_call_cost();
            let launch_end = exec.cpu_now;
            let arrival = launch_begin + self.platform.launch_overhead();
            for spec in &stream {
                let corr = CorrelationId::new(exec.corr.next_id());
                exec.sink.record_launch(RuntimeLaunchEvent {
                    name: graph_launch,
                    thread: ThreadId::MAIN,
                    begin: launch_begin,
                    end: launch_end,
                    correlation: corr,
                });
                let name = exec.sink.intern_name(&spec.name);
                let dur = exec.kernel_duration(spec, gemm_factor)
                    + SimDuration::from_nanos_f64(REPLAY_NODE_NS);
                let busy = exec.stream.admit(arrival, dur);
                exec.sink.record_kernel(
                    KernelEvent {
                        name,
                        stream: StreamId::DEFAULT,
                        begin: busy.start,
                        end: busy.end,
                        correlation: corr,
                    },
                    kernel_class_tag(spec.work.class),
                );
            }
        } else {
            // Default mode: compiled wrapper dispatches each (fused) kernel
            // with a much cheaper CPU cost than eager ATen dispatch.
            let inductor_call = exec.sink.intern_name("inductor::call");
            for spec in &stream {
                exec.cpu_op(
                    inductor_call,
                    SimDuration::from_nanos_f64(COMPILED_DISPATCH_NS),
                );
                exec.launch_kernel(spec, gemm_factor);
            }
        }
        exec.into_sink()
    }
}

/// Debug-asserts the trace invariants before handing the trace out.
fn checked(trace: Trace) -> Trace {
    debug_assert!(trace.validate().is_ok());
    trace
}

/// Mutable execution state shared by the run modes, generic over where the
/// events go.
struct Exec<'a, S: EventSink> {
    platform: &'a Platform,
    sink: S,
    stream: FifoResource,
    cpu_now: SimTime,
    corr: IdAllocator,
    op_ids: IdAllocator,
    /// Runtime API names interned once per run — the hot launch path never
    /// touches the intern hash map, let alone allocates.
    n_launch: NameId,
    n_memcpy: NameId,
    n_aten_to: NameId,
}

impl<'a, S: EventSink> Exec<'a, S> {
    fn new(platform: &'a Platform, mut sink: S) -> Self {
        let n_launch = sink.intern_name("cudaLaunchKernel");
        let n_memcpy = sink.intern_name("cudaMemcpyAsync");
        let n_aten_to = sink.intern_name("aten::to");
        Exec {
            platform,
            sink,
            stream: FifoResource::new(),
            cpu_now: SimTime::ZERO,
            corr: IdAllocator::starting_at(1),
            op_ids: IdAllocator::new(),
            n_launch,
            n_memcpy,
            n_aten_to,
        }
    }

    /// Records the host→device input copy (`aten::to` + `cudaMemcpyAsync`).
    fn h2d_input(&mut self, bytes: u64) {
        let copy = self.platform.h2d_transfer(bytes);
        if copy.is_zero() {
            return; // tightly-coupled unified memory: no copy
        }
        let begin = self.cpu_now;
        let corr = CorrelationId::new(self.corr.next_id());
        self.sink.record_launch(RuntimeLaunchEvent {
            name: self.n_memcpy,
            thread: ThreadId::MAIN,
            begin,
            end: begin + copy,
            correlation: corr,
        });
        self.cpu_now += copy;
        let id = OpId::new(self.op_ids.next_id());
        self.sink.record_cpu_op(CpuOpEvent {
            id,
            name: self.n_aten_to,
            thread: ThreadId::MAIN,
            begin,
            end: self.cpu_now,
        });
    }

    /// Records a plain CPU operator of the given duration.
    fn cpu_op(&mut self, name: NameId, dur: SimDuration) {
        let begin = self.cpu_now;
        self.cpu_now += dur;
        let id = OpId::new(self.op_ids.next_id());
        self.sink.record_cpu_op(CpuOpEvent {
            id,
            name,
            thread: ThreadId::MAIN,
            begin,
            end: self.cpu_now,
        });
    }

    /// Executes a top-level operator list, one operator after another.
    fn exec_ops(&mut self, ops: &[OpNode]) {
        for op in ops {
            self.exec_op(op);
        }
    }

    /// Replays a pre-priced schedule: the workload fast path. Performs
    /// exactly the arithmetic [`Exec::exec_op`]/[`Exec::launch_kernel`]
    /// perform, in the same order, minus the tree recursion, per-event
    /// string hashing and duration-model evaluation the schedule already
    /// paid at compile time.
    fn exec_schedule(&mut self, sched: &Schedule) {
        // Interning in first-use order reproduces the name table lazy
        // execution would have built (re-interning a known name is a no-op).
        let names: Vec<NameId> = sched
            .names
            .iter()
            .map(|n| self.sink.intern_name(n))
            .collect();
        let mut open: Vec<(OpId, NameId, SimTime)> = Vec::with_capacity(16);
        for step in &sched.steps {
            match *step {
                Step::Open { name, cost } => {
                    let id = OpId::new(self.op_ids.next_id());
                    open.push((id, names[name as usize], self.cpu_now));
                    self.cpu_now += cost;
                }
                Step::Close => {
                    let (id, name, begin) = open.pop().expect("balanced schedule");
                    self.sink.record_cpu_op(CpuOpEvent {
                        id,
                        name,
                        thread: ThreadId::MAIN,
                        begin,
                        end: self.cpu_now,
                    });
                }
                Step::Kernel { name, dur, tag } => {
                    let launch_begin = self.cpu_now;
                    self.cpu_now += sched.launch_cost;
                    let corr = CorrelationId::new(self.corr.next_id());
                    self.sink.record_launch(RuntimeLaunchEvent {
                        name: self.n_launch,
                        thread: ThreadId::MAIN,
                        begin: launch_begin,
                        end: self.cpu_now,
                        correlation: corr,
                    });
                    let arrival = launch_begin + sched.launch_overhead;
                    let busy = self.stream.admit(arrival, dur);
                    self.sink.record_kernel(
                        KernelEvent {
                            name: names[name as usize],
                            stream: StreamId::DEFAULT,
                            begin: busy.start,
                            end: busy.end,
                            correlation: corr,
                        },
                        tag,
                    );
                }
            }
        }
        debug_assert!(open.is_empty(), "schedule opens/closes balance");
    }

    /// Recursively executes one operator node: pay its framework cost,
    /// run children, launch its kernels.
    fn exec_op(&mut self, op: &OpNode) {
        let begin = self.cpu_now;
        let id = OpId::new(self.op_ids.next_id());
        let name = self.sink.intern_name(&op.name);
        self.cpu_now += self.platform.cpu.op_cost(op.complexity);
        for child in &op.children {
            self.exec_op(child);
        }
        for kernel in &op.kernels {
            self.launch_kernel(kernel, 1.0);
        }
        self.sink.record_cpu_op(CpuOpEvent {
            id,
            name,
            thread: ThreadId::MAIN,
            begin,
            end: self.cpu_now,
        });
    }

    /// Launches one kernel: `cudaLaunchKernel` on the CPU, delivery across
    /// the interconnect, FIFO admission on the stream.
    fn launch_kernel(&mut self, spec: &KernelSpec, gemm_factor: f64) {
        let launch_begin = self.cpu_now;
        self.cpu_now += self.platform.cpu.launch_call_cost();
        let launch_end = self.cpu_now;
        let corr = CorrelationId::new(self.corr.next_id());
        self.sink.record_launch(RuntimeLaunchEvent {
            name: self.n_launch,
            thread: ThreadId::MAIN,
            begin: launch_begin,
            end: launch_end,
            correlation: corr,
        });
        // Kernel names repeat across layers, so this is a hash hit (no
        // allocation) for all but the first launch of each distinct shape.
        let name = self.sink.intern_name(&spec.name);
        // The kernel reaches the head of the stream one full launch
        // overhead after the launch call started (CPU call + wire/driver).
        let arrival = launch_begin + self.platform.launch_overhead();
        let dur = self.kernel_duration(spec, gemm_factor);
        let busy = self.stream.admit(arrival, dur);
        self.sink.record_kernel(
            KernelEvent {
                name,
                stream: StreamId::DEFAULT,
                begin: busy.start,
                end: busy.end,
                correlation: corr,
            },
            kernel_class_tag(spec.work.class),
        );
    }

    fn kernel_duration(&self, spec: &KernelSpec, gemm_factor: f64) -> SimDuration {
        let base = self.platform.gpu.kernel_duration(&spec.work);
        if spec.work.class == KernelClass::Gemm && gemm_factor != 1.0 {
            SimDuration::from_nanos_f64(base.as_nanos_f64() * gemm_factor)
        } else {
            base
        }
    }

    fn into_sink(self) -> S {
        self.sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skip_llm::{zoo, Phase};

    fn wl(batch: u32) -> Workload {
        Workload::new(zoo::gpt2(), Phase::Prefill, batch, 512)
    }

    #[test]
    fn eager_trace_is_valid_and_complete() {
        let engine = Engine::new(Platform::intel_h100());
        let t = engine.run(&wl(1), ExecMode::Eager);
        t.validate().unwrap();
        assert_eq!(t.kernels().len(), 402);
        // Every kernel has a launch; there is one extra launch (the memcpy).
        assert_eq!(t.launches().len(), 403);
        assert_eq!(t.meta().exec_mode, "eager");
    }

    #[test]
    fn execution_is_deterministic() {
        let engine = Engine::new(Platform::gh200());
        let a = engine.run(&wl(4), ExecMode::Eager);
        let b = engine.run(&wl(4), ExecMode::Eager);
        assert_eq!(a, b);
    }

    #[test]
    fn small_batch_kernels_start_one_launch_overhead_after_call() {
        // CPU-bound region: no queuing, so t_l == platform launch overhead.
        let platform = Platform::intel_h100();
        let engine = Engine::new(platform.clone());
        let t = engine.run(&wl(1), ExecMode::Eager);
        let overhead = platform.launch_overhead();
        // Skip the memcpy launch (no kernel); inspect the first real kernel.
        let k = t.kernels().get(0);
        let l = t
            .launches()
            .iter()
            .find(|l| l.correlation == k.correlation)
            .unwrap();
        assert_eq!(k.begin.duration_since(l.begin), overhead);
    }

    #[test]
    fn large_batch_kernels_queue() {
        // GPU-bound region: kernels start much later than launch+overhead.
        let platform = Platform::intel_h100();
        let engine = Engine::new(platform.clone());
        let t = engine.run(&wl(64), ExecMode::Eager);
        let overhead = platform.launch_overhead();
        let last = t.kernels().last().unwrap();
        let l = t
            .launches()
            .iter()
            .find(|l| l.correlation == last.correlation)
            .unwrap();
        assert!(last.begin.duration_since(l.begin) > overhead * 10);
    }

    #[test]
    fn flash_attention_launches_fewer_kernels() {
        let engine = Engine::new(Platform::intel_h100());
        let eager = engine.run(&wl(8), ExecMode::Eager);
        let flash = engine.run(&wl(8), ExecMode::FlashAttention2);
        assert!(flash.kernels().len() < eager.kernels().len());
        flash.validate().unwrap();
    }

    #[test]
    fn cuda_graph_mode_has_single_launch_timestamp() {
        let engine = Engine::new(Platform::intel_h100());
        let t = engine.run(&wl(1), ExecMode::TorchCompile(CompileMode::ReduceOverhead));
        t.validate().unwrap();
        let graph_launches: Vec<_> = t
            .launches()
            .iter()
            .filter(|l| t.name(l.name) == "cudaGraphLaunch")
            .collect();
        assert!(!graph_launches.is_empty());
        // All replayed nodes share the same launch-call window.
        let first = graph_launches[0];
        assert!(graph_launches
            .iter()
            .all(|l| l.begin == first.begin && l.end == first.end));
    }

    #[test]
    fn compiled_modes_beat_eager_latency_at_batch_1() {
        let engine = Engine::new(Platform::intel_h100());
        let span = |t: &Trace| t.span();
        let eager = span(&engine.run(&wl(1), ExecMode::Eager));
        for cm in CompileMode::all() {
            let t = engine.run(&wl(1), ExecMode::TorchCompile(cm));
            assert!(
                span(&t) < eager,
                "{}: {} !< {}",
                cm.label(),
                span(&t),
                eager
            );
        }
    }

    #[test]
    fn tight_coupling_skips_input_copy() {
        let engine = Engine::new(Platform::mi300a());
        let t = engine.run(&wl(1), ExecMode::Eager);
        assert!(t
            .launches()
            .iter()
            .all(|l| t.name(l.name) != "cudaMemcpyAsync"));
        let lc = Engine::new(Platform::intel_h100()).run(&wl(1), ExecMode::Eager);
        assert!(lc
            .launches()
            .iter()
            .any(|l| lc.name(l.name) == "cudaMemcpyAsync"));
    }

    #[test]
    fn trace_meta_records_run_configuration() {
        let engine = Engine::new(Platform::gh200());
        let w = Workload::new(zoo::bert_base_uncased(), Phase::Prefill, 16, 512);
        let t = engine.run(&w, ExecMode::Eager);
        let m = t.meta();
        assert_eq!(m.model, "bert-base-uncased");
        assert_eq!(m.platform, "gh200");
        assert_eq!(m.batch_size, 16);
        assert_eq!(m.seq_len, 512);
        assert_eq!(m.phase, "prefill");
    }

    #[test]
    fn run_summary_matches_trace_reductions_for_every_mode() {
        let engine = Engine::new(Platform::intel_h100());
        let modes = [
            ExecMode::Eager,
            ExecMode::FlashAttention2,
            ExecMode::TorchCompile(CompileMode::Default),
            ExecMode::TorchCompile(CompileMode::ReduceOverhead),
        ];
        for mode in modes {
            let w = wl(4);
            let trace = engine.run(&w, mode);
            let summary = engine.run_summary(&w, mode);
            let reduced = skip_trace::summarize_trace(&trace);
            assert_eq!(summary.latency(), reduced.latency(), "{}", mode.label());
            assert_eq!(summary.span(), trace.span(), "{}", mode.label());
            assert_eq!(summary.cpu_ops(), trace.cpu_ops().len() as u64);
            assert_eq!(summary.launches(), trace.launches().len() as u64);
            assert_eq!(summary.kernels(), trace.kernels().len() as u64);
            assert_eq!(summary.gpu_busy(), reduced.gpu_busy(), "{}", mode.label());
        }
    }

    #[test]
    fn summary_attributes_busy_time_per_class() {
        let engine = Engine::new(Platform::intel_h100());
        let s = engine.run_summary(&wl(8), ExecMode::Eager);
        let gemm = s.class_busy(kernel_class_tag(KernelClass::Gemm));
        assert!(gemm > SimDuration::ZERO, "prefill is GEMM-heavy");
        assert!(gemm > s.class_busy(kernel_class_tag(KernelClass::Gather)));
        assert_eq!(
            s.gpu_busy(),
            [
                KernelClass::Gemm,
                KernelClass::Elementwise,
                KernelClass::Reduction,
                KernelClass::Gather,
                KernelClass::Memory,
                KernelClass::FusedAttention,
                KernelClass::FusedChain,
                KernelClass::Null,
            ]
            .into_iter()
            .fold(SimDuration::ZERO, |acc, c| acc
                + s.class_busy(kernel_class_tag(c)))
        );
    }
}

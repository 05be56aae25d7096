//! The unified serving floor: one DES loop behind both public fronts.
//!
//! Both fronts build the floor the same way. [`ReplicaSet::new`] turns
//! replica groups into a pool-aware replica set with per-platform
//! pricing, handoff links and an optional autoscaler; single-node serving
//! passes the homogeneous spec `<platform>:<n>`, the fleet front its own
//! groups. [`UnifiedFloor::new`] derives everything else from its
//! inputs: the queue topology from the router, the flush timers from the
//! batch policy, and the scratch capacities from the [`RunShape`].
//! [`run_unified`] drives the loop and bills the set, and
//! [`Latencies::fold`] computes the metrics both reports share. The
//! fronts keep only their config, their recording shape and the report
//! fields that differ.
//!
//! Wake-ups are derived the same way. A policy with a flush window
//! (static batching) sweeps every replica against fresh timer expiry; any
//! other policy kicks only the replicas that pull from the queue an event
//! touched — every replica when the queue is shared, one when queues are
//! partitioned. Every per-event scan walks [`ReplicaSet::alive`], the
//! replicas that are not `Down`, so an event costs in proportion to the
//! live fleet, not to every replica an autoscaled run ever launched.
//!
//! Scheduling itself still lives behind the three seams: the
//! [`Router`] picks a queue for each arrival (and a destination for each
//! KV handoff), the [`BatchPolicy`] forms and retires iterations through
//! a [`Lane`], and the [`MemoryLayer`] (inside the lane) owns all
//! KV-block bookkeeping. Adding a policy or router never touches this
//! file.

use std::collections::VecDeque;

use skip_des::{percentile, SimContext, SimDuration, SimTime, Simulator};
use skip_hw::Platform;
use skip_llm::ModelConfig;
use skip_mem::KvSpec;

use crate::fleet::autoscale::{AutoscaleConfig, ScaleAction, ScalingEvent};
use crate::fleet::observe::{FleetSample, FleetTrace};
use crate::fleet::spec::{PoolRole, ReplicaGroup};
use crate::latency::LatencyModel;
use crate::memctx::MemoryLayer;
use crate::observe::{
    CounterSample, LifecycleKind, RecordSink, ServingTrace, SloReport, SloTargets,
};
use crate::policy::{Active, BatchPolicy, Finished, Lane, ReplicaState};
use crate::request::Request;
use crate::router::{ReplicaLoad, Router};
use crate::stop::{StopCondition, StopGuard};

/// The observability recording behind the floor: the single-node
/// [`ServingTrace`] or the fleet's [`FleetTrace`]. Policies and the loop
/// record through one vocabulary; each trace keeps its own sample shape
/// and serde bytes.
pub(crate) enum FloorObs {
    Serve(ServingTrace),
    Fleet(FleetTrace),
}

impl FloorObs {
    pub(crate) fn record(&mut self, id: u64, at: SimTime, kind: LifecycleKind) {
        match self {
            FloorObs::Serve(t) => t.record(id, at, kind),
            FloorObs::Fleet(t) => t.record(id, at, kind),
        }
    }

    fn completed_total(&self) -> u32 {
        match self {
            FloorObs::Serve(t) => t.completed_total(),
            FloorObs::Fleet(t) => t.completed_total(),
        }
    }

    fn push_scaling(&mut self, ev: ScalingEvent) {
        if let FloorObs::Fleet(t) = self {
            t.scaling.push(ev);
        }
    }

    /// The recorded TTFT/e2e of request `id` — what fleet completion
    /// reads back, since a handed-off request's first token happened on
    /// another replica.
    pub(crate) fn recorded_latencies(&self, id: u64) -> (SimDuration, SimDuration) {
        let lc = match self {
            FloorObs::Serve(t) => &t.lifecycles[id as usize],
            FloorObs::Fleet(t) => &t.lifecycles[id as usize],
        };
        (
            lc.ttft().unwrap_or(SimDuration::ZERO),
            lc.e2e().unwrap_or(SimDuration::ZERO),
        )
    }
}

impl RecordSink for FloorObs {
    fn record(&mut self, id: u64, at: SimTime, kind: LifecycleKind) {
        FloorObs::record(self, id, at, kind);
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    Arrival(Request),
    /// A replica finished its current iteration/job.
    IterationDone(usize),
    /// The flush timer armed for `queue` expired (static batching).
    FlushTimeout {
        queue: usize,
        generation: u64,
    },
    /// The in-flight transfer on `dst`'s handoff link landed.
    HandoffDone(usize),
    /// Autoscaler decision point.
    ScaleTick,
    /// A launching replica finished provisioning + weight load.
    ReplicaUp(usize),
}

/// Replica lifecycle under autoscaling; fixed sets stay [`RState::Up`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RState {
    Launching,
    Up,
    Draining,
    Down,
}

/// A KV handoff parked on (or moving over) a destination link.
#[derive(Debug, Clone, Copy)]
struct Handoff {
    req: Request,
    queued_at: SimTime,
    bytes: u64,
    transfer: SimDuration,
}

/// Per-replica ingress link: FIFO queue plus at most one in-flight
/// transfer, so concurrent handoffs to the same destination serialize and
/// the interconnect shows up as occupancy. One-pool sets keep these
/// permanently empty.
#[derive(Debug, Default)]
pub(crate) struct LinkRt {
    queue: VecDeque<Handoff>,
    inflight: Option<(Handoff, SimTime)>,
}

impl LinkRt {
    fn depth(&self) -> u32 {
        (self.queue.len() + usize::from(self.inflight.is_some())) as u32
    }
}

/// One queue's flush timer: the deadline of the oldest pending arrival
/// plus the policy's `max_wait`. The generation counter invalidates
/// superseded timer events still sitting in the DES queue.
#[derive(Default)]
pub(crate) struct FlushTimer {
    generation: u64,
    deadline: Option<SimTime>,
}

/// What every request of a run looks like and how many there are: the
/// workload unit costs are priced for and buffers are sized against.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunShape {
    pub(crate) prompt_len: u32,
    pub(crate) new_tokens: u32,
    /// Per-replica admission slots of the fleet policies; 0 when the
    /// batch policy carries its own limit (single-node serving).
    pub(crate) max_batch: u32,
    /// Total requests this run serves (the autoscaler's done check).
    pub(crate) requests: u32,
}

/// One replica's identity inside the set: which platform prices it,
/// which pool it serves, its scaling state, and its unit serving cost
/// (the cost-model router's exchange rate).
pub(crate) struct ReplicaMeta {
    pub(crate) platform_idx: usize,
    pub(crate) pool: PoolRole,
    pub(crate) state: RState,
    pub(crate) unit_cost_ns: f64,
}

/// The replica-set abstraction the unified floor is generic over: the
/// platforms and their latency models, per-replica identities, handoff
/// links, the two routing seams, and the scaling/billing knobs. A
/// single-node floor is the degenerate case — one group, one pool,
/// always-up replicas, links that never carry a handoff, no autoscaler.
pub(crate) struct ReplicaSet {
    pub(crate) platforms: Vec<Platform>,
    pub(crate) lat: Vec<LatencyModel>,
    pub(crate) meta: Vec<ReplicaMeta>,
    /// Ascending indices of every replica not [`RState::Down`]: the only
    /// ones a per-event scan has to visit. `Down` is terminal and a new
    /// replica always takes the largest index, so appending on scale-up
    /// and filtering on drain keep it sorted.
    pub(crate) alive: Vec<usize>,
    pub(crate) links: Vec<LinkRt>,
    /// Routes arrivals to a queue.
    pub(crate) arrival_router: Box<dyn Router>,
    /// Routes finished prefills to a decode replica (separate instance,
    /// so round-robin keeps independent cursors per direction).
    pub(crate) handoff_router: Box<dyn Router>,
    /// KV geometry for handoff sizing.
    pub(crate) kv: KvSpec,
    pub(crate) disagg: bool,
    pub(crate) autoscale: Option<AutoscaleConfig>,
    /// Model weight bytes a launching replica loads over its host link.
    pub(crate) weight_bytes: u64,
    // Cumulative handoff and scaling telemetry.
    pub(crate) handoffs: u64,
    pub(crate) handoff_bytes: u64,
    pub(crate) handoff_waits: Vec<f64>,
    pub(crate) handoff_transfer_ns: f64,
    pub(crate) scale_ups: u32,
    pub(crate) scale_downs: u32,
    pub(crate) peak_live: u32,
    pub(crate) replica_ns: f64,
    pub(crate) last_bill: SimTime,
}

impl ReplicaSet {
    /// Builds the set from replica `groups`, every replica up. Platforms
    /// are deduped by name, so a 4-replica group shares one
    /// [`LatencyModel`] memo; each replica carries its unit cost for
    /// `shape`; and `router` is built twice, so round-robin handoff
    /// dispatch keeps its own cursor, independent of arrival dispatch.
    pub(crate) fn new(
        groups: &[ReplicaGroup],
        model: &ModelConfig,
        shape: RunShape,
        router: impl Fn() -> Box<dyn Router>,
        autoscale: Option<AutoscaleConfig>,
    ) -> Self {
        let mut platforms: Vec<Platform> = Vec::new();
        let mut lat: Vec<LatencyModel> = Vec::new();
        let mut meta: Vec<ReplicaMeta> = Vec::new();
        for g in groups {
            let known = platforms.iter().position(|p| p.name == g.platform.name);
            let platform_idx = known.unwrap_or_else(|| {
                platforms.push(g.platform.clone());
                lat.push(LatencyModel::new(g.platform.clone(), model.clone()));
                platforms.len() - 1
            });
            let unit_cost_ns = unit_cost_ns(&lat[platform_idx], g.role, shape);
            meta.extend((0..g.count).map(|_| ReplicaMeta {
                platform_idx,
                pool: g.role,
                state: RState::Up,
                unit_cost_ns,
            }));
        }
        let disagg = groups.iter().any(|g| g.role != PoolRole::Unified);
        let n = meta.len();
        ReplicaSet {
            platforms,
            lat,
            meta,
            alive: (0..n).collect(),
            links: (0..n).map(|_| LinkRt::default()).collect(),
            arrival_router: router(),
            handoff_router: router(),
            kv: KvSpec::for_model(model, KvSpec::DEFAULT_BLOCK_TOKENS),
            disagg,
            autoscale,
            weight_bytes: model.weight_bytes_fp16(),
            handoffs: 0,
            handoff_bytes: 0,
            handoff_waits: Vec::new(),
            handoff_transfer_ns: 0.0,
            scale_ups: 0,
            scale_downs: 0,
            peak_live: n as u32,
            replica_ns: 0.0,
            last_bill: SimTime::ZERO,
        }
    }

    fn live_count(&self) -> u32 {
        self.alive
            .iter()
            .filter(|&&r| matches!(self.meta[r].state, RState::Up | RState::Draining))
            .count() as u32
    }

    /// Accrues replica-seconds up to `now` at the current live count.
    /// Called before any state transition and once at the end.
    pub(crate) fn bill(&mut self, now: SimTime) {
        let live = self.live_count();
        self.replica_ns +=
            now.saturating_duration_since(self.last_bill).as_nanos_f64() * f64::from(live);
        self.last_bill = now;
        self.peak_live = self.peak_live.max(live);
    }

    /// The bill the run has provably accrued by `now`, without mutating
    /// billing state — what a cost-ceiling [`StopCondition`] compares
    /// against between events.
    fn accrued_replica_seconds(&self, now: SimTime) -> f64 {
        (self.replica_ns
            + now.saturating_duration_since(self.last_bill).as_nanos_f64()
                * f64::from(self.live_count()))
            / 1e9
    }
}

/// Per-request service estimate on one platform, in nanoseconds — the
/// cost-model JSQ's exchange rate between queue depths on different
/// platforms. Memoized inside the [`LatencyModel`], so this is two map
/// hits after the first call.
fn unit_cost_ns(lat: &LatencyModel, pool: PoolRole, shape: RunShape) -> f64 {
    let (prompt_len, new_tokens) = (shape.prompt_len, shape.new_tokens);
    let b = shape.max_batch.max(1);
    let prefill = lat.prefill(b, prompt_len.max(1)).as_nanos_f64() / f64::from(b);
    let steps = new_tokens.max(1) - 1;
    let decode = lat.decode_step(b, prompt_len + new_tokens).as_nanos_f64() / f64::from(b);
    match pool {
        PoolRole::Prefill => prefill,
        PoolRole::Decode => decode * f64::from(steps.max(1)),
        PoolRole::Unified => prefill + decode * f64::from(steps),
    }
}

/// The latency metrics both report shapes share, folded from the
/// finished set.
pub(crate) struct Latencies {
    pub(crate) completed: u32,
    pub(crate) ttft_p50: SimDuration,
    pub(crate) ttft_p95: SimDuration,
    pub(crate) ttft_p99: SimDuration,
    pub(crate) e2e_p50: SimDuration,
    pub(crate) e2e_p95: SimDuration,
    pub(crate) throughput_tok_s: f64,
    pub(crate) makespan: SimDuration,
    pub(crate) slo: SloReport,
}

impl Latencies {
    /// Folds `finished` into percentiles, throughput over the span from
    /// the first arrival to the last completion, and SLO attainment.
    /// Total tokens count completed requests only, and an empty finished
    /// set yields all zeros rather than a panic.
    pub(crate) fn fold(
        finished: &[Finished],
        first_arrival: Option<SimTime>,
        last_completion: SimTime,
        new_tokens: u32,
        slo: SloTargets,
    ) -> Self {
        let latencies: Vec<(SimDuration, SimDuration)> =
            finished.iter().map(|f| (f.ttft, f.e2e)).collect();
        let ttfts: Vec<f64> = latencies.iter().map(|(t, _)| t.as_nanos_f64()).collect();
        let e2es: Vec<f64> = latencies.iter().map(|(_, e)| e.as_nanos_f64()).collect();
        let makespan =
            last_completion.saturating_duration_since(first_arrival.unwrap_or(SimTime::ZERO));
        let completed = finished.len() as u32;
        let total_tokens = u64::from(completed) * u64::from(new_tokens.max(1));
        let throughput_tok_s = if completed == 0 {
            0.0
        } else {
            total_tokens as f64 / makespan.as_secs_f64().max(1e-12)
        };
        let d = SimDuration::from_nanos_f64;
        Latencies {
            completed,
            ttft_p50: d(percentile(&ttfts, 50.0)),
            ttft_p95: d(percentile(&ttfts, 95.0)),
            ttft_p99: d(percentile(&ttfts, 99.0)),
            e2e_p50: d(percentile(&e2es, 50.0)),
            e2e_p95: d(percentile(&e2es, 95.0)),
            throughput_tok_s,
            makespan,
            slo: SloReport::evaluate(slo, &latencies, new_tokens.max(1), makespan),
        }
    }
}

/// The unified floor: DES state shared by both serving fronts, plus the
/// policy/router/memory seams.
pub(crate) struct UnifiedFloor {
    pub(crate) set: ReplicaSet,
    pub(crate) policy: Box<dyn BatchPolicy>,
    /// Pending queues — one shared (index 0) or one per replica,
    /// whichever topology the router declared.
    pub(crate) queues: Vec<VecDeque<Request>>,
    /// Which queue each replica pulls from.
    pub(crate) queue_of: Vec<usize>,
    pub(crate) states: Vec<ReplicaState>,
    pub(crate) mem: Option<MemoryLayer>,
    pub(crate) finished: Vec<Finished>,
    pub(crate) last_completion: SimTime,
    /// One flush timer per queue under a policy with a flush window;
    /// empty otherwise.
    pub(crate) flush: Vec<FlushTimer>,
    /// The observability recording: lifecycle records + counter samples.
    pub(crate) obs: FloorObs,
    /// Reused per-event scratch: which queues' oldest waiter timed out.
    /// Refilled by [`refresh_expired`](Self::refresh_expired); sized like
    /// `flush` and never reallocated after construction.
    pub(crate) expired_buf: Vec<bool>,
    /// Reused per-arrival scratch: the router's load snapshot.
    pub(crate) load_buf: Vec<ReplicaLoad>,
    /// Reusable retire scratch (see [`Lane::scratch`]).
    pub(crate) scratch_actives: Vec<Active>,
    /// Reusable buffer for handoffs discovered during a retire.
    pub(crate) scratch_handoffs: Vec<Request>,
    pub(crate) shape: RunShape,
}

impl UnifiedFloor {
    /// Builds the floor around `set`. The arrival router declares the
    /// queue topology (one shared queue or one per replica), flush timers
    /// exist only under a policy with a flush window, and the per-replica
    /// and scratch buffers are sized from `shape` up front, so the hot
    /// path does not reallocate mid-run.
    pub(crate) fn new(
        mut set: ReplicaSet,
        policy: Box<dyn BatchPolicy>,
        mem: Option<MemoryLayer>,
        obs: FloorObs,
        shape: RunShape,
    ) -> Self {
        let n = set.meta.len();
        let nq = set.arrival_router.queue_count(n).clamp(1, n);
        let timers = policy.flush_after().map_or(0, |_| nq);
        let batch = shape.max_batch as usize;
        if set.disagg {
            // One wait per handed-off request. Reserved here, after the
            // recording buffers: reserving it when the set is built raised
            // the `fleet_autoscale` benchmark's peak RSS by ~1 MB in about
            // one run in five (glibc malloc).
            set.handoff_waits.reserve(shape.requests as usize);
        }
        UnifiedFloor {
            queues: (0..nq).map(|_| VecDeque::new()).collect(),
            queue_of: (0..n).map(|r| r.min(nq - 1)).collect(),
            states: (0..n)
                .map(|_| ReplicaState {
                    actives: Vec::with_capacity(batch),
                    ..ReplicaState::default()
                })
                .collect(),
            mem,
            finished: Vec::with_capacity(shape.requests as usize),
            last_completion: SimTime::ZERO,
            flush: (0..timers).map(|_| FlushTimer::default()).collect(),
            obs,
            expired_buf: vec![false; timers],
            load_buf: Vec::with_capacity(n),
            scratch_actives: Vec::with_capacity(batch),
            scratch_handoffs: Vec::with_capacity(if set.disagg { batch } else { 0 }),
            set,
            policy,
            shape,
        }
    }

    pub(crate) fn handle(&mut self, ctx: &mut SimContext<'_, Event>, event: Event) {
        let now = ctx.now();
        match event {
            Event::Arrival(req) => {
                self.obs.record(req.id, now, LifecycleKind::Arrived);
                self.snapshot_load(true);
                let k = self.set.arrival_router.route(&req, &self.load_buf);
                let q = self.picked(k);
                self.queues[q].push_back(req);
                self.wake(ctx, q);
            }
            Event::FlushTimeout { queue, generation } => {
                if generation == self.flush[queue].generation {
                    self.flush[queue].deadline = None;
                    if !self.queues[queue].is_empty() {
                        self.expired_buf.iter_mut().for_each(|e| *e = false);
                        self.expired_buf[queue] = true;
                        self.kick_all(ctx);
                    }
                    self.arm_flush_timers(ctx);
                }
            }
            Event::IterationDone(replica) => {
                self.states[replica].busy = false;
                self.with_lane(now, replica, |policy, lane| policy.retire(lane));
                self.dispatch_handoffs(ctx, replica, now);
                self.wake(ctx, self.queue_of[replica]);
                self.settle_drains(now);
            }
            Event::HandoffDone(dst) => {
                let (h, started) = self.set.links[dst]
                    .inflight
                    .take()
                    .expect("HandoffDone without an in-flight transfer");
                self.obs.record(
                    h.req.id,
                    now,
                    LifecycleKind::HandoffDone {
                        to: dst as u32,
                        wait: started.saturating_duration_since(h.queued_at),
                        transfer: h.transfer,
                    },
                );
                self.set.handoffs += 1;
                self.set.handoff_bytes += h.bytes;
                self.set.handoff_waits.push(
                    started
                        .saturating_duration_since(h.queued_at)
                        .as_nanos_f64(),
                );
                self.set.handoff_transfer_ns += h.transfer.as_nanos_f64();
                self.queues[self.queue_of[dst]].push_back(h.req);
                self.pump_link(ctx, dst, now);
                self.wake(ctx, self.queue_of[dst]);
            }
            Event::ScaleTick => self.scale_tick(ctx, now),
            Event::ReplicaUp(r) => {
                self.set.bill(now);
                self.set.meta[r].state = RState::Up;
                self.set.scale_ups += 1;
                self.obs.push_scaling(ScalingEvent {
                    at: now,
                    pool: self.set.meta[r].pool,
                    replica: r as u32,
                    action: ScaleAction::Up,
                });
                self.wake(ctx, self.queue_of[r]);
            }
        }
        self.sample(now);
    }

    /// Restarts idle replicas after queue `q`, or a replica pulling from
    /// it, changed. A policy with a flush window refreshes timer expiry,
    /// sweeps every replica and re-arms the timers. Any other policy
    /// kicks only `q`'s consumers: every replica when the queue is
    /// shared, and replica `q` alone when queues are partitioned (queue
    /// `i` then belongs to replica `i`).
    fn wake(&mut self, ctx: &mut SimContext<'_, Event>, q: usize) {
        if let Some(max_wait) = self.policy.flush_after() {
            self.refresh_expired(ctx.now(), max_wait);
            self.kick_all(ctx);
            self.arm_flush_timers(ctx);
        } else if self.queues.len() == 1 {
            for k in 0..self.set.alive.len() {
                self.kick(ctx, self.set.alive[k], false);
            }
        } else {
            self.kick(ctx, q, false);
        }
    }

    /// Builds the lane — one replica's complete scheduling context — and
    /// hands it to `f` together with the batch policy.
    fn with_lane<R>(
        &mut self,
        now: SimTime,
        replica: usize,
        f: impl FnOnce(&dyn BatchPolicy, &mut Lane<'_>) -> R,
    ) -> R {
        let q = self.queue_of[replica];
        let meta = &self.set.meta[replica];
        let mut lane = Lane {
            prompt_len: self.shape.prompt_len,
            new_tokens: self.shape.new_tokens,
            lat: &self.set.lat[meta.platform_idx],
            now,
            replica,
            pool: meta.pool,
            queue: &mut self.queues[q],
            state: &mut self.states[replica],
            mem: self.mem.as_mut().map(|m| m.lane(replica)),
            obs: &mut self.obs,
            done: &mut self.finished,
            handoffs_out: &mut self.scratch_handoffs,
            scratch: &mut self.scratch_actives,
            last_completion: &mut self.last_completion,
        };
        f(&*self.policy, &mut lane)
    }

    /// Starts the next iteration on replica `r` if it is idle, routable,
    /// and has work; `flush` forces a partial static batch.
    fn kick(&mut self, ctx: &mut SimContext<'_, Event>, r: usize, flush: bool) {
        if self.states[r].busy || matches!(self.set.meta[r].state, RState::Launching | RState::Down)
        {
            return;
        }
        let now = ctx.now();
        let dur = self.with_lane(now, r, |policy, lane| policy.next_iteration(lane, flush));
        if let Some(dur) = dur {
            self.states[r].busy = true;
            ctx.schedule(now + dur, Event::IterationDone(r));
        }
    }

    /// The flush-window sweep: offers work to every replica, flushing
    /// those whose queue `expired_buf` marks as timed out. The caller
    /// fills `expired_buf` once per pass so a replica consuming a queue's
    /// head cannot change the flush decision for the replicas after it.
    fn kick_all(&mut self, ctx: &mut SimContext<'_, Event>) {
        for k in 0..self.set.alive.len() {
            let r = self.set.alive[k];
            let flush = self.expired_buf[self.queue_of[r]];
            self.kick(ctx, r, flush);
        }
    }

    /// Refills `expired_buf` with which queues' oldest pending arrival has
    /// waited the policy's full flush window `max_wait`.
    fn refresh_expired(&mut self, now: SimTime, max_wait: SimDuration) {
        for (e, q) in self.expired_buf.iter_mut().zip(&self.queues) {
            *e = q
                .front()
                .is_some_and(|r| now.saturating_duration_since(r.arrival) >= max_wait);
        }
    }

    /// Arms each queue's flush timer for its **oldest** pending arrival.
    ///
    /// The timer tracks the head of the queue and is only re-armed when
    /// the head's deadline differs from the one outstanding; heads already
    /// past their deadline are handled by the expiry check every event
    /// performs, so no timer is needed for them.
    fn arm_flush_timers(&mut self, ctx: &mut SimContext<'_, Event>) {
        let Some(max_wait) = self.policy.flush_after() else {
            return;
        };
        for q in 0..self.queues.len() {
            let desired = self.queues[q]
                .front()
                .map(|r| r.arrival + max_wait)
                .filter(|&deadline| deadline > ctx.now());
            let timer = &mut self.flush[q];
            if desired == timer.deadline {
                continue;
            }
            timer.generation += 1; // invalidates any outstanding timer
            timer.deadline = desired;
            if let Some(deadline) = desired {
                ctx.schedule(
                    deadline,
                    Event::FlushTimeout {
                        queue: q,
                        generation: timer.generation,
                    },
                );
            }
        }
    }

    /// Refills `load_buf` with one load snapshot per non-`Down` replica,
    /// in `alive` order, marking which are up and serve the routed
    /// direction (`arrivals` or handoffs). In a one-pool, always-up set
    /// every replica stays eligible. Leaving `Down` replicas out changes
    /// no pick: they are never eligible, every router skips ineligible
    /// entries, and the ties broken by position keep index order.
    fn snapshot_load(&mut self, arrivals: bool) {
        let UnifiedFloor {
            set,
            queues,
            queue_of,
            states,
            mem,
            load_buf,
            ..
        } = self;
        load_buf.clear();
        load_buf.extend(set.alive.iter().map(|&r| ReplicaLoad {
            queued: queues[queue_of[r]].len() as u32,
            running: states[r].running() as u32,
            parked: mem.as_ref().map_or(0, |m| m.parked_len(r)) as u32,
            link: set.links[r].depth(),
            eligible: true,
            unit_cost_ns: set.meta[r].unit_cost_ns,
        }));
        let want = |m: &ReplicaMeta| {
            if arrivals {
                matches!(m.pool, PoolRole::Unified | PoolRole::Prefill)
            } else {
                m.pool == PoolRole::Decode
            }
        };
        let mut any = false;
        for (l, &r) in load_buf.iter_mut().zip(&set.alive) {
            let m = &set.meta[r];
            l.eligible = m.state == RState::Up && want(m);
            any |= l.eligible;
        }
        if !any {
            // Degenerate fallback (every candidate mid-drain): route to
            // any non-down replica of the right pool so no request is
            // stranded.
            for (l, &r) in load_buf.iter_mut().zip(&set.alive) {
                l.eligible = want(&set.meta[r]);
                any |= l.eligible;
            }
        }
        assert!(any, "fleet has no routable replica");
    }

    /// Asserts that `alive` holds exactly the ascending indices of the
    /// replicas that are not [`RState::Down`].
    #[cfg(test)]
    pub(crate) fn assert_alive_list(&self) {
        let want: Vec<usize> = (0..self.set.meta.len())
            .filter(|&r| self.set.meta[r].state != RState::Down)
            .collect();
        assert_eq!(self.set.alive, want, "alive list out of step with states");
    }

    /// Maps a router's pick — position `k` in `load_buf` — back to a
    /// queue or replica index: queue 0 when the queue is shared, else the
    /// `k`-th non-`Down` replica.
    fn picked(&self, k: usize) -> usize {
        if self.queues.len() == 1 {
            0
        } else {
            self.set.alive[k]
        }
    }

    /// Starts every handoff the retire just parked in the scratch buffer
    /// (reused across retires).
    fn dispatch_handoffs(&mut self, ctx: &mut SimContext<'_, Event>, from: usize, now: SimTime) {
        if self.scratch_handoffs.is_empty() {
            return;
        }
        let mut handoffs = std::mem::take(&mut self.scratch_handoffs);
        for req in handoffs.drain(..) {
            self.start_handoff(ctx, from, req, now);
        }
        self.scratch_handoffs = handoffs;
    }

    /// Queues `req`'s KV on a decode replica's ingress link, starting the
    /// transfer immediately when the link is idle.
    fn start_handoff(
        &mut self,
        ctx: &mut SimContext<'_, Event>,
        from: usize,
        req: Request,
        now: SimTime,
    ) {
        self.snapshot_load(false);
        let k = self.set.handoff_router.route(&req, &self.load_buf);
        let dst = self.picked(k);
        // Prompt plus the first token produced by prefill, in whole
        // blocks — what paged attention actually migrates.
        let bytes = self
            .set
            .kv
            .handoff_bytes(u64::from(req.prompt_len).saturating_add(1));
        let src_p = &self.set.platforms[self.set.meta[from].platform_idx];
        let dst_p = &self.set.platforms[self.set.meta[dst].platform_idx];
        let transfer = src_p.kv_handoff_time(dst_p, bytes);
        self.obs.record(
            req.id,
            now,
            LifecycleKind::HandoffQueued {
                from: from as u32,
                bytes,
            },
        );
        self.set.links[dst].queue.push_back(Handoff {
            req,
            queued_at: now,
            bytes,
            transfer,
        });
        self.pump_link(ctx, dst, now);
    }

    /// Starts the next queued transfer on `dst`'s link if it is idle.
    fn pump_link(&mut self, ctx: &mut SimContext<'_, Event>, dst: usize, now: SimTime) {
        if self.set.links[dst].inflight.is_some() {
            return;
        }
        if let Some(h) = self.set.links[dst].queue.pop_front() {
            let transfer = h.transfer;
            self.set.links[dst].inflight = Some((h, now));
            ctx.schedule(now + transfer, Event::HandoffDone(dst));
        }
    }

    /// Outstanding work at replica `i`: its queue, its running batch, and
    /// handoffs already committed to its link.
    fn backlog(&self, i: usize) -> u32 {
        (self.queues[self.queue_of[i]].len() + self.states[i].running()) as u32
            + self.set.links[i].depth()
    }

    fn scale_tick(&mut self, ctx: &mut SimContext<'_, Event>, now: SimTime) {
        let Some(auto) = self.set.autoscale else {
            return;
        };
        let all_done = self.obs.completed_total() >= self.shape.requests;
        if !all_done {
            let pools: &[PoolRole] = if self.set.disagg {
                &[PoolRole::Prefill, PoolRole::Decode]
            } else {
                &[PoolRole::Unified]
            };
            for &pool in pools {
                self.scale_pool(ctx, pool, auto, now);
            }
            ctx.schedule(now + auto.interval, Event::ScaleTick);
        }
        self.settle_drains(now);
    }

    fn scale_pool(
        &mut self,
        ctx: &mut SimContext<'_, Event>,
        pool: PoolRole,
        auto: AutoscaleConfig,
        now: SimTime,
    ) {
        // One counting pass over the pool's non-`Down` replicas (a `Down`
        // one has no backlog and counts as neither up nor launching):
        // outstanding work, up/launching tallies, and the newest up
        // replica (drain victim) — no per-tick index vectors.
        let mut outstanding = 0u32;
        let mut up_count = 0u32;
        let mut last_up = None;
        let mut launching = 0u32;
        for &i in &self.set.alive {
            if self.set.meta[i].pool != pool {
                continue;
            }
            outstanding += self.backlog(i);
            match self.set.meta[i].state {
                RState::Up => {
                    up_count += 1;
                    last_up = Some(i);
                }
                RState::Launching => launching += 1,
                _ => {}
            }
        }
        let pressure = f64::from(outstanding) / f64::from(up_count.max(1));
        if pressure > auto.high_load && (up_count + launching) < auto.max_per_pool {
            // Clone the pool's seed platform (its first replica, `Down`
            // or not) for the new replica.
            let platform_idx = self
                .set
                .meta
                .iter()
                .find(|m| m.pool == pool)
                .expect("pool has at least one replica")
                .platform_idx;
            let launch_cost = auto.provision_delay
                + self.set.platforms[platform_idx].h2d_transfer(self.set.weight_bytes);
            let new_idx = self.set.meta.len();
            self.set.meta.push(ReplicaMeta {
                platform_idx,
                pool,
                state: RState::Launching,
                unit_cost_ns: unit_cost_ns(&self.set.lat[platform_idx], pool, self.shape),
            });
            self.set.alive.push(new_idx);
            self.set.links.push(LinkRt::default());
            self.states.push(ReplicaState::default());
            self.queues.push(VecDeque::new());
            self.queue_of.push(new_idx);
            self.obs.push_scaling(ScalingEvent {
                at: now,
                pool,
                replica: new_idx as u32,
                action: ScaleAction::LaunchRequested,
            });
            ctx.schedule(now + launch_cost, Event::ReplicaUp(new_idx));
        } else if pressure < auto.low_load && up_count > auto.min_per_pool && launching == 0 {
            // Drain the newest up replica; it keeps its backlog and
            // leaves once empty.
            let victim = last_up.expect("up set non-empty above");
            self.set.bill(now);
            self.set.meta[victim].state = RState::Draining;
            self.obs.push_scaling(ScalingEvent {
                at: now,
                pool,
                replica: victim as u32,
                action: ScaleAction::DrainRequested,
            });
        }
    }

    /// Retires draining replicas whose backlog has fully emptied, and
    /// drops them from `alive`.
    fn settle_drains(&mut self, now: SimTime) {
        let mut retired = false;
        for k in 0..self.set.alive.len() {
            let i = self.set.alive[k];
            let empty = self.set.meta[i].state == RState::Draining
                && !self.states[i].busy
                && self.queues[self.queue_of[i]].is_empty()
                && self.states[i].running() == 0
                && self.set.links[i].depth() == 0;
            if empty {
                self.set.bill(now);
                self.set.meta[i].state = RState::Down;
                self.set.scale_downs += 1;
                retired = true;
                self.obs.push_scaling(ScalingEvent {
                    at: now,
                    pool: self.set.meta[i].pool,
                    replica: i as u32,
                    action: ScaleAction::Down,
                });
            }
        }
        if retired {
            let meta = &self.set.meta;
            self.set.alive.retain(|&r| meta[r].state != RState::Down);
        }
    }

    /// Samples every counter track at an iteration boundary, in the shape
    /// the run's trace expects. Re-sampling at the same instant
    /// overwrites, so each boundary keeps its final state.
    fn sample(&mut self, now: SimTime) {
        let UnifiedFloor {
            set,
            queues,
            queue_of,
            states,
            mem,
            obs,
            ..
        } = self;
        match obs {
            FloorObs::Serve(t) => {
                let alive_states = || set.alive.iter().map(|&r| &states[r]);
                let running: usize = alive_states().map(ReplicaState::running).sum();
                let parked = mem.as_ref().map_or(0, MemoryLayer::parked_total);
                let busy = alive_states().filter(|s| s.busy).count();
                let sample = CounterSample {
                    at: now,
                    queue_depth: queues.iter().map(VecDeque::len).sum::<usize>() as u32,
                    running: running as u32,
                    parked: parked as u32,
                    busy_replicas: busy as u32,
                    kv_used_blocks: mem.as_ref().map_or(0, MemoryLayer::used_blocks),
                    kv_total_blocks: mem.as_ref().map_or(0, MemoryLayer::total_blocks),
                    admitted_total: t.admitted_total(),
                    completed_total: t.completed_total(),
                };
                t.push_sample(sample);
            }
            FloorObs::Fleet(t) => {
                let mut prefill_queue = 0u32;
                let mut decode_queue = 0u32;
                let mut running = 0u32;
                let mut handoff_queued = 0u32;
                let mut handoff_inflight = 0u32;
                for &r in &set.alive {
                    running += states[r].actives.len() as u32;
                    handoff_queued += set.links[r].queue.len() as u32;
                    handoff_inflight += u32::from(set.links[r].inflight.is_some());
                    if set.meta[r].pool == PoolRole::Decode {
                        decode_queue += queues[queue_of[r]].len() as u32;
                    } else {
                        prefill_queue += queues[queue_of[r]].len() as u32;
                    }
                }
                let live = set.live_count();
                set.peak_live = set.peak_live.max(live);
                t.push_sample(FleetSample {
                    at: now,
                    prefill_queue,
                    decode_queue,
                    running,
                    handoff_queued,
                    handoff_inflight,
                    live_replicas: live,
                    arrived_total: t.arrived_total(),
                    completed_total: t.completed_total(),
                });
            }
        }
    }
}

/// A simulator with every arrival scheduled, and the first arrival
/// instant (the makespan's origin). Both fronts call this before they
/// build the floor, because peak RSS depends on allocation order under
/// glibc malloc: with the event queue allocated after the floor's
/// recording buffers, the `serve_kv` benchmark peaked about 9 MB (9%)
/// higher (2-core Xeon, glibc 2.36).
pub(crate) fn schedule_arrivals(
    arrivals: impl IntoIterator<Item = Request>,
) -> (Simulator<Event>, Option<SimTime>) {
    let mut sim = Simulator::new();
    let mut first_arrival = None;
    for req in arrivals {
        first_arrival.get_or_insert(req.arrival);
        sim.schedule(req.arrival, Event::Arrival(req));
    }
    (sim, first_arrival)
}

/// Schedules the autoscaler's first tick, drives the event loop to
/// completion or to the first blown budget, and bills the set for the
/// span simulated. Returns whether the run aborted. Bounded runs step the
/// same loop one event at a time with incremental miss and bill
/// bookkeeping, so a run no budget stops is byte-identical to the
/// unbounded run.
pub(crate) fn run_unified(
    floor: &mut UnifiedFloor,
    mut sim: Simulator<Event>,
    stop: StopCondition,
    slo: SloTargets,
) -> bool {
    if let Some(auto) = &floor.set.autoscale {
        sim.schedule(SimTime::ZERO + auto.interval, Event::ScaleTick);
    }
    let mut aborted = false;
    if stop.is_unbounded() {
        sim.run(|ctx, event| floor.handle(ctx, event));
    } else {
        let mut guard = StopGuard::new(stop, slo);
        let mut noted = 0usize;
        while sim.step(|ctx, event| floor.handle(ctx, event)) {
            while noted < floor.finished.len() {
                let f = &floor.finished[noted];
                noted += 1;
                guard.note(f.ttft, f.e2e);
            }
            if guard.miss_budget_blown()
                || (guard.wants_cost()
                    && guard.cost_blown(floor.set.accrued_replica_seconds(sim.now())))
            {
                aborted = true;
                break;
            }
        }
    }
    // An aborted run bills the span actually simulated: the truncated
    // report still prices what the run rented before it was called off.
    let end = floor.last_completion.max(floor.set.last_bill);
    floor
        .set
        .bill(if aborted { sim.now().max(end) } else { end });
    aborted
}

//! `serve_kv` and `fleet_autoscale`: the serving floor under memory
//! pressure with the full trace consumed, and a disaggregated autoscaled
//! fleet whose trace nobody reads. A pass simulates one arrival stream
//! per seed of [`ARRIVAL_SEEDS`]; the benchmark seed orders them, so every
//! run does the same work and the caches fill in a different order.

use std::hint::black_box;
use std::time::Instant;

use skip_des::SimDuration;
use skip_hw::Platform;
use skip_llm::{zoo, ModelConfig};
use skip_serve::{
    simulate_fleet, simulate_fleet_traced, simulate_traced, ArrivalProcess, AutoscaleConfig,
    FleetBatchPolicy, FleetConfig, FleetReport, FleetRouterPolicy, FleetSpec, KvCacheConfig,
    LatencyModel, OffloadPolicy, Policy, RequestStream, RouterPolicy, ServingConfig, ServingReport,
    SloTargets,
};

use crate::check::Stored;
use crate::spans::Recorder;
use crate::workload::{guarded, op_id, Ident, Output, PassOut, SplitMix, Workload};

/// Arrival-stream seeds; each pass simulates all of them.
pub const ARRIVAL_SEEDS: [u64; 4] = [11, 23, 37, 41];

/// Repetitions of the arrival-generation probe.
const PROBE_REPS: usize = 5;

pub struct ServeKv {
    /// One config per arrival seed, in this run's order.
    cfgs: Vec<ServingConfig>,
    replicas: u32,
}

/// `base` once per arrival seed, in the order `seed` selects.
fn per_arrival_seed<T: Clone>(base: &T, seed: u64, set: impl Fn(&mut T, u64)) -> Vec<T> {
    let mut seeds = ARRIVAL_SEEDS;
    SplitMix(seed).shuffle(&mut seeds);
    seeds
        .iter()
        .map(|&s| {
            let mut c = base.clone();
            set(&mut c, s);
            c
        })
        .collect()
}

/// `simulate_traced` on 4 GH200 replicas behind JSQ, continuous batching
/// up to 64, llama-2-7b with 1024/128 tokens at 18 req/s and a 2,200-block
/// KV pool with automatic offload.
pub fn serve_kv(seed: u64) -> Result<ServeKv, String> {
    let cfg = ServingConfig {
        platform: Platform::gh200(),
        model: zoo::llama2_7b(),
        policy: Policy::Continuous { max_batch: 64 },
        requests: 2_000,
        arrival_rate_per_s: 18.0,
        prompt_len: 1024,
        new_tokens: 128,
        seed: ARRIVAL_SEEDS[0],
        kv: Some(KvCacheConfig::with_blocks(2_200, OffloadPolicy::Auto)),
        slo: SloTargets {
            ttft: Some(SimDuration::from_millis(1_000)),
            e2e: None,
        },
        router: RouterPolicy::JoinShortestQueue,
    };
    let cfgs = per_arrival_seed(&cfg, seed, |c, s| c.seed = s);
    for c in &cfgs {
        c.validate().map_err(|e| e.to_string())?;
    }
    Ok(ServeKv { cfgs, replicas: 4 })
}

/// Simulated outputs reported as the mean over the arrival streams. The
/// reports are summed in arrival-seed order, whatever order the pass ran
/// them in, so the float sums repeat exactly under every benchmark seed.
const MEANS: [&str; 6] = [
    "sim.ttft_p50_s",
    "sim.ttft_p95_s",
    "sim.e2e_p95_s",
    "sim.slo_attainment",
    "sim.tok_s",
    "kv.peak_occupancy",
];

fn sim_counts(out: &mut PassOut, completed: u32, ttft: [SimDuration; 2], e2e: SimDuration) {
    out.count("floor.completed", f64::from(completed));
    out.count("sim.ttft_p50_s", ttft[0].as_secs_f64());
    out.count("sim.ttft_p95_s", ttft[1].as_secs_f64());
    out.count("sim.e2e_p95_s", e2e.as_secs_f64());
    out.work += f64::from(completed);
}

fn serving_counts(out: &mut PassOut, r: &ServingReport) {
    sim_counts(out, r.completed, [r.ttft_p50, r.ttft_p95], r.e2e_p95);
    out.count("sim.slo_attainment", r.slo.ttft_attainment);
    out.count("sim.tok_s", r.throughput_tok_s);
    out.count("kv.preemptions", r.preemptions as f64);
    out.count("kv.swap_outs", r.swap_outs as f64);
    out.count("kv.recomputed_tokens", r.recomputed_tokens as f64);
    out.count("kv.peak_occupancy", r.kv_peak_occupancy);
}

fn fleet_counts(out: &mut PassOut, r: &FleetReport) {
    sim_counts(out, r.completed, [r.ttft_p50, r.ttft_p95], r.e2e_p95);
    out.count("sim.slo_attainment", r.slo.ttft_attainment);
    out.count("sim.tok_s", r.throughput_tok_s);
    out.count("fleet.handoffs", r.handoffs as f64);
    out.count("fleet.handoff_bytes", r.handoff_bytes as f64);
    out.count("fleet.scale_ups", f64::from(r.scale_ups));
    out.count("fleet.scale_downs", f64::from(r.scale_downs));
    out.count("fleet.replica_seconds", r.replica_seconds);
}

impl Workload for ServeKv {
    fn stored_as(&self) -> Stored {
        Stored::Full
    }

    fn pass(&self, ident: &Ident, rec: &Recorder, parent: Option<u32>, pass_no: u64) -> PassOut {
        let mut out = PassOut::default();
        let mut reports = Vec::with_capacity(self.cfgs.len());
        for (op, cfg) in self.cfgs.iter().enumerate() {
            let id = op_id(pass_no, op);
            let key = format!("serve_kv/seed{}", cfg.seed);
            let mut cfg = cfg.clone();
            cfg.platform = ident.platform(&cfg.platform);
            cfg.model = ident.model(&cfg.model);
            let run = guarded(|| {
                let (report, trace) =
                    rec.span("floor", parent, id, || simulate_traced(&cfg, self.replicas));
                let events: usize = trace.lifecycles.iter().map(|l| l.events.len()).sum();
                let samples = trace.samples.len();
                let timeline = rec.span("trace.to_trace", parent, id, || trace.to_trace());
                rec.span("trace.drop", parent, id, || drop(trace));
                let export = rec.span("trace.export", parent, id, || {
                    skip_trace::chrome::to_chrome_trace(&timeline)
                });
                rec.span("trace.drop", parent, id, || drop(timeline));
                (report, events, samples, export)
            });
            let Some((report, events, samples, export)) = run else {
                out.outputs.push((key, Output::Panicked(1)));
                continue;
            };
            reports.push((cfg.seed, report.clone()));
            out.count("floor.lifecycle_events", events as f64);
            out.count("floor.counter_samples", samples as f64);
            if ident.is_original() {
                out.count("trace.export_bytes", export.len() as f64);
            }
            out.outputs.push((key.clone(), Output::Serving(report)));
            out.outputs
                .push((format!("{key}/chrome"), Output::Export(export)));
        }
        reports.sort_by_key(|(seed, _)| *seed);
        for (_, r) in &reports {
            serving_counts(&mut out, r);
        }
        out.average(&MEANS, self.cfgs.len());
        out
    }

    fn probes(&self) -> Vec<(&'static str, f64)> {
        let c = &self.cfgs[0];
        let Policy::Continuous { max_batch } = c.policy else {
            unreachable!("serve_kv batches continuously")
        };
        let mut m = price_probe(
            std::slice::from_ref(&c.platform),
            std::slice::from_ref(&c.model),
            max_batch,
            c.prompt_len,
            c.new_tokens,
        );
        let n = c.requests as usize;
        m.push((
            "arrivals.s",
            median_secs(PROBE_REPS, || {
                for c in &self.cfgs {
                    black_box(
                        RequestStream::poisson(
                            c.arrival_rate_per_s,
                            c.prompt_len,
                            c.new_tokens,
                            c.seed,
                        )
                        .take(n)
                        .map(|r| r.arrival)
                        .max(),
                    );
                }
            }),
        ));
        m
    }
}

pub struct FleetAutoscale {
    /// One config per arrival seed, in this run's order.
    cfgs: Vec<FleetConfig>,
}

/// `simulate_fleet` on `prefill=gh200:1,decode=intel_h100:3` serving
/// llama-3.2-1b: cost-model JSQ, chunked prefill, bursty arrivals of
/// 20/120 req/s and the default autoscaler.
pub fn fleet_autoscale(seed: u64) -> Result<FleetAutoscale, String> {
    let cfg = FleetConfig {
        spec: FleetSpec::parse("prefill=gh200:1,decode=intel_h100:3")?,
        model: zoo::llama32_1b(),
        max_batch: 8,
        requests: 10_000,
        arrivals: ArrivalProcess::Bursty {
            base_rate_per_s: 20.0,
            burst_rate_per_s: 120.0,
            burst_len: SimDuration::from_millis(400),
            lull_len: SimDuration::from_millis(2_000),
        },
        prompt_len: 128,
        new_tokens: 8,
        seed: ARRIVAL_SEEDS[0],
        slo: SloTargets {
            ttft: Some(SimDuration::from_millis(600)),
            e2e: Some(SimDuration::from_millis(2_500)),
        },
        router: FleetRouterPolicy::CostModelJsq,
        policy: FleetBatchPolicy::ChunkedPrefill { chunk_tokens: 128 },
        autoscale: Some(AutoscaleConfig::default()),
    };
    let cfgs = per_arrival_seed(&cfg, seed, |c, s| c.seed = s);
    for c in &cfgs {
        c.validate().map_err(|e| e.to_string())?;
    }
    Ok(FleetAutoscale { cfgs })
}

fn renamed(cfg: &FleetConfig, ident: &Ident) -> FleetConfig {
    let mut cfg = cfg.clone();
    for g in &mut cfg.spec.groups {
        g.platform = ident.platform(&g.platform);
    }
    cfg.model = ident.model(&cfg.model);
    cfg
}

impl Workload for FleetAutoscale {
    fn stored_as(&self) -> Stored {
        Stored::Full
    }

    fn pass(&self, ident: &Ident, rec: &Recorder, parent: Option<u32>, pass_no: u64) -> PassOut {
        let mut out = PassOut::default();
        let mut reports = Vec::with_capacity(self.cfgs.len());
        for (op, cfg) in self.cfgs.iter().enumerate() {
            let key = format!("fleet_autoscale/seed{}", cfg.seed);
            let cfg = renamed(cfg, ident);
            let id = op_id(pass_no, op);
            match guarded(|| rec.span("floor", parent, id, || simulate_fleet(&cfg))) {
                Some(report) => {
                    reports.push((cfg.seed, report.clone()));
                    out.outputs.push((key, Output::Fleet(report)));
                }
                None => out.outputs.push((key, Output::Panicked(1))),
            }
        }
        reports.sort_by_key(|(seed, _)| *seed);
        for (_, r) in &reports {
            fleet_counts(&mut out, r);
        }
        out.average(&MEANS, self.cfgs.len());
        out
    }

    fn probes(&self) -> Vec<(&'static str, f64)> {
        let c = &self.cfgs[0];
        let platforms: Vec<Platform> = c.spec.groups.iter().map(|g| g.platform.clone()).collect();
        let mut m = price_probe(
            &platforms,
            std::slice::from_ref(&c.model),
            c.max_batch,
            c.prompt_len,
            c.new_tokens,
        );
        m.push((
            "arrivals.s",
            median_secs(PROBE_REPS, || {
                for c in &self.cfgs {
                    black_box(c.arrivals.generate(
                        c.requests as usize,
                        c.prompt_len,
                        c.new_tokens,
                        c.seed,
                    ));
                }
            }),
        ));
        // The recording `simulate_fleet` makes and drops, counted once.
        let (mut events, mut samples) = (0, 0);
        for c in &self.cfgs {
            let (_, trace) = simulate_fleet_traced(c);
            events += trace
                .lifecycles
                .iter()
                .map(|l| l.events.len())
                .sum::<usize>();
            samples += trace.samples.len();
        }
        m.push(("floor.lifecycle_events", events as f64));
        m.push(("floor.counter_samples", samples as f64));
        m
    }
}

/// Median host seconds of `reps` calls of `f`.
pub fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut t: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&mut t)
}

/// Prices one workload's key grid — prefill at the prompt length and a
/// decode step mid-generation, at every batch up to `max_batch` — through
/// `LatencyModel::new`. Cold: a signature no run has used, so every key
/// runs the engine. Then a second model over the same signature, which
/// resolves every key from the shared pattern table, and warm repeats of
/// the grid on that model.
pub fn price_probe(
    platforms: &[Platform],
    models: &[ModelConfig],
    max_batch: u32,
    prompt_len: u32,
    new_tokens: u32,
) -> Vec<(&'static str, f64)> {
    const WARM_REPS: usize = 20;
    let ident = Ident("~probe".to_owned());
    let grid = |lm: &LatencyModel| {
        for b in 1..=max_batch {
            black_box(lm.prefill(b, prompt_len));
            black_box(lm.decode_step(b, prompt_len + new_tokens / 2));
        }
    };
    let lookups = f64::from(2 * max_batch);
    let (mut cold_s, mut runs, mut hits, mut warm_s, mut keys) = (0.0, 0, 0, 0.0, 0.0);
    for p in platforms {
        for m in models {
            let (p, m) = (ident.platform(p), ident.model(m));
            let cold = LatencyModel::new(p.clone(), m.clone());
            let start = Instant::now();
            grid(&cold);
            cold_s += start.elapsed().as_secs_f64();
            runs += cold.engine_runs();
            let shared = LatencyModel::new(p, m);
            grid(&shared);
            hits += shared.pattern_hits();
            let start = Instant::now();
            for _ in 0..WARM_REPS {
                grid(&shared);
            }
            warm_s += start.elapsed().as_secs_f64();
            keys += lookups;
        }
    }
    vec![
        ("price.cold_s", cold_s),
        ("price.warm_ns", warm_s * 1e9 / (keys * WARM_REPS as f64)),
        ("price.engine_runs", runs as f64),
        ("price.pattern_hits", hits as f64),
        ("price.lookups", keys),
    ]
}

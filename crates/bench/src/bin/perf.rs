//! Performance runner: times the canonical workloads and writes
//! `BENCH_SUITE.json`.
//!
//! Workloads timed (wall clock, one process):
//!
//! * `profile_big_trace` — engine runs + full SKIP analysis (depgraph,
//!   metrics, attribution) across the BERT batch sweep on Intel+H100: the
//!   allocation-lean interned-trace hot path.
//! * `engine_run_summary` — the same engine runs through the summary sink
//!   (no trace materialized): the serving latency model's cold-key path.
//! * `fig10_sweep_serial` / `fig10_sweep_parallel` — the Fig. 10 BERT
//!   sweep pinned to 1 worker vs [`PARALLEL_WORKERS`]: the deterministic
//!   fan-out harness' speedup on the multi-experiment path. Each entry
//!   records the worker count it actually ran with; the speedup line is
//!   skipped on single-core hosts, where the comparison measures only
//!   fan-out overhead.
//! * `serving_sim` — the serving extension sweep (30 discrete-event
//!   simulations).
//! * `serving_policies` — the policy × router matrix (27 four-replica
//!   simulations through the composable scheduler seams).
//! * `fleet_disagg` — the heterogeneous-fleet matrix (12 fleet
//!   simulations: homogeneous trio + every disaggregated pairing, with
//!   coupling-priced KV handoffs).
//! * `handoff_pricing` — a single disaggregated fleet simulation
//!   iterated: the per-request route → KV-size → link-occupancy →
//!   coupling-transfer hot path.
//! * `router_dispatch` — a single partitioned-router simulation iterated:
//!   the per-arrival `Router` dyn-dispatch plus per-iteration `BatchPolicy`
//!   dyn-dispatch hot path, measured end to end.
//! * `latency_cold_keys` — fresh-instance `LatencyModel` pricing over the
//!   serving key grid, a new model each iteration: one signature-cold
//!   pass of engine runs, then shape-signature pattern lookups.
//! * `fusion_recommend` — chain extraction + recommendation over a GPT2
//!   prefill trace, iterated for a stable reading.
//! * `serving_100k` / `fleet_100k` — one hundred thousand requests through
//!   the four-replica serving floor and the disaggregated fleet floor, one
//!   pass each: the population-scale path the allocation audit exists for.
//! * `plan_sweep` — the pruned generational capacity sweep over the full
//!   12-replica candidate space (1260 fleet compositions). The entry also
//!   records how many candidates were fully simulated vs resolved by the
//!   analytic bounds and early aborts — the pruning win this PR exists
//!   for. `--budget-ms N` puts an absolute wall-clock cap on this entry
//!   and the two `*_100k` entries (the CI smoke), independent of the
//!   relative baseline gates.
//! * `chrome_export` — the Chrome-trace export of one traced four-replica
//!   serving run, iterated; the run and its timeline conversion happen
//!   before the clock starts. Events are exported bytes, so the
//!   throughput gate reads bytes per second, and a return to an exporter
//!   that builds a value tree first fails it.
//!
//! Flags: `--threads N` (parallel worker count; default 4), `--out PATH`
//! (default `BENCH_SUITE.json`), `--baseline PATH` (print per-entry deltas
//! against a committed baseline and exit non-zero if any workload's wall
//! clock regresses more than 2x or its events/s throughput drops more
//! than 2x), `--budget-ms N` (fail if a `*_100k` entry exceeds N ms wall
//! clock; 0 or absent disables the gate).

use std::time::Instant;

use serde::{Deserialize, Serialize};
use skip_bench::experiments::{capacity, fig10, fleet_disagg, serving, serving_policies};
use skip_bench::harness;
use skip_core::ProfileReport;
use skip_hw::Platform;
use skip_llm::{zoo, Phase, Workload};
use skip_mem::OffloadPolicy;
use skip_runtime::{Engine, ExecMode};
use skip_serve::fleet::plan;
use skip_serve::{
    simulate_fleet, simulate_replicas, simulate_traced, ArrivalProcess, FleetBatchPolicy,
    FleetConfig, FleetRouterPolicy, FleetSpec, KvCacheConfig, LatencyModel, Policy, RouterPolicy,
    ServingConfig, SloTargets, SweepStats,
};
use skip_trace::{chrome, Trace};

/// One timed workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchEntry {
    /// Workload name.
    name: String,
    /// Wall-clock time, milliseconds.
    wall_ms: f64,
    /// Parallel worker count this entry ran with (1 = serial; 0 = a
    /// legacy suite file that predates per-entry counts).
    #[serde(default)]
    threads: usize,
    /// Simulated trace events processed per second, where meaningful.
    events_per_s: Option<f64>,
    /// Process peak RSS after the workload, KiB (`/proc/self/status`).
    peak_rss_kb: Option<u64>,
    /// Planner candidates fully simulated (the `plan_sweep` entry only).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    candidates_simulated: Option<u32>,
    /// Planner candidates resolved without a full simulation — analytic
    /// pruning plus early aborts (the `plan_sweep` entry only).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    candidates_pruned: Option<u32>,
}

/// The whole suite, as written to `BENCH_SUITE.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchSuite {
    /// One entry per workload.
    entries: Vec<BenchEntry>,
}

/// Worker count for the `*_parallel` entries unless `--threads` overrides
/// it. Pinned rather than host-resolved so the committed baseline compares
/// like against like on machines with different core counts.
const PARALLEL_WORKERS: usize = 4;

/// Peak resident set size in KiB, if the platform exposes it.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Times `work` on `threads` workers; `work` reports how many trace events
/// it processed.
fn timed(name: &str, threads: usize, work: impl FnOnce() -> Option<u64>) -> BenchEntry {
    let start = Instant::now();
    let events = work();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let entry = BenchEntry {
        name: name.to_owned(),
        wall_ms,
        threads,
        events_per_s: events.map(|e| e as f64 / (wall_ms / 1e3)),
        peak_rss_kb: peak_rss_kb(),
        candidates_simulated: None,
        candidates_pruned: None,
    };
    let eps = entry
        .events_per_s
        .map_or(String::new(), |e| format!("  ({e:.0} events/s)"));
    println!("{name}: {wall_ms:.1} ms [{threads}t]{eps}");
    entry
}

/// Iterations for the sub-10ms workloads, for stable wall readings.
const ITERS: u64 = 20;

fn profile_big_trace() -> Option<u64> {
    let engine = Engine::new(Platform::intel_h100());
    let mut events = 0u64;
    for _ in 0..ITERS {
        for &bs in &skip_bench::BATCH_SWEEP {
            let wl = Workload::new(
                zoo::bert_base_uncased(),
                Phase::Prefill,
                bs,
                skip_bench::SEQ_LEN,
            );
            let trace = engine.run(&wl, ExecMode::Eager);
            events +=
                (trace.cpu_ops().len() + trace.launches().len() + trace.kernels().len()) as u64;
            let _ = ProfileReport::analyze(&trace);
        }
    }
    Some(events)
}

/// The `profile_big_trace` engine runs through the summary sink: same
/// simulated work, no trace materialization and no analysis — isolates
/// what the serving stack pays per cold latency key.
fn engine_run_summary() -> Option<u64> {
    let engine = Engine::new(Platform::intel_h100());
    let mut events = 0u64;
    for _ in 0..ITERS {
        for &bs in &skip_bench::BATCH_SWEEP {
            let wl = Workload::new(
                zoo::bert_base_uncased(),
                Phase::Prefill,
                bs,
                skip_bench::SEQ_LEN,
            );
            let s = engine.run_summary(&wl, ExecMode::Eager);
            events += s.cpu_ops() + s.launches() + s.kernels();
        }
    }
    Some(events)
}

/// Fresh-instance `LatencyModel` pricing over the serving key grid, a new
/// model every iteration. Before the shape-signature pattern table this
/// made every key a cold engine run per iteration; now only the first
/// instance of the signature simulates and later instances resolve the
/// priced pattern by table lookup. Events count keys priced either way
/// (engine runs + pattern hits), so the throughput figure stays comparable
/// across the change.
fn latency_cold_keys() -> Option<u64> {
    let mut keys = 0u64;
    for _ in 0..ITERS {
        let m = LatencyModel::new(Platform::intel_h100(), zoo::gpt2());
        for batch in [1u32, 4, 16] {
            let _ = m.prefill(batch, 128);
            let _ = m.prefill(batch, 100); // + the 64 bucket
            let _ = m.decode_step(batch, 128);
            let _ = m.decode_step(batch, 200); // + the 256 bucket
        }
        keys += m.engine_runs() + m.pattern_hits();
    }
    Some(keys)
}

fn fusion_recommend() -> Option<u64> {
    let wl = Workload::new(zoo::gpt2(), Phase::Prefill, 1, skip_bench::SEQ_LEN);
    let trace = Engine::new(Platform::intel_h100()).run(&wl, ExecMode::Eager);
    let events = trace.kernels().len() as u64;
    let iters = 500u64;
    for _ in 0..iters {
        let _ = skip_fusion::recommend(&trace, 16, 0.8);
    }
    Some(events * iters)
}

/// One partitioned-router simulation iterated for a stable reading: every
/// arrival routes through the boxed `Router`, every iteration schedules
/// through the boxed `BatchPolicy` — the refactor's dyn-dispatch hot path.
fn router_dispatch() -> Option<u64> {
    let cfg = ServingConfig {
        platform: Platform::intel_h100(),
        model: zoo::gpt2(),
        policy: Policy::Continuous { max_batch: 8 },
        requests: 200,
        arrival_rate_per_s: 500.0,
        prompt_len: 32,
        new_tokens: 4,
        seed: 13,
        kv: None,
        slo: SloTargets::default(),
        router: RouterPolicy::JoinShortestQueue,
    };
    for _ in 0..ITERS {
        let r = simulate_replicas(&cfg, 4);
        assert_eq!(r.completed, 200);
    }
    Some(u64::from(cfg.requests) * ITERS)
}

/// One disaggregated fleet simulation iterated for a stable reading:
/// every request routes across heterogeneous pools and pays a
/// coupling-priced KV handoff through a per-destination link.
fn handoff_pricing() -> Option<u64> {
    let cfg = FleetConfig {
        spec: FleetSpec::disaggregated(Platform::gh200(), 1, Platform::intel_h100(), 3),
        model: zoo::gpt2(),
        max_batch: 8,
        requests: 200,
        arrivals: ArrivalProcess::Poisson { rate_per_s: 500.0 },
        prompt_len: 32,
        new_tokens: 4,
        seed: 13,
        slo: SloTargets::default(),
        router: FleetRouterPolicy::CostModelJsq,
        policy: FleetBatchPolicy::Continuous,
        autoscale: None,
    };
    let mut handoffs = 0u64;
    for _ in 0..ITERS {
        let r = simulate_fleet(&cfg);
        assert_eq!(r.completed, 200);
        handoffs += r.handoffs;
    }
    Some(handoffs)
}

/// Requests in the population-scale `*_100k` entries.
const POPULATION: u32 = 100_000;

/// One hundred thousand requests through the four-replica serving floor,
/// one pass (no [`ITERS`]): the allocation-lean per-event path at the
/// population scale the capacity planner sweeps. Events are completed
/// requests, so the throughput gate reads requests per second.
fn serving_100k() -> Option<u64> {
    let cfg = ServingConfig {
        platform: Platform::intel_h100(),
        model: zoo::gpt2(),
        policy: Policy::Continuous { max_batch: 8 },
        requests: POPULATION,
        arrival_rate_per_s: 1_000.0,
        prompt_len: 128,
        new_tokens: 4,
        seed: 13,
        kv: None,
        slo: SloTargets::default(),
        router: RouterPolicy::JoinShortestQueue,
    };
    let r = simulate_replicas(&cfg, 4);
    assert_eq!(r.completed, POPULATION);
    Some(u64::from(r.completed))
}

/// One hundred thousand requests through the disaggregated fleet floor
/// (1 GH200 prefill + 3 H100 decode), one pass: per-request routing, KV
/// handoff pricing, and lifecycle recording at population scale.
fn fleet_100k() -> Option<u64> {
    let cfg = FleetConfig {
        spec: FleetSpec::disaggregated(Platform::gh200(), 1, Platform::intel_h100(), 3),
        model: zoo::gpt2(),
        max_batch: 8,
        requests: POPULATION,
        arrivals: ArrivalProcess::Poisson {
            rate_per_s: 1_000.0,
        },
        prompt_len: 128,
        new_tokens: 4,
        seed: 13,
        slo: SloTargets::default(),
        router: FleetRouterPolicy::CostModelJsq,
        policy: FleetBatchPolicy::Continuous,
        autoscale: None,
    };
    let r = simulate_fleet(&cfg);
    assert_eq!(r.completed, POPULATION);
    Some(u64::from(r.completed))
}

/// The timeline of one traced serving run: four Llama-2-7B replicas on
/// GH200 behind JSQ under a KV pool tight enough to preempt, so the export
/// carries lifecycle slices, preempt→resume flows and counter tracks.
fn chrome_export_timeline() -> Trace {
    let cfg = ServingConfig {
        platform: Platform::gh200(),
        model: zoo::llama2_7b(),
        policy: Policy::Continuous { max_batch: 64 },
        requests: 400,
        arrival_rate_per_s: 18.0,
        prompt_len: 1024,
        new_tokens: 128,
        seed: 13,
        kv: Some(KvCacheConfig::with_blocks(2_200, OffloadPolicy::Auto)),
        slo: SloTargets::default(),
        router: RouterPolicy::JoinShortestQueue,
    };
    let (report, trace) = simulate_traced(&cfg, 4);
    assert_eq!(report.completed, 400);
    assert!(report.preemptions > 0, "the KV pool must preempt");
    trace.to_trace()
}

/// Exports `timeline` [`ITERS`] times, reporting the bytes written.
fn chrome_export(timeline: &Trace) -> Option<u64> {
    let bytes = (0..ITERS)
        .map(|_| chrome::to_chrome_trace(timeline).len() as u64)
        .sum();
    Some(bytes)
}

/// The `plan_sweep` planner: the capacity experiment's reference traffic
/// envelope opened up to a 12-replica candidate space (1260 candidates vs
/// the experiment's 132). At this scale the sweep only fits the CI wall
/// budget because the generational pruning resolves most of the space
/// without a full simulation — which is exactly what the entry's
/// `candidates_simulated` / `candidates_pruned` fields pin.
fn plan_sweep_planner() -> plan::PlannerConfig {
    capacity::planner_with(12)
}

fn parse_args() -> (usize, String, Option<String>, f64) {
    let mut threads = 0usize;
    let mut out = String::from("BENCH_SUITE.json");
    let mut baseline = None;
    let mut budget_ms = 0.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads needs a number");
            }
            "--out" => out = args.next().expect("--out needs a path"),
            "--baseline" => baseline = Some(args.next().expect("--baseline needs a path")),
            "--budget-ms" => {
                budget_ms = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--budget-ms needs a number");
            }
            other => panic!("unknown flag {other}"),
        }
    }
    (threads, out, baseline, budget_ms)
}

/// Prints the per-entry delta of every workload against the baseline and
/// returns the names that regressed: wall clock more than 2x up, or —
/// where both runs report a throughput — events/s more than 2x down.
/// The throughput gate catches regressions the wall gate can't see, e.g.
/// an entry that got "faster" only because it now processes fewer events.
fn compare(suite: &BenchSuite, baseline: &BenchSuite) -> Vec<String> {
    let mut bad = Vec::new();
    println!("\nvs baseline:");
    for base in &baseline.entries {
        let Some(now) = suite.entries.iter().find(|e| e.name == base.name) else {
            println!("  {:<24} missing from this run", base.name);
            continue;
        };
        let delta = (now.wall_ms / base.wall_ms - 1.0) * 100.0;
        let slower = now.wall_ms > base.wall_ms * 2.0;
        let throughput_drop = match (now.events_per_s, base.events_per_s) {
            (Some(n), Some(b)) => n < b / 2.0,
            _ => false,
        };
        let flag = match (slower, throughput_drop) {
            (true, _) => "  REGRESSED >2x",
            (false, true) => "  THROUGHPUT DROP >2x",
            (false, false) => "",
        };
        println!(
            "  {:<24} {:>8.1} ms  base {:>8.1} ms  {:>+7.1}%{}",
            base.name, now.wall_ms, base.wall_ms, delta, flag
        );
        if slower {
            bad.push(format!(
                "{}: {:.1} ms vs baseline {:.1} ms",
                base.name, now.wall_ms, base.wall_ms
            ));
        } else if throughput_drop {
            bad.push(format!(
                "{}: {:.0} events/s vs baseline {:.0} events/s",
                base.name,
                now.events_per_s.unwrap_or(0.0),
                base.events_per_s.unwrap_or(0.0)
            ));
        }
    }
    for now in &suite.entries {
        if !baseline.entries.iter().any(|b| b.name == now.name) {
            println!("  {:<24} {:>8.1} ms  (new entry)", now.name, now.wall_ms);
        }
    }
    bad
}

fn main() {
    let (threads, out, baseline, budget_ms) = parse_args();
    let workers = if threads > 0 {
        threads
    } else {
        PARALLEL_WORKERS
    };
    println!("perf suite: {workers} parallel workers\n");

    let mut entries = Vec::new();
    entries.push(timed("profile_big_trace", 1, profile_big_trace));
    entries.push(timed("engine_run_summary", 1, engine_run_summary));

    entries.push(timed("fig10_sweep_serial", 1, || {
        let mut events = 0u64;
        for _ in 0..ITERS {
            events += fig10::run_with(1).iter().map(|r| r.events).sum::<u64>();
        }
        Some(events)
    }));
    // Record the worker count the harness will actually grant, not the
    // request: on a small host the two differ, and the committed baseline
    // must say what the numbers were measured with.
    entries.push(timed(
        "fig10_sweep_parallel",
        harness::effective_workers(workers),
        || {
            let mut events = 0u64;
            for _ in 0..ITERS {
                events += fig10::run_with(workers)
                    .iter()
                    .map(|r| r.events)
                    .sum::<u64>();
            }
            Some(events)
        },
    ));

    entries.push(timed("serving_sim", harness::threads(), || {
        let rows = serving::run();
        Some(rows.iter().map(|r| u64::from(r.report.completed)).sum())
    }));
    entries.push(timed("serving_policies", harness::threads(), || {
        let rows = serving_policies::run();
        Some(rows.iter().map(|r| u64::from(r.report.completed)).sum())
    }));
    entries.push(timed("fleet_disagg", harness::threads(), || {
        let cells = fleet_disagg::run();
        Some(cells.iter().map(|c| u64::from(c.report.completed)).sum())
    }));
    entries.push(timed("handoff_pricing", 1, handoff_pricing));
    entries.push(timed("router_dispatch", 1, router_dispatch));
    entries.push(timed("latency_cold_keys", 1, latency_cold_keys));
    entries.push(timed("fusion_recommend", 1, fusion_recommend));
    entries.push(timed("serving_100k", 1, serving_100k));
    entries.push(timed("fleet_100k", 1, fleet_100k));

    let mut sweep_stats: Option<SweepStats> = None;
    let mut plan_entry = timed("plan_sweep", harness::effective_workers(workers), || {
        let cfg = plan_sweep_planner();
        let sweep = plan::sweep_with(&cfg, |wave, bounds| {
            harness::map_with(workers, wave, |c| plan::evaluate_bounded(&cfg, &c, bounds))
        });
        let completed: u64 = sweep
            .outcomes
            .iter()
            .map(|o| u64::from(o.report.completed))
            .sum();
        sweep_stats = Some(sweep.stats);
        Some(completed)
    });
    if let Some(s) = sweep_stats {
        plan_entry.candidates_simulated = Some(s.simulated);
        plan_entry.candidates_pruned = Some(s.resolved_without_full_simulation());
        println!(
            "  plan_sweep resolutions: {} candidates, {} simulated, {} aborted, \
             {} infeasible by bound, {} dominated",
            s.candidates, s.simulated, s.aborted, s.pruned_infeasible, s.pruned_dominated
        );
    }
    entries.push(plan_entry);

    let timeline = chrome_export_timeline();
    entries.push(timed("chrome_export", 1, || chrome_export(&timeline)));

    if budget_ms > 0.0 {
        let over: Vec<_> = entries
            .iter()
            .filter(|e| {
                (e.name.ends_with("_100k") || e.name == "plan_sweep") && e.wall_ms > budget_ms
            })
            .collect();
        if !over.is_empty() {
            for e in &over {
                eprintln!(
                    "PERF BUDGET EXCEEDED: {} took {:.1} ms (budget {budget_ms:.0} ms)",
                    e.name, e.wall_ms
                );
            }
            std::process::exit(1);
        }
        println!("population-scale entries within the {budget_ms:.0} ms budget");
    }

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if cores >= 2 {
        let serial = entries
            .iter()
            .find(|e| e.name == "fig10_sweep_serial")
            .expect("serial entry")
            .wall_ms;
        let parallel = entries
            .iter()
            .find(|e| e.name == "fig10_sweep_parallel")
            .expect("parallel entry")
            .wall_ms;
        let speedup = serial / parallel;
        println!("\nfig10 sweep speedup: {speedup:.2}x ({workers} workers)");
        // With the sharded latency cache, fan-out must not lose to the
        // serial sweep on a multi-core host (5% scheduling-noise floor).
        if speedup < 0.95 {
            eprintln!(
                "PERF REGRESSION: fig10 parallel sweep slower than serial \
                 ({parallel:.1} ms vs {serial:.1} ms on {cores} cores)"
            );
            std::process::exit(1);
        }
    } else {
        println!("\nfig10 sweep speedup: skipped (single-core host)");
    }

    let suite = BenchSuite { entries };
    let json = serde_json::to_string_pretty(&suite).expect("suite serializes");
    std::fs::write(&out, json + "\n").expect("write BENCH_SUITE.json");
    println!("wrote {out}");

    if let Some(path) = baseline {
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let base: BenchSuite = serde_json::from_str(&text).expect("baseline parses");
                let bad = compare(&suite, &base);
                if !bad.is_empty() {
                    eprintln!("PERF REGRESSION (>2x over {path}):");
                    for b in &bad {
                        eprintln!("  {b}");
                    }
                    std::process::exit(1);
                }
                println!("no >2x regression vs {path}");
            }
            Err(e) => {
                eprintln!("baseline {path} unreadable: {e}");
                std::process::exit(1);
            }
        }
    }
}

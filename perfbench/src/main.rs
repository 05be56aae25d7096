//! perfbench — the skip-rs benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <characterize|serve_kv|fleet_autoscale|plan_grid> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload as a closed loop of passes: the next
//! pass starts when the previous one ends. A pass runs every operation of
//! the workload once; simulated arrivals inside a pass are open-loop in
//! simulated time, so host time never delays them. The run sets up its
//! inputs several times, runs cold passes (the first in a fresh process,
//! the rest under names that miss every process-global cache) and warm
//! passes until `--seconds` is spent, and checks every operation's output
//! against the references in `ref/`.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` alternates
//! untraced and traced warm passes, records spans around the calls into
//! each layer, writes them as a Chrome trace under the build directory,
//! and prints the per-layer metrics. The last line of standard output is
//! one JSON object. `--write-ref` regenerates `ref/<workload>.json`.

mod characterize;
mod check;
mod planner;
mod serving;
mod spans;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use check::{Reference, Stored};
use spans::{Recorder, Span};
use stats::{median, quantile, top_percentile};
use workload::{Ident, PassOut, Workload};

const WORKLOADS: [&str; 4] = ["characterize", "serve_kv", "fleet_autoscale", "plan_grid"];
/// Host seconds one set-up sample lasts at least.
const SETUP_BATCH_S: f64 = 0.01;
/// Cold passes per run; `cold_s` is their median.
const COLD_PASSES: usize = 12;
/// Warm passes before the peak RSS is read.
const RSS_WARM: usize = 2;
/// Warm passes per run, at least and at most.
const MIN_WARM: usize = 5;
const MAX_WARM: usize = 400;

/// Per-layer metrics taken from span self times: (span name, metric,
/// from cold passes instead of warm ones).
const SPAN_METRICS: [(&str, &str, bool); 15] = [
    ("llm.graph", "llm.graph_s", true),
    ("runtime.run", "runtime.run_cold_s", true),
    ("runtime.run", "runtime.run_warm_s", false),
    ("runtime.run_graph", "runtime.run_graph_s", false),
    ("core.analyze", "core.analyze_s", false),
    ("core.classify", "core.classify_s", false),
    ("fusion.recommend", "fusion.recommend_s", false),
    ("trace.to_trace", "trace.to_trace_s", false),
    ("trace.export", "trace.export_s", false),
    ("trace.drop", "trace.drop_s", false),
    ("floor", "floor.s", false),
    ("plan.sweep", "plan.sweep_self_s", false),
    ("plan.evaluate", "plan.evaluate_s", false),
    ("plan.frontier", "plan.frontier_s", false),
    ("harness.wave", "harness.wave_self_s", false),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    write_ref: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut write_ref = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-ref" {
            write_ref = true;
            continue;
        }
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key.to_owned(), value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("--{k} is required"));
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {WORKLOADS:?})"
        ));
    }
    let num = |k: &str, default: &str| -> Result<u64, String> {
        flags
            .get(k)
            .map_or(default, String::as_str)
            .parse()
            .map_err(|_| format!("--{k}: not a whole number"))
    };
    let trace = match num("trace", "0")? {
        0 => false,
        1 => true,
        _ => return Err("--trace: expected 0 or 1".into()),
    };
    let seconds = num("seconds", "10")?;
    if seconds == 0 {
        return Err("--seconds: must be positive".into());
    }
    Ok(Args {
        workload,
        seed: num("seed", "0")?,
        seconds,
        trace,
        write_ref,
    })
}

/// Builds and validates the workload's inputs from `seed`.
fn build(workload: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "characterize" => Box::new(characterize::setup(seed)),
        "serve_kv" => Box::new(serving::serve_kv(seed)?),
        "fleet_autoscale" => Box::new(serving::fleet_autoscale(seed)?),
        "plan_grid" => Box::new(planner::setup(seed)?),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Cold,
    Warm,
}

/// One timed pass.
struct Timed {
    no: u64,
    kind: Kind,
    traced: bool,
    secs: f64,
}

/// Output checks and exact-counter agreement over a run's passes.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    /// Counters of the first pass; later passes must repeat them.
    counts: Option<Vec<(&'static str, f64)>>,
    drifted: Vec<&'static str>,
    work: f64,
    mismatched: Vec<String>,
}

impl Ledger {
    fn check(&mut self, refs: &Reference, how: Stored, ident: &Ident, out: &PassOut) {
        let mut pass_failed = 0;
        for (key, output) in &out.outputs {
            self.attempted += output.ops();
            if let Some(actual) = output.stored(ident, how) {
                if !refs.matches(key, &actual) {
                    // A sweep label, fusion list or export that differs
                    // fails one operation of its own.
                    pass_failed += output.ops().max(1);
                    if self.mismatched.len() < 5 {
                        self.mismatched.push(key.clone());
                    }
                }
            }
        }
        match &self.counts {
            None => {
                self.counts = Some(out.counts.clone());
                self.work = out.work;
            }
            Some(first) => {
                // Renamed passes skip the counters that depend on names.
                for (name, v) in &out.counts {
                    let want = first.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
                    if want.map(f64::to_bits) != Some(v.to_bits()) && !self.drifted.contains(name) {
                        self.drifted.push(name);
                    }
                }
                if out.work.to_bits() != self.work.to_bits() && !self.drifted.contains(&"work") {
                    self.drifted.push("work");
                }
            }
        }
        // A drifting counter means the pass is not the same work: every
        // operation of it counts as failed.
        if !self.drifted.is_empty() {
            pass_failed = out.outputs.iter().map(|(_, o)| o.ops()).sum();
        }
        self.failed = (self.failed + pass_failed).min(self.attempted);
    }
}

fn vm_hwm_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Where the traced run writes its spans: the build directory.
fn trace_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target.join("perfbench-spans")
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_owned(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn unit_of(name: &str) -> &'static str {
    match name {
        "sim.tok_s" => "tok/s",
        "bench.warm_top_pct" => "%",
        n if n.ends_with("_ns") || n.contains(".ns_per_") => "ns",
        n if n.ends_with("_bytes") => "bytes",
        n if ["_frac", "attainment", "occupancy", "coverage"]
            .iter()
            .any(|s| n.ends_with(s)) =>
        {
            "ratio"
        }
        n if n.ends_with("_s") || n.ends_with(".s") || n.ends_with("seconds") => "s",
        _ => "count",
    }
}

/// Every per-layer metric, in the order BENCHMARK.json lists them.
const PER_LAYER: [&str; 67] = [
    "llm.graph_s",
    "llm.graph_ops",
    "runtime.run_cold_s",
    "runtime.run_warm_s",
    "runtime.run_graph_s",
    "runtime.events",
    "runtime.ns_per_event",
    "core.analyze_s",
    "core.classify_s",
    "core.transition_batches",
    "core.paper_star_matches",
    "fusion.recommend_s",
    "fusion.recommendations",
    "trace.to_trace_s",
    "trace.export_s",
    "trace.export_bytes",
    "trace.drop_s",
    "price.cold_s",
    "price.warm_ns",
    "price.engine_runs",
    "price.pattern_hits",
    "price.lookups",
    "arrivals.s",
    "floor.s",
    "floor.ns_per_request",
    "floor.completed",
    "floor.lifecycle_events",
    "floor.counter_samples",
    "kv.preemptions",
    "kv.swap_outs",
    "kv.recomputed_tokens",
    "kv.peak_occupancy",
    "fleet.handoffs",
    "fleet.handoff_bytes",
    "fleet.scale_ups",
    "fleet.scale_downs",
    "fleet.replica_seconds",
    "sim.ttft_p50_s",
    "sim.ttft_p95_s",
    "sim.e2e_p95_s",
    "sim.slo_attainment",
    "sim.tok_s",
    "plan.bounds_s",
    "plan.sweep_self_s",
    "plan.evaluate_s",
    "plan.frontier_s",
    "plan.candidates",
    "plan.simulated",
    "plan.aborted",
    "plan.pruned_infeasible",
    "plan.pruned_dominated",
    "plan.resolved_without_sim",
    "plan.resolved_without_sim_frac",
    "harness.workers",
    "harness.wave_self_s",
    "harness.busy_frac",
    "bench.trace_overhead_s",
    "bench.span_coverage",
    "bench.warm_samples",
    "bench.warm_top_pct",
    "bench.warm_top_s",
    "bench.first_cold_s",
    "bench.traced_warm_s",
    "bench.spans",
    "bench.cold_passes",
    "bench.count_drift",
    "bench.ops_per_pass",
];

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        if args.write_ref {
            write_refs(&args.workload)
        } else {
            run(&args)
        }
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// The state of one measured run.
struct Runner<'a> {
    args: &'a Args,
    bench: Box<dyn Workload>,
    refs: Reference,
    /// Set-ups per set-up sample.
    setup_reps: usize,
    setup: Vec<f64>,
    off: Recorder,
    on: Recorder,
    ledger: Ledger,
    passes: Vec<Timed>,
    first_out: Option<PassOut>,
    warm: usize,
}

impl Runner<'_> {
    fn pass(&mut self, ident: &Ident, kind: Kind, traced: bool) {
        let no = self.passes.len() as u64;
        let rec = if traced { &self.on } else { &self.off };
        let span = rec.open("pass", None, (no << 32) | 0xffff_ffff, 0);
        let start = Instant::now();
        let out = self.bench.pass(ident, rec, span.id(), no);
        let dt = secs(start);
        rec.close(span);
        self.ledger
            .check(&self.refs, self.bench.stored_as(), ident, &out);
        self.passes.push(Timed {
            no,
            kind,
            traced: rec.enabled(),
            secs: dt,
        });
        self.first_out.get_or_insert(out);
    }

    /// One warm pass (two when tracing: untraced, then traced) followed
    /// by one set-up sample.
    fn warm_step(&mut self) -> Result<(), String> {
        self.pass(&Ident::original(), Kind::Warm, false);
        if self.args.trace {
            self.pass(&Ident::original(), Kind::Warm, true);
        }
        self.warm += 1;
        let start = Instant::now();
        for _ in 0..self.setup_reps {
            std::hint::black_box(build(&self.args.workload, self.args.seed)?);
        }
        self.setup.push(secs(start) / self.setup_reps as f64);
        Ok(())
    }
}

fn run(args: &Args) -> Result<String, String> {
    let refs = Reference::load(&args.workload)?;
    // Set-up takes microseconds for some workloads, so each sample
    // averages a batch of set-ups lasting about SETUP_BATCH_S. Samples
    // are taken between warm passes, so that a slow stretch of the host
    // does not fall on all of them; the same goes for the cold passes.
    let start = Instant::now();
    let bench = build(&args.workload, args.seed)?;
    let first_setup = secs(start);
    let mut r = Runner {
        args,
        bench,
        refs,
        setup_reps: (SETUP_BATCH_S / first_setup.max(1e-9))
            .ceil()
            .clamp(1.0, 1e6) as usize,
        setup: Vec::new(),
        off: Recorder::new(false),
        on: Recorder::new(args.trace),
        ledger: Ledger::default(),
        passes: Vec::new(),
        first_out: None,
        warm: 0,
    };

    let start = Instant::now();
    let budget = args.seconds as f64;
    r.pass(&Ident::original(), Kind::Cold, true);
    for _ in 0..RSS_WARM {
        r.warm_step()?;
    }
    // The workload's peak RSS, read before the renamed cold passes add
    // their own cache entries.
    let peak_rss = vm_hwm_mb()?;
    for k in 1..COLD_PASSES {
        while secs(start) < budget * k as f64 / COLD_PASSES as f64 && r.warm < MAX_WARM {
            r.warm_step()?;
        }
        r.pass(&Ident(format!("~cold{k}")), Kind::Cold, true);
    }
    while (r.warm < MIN_WARM || secs(start) < budget) && r.warm < MAX_WARM {
        r.warm_step()?;
    }
    let Runner {
        mut setup,
        on,
        ledger,
        passes,
        first_out,
        bench,
        ..
    } = r;
    let first_out = first_out.expect("at least one pass");

    let times = |kind: Kind, traced: bool| -> Vec<f64> {
        passes
            .iter()
            .filter(|p| p.kind == kind && (kind == Kind::Cold || p.traced == traced))
            .map(|p| p.secs)
            .collect()
    };
    let mut cold = times(Kind::Cold, true);
    let warm_off = times(Kind::Warm, false);
    let warm_s = median(&mut warm_off.clone());

    let summary = format!(
        "perfbench {} seed {}: setup {:.4} s, cold {:.4} s (n={}), warm median {:.4} s over {} passes{}, ops/pass {}, failed {}/{}{}{}",
        args.workload,
        args.seed,
        median(&mut setup.clone()),
        median(&mut cold.clone()),
        cold.len(),
        warm_s,
        warm_off.len(),
        top_percentile(warm_off.len()).map_or(String::new(), |p| format!(
            ", p{p} {:.4} s",
            quantile(&mut warm_off.clone(), p / 100.0)
        )),
        first_out.outputs.iter().map(|(_, o)| o.ops()).sum::<u64>(),
        ledger.failed,
        ledger.attempted,
        if ledger.drifted.is_empty() {
            String::new()
        } else {
            format!(", counters drifted: {:?}", ledger.drifted)
        },
        if ledger.mismatched.is_empty() {
            String::new()
        } else {
            format!(", first mismatches: {:?}", ledger.mismatched)
        },
    );
    println!("{summary}");

    let mut m = Metrics(Vec::new());
    if args.trace {
        let spans = on.take();
        let probes = bench.probes();
        per_layer(
            &mut m, &spans, &passes, &first_out, &probes, &ledger, warm_s,
        );
        write_spans(&args.workload, args.seed, &spans)?;
    } else {
        let paper = if args.workload == "characterize" {
            characterize::paper_ratio_err(characterize::ttft_lookup(&first_out))
                .ok_or("characterize pass lacks a paper-ratio run")?
        } else {
            characterize::paper_ratio_err_fresh()
        };
        let ok = 1.0 - ledger.failed as f64 / ledger.attempted.max(1) as f64;
        m.push("setup_s", median(&mut setup), "s");
        m.push("cold_s", median(&mut cold), "s");
        m.push("warm_s", warm_s, "s");
        m.push("sim_work_per_s", ledger.work / warm_s, "1/s");
        m.push("peak_rss_mb", peak_rss, "MB");
        m.push("ok_frac", ok, "ratio");
        m.push("paper_ratio_err", paper, "ratio");
    }
    let correct = ledger.failed == 0 && ledger.drifted.is_empty() && ledger.attempted > 0;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ledger.attempted,
        ledger.failed,
        m.json()
    ))
}

/// Per-layer metrics of a traced run.
fn per_layer(
    m: &mut Metrics,
    spans: &[Span],
    passes: &[Timed],
    first: &PassOut,
    probes: &[(&'static str, f64)],
    ledger: &Ledger,
    warm_s: f64,
) {
    let self_ns = spans::self_times(spans);
    // Self and total seconds by (pass, span name).
    let mut own: BTreeMap<(u64, &str), f64> = BTreeMap::new();
    let mut total: BTreeMap<(u64, &str), f64> = BTreeMap::new();
    for (s, &self_ns) in spans.iter().zip(&self_ns) {
        let key = (s.op >> 32, s.name);
        *own.entry(key).or_default() += self_ns as f64 / 1e9;
        *total.entry(key).or_default() += (s.end_ns - s.start_ns) as f64 / 1e9;
    }
    let traced = |kind: Kind| passes.iter().filter(move |p| p.traced && p.kind == kind);
    let layer = |name: &str, kind: Kind| -> f64 {
        let mut v: Vec<f64> = traced(kind)
            .map(|p| own.get(&(p.no, name)).copied().unwrap_or(0.0))
            .collect();
        median(&mut v)
    };
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for (span, metric, cold) in SPAN_METRICS {
        let kind = if cold { Kind::Cold } else { Kind::Warm };
        values.insert(metric, layer(span, kind));
    }
    for (name, v) in first.counts.iter().chain(probes) {
        values.insert(name, *v);
    }
    let get = |values: &BTreeMap<&str, f64>, k: &str| values.get(k).copied().unwrap_or(0.0);
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    values.insert(
        "runtime.ns_per_event",
        per(
            (get(&values, "runtime.run_warm_s") + get(&values, "runtime.run_graph_s")) * 1e9,
            get(&values, "runtime.events"),
        ),
    );
    values.insert(
        "floor.ns_per_request",
        per(
            get(&values, "floor.s") * 1e9,
            get(&values, "floor.completed"),
        ),
    );
    values.insert(
        "plan.resolved_without_sim_frac",
        per(
            get(&values, "plan.resolved_without_sim"),
            get(&values, "plan.candidates"),
        ),
    );

    // Harness utilization: evaluation time over worker-seconds of waves,
    // and the share of each traced warm pass its layer spans account for.
    let sum = |name: &str| -> f64 {
        traced(Kind::Warm)
            .filter_map(|p| total.get(&(p.no, name)))
            .sum()
    };
    values.insert(
        "harness.busy_frac",
        per(
            sum("plan.evaluate"),
            sum("harness.wave") * get(&values, "harness.workers"),
        ),
    );
    let mut coverage: Vec<f64> = traced(Kind::Warm)
        .filter_map(|p| {
            let dur = total.get(&(p.no, "pass"))?;
            Some(1.0 - own.get(&(p.no, "pass")).copied().unwrap_or(0.0) / dur)
        })
        .collect();
    let mut traced_warm: Vec<f64> = traced(Kind::Warm).map(|p| p.secs).collect();
    let traced_warm_s = median(&mut traced_warm);
    let mut warm_off: Vec<f64> = passes
        .iter()
        .filter(|p| p.kind == Kind::Warm && !p.traced)
        .map(|p| p.secs)
        .collect();
    let top = top_percentile(warm_off.len());
    values.insert("bench.trace_overhead_s", traced_warm_s - warm_s);
    values.insert("bench.traced_warm_s", traced_warm_s);
    values.insert("bench.span_coverage", median(&mut coverage));
    values.insert("bench.warm_samples", warm_off.len() as f64);
    values.insert("bench.warm_top_pct", top.unwrap_or(50.0));
    values.insert(
        "bench.warm_top_s",
        quantile(&mut warm_off, top.unwrap_or(50.0) / 100.0),
    );
    values.insert("bench.first_cold_s", passes.first().map_or(0.0, |p| p.secs));
    values.insert("bench.spans", spans.len() as f64);
    values.insert(
        "bench.cold_passes",
        passes.iter().filter(|p| p.kind == Kind::Cold).count() as f64,
    );
    values.insert("bench.count_drift", ledger.drifted.len() as f64);
    values.insert(
        "bench.ops_per_pass",
        first.outputs.iter().map(|(_, o)| o.ops()).sum::<u64>() as f64,
    );
    for name in PER_LAYER {
        m.push(name, get(&values, name), unit_of(name));
    }
}

fn write_spans(workload: &str, seed: u64, spans: &[Span]) -> Result<(), String> {
    let dir = trace_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!("{workload}-seed{seed}");
    let chrome = dir.join(format!("{stem}.chrome.json"));
    std::fs::write(&chrome, spans::to_chrome(spans, workload))
        .map_err(|e| format!("{}: {e}", chrome.display()))?;
    let raw = dir.join(format!("{stem}.spans.json"));
    let json = serde_json::to_string(spans).map_err(|e| format!("spans: {e:?}"))?;
    std::fs::write(&raw, json).map_err(|e| format!("{}: {e}", raw.display()))?;
    eprintln!("perfbench: spans written to {}", chrome.display());
    Ok(())
}

/// Regenerates `perfbench/ref/<workload>.json` from the current program.
/// Outputs do not depend on the seed, which only orders the operations.
fn write_refs(workload: &str) -> Result<String, String> {
    let mut refs = Reference::empty();
    let bench = build(workload, 0)?;
    let out = bench.pass(&Ident::original(), &Recorder::new(false), None, 0);
    for (key, output) in &out.outputs {
        let stored = output
            .stored(&Ident::original(), bench.stored_as())
            .ok_or("original-name outputs are always stored")?;
        refs.record(key.clone(), stored);
    }
    let path = PathBuf::from("perfbench/ref").join(format!("{workload}.json"));
    std::fs::write(&path, refs.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(format!(
        "wrote {} ({} outputs)",
        path.display(),
        out.outputs.len()
    ))
}

//! `characterize`: the paper's own path, with no serving code.
//!
//! Models × the four platforms × batch 1–128 × the five execution modes
//! through `Engine::run` and `ProfileReport::analyze`, one
//! `classify_sweep` per (model, platform, mode) sweep, fusion
//! recommendations and a Chrome export of every eager run at batch 1
//! (the paper's fusion analysis works on eager traces), and DLRM/GCN through
//! `Engine::run_graph`. The seed shuffles the order of sweeps, of the
//! batches inside each sweep and of the graph runs: outputs must not
//! depend on the order in which the process-global caches fill.

use skip_core::{classify_sweep, ProfileReport, SweepPoint};
use skip_hw::Platform;
use skip_llm::gnn::GcnConfig;
use skip_llm::rm::DlrmConfig;
use skip_llm::{zoo, AttentionImpl, GraphOptions, ModelConfig, OperatorGraph, Phase, Workload};
use skip_runtime::{CompileMode, Engine, ExecMode};
use skip_trace::TraceMeta;

use crate::check::Stored;
use crate::spans::Recorder;
use crate::workload::{guarded, op_id, Ident, Output, PassOut, SplitMix, Workload as Bench};

/// The paper's batch sweep and sequence length (§IV-B).
const BATCHES: [u32; 8] = [1, 2, 4, 8, 16, 32, 64, 128];
const SEQ_LEN: u32 = 512;
/// Fusion recommendation settings of the fusion advisor example.
const CHAIN_LEN: usize = 8;
const PS_THRESHOLD: f64 = 1.0;

/// Fig. 6 stars recorded in EXPERIMENTS.md: (model, platform, batch).
const PAPER_STARS: [(&str, &str, u32); 6] = [
    ("bert-base-uncased", "amd_a100", 8),
    ("bert-base-uncased", "intel_h100", 8),
    ("bert-base-uncased", "gh200", 32),
    ("xlm-roberta-base", "amd_a100", 8),
    ("xlm-roberta-base", "intel_h100", 8),
    ("xlm-roberta-base", "gh200", 32),
];

/// The six simulated GH200-vs-LC TTFT ratios of Figs. 10 and 11 with the
/// paper's values: (model, batch, numerator platform, denominator
/// platform, paper ratio).
pub const PAPER_RATIOS: [(&str, u32, &str, &str, f64); 6] = [
    ("bert-base-uncased", 1, "gh200", "intel_h100", 2.8),
    ("bert-base-uncased", 1, "gh200", "amd_a100", 1.9),
    ("bert-base-uncased", 64, "intel_h100", "gh200", 1.6),
    ("bert-base-uncased", 64, "amd_a100", "gh200", 2.4),
    ("llama-3.2-1b", 16, "intel_h100", "gh200", 1.9),
    ("llama-3.2-1b", 16, "amd_a100", "gh200", 2.7),
];

/// Largest relative error of the simulated ratios against the paper,
/// given eager prefill TTFT (ms) by (model, platform, batch).
pub fn paper_ratio_err(ttft: impl Fn(&str, &str, u32) -> Option<f64>) -> Option<f64> {
    PAPER_RATIOS
        .iter()
        .map(|&(model, bs, num, den, paper)| {
            let ours = ttft(model, num, bs)? / ttft(model, den, bs)?;
            Some((ours / paper - 1.0).abs())
        })
        .try_fold(0.0_f64, |acc, e| Some(acc.max(e?)))
}

/// The same ratios from nine fresh engine runs, under names no workload
/// uses so that no cache entry of the measured passes is touched. The
/// serving workloads price through this engine.
pub fn paper_ratio_err_fresh() -> f64 {
    let ident = Ident("~paper".to_owned());
    let models = [zoo::bert_base_uncased(), zoo::llama32_1b()];
    paper_ratio_err(|model, platform, bs| {
        let m = models.iter().find(|m| m.name == model)?;
        let p = Platform::paper_trio()
            .into_iter()
            .find(|p| p.name == platform)?;
        let wl = Workload::new(ident.model(m), Phase::Prefill, bs, SEQ_LEN);
        let trace = Engine::new(ident.platform(&p)).run(&wl, ExecMode::Eager);
        Some(
            ProfileReport::analyze(&trace)
                .inference_latency
                .as_millis_f64(),
        )
    })
    .expect("every paper ratio has its runs")
}

fn modes() -> [ExecMode; 5] {
    [
        ExecMode::Eager,
        ExecMode::FlashAttention2,
        ExecMode::TorchCompile(CompileMode::Default),
        ExecMode::TorchCompile(CompileMode::ReduceOverhead),
        ExecMode::TorchCompile(CompileMode::MaxAutotune),
    ]
}

/// The graph options `Engine::run` builds for `mode`.
fn graph_options(mode: ExecMode) -> GraphOptions {
    match mode {
        ExecMode::FlashAttention2 => GraphOptions {
            attention: AttentionImpl::FlashAttention2,
        },
        _ => GraphOptions::default(),
    }
}

fn models() -> Vec<ModelConfig> {
    let mut m = zoo::table_iii();
    m.push(zoo::gemma_2b());
    m.extend(zoo::seven_b_models());
    m
}

fn platforms() -> Vec<Platform> {
    vec![
        Platform::amd_a100(),
        Platform::intel_h100(),
        Platform::gh200(),
        Platform::mi300a(),
    ]
}

struct Sweep {
    model: ModelConfig,
    platform: Platform,
    mode: ExecMode,
    engine: Engine,
    /// `model/platform/mode`, the prefix of the sweep's output keys.
    prefix: String,
    /// Batch sizes in this run's order, with their workloads and keys.
    runs: Vec<(u32, Workload, String)>,
}

enum GraphModel {
    Dlrm(DlrmConfig, u32),
    Gcn(GcnConfig),
}

struct GraphRun {
    key: String,
    model: GraphModel,
    platform: Platform,
    engine: Engine,
}

pub struct Characterize {
    sweeps: Vec<Sweep>,
    graphs: Vec<GraphRun>,
}

/// Builds and validates the sweep in the order `seed` selects.
pub fn setup(seed: u64) -> Characterize {
    let mut rng = SplitMix(seed);
    let mut sweeps = Vec::new();
    for model in models() {
        for platform in platforms() {
            for mode in modes() {
                let prefix = format!("{}/{}/{}", model.name, platform.name, mode.label());
                let mut runs: Vec<(u32, Workload, String)> = BATCHES
                    .iter()
                    .map(|&bs| {
                        (
                            bs,
                            Workload::new(model.clone(), Phase::Prefill, bs, SEQ_LEN),
                            format!("{prefix}/b{bs}"),
                        )
                    })
                    .collect();
                rng.shuffle(&mut runs);
                sweeps.push(Sweep {
                    prefix,
                    model: model.clone(),
                    engine: Engine::new(platform.clone()),
                    platform: platform.clone(),
                    mode,
                    runs,
                });
            }
        }
    }
    rng.shuffle(&mut sweeps);

    let mut graphs = Vec::new();
    for platform in platforms() {
        for &bs in &BATCHES {
            let dlrm = DlrmConfig::mlperf_dlrm();
            graphs.push(GraphRun {
                key: format!("{}/{}/b{bs}", dlrm.name, platform.name),
                model: GraphModel::Dlrm(dlrm, bs),
                engine: Engine::new(platform.clone()),
                platform: platform.clone(),
            });
        }
        for gcn in [GcnConfig::ogbn_arxiv(), GcnConfig::cora()] {
            graphs.push(GraphRun {
                key: format!("{}/{}", gcn.name, platform.name),
                model: GraphModel::Gcn(gcn),
                engine: Engine::new(platform.clone()),
                platform: platform.clone(),
            });
        }
    }
    rng.shuffle(&mut graphs);
    Characterize { sweeps, graphs }
}

/// One engine run's outputs; eager runs at batch 1 also run the fusion
/// recommender and the Chrome export.
struct RunOut {
    report: ProfileReport,
    fusion: Option<Vec<skip_fusion::FusionRecommendation>>,
    export: Option<String>,
}

impl Bench for Characterize {
    fn stored_as(&self) -> Stored {
        Stored::Digest
    }

    fn pass(&self, ident: &Ident, rec: &Recorder, parent: Option<u32>, pass_no: u64) -> PassOut {
        let mut out = PassOut::default();
        let mut op = 0;
        let mut stars = 0.0;
        for sw in &self.sweeps {
            let renamed;
            let (engine, model) = if ident.is_original() {
                (&sw.engine, sw.model.clone())
            } else {
                renamed = Engine::new(ident.platform(&sw.platform));
                (&renamed, ident.model(&sw.model))
            };
            let mut points = Vec::with_capacity(sw.runs.len());
            for (bs, wl, key) in &sw.runs {
                let id = op_id(pass_no, op);
                op += 1;
                let fresh;
                let wl = if ident.is_original() {
                    wl
                } else {
                    fresh = Workload::new(model.clone(), Phase::Prefill, *bs, SEQ_LEN);
                    &fresh
                };
                let key = key.clone();
                let export = *bs == 1 && sw.mode == ExecMode::Eager;
                let Some(r) = guarded(|| run_one(rec, parent, id, engine, wl, sw.mode, export))
                else {
                    out.outputs.push((key, Output::Panicked(1)));
                    continue;
                };
                let events =
                    (r.report.kernel_count + r.report.launch_count + r.report.cpu_op_count) as f64;
                out.work += events;
                out.count("runtime.events", events);
                points.push(SweepPoint {
                    batch_size: *bs,
                    tklqt: r.report.tklqt,
                });
                if let Some(f) = r.fusion {
                    out.count("fusion.recommendations", f.len() as f64);
                    out.outputs
                        .push((format!("{key}/fusion"), Output::Fusion(f)));
                }
                if let Some(e) = r.export {
                    if ident.is_original() {
                        out.count("trace.export_bytes", e.len() as f64);
                    }
                    out.outputs
                        .push((format!("{key}/chrome"), Output::Export(e)));
                }
                out.outputs.push((key, Output::Profile(r.report)));
            }
            if points.len() != sw.runs.len() {
                continue;
            }
            let id = op_id(pass_no, op);
            let class = rec.span("core.classify", parent, id, || classify_sweep(&points));
            if class.transition_batch.is_some() {
                out.count("core.transition_batches", 1.0);
            }
            if sw.mode == ExecMode::Eager
                && PAPER_STARS.iter().any(|&(m, p, b)| {
                    m == sw.model.name && p == sw.platform.name && class.transition_batch == Some(b)
                })
            {
                stars += 1.0;
            }
            out.outputs
                .push((format!("{}/sweep", sw.prefix), Output::Sweep(class)));
        }
        out.count("core.paper_star_matches", stars);

        for g in &self.graphs {
            let id = op_id(pass_no, op);
            op += 1;
            let renamed;
            let engine = if ident.is_original() {
                &g.engine
            } else {
                renamed = Engine::new(ident.platform(&g.platform));
                &renamed
            };
            let run = guarded(|| {
                let (graph, input_bytes, meta) = rec.span("llm.graph", parent, id, || {
                    graph_input(&g.model, &g.platform)
                });
                let trace = rec.span("runtime.run_graph", parent, id, || {
                    engine.run_graph(&graph, input_bytes, meta)
                });
                let report = rec.span("core.analyze", parent, id, || {
                    ProfileReport::analyze(&trace)
                });
                rec.span("trace.drop", parent, id, || drop((trace, graph)));
                report
            });
            let output = match run {
                Some(report) => {
                    let events =
                        (report.kernel_count + report.launch_count + report.cpu_op_count) as f64;
                    out.work += events;
                    out.count("runtime.events", events);
                    Output::Profile(report)
                }
                None => Output::Panicked(1),
            };
            out.outputs.push((g.key.clone(), output));
        }
        out
    }

    /// Operators in the transformer graphs of one pass, counted outside
    /// the passes because the count walks every graph.
    fn probes(&self) -> Vec<(&'static str, f64)> {
        let ops: usize = self
            .sweeps
            .iter()
            .flat_map(|sw| {
                sw.runs
                    .iter()
                    .map(|(_, wl, _)| wl.graph_shared(graph_options(sw.mode)).op_count())
            })
            .sum();
        vec![("llm.graph_ops", ops as f64)]
    }
}

fn run_one(
    rec: &Recorder,
    parent: Option<u32>,
    id: u64,
    engine: &Engine,
    wl: &Workload,
    mode: ExecMode,
    export: bool,
) -> RunOut {
    rec.span("llm.graph", parent, id, || {
        wl.graph_shared(graph_options(mode))
    });
    let trace = rec.span("runtime.run", parent, id, || engine.run(wl, mode));
    let report = rec.span("core.analyze", parent, id, || {
        ProfileReport::analyze(&trace)
    });
    let (fusion, export) = if export {
        (
            Some(rec.span("fusion.recommend", parent, id, || {
                skip_fusion::recommend(&trace, CHAIN_LEN, PS_THRESHOLD)
            })),
            Some(rec.span("trace.export", parent, id, || {
                skip_trace::chrome::to_chrome_trace(&trace)
            })),
        )
    } else {
        (None, None)
    };
    rec.span("trace.drop", parent, id, || drop(trace));
    RunOut {
        report,
        fusion,
        export,
    }
}

fn graph_input(model: &GraphModel, platform: &Platform) -> (OperatorGraph, u64, TraceMeta) {
    let (name, graph, input_bytes, batch) = match model {
        GraphModel::Dlrm(cfg, bs) => (&cfg.name, cfg.graph(*bs), cfg.input_bytes(*bs), *bs),
        GraphModel::Gcn(cfg) => (&cfg.name, cfg.graph(), cfg.input_bytes(), 1),
    };
    let meta = TraceMeta {
        model: name.clone(),
        platform: platform.name.clone(),
        exec_mode: "eager".into(),
        phase: "forward".into(),
        batch_size: batch,
        seq_len: 1,
    };
    (graph, input_bytes, meta)
}

/// Eager prefill TTFT (ms) by (model, platform, batch) from a pass's
/// reports.
pub fn ttft_lookup(out: &PassOut) -> impl Fn(&str, &str, u32) -> Option<f64> + '_ {
    move |model, platform, bs| {
        let key = format!("{model}/{platform}/{}/b{bs}", ExecMode::Eager.label());
        out.outputs.iter().find_map(|(k, o)| match o {
            Output::Profile(r) if *k == key => Some(r.inference_latency.as_millis_f64()),
            _ => None,
        })
    }
}

//! `plan_grid`: the 12-replica capacity planner over a grid of traffic
//! envelopes (models × offered loads, Poisson and diurnal), each swept
//! with `plan::sweep_with` fanned out on two harness workers. The
//! envelopes take their arrival seeds in turn from [`ARRIVAL_SEEDS`]; the
//! benchmark seed orders the envelopes.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};

use skip_bench::experiments::capacity;
use skip_bench::harness;
use skip_llm::{zoo, ModelConfig};
use skip_serve::fleet::plan::{self, PlannerConfig, SweepBounds};

use crate::check::Stored;
use crate::serving::{median_secs, price_probe, ARRIVAL_SEEDS};
use crate::spans::Recorder;
use crate::workload::{guarded, op_id, Ident, Output, PassOut, SplitMix, Workload};

/// Offered loads, requests per second; the diurnal envelopes peak at
/// twice the load.
const LOADS: [f64; 2] = [25.0, 50.0];
/// Most worker threads the planner fans out to.
const WORKERS: usize = 2;
/// Candidate op ids per envelope.
const OPS_PER_ENVELOPE: usize = 1 << 16;

struct Envelope {
    key: String,
    cfg: PlannerConfig,
    candidates: u64,
}

pub struct PlanGrid {
    envelopes: Vec<Envelope>,
    workers: usize,
}

fn models() -> [ModelConfig; 2] {
    [zoo::llama2_7b(), zoo::llama32_1b()]
}

pub fn setup(seed: u64) -> Result<PlanGrid, String> {
    let mut envelopes = Vec::new();
    for model in models() {
        for qps in LOADS {
            for peak in [None, Some(2.0 * qps)] {
                let mut cfg = capacity::planner_with(12);
                cfg.envelope.model = model.clone();
                cfg.envelope.qps = qps;
                cfg.envelope.peak_qps = peak;
                let arrival_seed = ARRIVAL_SEEDS[envelopes.len() % ARRIVAL_SEEDS.len()];
                cfg.envelope.seed = arrival_seed;
                cfg.validate().map_err(|e| e.to_string())?;
                let candidates = plan::enumerate(&cfg).len() as u64;
                let kind = if peak.is_some() { "diurnal" } else { "poisson" };
                envelopes.push(Envelope {
                    key: format!("{}/q{qps}/{kind}/seed{arrival_seed}", model.name),
                    cfg,
                    candidates,
                });
            }
        }
    }
    SplitMix(seed).shuffle(&mut envelopes);
    Ok(PlanGrid {
        envelopes,
        workers: harness::effective_workers(WORKERS),
    })
}

/// Chrome thread id of the calling worker thread; the main thread is 0.
fn worker_tid() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local!(static TID: Cell<u32> = const { Cell::new(0) });
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl PlanGrid {
    fn renamed(&self, cfg: &PlannerConfig, ident: &Ident) -> PlannerConfig {
        let mut cfg = cfg.clone();
        cfg.envelope.model = ident.model(&cfg.envelope.model);
        cfg.platforms = cfg.platforms.iter().map(|p| ident.platform(p)).collect();
        cfg
    }
}

impl Workload for PlanGrid {
    fn stored_as(&self) -> Stored {
        Stored::Full
    }

    fn pass(&self, ident: &Ident, rec: &Recorder, parent: Option<u32>, pass_no: u64) -> PassOut {
        let mut out = PassOut::default();
        for (e, env) in self.envelopes.iter().enumerate() {
            let cfg = self.renamed(&env.cfg, ident);
            let base = e * OPS_PER_ENVELOPE;
            let env_op = op_id(pass_no, base);
            let run = guarded(|| {
                let sweep_span = rec.open("plan.sweep", parent, env_op, 0);
                let mut next = base + 1;
                let sweep = plan::sweep_with(&cfg, |wave, bounds| {
                    let wave_span = rec.open("harness.wave", sweep_span.id(), env_op, 0);
                    let items: Vec<_> = wave
                        .into_iter()
                        .enumerate()
                        .map(|(i, c)| (next + i, c))
                        .collect();
                    next += items.len();
                    let outs = harness::map_with(self.workers, items, |(i, c)| {
                        let span = rec.open(
                            "plan.evaluate",
                            wave_span.id(),
                            op_id(pass_no, i),
                            worker_tid(),
                        );
                        let o = plan::evaluate_bounded(&cfg, &c, bounds);
                        rec.close(span);
                        o
                    });
                    rec.close(wave_span);
                    outs
                });
                rec.close(sweep_span);
                let frontier = rec.span("plan.frontier", parent, env_op, || {
                    plan::frontier(&sweep.outcomes).len()
                });
                (sweep, frontier)
            });
            let Some((sweep, _)) = run else {
                out.outputs
                    .push((env.key.clone(), Output::Panicked(env.candidates)));
                continue;
            };
            let s = sweep.stats;
            out.count("plan.candidates", f64::from(s.candidates));
            out.count("plan.simulated", f64::from(s.simulated));
            out.count("plan.aborted", f64::from(s.aborted));
            out.count("plan.pruned_infeasible", f64::from(s.pruned_infeasible));
            out.count("plan.pruned_dominated", f64::from(s.pruned_dominated));
            out.count(
                "plan.resolved_without_sim",
                f64::from(s.resolved_without_full_simulation()),
            );
            out.work += sweep
                .outcomes
                .iter()
                .map(|o| f64::from(o.report.completed))
                .sum::<f64>();
            out.outputs.push((env.key.clone(), Output::Plan(sweep)));
        }
        out
    }

    fn probes(&self) -> Vec<(&'static str, f64)> {
        let first = &self.envelopes[0].cfg;
        let models: Vec<ModelConfig> = models().to_vec();
        let mut m = price_probe(
            &first.platforms,
            &models,
            first.max_batch,
            first.envelope.prompt_len,
            first.envelope.new_tokens,
        );
        m.push((
            "plan.bounds_s",
            median_secs(3, || {
                for env in &self.envelopes {
                    std::hint::black_box(SweepBounds::new(&env.cfg));
                }
            }),
        ));
        m.push((
            "arrivals.s",
            median_secs(5, || {
                for env in &self.envelopes {
                    let e = &env.cfg.envelope;
                    std::hint::black_box(e.arrivals().generate(
                        e.requests as usize,
                        e.prompt_len,
                        e.new_tokens,
                        e.seed,
                    ));
                }
            }),
        ));
        m.push(("harness.workers", self.workers as f64));
        m
    }
}

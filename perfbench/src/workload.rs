//! What every workload provides to the run loop in `main.rs`.

use skip_core::{ProfileReport, SweepClassification};
use skip_fusion::FusionRecommendation;
use skip_hw::{Platform, PlatformBuilder};
use skip_llm::ModelConfig;
use skip_serve::fleet::plan;
use skip_serve::{FleetReport, PlanSweep, ServingReport};

use crate::check::{fnv_hex, stored, Stored};
use crate::spans::Recorder;

/// The names a pass gives its models and platforms. A renamed pass
/// (`~cold1`, …) misses every process-global cache — graphs are keyed by
/// the model, schedules and prices by the platform and model — so it
/// runs cold although earlier passes filled those caches. Outputs that
/// carry no names must not change under a rename.
#[derive(Debug, Clone)]
pub struct Ident(pub String);

impl Ident {
    pub fn original() -> Self {
        Ident(String::new())
    }

    pub fn is_original(&self) -> bool {
        self.0.is_empty()
    }

    pub fn model(&self, m: &ModelConfig) -> ModelConfig {
        let mut m = m.clone();
        m.name.push_str(&self.0);
        m
    }

    pub fn platform(&self, p: &Platform) -> Platform {
        if self.is_original() {
            return p.clone();
        }
        PlatformBuilder::from(p.clone())
            .name(format!("{}{}", p.name, self.0))
            .build()
    }

    /// `s` with this identity's suffix removed.
    pub fn strip(&self, s: &str) -> String {
        if self.is_original() {
            s.to_owned()
        } else {
            s.replace(&self.0, "")
        }
    }
}

/// One operation's output, kept as produced so that serializing it for
/// the check happens after the pass's clock stops.
pub enum Output {
    Profile(ProfileReport),
    Sweep(SweepClassification),
    Fusion(Vec<FusionRecommendation>),
    /// A Chrome export: it names models and platforms, so it is checked
    /// on passes with the original names only.
    Export(String),
    Serving(ServingReport),
    Fleet(FleetReport),
    /// A planner sweep over one traffic envelope.
    Plan(PlanSweep),
    /// The operation panicked; it counts `n` operations.
    Panicked(u64),
}

impl Output {
    /// Operations this output stands for: one engine run, simulation or
    /// planner candidate each.
    pub fn ops(&self) -> u64 {
        match self {
            Output::Plan(sweep) => u64::from(sweep.stats.candidates),
            Output::Panicked(n) => *n,
            Output::Sweep(_) | Output::Fusion(_) | Output::Export(_) => 0,
            _ => 1,
        }
    }

    /// The stored form, or `None` when this pass cannot be compared.
    pub fn stored(&self, ident: &Ident, how: Stored) -> Option<String> {
        Some(match self {
            Output::Profile(r) => stored(r, how),
            Output::Sweep(c) => stored(c, how),
            Output::Fusion(f) => stored(f, how),
            Output::Export(s) if ident.is_original() => stored(s, Stored::Digest),
            Output::Export(_) => return None,
            Output::Serving(r) => stored(r, how),
            Output::Fleet(r) => stored(r, how),
            Output::Plan(sweep) => stored_sweep(sweep, ident),
            Output::Panicked(_) => "panicked".to_owned(),
        })
    }
}

/// A sweep's stored form: the frontier labels, the resolution counts and
/// a digest of every outcome, all with the pass's renaming undone.
fn stored_sweep(sweep: &PlanSweep, ident: &Ident) -> String {
    let frontier: Vec<String> = plan::frontier(&sweep.outcomes)
        .iter()
        .map(|o| ident.strip(&o.label))
        .collect();
    let outcomes = serde_json::to_string(&sweep.outcomes).expect("outcomes serialize");
    serde_json::to_string(&(
        frontier,
        sweep.stats,
        fnv_hex(ident.strip(&outcomes).as_bytes()),
    ))
    .expect("summary serializes")
}

/// The result of one pass.
#[derive(Default)]
pub struct PassOut {
    /// (operation key, output). Keys use the original names.
    pub outputs: Vec<(String, Output)>,
    /// Exact counters and simulated outputs: every pass of one run must
    /// reproduce them bit for bit.
    pub counts: Vec<(&'static str, f64)>,
    /// Simulated work done: timeline events (characterize) or completed
    /// requests (the serving workloads).
    pub work: f64,
}

impl PassOut {
    /// Adds `value` to the counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        match self.counts.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += value,
            None => self.counts.push((name, value)),
        }
    }

    /// Turns the summed counters `names` into means over `n` operations.
    pub fn average(&mut self, names: &[&str], n: usize) {
        for (name, v) in &mut self.counts {
            if names.contains(name) {
                *v /= n as f64;
            }
        }
    }
}

/// A benchmark workload, built by its set-up function.
pub trait Workload {
    /// How the reference file stores this workload's outputs.
    fn stored_as(&self) -> Stored;

    /// Runs one pass: every operation once. `parent` is the pass span.
    fn pass(&self, ident: &Ident, rec: &Recorder, parent: Option<u32>, pass_no: u64) -> PassOut;

    /// Layer probes measured outside the passes (traced runs only): the
    /// pricing key grid, arrival generation and the like.
    fn probes(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Operation id shared by the spans of one operation.
pub fn op_id(pass_no: u64, op: usize) -> u64 {
    (pass_no << 32) | op as u64
}

/// Runs `f`, turning a panic into `None`.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

/// SplitMix64: the benchmark's seeded input generator.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

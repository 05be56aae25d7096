//! Memoized per-iteration latencies from the execution engine.
//!
//! A serving simulation executes thousands of scheduler iterations; running
//! the full operator-graph simulation for each would be wasteful when the
//! result is fully determined by (phase, batch size, context length). This
//! model memoizes engine runs at power-of-two context lengths and prices an
//! arbitrary length by interpolating linearly between the two surrounding
//! memoized runs, so the charged latency is monotone in the actual length
//! instead of jumping to the next bucket's price (a 520-token prompt used
//! to be charged as 1024 tokens — up to ~2× TTFT error that also corrupted
//! the recompute-vs-swap break-even of the offload policy).
//!
//! Cold keys are priced through [`Engine::run_summary`] — the engine run
//! aggregates in place instead of materializing a trace that would be
//! reduced to one number and dropped — and are *single-flight*: each key
//! owns a [`OnceLock`] cell, so concurrent sweep workers racing on the same
//! cold key perform exactly one engine run between them (the losers block
//! on the cell instead of burning milliseconds on a duplicate simulation).
//!
//! On top of the per-instance memo sits a process-global *priced-pattern
//! table*. A batch's price is fully determined by its shape signature —
//! the canonical serialization of (platform, model) — plus (phase, batch,
//! bucketed length); nothing else about a serving simulation reaches the
//! engine. So when one floor (or one sweep configuration, or one fleet
//! replica) has already priced a pattern, every later [`LatencyModel`]
//! over the same signature resolves it by table lookup instead of
//! re-simulating. The signature is the *full* serialized string, not a
//! hash of it, so distinct platforms or models can never collide into each
//! other's prices.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use skip_des::SimDuration;
#[cfg(test)]
use skip_des::SimTime;
use skip_hw::Platform;
use skip_llm::{ModelConfig, Phase, Workload};
use skip_runtime::{Engine, ExecMode};
#[cfg(test)]
use skip_trace::Trace;

/// Single-flight cell map: each key owns a lazily-filled latency cell.
type KeyCells = BTreeMap<(u8, u32, u32), Arc<OnceLock<SimDuration>>>;

/// A priced-pattern key: shape signature (canonical platform + model
/// serialization) plus the serving key. The signature `Arc` is shared by
/// every key of one model, so the per-key cost is one pointer, not a
/// string copy.
type PatternKey = (Arc<str>, u8, u32, u32);

/// One shard of the process-global priced-pattern table.
type PatternShard = Mutex<HashMap<PatternKey, Arc<OnceLock<SimDuration>>>>;

/// The process-global priced-pattern table, sharded like the per-instance
/// memo so concurrent floors touching different keys rarely contend.
fn pattern_table() -> &'static [PatternShard; CACHE_SHARDS] {
    static TABLE: OnceLock<[PatternShard; CACHE_SHARDS]> = OnceLock::new();
    TABLE.get_or_init(|| std::array::from_fn(|_| Mutex::new(HashMap::new())))
}

/// Number of independent key-map shards. A power of two so the shard
/// selector is a mask; 16 is comfortably above any sweep's worker count,
/// so two workers only contend when their keys land in the same shard.
const CACHE_SHARDS: usize = 16;

/// Memoizing wrapper around [`Engine`] for serving simulations.
///
/// The key map is split into [`CACHE_SHARDS`] independently-locked shards
/// (selected by a mix of the key's fields) so a `LatencyModel` is `Sync`
/// and concurrent sweep workers touching *different* keys rarely contend
/// on the same `Mutex` — the former single map made every lookup serialize
/// on one lock. Each shard lock is still taken exactly once per call, only
/// to resolve the key to its cell; engine runs happen outside it, inside
/// the key's [`OnceLock`], preserving the single-flight guarantee.
#[derive(Debug)]
pub struct LatencyModel {
    engine: Engine,
    model: ModelConfig,
    shards: [Mutex<KeyCells>; CACHE_SHARDS],
    engine_runs: AtomicU64,
    pattern_hits: AtomicU64,
    /// Shape signature for the shared pattern table.
    signature: Arc<str>,
}

/// Inference latency of one trace (Eq. 4: last kernel end − first operator
/// begin). The latency model itself prices through the summary sink; this
/// reduction is kept as the reference the summary path is asserted against.
#[cfg(test)]
fn latency(trace: &Trace) -> SimDuration {
    let first = trace
        .cpu_ops()
        .iter()
        .map(|o| o.begin)
        .min()
        .unwrap_or(SimTime::ZERO);
    match trace.kernels().iter().map(|k| k.end).max() {
        Some(end) => end.saturating_duration_since(first),
        None => trace.span(),
    }
}

fn bucket(len: u32) -> u32 {
    len.max(1).next_power_of_two()
}

/// Shard index for a cache key: a Fibonacci-style multiplicative mix of
/// the fields, masked down to [`CACHE_SHARDS`]. The bucketed lengths are
/// powers of two, so hashing (rather than e.g. `len % SHARDS`) is what
/// actually spreads neighbouring keys across shards.
fn shard_of(key: (u8, u32, u32)) -> usize {
    let (phase, batch, len) = key;
    let mut h = u64::from(phase) ^ (u64::from(batch) << 8) ^ (u64::from(len) << 40);
    h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 57) as usize) & (CACHE_SHARDS - 1)
}

impl LatencyModel {
    /// Creates a latency model for `model` on `platform`.
    ///
    /// Prices resolve through the process-global priced-pattern table:
    /// keys another model over the same (platform, model) signature has
    /// already priced are looked up instead of re-simulated.
    #[must_use]
    pub fn new(platform: Platform, model: ModelConfig) -> Self {
        let signature = serde_json::to_string(&(&platform, &model))
            .expect("platform and model serialize")
            .into();
        LatencyModel {
            engine: Engine::new(platform),
            model,
            shards: std::array::from_fn(|_| Mutex::new(BTreeMap::new())),
            engine_runs: AtomicU64::new(0),
            pattern_hits: AtomicU64::new(0),
            signature,
        }
    }

    /// The model being served.
    #[must_use]
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// Latency of a prefill pass over `prompt_len` tokens at `batch`.
    ///
    /// Interpolated between the surrounding power-of-two engine runs, so
    /// the price is monotone in `prompt_len` (exact at powers of two).
    #[must_use]
    pub fn prefill(&self, batch: u32, prompt_len: u32) -> SimDuration {
        self.interpolated(0, batch, prompt_len, |len| {
            Workload::new(self.model.clone(), Phase::Prefill, batch, len)
        })
    }

    /// Latency of one decode step at `batch` with `ctx` cached tokens.
    ///
    /// Interpolated between the surrounding power-of-two engine runs, so
    /// the price is monotone in `ctx` (exact at powers of two).
    #[must_use]
    pub fn decode_step(&self, batch: u32, ctx: u32) -> SimDuration {
        self.interpolated(1, batch, ctx, |len| {
            Workload::new(
                self.model.clone(),
                Phase::DecodeStep { past_len: len },
                batch,
                len,
            )
        })
    }

    /// Number of distinct keys priced so far, summed over all shards.
    #[must_use]
    pub fn cache_entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("latency cache poisoned").len())
            .sum()
    }

    /// Number of engine runs actually performed *by this instance*.
    /// Single-flight coalescing keeps this at most
    /// [`cache_entries`](Self::cache_entries) no matter how many workers
    /// raced on the same cold keys, and keys another instance already put
    /// in the pattern table cost no engine run at all.
    #[must_use]
    pub fn engine_runs(&self) -> u64 {
        self.engine_runs.load(Ordering::Relaxed)
    }

    /// Number of cold keys this instance resolved from the process-global
    /// priced-pattern table instead of running the engine.
    #[must_use]
    pub fn pattern_hits(&self) -> u64 {
        self.pattern_hits.load(Ordering::Relaxed)
    }

    /// Prices `len` by linear interpolation between the memoized engine
    /// runs at the surrounding powers of two (one run when `len` is itself
    /// a power of two).
    fn interpolated<F: Fn(u32) -> Workload>(
        &self,
        phase: u8,
        batch: u32,
        len: u32,
        wl: F,
    ) -> SimDuration {
        let len = len.max(1);
        let hi = bucket(len);
        if hi == len {
            return self.cached(phase, batch, hi, &wl);
        }
        let lo = hi / 2;
        let d_lo = self.cached(phase, batch, lo, &wl).as_nanos_f64();
        let d_hi = self.cached(phase, batch, hi, &wl).as_nanos_f64();
        let frac = f64::from(len - lo) / f64::from(hi - lo);
        SimDuration::from_nanos_f64(d_lo + (d_hi - d_lo) * frac)
    }

    fn cached<F: Fn(u32) -> Workload>(
        &self,
        phase: u8,
        batch: u32,
        len: u32,
        wl: F,
    ) -> SimDuration {
        let key = (phase, batch, len);
        // One shard-lock acquisition resolves the key to its cell; cloning
        // the Arc lets the lock drop before any simulation work starts.
        let cell = Arc::clone(
            self.shards[shard_of(key)]
                .lock()
                .expect("latency cache poisoned")
                .entry(key)
                .or_default(),
        );
        // Resolve through the priced-pattern table. The key's pattern cell
        // is itself single-flight, so racing *instances* (not just racing
        // workers of one instance) coalesce onto one engine run per
        // (signature, key) process-wide.
        *cell.get_or_init(|| {
            let pattern = Arc::clone(
                pattern_table()[shard_of(key)]
                    .lock()
                    .expect("pattern table poisoned")
                    .entry((Arc::clone(&self.signature), phase, batch, len))
                    .or_default(),
            );
            let mut ran = false;
            let priced = *pattern.get_or_init(|| {
                ran = true;
                self.engine_runs.fetch_add(1, Ordering::Relaxed);
                self.engine.run_summary(&wl(len), ExecMode::Eager).latency()
            });
            if !ran {
                self.pattern_hits.fetch_add(1, Ordering::Relaxed);
            }
            priced
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skip_llm::zoo;

    #[test]
    fn memoization_hits_after_first_run() {
        // Uniquely named: the engine-run counts below must not depend on
        // what other tests have already fed the shared pattern table.
        let mut cfg = zoo::gpt2();
        cfg.name = "gpt2/memoization-test".to_owned();
        let m = LatencyModel::new(Platform::intel_h100(), cfg);
        let a = m.prefill(2, 128); // exact power of two: one engine run
        assert_eq!(m.cache_entries(), 1);
        let b = m.prefill(2, 100); // interpolates between 64 and 128
        assert_eq!(m.cache_entries(), 2, "only the 64-run is new");
        assert!(b < a, "interpolated 100 must undercut the 128 run");
        let c = m.prefill(2, 100);
        assert_eq!(m.cache_entries(), 2, "repeat lengths hit the memo");
        assert_eq!(b, c);
        let _ = m.decode_step(2, 128);
        assert_eq!(m.cache_entries(), 3);
        assert_eq!(m.engine_runs(), 3, "one engine run per distinct key");
    }

    /// Regression test for the power-of-two overcharge: a 520-token prompt
    /// used to be priced as a 1024-token one. The charge must now sit
    /// strictly between the surrounding bucket runs and be monotone in the
    /// actual prompt length.
    #[test]
    fn charged_latency_is_monotone_in_prompt_length() {
        let m = LatencyModel::new(Platform::intel_h100(), zoo::gpt2());
        let at_512 = m.prefill(1, 512);
        let at_520 = m.prefill(1, 520);
        let at_1024 = m.prefill(1, 1024);
        assert!(
            at_520 > at_512 && at_520 < at_1024,
            "520 tokens must price between the 512 and 1024 runs, \
             got {at_512} / {at_520} / {at_1024}"
        );
        let lens = [1u32, 37, 64, 100, 128, 129, 200, 512, 520, 900, 1024];
        let mut prev = SimDuration::ZERO;
        for len in lens {
            let d = m.prefill(1, len);
            assert!(d >= prev, "prefill({len}) = {d} undercuts {prev}");
            prev = d;
        }
        let mut prev = SimDuration::ZERO;
        for len in lens {
            let d = m.decode_step(1, len);
            assert!(d >= prev, "decode_step({len}) = {d} undercuts {prev}");
            prev = d;
        }
    }

    #[test]
    fn decode_steps_are_cheaper_than_prefill() {
        let m = LatencyModel::new(Platform::gh200(), zoo::gpt2());
        assert!(m.decode_step(4, 512) < m.prefill(4, 512));
    }

    /// The shard selector must actually spread the serving key grid —
    /// bucketed lengths are all powers of two, which is exactly the input
    /// a naive modulo would clump onto a few shards.
    #[test]
    fn shard_selector_spreads_serving_keys() {
        let mut used = std::collections::BTreeSet::new();
        for phase in [0u8, 1] {
            for batch in [1u32, 2, 4, 8, 16] {
                for len in [32u32, 64, 128, 256, 512, 1024] {
                    let s = shard_of((phase, batch, len));
                    assert!(s < CACHE_SHARDS);
                    used.insert(s);
                }
            }
        }
        assert!(
            used.len() >= CACHE_SHARDS / 2,
            "serving keys clump onto {} of {CACHE_SHARDS} shards",
            used.len()
        );
    }

    #[test]
    fn bucket_rounds_up_to_power_of_two() {
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(100), 128);
        assert_eq!(bucket(128), 128);
        assert_eq!(bucket(129), 256);
        assert_eq!(bucket(0), 1);
    }

    /// Single-flight: 8 workers hammering the same handful of keys must
    /// trigger exactly one engine run per distinct key — the losers of
    /// each race block on the key's cell instead of re-simulating.
    #[test]
    fn concurrent_hammer_runs_engine_once_per_key() {
        // Uniquely named for exact per-instance run accounting.
        let mut cfg = zoo::qwen25_05b();
        cfg.name = "qwen2.5-0.5b/single-flight-test".to_owned();
        let m = LatencyModel::new(Platform::intel_h100(), cfg);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..4 {
                        let _ = m.prefill(1, 64);
                        let _ = m.prefill(1, 100); // buckets 64 + 128
                        let _ = m.decode_step(2, 128);
                        let _ = m.decode_step(2, 37); // buckets 32 + 64
                    }
                });
            }
        });
        // Keys: prefill(1,{64,128}), decode(2,{128,32,64}).
        assert_eq!(m.cache_entries(), 5);
        assert_eq!(
            m.engine_runs(),
            5,
            "racing workers must coalesce onto one run per key"
        );
    }

    /// Shape-signature pattern sharing: a second model over the same
    /// (platform, model) signature must resolve already-priced keys by
    /// table lookup — zero engine runs, identical prices — while a
    /// different platform must price its own pattern from scratch. Uses a
    /// uniquely-named config so other tests' table entries can't leak in.
    #[test]
    fn pattern_table_shares_prices_across_instances() {
        let mut cfg = zoo::qwen25_05b();
        cfg.name = "qwen2.5-0.5b/pattern-sharing-test".to_owned();

        let first = LatencyModel::new(Platform::intel_h100(), cfg.clone());
        let a = first.prefill(3, 64);
        let b = first.decode_step(3, 128);
        assert_eq!(first.engine_runs(), 2, "cold pattern: both keys simulate");
        assert_eq!(first.pattern_hits(), 0);

        let second = LatencyModel::new(Platform::intel_h100(), cfg.clone());
        assert_eq!(second.prefill(3, 64), a);
        assert_eq!(second.decode_step(3, 128), b);
        assert_eq!(
            second.engine_runs(),
            0,
            "previously priced pattern must be a table lookup"
        );
        assert_eq!(second.pattern_hits(), 2);

        // Same model on a different platform is a different signature:
        // nothing to hit, prices re-derived.
        let other = LatencyModel::new(Platform::gh200(), cfg);
        let _ = other.prefill(3, 64);
        assert_eq!(other.engine_runs(), 1);
        assert_eq!(other.pattern_hits(), 0);
    }

    /// The serving experiments' key set, asserted (not sampled): every
    /// (phase, batch, bucketed length) the gpt2 serving sweeps can touch
    /// must price identically through the summary sink and the full-trace
    /// reduction.
    #[test]
    fn summary_pricing_matches_trace_reduction_on_serving_key_grid() {
        let engine = Engine::new(Platform::intel_h100());
        let model = zoo::gpt2();
        for phase_key in [0u8, 1] {
            for batch in [1u32, 2, 4, 8, 16] {
                for len in [32u32, 64, 128, 256, 512] {
                    let wl = if phase_key == 0 {
                        Workload::new(model.clone(), Phase::Prefill, batch, len)
                    } else {
                        Workload::new(
                            model.clone(),
                            Phase::DecodeStep { past_len: len },
                            batch,
                            len,
                        )
                    };
                    let summary = engine.run_summary(&wl, ExecMode::Eager).latency();
                    let full = latency(&engine.run(&wl, ExecMode::Eager));
                    assert_eq!(
                        summary, full,
                        "phase {phase_key} batch {batch} len {len} priced differently"
                    );
                }
            }
        }
    }
}

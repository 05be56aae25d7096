//! Golden fixtures for the disaggregated fleet floor.
//!
//! Each fixture pins the serde JSON of both the [`FleetReport`] and the
//! complete [`FleetTrace`] (every lifecycle transition, counter sample,
//! and scaling event) of a fixed-seed fleet run, byte for byte — the
//! fleet-level counterpart of `tests/golden.rs`. Any reordering of
//! routing decisions, repricing of handoffs, or drift in sampling shows
//! up as a byte diff here. A churning autoscaled fleet, whose renders run
//! to megabytes, is pinned by length and 64-bit FNV-1a digest instead.
//! Regenerate the fixture files (only when intentionally changing fleet
//! semantics) with:
//!
//! ```text
//! SKIP_BLESS_GOLDEN=1 cargo test -p skip-serve --test golden_fleet
//! ```

use std::path::PathBuf;

use skip_des::SimDuration;
use skip_hw::Platform;
use skip_llm::zoo;
use skip_serve::{
    simulate_fleet_traced, ArrivalProcess, AutoscaleConfig, FleetBatchPolicy, FleetConfig,
    FleetReport, FleetRouterPolicy, FleetSpec, FleetTrace, SloTargets,
};

fn base(spec: FleetSpec) -> FleetConfig {
    FleetConfig {
        spec,
        model: zoo::gpt2(),
        max_batch: 8,
        requests: 36,
        arrivals: ArrivalProcess::Poisson { rate_per_s: 60.0 },
        prompt_len: 128,
        new_tokens: 6,
        seed: 13,
        slo: SloTargets {
            ttft: Some(SimDuration::from_millis(150)),
            e2e: Some(SimDuration::from_millis(1200)),
        },
        router: FleetRouterPolicy::CostModelJsq,
        policy: FleetBatchPolicy::Continuous,
        autoscale: None,
    }
}

/// The fleet fixture grid: the 2-prefill/2-decode disaggregated floor
/// (the new subsystem's canonical shape), a bursty autoscaled unified
/// fleet (pinning scaling-event order and launch pricing), and the same
/// disaggregated shape under chunked prefill (pinning the chunk plan's
/// handoff-aware retire order).
fn grid() -> Vec<(String, FleetConfig)> {
    let disagg = base(FleetSpec::disaggregated(
        Platform::gh200(),
        2,
        Platform::intel_h100(),
        2,
    ));
    let mut scaled = base(FleetSpec::homogeneous(Platform::intel_h100(), 1));
    scaled.arrivals = ArrivalProcess::Bursty {
        base_rate_per_s: 5.0,
        burst_rate_per_s: 300.0,
        burst_len: SimDuration::from_millis(400),
        lull_len: SimDuration::from_secs(2),
    };
    scaled.autoscale = Some(AutoscaleConfig::default());
    let mut chunked = disagg.clone();
    chunked.policy = FleetBatchPolicy::ChunkedPrefill { chunk_tokens: 64 };
    vec![
        ("fleet_disagg_2p2d".to_owned(), disagg),
        ("fleet_autoscale_bursty".to_owned(), scaled),
        ("fleet_chunked_disagg".to_owned(), chunked),
    ]
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{name}.json"))
}

fn render(cfg: &FleetConfig) -> String {
    let (report, trace) = simulate_fleet_traced(cfg);
    serialize(&report, &trace)
}

fn serialize(report: &FleetReport, trace: &FleetTrace) -> String {
    format!(
        "{{\"report\":{},\"trace\":{}}}\n",
        serde_json::to_string(report).expect("report serializes"),
        serde_json::to_string(trace).expect("trace serializes"),
    )
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A disaggregated fleet under short bursts and a fast autoscaler, so
/// replicas launch and drain to `Down` many times in one run.
fn churning(router: FleetRouterPolicy) -> FleetConfig {
    let spec = FleetSpec::parse(
        "prefill=amd_a100:1,prefill=gh200:1,decode=amd_a100:1,decode=intel_h100:1",
    )
    .expect("valid fleet spec");
    let mut cfg = base(spec);
    cfg.requests = 1_500;
    cfg.new_tokens = 4;
    cfg.arrivals = ArrivalProcess::Bursty {
        base_rate_per_s: 2.0,
        burst_rate_per_s: 400.0,
        burst_len: SimDuration::from_millis(150),
        lull_len: SimDuration::from_millis(600),
    };
    cfg.router = router;
    cfg.autoscale = Some(AutoscaleConfig {
        interval: SimDuration::from_millis(40),
        high_load: 3.0,
        low_load: 1.0,
        min_per_pool: 1,
        max_per_pool: 4,
        provision_delay: SimDuration::from_millis(20),
    });
    cfg
}

/// Frozen `(router, scale-downs, rendered length, FNV-1a digest)` of the
/// churning fleet under each fleet router. The multi-megabyte renders are
/// pinned by length and digest instead of fixture files. They were taken
/// before the floor started skipping `Down` replicas in its per-event
/// scans, so they hold that change to the old outputs byte for byte.
const CHURNING_DIGESTS: [(FleetRouterPolicy, u32, usize, u64); 3] = [
    (
        FleetRouterPolicy::RoundRobin,
        120,
        1_466_345,
        0xd601_a61b_b9b3_3d58,
    ),
    (
        FleetRouterPolicy::JoinShortestQueue,
        119,
        1_502_841,
        0xd8d5_1edf_4ead_295e,
    ),
    (
        FleetRouterPolicy::CostModelJsq,
        118,
        1_502_892,
        0x1a68_a153_f632_9538,
    ),
];

#[test]
fn churning_autoscaled_fleets_reproduce_frozen_digests() {
    for (router, downs, len, digest) in CHURNING_DIGESTS {
        let cfg = churning(router);
        let (report, trace) = simulate_fleet_traced(&cfg);
        assert!(
            report.scale_downs >= 50,
            "{router:?}: only {} scale-downs, too few to cover drained replicas",
            report.scale_downs
        );
        assert_eq!(report.scale_downs, downs, "{router:?}: scale-down count");
        let got = serialize(&report, &trace);
        assert_eq!(got.len(), len, "{router:?}: rendered length drifted");
        assert_eq!(
            fnv1a64(got.as_bytes()),
            digest,
            "{router:?}: rendered output drifted from the frozen digest"
        );
    }
}

#[test]
fn fleet_floor_reproduces_golden_fixtures() {
    let bless = std::env::var_os("SKIP_BLESS_GOLDEN").is_some();
    let mut missing = Vec::new();
    for (name, cfg) in grid() {
        let got = render(&cfg);
        let path = fixture_path(&name);
        if bless {
            std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir");
            std::fs::write(&path, &got).expect("write fixture");
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(want) => assert_eq!(
                got, want,
                "{name}: fleet output drifted from the golden fixture"
            ),
            Err(_) => missing.push(name),
        }
    }
    assert!(
        missing.is_empty(),
        "missing golden fixtures {missing:?}; regenerate with SKIP_BLESS_GOLDEN=1"
    );
}

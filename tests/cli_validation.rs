//! The two serving front ends (`skip serve`, `skip plan`) must reject the
//! same bad input with the same words. Historically each subcommand
//! carried its own copy of the SLO-flag parser and its own zero-count
//! check, and the messages drifted; both now route through shared
//! helpers, and these tests pin the unified wording end to end — argv in,
//! stderr out. They also pin that no input is silently ignored or
//! clamped: flags of the other `skip serve` mode and `--tokens 0` fail,
//! and a context too long to price is an error, not a panic.

use std::process::Command;

/// Runs the `skip` binary with `args`, expecting a non-zero exit that is
/// not a panic (exit code 101), and returns the trimmed stderr.
fn skip_err(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_skip"))
        .args(args)
        .output()
        .expect("skip binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).trim().to_owned();
    assert!(
        !out.status.success(),
        "`skip {}` unexpectedly succeeded: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stdout)
    );
    assert_ne!(
        out.status.code(),
        Some(101),
        "`skip {}` panicked: {stderr}",
        args.join(" ")
    );
    stderr
}

#[test]
fn bad_slo_flag_prints_identical_message_in_serve_and_plan() {
    for key in ["slo-ttft-ms", "slo-e2e-ms"] {
        let flag = format!("--{key}");
        let serve = skip_err(&["serve", "--model", "gpt2", &flag, "soon"]);
        let plan = skip_err(&["plan", "--model", "gpt2", &flag, "soon"]);
        assert_eq!(serve, plan, "serve and plan diverge on bad {flag}");
        assert_eq!(serve, format!("error: --{key}: bad number 'soon'"));
    }
}

#[test]
fn zero_replica_counts_print_the_canonical_wording_in_both_clis() {
    let serve = skip_err(&["serve", "--model", "gpt2", "--replicas", "0"]);
    let plan = skip_err(&["plan", "--model", "gpt2", "--max-replicas", "0"]);
    assert_eq!(serve, "error: --replicas must be at least 1");
    assert_eq!(plan, "error: --max-replicas must be at least 1");
    // Same sentence, differing only in which flag is named.
    let sans_flag = |s: &str| s.splitn(3, ' ').nth(2).unwrap().to_owned();
    assert_eq!(sans_flag(&serve), sans_flag(&plan));
}

#[test]
fn library_validators_share_the_cli_wording() {
    use skip_serve::{
        ArrivalProcess, FleetBatchPolicy, FleetConfig, FleetRouterPolicy, FleetSpec, PlannerConfig,
        Policy, RouterPolicy, ServingConfig, SloTargets, TrafficEnvelope,
    };

    let serve = ServingConfig {
        platform: skip_hw::Platform::intel_h100(),
        model: skip_llm::zoo::gpt2(),
        policy: Policy::Continuous { max_batch: 8 },
        requests: 0,
        arrival_rate_per_s: 20.0,
        prompt_len: 64,
        new_tokens: 4,
        seed: 1,
        kv: None,
        slo: SloTargets::default(),
        router: RouterPolicy::SharedQueue,
    };
    let fleet = FleetConfig {
        spec: FleetSpec::homogeneous(skip_hw::Platform::intel_h100(), 1),
        model: skip_llm::zoo::gpt2(),
        max_batch: 8,
        requests: 0,
        arrivals: ArrivalProcess::Poisson { rate_per_s: 20.0 },
        prompt_len: 64,
        new_tokens: 4,
        seed: 1,
        slo: SloTargets::default(),
        router: FleetRouterPolicy::RoundRobin,
        policy: FleetBatchPolicy::Continuous,
        autoscale: None,
    };
    let mut planner = PlannerConfig::new(TrafficEnvelope {
        model: skip_llm::zoo::gpt2(),
        qps: 20.0,
        peak_qps: None,
        requests: 0,
        prompt_len: 64,
        new_tokens: 4,
        seed: 1,
        slo: SloTargets::default(),
    });

    // Zero requests: one message, three validators.
    let serve_msg = serve.validate().unwrap_err().to_string();
    let fleet_msg = fleet.validate().unwrap_err().to_string();
    let plan_msg = planner.validate().unwrap_err().to_string();
    assert_eq!(serve_msg, "simulate at least one request");
    assert_eq!(serve_msg, fleet_msg);
    assert_eq!(serve_msg, plan_msg);

    // Non-positive rates: same sentence shape, differing only in the
    // knob's name.
    let mut serve = serve;
    serve.requests = 1;
    serve.arrival_rate_per_s = 0.0;
    let mut fleet = fleet;
    fleet.requests = 1;
    fleet.arrivals = ArrivalProcess::Poisson { rate_per_s: 0.0 };
    planner.envelope.requests = 1;
    planner.envelope.qps = 0.0;
    assert_eq!(
        serve.validate().unwrap_err().to_string(),
        "arrival rate must be positive and finite, got 0"
    );
    assert!(fleet
        .validate()
        .unwrap_err()
        .to_string()
        .ends_with("rate must be positive and finite, got 0"));
    assert_eq!(
        planner.validate().unwrap_err().to_string(),
        "offered load must be positive and finite, got 0"
    );
}

/// A flag the chosen `skip serve` mode would ignore is an error that
/// names it: otherwise the user gets a run they did not ask for,
/// reported as success.
#[test]
fn serve_rejects_flags_the_chosen_mode_would_ignore() {
    let fleet = ["serve", "--model", "gpt2", "--fleet", "intel_h100:2"];
    for (flag, value) in [
        ("--kv-blocks", "4"),
        ("--offload", "swap"),
        ("--router", "jsq"),
        ("--replicas", "2"),
        ("--platform", "gh200"),
        ("--batch-size", "4"),
        ("--max-wait-ms", "10"),
    ] {
        let err = skip_err(&[&fleet[..], &[flag, value]].concat());
        assert_eq!(err, format!("error: {flag} has no effect with --fleet"));
    }

    let single = ["serve", "--model", "gpt2"];
    for flags in [
        &["--fleet-router", "rr"][..],
        &["--disagg"],
        &["--autoscale"],
        &["--arrivals", "bursty"],
        &["--peak-qps", "300"],
        &["--period-ms", "1000"],
        &["--burst-ms", "100"],
        &["--lull-ms", "100"],
    ] {
        let err = skip_err(&[&single[..], flags].concat());
        assert_eq!(err, format!("error: {} needs --fleet", flags[0]));
    }
}

/// `--tokens 0` is rejected with the shared wording, not clamped to one
/// generated token, in every subcommand that takes it.
#[test]
fn zero_tokens_are_rejected_in_every_subcommand() {
    for args in [
        &["serve", "--model", "gpt2"][..],
        &["serve", "--model", "gpt2", "--fleet", "intel_h100:2"],
        &["plan", "--model", "gpt2"],
        &["generate", "--model", "gpt2"],
    ] {
        let err = skip_err(&[args, &["--tokens", "0"]].concat());
        assert_eq!(err, "error: --tokens must be at least 1", "{args:?}");
    }
}

#[test]
fn contexts_too_long_to_price_are_errors_not_panics() {
    let seq = ["--seq", "4000000000"];
    for mode in [
        &["serve", "--model", "gpt2"][..],
        &["serve", "--model", "gpt2", "--fleet", "gh200:2"],
        &["plan", "--model", "gpt2"],
    ] {
        let args = [mode, &seq[..]].concat();
        let err = skip_err(&args);
        assert!(
            err.lines()
                .any(|l| l.starts_with("error:") && l.contains("2147483648-token")),
            "`skip {}` must name the context limit on an error: line, got: {err}",
            args.join(" ")
        );
    }
}

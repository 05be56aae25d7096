//! Differential tests for schedule replay against the operator-tree walk.
//!
//! [`Engine::run`] replays a pre-priced schedule compiled once per graph
//! shape and platform; [`Engine::run_reference`] walks the operator tree
//! and simulates every operator individually. The two must produce traces
//! byte-identical — same serialized JSON, so same interning order, IDs and
//! timestamps — across the model zoo × platform × eager-style-mode matrix.
//! [`Engine::run_graph`], the tree walk behind the graph-level API, must in
//! turn reproduce the workload path when handed the workload's own graph.

use skip_hw::Platform;
use skip_llm::{zoo, GraphOptions, ModelConfig, Phase, Workload};
use skip_runtime::{Engine, ExecMode};

fn assert_byte_identical(model: ModelConfig, batch: u32, seq_len: u32) {
    for platform in Platform::paper_trio() {
        let engine = Engine::new(platform);
        for mode in [ExecMode::Eager, ExecMode::FlashAttention2] {
            let wl = Workload::new(model.clone(), Phase::Prefill, batch, seq_len);
            let fast = serde_json::to_string(&engine.run(&wl, mode)).unwrap();
            let reference = serde_json::to_string(&engine.run_reference(&wl, mode)).unwrap();
            assert_eq!(
                fast,
                reference,
                "trace divergence: {} on {} in {}",
                model.name,
                engine.platform().name,
                mode.label()
            );
        }
    }
}

#[test]
fn zoo_traces_byte_identical_across_platforms_and_modes() {
    for model in zoo::table_iii() {
        assert_byte_identical(model, 1, 512);
    }
}

#[test]
fn remaining_zoo_models_byte_identical() {
    for model in [
        zoo::gpt2_medium(),
        zoo::bert_large(),
        zoo::llama31_8b(),
        zoo::qwen25_05b(),
    ] {
        assert_byte_identical(model, 1, 512);
    }
}

#[test]
fn gpu_bound_batches_byte_identical() {
    // Large batch pushes the paper's GPU-bound regime (saturated stream).
    assert_byte_identical(zoo::gpt2(), 64, 512);
    assert_byte_identical(zoo::bert_base_uncased(), 64, 512);
}

#[test]
fn decode_phase_byte_identical() {
    for model in [zoo::gpt2(), zoo::llama32_1b()] {
        for platform in Platform::paper_trio() {
            let engine = Engine::new(platform);
            for mode in [ExecMode::Eager, ExecMode::FlashAttention2] {
                let wl = Workload::new(model.clone(), Phase::DecodeStep { past_len: 256 }, 4, 128);
                let fast = serde_json::to_string(&engine.run(&wl, mode)).unwrap();
                let reference = serde_json::to_string(&engine.run_reference(&wl, mode)).unwrap();
                assert_eq!(fast, reference, "{} decode", model.name);
            }
        }
    }
}

/// The graph-level API walks the same tree the workload path replays: fed
/// a workload's default graph, input copy and trace metadata, `run_graph`
/// must serialize exactly like an eager `run` of that workload.
#[test]
fn run_graph_matches_eager_run_of_the_same_workload() {
    let shapes = [
        (Phase::Prefill, 1, 512),
        (Phase::Prefill, 64, 512),
        (Phase::DecodeStep { past_len: 256 }, 4, 128),
    ];
    for model in [zoo::gpt2(), zoo::llama32_1b(), zoo::bert_base_uncased()] {
        for platform in Platform::paper_trio() {
            let engine = Engine::new(platform);
            for (phase, batch, seq_len) in shapes {
                let wl = Workload::new(model.clone(), phase, batch, seq_len);
                let eager = engine.run(&wl, ExecMode::Eager);
                let graph = engine.run_graph(
                    &wl.graph_shared(GraphOptions::default()),
                    wl.input_bytes(),
                    eager.meta().clone(),
                );
                assert_eq!(
                    serde_json::to_string(&graph).unwrap(),
                    serde_json::to_string(&eager).unwrap(),
                    "run_graph divergence: {} on {} ({}, b{batch})",
                    model.name,
                    engine.platform().name,
                    phase.label()
                );
            }
        }
    }
}

//! Golden-bytes regression tests for the Chrome exporter, plus property
//! tests over the name table, the export→import round trip, and the
//! exporter's byte equality with its serde oracle.
//!
//! `golden_chrome.json` was captured from the exporter *before* event names
//! were interned; these tests pin the serialization boundary so interning
//! stays invisible in the on-disk format. The oracle is the exporter as it
//! was before it wrote JSON text directly: event structs with a derived
//! `Serialize`, rendered by `serde_json`.

use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use skip_des::SimTime;
use skip_trace::{
    chrome, CorrelationId, CounterEvent, CpuOpEvent, KernelEvent, NameTable, OpId,
    RuntimeLaunchEvent, StreamId, ThreadId, Trace, TraceMeta,
};

#[path = "../src/chrome/oracle.rs"]
mod oracle;

const GOLDEN: &str = include_str!("golden_chrome.json");

fn golden_trace() -> Trace {
    let mut t = Trace::new(TraceMeta::default());
    let linear = t.intern("aten::linear");
    t.push_cpu_op(CpuOpEvent {
        id: OpId::new(0),
        name: linear,
        thread: ThreadId::MAIN,
        begin: SimTime::from_nanos(0),
        end: SimTime::from_nanos(1_000),
    });
    let launch = t.intern("cudaLaunchKernel");
    t.push_launch(RuntimeLaunchEvent {
        name: launch,
        thread: ThreadId::MAIN,
        begin: SimTime::from_nanos(100),
        end: SimTime::from_nanos(200),
        correlation: CorrelationId::new(42),
    });
    let gemm = t.intern("gemm_kernel");
    t.push_kernel(KernelEvent {
        name: gemm,
        stream: StreamId::DEFAULT,
        begin: SimTime::from_nanos(2_500),
        end: SimTime::from_nanos(3_500),
        correlation: CorrelationId::new(42),
    });
    t.push_counter(CounterEvent {
        track: "queue_depth".into(),
        at: SimTime::from_nanos(1_500),
        value: 4.0,
    });
    t
}

#[test]
fn export_matches_pre_interning_golden_bytes() {
    assert_eq!(chrome::to_chrome_trace(&golden_trace()), GOLDEN.trim_end());
}

#[test]
fn golden_imports_to_the_same_trace() {
    let back = chrome::from_chrome_trace(GOLDEN.trim_end()).unwrap();
    assert_eq!(back, golden_trace());
    // And re-exports to the identical bytes.
    assert_eq!(chrome::to_chrome_trace(&back), GOLDEN.trim_end());
}

/// A strategy over event-name strings that stays JSON-friendly but covers
/// the characters real kernel names use.
fn arb_name() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::sample::select(vec![
            "aten", "cuda", "gemm", "::", "_", "<", ">", "128x128", "fp16", "void ",
        ]),
        1..5,
    )
    .prop_map(|parts| parts.concat())
}

/// Name fragments that exercise every escaping rule: quote, backslash,
/// the lettered and `\u00XX` control escapes, DEL (passed through), and
/// two-, three- and four-byte UTF-8.
const AWKWARD: [&str; 16] = [
    "aten::mm", "gemm", "_", "\"", "\\", "\n", "\r", "\t", "\u{08}", "\u{0C}", "\u{0}", "\u{1f}",
    "\u{7f}", "é", "中", "😀",
];

/// Event names built from [`AWKWARD`] fragments, the empty name included.
fn arb_awkward_name() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(AWKWARD.to_vec()), 0..5)
        .prop_map(|parts| parts.concat())
}

/// Instants in nanoseconds: sub-microsecond fractions, realistic run
/// lengths, anywhere on the clock, and the clock's last tick.
fn arb_instant() -> impl Strategy<Value = u64> {
    (0u8..4, 0u64..u64::MAX).prop_map(|(kind, x)| match kind {
        0 => x % 10_000,
        1 => x % 100_000_000_000,
        2 => x,
        _ => u64::MAX,
    })
}

/// `(begin, end)` spans, a third of them zero-length.
fn arb_span() -> impl Strategy<Value = (u64, u64)> {
    (arb_instant(), 0u8..3, 0u64..5_000_000).prop_map(|(begin, kind, len)| {
        let len = if kind == 0 { 0 } else { len };
        (begin, begin.saturating_add(len))
    })
}

/// Counter values, with NaN, both infinities and both zeros.
fn arb_value() -> impl Strategy<Value = f64> {
    (0u8..8, -1e9f64..1e9).prop_map(|(kind, x)| match kind {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => x.round(),
        _ => x,
    })
}

/// Slices as `(name, span, thread or stream, correlation)`.
fn arb_slices() -> impl Strategy<Value = Vec<(String, (u64, u64), u32, u64)>> {
    let track = prop::sample::select(vec![0u32, 1, 7, u32::MAX]);
    prop::collection::vec(
        (arb_awkward_name(), arb_span(), track, 0u64..u64::MAX),
        0..6,
    )
}

/// Random traces: a quarter empty, a quarter counter-only, the rest with
/// every event kind.
fn arb_trace() -> impl Strategy<Value = Trace> {
    let counters = prop::collection::vec((arb_awkward_name(), arb_instant(), arb_value()), 0..6);
    (0u8..4, arb_slices(), arb_slices(), arb_slices(), counters).prop_map(
        |(shape, ops, launches, kernels, counters)| {
            let mut t = Trace::new(TraceMeta::default());
            if shape == 0 {
                return t;
            }
            if shape >= 2 {
                for (i, (name, (begin, end), thread, _)) in ops.into_iter().enumerate() {
                    let name = t.intern(&name);
                    t.push_cpu_op(CpuOpEvent {
                        id: OpId::new(i as u64),
                        name,
                        thread: ThreadId::new(thread),
                        begin: SimTime::from_nanos(begin),
                        end: SimTime::from_nanos(end),
                    });
                }
                for (name, (begin, end), thread, corr) in launches {
                    let name = t.intern(&name);
                    t.push_launch(RuntimeLaunchEvent {
                        name,
                        thread: ThreadId::new(thread),
                        begin: SimTime::from_nanos(begin),
                        end: SimTime::from_nanos(end),
                        correlation: CorrelationId::new(corr),
                    });
                }
                for (name, (begin, end), stream, corr) in kernels {
                    let name = t.intern(&name);
                    t.push_kernel(KernelEvent {
                        name,
                        stream: StreamId::new(stream),
                        begin: SimTime::from_nanos(begin),
                        end: SimTime::from_nanos(end),
                        correlation: CorrelationId::new(corr),
                    });
                }
            }
            for (track, at, value) in counters {
                t.push_counter(CounterEvent {
                    track,
                    at: SimTime::from_nanos(at),
                    value,
                });
            }
            t
        },
    )
}

#[test]
fn export_matches_the_serde_oracle_on_every_awkward_input() {
    let mut t = golden_trace();
    for (i, frag) in AWKWARD.iter().enumerate() {
        let name = t.intern(frag);
        t.push_kernel(KernelEvent {
            name,
            stream: StreamId::new(u32::MAX),
            begin: SimTime::from_nanos(u64::MAX),
            end: SimTime::from_nanos(u64::MAX),
            correlation: CorrelationId::new(u64::MAX - i as u64),
        });
    }
    for value in [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        1e300,
        5e-324,
    ] {
        t.push_counter(CounterEvent {
            track: AWKWARD.concat(),
            at: SimTime::from_nanos(u64::MAX),
            value,
        });
    }
    let json = chrome::to_chrome_trace(&t);
    assert_eq!(json, oracle::to_chrome_trace_via_serde(&t));
    assert!(json.contains(r#""value":null"#));
    assert!(json.contains(r#"\u001f"#) && json.contains('\u{7f}'));
    // Counter-only and empty traces.
    let mut counters = Trace::default();
    counters.push_counter(t.counters()[1].clone());
    assert_eq!(
        chrome::to_chrome_trace(&counters),
        oracle::to_chrome_trace_via_serde(&counters)
    );
    assert_eq!(chrome::to_chrome_trace(&Trace::default()), "[]");
    assert_eq!(oracle::to_chrome_trace_via_serde(&Trace::default()), "[]");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn export_is_byte_identical_to_the_serde_oracle(t in arb_trace()) {
        prop_assert_eq!(chrome::to_chrome_trace(&t), oracle::to_chrome_trace_via_serde(&t));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn name_table_serde_round_trips(names in prop::collection::vec(arb_name(), 0..20)) {
        let mut table = NameTable::new();
        for n in &names {
            table.intern(n);
        }
        let back = NameTable::from_value(&table.to_value()).unwrap();
        prop_assert_eq!(&table, &back);
        for (id, name) in table.iter() {
            prop_assert_eq!(back.lookup(name), Some(id));
        }
    }

    #[test]
    fn chrome_export_import_round_trips(
        names in prop::collection::vec(arb_name(), 1..8),
        spans in prop::collection::vec((0u64..10_000, 1u64..5_000), 1..8),
    ) {
        // One launch+kernel pair per span, names drawn cyclically so some
        // repeat (exercising intern hits) and interleaved so import order
        // differs from intern order.
        let mut t = Trace::new(TraceMeta::default());
        let launch = t.intern("cudaLaunchKernel");
        let ids: Vec<_> = names.iter().map(|n| t.intern(n)).collect();
        for (i, (begin, dur)) in spans.iter().enumerate() {
            let corr = CorrelationId::new(i as u64 + 1);
            t.push_launch(RuntimeLaunchEvent {
                name: launch,
                thread: ThreadId::MAIN,
                begin: SimTime::from_nanos(*begin),
                end: SimTime::from_nanos(begin + dur),
                correlation: corr,
            });
            t.push_kernel(KernelEvent {
                name: ids[i % ids.len()],
                // Distinct streams so overlap never arises.
                stream: StreamId::new(i as u32),
                begin: SimTime::from_nanos(begin + dur),
                end: SimTime::from_nanos(begin + 2 * dur),
                correlation: corr,
            });
        }
        let json = chrome::to_chrome_trace(&t);
        let back = chrome::from_chrome_trace(&json).unwrap();
        prop_assert_eq!(&back, &t);
        prop_assert_eq!(chrome::to_chrome_trace(&back), json);
    }
}

//! Chrome-trace (a.k.a. Trace Event Format) import/export.
//!
//! Emits the JSON-array flavour consumed by `chrome://tracing` and Perfetto —
//! the same format PyTorch Profiler exports — so simulated traces can be
//! inspected with the familiar timeline UI. CPU operators and runtime calls
//! appear on CPU thread tracks, kernels on per-stream GPU tracks, each
//! launch→kernel correlation is drawn as a flow arrow, and (as in PyTorch
//! exports) the correlation ID is also carried in the event `args`.
//! Counter samples ([`CounterEvent`]) export as `ph: "C"` events and render
//! as Perfetto counter tracks — the serving simulator uses them for queue
//! depth, batch size, and KV-pool occupancy time series.
//!
//! [`to_chrome_trace`] writes the JSON text straight into one pre-sized
//! `String`: no per-event structs, no `serde_json::Value` tree, no owned
//! copy of any name. Its output is byte-identical to the earlier exporter,
//! which derived `Serialize` on an event struct and rendered the resulting
//! `Value` tree with the vendored `serde_json`. That exporter survives as a
//! test-only oracle (`chrome/oracle.rs`), and a property test over random
//! traces (escaped and multi-byte names, non-finite counter values,
//! zero-length spans, `u64::MAX` timestamps) holds the two to byte
//! equality.
//!
//! [`from_chrome_trace`] parses the format back, which means the SKIP
//! profiler can consume timestamp-faithful Chrome-trace exports of *real*
//! PyTorch runs, not only simulated ones.

use std::fmt::Write as _;

use serde::Deserialize;
use skip_des::{SimDuration, SimTime};

use crate::event::{CounterEvent, CpuOpEvent, KernelEvent, RuntimeLaunchEvent};
use crate::ids::{CorrelationId, OpId, StreamId, ThreadId};
use crate::trace::{Trace, TraceMeta};

#[cfg(test)]
mod oracle;

/// Process IDs used in the exported timeline: CPU events under one pid, GPU
/// events under another, mirroring PyTorch Profiler's layout.
const CPU_PID: u32 = 1;
/// See [`CPU_PID`].
const GPU_PID: u32 = 2;
/// Counter tracks live under their own pid so Perfetto groups them apart
/// from the slice tracks.
const COUNTER_PID: u32 = 3;

/// The `args` object of an imported event.
#[derive(Deserialize)]
struct EventArgs {
    correlation: Option<u64>,
    /// Counter sample value (`ph: "C"` events only).
    value: Option<f64>,
}

/// Bytes reserved per exported event. A kernel slice with a 40-byte name
/// and microsecond timestamps takes about 140 bytes, a flow event about 90;
/// pages of the reservation that are never written are never touched.
const EVENT_BYTES_HINT: usize = 128;

/// Serializes `trace` to a Chrome-trace JSON string.
///
/// Timestamps are microseconds (floats) per the format; durations likewise.
/// Events appear in this order: CPU operators, each launch followed by its
/// flow start, each kernel followed by its flow end, then counter samples.
/// Every object lists `name, cat, ph, ts, dur, pid, tid, id, bp, args` in
/// that order, leaving out the fields its kind does not carry.
///
/// The text is written directly, with the same bytes the vendored
/// `serde_json` produced from a derived `Serialize`. Floats print through
/// `{}`, which is `f64`'s `Display`: the very formatter behind the
/// `f.to_string()` that `serde_json` calls, giving the shortest decimal
/// that round-trips and never an exponent. Non-finite counter values print
/// `null`, as there. Strings are escaped by `serde_json`'s rules.
///
/// # Example
///
/// ```
/// use skip_trace::{chrome, Trace, TraceMeta};
///
/// let trace = Trace::new(TraceMeta::default());
/// let json = chrome::to_chrome_trace(&trace);
/// assert!(json.starts_with('['));
/// ```
#[must_use]
pub fn to_chrome_trace(trace: &Trace) -> String {
    let (launches, kernels) = (trace.launches(), trace.kernels());
    let events =
        trace.cpu_ops().len() + 2 * (launches.len() + kernels.len()) + trace.counters().len();
    let mut out = String::with_capacity(2 + events * EVENT_BYTES_HINT);
    out.push('[');
    for op in trace.cpu_ops() {
        write_head(&mut out, trace.name(op.name), "cpu_op", "X", op.begin);
        write_dur(&mut out, op.duration());
        let _ = write!(out, ",\"pid\":{CPU_PID},\"tid\":{}}},", op.thread.get());
    }
    for l in launches.iter() {
        let (tid, corr) = (l.thread.get(), l.correlation.get());
        write_head(&mut out, trace.name(l.name), "cuda_runtime", "X", l.begin);
        write_dur(&mut out, l.duration());
        let _ = write!(
            out,
            ",\"pid\":{CPU_PID},\"tid\":{tid},\"args\":{{\"correlation\":{corr}}}}},"
        );
        // Flow start at the launch call.
        write_head(&mut out, "launch", "ac2g", "s", l.begin);
        let _ = write!(out, ",\"pid\":{CPU_PID},\"tid\":{tid},\"id\":{corr}}},");
    }
    for k in kernels.iter() {
        let (tid, corr) = (k.stream.get(), k.correlation.get());
        write_head(&mut out, trace.name(k.name), "kernel", "X", k.begin);
        write_dur(&mut out, k.duration());
        let _ = write!(
            out,
            ",\"pid\":{GPU_PID},\"tid\":{tid},\"args\":{{\"correlation\":{corr}}}}},"
        );
        // Flow end binding to the enclosing kernel slice.
        write_head(&mut out, "launch", "ac2g", "f", k.begin);
        let _ = write!(
            out,
            ",\"pid\":{GPU_PID},\"tid\":{tid},\"id\":{corr},\"bp\":\"e\"}},"
        );
    }
    for c in trace.counters() {
        write_head(&mut out, &c.track, "counter", "C", c.at);
        let _ = write!(
            out,
            ",\"pid\":{COUNTER_PID},\"tid\":0,\"args\":{{\"value\":"
        );
        write_f64(&mut out, c.value);
        out.push_str("}},");
    }
    // Each event ends in a separator; the last one gives way to the bracket.
    if out.ends_with(',') {
        out.pop();
    }
    out.push(']');
    out
}

/// Writes `{"name":…,"cat":…,"ph":…,"ts":…`, the prefix every event shares.
/// `cat` and `ph` are exporter constants that need no escaping.
fn write_head(out: &mut String, name: &str, cat: &str, ph: &str, at: SimTime) {
    out.push_str("{\"name\":");
    write_escaped(out, name);
    out.push_str(",\"cat\":\"");
    out.push_str(cat);
    out.push_str("\",\"ph\":\"");
    out.push_str(ph);
    out.push_str("\",\"ts\":");
    write_f64(out, at.as_micros_f64());
}

/// Writes the `dur` field of a complete (`ph: "X"`) slice.
fn write_dur(out: &mut String, dur: SimDuration) {
    out.push_str(",\"dur\":");
    write_f64(out, dur.as_micros_f64());
}

/// Writes `f` as `serde_json` does: `Display` when finite, else `null`.
/// (Writing into a `String` cannot fail, so the `fmt::Result`s in this
/// module are discarded.)
fn write_f64(out: &mut String, f: f64) {
    if f.is_finite() {
        let _ = write!(out, "{f}");
    } else {
        out.push_str("null");
    }
}

/// Writes `s` as a JSON string literal with `serde_json`'s escapes: `"`
/// and `\` backslashed, `\n \r \t \b \f` by letter, other bytes below 0x20
/// as `\u00XX`, everything else (DEL and multi-byte UTF-8 included) as is.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    if s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0C}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
    } else {
        out.push_str(s);
    }
    out.push('"');
}

/// Errors produced by [`from_chrome_trace`].
#[derive(Debug)]
#[non_exhaustive]
pub enum ImportError {
    /// The input was not valid Trace Event Format JSON.
    Json(serde_json::Error),
    /// A `cuda_runtime` or `kernel` event lacked a correlation ID.
    MissingCorrelation {
        /// The event's name.
        name: String,
    },
    /// A counter (`ph: "C"`) event lacked `args.value`.
    MissingCounterValue {
        /// The counter track's name.
        name: String,
    },
    /// A complete (`ph: "X"`) event ends past the last representable
    /// nanosecond (`u64::MAX`).
    EndOverflow {
        /// The event's name.
        name: String,
    },
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::Json(e) => write!(f, "invalid trace-event JSON: {e}"),
            ImportError::MissingCorrelation { name } => {
                write!(f, "event {name} lacks args.correlation")
            }
            ImportError::MissingCounterValue { name } => {
                write!(f, "counter event {name} lacks args.value")
            }
            ImportError::EndOverflow { name } => {
                write!(
                    f,
                    "event {name} ends past the last representable nanosecond"
                )
            }
        }
    }
}

impl std::error::Error for ImportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ImportError::Json(e) => Some(e),
            ImportError::MissingCorrelation { .. }
            | ImportError::MissingCounterValue { .. }
            | ImportError::EndOverflow { .. } => None,
        }
    }
}

impl From<serde_json::Error> for ImportError {
    fn from(e: serde_json::Error) -> Self {
        ImportError::Json(e)
    }
}

fn micros_to_time(us: f64) -> SimTime {
    SimTime::from_nanos(SimDuration::from_nanos_f64(us * 1e3).as_nanos())
}

/// Parses a Chrome-trace JSON array (our export format, which mirrors
/// PyTorch Profiler's `cpu_op` / `cuda_runtime` / `kernel` categories and
/// `args.correlation`, plus `ph: "C"` counter samples) back into a
/// [`Trace`].
///
/// Flow events and unknown categories are skipped; operator IDs are
/// regenerated in event order. Timestamps are rounded to the nanosecond.
///
/// # Errors
///
/// Returns [`ImportError`] on malformed JSON, on runtime/kernel events
/// without a correlation ID, on counter events without a value, or on a
/// complete event whose `ts + dur` overflows the nanosecond clock.
///
/// # Example
///
/// ```
/// use skip_trace::{chrome, Trace, TraceMeta};
///
/// let trace = Trace::new(TraceMeta::default());
/// let json = chrome::to_chrome_trace(&trace);
/// let back = chrome::from_chrome_trace(&json)?;
/// assert!(back.is_empty());
/// # Ok::<(), chrome::ImportError>(())
/// ```
pub fn from_chrome_trace(json: &str) -> Result<Trace, ImportError> {
    #[derive(Deserialize)]
    struct Raw {
        name: String,
        #[serde(default)]
        cat: String,
        ph: String,
        ts: f64,
        #[serde(default)]
        dur: f64,
        #[serde(default)]
        tid: u32,
        #[serde(default)]
        args: Option<EventArgs>,
    }

    let raw: Vec<Raw> = serde_json::from_str(json)?;
    let mut trace = Trace::new(TraceMeta::default());
    let mut next_op = 0u64;
    for ev in raw {
        if ev.ph == "C" {
            let value =
                ev.args
                    .as_ref()
                    .and_then(|a| a.value)
                    .ok_or(ImportError::MissingCounterValue {
                        name: ev.name.clone(),
                    })?;
            trace.push_counter(CounterEvent {
                track: ev.name,
                at: micros_to_time(ev.ts),
                value,
            });
            continue;
        }
        if ev.ph != "X" {
            continue; // flows, metadata
        }
        let begin = micros_to_time(ev.ts);
        let dur = SimDuration::from_nanos_f64(ev.dur * 1e3);
        let end = begin.as_nanos().checked_add(dur.as_nanos());
        let Some(end) = end.map(SimTime::from_nanos) else {
            return Err(ImportError::EndOverflow { name: ev.name });
        };
        match ev.cat.as_str() {
            "cpu_op" => {
                let name = trace.intern(&ev.name);
                trace.push_cpu_op(CpuOpEvent {
                    id: OpId::new(next_op),
                    name,
                    thread: ThreadId::new(ev.tid),
                    begin,
                    end,
                });
                next_op += 1;
            }
            "cuda_runtime" => {
                let corr = ev.args.as_ref().and_then(|a| a.correlation).ok_or(
                    ImportError::MissingCorrelation {
                        name: ev.name.clone(),
                    },
                )?;
                let name = trace.intern(&ev.name);
                trace.push_launch(RuntimeLaunchEvent {
                    name,
                    thread: ThreadId::new(ev.tid),
                    begin,
                    end,
                    correlation: CorrelationId::new(corr),
                });
            }
            "kernel" => {
                let corr = ev.args.as_ref().and_then(|a| a.correlation).ok_or(
                    ImportError::MissingCorrelation {
                        name: ev.name.clone(),
                    },
                )?;
                let name = trace.intern(&ev.name);
                trace.push_kernel(KernelEvent {
                    name,
                    stream: StreamId::new(ev.tid),
                    begin,
                    end,
                    correlation: CorrelationId::new(corr),
                });
            }
            _ => {}
        }
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
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
        t
    }

    #[test]
    fn export_contains_all_event_kinds_and_flows() {
        let json = to_chrome_trace(&sample());
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        let arr = parsed.as_array().unwrap();
        // 3 complete events + 2 flow events.
        assert_eq!(arr.len(), 5);
        assert!(json.contains("\"aten::linear\""));
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        assert!(json.contains("\"correlation\":42"));
        // Timestamps are microseconds: the kernel at 2500ns is ts=2.5us.
        assert!(json.contains("\"ts\":2.5"));
    }

    #[test]
    fn import_round_trips_every_field() {
        let original = sample();
        let back = from_chrome_trace(&to_chrome_trace(&original)).unwrap();
        assert_eq!(back.cpu_ops().len(), 1);
        assert_eq!(back.launches().len(), 1);
        assert_eq!(back.kernels().len(), 1);
        assert_eq!(back.name(back.cpu_ops()[0].name), "aten::linear");
        assert_eq!(back.cpu_ops()[0].begin, SimTime::from_nanos(0));
        assert_eq!(back.cpu_ops()[0].end, SimTime::from_nanos(1_000));
        assert_eq!(back.launches().get(0).correlation, CorrelationId::new(42));
        assert_eq!(back.kernels().get(0).begin, SimTime::from_nanos(2_500));
        assert_eq!(back.kernels().get(0).correlation, CorrelationId::new(42));
        back.validate().unwrap();
        // Semantic equality holds even though import interns in export
        // order, which may differ from the producer's interning order.
        assert_eq!(back, original);
    }

    #[test]
    fn kernel_names_are_json_escaped() {
        let mut t = Trace::new(TraceMeta::default());
        let evil = t.intern("aten::pad\"evil\\name");
        t.push_cpu_op(CpuOpEvent {
            id: OpId::new(0),
            name: evil,
            thread: ThreadId::MAIN,
            begin: SimTime::from_nanos(0),
            end: SimTime::from_nanos(1),
        });
        let json = to_chrome_trace(&t);
        let back = from_chrome_trace(&json).unwrap();
        assert_eq!(back.name(back.cpu_ops()[0].name), "aten::pad\"evil\\name");
    }

    #[test]
    fn empty_trace_exports_empty_array() {
        assert_eq!(to_chrome_trace(&Trace::default()), "[]");
        assert!(from_chrome_trace("[]").unwrap().is_empty());
    }

    #[test]
    fn counters_round_trip_as_ph_c_events() {
        let mut t = sample();
        t.push_counter(CounterEvent {
            track: "queue_depth".into(),
            at: SimTime::from_nanos(1_500),
            value: 4.0,
        });
        t.push_counter(CounterEvent {
            track: "queue_depth".into(),
            at: SimTime::from_nanos(3_000),
            value: 2.5,
        });
        let json = to_chrome_trace(&t);
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"value\":4.0") || json.contains("\"value\":4"));
        let back = from_chrome_trace(&json).unwrap();
        assert_eq!(back.counters().len(), 2);
        assert_eq!(back.counters()[0].track, "queue_depth");
        assert_eq!(back.counters()[0].at, SimTime::from_nanos(1_500));
        assert!((back.counters()[1].value - 2.5).abs() < 1e-12);
    }

    #[test]
    fn import_rejects_counters_without_value() {
        let json = r#"[{"name":"queue_depth","cat":"counter","ph":"C","ts":1.0,"pid":3,"tid":0}]"#;
        assert!(matches!(
            from_chrome_trace(json),
            Err(ImportError::MissingCounterValue { .. })
        ));
    }

    #[test]
    fn import_rejects_kernels_without_correlation() {
        let json = r#"[{"name":"k","cat":"kernel","ph":"X","ts":1.0,"dur":1.0,"pid":2,"tid":0}]"#;
        assert!(matches!(
            from_chrome_trace(json),
            Err(ImportError::MissingCorrelation { .. })
        ));
    }

    #[test]
    fn import_skips_unknown_categories_and_phases() {
        let json = r#"[
            {"name":"meta","cat":"__metadata","ph":"M","ts":0.0,"pid":1,"tid":0},
            {"name":"gc","cat":"python_gc","ph":"X","ts":0.0,"dur":1.0,"pid":1,"tid":0}
        ]"#;
        assert!(from_chrome_trace(json).unwrap().is_empty());
    }

    #[test]
    fn import_rejects_spans_ending_past_the_clock() {
        // `ts` saturates the clock at u64::MAX ns; adding `dur` used to
        // panic with "SimTime + SimDuration overflow".
        let json =
            r#"[{"name":"big","cat":"cpu_op","ph":"X","ts":1e20,"dur":1e20,"pid":1,"tid":0}]"#;
        match from_chrome_trace(json) {
            Err(e @ ImportError::EndOverflow { .. }) => {
                assert_eq!(
                    e.to_string(),
                    "event big ends past the last representable nanosecond"
                );
            }
            other => panic!("expected EndOverflow, got {other:?}"),
        }
        // A saturated zero-length span still fits.
        let json = r#"[{"name":"edge","cat":"cpu_op","ph":"X","ts":1e20,"dur":0,"pid":1,"tid":0}]"#;
        let back = from_chrome_trace(json).unwrap();
        assert_eq!(back.cpu_ops()[0].end, SimTime::from_nanos(u64::MAX));
    }

    #[test]
    fn export_matches_the_serde_oracle() {
        let mut t = sample();
        t.push_counter(CounterEvent {
            track: "kv \"used\"\n".into(),
            at: SimTime::from_nanos(u64::MAX),
            value: f64::NAN,
        });
        t.push_counter(CounterEvent {
            track: "queue_depth".into(),
            at: SimTime::from_nanos(1_234_567),
            value: -0.1,
        });
        assert_eq!(to_chrome_trace(&t), oracle::to_chrome_trace_via_serde(&t));
        assert!(to_chrome_trace(&t).contains("\"value\":null"));
        let empty = Trace::default();
        assert_eq!(
            to_chrome_trace(&empty),
            oracle::to_chrome_trace_via_serde(&empty)
        );
    }

    #[test]
    fn import_rejects_malformed_json() {
        assert!(matches!(
            from_chrome_trace("not json"),
            Err(ImportError::Json(_))
        ));
    }
}

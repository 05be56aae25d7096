//! The pre-rewrite Chrome exporter, kept as a differential oracle.
//!
//! It builds one `ChromeEvent` per event, derives `Serialize`, and renders
//! the resulting `serde_json::Value` tree. `to_chrome_trace` must match it
//! byte for byte. The file is compiled into `chrome`'s unit tests and, by
//! `#[path]`, into `tests/golden.rs`; it names the trace types through
//! `super::`, which both parents import.

use serde::Serialize;

use super::Trace;

/// Process IDs of the exported timeline (see `chrome::CPU_PID`).
const CPU_PID: u32 = 1;
const GPU_PID: u32 = 2;
const COUNTER_PID: u32 = 3;

#[derive(Serialize)]
struct EventArgs {
    #[serde(skip_serializing_if = "Option::is_none")]
    correlation: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    value: Option<f64>,
}

#[derive(Serialize)]
struct ChromeEvent<'a> {
    name: &'a str,
    cat: &'a str,
    ph: &'a str,
    ts: f64,
    #[serde(skip_serializing_if = "Option::is_none")]
    dur: Option<f64>,
    pid: u32,
    tid: u32,
    #[serde(skip_serializing_if = "Option::is_none")]
    id: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    bp: Option<&'a str>,
    #[serde(skip_serializing_if = "Option::is_none")]
    args: Option<EventArgs>,
}

impl<'a> ChromeEvent<'a> {
    fn complete(
        name: &'a str,
        cat: &'a str,
        ts: f64,
        dur: f64,
        pid: u32,
        tid: u32,
        correlation: Option<u64>,
    ) -> Self {
        ChromeEvent {
            name,
            cat,
            ph: "X",
            ts,
            dur: Some(dur),
            pid,
            tid,
            id: None,
            bp: None,
            args: correlation.map(|c| EventArgs {
                correlation: Some(c),
                value: None,
            }),
        }
    }
}

/// Serializes `trace` the way the exporter did through `serde_json`.
pub fn to_chrome_trace_via_serde(trace: &Trace) -> String {
    let mut events: Vec<ChromeEvent<'_>> = Vec::with_capacity(trace.len() * 2);

    for op in trace.cpu_ops() {
        events.push(ChromeEvent::complete(
            trace.name(op.name),
            "cpu_op",
            op.begin.as_micros_f64(),
            op.duration().as_micros_f64(),
            CPU_PID,
            op.thread.get(),
            None,
        ));
    }
    for l in trace.launches() {
        events.push(ChromeEvent::complete(
            trace.name(l.name),
            "cuda_runtime",
            l.begin.as_micros_f64(),
            l.duration().as_micros_f64(),
            CPU_PID,
            l.thread.get(),
            Some(l.correlation.get()),
        ));
        events.push(ChromeEvent {
            name: "launch",
            cat: "ac2g",
            ph: "s",
            ts: l.begin.as_micros_f64(),
            dur: None,
            pid: CPU_PID,
            tid: l.thread.get(),
            id: Some(l.correlation.get()),
            bp: None,
            args: None,
        });
    }
    for k in trace.kernels() {
        events.push(ChromeEvent::complete(
            trace.name(k.name),
            "kernel",
            k.begin.as_micros_f64(),
            k.duration().as_micros_f64(),
            GPU_PID,
            k.stream.get(),
            Some(k.correlation.get()),
        ));
        events.push(ChromeEvent {
            name: "launch",
            cat: "ac2g",
            ph: "f",
            ts: k.begin.as_micros_f64(),
            dur: None,
            pid: GPU_PID,
            tid: k.stream.get(),
            id: Some(k.correlation.get()),
            bp: Some("e"),
            args: None,
        });
    }
    for c in trace.counters() {
        events.push(ChromeEvent {
            name: &c.track,
            cat: "counter",
            ph: "C",
            ts: c.at.as_micros_f64(),
            dur: None,
            pid: COUNTER_PID,
            tid: 0,
            id: None,
            bp: None,
            args: Some(EventArgs {
                correlation: None,
                value: Some(c.value),
            }),
        });
    }

    serde_json::to_string(&events).expect("chrome trace serialization cannot fail")
}

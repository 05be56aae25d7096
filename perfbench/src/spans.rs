//! Spans recorded around the benchmark's calls into the simulator.
//!
//! A span has a name (the layer it times), a start and an end in host
//! nanoseconds since the run began, the span that encloses it, and the id
//! of the operation it belongs to. Spans stay in memory until the run
//! ends; nothing inside the simulator is instrumented.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::Serialize;
use skip_des::SimTime;
use skip_trace::{CpuOpEvent, OpId, ThreadId, Trace, TraceMeta};

/// One recorded span.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Layer name, e.g. `runtime.run`.
    pub name: &'static str,
    /// Index of this span in the recorder.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// The operation this span belongs to (shared by its spans).
    pub op: u64,
    /// Recording thread: 0 is the main thread, workers count from 1.
    pub tid: u32,
    /// Host nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// Thread-safe in-memory span store. A disabled recorder times nothing
/// and stores nothing, so untraced passes run the same code path.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// An open span; closed by [`Recorder::close`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u32,
    name: &'static str,
    parent: Option<u32>,
    op: u64,
    tid: u32,
    start_ns: u64,
}

impl Open {
    /// The span id, for use as a child's parent.
    pub fn id(&self) -> Option<u32> {
        (self.id != u32::MAX).then_some(self.id)
    }
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span on thread `tid`.
    pub fn open(&self, name: &'static str, parent: Option<u32>, op: u64, tid: u32) -> Open {
        if !self.enabled {
            return Open {
                id: u32::MAX,
                name,
                parent,
                op,
                tid,
                start_ns: 0,
            };
        }
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            name,
            parent,
            op,
            tid,
            start_ns: self.now_ns(),
        }
    }

    pub fn close(&self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.lock().expect("span store poisoned").push(Span {
            name: open.name,
            id: open.id,
            parent: open.parent,
            op: open.op,
            tid: open.tid,
            start_ns: open.start_ns,
            end_ns,
        });
    }

    /// Times `f` as a span named `name`.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, parent, op, 0);
        let out = f();
        self.close(open);
        out
    }

    /// Every span recorded so far, sorted by id.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span store poisoned"));
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (children on worker threads may overlap).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (b, e) in kids {
                let (b, e) = (b.max(cursor), e.min(s.end_ns));
                if e > b {
                    covered += e - b;
                    cursor = e;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Renders the spans as a Chrome trace through `skip_trace::chrome`, so
/// the benchmark's profile of the simulator opens in the same viewer as
/// the simulated traces it produces.
pub fn to_chrome(spans: &[Span], workload: &str) -> String {
    let mut trace = Trace::new(TraceMeta {
        model: workload.to_owned(),
        platform: "host".to_owned(),
        exec_mode: "perfbench".to_owned(),
        ..TraceMeta::default()
    });
    for s in spans {
        let name = trace.intern(s.name);
        trace.push_cpu_op(CpuOpEvent {
            id: OpId::new(u64::from(s.id)),
            name,
            thread: ThreadId::new(s.tid),
            begin: SimTime::from_nanos(s.start_ns),
            end: SimTime::from_nanos(s.end_ns),
        });
    }
    skip_trace::chrome::to_chrome_trace(&trace)
}

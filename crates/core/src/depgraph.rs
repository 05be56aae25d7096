//! Operator–kernel dependency graph construction (paper §IV-A).
//!
//! Reconstructs the hierarchy a real profiler trace flattens away:
//!
//! * an operator `p` is the parent of operator `c` (or launch call `l`) if
//!   `c` starts within `p`'s `[begin, end)` on the same thread, with the
//!   *tightest* containing operator winning;
//! * kernel `k` links to launch `l` through the CUDA correlation ID.
//!
//! The construction is a per-thread interval sweep: events sorted by
//! `(begin asc, end desc)` visit parents before their children, so a stack
//! of currently-open operators yields each node's innermost parent in
//! O(n log n). Launch calls are attached by a second sweep over the same
//! sorted operator list — launches sorted by begin advance through the
//! operator stack, so attachment is O((n + m) log (n + m)) rather than the
//! naive O(n·m) all-pairs containment scan.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use skip_trace::{CorrelationId, OpId, ThreadId, Trace};

/// Index of an operator within [`Trace::cpu_ops`] order.
pub type OpRef = usize;

/// A launch call resolved against the graph: which operator issued it and
/// which kernel it triggered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaunchLink {
    /// Index into [`Trace::launches`].
    pub launch_idx: usize,
    /// The innermost operator containing the launch call, if any.
    pub parent_op: Option<OpRef>,
    /// Index into [`Trace::kernels`] of the kernel with the same
    /// correlation ID, if one executed.
    pub kernel_idx: Option<usize>,
}

/// The reconstructed operator–kernel dependency graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DependencyGraph {
    /// `parent[i]` is the innermost operator containing operator `i`.
    parent: Vec<Option<OpRef>>,
    /// `children[i]` lists operators directly nested in operator `i`.
    children: Vec<Vec<OpRef>>,
    /// Root operators (no parent), in trace order.
    roots: Vec<OpRef>,
    /// Launch calls resolved to parent operators and kernels.
    launches: Vec<LaunchLink>,
}

impl DependencyGraph {
    /// Builds the dependency graph for `trace`.
    ///
    /// Operators with identical `(thread, begin)` are disambiguated by
    /// longer-duration-first, so a parent whose first child starts at the
    /// same instant still contains it — matching how SKIP treats zero-skew
    /// profiler timestamps.
    #[must_use]
    pub fn build(trace: &Trace) -> Self {
        let ops = trace.cpu_ops();
        let n = ops.len();
        let mut parent: Vec<Option<OpRef>> = vec![None; n];
        let mut children: Vec<Vec<OpRef>> = vec![Vec::new(); n];
        let mut roots = Vec::new();

        // Group op indices per thread, sorted parents-before-children:
        // earlier begin first; on ties the longer (outer) interval first.
        // The sorted lists drive both the hierarchy sweep and the launch
        // attachment sweep below.
        let mut per_thread: BTreeMap<ThreadId, Vec<OpRef>> = BTreeMap::new();
        for (i, op) in ops.iter().enumerate() {
            per_thread.entry(op.thread).or_default().push(i);
        }
        for sorted in per_thread.values_mut() {
            sorted.sort_by(|&a, &b| {
                (ops[a].begin, std::cmp::Reverse(ops[a].end))
                    .cmp(&(ops[b].begin, std::cmp::Reverse(ops[b].end)))
            });
        }

        for sorted in per_thread.values() {
            let mut stack: Vec<OpRef> = Vec::new();
            for &i in sorted {
                while let Some(&top) = stack.last() {
                    // `top` contains `i` if i begins before top ends.
                    if ops[i].begin < ops[top].end && ops[i].end <= ops[top].end {
                        break;
                    }
                    stack.pop();
                }
                match stack.last() {
                    Some(&p) => {
                        parent[i] = Some(p);
                        children[p].push(i);
                    }
                    None => roots.push(i),
                }
                stack.push(i);
            }
        }
        roots.sort_unstable();
        for ch in &mut children {
            ch.sort_unstable();
        }

        // Kernel lookup by correlation. Engine-generated traces assign
        // correlation IDs monotonically, which a vectorized 8-lane scan
        // over the SoA column verifies in O(n); when it holds, lookups
        // binary-search the column directly and the map (one allocation
        // per kernel plus log-n inserts) is never built. Imported traces
        // with shuffled or duplicate IDs fall back to the map, where a
        // later kernel wins a duplicated correlation — same as before.
        let kernel_corrs = trace.kernels().correlations();
        let corrs_ascending = crate::scan::is_strictly_ascending(kernel_corrs);
        let kernel_by_corr: BTreeMap<CorrelationId, usize> = if corrs_ascending {
            BTreeMap::new()
        } else {
            kernel_corrs
                .iter()
                .enumerate()
                .map(|(i, &c)| (c, i))
                .collect()
        };
        let kernel_for = |corr: &CorrelationId| -> Option<usize> {
            if corrs_ascending {
                kernel_corrs.binary_search(corr).ok()
            } else {
                kernel_by_corr.get(corr).copied()
            }
        };

        // Attach launches to the innermost containing operator. Launches
        // sorted by begin sweep through the same per-thread operator stack
        // as the hierarchy pass: at each launch instant the stack holds
        // exactly the operators containing it (a nesting chain), so the
        // innermost container is read off the top instead of re-scanning
        // every operator per launch (the former O(n·m) hot spot).
        //
        // Tie-break matches the scan it replaces: among containing
        // operators sharing the maximal begin, the lowest trace index wins.
        // Equal-begin operators never pop each other (the sort nests the
        // shorter inside the longer), so that group is a contiguous suffix
        // of the stack.
        let launch_begins = trace.launches().begins();
        let mut launch_parent: Vec<Option<OpRef>> = vec![None; trace.launches().len()];
        let mut launches_per_thread: BTreeMap<ThreadId, Vec<usize>> = BTreeMap::new();
        for (i, &thread) in trace.launches().threads().iter().enumerate() {
            launches_per_thread.entry(thread).or_default().push(i);
        }
        for (thread, launch_idxs) in &mut launches_per_thread {
            let Some(sorted) = per_thread.get(thread) else {
                continue; // no operators on this thread
            };
            launch_idxs.sort_by_key(|&i| (launch_begins[i], i));
            let mut stack: Vec<OpRef> = Vec::new();
            let mut next_op = 0;
            for &li in launch_idxs.iter() {
                let at = launch_begins[li];
                // Open every operator that has begun by `at`.
                while next_op < sorted.len() && ops[sorted[next_op]].begin <= at {
                    let i = sorted[next_op];
                    while let Some(&top) = stack.last() {
                        if ops[i].begin < ops[top].end && ops[i].end <= ops[top].end {
                            break;
                        }
                        stack.pop();
                    }
                    stack.push(i);
                    next_op += 1;
                }
                // Close operators that ended at or before `at`.
                while let Some(&top) = stack.last() {
                    if ops[top].end > at {
                        break;
                    }
                    stack.pop();
                }
                if let Some(&top) = stack.last() {
                    let max_begin = ops[top].begin;
                    let mut choice = top;
                    for &cand in stack.iter().rev().skip(1) {
                        if ops[cand].begin != max_begin {
                            break;
                        }
                        if cand < choice {
                            choice = cand;
                        }
                    }
                    launch_parent[li] = Some(choice);
                }
            }
        }
        let launches = trace
            .launches()
            .correlations()
            .iter()
            .enumerate()
            .map(|(launch_idx, corr)| LaunchLink {
                launch_idx,
                parent_op: launch_parent[launch_idx],
                kernel_idx: kernel_for(corr),
            })
            .collect();

        DependencyGraph {
            parent,
            children,
            roots,
            launches,
        }
    }

    /// The innermost operator containing operator `i`.
    #[must_use]
    pub fn parent_of(&self, i: OpRef) -> Option<OpRef> {
        self.parent.get(i).copied().flatten()
    }

    /// Operators directly nested in operator `i`.
    #[must_use]
    pub fn children_of(&self, i: OpRef) -> &[OpRef] {
        &self.children[i]
    }

    /// Root (top-level) operators in trace order.
    #[must_use]
    pub fn roots(&self) -> &[OpRef] {
        &self.roots
    }

    /// Resolved launch calls.
    #[must_use]
    pub fn launches(&self) -> &[LaunchLink] {
        &self.launches
    }

    /// The operator ID of the root ancestor of operator `i` — useful for
    /// attributing a kernel to the top-level ATen operator that caused it.
    #[must_use]
    pub fn root_ancestor(&self, mut i: OpRef) -> OpRef {
        while let Some(p) = self.parent_of(i) {
            i = p;
        }
        i
    }

    /// Looks up the trace [`OpId`] for a graph node.
    #[must_use]
    pub fn op_id(&self, trace: &Trace, i: OpRef) -> OpId {
        trace.cpu_ops()[i].id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skip_des::SimTime;
    use skip_trace::{CpuOpEvent, KernelEvent, RuntimeLaunchEvent, StreamId, TraceMeta};

    fn ns(v: u64) -> SimTime {
        SimTime::from_nanos(v)
    }

    fn op(t: &mut Trace, id: u64, name: &str, begin: u64, end: u64) -> CpuOpEvent {
        let name = t.intern(name);
        CpuOpEvent {
            id: OpId::new(id),
            name,
            thread: ThreadId::MAIN,
            begin: ns(begin),
            end: ns(end),
        }
    }

    /// aten::linear [0,100) contains aten::t [5,10) and aten::addmm
    /// [10,90), which contains the launch at [20,25) → kernel corr 7.
    fn nested_trace() -> Trace {
        let mut t = Trace::new(TraceMeta::default());
        let ev = op(&mut t, 0, "aten::linear", 0, 100);
        t.push_cpu_op(ev);
        let ev = op(&mut t, 1, "aten::t", 5, 10);
        t.push_cpu_op(ev);
        let ev = op(&mut t, 2, "aten::addmm", 10, 90);
        t.push_cpu_op(ev);
        let launch = t.intern("cudaLaunchKernel");
        t.push_launch(RuntimeLaunchEvent {
            name: launch,
            thread: ThreadId::MAIN,
            begin: ns(20),
            end: ns(25),
            correlation: CorrelationId::new(7),
        });
        let gemm = t.intern("gemm");
        t.push_kernel(KernelEvent {
            name: gemm,
            stream: StreamId::DEFAULT,
            begin: ns(40),
            end: ns(80),
            correlation: CorrelationId::new(7),
        });
        t
    }

    #[test]
    fn containment_produces_expected_hierarchy() {
        let t = nested_trace();
        let g = DependencyGraph::build(&t);
        assert_eq!(g.roots(), &[0]);
        assert_eq!(g.parent_of(1), Some(0));
        assert_eq!(g.parent_of(2), Some(0));
        assert_eq!(g.children_of(0), &[1, 2]);
        assert_eq!(g.parent_of(0), None);
    }

    #[test]
    fn launch_attaches_to_innermost_op_and_kernel() {
        let t = nested_trace();
        let g = DependencyGraph::build(&t);
        let l = &g.launches()[0];
        assert_eq!(l.parent_op, Some(2), "addmm is the innermost container");
        assert_eq!(l.kernel_idx, Some(0));
    }

    #[test]
    fn root_ancestor_walks_to_top() {
        let t = nested_trace();
        let g = DependencyGraph::build(&t);
        assert_eq!(g.root_ancestor(2), 0);
        assert_eq!(g.root_ancestor(1), 0);
        assert_eq!(g.root_ancestor(0), 0);
    }

    #[test]
    fn sibling_ops_do_not_nest() {
        let mut t = Trace::new(TraceMeta::default());
        for (id, begin) in [(0u64, 0u64), (1, 10), (2, 20)] {
            let ev = op(&mut t, id, "sib", begin, begin + 10);
            t.push_cpu_op(ev);
        }
        let g = DependencyGraph::build(&t);
        assert_eq!(g.roots(), &[0, 1, 2]);
    }

    #[test]
    fn different_threads_never_nest() {
        let mut t = Trace::new(TraceMeta::default());
        let ev = op(&mut t, 0, "outer", 0, 100);
        t.push_cpu_op(ev);
        let mut other = op(&mut t, 1, "elsewhere", 10, 20);
        other.thread = ThreadId::new(5);
        t.push_cpu_op(other);
        let g = DependencyGraph::build(&t);
        assert_eq!(g.parent_of(1), None);
        assert_eq!(g.roots().len(), 2);
    }

    #[test]
    fn equal_begin_ties_resolve_outer_first() {
        let mut t = Trace::new(TraceMeta::default());
        let ev = op(&mut t, 0, "inner", 0, 10); // same begin, shorter
        t.push_cpu_op(ev);
        let ev = op(&mut t, 1, "outer", 0, 50);
        t.push_cpu_op(ev);
        let g = DependencyGraph::build(&t);
        assert_eq!(g.parent_of(0), Some(1));
        assert_eq!(g.roots(), &[1]);
    }

    #[test]
    fn orphan_launch_has_no_parent() {
        let mut t = Trace::new(TraceMeta::default());
        let memcpy = t.intern("cudaMemcpyAsync");
        t.push_launch(RuntimeLaunchEvent {
            name: memcpy,
            thread: ThreadId::MAIN,
            begin: ns(5),
            end: ns(6),
            correlation: CorrelationId::new(1),
        });
        let g = DependencyGraph::build(&t);
        assert_eq!(g.launches()[0].parent_op, None);
        assert_eq!(g.launches()[0].kernel_idx, None);
    }

    #[test]
    fn deep_nesting_chain() {
        let mut t = Trace::new(TraceMeta::default());
        for i in 0..10u64 {
            let ev = op(&mut t, i, "level", i, 100 - i);
            t.push_cpu_op(ev);
        }
        let g = DependencyGraph::build(&t);
        for i in 1..10usize {
            assert_eq!(g.parent_of(i), Some(i - 1));
        }
        assert_eq!(g.root_ancestor(9), 0);
    }

    /// Correlation pairing must not depend on which lookup path the
    /// ascending-scan gate picks: a trace with shuffled correlation IDs
    /// (map fallback) and its sorted twin (binary-search fast path) must
    /// both pair every launch with the kernel carrying its ID.
    #[test]
    fn correlation_pairing_agrees_across_lookup_paths() {
        // 0, 7, 14, ... shuffled via a fixed permutation step so the
        // column is NOT ascending; the sorted twin uses the same IDs in
        // ascending order.
        let ids: Vec<u64> = (0..50u64).map(|i| (i * 37) % 101).collect();
        let mut sorted_ids = ids.clone();
        sorted_ids.sort_unstable();
        for id_set in [&ids, &sorted_ids] {
            let mut t = Trace::new(TraceMeta::default());
            let launch = t.intern("cudaLaunchKernel");
            let k = t.intern("k");
            for (i, &c) in id_set.iter().enumerate() {
                let at = i as u64 * 10;
                t.push_launch(RuntimeLaunchEvent {
                    name: launch,
                    thread: ThreadId::MAIN,
                    begin: ns(at),
                    end: ns(at + 1),
                    correlation: CorrelationId::new(c),
                });
                t.push_kernel(KernelEvent {
                    name: k,
                    stream: StreamId::DEFAULT,
                    begin: ns(at + 2),
                    end: ns(at + 5),
                    correlation: CorrelationId::new(c),
                });
            }
            let g = DependencyGraph::build(&t);
            let kernel_corrs = t.kernels().correlations();
            for (li, link) in g.launches().iter().enumerate() {
                let want = kernel_corrs
                    .iter()
                    .position(|c| *c == t.launches().correlations()[li]);
                assert_eq!(link.kernel_idx, want, "launch {li}");
            }
        }
    }

    /// The sweep-based launch attachment must agree with the naive
    /// all-pairs containment scan it replaced, including its tie-breaks:
    /// among containing ops attaining the maximal begin, lowest trace
    /// index wins.
    #[test]
    fn launch_attachment_matches_naive_scan() {
        // Deterministic pseudo-random interval soup: nested, overlapping,
        // zero-length, equal-begin, multi-thread, plus launches at op
        // boundaries (begin == launch instant, end == launch instant).
        let mut state = 0x2545f491u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut t = Trace::new(TraceMeta::default());
        let mut raw_ops = Vec::new();
        for i in 0..400u64 {
            let begin = next(1_000);
            let dur = next(120); // zero-length allowed
            let thread = ThreadId::new(next(3) as u32);
            let mut ev = op(&mut t, i, "soup", begin, begin + dur);
            ev.thread = thread;
            raw_ops.push(ev);
            t.push_cpu_op(ev);
        }
        let launch = t.intern("cudaLaunchKernel");
        for c in 0..300u64 {
            let begin = next(1_100);
            t.push_launch(RuntimeLaunchEvent {
                name: launch,
                thread: ThreadId::new(next(3) as u32),
                begin: ns(begin),
                end: ns(begin + 1),
                correlation: CorrelationId::new(c),
            });
        }
        let g = DependencyGraph::build(&t);
        for (li, l) in t.launches().iter().enumerate() {
            let mut best: Option<usize> = None;
            for (i, o) in raw_ops.iter().enumerate() {
                if o.thread == l.thread && o.contains(l.begin) {
                    best = match best {
                        Some(b) if raw_ops[b].begin >= o.begin => Some(b),
                        _ => Some(i),
                    };
                }
            }
            assert_eq!(
                g.launches()[li].parent_op,
                best,
                "launch {li} at {:?} on {:?}",
                l.begin,
                l.thread
            );
        }
    }
}

//! Property-based tests of the runtime: random dependent-task programs
//! must execute with sequential semantics on the real executor, and the
//! discovery optimizations must never change reachability.

use proptest::prelude::*;
use ptdg::core::access::AccessMode;
use ptdg::core::exec::{ExecConfig, Executor, SchedPolicy};
use ptdg::core::graph::{DiscoveryEngine, GraphTemplate, TemplateRecorder};
use ptdg::core::handle::HandleSpace;
use ptdg::core::opts::OptConfig;
use ptdg::core::task::TaskSpec;
use ptdg::core::ThrottleConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const N_HANDLES: usize = 6;

/// A random program: per task, 1..=3 depend items (handle, mode).
#[derive(Clone, Debug)]
struct ProgSpec {
    tasks: Vec<Vec<(usize, u8)>>,
}

fn prog_strategy(max_tasks: usize, allow_set: bool) -> impl Strategy<Value = ProgSpec> {
    let mode_max = if allow_set { 4u8 } else { 3u8 };
    prop::collection::vec(
        prop::collection::vec((0..N_HANDLES, 0..mode_max), 1..=3),
        1..=max_tasks,
    )
    .prop_map(|tasks| ProgSpec { tasks })
}

fn mode_of(m: u8) -> AccessMode {
    match m {
        0 => AccessMode::In,
        1 => AccessMode::Out,
        2 => AccessMode::InOut,
        _ => AccessMode::InOutSet,
    }
}

/// Build the template graph of a program under `opts`.
fn template_of(prog: &ProgSpec, opts: OptConfig) -> GraphTemplate {
    let mut space = HandleSpace::new();
    let handles: Vec<_> = (0..N_HANDLES).map(|_| space.region("h", 64)).collect();
    let mut eng = DiscoveryEngine::new(opts);
    let mut rec = TemplateRecorder::new(false);
    for deps in &prog.tasks {
        let mut spec = TaskSpec::new("t");
        let mut seen = Vec::new();
        for &(h, m) in deps {
            if seen.contains(&h) {
                continue; // one access per handle per task
            }
            seen.push(h);
            spec = spec.depend(handles[h], mode_of(m));
        }
        eng.submit(&mut rec, &spec);
    }
    rec.finish()
}

/// Reachability closure by DFS from every node (redirect edges may point
/// to lower ids, so no sweep order can be assumed).
#[allow(clippy::needless_range_loop)]
fn closure(t: &GraphTemplate) -> Vec<Vec<bool>> {
    let n = t.n_nodes();
    let mut reach = vec![vec![false; n]; n];
    for u in 0..n {
        let mut stack: Vec<usize> = t
            .successors(ptdg::core::task::TaskId(u as u32))
            .map(|v| v.index())
            .collect();
        while let Some(v) = stack.pop() {
            if !reach[u][v] {
                reach[u][v] = true;
                stack.extend(
                    t.successors(ptdg::core::task::TaskId(v as u32))
                        .map(|w| w.index()),
                );
            }
        }
    }
    reach
}

/// Project a closure onto application tasks only (drop redirects).
fn task_closure(t: &GraphTemplate) -> Vec<(u32, u32)> {
    let reach = closure(t);
    let task_ids: Vec<usize> = t
        .ids()
        .filter(|&id| !t.node(id).is_redirect)
        .map(|id| id.index())
        .collect();
    let mut pairs = Vec::new();
    for (ai, &a) in task_ids.iter().enumerate() {
        for (bi, &b) in task_ids.iter().enumerate() {
            if reach[a][b] {
                pairs.push((ai as u32, bi as u32));
            }
        }
    }
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Optimization (b) removes only duplicates: same reachability.
    #[test]
    fn dedup_preserves_reachability(prog in prog_strategy(24, true)) {
        let plain = template_of(&prog, OptConfig::none());
        let dedup = template_of(&prog, OptConfig::dedup_only());
        prop_assert_eq!(task_closure(&plain), task_closure(&dedup));
        prop_assert!(dedup.n_edges() <= plain.n_edges());
    }

    /// Optimization (c) re-routes through redirects: same reachability
    /// between application tasks.
    #[test]
    fn redirect_preserves_reachability(prog in prog_strategy(24, true)) {
        let plain = template_of(&prog, OptConfig::none());
        let redir = template_of(&prog, OptConfig::redirect_only());
        prop_assert_eq!(task_closure(&plain), task_closure(&redir));
    }

    /// Both together too.
    #[test]
    fn all_optimizations_preserve_reachability(prog in prog_strategy(24, true)) {
        let plain = template_of(&prog, OptConfig::none());
        let all = template_of(&prog, OptConfig::all());
        prop_assert_eq!(task_closure(&plain), task_closure(&all));
    }

    /// The template is always acyclic; without redirects it is even
    /// id-ordered.
    #[test]
    fn templates_are_acyclic(prog in prog_strategy(32, true)) {
        for opts in [OptConfig::none(), OptConfig::all()] {
            prop_assert!(template_of(&prog, opts).is_acyclic());
        }
        prop_assert!(template_of(&prog, OptConfig::dedup_only()).is_topologically_ordered());
    }

    /// Executing a random program (without inoutset) on the thread
    /// executor respects sequential read/write ordering exactly.
    #[test]
    fn execution_respects_sequential_semantics(
        prog in prog_strategy(30, false),
        workers in 1usize..4,
    ) {
        // Oracle: sequential write counts per handle before each task.
        let n = prog.tasks.len();
        let mut writes_before = vec![[0usize; N_HANDLES]; n];
        let mut wcount = [0usize; N_HANDLES];
        let mut deduped: Vec<Vec<(usize, u8)>> = Vec::with_capacity(n);
        for (t, deps) in prog.tasks.iter().enumerate() {
            let mut seen = Vec::new();
            let mut d = Vec::new();
            for &(h, m) in deps {
                if seen.contains(&h) {
                    continue;
                }
                seen.push(h);
                d.push((h, m));
                writes_before[t][h] = wcount[h];
            }
            for &(h, m) in &d {
                if m != 0 {
                    wcount[h] += 1;
                }
            }
            deduped.push(d);
        }

        let mut space = HandleSpace::new();
        let handles: Vec<_> = (0..N_HANDLES).map(|_| space.region("h", 64)).collect();
        let counters: Arc<Vec<AtomicUsize>> =
            Arc::new((0..N_HANDLES).map(|_| AtomicUsize::new(0)).collect());
        let violations = Arc::new(AtomicUsize::new(0));

        let exec = Executor::new(ExecConfig {
            n_workers: workers,
            policy: SchedPolicy::DepthFirst,
            throttle: ThrottleConfig::unbounded(),
            profile: false,
            record_events: false,
        });
        let mut session = exec.session(OptConfig::all());
        for (t, deps) in deduped.iter().enumerate() {
            let mut spec = TaskSpec::new("t");
            for &(h, m) in deps {
                spec = spec.depend(handles[h], mode_of(m));
            }
            let deps = deps.clone();
            let counters = counters.clone();
            let violations = violations.clone();
            let expected = writes_before[t];
            spec = spec.body(move |_| {
                // At body entry, the observed per-handle write count must
                // equal the sequential count (reads block later writers;
                // writers block everything later).
                for &(h, m) in &deps {
                    let seen = counters[h].load(Ordering::SeqCst);
                    if seen != expected[h] {
                        violations.fetch_add(1, Ordering::SeqCst);
                    }
                    let _ = m;
                }
                for &(h, m) in &deps {
                    if m != 0 {
                        counters[h].fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
            session.submit(spec);
        }
        session.wait_all();
        prop_assert_eq!(violations.load(Ordering::SeqCst), 0);
    }

    /// Edge accounting is consistent whatever the optimization set.
    #[test]
    fn edge_accounting_is_consistent(prog in prog_strategy(32, true)) {
        for opts in [OptConfig::none(), OptConfig::dedup_only(), OptConfig::all()] {
            let mut space = HandleSpace::new();
            let handles: Vec<_> = (0..N_HANDLES).map(|_| space.region("h", 64)).collect();
            let mut eng = DiscoveryEngine::new(opts);
            let mut rec = TemplateRecorder::new(false);
            for deps in &prog.tasks {
                let mut spec = TaskSpec::new("t");
                let mut seen = Vec::new();
                for &(h, m) in deps {
                    if seen.contains(&h) { continue; }
                    seen.push(h);
                    spec = spec.depend(handles[h], mode_of(m));
                }
                eng.submit(&mut rec, &spec);
            }
            let st = eng.stats();
            let t = rec.finish();
            prop_assert_eq!(st.edges_created, t.n_edges());
            prop_assert_eq!(st.edges_created + st.dup_skipped, st.edges_attempted());
            if !opts.dedup_edges {
                prop_assert_eq!(st.dup_probes, 0);
                prop_assert_eq!(st.dup_skipped, 0);
            }
            prop_assert_eq!(st.nodes() as usize, t.n_nodes());
        }
    }
}

/// Inoutset members all complete before any subsequent reader starts,
/// under randomized group sizes (non-proptest stress variant).
#[test]
fn inoutset_barrier_semantics_under_stress() {
    let mut space = HandleSpace::new();
    let h = space.region("x", 64);
    for trial in 0..20 {
        let exec = Executor::new(ExecConfig {
            n_workers: 4,
            policy: SchedPolicy::DepthFirst,
            throttle: ThrottleConfig::unbounded(),
            profile: false,
            record_events: false,
        });
        let m = 3 + (trial % 5);
        let done = Arc::new(AtomicUsize::new(0));
        let mut session = exec.session(if trial % 2 == 0 {
            OptConfig::all()
        } else {
            OptConfig::none()
        });
        for _ in 0..m {
            let done = done.clone();
            session.submit(
                TaskSpec::new("member")
                    .depend(h, AccessMode::InOutSet)
                    .body(move |_| {
                        std::thread::sleep(std::time::Duration::from_micros(50));
                        done.fetch_add(1, Ordering::SeqCst);
                    }),
            );
        }
        let done2 = done.clone();
        session.submit(
            TaskSpec::new("reader")
                .depend(h, AccessMode::In)
                .body(move |_| {
                    assert_eq!(done2.load(Ordering::SeqCst), m, "trial {trial}");
                }),
        );
        session.wait_all();
        assert_eq!(done.load(Ordering::SeqCst), m);
    }
}

//! The parallel execution plane: scoped worker dispatch for the per-bin
//! query tail.
//!
//! After the control-plane decision, the per-query work of a bin — sampled
//! feature re-extraction, `Query::process_batch`, noise application and
//! `Predictor::observe`, plus the uncharged shadow-twin measurements of
//! oracle-style policies — is embarrassingly parallel: every task touches
//! only its own query's state plus shared read-only data (the post-drop
//! [`BatchView`](netshed_trace::BatchView), the full-batch feature vector).
//! [`run_tasks_into`] fans those tasks out over a scoped pool of
//! `std::thread` workers and adds the dispatch's task count, summed worker
//! nanoseconds and wall time into the bin's [`BinTally`]; the monitor merges
//! the results back in registration order, so the output stream is
//! bit-identical whatever the worker count (see DESIGN.md, "Execution
//! plane").
//!
//! Everything order-sensitive — capture-buffer accounting, full-batch
//! feature extraction, predictions, the policy decision, the RNG-driven
//! construction of each query's shed view and the measurement-noise draws —
//! stays on the caller's thread; a task receives its inputs (including its
//! pre-drawn [`NoiseDraw`](netshed_queries::NoiseDraw)) fully determined.
//!
//! With `workers == 1` (the default) no thread is ever spawned: tasks run
//! inline on the caller's thread in task order, which *is* the historical
//! sequential path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Highest accepted worker count (a sanity cap, not a tuning hint).
pub const MAX_WORKERS: usize = 256;

/// One bin's dispatches, summed: what [`ExecStats::fold_bin`] folds when the
/// bin closes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BinTally {
    tasks: u64,
    task_ns: u64,
    wall_ns: u64,
}

/// Runs every task exactly once across `workers` scoped threads and adds the
/// dispatch to `tally`: its task count, the time the workers spent running
/// its tasks (summed over workers), and its wall time.
///
/// Tasks are pulled from a shared queue in order, so an expensive task never
/// serialises the cheap ones behind it. The call returns when all tasks have
/// completed. With `workers <= 1` (or fewer than two tasks) the tasks run
/// inline on the caller's thread — no thread is spawned, no synchronisation
/// is touched.
///
/// Determinism: the function imposes no ordering on *effects* because each
/// task may only touch state it exclusively owns (`&mut T`) plus `Sync`
/// shared inputs, so callers merging in task order observe the same stream
/// regardless of `workers`.
pub(crate) fn run_tasks_into<T, F>(workers: usize, tasks: &mut [T], run: F, tally: &mut BinTally)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let start = Instant::now();
    tally.tasks += tasks.len() as u64;
    let worker_count = workers.clamp(1, MAX_WORKERS).min(tasks.len());
    if worker_count <= 1 {
        tasks.iter_mut().for_each(run);
        let ns = start.elapsed().as_nanos() as u64;
        tally.task_ns += ns;
        tally.wall_ns += ns;
        return;
    }

    let queue = Mutex::new(tasks.iter_mut());
    let busy_ns = AtomicU64::new(0);
    let drain = || {
        let worker_start = Instant::now();
        loop {
            // Hold the queue lock only for the pop, never across a task.
            // lint:allow(no-unwrap): a poisoned queue means a worker panicked mid-task; propagating the panic is the only sound continuation
            let next = queue.lock().expect("task queue poisoned").next();
            let Some(task) = next else { break };
            run(task);
        }
        busy_ns.fetch_add(worker_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    };
    std::thread::scope(|scope| {
        // The caller participates, so a dispatch spawns only `workers - 1`
        // threads — at four workers that is three spawns, not four, and the
        // pool is never idle waiting for the calling thread.
        // `drain` captures only shared references, so it is `Copy` and each
        // spawn gets its own handle onto the same queue.
        for _ in 1..worker_count {
            scope.spawn(drain);
        }
        drain();
    });
    tally.task_ns += busy_ns.into_inner();
    tally.wall_ns += start.elapsed().as_nanos() as u64;
}

/// Cumulative execution-plane telemetry of a [`Monitor`](crate::Monitor) or
/// a [`ShardedMonitor`](crate::ShardedMonitor), all of it measured.
///
/// Every processed bin contributes its sequential nanoseconds (its wall time
/// outside dispatches, spent on the caller's thread) and its dispatched
/// tasks with their summed nanoseconds. Speedups at other worker counts are
/// measured by running at those counts, never projected from these sums.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecStats {
    /// Bins processed.
    pub bins: u64,
    /// Nanoseconds spent on the caller's thread outside dispatches
    /// (admission, decision, plan, merge, bin close).
    pub sequential_ns: u64,
    /// Nanoseconds workers spent running dispatched tasks, summed over
    /// workers.
    pub task_ns: u64,
    /// Tasks dispatched to the execution plane.
    pub dispatched_tasks: u64,
}

impl ExecStats {
    /// Folds one bin: its wall time and the sums of its dispatches.
    pub(crate) fn fold_bin(&mut self, bin_ns: u64, tally: BinTally) {
        self.bins += 1;
        self.sequential_ns += bin_ns.saturating_sub(tally.wall_ns);
        self.task_ns += tally.task_ns;
        self.dispatched_tasks += tally.tasks;
    }

    /// Fraction of the total per-bin time spent in dispatchable tasks — the
    /// Amdahl ceiling of the execution plane.
    pub fn parallel_fraction(&self) -> f64 {
        let total = self.sequential_ns + self.task_ns;
        if total == 0 {
            return 0.0;
        }
        self.task_ns as f64 / total as f64
    }
}

/// Parses the `NETSHED_THREADS` environment override: a worker count in
/// `[1, MAX_WORKERS]`. Unset, empty or out-of-domain values fall back to 1
/// (the sequential path) rather than failing construction, so an exported
/// stray value cannot break unrelated runs — but a *rejected* value is
/// reported once per process on stderr, so a typo'd export no longer
/// silently serialises a production run.
pub(crate) fn workers_from_env() -> usize {
    static DIAGNOSED: std::sync::Once = std::sync::Once::new();
    count_from_env("NETSHED_THREADS", &DIAGNOSED)
}

/// Parses the `NETSHED_SHARDS` environment override: a shard count in
/// `[1, MAX_WORKERS]`, with the same fallback and once-per-process
/// rejection diagnostic as [`workers_from_env`].
pub(crate) fn shards_from_env() -> usize {
    static DIAGNOSED: std::sync::Once = std::sync::Once::new();
    count_from_env("NETSHED_SHARDS", &DIAGNOSED)
}

/// Reads and parses one count-valued environment override, emitting the
/// rejection diagnostic (at most once per process per variable, gated by the
/// caller's `Once`).
fn count_from_env(var: &str, diagnosed: &'static std::sync::Once) -> usize {
    let raw = std::env::var(var).ok();
    let (count, rejected) = parse_count(raw.as_deref());
    if let Some(rejected) = rejected {
        diagnosed.call_once(|| {
            eprintln!(
                "netshed: ignoring invalid {var}={rejected:?} \
                 (expected an integer in 1..={MAX_WORKERS}); falling back to 1"
            );
        });
    }
    count
}

/// The pure parsing rule behind [`workers_from_env`] / [`shards_from_env`]:
/// the effective count, plus — when a present, non-empty value was rejected —
/// the offending raw string for the diagnostic. Unset and empty (after
/// trimming) values are the documented "disabled" spelling and are not
/// flagged.
fn parse_count(raw: Option<&str>) -> (usize, Option<String>) {
    let Some(raw) = raw else {
        return (1, None);
    };
    if raw.trim().is_empty() {
        return (1, None);
    }
    match raw.trim().parse::<usize>().ok().filter(|count| (1..=MAX_WORKERS).contains(count)) {
        Some(count) => (count, None),
        None => (1, Some(raw.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_tasks_runs_every_task_exactly_once_at_any_worker_count() {
        for workers in [1, 2, 4, 9] {
            let mut tasks: Vec<u32> = vec![0; 7];
            let mut tally = BinTally::default();
            run_tasks_into(workers, &mut tasks, |task| *task += 1, &mut tally);
            assert_eq!(tasks, vec![1; 7], "workers = {workers}");
            assert_eq!(tally.tasks, 7);
        }
    }

    #[test]
    fn run_tasks_handles_empty_and_single_task_sets() {
        let mut tally = BinTally::default();
        let mut none: Vec<u32> = Vec::new();
        run_tasks_into(4, &mut none, |_| unreachable!(), &mut tally);
        assert_eq!(tally.tasks, 0);
        let mut one = vec![10u32];
        run_tasks_into(4, &mut one, |task| *task *= 2, &mut tally);
        assert_eq!(one, vec![20]);
        assert_eq!(tally.tasks, 1);
    }

    #[test]
    fn parallel_workers_really_run_concurrently() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;
        // Two tasks that can only finish if two workers run them at once.
        let barrier = Barrier::new(2);
        let hits = AtomicUsize::new(0);
        let mut tasks = vec![(); 2];
        run_tasks_into(
            2,
            &mut tasks,
            |()| {
                barrier.wait();
                hits.fetch_add(1, Ordering::SeqCst);
            },
            &mut BinTally::default(),
        );
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn exec_stats_fold_measured_sums() {
        let mut stats = ExecStats::default();
        // A bin of 300 ns whose two dispatches took 120 ns of wall time for
        // 200 ns of task time (two workers), over four tasks.
        stats.fold_bin(300, BinTally { tasks: 4, task_ns: 200, wall_ns: 120 });
        assert_eq!(stats.bins, 1);
        assert_eq!(stats.sequential_ns, 180);
        assert_eq!(stats.task_ns, 200);
        assert_eq!(stats.dispatched_tasks, 4);
        assert!((stats.parallel_fraction() - 200.0 / 380.0).abs() < 1e-12);
        assert_eq!(ExecStats::default().parallel_fraction(), 0.0, "no bins yet");
    }

    #[test]
    fn env_override_accepts_counts_and_rejects_junk() {
        // Accepted values parse cleanly, with no diagnostic.
        assert_eq!(parse_count(None), (1, None), "unset falls back to sequential");
        assert_eq!(parse_count(Some("4")), (4, None));
        assert_eq!(parse_count(Some("  8 ")), (8, None), "surrounding whitespace is tolerated");
        assert_eq!(parse_count(Some(&MAX_WORKERS.to_string())), (MAX_WORKERS, None));
        // Empty (or blank) is the documented "disabled" spelling: fall back
        // silently, exactly like unset.
        assert_eq!(parse_count(Some("")), (1, None));
        assert_eq!(parse_count(Some("   ")), (1, None));
        // Junk falls back to 1 *and* surfaces the rejected value for the
        // once-per-process diagnostic.
        for junk in ["0", "-3", "1.5", "four", "many", &format!("{}", MAX_WORKERS + 1)] {
            assert_eq!(
                parse_count(Some(junk)),
                (1, Some(junk.to_string())),
                "junk value {junk:?} must fall back to 1 and be diagnosed"
            );
        }
        // The diagnostic echoes the raw value, not the trimmed one.
        assert_eq!(parse_count(Some(" zero ")), (1, Some(" zero ".to_string())));
    }
}

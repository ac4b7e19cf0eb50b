//! The work-stealing thread pool behind the scheduler, plus a scoped
//! helper for in-crate sharded fan-out (used by `faults::campaign`).
//!
//! Each worker owns a deque: it pushes/pops its own work at the front and
//! steals from the *back* of sibling deques when idle, so long shards
//! naturally spread across workers regardless of which job produced them.
//! The runner injects new shards round-robin. Workers are detached
//! threads: a worker stuck inside a hung shard can be *abandoned* by the
//! watchdog — its queue index is re-spawned with a fresh thread (bumping
//! the slot's epoch so the stuck thread retires itself if it ever
//! returns) and the run keeps going.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A unit of pool work. The argument is the executing worker's index, so
/// the runner can tell the watchdog which thread to abandon on timeout.
pub type Task = Box<dyn FnOnce(usize) + Send>;

struct Shared {
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Per-slot epoch; a worker exits once its spawn epoch goes stale
    /// (the watchdog re-spawned its slot after abandoning it).
    epochs: Vec<AtomicUsize>,
    shutdown: AtomicBool,
    idle: Mutex<()>,
    wake: Condvar,
}

/// The work-stealing pool.
pub struct Pool {
    shared: Arc<Shared>,
    next: AtomicUsize,
}

impl Pool {
    /// Spawns `threads` detached workers (at least one).
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            epochs: (0..threads).map(|_| AtomicUsize::new(0)).collect(),
            shutdown: AtomicBool::new(false),
            idle: Mutex::new(()),
            wake: Condvar::new(),
        });
        let pool = Pool { shared, next: AtomicUsize::new(0) };
        for w in 0..threads {
            pool.spawn_worker(w, 0);
        }
        pool
    }

    /// Number of worker slots.
    pub fn workers(&self) -> usize {
        self.shared.queues.len()
    }

    /// Enqueues a task (round-robin across worker deques).
    pub fn submit(&self, task: Task) {
        let w = self.next.fetch_add(1, Ordering::Relaxed) % self.shared.queues.len();
        self.shared.queues[w].lock().expect("queue poisoned").push_back(task);
        self.shared.wake.notify_all();
    }

    /// Replaces the worker in `slot` with a fresh thread. The previous
    /// occupant — presumed stuck inside an abandoned shard — sees the
    /// bumped epoch and exits instead of double-draining the queue if it
    /// ever comes back.
    pub fn respawn(&self, slot: usize) {
        let epoch = self.shared.epochs[slot].fetch_add(1, Ordering::SeqCst) + 1;
        self.spawn_worker(slot, epoch);
    }

    /// Asks workers to exit once the queues drain. Abandoned threads
    /// (still inside a hung shard) are leaked by design; they hold no
    /// locks and die with the process.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake.notify_all();
    }

    fn spawn_worker(&self, slot: usize, epoch: usize) {
        let shared = Arc::clone(&self.shared);
        std::thread::Builder::new()
            .name(format!("itr-harness-{slot}"))
            .spawn(move || worker_loop(&shared, slot, epoch))
            .expect("spawn pool worker");
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared, slot: usize, epoch: usize) {
    let n = shared.queues.len();
    loop {
        if shared.epochs[slot].load(Ordering::SeqCst) != epoch {
            return; // superseded by a respawn
        }
        // Own work first (front), then steal from siblings (back). The
        // own-queue guard must drop before stealing: holding it while
        // locking a sibling's queue deadlocks two workers stealing from
        // each other at once.
        let own = shared.queues[slot].lock().expect("queue poisoned").pop_front();
        let task = own.or_else(|| {
            (1..n).find_map(|d| {
                shared.queues[(slot + d) % n].lock().expect("queue poisoned").pop_back()
            })
        });
        match task {
            Some(task) => task(slot),
            None => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let guard = shared.idle.lock().expect("idle poisoned");
                // Re-check under the lock, then sleep briefly; the timeout
                // also bounds how long a stale-epoch worker lingers.
                let _unused = shared
                    .wake
                    .wait_timeout(guard, Duration::from_millis(25))
                    .expect("idle poisoned");
            }
        }
    }
}

/// Runs `tasks` across a scoped worker set and returns their outputs in
/// task order, independent of scheduling. Idle workers claim the next
/// unstarted task, so a slow shard never serializes the rest behind it.
/// `threads == 0` uses the available parallelism.
pub fn run_sharded<T, F>(threads: usize, tasks: Vec<F>) -> Vec<T>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    let threads = if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        threads
    };
    let n = tasks.len();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let tasks: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n).max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= n {
                    break;
                }
                let task = tasks[i].lock().expect("task slot poisoned").take().expect("claimed");
                *slots[i].lock().expect("result slot poisoned") = Some(task());
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("result slot poisoned").expect("task ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn pool_runs_every_task_across_workers() {
        let pool = Pool::new(4);
        let (tx, rx) = mpsc::channel();
        for i in 0..100u32 {
            let tx = tx.clone();
            pool.submit(Box::new(move |_w| tx.send(i).expect("send")));
        }
        drop(tx);
        let mut got: Vec<u32> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn idle_workers_steal_queued_work() {
        // One worker slot gets all tasks (round-robin over 1 deque when
        // submitted before others wake), but with 4 workers every task
        // still completes promptly because siblings steal.
        let pool = Pool::new(4);
        let (tx, rx) = mpsc::channel();
        let workers_seen = Arc::new(Mutex::new(std::collections::HashSet::new()));
        for _ in 0..64 {
            let tx = tx.clone();
            let seen = Arc::clone(&workers_seen);
            pool.submit(Box::new(move |w| {
                std::thread::sleep(Duration::from_millis(2));
                seen.lock().expect("seen").insert(w);
                tx.send(()).expect("send");
            }));
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 64);
        // With 64 × 2ms tasks and 4 workers, more than one worker must
        // have participated (stealing or round-robin injection).
        assert!(workers_seen.lock().expect("seen").len() > 1);
    }

    #[test]
    fn respawn_replaces_a_stuck_worker() {
        let pool = Pool::new(2);
        let (tx, rx) = mpsc::channel();
        let blocked = Arc::new(AtomicBool::new(false));
        let b = Arc::clone(&blocked);
        // Stick worker: spins until released, telling us its slot.
        let (slot_tx, slot_rx) = mpsc::channel();
        pool.submit(Box::new(move |w| {
            slot_tx.send(w).expect("send slot");
            while !b.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }));
        let stuck_slot = slot_rx.recv().expect("stuck task started");
        pool.respawn(stuck_slot);
        // New work lands on the respawned slot's queue and still runs.
        for i in 0..8u32 {
            let tx = tx.clone();
            pool.submit(Box::new(move |_| tx.send(i).expect("send")));
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 8);
        blocked.store(true, Ordering::SeqCst); // release the leaked thread
    }

    #[test]
    fn run_sharded_returns_outputs_in_task_order() {
        let tasks: Vec<_> = (0..17u64)
            .map(|i| {
                move || {
                    // Uneven durations exercise the claim loop.
                    std::thread::sleep(Duration::from_millis((17 - i) % 5));
                    i * i
                }
            })
            .collect();
        let out = run_sharded(4, tasks);
        assert_eq!(out, (0..17u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn run_sharded_handles_more_threads_than_tasks() {
        let out = run_sharded(16, vec![|| 1u32, || 2]);
        assert_eq!(out, vec![1, 2]);
        let empty: Vec<u32> = run_sharded(4, Vec::<fn() -> u32>::new());
        assert!(empty.is_empty());
    }
}

//! The thread pool behind the scheduler: the one pool every experiment
//! shard, fault-range campaign shards included, runs on.
//!
//! Workers take tasks from one shared FIFO queue in submission order; the
//! runner is the only submitter, so there is nothing to balance beyond
//! that queue. Workers are detached threads: a worker stuck inside a hung
//! shard can be *abandoned* by the watchdog — its slot is re-spawned with
//! a fresh thread (bumping the slot's epoch so the stuck thread retires
//! itself if it ever returns) and the run keeps going.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A unit of pool work. The argument is the executing worker's index, so
/// the runner can tell the watchdog which thread to abandon on timeout.
pub type Task = Box<dyn FnOnce(usize) + Send>;

/// The shared queue and whether the pool is shutting down.
#[derive(Default)]
struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signalled when a task is queued or the pool shuts down.
    wake: Condvar,
    /// Per-slot epoch; a worker exits once its spawn epoch goes stale
    /// (the watchdog re-spawned its slot after abandoning it).
    epochs: Vec<AtomicUsize>,
}

/// The worker pool.
pub struct Pool {
    shared: Arc<Shared>,
}

impl Pool {
    /// Spawns `threads` detached workers (at least one).
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            wake: Condvar::new(),
            epochs: (0..threads).map(|_| AtomicUsize::new(0)).collect(),
        });
        let pool = Pool { shared };
        for w in 0..threads {
            pool.spawn_worker(w, 0);
        }
        pool
    }

    /// Number of worker slots.
    pub fn workers(&self) -> usize {
        self.shared.epochs.len()
    }

    /// Enqueues a task at the back of the shared queue.
    pub fn submit(&self, task: Task) {
        self.shared.queue.lock().expect("queue poisoned").tasks.push_back(task);
        self.shared.wake.notify_one();
    }

    /// Replaces the worker in `slot` with a fresh thread. The previous
    /// occupant — presumed stuck inside an abandoned shard — sees the
    /// bumped epoch and exits instead of taking more work if it ever
    /// comes back.
    pub fn respawn(&self, slot: usize) {
        let epoch = self.shared.epochs[slot].fetch_add(1, Ordering::SeqCst) + 1;
        self.spawn_worker(slot, epoch);
    }

    /// Asks workers to exit once the queue drains. Abandoned threads
    /// (still inside a hung shard) are leaked by design; they hold no
    /// locks and die with the process.
    pub fn shutdown(&self) {
        self.shared.queue.lock().expect("queue poisoned").shutdown = true;
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
    let mut queue = shared.queue.lock().expect("queue poisoned");
    loop {
        if shared.epochs[slot].load(Ordering::SeqCst) != epoch {
            // Superseded by a respawn: hand on any wakeup this worker
            // took, so a queued task still finds a worker.
            shared.wake.notify_one();
            return;
        }
        if let Some(task) = queue.tasks.pop_front() {
            drop(queue);
            task(slot);
            queue = shared.queue.lock().expect("queue poisoned");
        } else if queue.shutdown {
            return;
        } else {
            queue = shared.wake.wait(queue).expect("queue poisoned");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::time::Duration;

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
    fn idle_workers_share_queued_work() {
        // Every task goes into the one queue, and every idle worker takes
        // from it.
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
        // have participated.
        assert!(workers_seen.lock().expect("seen").len() > 1);
    }

    #[test]
    fn respawn_replaces_a_stuck_worker() {
        // One slot: once its worker is stuck, only the respawned one can
        // run new work.
        let pool = Pool::new(1);
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
        for i in 0..8u32 {
            let tx = tx.clone();
            pool.submit(Box::new(move |w| tx.send((i, w)).expect("send")));
        }
        drop(tx);
        let ran: Vec<(u32, usize)> = rx.iter().collect();
        assert_eq!(ran.len(), 8);
        assert!(ran.iter().all(|&(_, w)| w == stuck_slot), "the respawned slot runs new work");
        blocked.store(true, Ordering::SeqCst); // release the leaked thread
    }
}

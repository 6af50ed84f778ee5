//! Data parallelism on one process-wide worker team.
//!
//! The kernels need one shape of parallelism — disjoint `&mut` chunks of
//! every field of an output vector, each chunk the same whole x-lines of
//! every field — so it is implemented directly on `std` instead of a
//! work-stealing runtime. What the paper's kernels take for granted from
//! `#pragma omp parallel for schedule(static)` is a thread team that
//! outlives one parallel region, and that is what this is:
//! `available_parallelism() − 1` named workers (`sgdia-par-N`), created by
//! the first threaded call and parked on a condvar between calls. A call
//! posts one job; the caller runs chunk 0 itself and every participant
//! takes chunks in a static stride, so [`Par::Threads`]`(n)` with `n`
//! larger than the team still covers every chunk, and the bits equal
//! [`Par::Seq`]'s. A call allocates nothing.
//!
//! A caller that finds the team busy — another `ServePool` worker, or a
//! kernel called from inside a chunk — runs its call sequentially on its
//! own thread: no queue, no deadlock. A panic in a worker's chunk is caught
//! there and raised again on the caller once every participant is done;
//! the team survives it.
//!
//! Waking a parked worker costs a few microseconds on the 2-vCPU
//! development host (the `vcycle` bench prints the µs per empty job), the
//! time of a bandwidth-bound kernel on a few thousand cells, so products
//! over fewer than [`MIN_CELLS`] cells run on the caller alone
//! (`sgdia.par_coarse_ratio` in the benchmark's trace). The caller, its
//! own chunks done, watches for its workers for up to [`SPIN`] before it
//! parks too, which saves the second wake-up of a job.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Kernel execution policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Par {
    /// Single-threaded.
    #[default]
    Seq,
    /// Split a kernel into `n` chunks run by the caller and the process's
    /// worker team; `Threads(0)` means one chunk per available hardware
    /// core.
    Threads(usize),
}

impl Par {
    /// Number of chunks this policy splits a kernel into (≥ 1).
    pub fn threads(self) -> usize {
        match self {
            Par::Seq => 1,
            Par::Threads(0) => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            Par::Threads(n) => n,
        }
    }
}

/// Cells below which a product runs on the caller alone, whatever the
/// policy. From the wake-up cost the `vcycle` bench prints: an empty job
/// whose worker was parked costs 4–8 µs on the development host, so two
/// chunks pay once a kernel takes twice that alone — ≈ 3.5 k cells for a
/// 19-point FP16 `spmv` (≈ 3.8 ns per cell), ≈ 9–11 k for the half-matrix
/// `residual_upper` (1.2–1.6 ns), the cheapest threaded kernel. Weather
/// 64³'s `par/` rows: 2048 cells 2–3× slower threaded, 16 384 cells and up
/// faster.
pub(crate) const MIN_CELLS: usize = 8192;

/// How long a caller whose own chunks are done watches for its workers to
/// finish before it parks.
const SPIN: Duration = Duration::from_micros(20);

/// Splits every `field_len`-element field of `data` into the same
/// successive `chunk_len`-element chunks and runs `f(chunk_index, field,
/// chunk)` over them, each chunk index on one participant of the team
/// working through the fields in order. Sequential on the caller when a
/// single chunk covers a field.
///
/// # Panics
/// Panics when `data` is not a whole number of fields, and re-raises a
/// panic of `f`.
pub(crate) fn for_each_field_chunk_mut<T: Send, F>(
    data: &mut [T],
    field_len: usize,
    chunk_len: usize,
    f: F,
) where
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    let chunks = field_len.div_ceil(chunk_len.max(1));
    if chunks <= 1 {
        for (field, chunk) in data.chunks_mut(field_len.max(1)).enumerate() {
            f(0, field, chunk);
        }
        return;
    }
    assert_eq!(data.len() % field_len, 0, "data is a whole number of fields");
    let fields = data.len() / field_len;
    let base = SendPtr(data.as_mut_ptr());
    let chunk = |p: usize| {
        let start = p * chunk_len;
        let len = chunk_len.min(field_len - start);
        for field in 0..fields {
            // SAFETY: chunk `p` of field `field` is `data[field · field_len
            // + start ..][..len]`, inside `data` (`start + len ≤ field_len`)
            // and disjoint from every other (chunk, field) pair; each chunk
            // index is run exactly once, and `data` stays mutably borrowed
            // until `run` returns, after every participant has finished.
            let window = unsafe {
                std::slice::from_raw_parts_mut(base.get().add(field * field_len + start), len)
            };
            f(p, field, window);
        }
    };
    match Team::global() {
        Some(team) => team.run(chunks, &chunk),
        None => (0..chunks).for_each(chunk),
    }
}

/// A raw pointer the chunks of one job share; [`for_each_field_chunk_mut`]
/// hands each participant disjoint windows of it.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// The pointer (a method, so a closure captures the `Sync` wrapper and
    /// not the bare field).
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: the pointee is `T: Send` and every participant writes a disjoint
// window (see `for_each_field_chunk_mut`).
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// One parallel region: `chunks` calls of `f`, participant `i` making the
/// calls `i, i + stride, i + 2·stride, …`.
#[derive(Clone, Copy)]
struct Job {
    /// The caller's closure with its lifetime erased (see [`Team::run`]).
    f: *const (dyn Fn(usize) + Sync + 'static),
    chunks: usize,
    stride: usize,
}

// SAFETY: `f` is `Sync`, and [`Team::run`] keeps it alive until every
// participant that received it is done.
unsafe impl Send for Job {}

impl Job {
    fn run(self, participant: usize) {
        // SAFETY: see `unsafe impl Send for Job`.
        let f = unsafe { &*self.f };
        (participant..self.chunks).step_by(self.stride).for_each(f);
    }
}

/// What the caller and the workers share, under the team's mutex.
struct State {
    /// Bumped once per posted job: how a parked worker tells a new job from
    /// a spurious wake-up.
    epoch: u64,
    job: Option<Job>,
    /// Workers `1..=helpers` take part in the current job.
    helpers: usize,
    /// The first panic a worker caught in the current job.
    panic: Option<Box<dyn Any + Send>>,
}

/// The process's worker team.
struct Team {
    /// Workers that were spawned (set once, before the team is shared).
    workers: AtomicUsize,
    /// Held by the one caller whose job the team is running.
    claimed: AtomicBool,
    /// Workers of the current job that have not finished it: an atomic, so
    /// the caller can watch it without the lock before it parks.
    pending: AtomicUsize,
    state: Mutex<State>,
    /// Workers park here for the next epoch.
    posted: Condvar,
    /// The caller parks here for `pending == 0`.
    finished: Condvar,
}

impl Team {
    /// The team, spawned on first use; `None` on a one-core host or when no
    /// worker could be spawned.
    fn global() -> Option<&'static Team> {
        #[cfg(test)]
        if let Some(team) = OWN_TEAM.with(std::cell::Cell::get) {
            return Some(team);
        }
        static TEAM: OnceLock<Option<&'static Team>> = OnceLock::new();
        *TEAM.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            Team::spawn(cores - 1)
        })
    }

    /// A team of (at most) `workers` parked threads, leaked: it lives as
    /// long as the process, and its workers are never joined — their loop
    /// does not return, and a panic in a chunk is caught inside it. `None`
    /// when not one could be spawned.
    fn spawn(workers: usize) -> Option<&'static Team> {
        let team: &'static Team = Box::leak(Box::new(Team {
            workers: AtomicUsize::new(0),
            claimed: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            state: Mutex::new(State { epoch: 0, job: None, helpers: 0, panic: None }),
            posted: Condvar::new(),
            finished: Condvar::new(),
        }));
        let spawned = (1..=workers)
            .take_while(|&i| {
                let name = format!("sgdia-par-{i}");
                std::thread::Builder::new().name(name).spawn(move || team.work(i)).is_ok()
            })
            .count();
        // No job has been posted yet, so the count can follow the spawns.
        team.workers.store(spawned, Ordering::Relaxed);
        (spawned > 0).then_some(team)
    }

    /// The shared state. Nothing panics while holding the lock and every
    /// update leaves `State` whole, so a poisoned lock's data is still good.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f(0)`, …, `f(chunks − 1)`, the caller making calls `0, stride,
    /// …` and worker `i` calls `i, i + stride, …`, where `stride` is one
    /// more than the workers taking part (at most `chunks − 1`). Runs every
    /// call on the caller when another job holds the team. Re-raises the
    /// first panic of a worker's call after every participant has finished.
    fn run(&self, chunks: usize, f: &(dyn Fn(usize) + Sync)) {
        let helpers = self.workers.load(Ordering::Relaxed).min(chunks.saturating_sub(1));
        // Acquire pairs with the Release in `Join::drop`: the last job was
        // retired before this one is posted.
        if helpers == 0 || self.claimed.swap(true, Ordering::Acquire) {
            (0..chunks).for_each(f);
            return;
        }
        let join = Join(self);
        // SAFETY: erasing the closure's lifetime is sound because it does not
        // escape this call: `join` waits — in its `Drop`, so also when the
        // caller's own chunk panics — until every worker that received the
        // job has finished it, and clears the job before the team is
        // released to the next caller. No worker touches `f` after `pending`
        // reached zero.
        let f: *const (dyn Fn(usize) + Sync + 'static) = unsafe { std::mem::transmute(f) };
        let job = Job { f, chunks, stride: helpers + 1 };
        {
            let mut s = self.lock();
            s.epoch += 1;
            s.job = Some(job);
            s.helpers = helpers;
            // Workers read it only after taking the job under this lock.
            self.pending.store(helpers, Ordering::Relaxed);
        }
        self.posted.notify_all();
        job.run(0);
        let panicked = join.wait();
        drop(join);
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
    }

    /// Worker `index`'s loop: park until a job it takes part in is posted,
    /// run its chunks, report.
    fn work(&self, index: usize) {
        let mut seen = 0;
        loop {
            let job = {
                let mut s = self.lock();
                while s.epoch == seen {
                    s = self.posted.wait(s).unwrap_or_else(PoisonError::into_inner);
                }
                seen = s.epoch;
                match s.job {
                    Some(job) if index <= s.helpers => job,
                    _ => continue,
                }
            };
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| job.run(index))) {
                self.lock().panic.get_or_insert(payload);
            }
            // Release pairs with the caller's Acquire loads in `Join::wait`:
            // what the chunks wrote is visible once it reads zero.
            if self.pending.fetch_sub(1, Ordering::Release) == 1 {
                // Under the lock, so the caller is either still to look at
                // `pending` or already parked.
                let _s = self.lock();
                self.finished.notify_one();
            }
        }
    }
}

/// The caller's side of a posted job: waits for its workers, and releases
/// the team, also when dropped during the unwinding of the caller's chunk.
struct Join<'a>(&'a Team);

impl Join<'_> {
    /// Blocks until every worker of the job has finished, retires the job
    /// and returns the first panic one of them caught.
    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let Team { pending, finished, .. } = self.0;
        // The workers usually finish within a wake-up of the caller: watch
        // for that long before paying a second one to park.
        let t0 = Instant::now();
        while pending.load(Ordering::Acquire) > 0 && t0.elapsed() < SPIN {
            std::hint::spin_loop();
        }
        let mut s = self.0.lock();
        while pending.load(Ordering::Acquire) > 0 {
            s = finished.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        s.job = None;
        s.panic.take()
    }
}

impl Drop for Join<'_> {
    fn drop(&mut self) {
        drop(self.wait());
        self.0.claimed.store(false, Ordering::Release);
    }
}

#[cfg(test)]
thread_local! {
    /// A team the calling thread's kernels use instead of the process's.
    static OWN_TEAM: std::cell::Cell<Option<&'static Team>> = const { std::cell::Cell::new(None) };
}

/// Runs `f` with the calling thread's kernels on a fresh team of one
/// worker that nothing else shares, whatever the host's core count.
#[cfg(test)]
pub(crate) fn on_one_worker_team<R>(f: impl FnOnce() -> R) -> R {
    let team = Team::spawn(1).expect("one worker thread");
    OWN_TEAM.with(|t| t.set(Some(team)));
    let out = f();
    OWN_TEAM.with(|t| t.set(None));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A team of one worker that no other test shares.
    fn one_worker() -> &'static Team {
        Team::spawn(1).expect("one worker thread")
    }

    /// Runs a job of `chunks` on `team`, `f(p)` in each, and counts the
    /// calls per chunk.
    fn calls_per_chunk(team: &Team, chunks: usize, f: impl Fn(usize) + Sync) -> Vec<usize> {
        let calls: Vec<AtomicUsize> = (0..chunks).map(|_| AtomicUsize::new(0)).collect();
        team.run(chunks, &|p| {
            calls[p].fetch_add(1, Ordering::Relaxed);
            f(p);
        });
        calls.into_iter().map(AtomicUsize::into_inner).collect()
    }

    #[test]
    fn a_panic_in_a_worker_chunk_is_raised_on_the_caller_and_the_team_survives() {
        let team = one_worker();
        // One worker, two chunks: the caller runs chunk 0, the worker chunk 1.
        let caught = panic::catch_unwind(|| team.run(2, &|p| assert_eq!(p, 0, "chunk {p}")));
        let payload = caught.expect_err("the worker's panic reaches the caller");
        let message = payload.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
        assert!(message.contains("chunk 1"), "{message:?}");
        assert!(!team.claimed.load(Ordering::Relaxed), "the team was released");

        // The caller's own chunk panics: it still waits for its worker. The
        // assertion holds in every interleaving; the worker finishing well
        // after the caller's chunk began to unwind is the one it tests.
        let (unwinding, finished) = (AtomicBool::new(false), AtomicBool::new(false));
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            team.run(2, &|p| {
                if p == 0 {
                    unwinding.store(true, Ordering::Relaxed);
                    panic!("chunk 0");
                }
                while !unwinding.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
                std::thread::sleep(Duration::from_millis(20));
                finished.store(true, Ordering::Relaxed);
            })
        }));
        assert!(caught.is_err());
        assert!(finished.load(Ordering::Relaxed), "the caller returned before its worker");

        assert_eq!(calls_per_chunk(team, 2, |_| {}), [1, 1], "the next job runs");
    }

    #[test]
    fn more_chunks_than_participants_run_each_chunk_once() {
        let team = one_worker();
        for chunks in [2, 3, 4, 7] {
            assert_eq!(calls_per_chunk(team, chunks, |_| {}), vec![1; chunks], "{chunks}");
        }
        // A call made from inside a chunk finds the team busy and runs on
        // its own thread.
        let inner = calls_per_chunk(team, 2, |_| {
            assert_eq!(calls_per_chunk(team, 3, |_| {}), [1, 1, 1]);
        });
        assert_eq!(inner, [1, 1]);
    }
}

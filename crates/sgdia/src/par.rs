//! Minimal scoped-thread data parallelism.
//!
//! The kernels only ever need two shapes of parallelism — disjoint `&mut`
//! chunks of every field of an output vector, and a read-only sweep over a plane of
//! independent cells — so both are implemented directly on
//! `std::thread::scope` instead of pulling in a work-stealing runtime.
//! Threads are spawned per call, and that is not free: a spawn-and-join
//! costs tens of microseconds, the same order as a whole bandwidth-bound
//! kernel on a few hundred thousand cells, so coarse levels run no faster
//! threaded than sequential (`sgdia.par_coarse_ratio` ≈ 1 in the
//! benchmark's trace). On the 2-vCPU development host the finest SpMV
//! (1.3 ms sequential) is 1.8× faster on two threads at its fastest call
//! and anywhere from 1.0× to 1.5× at the median, because a freshly
//! spawned thread is often scheduled late there (`sgdia.par_spmv_eff` ≈
//! 0.5; threads that stay up for hundreds of milliseconds get the full
//! 2×). A persistent worker team is ROADMAP item 1(b); until then
//! sub-millisecond kernels such as the grid transfers stay sequential.

/// Kernel execution policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Par {
    /// Single-threaded.
    #[default]
    Seq,
    /// Parallelize across `n` OS threads; `Threads(0)` means one thread
    /// per available hardware core.
    Threads(usize),
}

impl Par {
    /// Number of worker threads this policy resolves to (≥ 1).
    pub fn threads(self) -> usize {
        match self {
            Par::Seq => 1,
            Par::Threads(0) => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            Par::Threads(n) => n,
        }
    }
}

/// Splits every `field_len`-element field of `data` into the same
/// successive `chunk_len`-element chunks and runs `f(chunk_index, field,
/// chunk)` over them, one scoped thread per chunk index (the caller sizes
/// `chunk_len` to the intended thread count) working through the fields
/// in order. Sequential when a single chunk covers a field.
pub(crate) fn for_each_field_chunk_mut<T: Send, F>(
    data: &mut [T],
    field_len: usize,
    chunk_len: usize,
    f: F,
) where
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    if chunk_len >= field_len {
        for (field, chunk) in data.chunks_mut(field_len).enumerate() {
            f(0, field, chunk);
        }
        return;
    }
    let mut fields: Vec<_> = data.chunks_mut(field_len).map(|d| d.chunks_mut(chunk_len)).collect();
    std::thread::scope(|scope| {
        for p in 0..field_len.div_ceil(chunk_len) {
            let windows: Vec<&mut [T]> = fields.iter_mut().filter_map(Iterator::next).collect();
            let f = &f;
            scope.spawn(move || {
                for (field, chunk) in windows.into_iter().enumerate() {
                    f(p, field, chunk);
                }
            });
        }
    });
}

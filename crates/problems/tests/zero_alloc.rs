//! Counting-allocator proof of the memory-resilience contract's
//! steady-state clause: after setup, a V-cycle-preconditioned CG or
//! GMRES iteration performs **zero** heap allocations.
//!
//! The whole test binary runs under a `#[global_allocator]` wrapper
//! that counts every `alloc`/`realloc`/`alloc_zeroed` *of the calling
//! thread*, so a `Par::Seq` case sees exactly its own allocations however
//! many sibling tests the runner has in flight, and — in one shared
//! counter — every allocation made on a thread of `sgdia::par`'s worker
//! team (`sgdia-par-N`), which a `Par::Threads` case adds to its own; the
//! threaded cases take turns ([`team_turn`]) so that counter is theirs.
//! The Krylov solver runs once before it is measured, which warms the
//! thread's pool of work vectors. A [`SolveControl`] hook samples the
//! counter at the top of every iteration; after a short warmup (first
//! iterations may touch lazily-grown scratch) the delta between
//! consecutive iterations must be exactly zero. The paper's real-world
//! problems (oil, rhd, weather, and the vector PDE rhd-3T) are all checked
//! — their hierarchies differ in depth, stencil, component count and
//! storage split, so a regression in any level's arena shows up here —
//! and weather, laplace27 and rhd-3T again under `Par::Threads(2)` at a
//! size whose finest level is split between the caller and the team.
//!
//! The same wrapper counts the calling thread's allocations *of at least
//! a set size*, which is how the set-up's clause is held: on the default
//! path `Mg::setup` never makes a transient FP64 copy of a level.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use fp16mg_core::{MatOp, Mg, MgConfig, Retained};
use fp16mg_krylov::{
    cg_ctl, gmres, gmres_ctl, LinOp, NoControl, Preconditioner, SolveControl, SolveOptions,
    SolveResult, StopReason,
};
use fp16mg_problems::{Problem, ProblemKind, SolverKind};
use fp16mg_sgdia::kernels::Par;
use fp16mg_sgdia::SgDia;

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor outlives the thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

thread_local! {
    // Allocations of at least `BIG_FROM` bytes (none while it is MAX).
    static BIG_FROM: Cell<usize> = const { Cell::new(usize::MAX) };
    static BIG_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made on the threads of `sgdia::par`'s worker team.
static TEAM_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Whether the calling thread is one of `sgdia::par`'s workers, read from
/// the kernel's name for it: `std::thread::current()` must not be called
/// from an allocator on a thread std has not finished starting.
fn on_team_thread() -> bool {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: i32, ...) -> i32;
        }
        const PR_GET_NAME: i32 = 16;
        let mut name = [0u8; 16];
        // SAFETY: PR_GET_NAME writes at most 16 bytes, NUL included.
        unsafe { prctl(PR_GET_NAME, name.as_mut_ptr()) == 0 && name.starts_with(b"sgdia-par-") }
    }
    #[cfg(not(target_os = "linux"))]
    false
}

fn count_one(bytes: usize) {
    if on_team_thread() {
        TEAM_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
    // `try_with`: a thread tearing down its locals may still free and
    // allocate; those calls are nobody's steady state.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    if BIG_FROM.try_with(Cell::get).is_ok_and(|from| bytes >= from) {
        let _ = BIG_ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn alloc_count() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations a case running under `par` is answerable for: its own
/// thread's, and under threads also the worker team's.
fn allocs_under(par: Par) -> u64 {
    let team = if par == Par::Seq { 0 } else { TEAM_ALLOCS.load(Ordering::Relaxed) };
    alloc_count() + team
}

/// Held by a `Par::Threads` case for its whole run, so the team's
/// allocations during it are its own (a `Par::Seq` case never posts a job
/// to the team).
fn team_turn(par: Par) -> Option<MutexGuard<'static, ()>> {
    static TURN: Mutex<()> = Mutex::new(());
    (par != Par::Seq).then(|| TURN.lock().unwrap_or_else(PoisonError::into_inner))
}

/// Grid size of the threaded cases: every kind's finest level has more
/// cells than `sgdia::par::MIN_CELLS` (8192), so the team takes half of
/// each finest-level product.
const THREADED_N: usize = 26;

/// The problem a case runs: `n` = 10 sequentially, [`THREADED_N`] under
/// threads.
fn build(kind: ProblemKind, par: Par) -> Problem {
    let p = kind.build(if par == Par::Seq { 10 } else { THREADED_N });
    assert!(par == Par::Seq || p.matrix.grid().cells() > 8192, "{}: too small to split", p.name);
    p
}

/// One Krylov solve of `solver`.
#[allow(clippy::too_many_arguments)]
fn solve(
    solver: SolverKind,
    op: &MatOp<'_, f64>,
    mg: &mut Mg<f32>,
    b: &[f64],
    x: &mut [f64],
    opts: &SolveOptions,
    ctl: &mut impl SolveControl,
) -> SolveResult {
    match solver {
        SolverKind::Cg => cg_ctl(op, mg, b, x, opts, ctl),
        SolverKind::Gmres => gmres_ctl(op, mg, b, x, opts, ctl),
    }
}

/// Allocations of at least `bytes` the calling thread makes inside `f`.
fn big_allocs_in<T>(bytes: usize, f: impl FnOnce() -> T) -> (T, u64) {
    let before = BIG_ALLOCS.with(Cell::get);
    BIG_FROM.with(|from| from.set(bytes));
    let out = f();
    BIG_FROM.with(|from| from.set(usize::MAX));
    (out, BIG_ALLOCS.with(Cell::get) - before)
}

/// Iterations treated as warmup before the zero-allocation clause is
/// enforced (the first preconditioner application may fault in lazily
/// sized state; by the third iteration everything must be steady).
const WARMUP_ITERS: usize = 3;
const MEASURED_ITERS: usize = 7;

/// CG needs an SPD operator, and the oil problem's matrix is upwind-skewed
/// (Table 3 pairs it with GMRES; even its symmetric part is indefinite
/// where the coefficient field drops downstream). This symmetrizes
/// (`(A + Aᵀ)/2`) and then floors the diagonal to strict row dominance —
/// keeping the stencil, SOA layout, coefficient distribution, and
/// hierarchy depth, which is everything the allocation contract depends
/// on — so the CG leg runs its full length. Weather stays fully
/// nonsymmetric below and covers that code path.
fn spd_variant(a: &SgDia<f64>) -> SgDia<f64> {
    let at = a.transpose();
    let mut out = a.clone();
    let taps: Vec<_> = a.pattern().taps().to_vec();
    for (t, tap) in taps.iter().enumerate() {
        let tt = at.pattern().tap_index(*tap).expect("tap present in transposed pattern");
        for cell in 0..a.grid().cells() {
            out.set(cell, t, (a.get(cell, t) + at.get(cell, tt)) * 0.5);
        }
    }
    let dt = a.pattern().diagonal_indices()[0];
    for cell in 0..a.grid().cells() {
        let off: f64 = (0..taps.len()).filter(|&t| t != dt).map(|t| out.get(cell, t).abs()).sum();
        if out.get(cell, dt) <= off {
            out.set(cell, dt, off + 1.0e-2);
        }
    }
    out
}

/// GMRES restart length for the gate: short enough that the measured
/// iterations span two restarts, so reuse of the bases across restarts
/// is covered too.
const GMRES_RESTART: usize = 4;

/// Runs `solver` (CG or GMRES) on `kind` with the paper's D16 hierarchy
/// under `par`, once to warm up and once measured, and asserts every
/// post-warmup iteration of the second solve allocates nothing.
fn assert_zero_alloc_iterations(kind: ProblemKind, solver: SolverKind, par: Par) {
    let _turn = team_turn(par);
    let p = build(kind, par);
    let matrix = if kind == ProblemKind::Oil { spd_variant(&p.matrix) } else { p.matrix.clone() };
    let mut mg = Mg::<f32>::setup(&matrix, &MgConfig { par, ..MgConfig::d16() }).expect(p.name);
    let op = MatOp::new(&matrix, par);
    let b = p.rhs();
    let mut x = vec![0.0f64; p.matrix.rows()];
    // tol 0 and health off: the solve must run to max_iters so every
    // sampled iteration is a full V-cycle + CG step, regardless of how
    // fast the problem converges.
    let opts = SolveOptions {
        tol: 0.0,
        max_iters: WARMUP_ITERS + MEASURED_ITERS,
        restart: GMRES_RESTART,
        health: fp16mg_krylov::HealthPolicy::disabled(),
        record_history: false,
    };

    // The control samples the allocation counter at the top of every
    // iteration; the samples vector is preallocated so the sampling
    // itself cannot allocate.
    let mut samples: Vec<u64> = Vec::with_capacity(opts.max_iters + 1);
    assert!(alloc_count() > 0, "set-up allocated on this thread, so the counter must have moved");
    solve(solver, &op, &mut mg, &b, &mut x, &opts, &mut NoControl);
    if par != Par::Seq && std::thread::available_parallelism().is_ok_and(|n| n.get() > 1) {
        let team = TEAM_ALLOCS.load(Ordering::Relaxed);
        assert!(team > 0, "the workers' first chunks grew their pools, so the counter moved");
    }
    x.fill(0.0);
    let mut ctl = |_it: usize| {
        samples.push(allocs_under(par));
        Ok(())
    };
    let result = solve(solver, &op, &mut mg, &b, &mut x, &opts, &mut ctl);
    assert_eq!(
        result.reason,
        StopReason::MaxIters,
        "{}: expected a full-length run, got {:?} after {} iters (breakdown: {:?})",
        p.name,
        result.reason,
        result.iters,
        result.breakdown
    );
    assert!(
        samples.len() >= WARMUP_ITERS + MEASURED_ITERS,
        "{}: only {} iterations sampled",
        p.name,
        samples.len()
    );
    for w in samples.windows(2).enumerate().skip(WARMUP_ITERS) {
        let (i, pair) = w;
        let delta = pair[1] - pair[0];
        assert_eq!(
            delta,
            0,
            "{}: iteration {} under {par:?} performed {delta} heap allocation(s); the \
             steady-state V-cycle + {solver:?} contract is allocation-free",
            p.name,
            i + 1
        );
    }
}

#[test]
fn oil_steady_state_is_allocation_free() {
    assert_zero_alloc_iterations(ProblemKind::Oil, SolverKind::Cg, Par::Seq);
}

#[test]
fn rhd_steady_state_is_allocation_free() {
    assert_zero_alloc_iterations(ProblemKind::Rhd, SolverKind::Cg, Par::Seq);
}

#[test]
fn weather_steady_state_is_allocation_free() {
    assert_zero_alloc_iterations(ProblemKind::Weather, SolverKind::Cg, Par::Seq);
    assert_zero_alloc_iterations(ProblemKind::Weather, SolverKind::Cg, Par::Threads(2));
}

/// A vector PDE: three fields through the block line kernel, whose rented
/// rows are `r + r²` lines long, and the per-field transfers.
#[test]
fn rhd3t_steady_state_is_allocation_free() {
    assert_zero_alloc_iterations(ProblemKind::Rhd3T, SolverKind::Cg, Par::Seq);
    assert_zero_alloc_iterations(ProblemKind::Rhd3T, SolverKind::Cg, Par::Threads(2));
}

/// Weather under its own solver: the GMRES inner iterations (Arnoldi
/// step, Gram–Schmidt, next basis vector) and the restarts between them.
#[test]
fn weather_gmres_steady_state_is_allocation_free() {
    assert_zero_alloc_iterations(ProblemKind::Weather, SolverKind::Gmres, Par::Seq);
    assert_zero_alloc_iterations(ProblemKind::Weather, SolverKind::Gmres, Par::Threads(2));
}

/// The bare V-cycle (one preconditioner application, outside any Krylov
/// loop) is also allocation-free after the first application — on a
/// scalar problem and on a vector PDE, sequentially and with the team.
#[test]
fn bare_vcycle_is_allocation_free() {
    for par in [Par::Seq, Par::Threads(2)] {
        let _turn = team_turn(par);
        for kind in [ProblemKind::Laplace27, ProblemKind::Rhd3T] {
            let p = build(kind, par);
            let b = p.rhs();
            let mut z = vec![0.0f64; p.matrix.rows()];
            let cfg = MgConfig { min_coarse_cells: 8, par, ..MgConfig::d16() };
            let mut mg = Mg::<f32>::setup(&p.matrix, &cfg).expect(p.name);
            assert!(mg.num_levels() >= 3, "the cycle must recurse");
            mg.apply(&b, &mut z); // warmup application
            let before = allocs_under(par);
            for _ in 0..5 {
                mg.apply(&b, &mut z);
            }
            let delta = allocs_under(par) - before;
            assert_eq!(
                delta, 0,
                "{}: 5 warm V-cycles under {par:?} performed {delta} heap allocation(s)",
                p.name
            );
        }
    }
}

/// The Krylov operator allocates nothing once the thread's kernel pools
/// are warm: not in the product that judges a fresh `MatOp`'s matrix, not
/// in the products after it — a symmetric operator read by half (scalar
/// and three components) and a nonsymmetric one read whole.
#[test]
fn matop_apply_is_allocation_free_in_both_verdicts() {
    for (kind, half) in
        [(ProblemKind::Laplace27, true), (ProblemKind::Rhd3T, true), (ProblemKind::Weather, false)]
    {
        let p = kind.build(10);
        let x = p.rhs();
        let mut y = vec![0.0f64; x.len()];
        // Another instance warms the pools: the same tap lists and rows.
        let warm = MatOp::new(&p.matrix, Par::Seq);
        warm.apply(&x, &mut y);
        warm.apply(&x, &mut y);

        let op = MatOp::new(&p.matrix, Par::Seq);
        let before = alloc_count();
        op.apply(&x, &mut y);
        let judged = alloc_count();
        for _ in 0..5 {
            op.apply(&x, &mut y);
        }
        let steady = alloc_count();
        assert_eq!(op.reads_half(), Some(half), "{}", p.name);
        assert_eq!(judged - before, 0, "{}: the judging product allocated", p.name);
        assert_eq!(steady - judged, 0, "{}: products after the verdict allocated", p.name);
    }
}

/// A warm solve from the all-zero guess enters its first iteration —
/// `r₀ = b` without a product, the first preconditioner application —
/// with the allocations of one from any other guess: none for CG, the
/// Hessenberg vectors for GMRES.
#[test]
fn zero_guess_entry_is_allocation_free() {
    for (kind, solver) in
        [(ProblemKind::Laplace27, SolverKind::Cg), (ProblemKind::Weather, SolverKind::Gmres)]
    {
        let p = kind.build(10);
        let mut mg = Mg::<f32>::setup(&p.matrix, &MgConfig::d16()).expect(p.name);
        let op = MatOp::new(&p.matrix, Par::Seq);
        let b = p.rhs();
        let opts = SolveOptions {
            max_iters: 3,
            tol: 0.0,
            restart: GMRES_RESTART,
            health: fp16mg_krylov::HealthPolicy::disabled(),
            record_history: false,
        };
        // The first solve warms the Krylov and kernel pools and the
        // operator's verdict.
        let entries = [1.0, 0.0, 1.0e-3, 0.0].map(|guess| {
            let mut x = vec![guess; b.len()];
            let mut first_check = None;
            let mut ctl = |_it: usize| {
                first_check.get_or_insert_with(alloc_count);
                Ok(())
            };
            let before = alloc_count();
            solve(solver, &op, &mut mg, &b, &mut x, &opts, &mut ctl);
            first_check.expect("the solve reached an iteration") - before
        });
        let [_, cold, warm_guess, cold_again] = entries;
        assert_eq!(cold, warm_guess, "{}: entry from zero vs from a guess", p.name);
        assert_eq!(cold, cold_again, "{}: entry from zero, repeated", p.name);
        if solver == SolverKind::Cg {
            assert_eq!(cold, 0, "{}: CG's entry from zero allocated", p.name);
        }
    }
}

/// The Krylov work vectors come from the thread's pool: a first `gmres`
/// on a thread allocates its 2·restart + 2 vectors in one piece, a second
/// one of the same shape allocates no vector at all — nothing as large as
/// one `n`-long vector of f64, only the Hessenberg columns and the result.
#[test]
fn a_second_gmres_on_a_thread_allocates_no_vector() {
    std::thread::spawn(|| {
        // 2048 cells: one vector (16 KB) outweighs the 31 × 30 Hessenberg.
        let p = ProblemKind::Weather.build(16);
        let op = MatOp::new(&p.matrix, Par::Seq);
        let b = p.rhs();
        let opts = SolveOptions { tol: 1e-9, restart: 30, ..SolveOptions::default() };
        let vector = b.len() * std::mem::size_of::<f64>();
        let [first, second] = [(); 2].map(|_| {
            let mut mg = Mg::<f32>::setup(&p.matrix, &MgConfig::d16()).expect(p.name);
            let mut x = vec![0.0f64; b.len()];
            let (res, big) = big_allocs_in(vector, || gmres(&op, &mut mg, &b, &mut x, &opts));
            assert!(res.converged(), "{res:?}");
            big
        });
        assert_eq!(first, 1, "the first solve rents a fresh buffer for all its vectors");
        assert_eq!(second, 0, "the second solve allocated {second} vector(s)");
    })
    .join()
    .expect("the solves ran");
}

/// A level is stored in one read of its FP64 operator (two when it must be
/// scaled) and no copy of it, FP64 or FP32: on the default path
/// (Gauss–Seidel smoother, the configuration the time-stepping simulator
/// runs too) `Mg::setup` makes no allocation as large as half the finest
/// level's FP64 planes — an FP32 copy of the caller's operator, which level
/// 0 no longer keeps — whether the problem is out of FP16 range (weather)
/// or in it (laplace27). The largest thing it does allocate is the FP16
/// planes (a quarter). Nor does a hierarchy assembled from a retained
/// chain (`Retained::hierarchy`), as built and after a drifted finest
/// operator is adopted — the simulator's keep and rescale steps. The chain
/// itself keeps a copy of the finest operator, which shows the counter
/// counts.
#[test]
fn default_setup_makes_no_full_size_fp64_copy_of_a_level() {
    let cfg = MgConfig::d16();
    for (kind, scaled) in [(ProblemKind::Weather, true), (ProblemKind::Laplace27, false)] {
        let p = kind.build(16);
        let half = p.matrix.value_bytes() / 2;
        let (mg, big) = big_allocs_in(half, || Mg::<f32>::setup(&p.matrix, &cfg));
        let mg = mg.expect(p.name);
        assert_eq!(mg.info().levels[0].scaled, scaled, "{}: level 0 scaled", p.name);
        assert_eq!(big, 0, "{}: set-up made {big} allocation(s) of >= {half} bytes", p.name);

        let audit = Retained::audit(&p.matrix);
        let (retained, big) = big_allocs_in(half, || Retained::build(&p.matrix, audit, &cfg));
        let mut retained = retained.expect(p.name);
        assert_eq!(big, 1, "{}: the chain's copy of the finest operator", p.name);
        let mut drifted = p.matrix.clone();
        drifted.data_mut().iter_mut().for_each(|v| *v *= 1.5);
        for adopt in [false, true] {
            if adopt {
                let audit = Retained::audit(&drifted);
                retained.adopt_finest(&drifted, audit, &cfg).expect(p.name);
            }
            let (mg, big) = big_allocs_in(half, || retained.hierarchy::<f32>(&cfg));
            mg.expect(p.name);
            assert_eq!(big, 0, "{} adopted {adopt}: {big} allocation(s) of >= {half} B", p.name);
        }
    }
}

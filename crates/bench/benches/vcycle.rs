//! Benches for a single V-cycle application per storage precision — the
//! preconditioner-only speedup (the orange bars of Fig. 8, isolated from
//! iteration-count effects), plus the setup-then-scale setup-phase
//! overhead (the blue bars), the two reads a level's store costs against
//! the triad rate, the matrix-free vector kernels a cycle and
//! the Krylov loop around it are made of, the matrix kernels (sweep,
//! SpMV, residual and their half-matrix forms) of its finest level side
//! by side, one whole application on each repo-benchmark shape, and the
//! Krylov operator's FP64 product read whole and by half, back to back and
//! between cycles.

use fp16mg_bench::{Combo, Group};
use fp16mg_core::{galerkin_rap, prolong_add, restrict, GalerkinChain, MatOp, Mg, MgConfig};
use fp16mg_fp::{Precision, F16};
use fp16mg_grid::Grid3;
use fp16mg_krylov::{axpy, dot, LinOp, Preconditioner};
use fp16mg_problems::ProblemKind;
use fp16mg_sgdia::audit::{audit, store_level, store_level_in_range, TruncationPolicy};
use fp16mg_sgdia::kernels::{self, BlockDiagInv, Par};
use fp16mg_sgdia::model::half_read_planes;
use fp16mg_sgdia::scaling::{scale_symmetric, GChoice, ScalePlan};
use fp16mg_sgdia::{Layout, SgDia};

/// Grid transfers (f32, the V-cycle's precision) and Krylov BLAS-1 (f64)
/// at n = 48, with GB/s computed from the array sizes each call must
/// move. These are bandwidth-bound: a row far below the host's stream
/// rate (~1 GB/s or less) means a kernel stopped vectorising.
fn bench_vector_kernels() {
    let fine = Grid3::cube(48);
    let coarse = fine.coarsen();
    let (nf, nc) = (fine.unknowns(), coarse.unknowns());
    let mut uf: Vec<f32> = (0..nf).map(|i| ((i % 101) as f32) * 0.01 - 0.4).collect();
    let mut uc = vec![0.0f32; nc];
    let transfers = |bytes: usize| Group::new("transfer/n48-f32").throughput_bytes(bytes as u64);
    transfers(4 * (nf + nc)).bench("restrict", || restrict(&fine, &coarse, &uf, &mut uc));
    // Scaled down so thousands of accumulating calls stay finite.
    uc.iter_mut().for_each(|v| *v *= 1e-9);
    transfers(4 * (nc + 2 * nf)).bench("prolong_add", || prolong_add(&fine, &coarse, &uc, &mut uf));

    let x: Vec<f64> = (0..nf).map(|i| ((i % 89) as f64) * 0.01 - 0.4).collect();
    let mut y = vec![0.0f64; nf];
    let blas1 = |bytes: usize| Group::new("blas1/n48-f64").throughput_bytes(bytes as u64);
    blas1(8 * 3 * nf).bench("axpy", || axpy(1e-9, &x, &mut y));
    blas1(8 * 2 * nf).bench("dot", || {
        std::hint::black_box(dot(&x, &y));
    });
}

/// The two set-up kernels, per level of the laplace27 n = 48 chain, with
/// GB/s from the bytes each must move: the Galerkin product reads the
/// level and writes the coarse operator (⅛; its ½ and ¼ intermediates
/// are slab-sized scratch). Both stream; a row below ~1 GB/s means one
/// fell back to per-entry scatter or soft-float work. First the product
/// on the `stream27` finest level (laplace27 72³), beside a `triad` over
/// as many bytes: the rate a loop that only moved them would reach.
fn bench_setup_kernels() {
    let a = ProblemKind::Laplace27.build(72).matrix;
    let bytes = a.value_bytes() as u64;
    let g = Group::new("setup-kernel/laplace27-n72/L0").throughput_bytes(bytes + bytes / 8);
    let third = (a.stored_entries() + a.stored_entries() / 8) / 3;
    let (b, c, mut out) = (vec![1.5f64; third], vec![0.25f64; third], vec![0.0f64; third]);
    g.bench("triad", || {
        for ((o, &b), &c) in out.iter_mut().zip(&b).zip(&c) {
            *o = b + 3.0 * c;
        }
        std::hint::black_box(&mut out);
    });
    g.bench("rap", || {
        std::hint::black_box(galerkin_rap(&a));
    });
    drop(a);

    let p = ProblemKind::Laplace27.build(48);
    let chain = GalerkinChain::build(&p.matrix, &MgConfig::d16()).expect("chain");
    let levels = chain.matrices();
    for (l, a) in levels.iter().enumerate().take(levels.len() - 1) {
        let bytes = a.value_bytes() as u64;
        let g = Group::new(format!("setup-kernel/laplace27-n48/L{l}"));
        g.throughput_bytes(bytes + bytes / 8).bench("rap", || {
            std::hint::black_box(galerkin_rap(a));
        });
        // Audit + truncate + sentinels in one sweep: reads f64, writes f16.
        let g = Group::new(format!("setup-kernel/laplace27-n48/L{l}"));
        g.throughput_bytes(bytes + bytes / 4).bench("store-pass", || {
            std::hint::black_box(store_level::<F16>(
                a,
                None,
                Some(TruncationPolicy::Saturate),
                true,
                false,
            ))
            .expect("saturate stores everything");
        });
    }
}

/// What storing a level costs, as `Mg::setup` does it (FP16 planes and
/// sentinels; level 0 keeps no FP32 source, the caller's operator insures
/// it): laplace27 72³ is in range and stored in one read with the range
/// test inside the sweep (`store`); weather 64³ and the first two levels
/// of rhd-3T 24³ (the `block3t` shape, where half of level 1's blocks hold
/// an entry that is not plain) are not, and take two — `G_max` (`plan`),
/// then the fused scale + truncate + audit + sentinel sweep (`store
/// scaled`; set-up reads the diagonal first and skips the range test).
/// GB/s from the bytes each must move (8 read per entry, 2 written),
/// beside a `triad` (`a = b + s·c` over f64 arrays of the level's size, 24
/// bytes per element) run the same way: what this host would give a loop
/// that only moved the bytes (ROADMAP item 11 asks set-up for no more than
/// Full64's). Also weather's unscaled `audit` (about 12 % of its entries
/// saturate FP16), the pass a time step's `Retained::audit` pays, and the
/// smoother's `block-inverse` of each rhd-3T level and of rhd-3T 48³'s
/// finest (read from the unscaled zero-offset planes, scaled on the way;
/// GB/s over 8 B read and 4 written per block entry).
fn bench_store_pass() {
    let laplace = ProblemKind::Laplace27.build(72).matrix.to_layout(Layout::Soa);
    store_rows("store-pass/laplace27-n72", &laplace, false);
    drop(laplace);
    let weather = ProblemKind::Weather.build(64).matrix.to_layout(Layout::Soa);
    store_rows("store-pass/weather-n64", &weather, false);
    let bytes = weather.value_bytes() as u64;
    Group::new("store-pass/weather-n64").throughput_bytes(bytes).bench("audit", || {
        std::hint::black_box(audit(&weather, Precision::F16));
    });
    drop(weather);
    let rhd = ProblemKind::Rhd3T.build(24).matrix;
    let chain = GalerkinChain::build(&rhd, &MgConfig::d16()).expect("chain");
    for (l, a) in chain.matrices().iter().enumerate().take(2) {
        store_rows(&format!("store-pass/rhd-3T-n24/L{l}"), &a.to_layout(Layout::Soa), true);
    }
    let rhd = ProblemKind::Rhd3T.build(48).matrix.to_layout(Layout::Soa);
    block_inverse_row("store-pass/rhd-3T-n48/L0", &rhd, &scale_plan(&rhd));
}

fn scale_plan(a: &SgDia<f64>) -> ScalePlan {
    ScalePlan::decide(a, GChoice::Auto, F16::MAX_F64).expect("positive diagonal")
}

/// [`bench_store_pass`]'s rows for one level.
fn store_rows(name: &str, a: &SgDia<f64>, block_inverse: bool) {
    let (entries, bytes) = (a.stored_entries(), a.value_bytes() as u64);
    let group = |moved: u64| Group::new(name).throughput_bytes(moved);
    let (b, c) = (vec![1.5f64; entries / 3], vec![0.25f64; entries / 3]);
    let mut out = vec![0.0f64; entries / 3];
    group(bytes).bench("triad", || {
        for ((o, &b), &c) in out.iter_mut().zip(&b).zip(&c) {
            *o = b + 3.0 * c;
        }
        std::hint::black_box(&mut out);
    });
    let policy = Some(TruncationPolicy::Saturate);
    if a.abs_max().0 < F16::MAX_F64 {
        group(bytes + bytes / 4).bench("store", || {
            let stored = store_level_in_range::<F16>(a, policy, true, false);
            std::hint::black_box(stored).expect("saturate stores everything").expect("in range");
        });
        return;
    }
    group(bytes).bench("plan", || {
        std::hint::black_box(scale_plan(a));
    });
    let plan = scale_plan(a);
    group(bytes + bytes / 4).bench("store scaled", || {
        let stored = store_level::<F16>(a, Some(plan.s_inv()), policy, true, false);
        std::hint::black_box(stored).expect("saturate stores everything");
    });
    if block_inverse {
        block_inverse_row(name, a, &plan);
    }
}

/// The smoother's inverted diagonal blocks of `a` as `plan` scales it.
fn block_inverse_row(name: &str, a: &SgDia<f64>, plan: &ScalePlan) {
    let r = a.grid().components;
    let block_entries = (a.grid().cells() * r * r) as u64;
    Group::new(name).throughput_bytes(block_entries * 12).bench("block-inverse", || {
        let dinv = BlockDiagInv::<f32>::from_scaled(a, Some(plan.s_inv()));
        std::hint::black_box(dinv).expect("regular diagonal blocks");
    });
}

/// The matrix kernels of a V-cycle on one operator, in one table: a
/// Gauss–Seidel sweep streams the same planes as an SpMV, so the `gs-*`
/// rows should sit within a small factor of the `spmv` row, and the two
/// half-matrix kernels of the zero-guess cycle (`gs-fwd-zero`,
/// `residual-upper`) at about half of their full twins. GB/s from the
/// matrix planes each call actually reads plus the vectors it must move,
/// Melem/s from the in-grid nonzeros of those planes (1000 Melem/s is one
/// nonzero per nanosecond).
fn sweep_rows<S: fp16mg_fp::Storage, P: fp16mg_fp::Scalar>(name: String, a: &SgDia<S>) {
    let n = a.rows();
    let dinv = BlockDiagInv::<P>::from_matrix(a).expect("regular diagonal");
    let b: Vec<P> = (0..n).map(|i| P::from_f64(((i % 101) as f64) * 0.01 - 0.4)).collect();
    let mut x = vec![P::ZERO; n];
    let mut y = vec![P::ZERO; n];
    let taps = a.pattern().taps();
    let plane = a.value_bytes() / taps.len();
    let lower = taps.iter().filter(|t| t.spatial_sign() < 0).count();
    let upper = taps.iter().filter(|t| t.spatial_sign() > 0).count();
    let group = |planes: usize, vectors: usize| {
        Group::new(name.as_str())
            .throughput_bytes((planes * plane + vectors * n * P::BYTES) as u64)
            .throughput_elements((a.nnz() * planes / taps.len()) as u64)
    };
    group(taps.len(), 3).bench("gs-forward", || kernels::gs_forward(a, &dinv, &b, &mut x));
    group(taps.len(), 3).bench("gs-backward", || kernels::gs_backward(a, &dinv, &b, &mut x));
    group(lower, 3).bench("gs-fwd-zero", || kernels::gs_forward_from_zero(a, &dinv, &b, &mut x));
    group(taps.len(), 2).bench("spmv", || kernels::spmv(a, &x, &mut y, Par::Seq));
    group(taps.len(), 3).bench("residual", || kernels::residual(a, &b, &x, &mut y, Par::Seq));
    group(upper, 2).bench("residual-upper", || kernels::residual_upper(a, &x, &mut y, Par::Seq));
}

/// Finest level of laplace27 n = 48 and every level of the rhd-3T n = 24
/// chain (three components, the repo benchmark's `block3t` shape) in the
/// two storage precisions the repo benchmark compares (FP16 planes with
/// f32 vectors, Full64): scalar and vector PDEs run the same line kernel,
/// so their rows should show the same nonzeros per nanosecond.
fn bench_sweep_kernels() {
    let a64 = ProblemKind::Laplace27.build(48).matrix.to_layout(Layout::Soa);
    sweep_rows::<F16, f32>("sweep/laplace27-n48/f16".into(), &a64.convert::<F16>());
    sweep_rows::<f64, f64>("sweep/laplace27-n48/f64".into(), &a64);

    let p = ProblemKind::Rhd3T.build(24);
    let chain = GalerkinChain::build(&p.matrix, &MgConfig::d16()).expect("chain");
    let levels = chain.matrices();
    for (l, a) in levels.iter().enumerate().take(levels.len() - 1) {
        // The planes as the hierarchy stores them: scaled into FP16 range.
        let mut scaled = a.to_layout(Layout::Soa);
        scale_symmetric::<f32>(&mut scaled, GChoice::Auto, F16::MAX_F64)
            .expect("positive diagonal");
        sweep_rows::<F16, f32>(format!("sweep/rhd-3T-n24/L{l}-f16"), &scaled.convert::<F16>());
        sweep_rows::<f64, f64>(format!("sweep/rhd-3T-n24/L{l}-f64"), &scaled);
    }
}

/// `sgdia::par` itself, compiled into this bench: the crate keeps its team
/// private, and a second team of the same code in this process costs what
/// the first one does.
#[path = "../../sgdia/src/par.rs"]
#[allow(dead_code)]
mod team;

/// What a threaded kernel call costs beyond its work, and where it pays:
/// one empty job through the worker team (two chunks that do nothing — the
/// wake-up, hand-off and join `sgdia::par::MIN_CELLS` is set from), then
/// `spmv` and `residual-upper` on every smoothed level of weather 64³ as
/// the hierarchy stores it (scaled FP16 planes, f32 vectors) under `Seq`
/// and `Threads(2)`. A level below `MIN_CELLS` runs on the caller either
/// way, so its two rows must agree; above it the `Threads(2)` row must not
/// be the slower one.
fn bench_par() {
    let mut flags = [0u8; 2];
    let mut empty_job = || team::for_each_field_chunk_mut(&mut flags, 2, 1, |_, _, _| {});
    let g = Group::new("par/team");
    g.bench("empty job", &mut empty_job);
    // As a V-cycle meets it: the worker long parked while the caller swept
    // a level alone (a 2 MB dot, a few hundred µs).
    let work: Vec<f64> = (0..1 << 18).map(|i| i as f64).collect();
    let alone = || {
        std::hint::black_box(dot(&work, &work));
    };
    g.bench_between("empty job, parked", alone, &mut empty_job);
    let p = ProblemKind::Weather.build(64);
    let chain = GalerkinChain::build(&p.matrix, &MgConfig::d16()).expect("chain");
    let levels = chain.matrices();
    for (l, a) in levels.iter().enumerate().take(levels.len() - 1) {
        let mut scaled = a.to_layout(Layout::Soa);
        scale_symmetric::<f32>(&mut scaled, GChoice::Auto, F16::MAX_F64)
            .expect("positive diagonal");
        let a16 = scaled.convert::<F16>();
        let n = a16.rows();
        let x: Vec<f32> = (0..n).map(|i| ((i % 101) as f32) * 0.01 - 0.4).collect();
        let mut y = vec![0.0f32; n];
        let g = Group::new(format!("par/weather-n64/L{l}-{}cells", a16.grid().cells()));
        for (label, par) in [("seq", Par::Seq), ("threads(2)", Par::Threads(2))] {
            g.bench(format!("spmv {label}"), || kernels::spmv(&a16, &x, &mut y, par));
            g.bench(format!("residual-upper {label}"), || {
                kernels::residual_upper(&a16, &x, &mut y, par)
            });
        }
    }
}

fn bench_vcycle() {
    for kind in [ProblemKind::Laplace27, ProblemKind::Rhd, ProblemKind::Oil, ProblemKind::Weather] {
        let n = 24;
        let p = kind.build(n);
        let rn = p.matrix.rows();
        let r: Vec<f32> = (0..rn).map(|i| ((i % 101) as f32) * 0.01 - 0.4).collect();
        let mut e = vec![0.0f32; rn];
        let g = Group::new(format!("vcycle/{}", kind.name()));
        for combo in [Combo::D32, Combo::D16SetupScale, Combo::Bf16] {
            let mut mg = match Mg::<f32>::setup(&p.matrix, &combo.mg_config()) {
                Ok(m) => m,
                Err(_) => continue,
            };
            g.bench(combo.label(), || mg.apply(&r, &mut e));
        }
    }
}

/// One warm `Mg::apply` (Mix16: FP16 storage, f32 cycle) on each shape
/// the repo benchmark solves — the layer its `core.vcycle_apply_s` times —
/// and weather's again under the `Threads(2)` `weather-par` runs.
fn bench_apply() {
    let shapes =
        [(ProblemKind::Laplace27, 72), (ProblemKind::Weather, 64), (ProblemKind::Rhd3T, 24)];
    for (kind, n) in shapes {
        let p = kind.build(n);
        let rn = p.matrix.rows();
        let r: Vec<f32> = (0..rn).map(|i| ((i % 101) as f32) * 0.01 - 0.4).collect();
        let mut e = vec![0.0f32; rn];
        let g = Group::new(format!("apply/{}-n{n}", kind.name()));
        let mut mg = Mg::<f32>::setup(&p.matrix, &MgConfig::d16()).expect("benchmark shape");
        g.bench("Mg::apply d16", || mg.apply(&r, &mut e));
        if kind == ProblemKind::Weather {
            // `weather-par`'s cycle: must not be the slower of the two.
            let cfg = MgConfig { par: Par::Threads(2), ..MgConfig::d16() };
            let mut mg = Mg::<f32>::setup(&p.matrix, &cfg).expect("benchmark shape");
            g.bench("Mg::apply d16 threads(2)", || mg.apply(&r, &mut e));
        }
    }
}

/// The Krylov operator's product on the two symmetric repo-benchmark
/// shapes: `kernels::spmv` (`full`, every plane) against a judged
/// `MatOp` (`half`, the planes on and below the diagonal), GB/s over the
/// planes each reads plus the two vectors. `between cycles` times the same
/// calls after one V-cycle application each, which is where a Krylov solve
/// makes them. On a host whose last-level cache holds the matrix (the
/// 260 MB one this was written on) both pairs read `half` ≈ 0.7 × `full`
/// on laplace27 — fewer bytes, the same 27 FMAs per cell; where the matrix
/// comes from memory the bytes decide and it is nearer 0.55. Equal `full`
/// and `half` rows mean the verdict went the wrong way.
fn bench_matop() {
    for (kind, n) in [(ProblemKind::Laplace27, 72), (ProblemKind::Rhd3T, 24)] {
        let p = kind.build(n);
        let a = &p.matrix;
        let x: Vec<f64> = (0..a.rows()).map(|i| ((i % 89) as f64) * 0.01 - 0.4).collect();
        let mut y = vec![0.0f64; a.rows()];
        let op = MatOp::new(a, Par::Seq);
        op.apply(&x, &mut y);
        let plane = a.value_bytes() / a.pattern().len();
        let group = |planes: usize| {
            Group::new(format!("matop/{}-n{n}", kind.name()))
                .throughput_bytes((planes * plane + 2 * 8 * a.rows()) as u64)
        };
        let (full, half) = (group(a.pattern().len()), group(half_read_planes(a.pattern())));
        full.bench("matop f64 full", || kernels::spmv(a, &x, &mut y, Par::Seq));
        half.bench("matop f64 half", || op.apply(&x, &mut y));

        let r: Vec<f32> = x.iter().map(|&v| v as f32).collect();
        let mut e = vec![0.0f32; a.rows()];
        let mut mg = Mg::<f32>::setup(a, &MgConfig::d16()).expect("benchmark shape");
        full.bench_between(
            "full, between cycles",
            || mg.apply(&r, &mut e),
            || kernels::spmv(a, &x, &mut y, Par::Seq),
        );
        half.bench_between(
            "half, between cycles",
            || mg.apply(&r, &mut e),
            || op.apply(&x, &mut y),
        );
    }
}

fn bench_setup() {
    // Setup-phase cost of the two scaling strategies vs no scaling, on an
    // out-of-range problem (laplace27*1e8): setup-then-scale must add only
    // limited overhead (Fig. 8's blue bars).
    let p = ProblemKind::Laplace27E8.build(16);
    let g = Group::new("setup/laplace27e8");
    for combo in [Combo::Full64, Combo::D16SetupScale, Combo::D16ScaleSetup] {
        g.bench(combo.label(), || {
            if combo.p64() {
                let _ = Mg::<f64>::setup(&p.matrix, &combo.mg_config()).unwrap();
            } else {
                let _ = Mg::<f32>::setup(&p.matrix, &combo.mg_config()).unwrap();
            }
        });
    }
}

fn main() {
    bench_par();
    bench_vector_kernels();
    bench_sweep_kernels();
    bench_apply();
    bench_matop();
    bench_setup_kernels();
    bench_store_pass();
    bench_vcycle();
    bench_setup();
}

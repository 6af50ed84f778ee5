//! Fig. 7 kernel measurement harness.
//!
//! Measures SpMV and SpTRSV in the paper's four implementation variants:
//!
//! * `MG-fp32/fp32` — the best full-FP32 kernel (baseline; speedup 1.0);
//! * `MG-fp16/fp32 (naive)` — FP16 storage in AOS layout, one convert per
//!   entry (the variant the paper shows *losing* to the baseline);
//! * `MG-fp16/fp32 (opt)` — FP16 in SOA layout with SIMD bulk conversion;
//! * `CSR` — a compressed-sparse-row kernel standing in for the vendor
//!   library bars (ARMPL/MKL);
//!
//! plus the analytic `Max-fp16/fp32` memory-volume bound. SpMV runs on
//! the full 3d7/3d19/3d27 patterns; SpTRSV on their lower-triangular
//! 3d4/3d10/3d14 parts, exactly as in the figure.

use std::time::Instant;

use fp16mg_fp::{Precision, F16};
use fp16mg_grid::Grid3;
use fp16mg_sgdia::kernels::{self, Par};
use fp16mg_sgdia::{model, Csr, Layout, SgDia};
use fp16mg_stencil::Pattern;

/// Which kernel is measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelKind {
    /// Sparse matrix–vector product.
    Spmv,
    /// Sparse lower-triangular solve.
    Sptrsv,
}

/// Implementation variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// `MG-fp32/fp32`: FP32 SOA (SIMD where available).
    Fp32Baseline,
    /// `MG-fp16/fp32 (naive)`: FP16 AOS, scalar per-entry conversion.
    F16Naive,
    /// `MG-fp16/fp32 (opt)`: FP16 SOA, one SIMD convert per vector of cells.
    F16Opt,
    /// CSR FP32 (vendor-library stand-in).
    Csr,
}

impl Variant {
    /// Paper legend label.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Fp32Baseline => "MG-fp32/fp32",
            Variant::F16Naive => "MG-fp16/fp32(naive)",
            Variant::F16Opt => "MG-fp16/fp32(opt)",
            Variant::Csr => "CSR(vendor)",
        }
    }

    /// All timed variants.
    pub fn all() -> [Variant; 4] {
        [Variant::Fp32Baseline, Variant::F16Naive, Variant::F16Opt, Variant::Csr]
    }
}

/// One output row: geometric-mean seconds per application over the size
/// sweep, and the speedup over the FP32 baseline.
#[derive(Clone, Debug)]
pub struct KernelRow {
    /// SpMV or SpTRSV.
    pub kernel: KernelKind,
    /// Pattern name as benchmarked ("3d7" … for SpMV, "3d4" … for
    /// SpTRSV).
    pub pattern: String,
    /// Implementation variant.
    pub variant: Variant,
    /// Geometric mean of seconds per kernel application.
    pub seconds: f64,
    /// Speedup over [`Variant::Fp32Baseline`] on the same pattern.
    pub speedup: f64,
}

/// Deterministic diagonally dominant test matrix for kernel timing.
pub fn test_matrix(pattern: &Pattern, n: usize, seed: u64) -> SgDia<f64> {
    let grid = Grid3::cube(n);
    let mut state = seed | 1;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        0.1 + 0.9 * ((state >> 11) as f64 / (1u64 << 53) as f64)
    };
    let taps: Vec<_> = pattern.taps().to_vec();
    let ntaps = taps.len() as f64;
    SgDia::from_fn(grid, pattern.clone(), Layout::Soa, |_, _, _, _, t| {
        if taps[t].is_diagonal() {
            ntaps + 0.5
        } else {
            -rng()
        }
    })
}

/// Extracts the lower-triangular (incl. diagonal) matrix of `full`.
pub fn lower_matrix(full: &SgDia<f64>) -> SgDia<f64> {
    let lp = full.pattern().lower_with_diag();
    let mut l = SgDia::<f64>::zeros(*full.grid(), lp.clone(), full.layout());
    for cell in 0..full.grid().cells() {
        for (t, tap) in lp.taps().iter().enumerate() {
            let ft = full.pattern().tap_index(*tap).expect("lower tap in full pattern");
            l.set(cell, t, full.get(cell, ft));
        }
    }
    l
}

/// Times `f` (one kernel application per call): runs enough repetitions
/// to fill ~`budget_ms`, returns seconds per application (best of 3
/// batches).
pub fn time_apply(mut f: impl FnMut(), budget_ms: f64) -> f64 {
    // Warm up and estimate.
    f();
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-7);
    let reps = ((budget_ms / 1e3 / once).ceil() as usize).clamp(1, 10_000);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() / reps as f64);
    }
    best
}

fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Runs the full Fig. 7 suite: SpMV on 3d7/3d19/3d27 and SpTRSV on their
/// lower parts, all variants, geometric mean over `sizes`.
pub fn kernel_suite(sizes: &[usize], par: Par, budget_ms: f64) -> Vec<KernelRow> {
    let mut rows = Vec::new();
    for (pname, pat) in [("3d7", Pattern::p7()), ("3d19", Pattern::p19()), ("3d27", Pattern::p27())]
    {
        // ---- SpMV ----
        let mut secs: Vec<Vec<f64>> = vec![Vec::new(); 4];
        for (si, &n) in sizes.iter().enumerate() {
            let a64 = test_matrix(&pat, n, 0xbe9c_0000 + si as u64);
            let un = a64.rows();
            let x: Vec<f32> = (0..un).map(|i| ((i % 97) as f32) * 0.01 - 0.3).collect();
            let mut y = vec![0.0f32; un];

            let a32 = a64.convert::<f32>(); // SOA
            let a16_soa = a64.convert::<F16>();
            let a16_aos = a16_soa.to_layout(Layout::Aos);
            let csr = Csr::<f32>::from_sgdia(&a32);

            secs[0].push(time_apply(|| kernels::spmv(&a32, &x, &mut y, par), budget_ms));
            secs[1].push(time_apply(|| kernels::spmv(&a16_aos, &x, &mut y, par), budget_ms));
            secs[2].push(time_apply(|| kernels::spmv(&a16_soa, &x, &mut y, par), budget_ms));
            secs[3].push(time_apply(|| csr.spmv(&x, &mut y), budget_ms));
        }
        let base = geomean(&secs[0]);
        for (v, s) in Variant::all().into_iter().zip(&secs) {
            let g = geomean(s);
            rows.push(KernelRow {
                kernel: KernelKind::Spmv,
                pattern: pname.into(),
                variant: v,
                seconds: g,
                speedup: base / g,
            });
        }

        // ---- SpTRSV on the lower pattern ----
        let lname = pat.lower_with_diag().name();
        let mut secs: Vec<Vec<f64>> = vec![Vec::new(); 4];
        for (si, &n) in sizes.iter().enumerate() {
            let a64 = test_matrix(&pat, n, 0x7259_0000 + si as u64);
            let l64 = lower_matrix(&a64);
            let un = l64.rows();
            let b: Vec<f32> = (0..un).map(|i| ((i % 89) as f32) * 0.01 + 0.1).collect();
            let mut x = vec![0.0f32; un];

            let l32 = l64.convert::<f32>(); // SOA
            let l16_soa = l64.convert::<F16>();
            let l16_aos = l16_soa.to_layout(Layout::Aos);
            let csr = Csr::<f32>::from_sgdia(&l32);

            secs[0].push(time_apply(|| kernels::sptrsv_forward(&l32, &b, &mut x), budget_ms));
            secs[1].push(time_apply(|| kernels::sptrsv_forward(&l16_aos, &b, &mut x), budget_ms));
            secs[2].push(time_apply(|| kernels::sptrsv_forward(&l16_soa, &b, &mut x), budget_ms));
            secs[3].push(time_apply(|| csr.solve_lower(&b, &mut x), budget_ms));
        }
        let base = geomean(&secs[0]);
        for (v, s) in Variant::all().into_iter().zip(&secs) {
            let g = geomean(s);
            rows.push(KernelRow {
                kernel: KernelKind::Sptrsv,
                pattern: lname.clone(),
                variant: v,
                seconds: g,
                speedup: base / g,
            });
        }
    }
    rows
}

/// The `Max-fp16/fp32` bound for a pattern at size `n` (memory-volume
/// ratio including the kernel's vectors).
pub fn max_speedup(pattern: &Pattern, n: usize, kernel: KernelKind) -> f64 {
    let grid = Grid3::cube(n);
    let entries = match kernel {
        KernelKind::Spmv => grid.cells() * pattern.len(),
        KernelKind::Sptrsv => grid.cells() * pattern.lower_with_diag().len(),
    };
    model::spmv_max_speedup(
        entries,
        grid.unknowns(),
        Precision::F32,
        Precision::F16,
        Precision::F32,
    )
}

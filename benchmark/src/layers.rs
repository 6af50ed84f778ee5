//! The traced run: per-layer metrics, measured from outside.
//!
//! Every traced run reports every layer, whichever workload it belongs to:
//!
//! 1. the two child-process layers (`runtime.*` against a daemon, `bench.*`
//!    against `simulate`) — at the workload's own size when the workload
//!    is `served` / `timestep`, as a short probe at toy size otherwise;
//! 2. the in-process layers on the workload's linear system
//!    ([`inproc::spec`]): problem build, host probes, conversion and
//!    kernel rates on the finest operator, the set-up split, traced and
//!    untraced solves of both configurations, a per-level replica of the
//!    V-cycle, and the runtime's cache / session / storage calls.
//!
//! A layer is a crate; spans wrap calls into its public API. All byte
//! counts are computed from array sizes, not measured. End-to-end numbers
//! are never taken from here.

use std::path::Path;
use std::time::{Duration, Instant};

use fp16mg_core::{
    prolong_add, restrict, DenseLu, GalerkinChain, Mg, MgConfig, SmootherKind, StoredMatrix,
};
use fp16mg_fp::{simd, Precision, Scalar, F16};
use fp16mg_runtime::cache::fingerprint;
use fp16mg_runtime::{
    append_durable, run_session, CacheConfig, CacheEventKind, HierarchyCache, RealStorage,
    SnapshotStore, SolveRequest,
};
use fp16mg_sgdia::kernels::BlockDiagInv;
use fp16mg_sgdia::scaling::{rescale_into, scale_symmetric, ScaleVectors};
use fp16mg_sgdia::{audit, model, Par, SgDia};

use crate::child::{Scratch, OUT_DIR};
use crate::inproc::{self, med, op, Solved, Spec, System, FULL64, MIX16};
use crate::reference::Reference;
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{served, timestep};

/// A batch of calls lasts at least this long, so that a microsecond
/// kernel is not timed by two clock reads.
const MIN_BATCH: Duration = Duration::from_millis(5);

/// Median seconds per call of `f`: one calibrating call (also the
/// warm-up), then `batches` timed batches, each one span.
fn probe(tracer: &Tracer, name: &'static str, batches: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().max(Duration::from_nanos(50));
    let calls = (MIN_BATCH.as_secs_f64() / once.as_secs_f64()).ceil().clamp(1.0, 1e6) as usize;
    let per_call: Vec<f64> = (0..batches)
        .map(|_| {
            let (_, id) = tracer.span_id(name, || {
                for _ in 0..calls {
                    f();
                }
            });
            tracer.secs(id) / calls as f64
        })
        .collect();
    median(&per_call)
}

/// How many batches (or repetitions) a probe takes.
struct Effort {
    batches: usize,
    solve_reps: usize,
    appends: usize,
    publishes: usize,
}

pub fn run(name: &str, seed: u64, quick: bool) -> Result<Outcome, String> {
    let spec = inproc::spec(name, quick).ok_or(format!("unknown workload `{name}`"))?;
    let tracer = Tracer::new(name);
    let mut out = Outcome::default();
    served::traced(name == "served", quick, seed, &tracer, &mut out);
    timestep::traced(name == "timestep", quick, &tracer, &mut out);
    let effort = if quick {
        Effort { batches: 3, solve_reps: 1, appends: 20, publishes: 10 }
    } else {
        Effort { batches: 7, solve_reps: 2, appends: 200, publishes: 50 }
    };
    replica(&spec, seed, &effort, &tracer, &mut out)?;
    let path = Path::new(OUT_DIR).join(format!("trace-{name}.json"));
    tracer.write(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    out.note(format!("spans written to {}", path.display()));
    Ok(out)
}

// ------------------------------------------------------------------ host --

/// `(L2 bytes, last-level cache bytes)` as Linux reports them for cpu0;
/// zeros where the kernel exposes nothing.
fn cache_sizes() -> (f64, f64) {
    let (mut l2, mut llc) = (0.0f64, 0.0f64);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).unwrap_or_default();
        let size = read("size");
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<f64>().unwrap_or(0.0) * 1024.0,
            None => {
                size.strip_suffix('M').and_then(|m| m.parse::<f64>().ok()).unwrap_or(0.0)
                    * 1048576.0
            }
        };
        if read("type").trim() == "Instruction" {
            continue;
        }
        if read("level").trim() == "2" {
            l2 = bytes;
        }
        llc = llc.max(bytes);
    }
    (l2, llc)
}

/// STREAM triad `a = b + s·c` over three arrays of `bytes` each, split
/// over `threads` scoped threads spawned per call (as `sgdia::par` does).
/// GB/s counts two reads and one write per element.
fn stream_triad(tracer: &Tracer, bytes: usize, threads: usize, batches: usize) -> f64 {
    let n = (bytes / 8).max(1024);
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let chunk = n.div_ceil(threads.max(1));
    let s = probe(tracer, "host.stream_triad", batches, || {
        let kernel = |a: &mut [f64], b: &[f64], c: &[f64]| {
            for ((ai, &bi), &ci) in a.iter_mut().zip(b).zip(c) {
                *ai = 3.0f64.mul_add(ci, bi);
            }
        };
        if threads <= 1 {
            kernel(&mut a, &b, &c);
        } else {
            std::thread::scope(|scope| {
                for ((a, b), c) in a.chunks_mut(chunk).zip(b.chunks(chunk)).zip(c.chunks(chunk)) {
                    scope.spawn(move || kernel(a, b, c));
                }
            });
        }
        std::hint::black_box(&mut a);
    });
    (3 * n * 8) as f64 / s / 1e9
}

// --------------------------------------------------------- level replica --

/// Level `l` rebuilt from the Galerkin chain exactly as `core` builds it:
/// symmetric scaling when the values leave the storage format's range,
/// truncation under the configured policy, inverse diagonal blocks of
/// the stored (scaled) operator.
struct Level<P: Scalar> {
    stored: StoredMatrix,
    scale: Option<ScaleVectors<P>>,
    dinv: BlockDiagInv<P>,
}

fn build_level<P: Scalar>(
    a: &SgDia<f64>,
    prec: Precision,
    cfg: &MgConfig,
    tracer: &Tracer,
) -> Result<Level<P>, String> {
    let mut prec = prec;
    let mut scaled = None;
    let mut scale = None;
    // The span covers what `core` pays per level: the range scan that
    // decides, and the scaling itself when the values are out of range.
    tracer.span("sgdia.scale_symmetric", || {
        let (max, nonfinite) = a.abs_max();
        if !(nonfinite || max >= prec.finite_max()) {
            return;
        }
        let mut m = a.clone();
        match scale_symmetric::<P>(&mut m, cfg.g_choice, prec.finite_max()) {
            Ok(sv) => {
                scale = Some(sv);
                scaled = Some(m);
            }
            // `core` falls back to a format wide enough to hold the
            // level unscaled when Theorem 4.1 does not apply.
            Err(_) if max < Precision::F32.finite_max() => prec = Precision::F32,
            Err(_) => prec = Precision::F64,
        }
    });
    let src = scaled.as_ref().unwrap_or(a);
    let dinv = BlockDiagInv::from_matrix(src)
        .map_err(|c| format!("singular diagonal block at cell {c}"))?;
    tracer.span("sgdia.audit", || std::hint::black_box(audit::audit(src, prec)));
    let stored = StoredMatrix::truncate_policy(src, prec, cfg.layout, cfg.truncation)
        .map_err(|e| format!("truncation: {e}"))?;
    Ok(Level { stored, scale, dinv })
}

/// The solve vectors of one level, as `core`'s workspace carves them.
struct Bufs<P> {
    u: Vec<P>,
    f: Vec<P>,
    r: Vec<P>,
    t1: Vec<P>,
    t2: Vec<P>,
}

impl<P: Scalar> Bufs<P> {
    fn new(n: usize) -> Self {
        // A right-hand side of order one: no denormals, no overflow.
        let f = (0..n).map(|i| P::from_f64(1.0 + (i % 7) as f64 * 0.125)).collect();
        let z = || vec![P::ZERO; n];
        Bufs { u: z(), f, r: z(), t1: z(), t2: z() }
    }
}

impl<P: Scalar> Level<P> {
    /// `ν` Gauss–Seidel sweeps, forward before the coarse correction and
    /// backward after it, in the scaled space when the level is scaled.
    fn smooth(&self, post: bool, nu: usize, b: &mut Bufs<P>) {
        let sweep = |rhs: &[P], x: &mut [P]| {
            for _ in 0..nu {
                if post {
                    self.stored.gs_backward(&self.dinv, rhs, x);
                } else {
                    self.stored.gs_forward(&self.dinv, rhs, x);
                }
            }
        };
        match &self.scale {
            Some(sv) => {
                rescale_into(&b.u, &sv.s, &mut b.t1);
                rescale_into(&b.f, &sv.s_inv, &mut b.t2);
                sweep(&b.t2, &mut b.t1);
                rescale_into(&b.t1, &sv.s_inv, &mut b.u);
            }
            None => sweep(&b.f, &mut b.u),
        }
    }

    /// `r = f − A u` with the true operator recovered on the fly.
    fn residual(&self, par: Par, b: &mut Bufs<P>) {
        match &self.scale {
            Some(sv) => {
                rescale_into(&b.u, &sv.s, &mut b.t1);
                rescale_into(&b.f, &sv.s_inv, &mut b.t2);
                self.stored.residual(&b.t2, &b.t1, &mut b.r, par);
                for (ri, &si) in b.r.iter_mut().zip(&sv.s) {
                    *ri *= si;
                }
            }
            None => self.stored.residual(&b.f, &b.u, &mut b.r, par),
        }
    }

    /// Bytes one V-cycle moves at this level, computed from array sizes:
    /// the matrix once per sweep and once for the residual, the vectors
    /// each kernel reads and writes, the rescale passes of a scaled level.
    fn bytes_per_cycle(&self, sweeps: usize, coarse_rows: usize) -> f64 {
        let n = self.dinv.cells() * self.dinv.components();
        let v = (n * P::BYTES) as f64;
        let dinv = (self.dinv.data().len() * P::BYTES) as f64;
        let matrix = self.stored.value_bytes() as f64;
        let rescale = if self.scale.is_some() { 9.0 * v } else { 0.0 };
        let smooth = sweeps as f64 * (matrix + 3.0 * v + dinv) + 2.0 * rescale;
        let residual = matrix + 3.0 * v + rescale;
        let transfer = 3.0 * v + 2.0 * (coarse_rows * P::BYTES) as f64;
        smooth + residual + transfer
    }
}

struct LevelTimes {
    smooth_s: f64,
    residual_s: f64,
    restrict_s: f64,
    prolong_s: f64,
    bytes: f64,
}

impl LevelTimes {
    fn total(&self) -> f64 {
        self.smooth_s + self.residual_s + self.restrict_s + self.prolong_s
    }
}

/// Times each kernel of the V-cycle on the rebuilt levels, then the
/// coarsest dense solve. Returns the per-level times and the coarse time.
fn time_levels(
    chain: &GalerkinChain,
    levels: &[Level<f32>],
    cfg: &MgConfig,
    batches: usize,
    tracer: &Tracer,
) -> Result<(Vec<LevelTimes>, f64), String> {
    let mats = chain.matrices();
    let mut times = Vec::new();
    for (l, lv) in levels.iter().enumerate() {
        let (gf, gc) = (mats[l].grid(), mats[l + 1].grid());
        let mut b = Bufs::<f32>::new(mats[l].rows());
        let mut coarse = vec![0.0f32; mats[l + 1].rows()];
        let pre =
            probe(tracer, "core.replica.smooth", batches, || lv.smooth(false, cfg.nu1, &mut b));
        let post =
            probe(tracer, "core.replica.smooth", batches, || lv.smooth(true, cfg.nu2, &mut b));
        let residual_s =
            probe(tracer, "core.replica.residual", batches, || lv.residual(cfg.par, &mut b));
        let restrict_s =
            probe(tracer, "core.replica.restrict", batches, || restrict(gf, gc, &b.r, &mut coarse));
        let prolong_s = probe(tracer, "core.replica.prolong", batches, || {
            prolong_add(gf, gc, &coarse, &mut b.u)
        });
        times.push(LevelTimes {
            smooth_s: pre + post,
            residual_s,
            restrict_s,
            prolong_s,
            bytes: lv.bytes_per_cycle(cfg.nu1 + cfg.nu2, mats[l + 1].rows()),
        });
    }
    let coarsest = mats.last().expect("a chain holds at least the finest matrix");
    let lu = DenseLu::factor(coarsest).map_err(|e| format!("coarse factorization: {e}"))?;
    let mut x = vec![1.0f64; lu.rows()];
    let mut scratch = vec![0.0f64; lu.rows()];
    let coarse_s = probe(tracer, "core.replica.coarse", batches, || lu.solve(&mut x, &mut scratch));
    Ok((times, coarse_s))
}

// ----------------------------------------------------------------- solves --

/// What the spans under one traced solve say.
struct SolveSplit {
    solve_s: f64,
    vcycle_s: f64,
    vcycle_calls: usize,
    matop_s: f64,
    matop_calls: usize,
    /// The solve span's self time: dots, axpys, Gram–Schmidt.
    vector_s: f64,
}

fn split(tracer: &Tracer, s: &Solved, names: &inproc::Config, out: &mut Outcome) -> SolveSplit {
    let id = s.solve_span.expect("a traced solve has its span");
    let (vcycle_s, vcycle_calls) = tracer.children(id, names.vcycle);
    let (matop_s, matop_calls) = tracer.children(id, names.matop);
    let vector_s = tracer.self_secs(id);
    // solve = V-cycles + operator + vector work; `s.solve_s` is clocked
    // independently of the spans, so this guards the span bookkeeping.
    let parts = vcycle_s + matop_s + vector_s;
    if (parts - s.solve_s).abs() > 0.02 * s.solve_s {
        out.fail(format!(
            "{}: parts sum {parts:.6} s is not the solve's {:.6} s within 2%",
            names.label, s.solve_s
        ));
    }
    SolveSplit { solve_s: tracer.secs(id), vcycle_s, vcycle_calls, matop_s, matop_calls, vector_s }
}

// ---------------------------------------------------------------- replica --

/// The in-process layers on the workload's linear system, outermost first.
fn replica(
    spec: &Spec,
    seed: u64,
    effort: &Effort,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let batches = effort.batches;
    let (problem, id) = tracer.span_id("problems.build", || spec.kind.build(spec.n));
    out.push("problems.build_s", tracer.secs(id), 1);
    out.note(inproc::describe(spec, &problem));
    let sys = System::new(spec, problem, seed);
    let a = &sys.problem.matrix;

    let stream_gbs = host_probes(a, spec.par.threads(), batches, tracer, out);
    fp_probes(batches, tracer, out);

    // core: the set-up split.
    let mut cfg16 = MgConfig::d16();
    cfg16.par = spec.par;
    if cfg16.smoother != SmootherKind::GsSymmetric {
        return Err("the level replica knows only the default Gauss–Seidel smoother".into());
    }
    let (chain, id) = tracer.span_id("core.chain_build", || GalerkinChain::build(a, &cfg16));
    let chain = chain.map_err(|e| format!("GalerkinChain::build: {e}"))?;
    out.push("core.chain_build_s", tracer.secs(id), 1);
    let (mg, id) = tracer.span_id("core.assemble", || Mg::<f32>::setup_from_chain(&chain, &cfg16));
    drop(mg.map_err(|e| format!("Mg::setup_from_chain: {e}"))?);
    out.push("core.assemble_s", tracer.secs(id), 1);

    // The levels, rebuilt; scaling and audit cost of the finest.
    let mats = chain.matrices();
    let mut levels = Vec::new();
    for (l, m) in mats.iter().enumerate().take(mats.len() - 1) {
        let (lv, id) = tracer.span_id("core.replica.build_level", || {
            build_level::<f32>(m, cfg16.storage.precision_for(l), &cfg16, tracer)
        });
        levels.push(lv.map_err(|e| format!("level {l}: {e}"))?);
        if l == 0 {
            out.push("sgdia.scale_symmetric_s", tracer.children(id, "sgdia.scale_symmetric").0, 1);
            out.push("sgdia.audit_s", tracer.children(id, "sgdia.audit").0, 1);
        }
    }
    if levels.is_empty() {
        return Err("the hierarchy has no smoothed level; choose a larger problem".into());
    }

    kernel_probes(a, &levels, &cfg16, stream_gbs, batches, tracer, out)?;
    let solves = solve_probes(&sys, effort.solve_reps, tracer, out)?;
    level_probes(&chain, &levels, &cfg16, solves.apply_s, batches, tracer, out)?;
    runtime_probes(sys, effort, solves.bare_op_s, tracer, out)
}

/// `host.*` but the trace overhead; returns the triad rate the kernel
/// rates are put against.
fn host_probes(
    a: &SgDia<f64>,
    threads: usize,
    batches: usize,
    tracer: &Tracer,
    out: &mut Outcome,
) -> f64 {
    let (l2, llc) = cache_sizes();
    let stream_gbs = stream_triad(tracer, a.value_bytes(), threads, batches);
    let mut reference = Reference::new();
    let passes: Vec<f64> =
        (0..batches).map(|_| tracer.span("host.reference", || reference.run())).collect();
    out.push("host.nproc", inproc::nproc() as f64, 1);
    out.push("host.l2_bytes", l2, 1);
    out.push("host.llc_bytes", llc, 1);
    out.push("host.stream_gbs", stream_gbs, batches);
    out.push("host.reference_s", median(&passes), batches);
    out.note(format!(
        "host: {} cores, L2 {:.0} KiB, reported LLC {:.0} MiB; triad arrays {:.1} MB each, {threads} thread(s): {stream_gbs:.2} GB/s",
        inproc::nproc(),
        l2 / 1024.0,
        llc / 1_048_576.0,
        a.value_bytes() as f64 / 1e6,
    ));
    stream_gbs
}

fn fp_probes(batches: usize, tracer: &Tracer, out: &mut Outcome) {
    let n = 4 << 20;
    let src: Vec<F16> = (0..n).map(|i| F16::from_f32(((i % 2048) as f32) * 0.25 - 200.0)).collect();
    let mut dst = vec![0.0f32; n];
    let bytes = (n * 6) as f64;
    let fast = probe(tracer, "fp.widen_f16", batches, || simd::widen_f16(&src, &mut dst));
    let slow =
        probe(tracer, "fp.widen_f16_scalar", batches, || simd::widen_f16_scalar(&src, &mut dst));
    out.push("fp.widen_f16_gbs", bytes / fast / 1e9, batches);
    out.push("fp.widen_f16_scalar_gbs", bytes / slow / 1e9, batches);
    out.push("fp.f16c", f64::from(u8::from(simd::f16c_available())), 1);
}

/// `sgdia.*`: the kernels on the finest operator as `core` stores it, f32
/// vectors (f64 for the `_f64` rows), with the workload's parallelism.
fn kernel_probes(
    a: &SgDia<f64>,
    levels: &[Level<f32>],
    cfg: &MgConfig,
    stream_gbs: f64,
    batches: usize,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let n = a.rows();
    let threads = inproc::nproc();
    let (par, par_t) = (cfg.par, Par::Threads(threads));
    let l0 = &levels[0];
    let l0_f32 = StoredMatrix::truncate(a, Precision::F32, cfg.layout);
    let l0_f64 = StoredMatrix::truncate(a, Precision::F64, cfg.layout);
    let dinv64 =
        BlockDiagInv::<f64>::from_matrix(a).map_err(|c| format!("singular block at cell {c}"))?;
    let (mut v32, mut v64) = (Bufs::<f32>::new(n), Bufs::<f64>::new(n));
    let spmv_f16 =
        probe(tracer, "sgdia.spmv_f16", batches, || l0.stored.spmv(&v32.f, &mut v32.r, par));
    let spmv_f32 =
        probe(tracer, "sgdia.spmv_f32", batches, || l0_f32.spmv(&v32.f, &mut v32.r, par));
    let spmv_f64 =
        probe(tracer, "sgdia.spmv_f64", batches, || l0_f64.spmv(&v64.f, &mut v64.r, par));
    let residual_f16 = probe(tracer, "sgdia.residual_f16", batches, || {
        l0.stored.residual(&v32.f, &v32.u, &mut v32.r, par);
    });
    let gs_f16 = probe(tracer, "sgdia.gs_f16", batches, || {
        l0.stored.gs_forward(&l0.dinv, &v32.f, &mut v32.u);
        l0.stored.gs_backward(&l0.dinv, &v32.f, &mut v32.u);
    });
    let gs_f64 = probe(tracer, "sgdia.gs_f64", batches, || {
        l0_f64.gs_forward(&dinv64, &v64.f, &mut v64.u);
        l0_f64.gs_backward(&dinv64, &v64.f, &mut v64.u);
    });
    let spmv_seq = probe(tracer, "sgdia.spmv_f16_seq", batches, || {
        l0.stored.spmv(&v32.f, &mut v32.r, Par::Seq)
    });
    let spmv_par =
        probe(tracer, "sgdia.spmv_f16_par", batches, || l0.stored.spmv(&v32.f, &mut v32.r, par_t));

    // Computed bytes: the matrix once, x read and y written (SpMV); per
    // sweep the matrix, b, x in, x out and the inverse blocks (GS pair).
    let spmv_bytes = |m: &StoredMatrix, p: usize| (m.value_bytes() + 2 * n * p) as f64;
    let gs_bytes = |m: &StoredMatrix, dinv_len: usize, p: usize| {
        2.0 * (m.value_bytes() + (3 * n + dinv_len) * p) as f64
    };
    let spmv_f16_gbs = spmv_bytes(&l0.stored, 4) / spmv_f16 / 1e9;
    let gs_f16_gbs = gs_bytes(&l0.stored, l0.dinv.data().len(), 4) / gs_f16 / 1e9;
    for (name, v) in [
        ("sgdia.spmv_f16_s", spmv_f16),
        ("sgdia.spmv_f32_s", spmv_f32),
        ("sgdia.spmv_f64_s", spmv_f64),
        ("sgdia.residual_f16_s", residual_f16),
        ("sgdia.gs_f16_s", gs_f16),
        ("sgdia.gs_f64_s", gs_f64),
        ("sgdia.spmv_f16_gbs", spmv_f16_gbs),
        ("sgdia.spmv_f64_gbs", spmv_bytes(&l0_f64, 8) / spmv_f64 / 1e9),
        ("sgdia.gs_f16_gbs", gs_f16_gbs),
        ("sgdia.gs_f64_gbs", gs_bytes(&l0_f64, dinv64.data().len(), 8) / gs_f64 / 1e9),
        ("sgdia.spmv_f16_frac_stream", spmv_f16_gbs / stream_gbs),
        ("sgdia.gs_f16_frac_stream", gs_f16_gbs / stream_gbs),
        ("sgdia.spmv_f16_speedup", spmv_f64 / spmv_f16),
        ("sgdia.gs_f16_speedup", gs_f64 / gs_f16),
        ("sgdia.par_spmv_eff", spmv_seq / (threads as f64 * spmv_par)),
    ] {
        out.push(name, v, batches);
    }
    out.push(
        "sgdia.spmv_model_bound",
        model::spmv_max_speedup(
            a.stored_entries(),
            n,
            Precision::F64,
            Precision::F16,
            Precision::F32,
        ),
        1,
    );

    // Thread spawn cost where there is little to share out: the first
    // level of at most 4096 cells (the last smoothed one if none is).
    let small = levels.iter().position(|lv| lv.dinv.cells() <= 4096).unwrap_or(levels.len() - 1);
    let lv = &levels[small];
    let mut v = Bufs::<f32>::new(lv.dinv.cells() * lv.dinv.components());
    let seq = probe(tracer, "sgdia.spmv_coarse_seq", batches, || {
        lv.stored.spmv(&v.f, &mut v.r, Par::Seq)
    });
    let thr =
        probe(tracer, "sgdia.spmv_coarse_par", batches, || lv.stored.spmv(&v.f, &mut v.r, par_t));
    out.push("sgdia.par_coarse_ratio", thr / seq, batches);
    out.note(format!(
        "sgdia.par_coarse_ratio measured on level {small} ({} cells)",
        lv.dinv.cells()
    ));
    Ok(())
}

/// What the later probes need from the solves.
struct Solves {
    /// Seconds per `Preconditioner::apply`, Mix16.
    apply_s: f64,
    /// Median untraced Mix16 set-up + solve.
    bare_op_s: f64,
}

/// `core.*` and `krylov.*` from solves of both configurations: after a
/// Full64 warm-up (which supplies the reference solution), repetitions of
/// traced Full64, untraced Mix16, traced Mix16.
fn solve_probes(
    sys: &System,
    reps: usize,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<Solves, String> {
    let Some(reference) = op::<f64>(sys, &FULL64, None, None, None, out) else {
        return Err("the Full64 warm-up solve failed".into());
    };
    let x64 = Some(reference.x.as_slice());
    let (mut bare, mut traced16, mut traced64) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 1..=reps {
        tracer.set_rep(rep);
        let f = op::<f64>(sys, &FULL64, None, Some(tracer), None, out);
        let u = op::<f32>(sys, &MIX16, x64, None, None, out);
        let t = op::<f32>(sys, &MIX16, x64, Some(tracer), None, out);
        if let (Some(f), Some(u), Some(t)) = (f, u, t) {
            bare.push(u);
            traced16.push(t);
            traced64.push(f);
        }
    }
    tracer.set_rep(0);
    if traced16.is_empty() {
        return Err("no solve repetition completed".into());
    }
    let reps = traced16.len();
    let s16: Vec<SolveSplit> = traced16.iter().map(|s| split(tracer, s, &MIX16, out)).collect();
    let s64: Vec<SolveSplit> = traced64.iter().map(|s| split(tracer, s, &FULL64, out)).collect();
    let iters: Vec<usize> = bare.iter().chain(&traced16).map(|s| s.result.iters).collect();
    inproc::require_identical("Mix16 iters", &iters, out);

    let solve_s = med(&s16, |s| s.solve_s);
    let solve64_s = med(&s64, |s| s.solve_s);
    let bare_solve_s = med(&bare, |s| s.solve_s);
    let vcycle_s = med(&s16, |s| s.vcycle_s);
    let vcycle64_s = med(&s64, |s| s.vcycle_s);
    let calls = s16[0].vcycle_calls.max(1) as f64;
    let calls64 = s64[0].vcycle_calls.max(1) as f64;
    let apply_s = vcycle_s / calls;
    let (first, first64) = (&traced16[0], &traced64[0]);
    for (name, v, samples) in [
        ("host.trace_overhead_frac", (solve_s - bare_solve_s) / bare_solve_s, reps),
        ("core.setup_full64_s", med(&traced64, |s| s.setup_s), reps),
        ("core.vcycle_s", vcycle_s, reps),
        ("core.vcycle_full64_s", vcycle64_s, reps),
        ("core.vcycle_calls", calls, 1),
        ("core.vcycle_apply_s", apply_s, reps),
        ("core.vcycle_speedup", (vcycle64_s / calls64) / apply_s, reps),
        ("core.levels", first.info.levels.len() as f64, 1),
        ("core.grid_complexity", first.info.grid_complexity, 1),
        ("core.operator_complexity", first.info.operator_complexity, 1),
        ("core.workspace_bytes", first.workspace_bytes as f64, 1),
        ("core.matrix_bytes", first.info.matrix_bytes as f64, 1),
        ("core.matrix_bytes_full64", first64.info.matrix_bytes as f64, 1),
        ("core.promotions", first.info.promotions.len() as f64, 1),
        ("core.repairs", first.info.repairs.len() as f64, 1),
        ("krylov.solve_s", solve_s, reps),
        ("krylov.solve_full64_s", solve64_s, reps),
        ("krylov.other_s", solve_s - vcycle_s, reps),
        ("krylov.matop_s", med(&s16, |s| s.matop_s), reps),
        ("krylov.matop_calls", s16[0].matop_calls as f64, 1),
        ("krylov.vector_s", med(&s16, |s| s.vector_s), reps),
        ("krylov.iters", first.result.iters as f64, 1),
        ("krylov.iters_full64", first64.result.iters as f64, 1),
        ("krylov.s_per_iter", solve_s / first.result.iters.max(1) as f64, reps),
        ("krylov.solve_speedup", solve64_s / solve_s, reps),
        ("krylov.true_rel_residual", sys.true_rel_residual(&first.x), 1),
    ] {
        out.push(name, v, samples);
    }
    if !first.info.repairs.is_empty() || !first.info.promotions.is_empty() {
        out.note(format!(
            "WARNING: {} promotions and {} repairs on a clean workload",
            first.info.promotions.len(),
            first.info.repairs.len()
        ));
    }
    Ok(Solves { apply_s, bare_op_s: med(&bare, |s| s.setup_s) + bare_solve_s })
}

/// `core.L0.*`, `core.L1.*`, `core.Lrest_s`, `core.replica_gap`: the
/// V-cycle level by level, against the real apply's `apply_s`.
fn level_probes(
    chain: &GalerkinChain,
    levels: &[Level<f32>],
    cfg: &MgConfig,
    apply_s: f64,
    batches: usize,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    const NAMES: [[&str; 6]; 2] = [
        [
            "core.L0.smooth_s",
            "core.L0.residual_s",
            "core.L0.restrict_s",
            "core.L0.prolong_s",
            "core.L0.bytes",
            "core.L0.gbs",
        ],
        [
            "core.L1.smooth_s",
            "core.L1.residual_s",
            "core.L1.restrict_s",
            "core.L1.prolong_s",
            "core.L1.bytes",
            "core.L1.gbs",
        ],
    ];
    let (times, coarse_s) = time_levels(chain, levels, cfg, batches, tracer)?;
    let zero =
        LevelTimes { smooth_s: 0.0, residual_s: 0.0, restrict_s: 0.0, prolong_s: 0.0, bytes: 0.0 };
    for (l, names) in NAMES.iter().enumerate() {
        // A hierarchy with a single smoothed level has no L1: zeros.
        let t = times.get(l).unwrap_or(&zero);
        let gbs = if t.total() > 0.0 { t.bytes / t.total() / 1e9 } else { 0.0 };
        for (name, v) in
            names.iter().zip([t.smooth_s, t.residual_s, t.restrict_s, t.prolong_s, t.bytes, gbs])
        {
            out.push(name, v, batches);
        }
    }
    let finest_two: f64 = times.iter().take(2).map(LevelTimes::total).sum();
    let replica_sum: f64 = times.iter().map(LevelTimes::total).sum::<f64>() + coarse_s;
    let gap = (apply_s - replica_sum) / apply_s;
    out.push("core.Lrest_s", apply_s - finest_two, 1);
    out.push("core.replica_gap", gap, 1);
    if gap.abs() > 0.25 {
        out.note(format!(
            "WARNING: the level replica sums to {replica_sum:.6} s, the real apply takes {apply_s:.6} s ({:+.0}%)",
            gap * 100.0
        ));
    }
    Ok(())
}

/// `runtime.*` in process: the hierarchy cache, the durability calls, and
/// one session through the retry ladder (which takes the problem).
fn runtime_probes(
    sys: System,
    effort: &Effort,
    bare_setup_plus_solve_s: f64,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let cfg16 = MgConfig::d16();
    let a = &sys.problem.matrix;
    let mut cache = HierarchyCache::new(CacheConfig::default());
    let mut acquire =
        |name: &'static str, m: &SgDia<f64>, want: CacheEventKind, out: &mut Outcome| {
            let (r, id) =
                tracer.span_id(name, || cache.acquire("bench", m, &cfg16).map(|(_, kind)| kind));
            match r {
                Ok(kind) if kind == want => {}
                Ok(kind) => {
                    out.note(format!("WARNING: {name} was served as `{kind}`, expected `{want}`"))
                }
                Err(e) => out.note(format!("WARNING: {name}: {e}")),
            }
            tracer.secs(id)
        };
    let cold = acquire("runtime.cache_cold", a, CacheEventKind::Rebuilt, out);
    let hits: Vec<f64> =
        (0..3).map(|_| acquire("runtime.cache_hit", a, CacheEventKind::Hit, out)).collect();
    // The daemon's drift class: the same geometry, every value times four
    // — past the keep bound, within the rescale bound.
    let mut drifted = a.clone();
    for v in drifted.data_mut() {
        *v *= 4.0;
    }
    let rescaled = acquire("runtime.cache_rescaled", &drifted, CacheEventKind::RescaledHit, out);
    drop(drifted);
    out.push("runtime.cache_cold_s", cold, 1);
    out.push("runtime.cache_hit_s", median(&hits), hits.len());
    out.push("runtime.cache_rescaled_s", rescaled, 1);
    let fp_s = probe(tracer, "runtime.fingerprint", effort.batches, || {
        std::hint::black_box(fingerprint(a));
    });
    out.push("runtime.fingerprint_s", fp_s, effort.batches);
    drop(cache);

    // Storage: what one served request pays for durability.
    let scratch = Scratch::new()?;
    let trail = scratch.path().join("trail.log");
    let line = "seq=0 req=req-00000 class=laplace27 prio=batch profile=full outcome=ok breaker=closed cache=hit\n";
    let appends: Vec<f64> = (0..effort.appends)
        .map(|_| {
            let (r, id) = tracer.span_id("runtime.trail_append", || {
                append_durable(&RealStorage, &trail, line.as_bytes())
            });
            if let Err(e) = r {
                out.note(format!("WARNING: append_durable: {e}"));
            }
            tracer.secs(id)
        })
        .collect();
    out.push("runtime.trail_append_s", median(&appends), appends.len());
    let store = SnapshotStore::new(scratch.path().join("daemon.snapshot"));
    // About the 460 bytes the daemon checkpoints per batch.
    let payload = "x".repeat(460);
    let publishes: Vec<f64> = (0..effort.publishes as u64)
        .map(|generation| {
            let (r, id) = tracer.span_id("runtime.snapshot_publish", || {
                store.publish(&RealStorage, generation, &payload)
            });
            if let Err(e) = r {
                out.note(format!("WARNING: SnapshotStore::publish: {e}"));
            }
            tracer.secs(id)
        })
        .collect();
    out.push("runtime.snapshot_publish_s", median(&publishes), publishes.len());

    let mut req = SolveRequest::new("bench", sys.problem, cfg16);
    req.rhs = Some(sys.b);
    req.opts = inproc::solve_options();
    req.par = sys.par;
    out.attempted += 1;
    let (outcome, id) = tracer.span_id("runtime.session", || run_session(&req));
    if !outcome.converged() {
        out.fail(format!("run_session: {:?}", outcome.result.err()));
    }
    out.push("runtime.session_s", tracer.secs(id), 1);
    out.push("runtime.session_overhead_s", tracer.secs(id) - bare_setup_plus_solve_s, 1);
    Ok(())
}

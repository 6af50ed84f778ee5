//! The `repro audit` report: per-level precision-range audits of the
//! FP16 scaling pipeline.
//!
//! For each problem the report assembles the hierarchy under
//! `MgConfig::d16()` (setup-then-scale, FP16 on every smoothed level) and
//! prints what storing each level did to the operator's range: overflow
//! headroom against Theorem 4.1, the underflow/subnormal counts a caller
//! sets `shift_levid` (§4.3) from, the saturation count the truncation
//! policies act on, and the rounding loss. A final section shows a
//! two-component problem whose weak inter-component couplings survive
//! Galerkin coarsening verbatim while RAP growth forces scaling on level 1:
//! its loss sits on that *interior* level.

use fp16mg_core::{Mg, MgConfig, MgInfo};
use fp16mg_grid::Grid3;
use fp16mg_problems::ProblemKind;
use fp16mg_sgdia::{Layout, SgDia};
use fp16mg_stencil::Pattern;

use crate::table::Table;

/// Prints the per-level range-audit table of one assembled hierarchy.
fn print_audit_table(info: &MgInfo) {
    let mut t = Table::new(&[
        "lvl",
        "dims",
        "prec",
        "scaled",
        "G",
        "headroom",
        "uflow->0",
        "subnormal",
        "saturate",
        "max rel err",
        "loss",
    ]);
    for (l, lv) in info.levels.iter().enumerate() {
        let dims = format!("{}x{}x{}", lv.dims.0, lv.dims.1, lv.dims.2);
        let g = match (lv.g, lv.g_clamped_from) {
            (Some(g), Some(req)) => format!("{g:.3e} (req {req:.1e})"),
            (Some(g), None) => format!("{g:.3e}"),
            (None, _) => "-".into(),
        };
        match &lv.audit {
            Some(a) => t.row(vec![
                l.to_string(),
                dims,
                format!("{:?}", lv.precision),
                if lv.scaled { "yes".into() } else { String::new() },
                g,
                format!("{:.2e}", a.headroom),
                a.underflow_zero.to_string(),
                a.subnormal.to_string(),
                a.saturate.to_string(),
                format!("{:.1e}", a.max_rel_err),
                format!("{:.2}%", a.underflow_loss_fraction() * 100.0),
            ]),
            None => t.row(vec![
                l.to_string(),
                dims,
                format!("{:?} (direct)", lv.precision),
                String::new(),
                g,
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]),
        }
    }
    print!("{t}");
}

/// Sets `a` up under `d16` and prints its table.
fn audit_d16(a: &SgDia<f64>) {
    match Mg::<f32>::setup(a, &MgConfig::d16()) {
        Ok(mg) => print_audit_table(mg.info()),
        Err(e) => println!("setup failed: {e}"),
    }
}

/// A two-component coupled system whose FP16 audit degrades at an
/// *interior* level: the finest level fits FP16 unscaled, but Galerkin
/// RAP growth pushes level 1 past `FP16_MAX`, scaling normalizes its
/// diagonal to `G`, and the weak inter-component couplings (which the
/// componentwise trilinear transfers preserve at their original relative
/// size) land in the subnormal range — ~50% underflow loss exactly there.
pub fn weakly_coupled_demo(n: usize) -> SgDia<f64> {
    let grid = Grid3::with_components(n, n, n, 2);
    let pat = Pattern::p7().with_components(2);
    let taps: Vec<_> = pat.taps().to_vec();
    let s = 4.0e3;
    SgDia::from_fn(grid, pat, Layout::Soa, |_, _, _, _, t| {
        let tap = taps[t];
        if tap.is_diagonal() {
            6.05 * s
        } else if tap.dx == 0 && tap.dy == 0 && tap.dz == 0 {
            -1.0e-5 * s
        } else if tap.cin == tap.cout {
            -s
        } else {
            0.0
        }
    })
}

/// The full `repro audit` report body.
pub fn audit_report(size: usize) {
    let n = size.max(12);
    println!("Per-level FP16 range audits (setup-then-scale, FP16 on every smoothed level).");
    println!("headroom = abs_max / FP16_MAX (Theorem 4.1 keeps scaled levels < 1);");
    println!("loss = fraction of nonzeros underflowing to zero or subnormal in FP16.");
    for kind in [ProblemKind::Laplace27, ProblemKind::Rhd, ProblemKind::Rhd3T] {
        let p = kind.build(n);
        println!("\n--- {} ({n}^3) under d16 ---", p.name);
        audit_d16(&p.matrix);
    }

    println!(
        "\n--- weakly-coupled 2-component system (32^3) under d16: the loss starts at level 1, \
         where a static shift_levid = 1 switches to FP32 ---"
    );
    audit_d16(&weakly_coupled_demo(32));
}

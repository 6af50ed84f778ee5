//! One-pass range-safety scans over stored matrices.
//!
//! The runtime guard layer never branches on finiteness inside the hot
//! kernels; instead it audits a whole matrix in a single bandwidth-bound
//! pass, classifying every stored entry into the IEEE categories per
//! stencil diagonal. The per-diagonal resolution matters for diagnosis: an
//! overflowed *center* tap poisons the smoother immediately, while an
//! overflowed off-diagonal tap may only show up as slow divergence.

use fp16mg_fp::{classify::count_classes, ClassCounts, Storage};

use crate::SgDia;

/// Classification result for one stored matrix.
#[derive(Clone, Debug, Default)]
pub struct MatrixScan {
    /// Per-stencil-diagonal (tap) histograms, in pattern order.
    pub per_tap: Vec<ClassCounts>,
    /// Sum over all taps.
    pub total: ClassCounts,
}

impl MatrixScan {
    /// True when no stored entry anywhere is ±∞ or NaN.
    pub fn all_finite(&self) -> bool {
        self.total.all_finite()
    }

    /// Indices of taps containing at least one non-finite entry.
    pub fn corrupt_taps(&self) -> Vec<usize> {
        self.per_tap.iter().enumerate().filter(|(_, c)| !c.all_finite()).map(|(t, _)| t).collect()
    }
}

impl core::fmt::Display for MatrixScan {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.total)?;
        let corrupt = self.corrupt_taps();
        if !corrupt.is_empty() {
            write!(f, " (non-finite taps: {corrupt:?})")?;
        }
        Ok(())
    }
}

/// Classifies every stored entry of `a`, one histogram per stencil
/// diagonal. For SOA layout each tap's values are contiguous
/// ([`SgDia::tap_slice`]) so the pass is a straight sweep; AOS data is
/// classified through a strided walk of the same single pass.
pub fn scan<S: Storage>(a: &SgDia<S>) -> MatrixScan {
    let taps = a.pattern().len();
    let cells = a.grid().cells();
    let mut per_tap = Vec::with_capacity(taps);
    match a.layout() {
        crate::Layout::Soa => {
            for t in 0..taps {
                per_tap.push(count_classes(a.tap_slice(t)));
            }
        }
        crate::Layout::Aos => {
            let mut counts = vec![ClassCounts::default(); taps];
            let data = a.data();
            for cell in 0..cells {
                let row = &data[cell * taps..(cell + 1) * taps];
                for (c, &v) in counts.iter_mut().zip(row) {
                    c.merge(&count_classes(&[v]));
                }
            }
            per_tap = counts;
        }
    }
    let mut total = ClassCounts::default();
    for c in &per_tap {
        total.merge(c);
    }
    MatrixScan { per_tap, total }
}

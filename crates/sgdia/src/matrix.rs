//! The SG-DIA matrix container.

use std::borrow::Cow;

use fp16mg_fp::Storage;
use fp16mg_grid::Grid3;
use fp16mg_stencil::Pattern;

/// In-memory layout of the SG-DIA value array (paper §5.1, Fig. 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// Array-of-structures: the taps of one cell are contiguous
    /// (`data[cell * taps + tap]`). Fine for full-FP32 kernels, but a
    /// mixed-precision kernel pays one convert instruction per entry.
    Aos,
    /// Structure-of-arrays: the cells of one tap are contiguous
    /// (`data[tap * cells + cell]`). SIMD-friendly: one F16C convert per 8
    /// entries.
    Soa,
}

/// A structured-grid-diagonal sparse matrix.
///
/// Semantically this is a square matrix over the unknowns of `grid`
/// (`grid.unknowns()` rows). Row `(cell, cout)` has one potential nonzero
/// per pattern tap with that `cout`; taps whose spatial offset leaves the
/// grid store an explicit zero, so the value array always has exactly
/// `cells × taps` entries and kernels never branch on the pattern.
#[derive(Clone, Debug)]
pub struct SgDia<S: Storage> {
    grid: Grid3,
    pattern: Pattern,
    layout: Layout,
    data: Vec<S>,
}

impl<S: Storage> SgDia<S> {
    /// All-zero matrix.
    ///
    /// # Panics
    /// Panics if the pattern's component count disagrees with the grid's.
    pub fn zeros(grid: Grid3, pattern: Pattern, layout: Layout) -> Self {
        assert_eq!(
            grid.components,
            pattern.components(),
            "grid and pattern component counts disagree"
        );
        let data = vec![S::default(); grid.cells() * pattern.len()];
        SgDia { grid, pattern, layout, data }
    }

    /// Builds a matrix by evaluating `f(cell, i, j, k, tap_index)` in `f64`
    /// for every in-grid entry and truncating to the storage precision.
    /// Out-of-grid taps remain zero regardless of `f`.
    pub fn from_fn(
        grid: Grid3,
        pattern: Pattern,
        layout: Layout,
        mut f: impl FnMut(usize, usize, usize, usize, usize) -> f64,
    ) -> Self {
        let mut m = Self::zeros(grid, pattern, layout);
        let taps: Vec<_> = m.pattern.taps().to_vec();
        for (cell, i, j, k) in grid.iter_cells() {
            for (t, tap) in taps.iter().enumerate() {
                if grid.contains_offset(i, j, k, tap.dx, tap.dy, tap.dz) {
                    m.set(cell, t, S::store_f64(f(cell, i, j, k, t)));
                }
            }
        }
        m
    }

    /// The grid this matrix lives on.
    #[inline]
    pub fn grid(&self) -> &Grid3 {
        &self.grid
    }

    /// The stencil pattern (one tap per stored diagonal).
    #[inline]
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The in-memory layout.
    #[inline]
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Number of matrix rows (= unknowns).
    #[inline]
    pub fn rows(&self) -> usize {
        self.grid.unknowns()
    }

    /// Flat index of `(cell, tap)` under the current layout.
    #[inline(always)]
    pub fn entry_index(&self, cell: usize, tap: usize) -> usize {
        match self.layout {
            Layout::Aos => cell * self.pattern.len() + tap,
            Layout::Soa => tap * self.grid.cells() + cell,
        }
    }

    /// Reads one entry.
    #[inline(always)]
    pub fn get(&self, cell: usize, tap: usize) -> S {
        self.data[self.entry_index(cell, tap)]
    }

    /// Writes one entry.
    #[inline(always)]
    pub fn set(&mut self, cell: usize, tap: usize, v: S) {
        let idx = self.entry_index(cell, tap);
        self.data[idx] = v;
    }

    /// The raw value array (layout-dependent order).
    #[inline]
    pub fn data(&self) -> &[S] {
        &self.data
    }

    /// Mutable access to the raw value array.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// For SOA layout: the contiguous per-tap slice of values (one value
    /// per cell).
    ///
    /// # Panics
    /// Panics if the layout is AOS.
    #[inline]
    pub fn tap_slice(&self, tap: usize) -> &[S] {
        assert_eq!(self.layout, Layout::Soa, "tap_slice requires SOA layout");
        let n = self.grid.cells();
        &self.data[tap * n..(tap + 1) * n]
    }

    /// [`tap_slice`](Self::tap_slice), mutably.
    ///
    /// # Panics
    /// Panics if the layout is AOS.
    #[inline]
    pub fn tap_slice_mut(&mut self, tap: usize) -> &mut [S] {
        assert_eq!(self.layout, Layout::Soa, "tap_slice_mut requires SOA layout");
        let n = self.grid.cells();
        &mut self.data[tap * n..(tap + 1) * n]
    }

    /// Number of stored entries (`cells × taps`), the kernel memory
    /// volume.
    #[inline]
    pub fn stored_entries(&self) -> usize {
        self.data.len()
    }

    /// Number of logically present nonzero positions: stored entries whose
    /// tap stays inside the grid (the paper's `#nnz`). Zero *values* inside
    /// the grid still count, matching how structured codes report nnz.
    pub fn nnz(&self) -> usize {
        // A tap at offset d stays inside an extent n for n − |d| cells.
        let inside = |n: usize, d: i32| n.saturating_sub(d.unsigned_abs() as usize);
        let g = &self.grid;
        self.pattern
            .taps()
            .iter()
            .map(|t| inside(g.nx, t.dx) * inside(g.ny, t.dy) * inside(g.nz, t.dz))
            .sum()
    }

    /// Bytes of floating-point data the format stores.
    #[inline]
    pub fn value_bytes(&self) -> usize {
        self.stored_entries() * S::BYTES
    }

    /// Converts the value array to another storage precision (`f64`
    /// round-trip; RNE truncation, overflow → ±∞), keeping the layout.
    /// This is the *direct truncation* of Algorithm 1 line 11.
    pub fn convert<T: Storage>(&self) -> SgDia<T> {
        SgDia {
            grid: self.grid,
            pattern: self.pattern.clone(),
            layout: self.layout,
            data: self.data.iter().map(|&v| T::store_f64(v.load_f64())).collect(),
        }
    }

    /// The matrix in the requested layout: borrowed when it already is,
    /// re-laid-out otherwise — for readers that need no copy of their own.
    pub fn in_layout(&self, layout: Layout) -> Cow<'_, SgDia<S>> {
        if layout == self.layout {
            Cow::Borrowed(self)
        } else {
            Cow::Owned(self.to_layout(layout))
        }
    }

    /// Re-lays the value array out in the requested layout.
    pub fn to_layout(&self, layout: Layout) -> SgDia<S> {
        if layout == self.layout {
            return self.clone();
        }
        let cells = self.grid.cells();
        let taps = self.pattern.len();
        let mut data = vec![S::default(); self.data.len()];
        for cell in 0..cells {
            for t in 0..taps {
                let dst = match layout {
                    Layout::Aos => cell * taps + t,
                    Layout::Soa => t * cells + cell,
                };
                data[dst] = self.get(cell, t);
            }
        }
        SgDia { grid: self.grid, pattern: self.pattern.clone(), layout, data }
    }

    /// Largest absolute finite value stored, and whether any stored value
    /// is non-finite. Used by the `need to scale` test of Algorithm 1.
    ///
    /// The maximum is kept in eight interleaved lanes: it does not depend on
    /// the order it is taken in, and one serial chain behind a branch per
    /// value runs at a tenth of the memory rate.
    pub fn abs_max(&self) -> (f64, bool) {
        const LANES: usize = 8;
        let mut max = [0.0f64; LANES];
        let mut nonfinite = false;
        let mut fold = |max: &mut f64, v: &S| {
            let x = v.load_f64().abs();
            // False for ±∞ and NaN alike.
            let finite = x <= f64::MAX;
            nonfinite |= !finite;
            *max = if finite & (x > *max) { x } else { *max };
        };
        let mut groups = self.data.chunks_exact(LANES);
        for group in &mut groups {
            max.iter_mut().zip(group).for_each(|(m, v)| fold(m, v));
        }
        groups.remainder().iter().for_each(|v| fold(&mut max[0], v));
        (max.into_iter().fold(0.0, f64::max), nonfinite)
    }

    /// True if every stored value is finite (no overflow happened during
    /// truncation).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// The matrix diagonal (one value per unknown, `f64`), reading the
    /// scalar diagonal taps: field `c` of the result is the plane of
    /// component `c`'s diagonal tap.
    pub fn extract_diagonal(&self) -> Vec<f64> {
        let cells = self.grid.cells();
        let mut out = Vec::with_capacity(self.rows());
        for t in self.pattern.diagonal_indices() {
            match self.layout {
                Layout::Soa => out.extend(self.tap_slice(t).iter().map(|v| v.load_f64())),
                Layout::Aos => out.extend((0..cells).map(|cell| self.get(cell, t).load_f64())),
            }
        }
        out
    }

    /// Transposes the matrix. The result has the transposed pattern; entry
    /// `Aᵀ(col_cell, tapᵀ) = A(row_cell, tap)`.
    pub fn transpose(&self) -> SgDia<S> {
        let tp = self.pattern.transpose();
        let mut out = SgDia::zeros(self.grid, tp, self.layout);
        let taps: Vec<_> = self.pattern.taps().to_vec();
        for (cell, i, j, k) in self.grid.iter_cells() {
            for (t, tap) in taps.iter().enumerate() {
                if !self.grid.contains_offset(i, j, k, tap.dx, tap.dy, tap.dz) {
                    continue;
                }
                let nb = (cell as i64 + self.grid.stride(tap.dx, tap.dy, tap.dz)) as usize;
                let tt = out
                    .pattern
                    .tap_index(tap.transpose())
                    .expect("transposed tap missing from transposed pattern");
                out.set(nb, tt, self.get(cell, t));
            }
        }
        out
    }
}

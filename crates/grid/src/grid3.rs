//! Logical 3-D structured grid.

/// A logically rectangular grid of `nx × ny × nz` cells with `components`
/// unknowns per cell.
///
/// Cells are numbered row-major with `x` fastest:
/// `cell(i, j, k) = (k * ny + j) * nx + i`. Unknowns are numbered
/// component-major: `unknown = c * cells + cell`, so a vector of a vector
/// PDE is `components` contiguous scalar *fields* ([`Grid3::field`]) and
/// every coupling of a block stencil is a scalar stencil tap from one
/// field to another. The other choice — cell-major, which keeps a cell's
/// `r × r` block contiguous, as SysPFMG-style codes do — makes every inner
/// loop over an x-line stride-`r`: nothing vectorises and a narrow storage
/// format has no SIMD vector to amortise its convert over (paper §5.1,
/// AOS → SOA, applied to the vectors). This is the one place the numbering
/// is spelled; everything else slices fields or calls
/// [`Grid3::unknown_of`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grid3 {
    /// Cells along the fastest-varying axis.
    pub nx: usize,
    /// Cells along the middle axis.
    pub ny: usize,
    /// Cells along the slowest-varying axis.
    pub nz: usize,
    /// Unknowns per cell (1 for scalar PDEs).
    pub components: usize,
}

impl Grid3 {
    /// Scalar grid of the given extents.
    ///
    /// # Panics
    /// Panics if any extent is zero.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        Self::with_components(nx, ny, nz, 1)
    }

    /// Cubic scalar grid `n × n × n`.
    pub fn cube(n: usize) -> Self {
        Self::new(n, n, n)
    }

    /// Grid with `components` unknowns per cell.
    ///
    /// # Panics
    /// Panics if any extent or the component count is zero.
    pub fn with_components(nx: usize, ny: usize, nz: usize, components: usize) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "grid extents must be positive");
        assert!(components > 0, "component count must be positive");
        Grid3 { nx, ny, nz, components }
    }

    /// Number of grid cells.
    #[inline]
    pub const fn cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Number of unknowns (`cells × components`); the paper's `#dof`.
    #[inline]
    pub const fn unknowns(&self) -> usize {
        self.cells() * self.components
    }

    /// Linear index of cell `(i, j, k)`.
    #[inline]
    pub const fn cell(&self, i: usize, j: usize, k: usize) -> usize {
        (k * self.ny + j) * self.nx + i
    }

    /// Linear index of unknown `(i, j, k, c)`.
    #[inline]
    pub const fn unknown(&self, i: usize, j: usize, k: usize, c: usize) -> usize {
        self.unknown_of(self.cell(i, j, k), c)
    }

    /// Linear index of component `c` of the cell with linear index `cell`.
    #[inline]
    pub const fn unknown_of(&self, cell: usize, c: usize) -> usize {
        c * self.cells() + cell
    }

    /// The unknowns of component `c`: one contiguous scalar field, cells
    /// in [`Grid3::cell`] order.
    #[inline]
    pub const fn field(&self, c: usize) -> std::ops::Range<usize> {
        c * self.cells()..(c + 1) * self.cells()
    }

    /// Inverse of [`Grid3::cell`].
    #[inline]
    pub const fn coords(&self, cell: usize) -> (usize, usize, usize) {
        let i = cell % self.nx;
        let j = (cell / self.nx) % self.ny;
        let k = cell / (self.nx * self.ny);
        (i, j, k)
    }

    /// True when `(i + dx, j + dy, k + dz)` stays inside the grid.
    #[inline]
    pub const fn contains_offset(
        &self,
        i: usize,
        j: usize,
        k: usize,
        dx: i32,
        dy: i32,
        dz: i32,
    ) -> bool {
        let ii = i as i64 + dx as i64;
        let jj = j as i64 + dy as i64;
        let kk = k as i64 + dz as i64;
        ii >= 0
            && jj >= 0
            && kk >= 0
            && (ii as usize) < self.nx
            && (jj as usize) < self.ny
            && (kk as usize) < self.nz
    }

    /// Signed linear cell stride of a spatial offset: moving by
    /// `(dx, dy, dz)` changes the cell index by this amount (valid only in
    /// the grid interior; boundary validity is checked separately).
    #[inline]
    pub const fn stride(&self, dx: i32, dy: i32, dz: i32) -> i64 {
        dx as i64 + (dy as i64) * self.nx as i64 + (dz as i64) * (self.nx * self.ny) as i64
    }

    /// The cells of `cells` whose neighbour at `(dx, dy, dz)` is inside the
    /// grid, as one contiguous run per x-row, in cell order — what a loop
    /// over one stencil tap's plane walks instead of asking
    /// [`contains_offset`](Self::contains_offset) per entry. The neighbour
    /// of run `r` is `r` shifted by [`stride`](Self::stride).
    pub fn neighbour_runs(
        &self,
        cells: std::ops::Range<usize>,
        dx: i32,
        dy: i32,
        dz: i32,
    ) -> impl Iterator<Item = std::ops::Range<usize>> {
        // The indices along an extent-`n` axis whose neighbour at `d` exists.
        let span = |n: usize, d: i32| (-d).max(0) as usize..n.saturating_sub(d.max(0) as usize);
        let (nx, ny) = (self.nx, self.ny);
        let (xs, ys, zs) = (span(nx, dx), span(ny, dy), span(self.nz, dz));
        (cells.start / nx..cells.end.div_ceil(nx)).filter_map(move |row| {
            if !ys.contains(&(row % ny)) || !zs.contains(&(row / ny)) {
                return None;
            }
            let run = (row * nx + xs.start).max(cells.start)..(row * nx + xs.end).min(cells.end);
            (!run.is_empty()).then_some(run)
        })
    }

    /// The grid after one step of full coarsening (×2 in every direction,
    /// keeping cells with even coordinates; extents round up so boundary
    /// cells survive).
    pub fn coarsen(&self) -> Grid3 {
        self.coarsen_axes((true, true, true))
    }

    /// Coarsening restricted to the selected axes — the PFMG-style
    /// *semicoarsening* used for strongly anisotropic operators, where
    /// only the strongly coupled direction(s) are coarsened.
    pub fn coarsen_axes(&self, axes: (bool, bool, bool)) -> Grid3 {
        Grid3 {
            nx: if axes.0 { self.nx.div_ceil(2) } else { self.nx },
            ny: if axes.1 { self.ny.div_ceil(2) } else { self.ny },
            nz: if axes.2 { self.nz.div_ceil(2) } else { self.nz },
            components: self.components,
        }
    }

    /// True when the grid is too small to coarsen further.
    pub fn is_coarsest(&self, min_cells: usize) -> bool {
        self.cells() <= min_cells || (self.nx <= 2 && self.ny <= 2 && self.nz <= 2)
    }

    /// Iterates over all cells in index order, yielding `(cell, i, j, k)`.
    pub fn iter_cells(&self) -> impl Iterator<Item = (usize, usize, usize, usize)> + '_ {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        (0..nz).flat_map(move |k| {
            (0..ny).flat_map(move |j| (0..nx).map(move |i| ((k * ny + j) * nx + i, i, j, k)))
        })
    }

    /// Splits `0..nz` into at most `parts` contiguous z-slabs of
    /// near-equal size, for rayon parallelism across planes.
    pub fn z_slabs(&self, parts: usize) -> Vec<std::ops::Range<usize>> {
        let parts = parts.clamp(1, self.nz.max(1));
        let base = self.nz / parts;
        let extra = self.nz % parts;
        let mut out = Vec::with_capacity(parts);
        let mut start = 0;
        for p in 0..parts {
            let len = base + usize::from(p < extra);
            out.push(start..start + len);
            start += len;
        }
        out
    }
}

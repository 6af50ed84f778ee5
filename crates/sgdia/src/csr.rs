//! Compressed-sparse-row reference matrix.
//!
//! Two jobs (both from the paper):
//!
//! 1. *Validation*: every structured kernel is tested against the CSR
//!    result on the same operator.
//! 2. *Comparison point*: CSR SpMV/SpTRSV stand in for the vendor-library
//!    kernels (ARMPL/MKL) of Fig. 7 and embody the Table 2 observation
//!    that per-element index arrays cap the achievable mixed-precision
//!    speedup.

use fp16mg_fp::{Scalar, Storage};

use crate::SgDia;

/// CSR matrix with `u32` column indices (the paper's "CSR int32" row in
/// Table 2; see [`crate::model`] for the int64 variant's byte model).
#[derive(Clone, Debug)]
pub struct Csr<S: Storage> {
    rows: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<S>,
}

impl<S: Storage> Csr<S> {
    /// Builds from explicit arrays.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent.
    pub fn new(rows: usize, row_ptr: Vec<u32>, col_idx: Vec<u32>, values: Vec<S>) -> Self {
        assert_eq!(row_ptr.len(), rows + 1, "row_ptr length");
        assert_eq!(col_idx.len(), values.len(), "col_idx/values length");
        assert_eq!(row_ptr[rows] as usize, values.len(), "row_ptr tail");
        for w in row_ptr.windows(2) {
            assert!(w[0] <= w[1], "row_ptr not monotone");
        }
        Csr { rows, row_ptr, col_idx, values }
    }

    /// Converts a structured matrix, dropping out-of-grid (zero-filled)
    /// entries and sorting columns within each row. Rows and columns are
    /// the unknowns in [`Grid3::unknown_of`](fp16mg_grid::Grid3::unknown_of) order.
    pub fn from_sgdia(a: &SgDia<S>) -> Self {
        let grid = *a.grid();
        let rows = a.rows();
        // Within a row, ascending columns are ascending (input field,
        // spatial stride).
        let mut taps: Vec<_> = a.pattern().taps().iter().copied().enumerate().collect();
        taps.sort_by_key(|(_, tap)| (tap.cin, grid.stride(tap.dx, tap.dy, tap.dz)));
        // Pass 1: count entries per row.
        let mut row_ptr = vec![0u32; rows + 1];
        for (cell, i, j, k) in grid.iter_cells() {
            for (_, tap) in &taps {
                if grid.contains_offset(i, j, k, tap.dx, tap.dy, tap.dz) {
                    row_ptr[grid.unknown_of(cell, tap.cout as usize) + 1] += 1;
                }
            }
        }
        for row in 0..rows {
            row_ptr[row + 1] += row_ptr[row];
        }
        // Pass 2: scatter.
        let nnz = row_ptr[rows] as usize;
        let mut col_idx = vec![0u32; nnz];
        let mut values = vec![S::default(); nnz];
        let mut cursor: Vec<u32> = row_ptr[..rows].to_vec();
        for (cell, i, j, k) in grid.iter_cells() {
            for &(t, tap) in &taps {
                if !grid.contains_offset(i, j, k, tap.dx, tap.dy, tap.dz) {
                    continue;
                }
                let nb = (cell as i64 + grid.stride(tap.dx, tap.dy, tap.dz)) as usize;
                let row = grid.unknown_of(cell, tap.cout as usize);
                let e = cursor[row] as usize;
                col_idx[e] = grid.unknown_of(nb, tap.cin as usize) as u32;
                values[e] = a.get(cell, t);
                cursor[row] += 1;
            }
        }
        Csr { rows, row_ptr, col_idx, values }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row pointer array.
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// Column index array.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Value array.
    pub fn values(&self) -> &[S] {
        &self.values
    }

    /// Total bytes the format stores (values + int32 indices + row
    /// pointer), the Table 2 memory-volume numerator.
    pub fn bytes(&self) -> usize {
        self.values.len() * S::BYTES + self.col_idx.len() * 4 + self.row_ptr.len() * 4
    }

    /// `y = A x` with on-the-fly widening of the stored values to `P`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn spmv<P: Scalar>(&self, x: &[P], y: &mut [P]) {
        assert_eq!(x.len(), self.rows, "x length");
        assert_eq!(y.len(), self.rows, "y length");
        for (row, out) in y.iter_mut().enumerate() {
            let lo = self.row_ptr[row] as usize;
            let hi = self.row_ptr[row + 1] as usize;
            let mut acc = P::ZERO;
            for (&col, &v) in self.col_idx[lo..hi].iter().zip(&self.values[lo..hi]) {
                let a = P::from_f64(v.load_f64());
                acc = a.mul_add(x[col as usize], acc);
            }
            *out = acc;
        }
    }

    /// Solves `L x = b` where `L` is the lower-triangular part of the
    /// matrix including the diagonal (entries with `col > row` are
    /// ignored). Forward substitution in natural row order.
    ///
    /// # Panics
    /// Panics on dimension mismatch or a zero/absent diagonal.
    pub fn solve_lower<P: Scalar>(&self, b: &[P], x: &mut [P]) {
        assert_eq!(b.len(), self.rows, "b length");
        assert_eq!(x.len(), self.rows, "x length");
        for row in 0..self.rows {
            let lo = self.row_ptr[row] as usize;
            let hi = self.row_ptr[row + 1] as usize;
            let mut acc = b[row];
            let mut diag = P::ZERO;
            for (&col, &v) in self.col_idx[lo..hi].iter().zip(&self.values[lo..hi]) {
                let col = col as usize;
                let a = P::from_f64(v.load_f64());
                if col < row {
                    acc = (-a).mul_add(x[col], acc);
                } else if col == row {
                    diag = a;
                }
            }
            assert!(diag != P::ZERO, "zero diagonal in row {row}");
            x[row] = acc / diag;
        }
    }

    /// Solves `U x = b` where `U` is the upper-triangular part including
    /// the diagonal. Backward substitution.
    ///
    /// # Panics
    /// Panics on dimension mismatch or a zero/absent diagonal.
    pub fn solve_upper<P: Scalar>(&self, b: &[P], x: &mut [P]) {
        assert_eq!(b.len(), self.rows, "b length");
        assert_eq!(x.len(), self.rows, "x length");
        for row in (0..self.rows).rev() {
            let lo = self.row_ptr[row] as usize;
            let hi = self.row_ptr[row + 1] as usize;
            let mut acc = b[row];
            let mut diag = P::ZERO;
            for (&col, &v) in self.col_idx[lo..hi].iter().zip(&self.values[lo..hi]) {
                let col = col as usize;
                let a = P::from_f64(v.load_f64());
                if col > row {
                    acc = (-a).mul_add(x[col], acc);
                } else if col == row {
                    diag = a;
                }
            }
            assert!(diag != P::ZERO, "zero diagonal in row {row}");
            x[row] = acc / diag;
        }
    }

    /// Dense `f64` copy of one row (for tests on small matrices).
    pub fn dense_row(&self, row: usize, out: &mut [f64]) {
        out.fill(0.0);
        let lo = self.row_ptr[row] as usize;
        let hi = self.row_ptr[row + 1] as usize;
        for e in lo..hi {
            out[self.col_idx[e] as usize] = self.values[e].load_f64();
        }
    }
}

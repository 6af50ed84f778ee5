//! Coarse-grid direct solver.
//!
//! The V-cycle bottoms out in a dense LU factorization of the coarsest
//! operator, computed once during setup in `f64` (coarse grids are tiny —
//! `min_coarse_cells` bounded — so the O(n³) factorization and O(n²)
//! solves are negligible; guideline 3 is precisely that coarse levels
//! don't matter for time).

use fp16mg_sgdia::{Csr, SgDia};

/// Why a dense LU factorization failed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FactorError {
    /// The pivot in this column was exactly zero: the matrix is
    /// (numerically) singular.
    ZeroPivot {
        /// Column whose pivot vanished.
        column: usize,
    },
    /// The pivot in this column was ±∞ or NaN — the input matrix carried
    /// non-finite values into the factorization.
    NonFinitePivot {
        /// Column whose pivot is non-finite.
        column: usize,
        /// The offending value.
        value: f64,
    },
}

impl FactorError {
    /// The column whose pivot failed.
    pub fn column(&self) -> usize {
        match self {
            FactorError::ZeroPivot { column } => *column,
            FactorError::NonFinitePivot { column, .. } => *column,
        }
    }
}

impl core::fmt::Display for FactorError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FactorError::ZeroPivot { column } => {
                write!(f, "zero pivot in column {column} during dense LU")
            }
            FactorError::NonFinitePivot { column, value } => {
                write!(f, "non-finite pivot {value} in column {column} during dense LU")
            }
        }
    }
}

impl std::error::Error for FactorError {}

/// Dense LU factorization with partial pivoting.
#[derive(Clone, Debug)]
pub struct DenseLu {
    n: usize,
    /// Packed L\U factors, row-major.
    lu: Vec<f64>,
    /// Row permutation.
    piv: Vec<usize>,
}

impl DenseLu {
    /// Maximum unknown count accepted (guards against accidentally huge
    /// coarse grids).
    pub const MAX_UNKNOWNS: usize = 8192;

    /// Factors the structured matrix.
    ///
    /// # Errors
    /// [`FactorError`] identifying the failed pivot column, and whether it
    /// vanished or was non-finite.
    ///
    /// # Panics
    /// Panics if the matrix exceeds [`DenseLu::MAX_UNKNOWNS`]; `Mg` setup
    /// refuses such a coarsest level with a typed `SetupError` first.
    pub fn factor(a: &SgDia<f64>) -> Result<Self, FactorError> {
        let n = a.rows();
        assert!(n <= Self::MAX_UNKNOWNS, "coarse grid too large for dense LU ({n})");
        let csr = Csr::<f64>::from_sgdia(a);
        let mut lu = vec![0.0f64; n * n];
        for row in 0..n {
            let lo = csr.row_ptr()[row] as usize;
            let hi = csr.row_ptr()[row + 1] as usize;
            for e in lo..hi {
                lu[row * n + csr.col_idx()[e] as usize] = csr.values()[e];
            }
        }
        let mut piv: Vec<usize> = (0..n).collect();
        for col in 0..n {
            // Partial pivot.
            let mut p = col;
            for row in col + 1..n {
                if lu[row * n + col].abs() > lu[p * n + col].abs() {
                    p = row;
                }
            }
            let pv = lu[p * n + col];
            if pv == 0.0 {
                return Err(FactorError::ZeroPivot { column: col });
            }
            if !pv.is_finite() {
                return Err(FactorError::NonFinitePivot { column: col, value: pv });
            }
            if p != col {
                piv.swap(p, col);
                for j in 0..n {
                    lu.swap(p * n + j, col * n + j);
                }
            }
            let inv = 1.0 / lu[col * n + col];
            for row in col + 1..n {
                let f = lu[row * n + col] * inv;
                lu[row * n + col] = f;
                if f == 0.0 {
                    continue;
                }
                for j in col + 1..n {
                    lu[row * n + j] -= f * lu[col * n + j];
                }
            }
        }
        Ok(DenseLu { n, lu, piv })
    }

    /// Number of unknowns.
    pub fn rows(&self) -> usize {
        self.n
    }

    /// Solves `A x = b` in place: `x` holds `b` on entry, the solution on
    /// exit (permutation applied internally).
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn solve(&self, x: &mut [f64], scratch: &mut [f64]) {
        let n = self.n;
        assert_eq!(x.len(), n, "x length");
        assert_eq!(scratch.len(), n, "scratch length");
        // Apply permutation: scratch = P b.
        for (row, &p) in self.piv.iter().enumerate() {
            scratch[row] = x[p];
        }
        // Forward substitution (unit lower).
        for row in 1..n {
            let mut acc = scratch[row];
            let (head, _) = scratch.split_at(row);
            for (&l, &s) in self.lu[row * n..row * n + row].iter().zip(head) {
                acc -= l * s;
            }
            scratch[row] = acc;
        }
        // Backward substitution.
        for row in (0..n).rev() {
            let mut acc = scratch[row];
            for (&l, &sol) in self.lu[row * n + row + 1..(row + 1) * n].iter().zip(&x[row + 1..]) {
                acc -= l * sol;
            }
            x[row] = acc / self.lu[row * n + row];
        }
    }
}

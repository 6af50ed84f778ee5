//! Stencil pattern: an ordered, deduplicated set of taps.

use crate::Tap;
use std::collections::HashMap;

/// An ordered set of stencil taps shared by every row of a structured
/// matrix.
///
/// The number of taps equals the number of SG-DIA "diagonals" the matrix
/// stores. Taps are sorted by [`Tap::key`] and unique; construction
/// enforces both.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pattern {
    taps: Vec<Tap>,
    components: usize,
    index: HashMap<Tap, usize>,
}

impl Pattern {
    /// Builds a pattern from arbitrary taps: deduplicates, sorts, and
    /// infers the component count from the largest component id.
    pub fn new(mut taps: Vec<Tap>) -> Self {
        taps.sort_by_key(|t| t.key());
        taps.dedup();
        let components = taps.iter().map(|t| (t.cin.max(t.cout) as usize) + 1).max().unwrap_or(1);
        let index = taps.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        Pattern { taps, components, index }
    }

    /// The 7-point pattern (center + 6 faces), `3d7` in the paper.
    pub fn p7() -> Self {
        let mut taps = vec![Tap::at(0, 0, 0)];
        for d in [-1i32, 1] {
            taps.push(Tap::at(d, 0, 0));
            taps.push(Tap::at(0, d, 0));
            taps.push(Tap::at(0, 0, d));
        }
        Pattern::new(taps)
    }

    /// The 15-point pattern (center + 6 faces + 8 corners), `3d15`; the
    /// pattern of the paper's solid-3D elasticity discretization.
    pub fn p15() -> Self {
        let mut taps = Pattern::p7().taps;
        for dz in [-1i32, 1] {
            for dy in [-1i32, 1] {
                for dx in [-1i32, 1] {
                    taps.push(Tap::at(dx, dy, dz));
                }
            }
        }
        Pattern::new(taps)
    }

    /// The 19-point pattern (center + 6 faces + 12 edges), `3d19`; the
    /// pattern of the paper's weather problem.
    pub fn p19() -> Self {
        let mut taps = Vec::new();
        for dz in -1i32..=1 {
            for dy in -1i32..=1 {
                for dx in -1i32..=1 {
                    if dx.abs() + dy.abs() + dz.abs() <= 2 {
                        taps.push(Tap::at(dx, dy, dz));
                    }
                }
            }
        }
        Pattern::new(taps)
    }

    /// The full 27-point pattern (3×3×3 cube), `3d27`; the pattern of the
    /// laplace27 benchmark and the closure of Galerkin coarsening.
    pub fn p27() -> Self {
        let mut taps = Vec::new();
        for dz in -1i32..=1 {
            for dy in -1i32..=1 {
                for dx in -1i32..=1 {
                    taps.push(Tap::at(dx, dy, dz));
                }
            }
        }
        Pattern::new(taps)
    }

    /// The names [`Pattern::by_name`] and [`Pattern::from_name`]
    /// recognize, in tap-count order.
    pub const NAMES: [&'static str; 4] = ["3d7", "3d15", "3d19", "3d27"];

    /// Looks a named pattern up ("3d7", "3d15", "3d19", "3d27").
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "3d7" => Some(Self::p7()),
            "3d15" => Some(Self::p15()),
            "3d19" => Some(Self::p19()),
            "3d27" => Some(Self::p27()),
            _ => None,
        }
    }

    /// [`Pattern::by_name`] with a typed error that names the valid
    /// patterns — for call sites that surface the failure to a user
    /// instead of unwrapping.
    ///
    /// # Errors
    /// [`UnknownPattern`] carrying the rejected name.
    pub fn from_name(name: &str) -> Result<Self, UnknownPattern> {
        Self::by_name(name).ok_or_else(|| UnknownPattern { name: name.to_string() })
    }

    /// Replicates a scalar pattern over all `r × r` component pairs,
    /// producing the block pattern of an `r`-component vector PDE.
    ///
    /// # Panics
    /// Panics if the pattern already has multiple components or `r == 0`.
    pub fn with_components(&self, r: usize) -> Self {
        assert!(r >= 1, "component count must be positive");
        assert_eq!(self.components, 1, "pattern already has components");
        assert!(r <= u8::MAX as usize + 1, "too many components");
        let mut taps = Vec::with_capacity(self.taps.len() * r * r);
        for t in &self.taps {
            for cout in 0..r as u8 {
                for cin in 0..r as u8 {
                    taps.push(Tap::at_comp(t.dx, t.dy, t.dz, cout, cin));
                }
            }
        }
        Pattern::new(taps)
    }

    /// Number of taps (= SG-DIA diagonals).
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// True when the pattern has no taps.
    pub fn is_empty(&self) -> bool {
        self.taps.is_empty()
    }

    /// Number of components per grid cell.
    pub fn components(&self) -> usize {
        self.components
    }

    /// The taps in row-major order.
    pub fn taps(&self) -> &[Tap] {
        &self.taps
    }

    /// Index of a tap within the pattern, if present.
    pub fn tap_index(&self, tap: Tap) -> Option<usize> {
        self.index.get(&tap).copied()
    }

    /// Indices of the exact scalar diagonal taps, one per component (in
    /// component order).
    ///
    /// # Panics
    /// Panics if any component lacks a diagonal tap.
    pub fn diagonal_indices(&self) -> Vec<usize> {
        (0..self.components as u8)
            .map(|c| {
                self.tap_index(Tap::at_comp(0, 0, 0, c, c))
                    .expect("pattern has no diagonal tap for some component")
            })
            .collect()
    }

    /// Splits into (strict lower, diagonal block, strict upper) by spatial
    /// offset sign; within the diagonal block all `r × r` component pairs
    /// stay together (block Gauss–Seidel convention).
    pub fn split(&self) -> (Pattern, Pattern, Pattern) {
        let mut lower = Vec::new();
        let mut diag = Vec::new();
        let mut upper = Vec::new();
        for &t in &self.taps {
            match t.spatial_sign() {
                -1 => lower.push(t),
                0 => diag.push(t),
                _ => upper.push(t),
            }
        }
        (Pattern::new(lower), Pattern::new(diag), Pattern::new(upper))
    }

    /// The lower-triangular pattern including the diagonal block: 3d7 →
    /// 3d4, 3d19 → 3d10, 3d27 → 3d14 (Fig. 7's SpTRSV patterns).
    pub fn lower_with_diag(&self) -> Pattern {
        let taps = self.taps.iter().copied().filter(|t| t.spatial_sign() <= 0).collect();
        Pattern::new(taps)
    }

    /// The transposed pattern (offsets negated, component pairs swapped).
    /// Symmetric patterns map to themselves.
    pub fn transpose(&self) -> Pattern {
        Pattern::new(self.taps.iter().map(|t| t.transpose()).collect())
    }

    /// True when the pattern holds the transpose of every tap it holds:
    /// the pattern a symmetric matrix needs.
    pub fn is_symmetric(&self) -> bool {
        self.taps.iter().all(|t| self.index.contains_key(&t.transpose()))
    }

    /// Maximum absolute spatial offset along any axis (the "radius"; 1 for
    /// all the standard patterns, possibly larger for RAP products before
    /// re-closure).
    pub fn radius(&self) -> i32 {
        self.taps.iter().map(|t| t.dx.abs().max(t.dy.abs()).max(t.dz.abs())).max().unwrap_or(0)
    }

    /// Conventional name: `"3d{n}"` with the spatial tap count (component
    /// pairs collapse onto their spatial offset), e.g. `3d27` for a
    /// 3-component pattern with 27 spatial offsets.
    pub fn name(&self) -> String {
        let mut offsets: Vec<(i32, i32, i32)> =
            self.taps.iter().map(|t| (t.dz, t.dy, t.dx)).collect();
        offsets.sort_unstable();
        offsets.dedup();
        format!("3d{}", offsets.len())
    }

    /// Number of distinct spatial offsets.
    pub fn spatial_len(&self) -> usize {
        let mut offsets: Vec<(i32, i32, i32)> =
            self.taps.iter().map(|t| (t.dz, t.dy, t.dx)).collect();
        offsets.sort_unstable();
        offsets.dedup();
        offsets.len()
    }
}

/// A pattern name [`Pattern::from_name`] did not recognize. The display
/// form lists the valid names, so surfacing it verbatim is already a
/// helpful message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownPattern {
    /// The rejected name.
    pub name: String,
}

impl core::fmt::Display for UnknownPattern {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "unknown pattern {:?}, valid names are {}", self.name, Pattern::NAMES.join(", "))
    }
}

impl std::error::Error for UnknownPattern {}

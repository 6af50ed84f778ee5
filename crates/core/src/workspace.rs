//! Preallocated per-level V-cycle workspace arena.
//!
//! Every buffer the solve hot loop touches — the per-level iterate,
//! right-hand side, residual, and the five smoother/rescale scratch
//! vectors — is carved out of one contiguous allocation at setup time
//! (the Krylov scalar is converted to the hierarchy precision directly
//! into and out of the finest level's `f` and `u`). After `Mg::setup`
//! returns, a steady-state V-cycle (and the Krylov iteration wrapped
//! around it) performs **zero** heap allocations; the counting-allocator
//! gate in `crates/problems/tests/zero_alloc.rs` enforces this.
//!
//! The arena is laid out level-major — all eight buffers of level 0,
//! then all eight of level 1, … — so a future tiled smoother can hand
//! each tile a disjoint sub-span of a level's region without
//! reallocating (ROADMAP item 1). Sizing is fully checked: hostile
//! grid dimensions surface as [`SetupError::AllocTooLarge`], never as a
//! capacity-overflow panic.

use crate::hierarchy::SetupError;
use fp16mg_fp::Scalar;
use fp16mg_grid::Grid3;

/// Buffers carved per level: `u`, `f`, `r`, `t1`..`t5`.
pub(crate) const BUFS_PER_LEVEL: usize = 8;

/// Hard ceiling on a single workspace arena. Anything larger than this
/// is a hostile or nonsensical request, not a real problem; refusing it
/// with a typed error keeps the setup path abort-free.
pub const MAX_ARENA_BYTES: u64 = 1 << 40;

/// The eight per-level solve buffers, borrowed disjointly from the arena.
///
/// `u` is the iterate, `f` the level right-hand side, `r` the residual;
/// `t1`..`t5` are smoother/rescale scratch (scaled iterate, scaled rhs,
/// and up to three sweep-internal vectors for ILU/Chebyshev).
pub(crate) struct LevelBufs<'a, Pr: Scalar> {
    pub u: &'a mut [Pr],
    pub f: &'a mut [Pr],
    pub r: &'a mut [Pr],
    pub t1: &'a mut [Pr],
    pub t2: &'a mut [Pr],
    pub t3: &'a mut [Pr],
    pub t4: &'a mut [Pr],
    pub t5: &'a mut [Pr],
}

/// One contiguous arena holding every V-cycle temporary, owned by the
/// hierarchy and carved once at setup.
pub(crate) struct Workspace<Pr: Scalar> {
    buf: Vec<Pr>,
    /// Element offset of each level's region within `buf`.
    offsets: Vec<usize>,
    /// Unknown count of each level.
    sizes: Vec<usize>,
    bytes: usize,
}

/// Checked unknown count for a grid: `nx·ny·nz·components` with every
/// product checked, so hostile dimensions fail typed instead of wrapping
/// in release builds.
pub(crate) fn checked_unknowns(g: &Grid3) -> Result<usize, SetupError> {
    g.nx.checked_mul(g.ny)
        .and_then(|v| v.checked_mul(g.nz))
        .and_then(|v| v.checked_mul(g.components))
        .ok_or(SetupError::AllocTooLarge {
            what: "grid unknowns",
            bytes: u64::MAX,
            limit: MAX_ARENA_BYTES,
        })
}

fn too_large(what: &'static str) -> SetupError {
    SetupError::AllocTooLarge { what, bytes: u64::MAX, limit: MAX_ARENA_BYTES }
}

impl<Pr: Scalar> Workspace<Pr> {
    /// Size and allocate the arena for a hierarchy whose smoothed levels
    /// have `level_unknowns` unknowns each. All arithmetic is checked; an
    /// overflow or a request above [`MAX_ARENA_BYTES`] returns
    /// [`SetupError::AllocTooLarge`].
    pub fn for_levels(level_unknowns: &[usize]) -> Result<Self, SetupError> {
        let mut offsets = Vec::with_capacity(level_unknowns.len());
        let mut total = 0usize;
        for &n in level_unknowns {
            offsets.push(total);
            let region =
                n.checked_mul(BUFS_PER_LEVEL).ok_or_else(|| too_large("workspace level region"))?;
            total = total.checked_add(region).ok_or_else(|| too_large("workspace arena"))?;
        }
        let bytes = (total as u64)
            .checked_mul(core::mem::size_of::<Pr>() as u64)
            .ok_or_else(|| too_large("workspace arena"))?;
        if bytes > MAX_ARENA_BYTES {
            return Err(SetupError::AllocTooLarge {
                what: "workspace arena",
                bytes,
                limit: MAX_ARENA_BYTES,
            });
        }
        Ok(Self {
            buf: vec![Pr::ZERO; total],
            offsets,
            sizes: level_unknowns.to_vec(),
            bytes: bytes as usize,
        })
    }

    /// Total bytes held by the arena (the per-level regions).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Borrow the eight buffers of level `i`.
    pub fn level(&mut self, i: usize) -> LevelBufs<'_, Pr> {
        let (off, n) = (self.offsets[i], self.sizes[i]);
        carve(&mut self.buf[off..off + BUFS_PER_LEVEL * n], n)
    }

    /// Borrow the buffers of two distinct levels `i < j` simultaneously
    /// (fine/coarse pair for restrict/prolong).
    pub fn level_pair(&mut self, i: usize, j: usize) -> (LevelBufs<'_, Pr>, LevelBufs<'_, Pr>) {
        assert!(i < j, "level_pair requires i < j");
        let (ni, nj) = (self.sizes[i], self.sizes[j]);
        let (offi, offj) = (self.offsets[i], self.offsets[j]);
        let (lo, hi) = self.buf.split_at_mut(offj);
        let fine = carve(&mut lo[offi..offi + BUFS_PER_LEVEL * ni], ni);
        let coarse = carve(&mut hi[..BUFS_PER_LEVEL * nj], nj);
        (fine, coarse)
    }
}

fn carve<Pr: Scalar>(region: &mut [Pr], n: usize) -> LevelBufs<'_, Pr> {
    let (u, rest) = region.split_at_mut(n);
    let (f, rest) = rest.split_at_mut(n);
    let (r, rest) = rest.split_at_mut(n);
    let (t1, rest) = rest.split_at_mut(n);
    let (t2, rest) = rest.split_at_mut(n);
    let (t3, rest) = rest.split_at_mut(n);
    let (t4, t5) = rest.split_at_mut(n);
    LevelBufs { u, f, r, t1, t2, t3, t4, t5 }
}

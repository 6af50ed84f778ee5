//! Matrix and vector serialization.
//!
//! The paper distributes its evaluation matrices as files (the Zenodo
//! archive of §6.1); a usable reproduction needs an interchange story:
//!
//! * a compact little-endian binary format for [`SgDia`] matrices and
//!   dense vectors, preserving the storage precision byte-for-byte (an
//!   FP16 matrix round-trips without widening), and
//! * Matrix Market (`.mtx`, coordinate real general) import/export via
//!   the CSR representation, for exchange with every other sparse
//!   toolchain.

use std::io::{self, Read, Write};

use fp16mg_fp::{Bf16, Storage, F16};
use fp16mg_grid::Grid3;
use fp16mg_stencil::{Pattern, Tap};

use crate::{Csr, Layout, SgDia};

const MATRIX_MAGIC: &[u8; 8] = b"FP16MGA1";
const VECTOR_MAGIC: &[u8; 8] = b"FP16MGV1";

/// Hard resource limits for untrusted file ingestion. Every count read
/// from a header is validated against these *before* any allocation is
/// sized from it, so a corrupt (or malicious) header yields a typed
/// [`DecodeError`] instead of an attempted huge allocation.
pub mod limits {
    /// Maximum stencil taps in a matrix header (the widest built-in
    /// pattern is 27 taps; vector couplings multiply that by component
    /// pairs — 256 leaves an order of magnitude of headroom).
    pub const MAX_TAPS: usize = 256;
    /// Maximum grid extent per axis.
    pub const MAX_EXTENT: usize = 65_536;
    /// Maximum components per grid point.
    pub const MAX_COMPONENTS: usize = 64;
    /// Maximum total stored matrix entries (`cells × taps`), ≈ 16 GiB of
    /// FP64 payload — far beyond any in-tree problem, but finite.
    pub const MAX_ENTRIES: usize = 1 << 31;
    /// Maximum dense-vector length.
    pub const MAX_VECTOR_LEN: usize = 1 << 28;
    /// Maximum Matrix Market stored entries (before symmetric mirroring).
    pub const MAX_NNZ: usize = 1 << 30;
}

/// Typed reasons a matrix/vector file is refused. Carried as the inner
/// error of the `InvalidData` [`io::Error`] the readers return, so
/// callers can downcast for the precise cause:
///
/// ```ignore
/// let cause = err.get_ref().and_then(|e| e.downcast_ref::<DecodeError>());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The file does not start with the expected magic bytes.
    BadMagic,
    /// The header's precision tag does not match the requested storage.
    PrecisionMismatch,
    /// A zero dimension, component count, or tap count.
    Degenerate,
    /// A header count exceeds its [`limits`] bound: `(what, got, limit)`.
    LimitExceeded {
        /// Which count was refused (e.g. `"taps"`, `"extent"`).
        what: &'static str,
        /// The value the header declared.
        got: u64,
        /// The limit it exceeded.
        limit: u64,
    },
    /// `cells × taps` overflowed or exceeded [`limits::MAX_ENTRIES`].
    EntriesOverflow,
    /// A structural defect in the payload (duplicate taps, malformed
    /// records, bad indices, …).
    Malformed(&'static str),
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not an FP16MG file (bad magic)"),
            DecodeError::PrecisionMismatch => write!(f, "storage precision mismatch"),
            DecodeError::Degenerate => write!(f, "degenerate dimensions"),
            DecodeError::LimitExceeded { what, got, limit } => {
                write!(f, "header declares {got} {what}, limit is {limit}")
            }
            DecodeError::EntriesOverflow => {
                write!(f, "total stored entries overflow the ingestion limit")
            }
            DecodeError::Malformed(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for io::Error {
    fn from(e: DecodeError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Checks a header count against its limit.
fn check_limit(what: &'static str, got: u64, limit: usize) -> Result<usize, DecodeError> {
    if got > limit as u64 {
        return Err(DecodeError::LimitExceeded { what, got, limit: limit as u64 });
    }
    Ok(got as usize)
}

fn precision_tag<S: Storage>() -> u8 {
    match S::NAME {
        "64" => 0,
        "32" => 1,
        "16" => 2,
        "b16" => 3,
        // Storage is implemented exactly by f64/f32/F16/Bf16 (fp crate);
        // a fifth implementor would be a compile-time addition here too.
        other => unreachable!("unknown storage {other}"),
    }
}

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn bad(msg: &'static str) -> io::Error {
    DecodeError::Malformed(msg).into()
}

/// Writes a structured matrix in the binary format (little-endian;
/// values serialized in the matrix's own storage precision and layout).
pub fn write_matrix<S: Storage>(a: &SgDia<S>, w: &mut impl Write) -> io::Result<()> {
    w.write_all(MATRIX_MAGIC)?;
    let g = a.grid();
    write_u64(w, g.nx as u64)?;
    write_u64(w, g.ny as u64)?;
    write_u64(w, g.nz as u64)?;
    write_u64(w, g.components as u64)?;
    write_u64(w, a.pattern().len() as u64)?;
    w.write_all(&[precision_tag::<S>(), matches!(a.layout(), Layout::Soa) as u8])?;
    for t in a.pattern().taps() {
        w.write_all(&t.dx.to_le_bytes())?;
        w.write_all(&t.dy.to_le_bytes())?;
        w.write_all(&t.dz.to_le_bytes())?;
        w.write_all(&[t.cout, t.cin])?;
    }
    // Values, raw little-endian in storage precision.
    match S::BYTES {
        8 => {
            for v in a.data() {
                w.write_all(&v.load_f64().to_le_bytes())?;
            }
        }
        4 => {
            for v in a.data() {
                w.write_all(&v.load_f32().to_le_bytes())?;
            }
        }
        2 => {
            // F16 or BF16: write the raw bit pattern.
            for v in a.data() {
                let bits: u16 = match precision_tag::<S>() {
                    2 => F16::from_f32(v.load_f32()).to_bits(),
                    _ => Bf16::from_f32(v.load_f32()).to_bits(),
                };
                w.write_all(&bits.to_le_bytes())?;
            }
        }
        // Storage::BYTES is 8, 4, or 2 for the four sealed implementors.
        _ => unreachable!(),
    }
    Ok(())
}

/// Reads a matrix written by [`write_matrix`] with the same storage
/// precision `S`.
///
/// # Errors
/// `InvalidData` on magic, tag, limit, or structural mismatch; the inner
/// error is a [`DecodeError`] naming the precise cause. Header counts
/// are validated against [`limits`] before any allocation is sized from
/// them.
pub fn read_matrix<S: Storage>(r: &mut impl Read) -> io::Result<SgDia<S>> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MATRIX_MAGIC {
        return Err(DecodeError::BadMagic.into());
    }
    let nx = check_limit("extent", read_u64(r)?, limits::MAX_EXTENT)?;
    let ny = check_limit("extent", read_u64(r)?, limits::MAX_EXTENT)?;
    let nz = check_limit("extent", read_u64(r)?, limits::MAX_EXTENT)?;
    let components = check_limit("components", read_u64(r)?, limits::MAX_COMPONENTS)?;
    let ntaps = check_limit("taps", read_u64(r)?, limits::MAX_TAPS)?;
    let mut flags = [0u8; 2];
    r.read_exact(&mut flags)?;
    if flags[0] != precision_tag::<S>() {
        return Err(DecodeError::PrecisionMismatch.into());
    }
    let layout = if flags[1] == 1 { Layout::Soa } else { Layout::Aos };
    if nx == 0 || ny == 0 || nz == 0 || components == 0 || ntaps == 0 {
        return Err(DecodeError::Degenerate.into());
    }
    // Bound the total payload before building the grid: the per-axis
    // limits alone still admit a multiplied size far past anything we
    // are willing to allocate for an unauthenticated file.
    nx.checked_mul(ny)
        .and_then(|c| c.checked_mul(nz))
        .and_then(|c| c.checked_mul(components))
        .and_then(|c| c.checked_mul(ntaps))
        .filter(|&c| c <= limits::MAX_ENTRIES)
        .ok_or(DecodeError::EntriesOverflow)?;
    let mut taps = Vec::with_capacity(ntaps);
    for _ in 0..ntaps {
        let mut b = [0u8; 14];
        r.read_exact(&mut b)?;
        let offset = |lo: usize| -> io::Result<i32> {
            let bytes: [u8; 4] = b
                .get(lo..lo + 4)
                .and_then(|s| s.try_into().ok())
                .ok_or_else(|| bad("malformed tap record in header"))?;
            Ok(i32::from_le_bytes(bytes))
        };
        taps.push(Tap::at_comp(offset(0)?, offset(4)?, offset(8)?, b[12], b[13]));
    }
    let pattern = Pattern::new(taps);
    if pattern.len() != ntaps {
        return Err(bad("duplicate taps in pattern"));
    }
    let grid = Grid3::with_components(nx, ny, nz, components);
    let mut a = SgDia::<S>::zeros(grid, pattern, layout);
    let n = a.stored_entries();
    match S::BYTES {
        8 => {
            let mut b = [0u8; 8];
            for i in 0..n {
                r.read_exact(&mut b)?;
                a.data_mut()[i] = S::store_f64(f64::from_le_bytes(b));
            }
        }
        4 => {
            let mut b = [0u8; 4];
            for i in 0..n {
                r.read_exact(&mut b)?;
                a.data_mut()[i] = S::store_f32(f32::from_le_bytes(b));
            }
        }
        2 => {
            let f16 = precision_tag::<S>() == 2;
            let mut b = [0u8; 2];
            for i in 0..n {
                r.read_exact(&mut b)?;
                let bits = u16::from_le_bytes(b);
                let v = if f16 {
                    F16::from_bits(bits).to_f32()
                } else {
                    Bf16::from_bits(bits).to_f32()
                };
                a.data_mut()[i] = S::store_f32(v);
            }
        }
        // Storage::BYTES is 8, 4, or 2 for the four sealed implementors.
        _ => unreachable!(),
    }
    Ok(a)
}

/// Writes a dense `f64` vector.
pub fn write_vector(v: &[f64], w: &mut impl Write) -> io::Result<()> {
    w.write_all(VECTOR_MAGIC)?;
    write_u64(w, v.len() as u64)?;
    for &x in v {
        w.write_all(&x.to_le_bytes())?;
    }
    Ok(())
}

/// Reads a dense `f64` vector written by [`write_vector`].
///
/// # Errors
/// `InvalidData` on magic mismatch or a declared length beyond
/// [`limits::MAX_VECTOR_LEN`]; the inner error is a [`DecodeError`].
pub fn read_vector(r: &mut impl Read) -> io::Result<Vec<f64>> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != VECTOR_MAGIC {
        return Err(DecodeError::BadMagic.into());
    }
    let n = check_limit("vector entries", read_u64(r)?, limits::MAX_VECTOR_LEN)?;
    let mut out = Vec::with_capacity(n);
    let mut b = [0u8; 8];
    for _ in 0..n {
        r.read_exact(&mut b)?;
        out.push(f64::from_le_bytes(b));
    }
    Ok(out)
}

/// Exports a CSR matrix as Matrix Market coordinate/real/general
/// (1-based indices).
pub fn write_matrix_market<S: Storage>(a: &Csr<S>, w: &mut impl Write) -> io::Result<()> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% exported by fp16mg")?;
    writeln!(w, "{} {} {}", a.rows(), a.rows(), a.nnz())?;
    for row in 0..a.rows() {
        let lo = a.row_ptr()[row] as usize;
        let hi = a.row_ptr()[row + 1] as usize;
        for e in lo..hi {
            writeln!(w, "{} {} {:e}", row + 1, a.col_idx()[e] + 1, a.values()[e].load_f64())?;
        }
    }
    Ok(())
}

/// Imports a Matrix Market coordinate real (general or symmetric) file
/// as a CSR matrix in `f64`.
///
/// # Errors
/// `InvalidData` on malformed headers, indices out of range, or
/// non-square shapes.
pub fn read_matrix_market(r: &mut impl Read) -> io::Result<Csr<f64>> {
    let mut text = String::new();
    r.read_to_string(&mut text)?;
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| bad("empty file"))?;
    let h = header.to_ascii_lowercase();
    if !h.starts_with("%%matrixmarket matrix coordinate real") {
        return Err(bad("unsupported MatrixMarket header"));
    }
    let symmetric = h.contains("symmetric");
    let mut size_line = None;
    for line in lines.by_ref() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(t.to_string());
        break;
    }
    let size_line = size_line.ok_or_else(|| bad("missing size line"))?;
    let mut it = size_line.split_whitespace();
    let rows: usize = it.next().and_then(|s| s.parse().ok()).ok_or_else(|| bad("bad rows"))?;
    let cols: usize = it.next().and_then(|s| s.parse().ok()).ok_or_else(|| bad("bad cols"))?;
    let nnz: usize = it.next().and_then(|s| s.parse().ok()).ok_or_else(|| bad("bad nnz"))?;
    if rows != cols {
        return Err(bad("matrix is not square"));
    }
    check_limit("MatrixMarket entries", nnz as u64, limits::MAX_NNZ)?;
    check_limit("MatrixMarket rows", rows as u64, u32::MAX as usize)?;
    let mut triplets: Vec<(u32, u32, f64)> = Vec::with_capacity(nnz * (1 + symmetric as usize));
    for line in lines {
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let i: usize = it.next().and_then(|s| s.parse().ok()).ok_or_else(|| bad("bad row idx"))?;
        let j: usize = it.next().and_then(|s| s.parse().ok()).ok_or_else(|| bad("bad col idx"))?;
        let v: f64 = it.next().and_then(|s| s.parse().ok()).ok_or_else(|| bad("bad value"))?;
        if i == 0 || j == 0 || i > rows || j > cols {
            return Err(bad("index out of range"));
        }
        triplets.push(((i - 1) as u32, (j - 1) as u32, v));
        if symmetric && i != j {
            triplets.push(((j - 1) as u32, (i - 1) as u32, v));
        }
    }
    triplets.sort_unstable_by_key(|&(i, j, _)| (i, j));
    let mut row_ptr = vec![0u32; rows + 1];
    let mut col_idx = Vec::with_capacity(triplets.len());
    let mut values = Vec::with_capacity(triplets.len());
    for &(i, j, v) in &triplets {
        row_ptr[i as usize + 1] += 1;
        col_idx.push(j);
        values.push(v);
    }
    for rix in 0..rows {
        row_ptr[rix + 1] += row_ptr[rix];
    }
    Ok(Csr::new(rows, row_ptr, col_idx, values))
}

//! Unit tests for the half-precision formats.
//!
//! The strongest check here is exhaustiveness: binary16 has only 2^16 bit
//! patterns and `f32 -> f16` can be validated against the F16C hardware
//! converter on every interesting boundary, so the soft-float conversions
//! are tested bit-for-bit.

use crate::{simd, Bf16, Precision, Scalar, Storage, F16};

#[test]
fn f16_constants_round_trip() {
    assert_eq!(F16::MAX.to_f32(), 65504.0);
    assert_eq!(F16::ONE.to_f32(), 1.0);
    assert_eq!(F16::ZERO.to_f32(), 0.0);
    assert_eq!(F16::MIN_POSITIVE.to_f32(), 6.1035156e-5);
    assert_eq!(F16::MIN_POSITIVE_SUBNORMAL.to_f64(), 2.0f64.powi(-24));
    assert!(F16::INFINITY.is_infinite());
    assert!(F16::NAN.is_nan());
    assert!(!F16::NAN.is_infinite());
    assert!(F16::MAX.is_finite());
    assert!(!F16::INFINITY.is_finite());
}

#[test]
fn f16_every_value_round_trips_through_f32() {
    // Every binary16 value is exactly representable in f32, so
    // f16 -> f32 -> f16 must be the identity on all 65536 patterns.
    for bits in 0..=u16::MAX {
        let h = F16::from_bits(bits);
        let f = h.to_f32();
        let back = F16::from_f32(f);
        if h.is_nan() {
            assert!(back.is_nan(), "NaN pattern {bits:#06x} lost NaN-ness");
        } else {
            assert_eq!(back.to_bits(), bits, "pattern {bits:#06x} failed round trip (f32={f})");
        }
    }
}

#[test]
fn f16_overflow_saturates_to_infinity() {
    assert!(F16::from_f32(65536.0).is_infinite());
    assert!(F16::from_f32(1.0e8).is_infinite());
    assert!(F16::from_f32(-1.0e8).to_bits() == F16::NEG_INFINITY.to_bits());
    // 65520 is the first value that rounds up to infinity.
    assert!(F16::from_f32(65520.0).is_infinite());
    // Just below the rounding boundary stays at MAX.
    assert_eq!(F16::from_f32(65519.996).to_bits(), F16::MAX.to_bits());
    assert_eq!(F16::from_f32(65504.0).to_bits(), F16::MAX.to_bits());
}

#[test]
fn f16_rounds_to_nearest_even() {
    // 1 + 2^-11 is exactly halfway between 1 and 1+2^-10; ties go to even
    // (mantissa 0 -> stays at 1).
    let tie = 1.0f32 + 2.0f32.powi(-11);
    assert_eq!(F16::from_f32(tie).to_bits(), F16::ONE.to_bits());
    // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; ties to even picks
    // the larger (mantissa 2).
    let tie2 = 1.0f32 + 3.0 * 2.0f32.powi(-11);
    assert_eq!(F16::from_f32(tie2).to_bits(), 0x3c02);
    // Anything past the tie rounds up.
    assert_eq!(F16::from_f32(tie + 1e-7).to_bits(), 0x3c01);
}

#[test]
fn f16_subnormals() {
    let min_sub = 2.0f64.powi(-24);
    assert_eq!(F16::from_f64(min_sub).to_bits(), 0x0001);
    assert!(F16::from_bits(0x0001).is_subnormal());
    // Half of the smallest subnormal ties to even -> zero.
    assert_eq!(F16::from_f64(min_sub / 2.0).to_bits(), 0x0000);
    // Slightly more than half rounds up to the smallest subnormal.
    assert_eq!(F16::from_f64(min_sub * 0.5000001).to_bits(), 0x0001);
    // 1.5 * smallest ties to even -> 2 * smallest.
    assert_eq!(F16::from_f64(min_sub * 1.5).to_bits(), 0x0002);
    // Largest subnormal.
    let largest_sub = 1023.0 * min_sub;
    assert_eq!(F16::from_f64(largest_sub).to_bits(), 0x03ff);
    // f32 subnormals flush to (signed) zero.
    assert_eq!(F16::from_f32(f32::from_bits(1)).to_bits(), 0x0000);
    assert_eq!(F16::from_f32(-f32::from_bits(1)).to_bits(), 0x8000);
}

#[test]
fn f16_negative_and_signed_zero() {
    assert_eq!(F16::from_f32(-1.0).to_bits(), 0xbc00);
    assert_eq!(F16::from_f32(-0.0).to_bits(), 0x8000);
    assert_eq!(F16::from_f32(-0.0).to_f32().to_bits(), (-0.0f32).to_bits());
    assert_eq!(F16::from_f32(-2.5).to_f32(), -2.5);
    assert_eq!(F16::from_f32(-2.5).abs().to_f32(), 2.5);
}

#[test]
fn f16_matches_hardware_f16c_on_all_half_values() {
    if !simd::f16c_available() {
        eprintln!("skipping: F16C not available");
        return;
    }
    // Widen every pattern with hardware and compare with the soft-float.
    let src: Vec<F16> = (0..=u16::MAX).map(F16::from_bits).collect();
    let mut hw = vec![0.0f32; src.len()];
    simd::widen_f16(&src, &mut hw);
    for (i, (&h, &w)) in src.iter().zip(&hw).enumerate() {
        let soft = h.to_f32();
        if h.is_nan() {
            // Hardware quiets signaling NaNs; payloads may differ, but both
            // sides must agree the value is NaN.
            assert!(soft.is_nan() && w.is_nan(), "pattern {i:#06x}: NaN disagreement");
        } else {
            assert_eq!(
                soft.to_bits(),
                w.to_bits(),
                "pattern {i:#06x}: soft {soft} != hardware {w}"
            );
        }
    }
    // And narrow the widened values back: must reproduce the input bits.
    let mut back = vec![F16::ZERO; src.len()];
    simd::narrow_f32(&hw, &mut back);
    for (i, (&a, &b)) in src.iter().zip(&back).enumerate() {
        if a.is_nan() {
            assert!(b.is_nan());
        } else {
            assert_eq!(a.to_bits(), b.to_bits(), "pattern {i:#06x}");
        }
    }
}

#[test]
fn f16_narrow_matches_hardware_on_random_f32() {
    if !simd::f16c_available() {
        eprintln!("skipping: F16C not available");
        return;
    }
    // Deterministic LCG over f32 bit patterns, covering normals, subnormals,
    // overflow range and specials.
    let mut state = 0x12345678u32;
    let mut src = Vec::with_capacity(40000);
    for _ in 0..40000 {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        src.push(f32::from_bits(state));
    }
    // A few adversarial values.
    src.extend_from_slice(&[
        65519.0,
        65520.0,
        65536.0,
        -65520.0,
        6.0e-8,
        3.0e-8,
        2.9e-8,
        1.0e-40,
        f32::MAX,
        f32::MIN_POSITIVE,
    ]);
    let mut hw = vec![F16::ZERO; src.len()];
    simd::narrow_f32(&src, &mut hw);
    for (&x, &h) in src.iter().zip(&hw) {
        let soft = F16::from_f32(x);
        if soft.is_nan() {
            assert!(h.is_nan(), "x={x}: soft NaN but hw {h:?}");
        } else {
            assert_eq!(soft.to_bits(), h.to_bits(), "x={x} ({:#010x})", x.to_bits());
        }
    }
}

#[test]
fn simd_handles_unaligned_lengths() {
    for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 1000, 1001] {
        let src: Vec<F16> = (0..n).map(|i| F16::from_f32(i as f32 * 0.25 - 3.0)).collect();
        let mut wide = vec![0.0f32; n];
        simd::widen_f16(&src, &mut wide);
        for (i, &w) in wide.iter().enumerate() {
            assert_eq!(w, i as f32 * 0.25 - 3.0);
        }
        let mut back = vec![F16::ZERO; n];
        simd::narrow_f32(&wide, &mut back);
        for (a, b) in src.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

#[test]
fn bf16_basics() {
    assert_eq!(Bf16::from_f32(1.0).to_bits(), Bf16::ONE.to_bits());
    assert_eq!(Bf16::ONE.to_f32(), 1.0);
    // BF16 has f32's range: 1e8 is representable (unlike in F16).
    assert!(Bf16::from_f32(1.0e8).is_finite());
    assert!((Bf16::from_f32(1.0e8).to_f32() - 1.0e8).abs() / 1.0e8 < 0.01);
    // ... but only ~2-3 decimal digits of accuracy.
    assert_eq!(Bf16::from_f32(256.5).to_f32(), 256.0);
    // f32::MAX lies past the halfway point between the largest finite bf16
    // and 2^128, so RNE correctly rounds it to infinity.
    assert!(!Bf16::from_f32(f32::MAX).is_finite());
    assert!(Bf16::from_f32(3.38e38).is_finite());
    assert!(Bf16::from_f32(f32::INFINITY).to_bits() == Bf16::INFINITY.to_bits());
    assert!(Bf16::from_f32(f32::NAN).is_nan());
}

#[test]
fn bf16_round_trips_all_patterns() {
    for bits in 0..=u16::MAX {
        let b = Bf16::from_bits(bits);
        let back = Bf16::from_f32(b.to_f32());
        if b.is_nan() {
            assert!(back.is_nan());
        } else {
            assert_eq!(back.to_bits(), bits, "pattern {bits:#06x}");
        }
    }
}

#[test]
fn bf16_rne_rounding() {
    // 1 + 2^-8 is halfway between 1 and the next bf16 (1 + 2^-7): tie to
    // even keeps 1.
    assert_eq!(Bf16::from_f32(1.0 + 2.0f32.powi(-8)).to_bits(), Bf16::ONE.to_bits());
    // Just above the tie rounds up.
    assert_eq!(Bf16::from_f32(1.0 + 2.0f32.powi(-8) + 1e-6).to_bits(), 0x3f81);
    // Rounding can carry into infinity from the largest finite values.
    assert!(Bf16::from_f32(3.3961776e38).to_bits() == Bf16::INFINITY.to_bits());
}

#[test]
fn storage_trait_dispatch() {
    fn round<S: Storage>(x: f64) -> f64 {
        S::store_f64(x).load_f64()
    }
    assert_eq!(round::<f64>(0.1), 0.1);
    assert_eq!(round::<f32>(0.5), 0.5);
    assert_eq!(round::<F16>(0.5), 0.5);
    assert_eq!(round::<Bf16>(0.5), 0.5);
    assert!(!F16::store_f64(1e9).is_finite());
    assert!(Bf16::store_f64(1e9).is_finite());
    assert_eq!(<F16 as Storage>::BYTES, 2);
    assert_eq!(<f32 as Storage>::BYTES, 4);
}

#[test]
fn scalar_trait_dispatch() {
    fn norm<S: Scalar>(v: &[S]) -> S {
        let mut acc = S::ZERO;
        for &x in v {
            acc = x.mul_add(x, acc);
        }
        acc.sqrt()
    }
    assert_eq!(norm(&[3.0f64, 4.0]), 5.0);
    assert_eq!(norm(&[3.0f32, 4.0]), 5.0);
}

#[test]
fn precision_enum_metadata() {
    assert_eq!(Precision::F16.bytes(), 2);
    assert_eq!(Precision::F32.bytes(), 4);
    assert_eq!(Precision::F64.bytes(), 8);
    assert_eq!(Precision::F16.finite_max(), 65504.0);
    assert!(Precision::BF16.finite_max() > 3.0e38);
    assert_eq!(Precision::F16.name(), "fp16");
    assert_eq!(format!("{}", Precision::BF16), "bf16");
}

#[test]
fn f16_monotone_on_finite_positives() {
    // Conversion must be monotone: widening consecutive bit patterns gives
    // a nondecreasing sequence of f32 values on the positive axis.
    let mut prev = f32::NEG_INFINITY;
    for bits in 0..0x7c00u16 {
        let v = F16::from_bits(bits).to_f32();
        assert!(v >= prev, "non-monotone at {bits:#06x}");
        prev = v;
    }
}

mod proptests {
    use super::super::{Bf16, F16};
    use fp16mg_testkit::check;

    #[test]
    fn prop_f16_round_trip_within_half_ulp() {
        check("prop_f16_round_trip_within_half_ulp", |rng| {
            // |x - fp16(x)| <= 2^-11 * |x| + smallest_subnormal/2 (RNE).
            let x = rng.f32_range(-65000.0, 65000.0);
            let h = F16::from_f32(x);
            let back = h.to_f32();
            let bound = x.abs() as f64 * 2.0f64.powi(-11) + 2.0f64.powi(-25);
            assert!((x as f64 - back as f64).abs() <= bound, "x={x} back={back}");
        });
    }

    #[test]
    fn prop_f16_conversion_monotone() {
        check("prop_f16_conversion_monotone", |rng| {
            let a = rng.f32_range(-70000.0, 70000.0);
            let b = rng.f32_range(-70000.0, 70000.0);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let (hl, hh) = (F16::from_f32(lo).to_f32(), F16::from_f32(hi).to_f32());
            assert!(hl <= hh, "{lo} -> {hl}, {hi} -> {hh}");
        });
    }

    #[test]
    fn prop_f16_sign_symmetry() {
        check("prop_f16_sign_symmetry", |rng| {
            let x = rng.f32_range(-1.0e9, 1.0e9);
            let p = F16::from_f32(x);
            let n = F16::from_f32(-x);
            assert_eq!(p.to_bits() ^ 0x8000, n.to_bits());
        });
    }

    #[test]
    fn prop_f16_overflow_iff_beyond_max() {
        check("prop_f16_overflow_iff_beyond_max", |rng| {
            let x = rng.f32_normal();
            let h = F16::from_f32(x);
            // 65520 = halfway point that rounds up to infinity.
            if x.abs() >= 65520.0 {
                assert!(!h.is_finite());
            } else if x.abs() <= 65504.0 {
                assert!(h.is_finite());
            }
        });
    }

    #[test]
    fn prop_bf16_error_bounded() {
        check("prop_bf16_error_bounded", |rng| {
            let x = rng.f32_normal();
            if x.abs() >= 3.3e38 {
                return;
            }
            let b = Bf16::from_f32(x);
            let back = b.to_f32();
            // 8 mantissa bits kept (incl. implicit): rel err <= 2^-8.
            assert!(((x as f64 - back as f64) / x as f64).abs() <= 2.0f64.powi(-8));
        });
    }

    #[test]
    fn prop_f16_idempotent() {
        check("prop_f16_idempotent", |rng| {
            // Converting an exactly representable value is the identity.
            let bits = rng.u16() % 0x7c00;
            let v = F16::from_bits(bits).to_f32();
            assert_eq!(F16::from_f32(v).to_bits(), bits);
        });
    }
}

/// The slice conversions are the scalar ones, entry for entry, on every
/// non-NaN input (NaN stays NaN) — for the F16 overrides that go through
/// F16C and for the default loops alike, across chunk seams.
#[test]
fn slice_conversions_match_scalar() {
    fn check_format<T: Storage>(src: &[f64]) {
        let mut stored = vec![T::default(); src.len()];
        T::store_f64_slice(src, &mut stored);
        let mut back = vec![0.0f64; src.len()];
        T::load_f64_slice(&stored, &mut back);
        for ((&x, &s), &b) in src.iter().zip(&stored).zip(&back) {
            let want = T::store_f64(x);
            if x.is_nan() {
                assert!(s.load_f64().is_nan() && b.is_nan(), "{}: NaN lost", T::NAME);
            } else {
                assert_eq!(s.store_bits(), want.store_bits(), "{}: store {x:e}", T::NAME);
                assert_eq!(b.to_bits(), want.load_f64().to_bits(), "{}: load {x:e}", T::NAME);
            }
        }
    }
    let mut src = vec![
        0.0,
        -0.0,
        65504.0,
        65519.999,
        65520.0,
        -7.0e4,
        6.0e-8,
        2.98e-8,
        -6.1e-5,
        1.0e-40,
        1.0e39,
        f64::MAX,
        f64::MIN_POSITIVE,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    let mut state = 0x9e3779b97f4a7c15u64;
    for _ in 0..600 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        // Exponents around the f16 range, random mantissas and signs.
        let e = 1023 - 30 + (state >> 58);
        src.push(f64::from_bits(
            (state & (1 << 63)) | (e << 52) | ((state >> 6) & ((1 << 52) - 1)),
        ));
    }
    check_format::<F16>(&src);
    check_format::<Bf16>(&src);
    check_format::<f32>(&src);
    check_format::<f64>(&src);
    assert_eq!(<F16 as Storage>::PRECISION, Precision::F16);
}

/// `.mul_add(` call sites of one source file that are not inside a
/// function carrying `#[target_feature(enable = "…fma…")]`, as
/// `line number: text`. Test code (a `tests.rs`, or what follows a
/// `#[cfg(test)]`) is not the caller's to pass in. A lexical scan: it
/// tracks brace depth to know which `fn` a line belongs to, which is all
/// the kernel sources need.
fn unfused_mul_add_sites(src: &str) -> Vec<String> {
    // Open functions as (brace depth at the `fn`, body entered, has fma).
    let mut fns: Vec<(usize, bool, bool)> = Vec::new();
    let (mut depth, mut pending_fma) = (0usize, false);
    let mut sites = Vec::new();
    for (n, raw) in src.lines().enumerate() {
        let line = raw.split("//").next().unwrap_or("").trim();
        if line.starts_with("#[cfg(test)]") {
            break;
        }
        if line.starts_with("#[target_feature") {
            pending_fma = line.contains("fma");
        }
        let is_fn = line.split(|c: char| !c.is_alphanumeric() && c != '_').any(|w| w == "fn");
        if is_fn && line.contains('(') {
            fns.push((depth, false, pending_fma));
            pending_fma = false;
        }
        if line.contains(".mul_add(") && !fns.last().is_some_and(|f| f.2) {
            sites.push(format!("{}: {}", n + 1, raw.trim()));
        }
        depth += line.matches('{').count();
        depth = depth.saturating_sub(line.matches('}').count());
        if let Some(f) = fns.last_mut() {
            f.1 |= depth > f.0;
            // Body closed, or a bodiless declaration ended.
            if depth <= f.0 && (f.1 || line.ends_with(';')) {
                fns.pop();
            }
        }
    }
    sites
}

#[test]
fn mul_add_scanner_sees_through_nesting() {
    let src = r#"
        fn plain(a: f32) -> f32 { a.mul_add(a, a) }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn fused(a: f32) -> f32 {
            #[inline(always)]
            fn helper(a: f32) -> f32 {
                a.mul_add(a, a)
            }
            // a.mul_add(in, comment)
            helper(a).mul_add(a, a)
        }
        trait T { fn decl(self) -> Self; }
        #[target_feature(enable = "f16c")]
        unsafe fn no_fma(a: f32) -> f32 {
            a.mul_add(a, a)
        }
        #[cfg(test)]
        fn t(a: f32) -> f32 { a.mul_add(a, a) }
    "#;
    let lines: Vec<String> = unfused_mul_add_sites(src)
        .iter()
        .map(|s| s.split(':').next().expect("line number").to_string())
        .collect();
    // `plain`, the nested `helper` (a function of its own) and `no_fma`;
    // not the call in `fused` after `helper` closed, the comment, or the
    // test code.
    assert_eq!(lines, ["2", "7", "15"]);
}

/// Calls `f(path, source)` for every non-test `.rs` file under
/// `crates/<name>/src` whose path does not end in one of `skip`.
fn for_each_source(names: &[&str], skip: &[&str], f: &mut dyn FnMut(&std::path::Path, &str)) {
    fn visit(dir: &std::path::Path, skip: &[&str], f: &mut dyn FnMut(&std::path::Path, &str)) {
        let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        for entry in entries {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                visit(&path, skip, f);
            } else if path.extension().is_some_and(|e| e == "rs")
                && !path.ends_with("tests.rs")
                && !skip.iter().any(|s| path.ends_with(s))
            {
                f(&path, &std::fs::read_to_string(&path).expect("readable source"));
            }
        }
    }
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("crates/");
    for name in names {
        visit(&crates.join(name).join("src"), skip, f);
    }
}

/// The rule of [`Scalar::mul_add`]'s doc comment, for the three crates
/// whose loops are hot.
#[test]
fn mul_add_only_under_target_feature_fma() {
    let mut sites = Vec::new();
    for_each_source(&["sgdia", "core", "krylov"], &["sgdia/src/csr.rs"], &mut |path, src| {
        let found = unfused_mul_add_sites(src);
        sites.extend(found.iter().map(|s| format!("{}:{s}", path.display())));
    });
    assert!(
        sites.is_empty(),
        "`.mul_add(` outside a #[target_feature(enable = \"…fma…\")] function calls libm's fma \
         per element (see Scalar::mul_add); write `a * b + c`:\n{}",
        sites.join("\n")
    );
}

/// Lines of one source file that spell the cell-major unknown numbering
/// `cell * components + c` the repository left behind (as `line number:
/// text`): a product by a component count (`r`, `rc`, `components`) whose
/// left operand is a cell index (`cell`, `nb`, `cu`, `lbase`) or whose
/// sum continues with a component (`c`, `cin`, `cout`, possibly behind a
/// `tap.` / `m.`). Lexical, like [`unfused_mul_add_sites`]; an `r × r`
/// block index such as `row * r + col` is not the idiom.
fn cell_major_sites(src: &str) -> Vec<String> {
    const COUNTS: [&str; 3] = ["r", "rc", "components"];
    const CELLS: [&str; 4] = ["cell", "nb", "cu", "lbase"];
    const COMPONENTS: [&str; 3] = ["c", "cin", "cout"];
    let mut sites = Vec::new();
    for (n, raw) in src.lines().enumerate() {
        let line = raw.split("//").next().unwrap_or("").trim();
        if line.starts_with("#[cfg(test)]") {
            break;
        }
        // Identifiers and single symbols; `as usize` casts dropped.
        let mut toks: Vec<&str> = Vec::new();
        let mut rest = line;
        while let Some(c) = rest.chars().next() {
            let ident = rest.find(|c: char| !c.is_alphanumeric() && c != '_').unwrap_or(rest.len());
            let len = if ident > 0 { ident } else { c.len_utf8() };
            if !c.is_whitespace() {
                toks.push(&rest[..len]);
            }
            rest = &rest[len..];
        }
        toks.retain(|t| !["as", "usize"].contains(t));
        let hit = toks.windows(2).enumerate().any(|(i, w)| {
            if w[0] != "*" || !COUNTS.contains(&w[1]) {
                return false;
            }
            let cell_left = i > 0 && CELLS.contains(&toks[i - 1]);
            let after = &toks[i + 2..];
            let component_right = match after {
                ["+", c, ..] if COMPONENTS.contains(c) => true,
                ["+", _, ".", c, ..] => COMPONENTS.contains(c),
                _ => false,
            };
            cell_left || component_right
        });
        if hit {
            sites.push(format!("{}: {}", n + 1, raw.trim()));
        }
    }
    sites
}

/// Unknowns are numbered component-major and only
/// `fp16mg_grid::Grid3::{unknown, unknown_of, field}` say so: the
/// cell-major formula must not reappear in any crate's non-test source.
#[test]
fn unknown_numbering_is_spelled_only_in_grid3() {
    let src = "let u = x[cell * r + c];\nlet v = x[nb as usize * r + m.cin];\n\
               y[i * rc + tap.cout as usize] = 0.0;\nlet row = &uf[lbase * components..];\n\
               let b = m[row * r + col]; // cell * r + c\nlet q = dinv[co * r + j];\n";
    let lines: Vec<String> = cell_major_sites(src)
        .iter()
        .map(|s| s.split(':').next().expect("line number").to_string())
        .collect();
    assert_eq!(lines, ["1", "2", "3", "4"]);

    let all = [
        "bench", "core", "fp", "grid", "krylov", "problems", "runtime", "sgdia", "stencil",
        "testkit",
    ];
    let mut sites = Vec::new();
    for_each_source(&all, &["grid/src/grid3.rs"], &mut |path, src| {
        let found = cell_major_sites(src);
        sites.extend(found.iter().map(|s| format!("{}:{s}", path.display())));
    });
    assert!(
        sites.is_empty(),
        "cell-major unknown arithmetic; slice `grid.field(c)` or call `grid.unknown_of(cell, c)`:\n{}",
        sites.join("\n")
    );
}

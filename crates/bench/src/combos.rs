//! The precision/strategy combinations evaluated in the paper.

use fp16mg_core::{MgConfig, RecoveryPolicy, ScaleStrategy, StoragePolicy};

/// One column of the Fig. 6 legend (plus the extensions of §4.3 and §8).
///
/// Notation: `K` = iterative precision, `P` = preconditioner computation
/// precision, `D` = preconditioner storage precision. `K` is always FP64
/// here (Table 3's iterative precision for every problem).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Combo {
    /// `K64 P64 D64` — the baseline everything-double workflow.
    Full64,
    /// `K64 P32 D32` — the common FP32-preconditioner practice.
    D32,
    /// `K64 P32 D16` with **no** out-of-range treatment: overflows to
    /// NaN on every out-of-range problem (Fig. 6's yellow curve).
    D16None,
    /// `K64 P32 D16` with the inferior *scale-then-setup* of §4.3.
    D16ScaleSetup,
    /// `K64 P32 D16` with the paper's *setup-then-scale* (Algorithm 1).
    D16SetupScale,
    /// `K64 P32 D-bf16` — bfloat16 storage (§8 comparison).
    Bf16,
    /// `K64 P32` with FP16 on levels `< shift` and FP32 below
    /// (the `shift_levid` underflow guard of §4.3).
    D16Shift(usize),
}

impl Combo {
    /// The five Fig. 6 curves in plot order.
    pub fn fig6() -> [Combo; 5] {
        [Combo::Full64, Combo::D32, Combo::D16None, Combo::D16ScaleSetup, Combo::D16SetupScale]
    }

    /// Paper legend label.
    pub fn label(self) -> String {
        match self {
            Combo::Full64 => "Full64".into(),
            Combo::D32 => "K64P32D32".into(),
            Combo::D16None => "K64P32D16-none".into(),
            Combo::D16ScaleSetup => "K64P32D16-scale-setup".into(),
            Combo::D16SetupScale => "K64P32D16-setup-scale".into(),
            Combo::Bf16 => "K64P32Dbf16".into(),
            Combo::D16Shift(l) => format!("K64P32D16-shift{l}"),
        }
    }

    /// True when the preconditioner computation precision is FP64
    /// (only `Full64`).
    pub fn p64(self) -> bool {
        matches!(self, Combo::Full64)
    }

    /// The multigrid configuration (everything except the computation
    /// precision, which is a type parameter chosen via [`Combo::p64`]).
    pub fn mg_config(self) -> MgConfig {
        match self {
            Combo::Full64 => MgConfig::d64(),
            Combo::D32 => MgConfig::d32(),
            // The "no treatment" ablation arm also switches runtime
            // recovery off: Fig. 6's yellow curve exists to show the NaN
            // failure, which self-healing would otherwise mask.
            Combo::D16None => MgConfig {
                scale: ScaleStrategy::None,
                recovery: RecoveryPolicy::disabled(),
                ..MgConfig::d16()
            },
            Combo::D16ScaleSetup => {
                MgConfig { scale: ScaleStrategy::ScaleThenSetup, ..MgConfig::d16() }
            }
            Combo::D16SetupScale => MgConfig::d16(),
            Combo::Bf16 => MgConfig::dbf16(),
            Combo::D16Shift(l) => {
                MgConfig { storage: StoragePolicy::Fp16Until { shift_levid: l }, ..MgConfig::d16() }
            }
        }
    }
}

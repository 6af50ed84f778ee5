//! The reuse engine: what survives of a set-up when the operator moves.
//!
//! An implicit time-stepper and a long-running service solve a slowly
//! drifting operator again and again. The FP64 Galerkin chain (Algorithm
//! 1 lines 1–3) is the expensive half of a set-up and the per-level
//! scale-and-truncate (lines 4–14) the cheap half, so the chain is
//! [`Retained`] together with the FP16 range audit of the finest operator
//! it was built for, and each new operator is measured against that
//! baseline (one [`OperatorDrift`]; the retained matrices are not read):
//!
//! * drift ≤ [`KEEP_MAX`] → [`Reuse::Keep`]: the hierarchy is assembled
//!   from the retained chain as it is. Sound because the outer Krylov
//!   operator is always the caller's exact matrix — only the
//!   preconditioner lags.
//! * drift ≤ [`RESCALE_MAX`] → [`Reuse::Rescale`]: the new operator
//!   replaces the chain's finest matrix and becomes the baseline, so its
//!   scaling and truncation are re-derived (Theorem 4.1's no-overflow
//!   guarantee holds for the drifted values) while the coarse Galerkin
//!   operators are the old ones — a bounded Galerkin lag the outer
//!   iteration absorbs.
//! * beyond, or any structural drift (new overflow, changed sparsity) →
//!   [`Reuse::Rebuild`]: a new chain.
//!
//! [`serve`] is the whole policy for a caller with one retained slot (a
//! time-stepper); a caller that has work of its own between the decision
//! and the action (the runtime's hierarchy cache charges bytes there)
//! calls [`Reuse::decide`] and the three actions — [`Retained::build`],
//! [`Retained::adopt_finest`], [`Retained::hierarchy`] — itself.

use fp16mg_fp::{Precision, Scalar};
use fp16mg_sgdia::audit::{self, OperatorDrift, RangeAudit};
use fp16mg_sgdia::SgDia;

use crate::config::MgConfig;
use crate::hierarchy::{GalerkinChain, Mg, SetupError};

/// Drift magnitude (log2 units, [`OperatorDrift::magnitude`]) up to which
/// the retained chain serves unchanged.
pub const KEEP_MAX: f64 = 0.25;
/// Drift magnitude up to which swapping the finest operator in still
/// serves; beyond it the chain is rebuilt.
pub const RESCALE_MAX: f64 = 3.0;

/// How much of a retained set-up a drifted operator may reuse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reuse {
    /// The retained chain as it is.
    Keep,
    /// The retained coarse tail under the new finest operator.
    Rescale,
    /// Nothing: a new chain.
    Rebuild,
}

impl Reuse {
    /// The policy: structural drift always rebuilds; otherwise the
    /// magnitude picks the cheapest sufficient response.
    pub fn decide(d: &OperatorDrift) -> Self {
        let m = d.magnitude();
        if d.structural() {
            Reuse::Rebuild
        } else if m <= KEEP_MAX {
            Reuse::Keep
        } else if m <= RESCALE_MAX {
            Reuse::Rescale
        } else {
            Reuse::Rebuild
        }
    }

    /// Stable label (the simulation trail's `decision=` vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            Reuse::Keep => "keep",
            Reuse::Rescale => "rescale",
            Reuse::Rebuild => "rebuild",
        }
    }
}

/// A Galerkin chain and the audit of the finest operator it holds: the
/// two are only ever built, replaced and dropped together, so a drift is
/// always measured against the operator the chain actually serves.
#[derive(Clone, Debug)]
pub struct Retained {
    chain: GalerkinChain,
    baseline: RangeAudit,
}

impl Retained {
    /// The audit drift is measured in: `a` as FP16 would store it.
    pub fn audit(a: &SgDia<f64>) -> RangeAudit {
        audit::audit(a, Precision::F16)
    }

    /// Builds the chain for `a`, whose audit ([`Retained::audit`]) the
    /// caller has usually taken already to decide that it must.
    ///
    /// # Errors
    /// As [`GalerkinChain::build`].
    pub fn build(a: &SgDia<f64>, audit: RangeAudit, config: &MgConfig) -> Result<Self, SetupError> {
        Ok(Retained { chain: GalerkinChain::build(a, config)?, baseline: audit })
    }

    /// The retained chain.
    pub fn chain(&self) -> &GalerkinChain {
        &self.chain
    }

    /// How far an operator audited as `now` is from the retained one.
    pub fn drift(&self, now: &RangeAudit) -> OperatorDrift {
        audit::drift(&self.baseline, now)
    }

    /// Makes `a` (audited as `audit`) the chain's finest operator and the
    /// new baseline, keeping the coarse tail: the [`Reuse::Rescale`]
    /// action. The hierarchy then comes from [`Retained::hierarchy`]; if
    /// that fails, drop this value — its finest operator no longer has
    /// the coarse levels, nor (in a cache) the fingerprint, it was
    /// retained with, and only a rebuild repairs that. [`serve`] does so.
    ///
    /// # Errors
    /// [`SetupError::ChainIncompatible`] when `a`'s geometry is not the
    /// chain's; nothing was changed.
    pub fn adopt_finest(
        &mut self,
        a: &SgDia<f64>,
        audit: RangeAudit,
        config: &MgConfig,
    ) -> Result<(), SetupError> {
        self.chain.swap_finest(a, config)?;
        self.baseline = audit;
        Ok(())
    }

    /// Assembles a hierarchy from the chain as it stands
    /// ([`Mg::setup_from_chain`]): every [`Reuse`] ends here.
    ///
    /// # Errors
    /// See [`SetupError`].
    pub fn hierarchy<Pr: Scalar>(&self, config: &MgConfig) -> Result<Mg<Pr>, SetupError> {
        Mg::setup_from_chain(&self.chain, config)
    }
}

/// Serves `a` from `slot`: audits it once, decides, acts. Returns the
/// hierarchy, what was reused, and the drift the decision was taken on
/// (`None` when nothing was retained — a rebuild by necessity).
///
/// On success `slot` describes `a` as far as the decision says. A failed
/// keep or rebuild leaves `slot` as it was (a failed rebuild installs
/// nothing); a failed rescale empties it, so the next call rebuilds
/// instead of measuring drift against a chain whose levels no longer
/// belong together. The decision and the drift are returned either way:
/// a caller that escalates a failure still has them to report.
pub fn serve<Pr: Scalar>(
    slot: &mut Option<Retained>,
    a: &SgDia<f64>,
    config: &MgConfig,
) -> (Result<Mg<Pr>, SetupError>, Reuse, Option<OperatorDrift>) {
    let now = Retained::audit(a);
    let drift = slot.as_ref().map(|kept| kept.drift(&now));
    let reuse = drift.as_ref().map_or(Reuse::Rebuild, Reuse::decide);
    let mg = match (reuse, slot.as_mut()) {
        (Reuse::Keep, Some(kept)) => kept.hierarchy(config),
        (Reuse::Rescale, Some(kept)) => {
            let mg = kept.adopt_finest(a, now, config).and_then(|()| kept.hierarchy(config));
            if mg.is_err() {
                *slot = None;
            }
            mg
        }
        _ => Retained::build(a, now, config).and_then(|fresh| {
            let mg = fresh.hierarchy(config)?;
            *slot = Some(fresh);
            Ok(mg)
        }),
    };
    (mg, reuse, drift)
}

#[cfg(test)]
mod tests;

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
//! * drift ≤ [`RESCALE_MAX`] → [`Reuse::Rescale`]: the new operator
//!   replaces the chain's finest matrix and becomes the baseline, so its
//!   scaling and truncation are re-derived (Theorem 4.1's no-overflow
//!   guarantee holds for the drifted values), and its diagonal drift is
//!   carried into the coarse tail: each coarse operator is assembled as
//!   `W_l A_l W_l`, `W_l` the geometric mean of the diagonal ratio over
//!   the cells the level restricts from ([`GalerkinChain`]). A uniform
//!   drift is carried exactly; what the carry misses is the drift's
//!   off-diagonal and non-uniform part, which the outer iteration
//!   absorbs.
//! * beyond, or any structural drift (new overflow, changed sparsity) →
//!   [`Reuse::Rebuild`]: a new chain.
//!
//! [`serve`] is the whole policy for a caller with one retained slot (a
//! time-stepper); a caller that has work of its own between the decision
//! and the action (the runtime's hierarchy cache charges bytes there)
//! calls [`Reuse::decide`] and the actions — [`Retained::build`],
//! [`Retained::adopt_finest`], [`Retained::hierarchy`] — itself.
//!
//! Either way the hierarchy is assembled from a chain whose finest
//! operator is the one being served: the chain never serves a stale
//! finest level, since the swap that avoids one costs a copy and a
//! restricted log-diagonal.

use fp16mg_fp::{Precision, Scalar};
use fp16mg_sgdia::audit::{self, OperatorDrift, RangeAudit};
use fp16mg_sgdia::SgDia;

use crate::config::MgConfig;
use crate::hierarchy::{GalerkinChain, Mg, SetupError};

/// Drift magnitude (log2 units, [`OperatorDrift::magnitude`]) up to
/// which swapping the finest operator in still serves; beyond it the
/// chain is rebuilt.
pub const RESCALE_MAX: f64 = 3.0;

/// How much of a retained set-up a drifted operator may reuse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reuse {
    /// The retained coarse tail under the new finest operator.
    Rescale,
    /// Nothing: a new chain.
    Rebuild,
}

impl Reuse {
    /// The policy: a drift that is not structural and whose magnitude
    /// is at most [`RESCALE_MAX`] rescales; anything else (a NaN
    /// magnitude too) rebuilds.
    pub fn decide(d: &OperatorDrift) -> Self {
        if !d.structural() && d.magnitude() <= RESCALE_MAX {
            Reuse::Rescale
        } else {
            Reuse::Rebuild
        }
    }

    /// Stable label (the simulation trail's `decision=` vocabulary).
    pub fn label(self) -> &'static str {
        match self {
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
    /// new baseline, keeping the coarse tail and carrying `a`'s diagonal
    /// drift into it — measured against the operator the chain was built
    /// from, so the result does not depend on earlier adopts: the
    /// [`Reuse::Rescale`] action. The hierarchy then comes from
    /// [`Retained::hierarchy`]; if that fails, drop this value — its
    /// finest operator no longer has the coarse levels, nor (in a cache)
    /// the fingerprint, it was retained with, and only a rebuild repairs
    /// that. [`serve`] does so.
    ///
    /// # Errors
    /// [`SetupError::ChainIncompatible`] or [`SetupError::NonPositiveDiagonal`]
    /// when the chain cannot take `a`; nothing was changed.
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
    /// ([`Mg::setup_from_chain`]): both [`Reuse`] decisions end here.
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
/// On success `slot` holds `a` as its finest operator and baseline. A
/// failed rebuild leaves `slot` as it was (it installs nothing); a
/// failed rescale empties it, so the next call rebuilds instead of
/// measuring drift against a chain whose levels no longer belong
/// together. The decision and the drift are returned either way:
/// a caller that escalates a failure still has them to report.
pub fn serve<Pr: Scalar>(
    slot: &mut Option<Retained>,
    a: &SgDia<f64>,
    config: &MgConfig,
) -> (Result<Mg<Pr>, SetupError>, Reuse, Option<OperatorDrift>) {
    let now = Retained::audit(a);
    let drift = slot.as_ref().map(|r| r.drift(&now));
    let reuse = drift.as_ref().map_or(Reuse::Rebuild, Reuse::decide);
    let mg = match (reuse, slot.as_mut()) {
        (Reuse::Rescale, Some(r)) => {
            let mg = r.adopt_finest(a, now, config).and_then(|()| r.hierarchy(config));
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

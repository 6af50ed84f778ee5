//! The verdict every fault matrix shares.
//!
//! `torture`, `memtorture` and `nettorture` inject different faults into
//! different resources and judge their cases by different invariants —
//! that part stays in each driver. What they decide the same way is
//! whether the *matrix* can be believed: how many cases ran, which
//! invariants broke, whether every fault class the matrix claims to cover
//! actually fired, and (where a driver has one) whether its deliberately
//! broken phase G was caught. [`MatrixReport`] is that verdict.

use std::collections::BTreeMap;

/// Case count, violations, fired-class tallies and self-check flag of
/// one fault-matrix run.
#[derive(Clone, Debug)]
pub struct MatrixReport {
    /// Fault cases executed.
    pub cases: usize,
    /// Invariant violations (empty on a passing run).
    pub violations: Vec<String>,
    /// Fault-class fire counts summed over all cases.
    pub fired: BTreeMap<String, u64>,
    /// Fault classes that must fire at least once — an empty matrix
    /// cannot pass by default.
    pub required: &'static [&'static str],
    /// Phase G: what the driver breaks on purpose, and whether the
    /// harness noticed. `None` for a matrix without a self-check.
    pub self_check: Option<(&'static str, bool)>,
}

impl MatrixReport {
    /// An empty report; `self_check` names the deliberate breakage of
    /// phase G (starts undetected).
    pub fn new(required: &'static [&'static str], self_check: Option<&'static str>) -> Self {
        MatrixReport {
            cases: 0,
            violations: Vec::new(),
            fired: BTreeMap::new(),
            required,
            self_check: self_check.map(|what| (what, false)),
        }
    }

    /// Counts one executed case and folds in what it fired and broke.
    pub fn case(&mut self, fired: BTreeMap<String, u64>, violations: Vec<String>) {
        self.cases += 1;
        for (class, n) in fired {
            *self.fired.entry(class).or_insert(0) += n;
        }
        self.violations.extend(violations);
    }

    /// How often `class` fired over the whole matrix.
    pub fn fired_count(&self, class: &str) -> u64 {
        self.fired.get(class).copied().unwrap_or(0)
    }

    /// Phase G saw the planted breakage.
    pub fn self_check_detected(&mut self) {
        if let Some((_, detected)) = &mut self.self_check {
            *detected = true;
        }
    }

    /// Closes the matrix: a required class that never fired, or a
    /// self-check that never tripped, is a violation of its own.
    pub fn seal(&mut self) {
        for &class in self.required {
            if self.fired_count(class) == 0 {
                self.violations.push(format!("fault class '{class}' never fired"));
            }
        }
        if let Some((what, false)) = self.self_check {
            self.violations.push(format!(
                "phase G: the {what} was never detected — the matrix cannot be trusted"
            ));
        }
    }

    /// True when every invariant held, every required class fired and
    /// the self-check (if any) tripped.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
            && self.required.iter().all(|class| self.fired_count(class) > 0)
            && !matches!(self.self_check, Some((_, false)))
    }
}

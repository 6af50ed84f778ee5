//! The one deterministic fault schedule behind every injector.
//!
//! `FaultStorage`, `MemGovernor` and `FaultTransport` inject different
//! faults into different resources, but they schedule them the same
//! way: every counted operation takes the next index of one monotone
//! counter, a plain map from index to fault says what (if anything)
//! fires there, fired faults are tallied by class label so a harness
//! can prove its matrix was exercised, and an op log lets a clean probe
//! run enumerate the indices a later run plants faults at. There is no
//! randomness in here. [`FaultSchedule`] is that state, once.

use std::collections::BTreeMap;

/// Op counter, index → fault map, fired-by-label tallies and op log of
/// one injector. `F` is the injector's fault type, `R` its op-log record.
#[derive(Debug)]
pub struct FaultSchedule<F, R> {
    ops: u64,
    faults: BTreeMap<u64, F>,
    fired: BTreeMap<String, u64>,
    /// `None` until someone asks for a log: a production `MemGovernor`
    /// lives as long as its daemon and must not grow per charge.
    log: Option<Vec<R>>,
}

impl<F, R> Default for FaultSchedule<F, R> {
    fn default() -> Self {
        FaultSchedule { ops: 0, faults: BTreeMap::new(), fired: BTreeMap::new(), log: None }
    }
}

impl<F: Copy, R: Clone> FaultSchedule<F, R> {
    /// Starts the op log (ops counted before the call are not in it).
    /// The injectors that exist only inside a harness call it at birth.
    pub fn record_ops(&mut self) {
        self.log.get_or_insert_with(Vec::new);
    }

    /// Plants `fault` at op index `index`.
    pub fn schedule(&mut self, index: u64, fault: F) {
        self.faults.insert(index, fault);
    }

    /// Counts one operation: logs `record(index)` when recording and
    /// returns the fault planted at exactly this index. Indices never
    /// repeat, so a fault fires at most once.
    pub fn tick(&mut self, record: impl FnOnce(u64) -> R) -> Option<F> {
        let index = self.ops;
        self.ops += 1;
        if let Some(log) = &mut self.log {
            log.push(record(index));
        }
        self.faults.get(&index).copied()
    }

    /// Tallies one firing of the fault class `label`.
    pub fn fire(&mut self, label: &str) {
        *self.fired.entry(label.to_string()).or_insert(0) += 1;
    }

    /// Operations counted so far (the next op's index).
    pub fn op_count(&self) -> u64 {
        self.ops
    }

    /// The op log (empty unless recording).
    pub fn op_log(&self) -> Vec<R> {
        self.log.clone().unwrap_or_default()
    }

    /// How many times each fault class fired, by label.
    pub fn fired(&self) -> BTreeMap<String, u64> {
        self.fired.clone()
    }
}

//! The reference kernel the end-to-end times are divided by.
//!
//! The host is a shared microVM whose speed drifts by tens of percent over
//! seconds to minutes (a register-only FMA loop alone varies 100–147 ms),
//! so wall seconds of two runs of the *same* binary differ by more than any
//! bound worth having. Much of the drift is slow against one operation, so
//! a fixed piece of harness-owned work, run right before and right after
//! the operation, sees much the same machine: operation time ÷ reference
//! time is about twice as steady as either when the host is noisy (the
//! measurements are in README.md). The reference never calls into the
//! repository, so whatever a later change does to the program shows in full.

use std::time::Instant;

/// Elements per array: three arrays of 32 MiB, beyond the 2 MiB L2.
const N: usize = 4 << 20;
const TRIAD_PASSES: usize = 10;
const FMA_ROUNDS: usize = 4_000_000;

pub struct Reference {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
}

impl Reference {
    pub fn new() -> Self {
        let mut r = Reference { a: vec![0.0; N], b: vec![1.0; N], c: vec![2.0; N] };
        r.run();
        r
    }

    /// One reference pass — streaming (STREAM triad over 96 MiB, ten
    /// times) and compute (eight independent FMA chains), about a quarter
    /// of a second — and the seconds it took.
    pub fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        for pass in 0..TRIAD_PASSES {
            let s = 1.0 + pass as f64;
            for ((ai, &bi), &ci) in self.a.iter_mut().zip(&self.b).zip(&self.c) {
                *ai = s.mul_add(ci, bi);
            }
            std::hint::black_box(&mut self.a);
        }
        let mut acc = [1.0f64, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7];
        for _ in 0..FMA_ROUNDS {
            for x in &mut acc {
                *x = x.mul_add(0.999_999, 1e-9);
            }
        }
        std::hint::black_box(acc);
        t0.elapsed().as_secs_f64()
    }
}

/// Operations bracketed by reference passes: `r0 op0 r1 op1 r2 …`. Each
/// operation is charged the mean of the two passes around it.
pub struct Bracketed {
    reference: Reference,
    last: f64,
    charged: Vec<f64>,
}

impl Bracketed {
    pub fn new() -> Self {
        let mut reference = Reference::new();
        let last = reference.run();
        Bracketed { reference, last, charged: Vec::new() }
    }

    /// Closes the bracket around the operation that has just finished
    /// with a fresh reference pass; returns the reference seconds to
    /// divide the operation's seconds by.
    pub fn close(&mut self) -> f64 {
        let next = self.reference.run();
        let charged = 0.5 * (self.last + next);
        self.last = next;
        self.charged.push(charged);
        charged
    }

    /// Median reference seconds over the run: ratio × this ≈ seconds here.
    pub fn reference_s(&self) -> f64 {
        crate::stats::median(&self.charged)
    }
}

//! Bounded event trails.
//!
//! A long-running daemon accumulates evidence — ladder attempts,
//! promotion events, breaker transitions, cache decisions — and every one of those
//! trails used to be an unbounded `Vec`: a slow memory leak in any
//! process that serves requests for days. [`Ring`] is the fix: a
//! fixed-capacity trail that keeps the *most recent* entries, counts
//! what it evicted, and dereferences to a slice so every existing
//! consumer (indexing, slicing, iteration) keeps working unchanged.

use std::ops::Deref;

/// A bounded, append-only event trail that evicts its oldest entries
/// once `capacity` is reached. Unlike a classic ring buffer it keeps its
/// live window contiguous (`Deref<Target = [T]>`), trading an `O(n)`
/// shift on eviction — irrelevant at trail capacities of tens to
/// hundreds — for zero-cost reads everywhere else.
#[derive(Clone, Debug)]
pub struct Ring<T> {
    buf: Vec<T>,
    capacity: usize,
    evicted: usize,
}

impl<T> Ring<T> {
    /// Default trail capacity, used by `Default` and the report types.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// An empty trail keeping at most `capacity` entries (clamped to at
    /// least 1 — a zero-capacity trail would silently drop everything).
    pub fn new(capacity: usize) -> Self {
        Ring { buf: Vec::new(), capacity: capacity.max(1), evicted: 0 }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries evicted so far to honor the bound.
    pub fn evicted(&self) -> usize {
        self.evicted
    }

    /// Total entries ever pushed (live + evicted).
    pub fn total(&self) -> usize {
        self.buf.len() + self.evicted
    }

    /// Appends one entry, evicting the oldest when full.
    pub fn push(&mut self, item: T) {
        if self.buf.len() >= self.capacity {
            self.buf.remove(0);
            self.evicted += 1;
        }
        self.buf.push(item);
    }

    /// Appends every entry of `items` in order.
    pub fn extend(&mut self, items: impl IntoIterator<Item = T>) {
        for item in items {
            self.push(item);
        }
    }

    /// Drops every live entry (the eviction count is kept — it is part
    /// of the trail's history, not its contents).
    pub fn clear(&mut self) {
        self.evicted += self.buf.len();
        self.buf.clear();
    }
}

impl<T> Default for Ring<T> {
    fn default() -> Self {
        Ring::new(Self::DEFAULT_CAPACITY)
    }
}

impl<T> Deref for Ring<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.buf
    }
}

impl<'a, T> IntoIterator for &'a Ring<T> {
    type Item = &'a T;
    type IntoIter = core::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.buf.iter()
    }
}

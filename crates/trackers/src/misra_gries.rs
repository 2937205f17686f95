//! The Misra–Gries heavy-hitter summary (Misra & Gries, 1982).
//!
//! With `k` counters, Misra–Gries guarantees that any item occurring more
//! than `N/(k+1)` times in a stream of length `N` is present in the table,
//! and that each tracked count underestimates the true count by at most
//! `N/(k+1)`. Graphene sizes `k` so that this slack stays below the Row
//! Hammer threshold; RRS uses the same summary to find swap candidates.
//!
//! This implementation uses the *spillover counter* refinement (as in
//! Graphene): instead of decrementing every counter when the table is full
//! (O(k) per insert in the textbook version), a single spillover value is
//! maintained, and a new item replaces an entry whose count equals the
//! spillover. This is O(1) amortized with a scan bounded by the table size
//! and is the variant hardware actually builds.

use std::collections::HashMap;

use crate::cost::TrackerCost;

/// A Misra–Gries summary over `u64` keys (DRAM row identifiers).
#[derive(Debug, Clone)]
pub struct MisraGries {
    /// Tracked entries: key -> estimated count.
    entries: HashMap<u64, u64>,
    /// Maximum number of tracked entries.
    capacity: usize,
    /// Spillover counter: lower bound subtracted from all untracked items.
    spillover: u64,
    /// Total observations.
    total: u64,
}

impl MisraGries {
    /// Creates a summary with `capacity` counters.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "Misra-Gries needs at least one counter");
        MisraGries {
            // Grows with the keys observed, up to `capacity`.
            entries: HashMap::new(),
            capacity,
            spillover: 0,
            total: 0,
        }
    }

    /// Observes one occurrence of `key` and returns its (possibly new)
    /// estimated count.
    pub fn observe(&mut self, key: u64) -> u64 {
        self.total += 1;
        if let Some(c) = self.entries.get_mut(&key) {
            *c += 1;
            return *c;
        }
        if self.entries.len() < self.capacity {
            self.entries.insert(key, self.spillover + 1);
            return self.spillover + 1;
        }
        // Table full: if some entry has count == spillover it is
        // indistinguishable from an untracked item — replace it.
        if let Some((&victim, _)) = self.entries.iter().find(|&(_, &c)| c <= self.spillover) {
            self.entries.remove(&victim);
            self.entries.insert(key, self.spillover + 1);
            self.spillover + 1
        } else {
            // Classic decrement step, realized by raising the spillover floor.
            self.spillover += 1;
            self.spillover
        }
    }

    /// Estimated count of `key` (the spillover floor for untracked keys).
    pub fn estimate(&self, key: u64) -> u64 {
        self.entries.get(&key).copied().unwrap_or(self.spillover)
    }

    /// The entry with the highest estimated count.
    ///
    /// Ties break toward the smallest key for determinism.
    pub fn max_entry(&self) -> Option<(u64, u64)> {
        self.entries
            .iter()
            .map(|(&k, &c)| (k, c))
            .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
    }

    /// Resets the count of `key` to the current spillover floor (used after
    /// a mitigating action neutralizes the row).
    pub fn reset_key(&mut self, key: u64) {
        if let Some(c) = self.entries.get_mut(&key) {
            *c = self.spillover;
        }
    }

    /// Removes all state (e.g. on a refresh-window boundary).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.spillover = 0;
        self.total = 0;
    }

    /// Number of tracked entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total observations since the last clear.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Current spillover floor.
    pub fn spillover(&self) -> u64 {
        self.spillover
    }

    /// Guaranteed error bound: estimates are within `total/(capacity+1)` of
    /// the true count.
    pub fn error_bound(&self) -> u64 {
        self.total / (self.capacity as u64 + 1)
    }

    /// Hardware cost of this tracker (entry = row address + counter).
    pub fn cost(&self, row_addr_bits: u32, counter_bits: u32) -> TrackerCost {
        TrackerCost::cam_table(self.capacity, row_addr_bits, counter_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_exact_counts_when_under_capacity() {
        let mut mg = MisraGries::new(8);
        for _ in 0..5 {
            mg.observe(1);
        }
        for _ in 0..3 {
            mg.observe(2);
        }
        assert_eq!(mg.estimate(1), 5);
        assert_eq!(mg.estimate(2), 3);
        assert_eq!(mg.estimate(3), 0);
    }

    #[test]
    fn heavy_hitter_survives_noise() {
        // One row hammered 1000 times among 10000 one-shot rows; with k=64
        // the error bound is 11000/65 ≈ 169, so the hammer row must be
        // present with estimate >= 1000 - 169.
        let mut mg = MisraGries::new(64);
        for i in 0..10_000u64 {
            mg.observe(1_000_000 + i);
            if i % 10 == 0 {
                for _ in 0..1 {
                    mg.observe(7);
                }
            }
        }
        let est = mg.estimate(7);
        assert!(est + mg.error_bound() >= 1000, "estimate {est} too low");
        let (top, _) = mg.max_entry().unwrap();
        assert_eq!(top, 7);
    }

    #[test]
    fn underestimate_invariant() {
        // MG never overestimates: estimate(key) <= true count + 0 for tracked
        // increments... more precisely, estimate <= true + spillover at
        // insertion; the classic invariant is estimate - true <= spillover.
        let mut mg = MisraGries::new(4);
        let stream: Vec<u64> = (0..2000).map(|i| i % 13).collect();
        let mut truth = HashMap::new();
        for &s in &stream {
            *truth.entry(s).or_insert(0u64) += 1;
            mg.observe(s);
        }
        for (&k, &t) in &truth {
            let e = mg.estimate(k);
            assert!(e <= t + mg.spillover(), "key {k}: est {e} truth {t}");
        }
    }

    #[test]
    fn error_bound_matches_theory() {
        let mut mg = MisraGries::new(9);
        for i in 0..1000u64 {
            mg.observe(i % 100);
        }
        assert_eq!(mg.error_bound(), 100); // 1000/(9+1)
    }

    #[test]
    fn reset_key_floors_entry() {
        let mut mg = MisraGries::new(4);
        for _ in 0..10 {
            mg.observe(5);
        }
        mg.reset_key(5);
        assert_eq!(mg.estimate(5), mg.spillover());
    }

    #[test]
    fn clear_resets_everything() {
        let mut mg = MisraGries::new(4);
        for i in 0..100 {
            mg.observe(i % 7);
        }
        mg.clear();
        assert!(mg.is_empty());
        assert_eq!(mg.total(), 0);
        assert_eq!(mg.spillover(), 0);
    }

    #[test]
    fn replacement_prefers_spillover_floor_entries() {
        let mut mg = MisraGries::new(2);
        mg.observe(1); // count 1
        mg.observe(1); // count 2
        mg.observe(2); // count 1
        mg.observe(3); // full, no entry <= spillover(0)? entry 2 has 1 > 0 -> spillover becomes 1
        assert_eq!(mg.spillover(), 1);
        mg.observe(4); // entry 2 has count 1 == spillover -> replaced by 4 with count 2
        assert_eq!(mg.estimate(4), 2);
        assert_eq!(mg.len(), 2);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _ = MisraGries::new(0);
    }

    #[test]
    fn max_entry_empty_is_none() {
        let mg = MisraGries::new(3);
        assert!(mg.max_entry().is_none());
    }
}

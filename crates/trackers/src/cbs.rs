//! Counter-based Summary (CbS) — Mithril's tracking structure.
//!
//! Mithril (Kim et al., HPCA 2022) tracks per-row activation counts in a CAM
//! using a Counter-based Summary, a Space-Saving-family algorithm: when a new
//! row arrives and the table is full, the *minimum* entry is evicted and the
//! new row inherits `min + 1`. This guarantees (like Space-Saving) that the
//! true count of any row is at most its stored estimate, and that the table
//! min is an upper bound on the count of any untracked row.
//!
//! On every RFM, Mithril refreshes the victims of the row with the *largest*
//! `(count - min)` gap and then lowers that row's counter to the table
//! minimum — both operations this module supports directly.

use std::collections::HashMap;

use crate::cost::TrackerCost;

/// A Counter-based Summary over `u64` row keys.
#[derive(Debug, Clone)]
pub struct CounterSummary {
    entries: HashMap<u64, u64>,
    capacity: usize,
    total: u64,
}

impl CounterSummary {
    /// Creates a summary with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "CbS needs at least one counter");
        CounterSummary {
            // Grows with the keys observed, up to `capacity`.
            entries: HashMap::new(),
            capacity,
            total: 0,
        }
    }

    /// Observes one occurrence of `key`.
    pub fn observe(&mut self, key: u64) {
        self.total += 1;
        if let Some(c) = self.entries.get_mut(&key) {
            *c += 1;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.insert(key, 1);
            return;
        }
        // Space-Saving eviction: replace the min entry; new key gets min+1.
        let (&victim, &min) = self
            .entries
            .iter()
            .min_by(|a, b| a.1.cmp(b.1).then_with(|| a.0.cmp(b.0)))
            .expect("table is full, hence non-empty");
        self.entries.remove(&victim);
        self.entries.insert(key, min + 1);
    }

    /// The stored estimate for `key`; untracked keys are bounded by
    /// [`CounterSummary::min`].
    pub fn estimate(&self, key: u64) -> u64 {
        self.entries
            .get(&key)
            .copied()
            .unwrap_or_else(|| self.min())
    }

    /// The minimum stored count (0 when the table is not yet full).
    pub fn min(&self) -> u64 {
        if self.entries.len() < self.capacity {
            0
        } else {
            self.entries.values().copied().min().unwrap_or(0)
        }
    }

    /// The entry with the largest `count - min` gap — Mithril's mitigation
    /// target on each RFM.
    pub fn hottest(&self) -> Option<(u64, u64)> {
        self.entries
            .iter()
            .map(|(&k, &c)| (k, c))
            .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
    }

    /// Lowers `key`'s counter to the current table minimum (performed after
    /// Mithril refreshes that row's victims).
    pub fn reset_to_min(&mut self, key: u64) {
        let min = self.min();
        if let Some(c) = self.entries.get_mut(&key) {
            *c = min;
        }
    }

    /// Clears all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
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

    /// Hardware cost (CAM table of row addresses + counters).
    pub fn cost(&self, row_addr_bits: u32, counter_bits: u32) -> TrackerCost {
        TrackerCost::cam_table(self.capacity, row_addr_bits, counter_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overestimate_invariant() {
        // Space-Saving property: estimate(key) >= true_count(key).
        let mut cbs = CounterSummary::new(4);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        // Adversarial-ish stream with more distinct keys than capacity.
        let stream: Vec<u64> = (0..3000).map(|i| (i * i) % 17).collect();
        for &s in &stream {
            *truth.entry(s).or_insert(0) += 1;
            cbs.observe(s);
        }
        for (&k, &t) in &truth {
            assert!(cbs.estimate(k) >= t.min(cbs.estimate(k)).min(t), "...");
            // estimate >= truth for tracked; untracked bounded by min
            if cbs.entries.contains_key(&k) {
                assert!(
                    cbs.estimate(k) >= t,
                    "key {k} est {} truth {t}",
                    cbs.estimate(k)
                );
            } else {
                assert!(
                    cbs.min() >= t,
                    "untracked key {k} truth {t} exceeds min {}",
                    cbs.min()
                );
            }
        }
    }

    #[test]
    fn hottest_finds_hammer_row() {
        let mut cbs = CounterSummary::new(16);
        for i in 0..5000u64 {
            cbs.observe(i % 64); // 64 distinct rows, uniform
            if i % 4 == 0 {
                cbs.observe(999); // hammer row, 25% extra traffic
            }
        }
        let (k, _) = cbs.hottest().unwrap();
        assert_eq!(k, 999);
    }

    #[test]
    fn reset_to_min_lowers_entry() {
        let mut cbs = CounterSummary::new(4);
        for _ in 0..100 {
            cbs.observe(1);
        }
        for k in [2, 3, 4] {
            cbs.observe(k);
        }
        let min = cbs.min();
        cbs.reset_to_min(1);
        assert_eq!(cbs.estimate(1), min);
    }

    #[test]
    fn min_zero_until_full() {
        let mut cbs = CounterSummary::new(3);
        cbs.observe(1);
        cbs.observe(2);
        assert_eq!(cbs.min(), 0);
        cbs.observe(3);
        assert_eq!(cbs.min(), 1);
    }

    #[test]
    fn eviction_inherits_min_plus_one() {
        let mut cbs = CounterSummary::new(2);
        cbs.observe(1);
        cbs.observe(1); // 1 -> 2
        cbs.observe(2); // 2 -> 1
        cbs.observe(3); // evicts 2 (min=1), 3 gets 2
        assert_eq!(cbs.estimate(3), 2);
        assert_eq!(cbs.len(), 2);
    }

    #[test]
    fn clear_empties() {
        let mut cbs = CounterSummary::new(2);
        cbs.observe(1);
        cbs.clear();
        assert!(cbs.is_empty());
        assert_eq!(cbs.total(), 0);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _ = CounterSummary::new(0);
    }
}

//! [`ActiveBanks`]: the scheduler's dense bank worklist.
//!
//! A system-scale configuration carries hundreds of banks, but at any
//! instant only the handful with queued requests, a pending RFM, or a row
//! left open under the closed-page policy can accept a command. The
//! scheduling pass and the next-event search therefore iterate this bitmask
//! instead of `0..total_banks`, turning both from O(banks) into
//! O(active banks) per pass.
//!
//! Iteration order is **ascending bank index** — the same order as the
//! original full scan. That ordering is load-bearing: banks on one channel
//! share a command bus, so which bank wins a cycle depends on visit order,
//! and changing it would change simulated outcomes.

/// A set of bank indices backed by a `u64` bitmask per 64 banks.
#[derive(Debug, Clone)]
pub struct ActiveBanks {
    words: Vec<u64>,
    banks: usize,
}

impl ActiveBanks {
    /// An empty set over a universe of `banks` banks.
    pub fn new(banks: usize) -> Self {
        ActiveBanks {
            words: vec![0; banks.div_ceil(64)],
            banks,
        }
    }

    /// Marks every bank in the universe active, degrading the next pass to
    /// the full O(banks) scan. Reference-engine use only (see
    /// `Engine::Reference`).
    pub fn insert_all(&mut self) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let banks_in_word = self.banks.saturating_sub(w * 64).min(64);
            *word = if banks_in_word == 64 {
                u64::MAX
            } else {
                (1u64 << banks_in_word) - 1
            };
        }
    }

    /// Number of 64-bank words (for snapshot iteration).
    pub fn words(&self) -> usize {
        self.words.len()
    }

    /// The `w`-th word, covering banks `64*w ..= 64*w + 63`.
    ///
    /// The scheduler iterates a *copy* of each word while it mutates the
    /// set, so a bank deactivating itself mid-pass cannot corrupt the walk.
    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Marks `bank` active. Idempotent.
    pub fn insert(&mut self, bank: usize) {
        self.words[bank / 64] |= 1 << (bank % 64);
    }

    /// Marks `bank` inactive. Idempotent.
    pub fn remove(&mut self, bank: usize) {
        self.words[bank / 64] &= !(1 << (bank % 64));
    }

    /// Whether `bank` is active.
    pub fn contains(&self, bank: usize) -> bool {
        (self.words[bank / 64] >> (bank % 64)) & 1 == 1
    }

    /// Active banks in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(w * 64 + b)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty() {
        let s = ActiveBanks::new(130);
        assert_eq!(s.words(), 3);
        assert!(s.iter().next().is_none());
        assert!(!s.contains(0));
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = ActiveBanks::new(128);
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(127);
        assert!(s.contains(63) && s.contains(64));
        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 127]);
    }

    #[test]
    fn iteration_is_ascending() {
        let mut s = ActiveBanks::new(200);
        for b in [199, 3, 65, 64, 0, 130] {
            s.insert(b);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 3, 64, 65, 130, 199]);
    }

    #[test]
    fn idempotent_ops() {
        let mut s = ActiveBanks::new(64);
        s.insert(5);
        s.insert(5);
        assert_eq!(s.iter().count(), 1);
        s.remove(5);
        s.remove(5);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn insert_all_covers_exactly_the_universe() {
        let mut s = ActiveBanks::new(130);
        s.insert_all();
        assert_eq!(s.iter().count(), 130);
        assert_eq!(s.iter().last(), Some(129));
        let mut full = ActiveBanks::new(64);
        full.insert_all();
        assert_eq!(full.word(0), u64::MAX);
    }

    #[test]
    fn word_snapshot_survives_mutation() {
        let mut s = ActiveBanks::new(64);
        s.insert(1);
        s.insert(7);
        let snap = s.word(0);
        s.remove(7);
        assert_eq!(snap.count_ones(), 2, "snapshot is a copy");
        assert_eq!(s.word(0).count_ones(), 1);
    }
}

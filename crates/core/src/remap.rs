//! The per-subarray remapping table — the contents of SHADOW's
//! remapping-row (§V-A) and the row-shuffle protocol (§IV-B).
//!
//! Each subarray of `n` MC-addressable rows physically holds `n + 1` data
//! rows (one extra *empty* row, unreachable by the MC) plus the
//! remapping-row itself. The table maps every PA row index (0..n) to a DA
//! slot (0..=n); the one unmapped DA slot is the current `Row_empt`.
//!
//! A shuffle involves three rows (Fig. 4):
//!
//! 1. `Row_rand` is row-copied to `Row_empt`'s slot,
//! 2. `Row_aggr` is row-copied to `Row_rand`'s old slot,
//! 3. `Row_aggr`'s old slot becomes the new empty row,
//!
//! after which the table is updated so subsequent ACTs with old PAs reach
//! the new DA locations. The storage budget matches the paper: with
//! `n = 512`, `(513 × 9 + 9)` bits comfortably fit a 1 KB remapping-row.

/// The physical row-copy operations of one shuffle, in execution order.
///
/// Each copy is realized in-DRAM as two back-to-back activations (RowClone:
/// sense the source into the row buffer, then drive the destination
/// wordline). The fault model charges disturbance for both activations and
/// credits both rows with a full restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShuffleOps {
    /// First copy: (`Row_rand`'s old DA slot) → (old empty slot).
    pub copy_rand: (u32, u32),
    /// Second copy: (`Row_aggr`'s old DA slot) → (`Row_rand`'s old DA slot).
    pub copy_aggr: (u32, u32),
    /// The DA slot that is empty after the shuffle (`Row_aggr`'s old slot).
    pub new_empty: u32,
}

impl ShuffleOps {
    /// The four row activations of the two copies, in order
    /// (source, destination, source, destination).
    pub fn activations(&self) -> [u32; 4] {
        [
            self.copy_rand.0,
            self.copy_rand.1,
            self.copy_aggr.0,
            self.copy_aggr.1,
        ]
    }
}

/// PA→DA mapping state of one subarray (the remapping-row contents).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemapTable {
    /// `fwd[pa] = da` for every MC-visible row.
    fwd: Vec<u32>,
    /// `inv[da] = pa`, or [`RemapTable::EMPTY`] for the empty slot.
    inv: Vec<u32>,
    /// DA slot currently holding no data.
    empty_da: u32,
    /// Incremental-refresh pointer, in DA space (§IV-C).
    incr_ptr: u32,
    shuffles: u64,
}

impl RemapTable {
    /// Sentinel marking the empty DA slot in the inverse map.
    pub const EMPTY: u32 = u32::MAX;

    /// Creates an identity mapping for a subarray of `n` MC-visible rows
    /// (DA slot `n` starts as the empty row).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u32) -> Self {
        assert!(n > 0, "subarray must have rows");
        let fwd: Vec<u32> = (0..n).collect();
        let mut inv = Vec::with_capacity(n as usize + 1);
        inv.extend(0..n);
        inv.push(Self::EMPTY);
        RemapTable {
            fwd,
            inv,
            empty_da: n,
            incr_ptr: 0,
            shuffles: 0,
        }
    }

    /// Number of MC-visible rows.
    pub fn rows(&self) -> u32 {
        self.fwd.len() as u32
    }

    /// Number of physical DA slots (`rows + 1`).
    pub fn slots(&self) -> u32 {
        self.inv.len() as u32
    }

    /// Translates a PA row index to its current DA slot.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is out of range.
    pub fn da_of(&self, pa: u32) -> u32 {
        self.fwd[pa as usize]
    }

    /// The PA currently stored in DA slot `da`, or `None` for the empty slot.
    ///
    /// # Panics
    ///
    /// Panics if `da` is out of range.
    pub fn pa_of(&self, da: u32) -> Option<u32> {
        let v = self.inv[da as usize];
        if v == Self::EMPTY {
            None
        } else {
            Some(v)
        }
    }

    /// The current empty DA slot.
    pub fn empty_da(&self) -> u32 {
        self.empty_da
    }

    /// The incremental-refresh pointer (DA space).
    pub fn incr_ptr(&self) -> u32 {
        self.incr_ptr
    }

    /// Advances the incremental-refresh pointer and returns the DA slot it
    /// pointed to (the row refreshed by this RFM).
    pub fn advance_incr_ptr(&mut self) -> u32 {
        let p = self.incr_ptr;
        self.incr_ptr = (self.incr_ptr + 1) % self.slots();
        p
    }

    /// Number of shuffles applied.
    pub fn shuffles(&self) -> u64 {
        self.shuffles
    }

    /// Executes the two-copy shuffle of `aggr_pa` and `rand_pa` (§IV-B) and
    /// returns the physical operations performed.
    ///
    /// If `aggr_pa == rand_pa` the shuffle degenerates to a single move into
    /// the empty slot (still randomizing the aggressor's location).
    ///
    /// # Panics
    ///
    /// Panics if either PA is out of range.
    pub fn shuffle(&mut self, aggr_pa: u32, rand_pa: u32) -> ShuffleOps {
        let old_empty = self.empty_da;
        let rand_da = self.da_of(rand_pa);
        let aggr_da = self.da_of(aggr_pa);
        self.shuffles += 1;

        if aggr_pa == rand_pa {
            // Degenerate single-move: aggr → empty slot.
            self.fwd[aggr_pa as usize] = old_empty;
            self.inv[old_empty as usize] = aggr_pa;
            self.inv[aggr_da as usize] = Self::EMPTY;
            self.empty_da = aggr_da;
            return ShuffleOps {
                copy_rand: (aggr_da, old_empty),
                copy_aggr: (aggr_da, old_empty),
                new_empty: aggr_da,
            };
        }

        // Copy 1: Row_rand -> old empty slot.
        self.fwd[rand_pa as usize] = old_empty;
        self.inv[old_empty as usize] = rand_pa;
        // Copy 2: Row_aggr -> Row_rand's old slot.
        self.fwd[aggr_pa as usize] = rand_da;
        self.inv[rand_da as usize] = aggr_pa;
        // Row_aggr's old slot is now empty.
        self.inv[aggr_da as usize] = Self::EMPTY;
        self.empty_da = aggr_da;

        ShuffleOps {
            copy_rand: (rand_da, old_empty),
            copy_aggr: (aggr_da, rand_da),
            new_empty: aggr_da,
        }
    }

    /// Reconstructs a table from an explicit PA→DA mapping and pointer
    /// (the remapping-row decode path; see [`crate::rowimage`]).
    ///
    /// # Errors
    ///
    /// Describes the defect if `fwd` is not an injection into the slot
    /// space or `incr_ptr` is out of range.
    pub fn from_mapping(fwd: &[u32], incr_ptr: u32) -> Result<Self, String> {
        let n = fwd.len() as u32;
        if n == 0 {
            return Err("mapping has no rows".into());
        }
        let slots = n + 1;
        if incr_ptr >= slots {
            return Err(format!("pointer {incr_ptr} out of range"));
        }
        let mut inv = vec![Self::EMPTY; slots as usize];
        for (pa, &da) in fwd.iter().enumerate() {
            if da >= slots {
                return Err(format!("fwd[{pa}] = {da} out of range"));
            }
            if inv[da as usize] != Self::EMPTY {
                return Err(format!("DA slot {da} mapped twice"));
            }
            inv[da as usize] = pa as u32;
        }
        let empty_da = inv
            .iter()
            .position(|&v| v == Self::EMPTY)
            .expect("n+1 slots with n mappings leave one empty") as u32;
        let table = RemapTable {
            fwd: fwd.to_vec(),
            inv,
            empty_da,
            incr_ptr,
            shuffles: 0,
        };
        debug_assert!(table.check_invariants().is_ok());
        Ok(table)
    }

    /// Storage the remapping-row needs, in bits: `(n + 1)` DA entries plus
    /// the incremental pointer, each `ceil(log2(n + 1))` bits (§V-A).
    pub fn storage_bits(&self) -> u64 {
        let entry_bits = (32 - (self.slots() - 1).leading_zeros()) as u64;
        (self.slots() as u64 + 1) * entry_bits
    }

    /// Verifies the bijection invariant (used by tests and debug assertions).
    ///
    /// # Errors
    ///
    /// Describes the first inconsistency found.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.rows();
        let mut seen = vec![false; self.slots() as usize];
        for pa in 0..n {
            let da = self.fwd[pa as usize];
            if da >= self.slots() {
                return Err(format!("fwd[{pa}] = {da} out of range"));
            }
            if seen[da as usize] {
                return Err(format!("DA slot {da} mapped twice"));
            }
            seen[da as usize] = true;
            if self.inv[da as usize] != pa {
                return Err(format!("inv[{da}] != {pa}"));
            }
        }
        if seen[self.empty_da as usize] {
            return Err(format!("empty slot {} is mapped", self.empty_da));
        }
        if self.inv[self.empty_da as usize] != Self::EMPTY {
            return Err("inverse of empty slot not marked EMPTY".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_at_start() {
        let t = RemapTable::new(8);
        for pa in 0..8 {
            assert_eq!(t.da_of(pa), pa);
            assert_eq!(t.pa_of(pa), Some(pa));
        }
        assert_eq!(t.empty_da(), 8);
        assert_eq!(t.pa_of(8), None);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn new_allocates_exact_capacity() {
        let t = RemapTable::new(512);
        assert_eq!(t.fwd.capacity(), 512);
        assert_eq!(t.inv.capacity(), t.slots() as usize);
    }

    #[test]
    fn shuffle_moves_three_rows() {
        let mut t = RemapTable::new(8);
        let ops = t.shuffle(2, 5);
        // rand (PA 5) moved to old empty slot 8.
        assert_eq!(t.da_of(5), 8);
        // aggr (PA 2) moved to rand's old slot 5.
        assert_eq!(t.da_of(2), 5);
        // aggr's old slot 2 is now empty.
        assert_eq!(t.empty_da(), 2);
        assert_eq!(ops.copy_rand, (5, 8));
        assert_eq!(ops.copy_aggr, (2, 5));
        assert_eq!(ops.new_empty, 2);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn degenerate_shuffle_still_moves_aggressor() {
        let mut t = RemapTable::new(8);
        let before = t.da_of(3);
        t.shuffle(3, 3);
        assert_ne!(t.da_of(3), before, "aggressor must relocate");
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn long_shuffle_sequence_preserves_bijection() {
        let mut t = RemapTable::new(512);
        let mut x = 12345u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (x >> 16) as u32 % 512;
            let r = (x >> 40) as u32 % 512;
            t.shuffle(a, r);
        }
        assert!(t.check_invariants().is_ok());
        assert_eq!(t.shuffles(), 10_000);
    }

    #[test]
    fn shuffles_randomize_mapping() {
        let mut t = RemapTable::new(512);
        let mut x = 999u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            t.shuffle((x >> 16) as u32 % 512, (x >> 40) as u32 % 512);
        }
        let moved = (0..512).filter(|&pa| t.da_of(pa) != pa).count();
        assert!(
            moved > 400,
            "only {moved}/512 rows moved after 2000 shuffles"
        );
    }

    #[test]
    fn incr_ptr_walks_all_slots() {
        let mut t = RemapTable::new(4); // 5 slots
        let seq: Vec<u32> = (0..10).map(|_| t.advance_incr_ptr()).collect();
        assert_eq!(seq, vec![0, 1, 2, 3, 4, 0, 1, 2, 3, 4]);
    }

    #[test]
    fn storage_matches_paper_budget() {
        let t = RemapTable::new(512);
        // 513 slots -> 10-bit entries... the paper uses 9 bits for 513 rows
        // plus empty; with 513 slots ceil(log2(513)) = 10 bits; the paper's
        // 9-bit figure addresses 512 ordinary rows + empty encoded in-band.
        // Either way the total must fit a 1 KB (8192-bit) remapping-row.
        assert!(
            t.storage_bits() <= 8192,
            "storage {} bits",
            t.storage_bits()
        );
    }

    #[test]
    fn inverse_tracks_forward() {
        let mut t = RemapTable::new(16);
        t.shuffle(1, 2);
        t.shuffle(3, 1);
        t.shuffle(2, 3);
        for pa in 0..16 {
            assert_eq!(t.pa_of(t.da_of(pa)), Some(pa));
        }
    }

    #[test]
    fn empty_slot_never_translated_to() {
        let mut t = RemapTable::new(32);
        let mut x = 77u64;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            t.shuffle((x >> 16) as u32 % 32, (x >> 40) as u32 % 32);
            let empty = t.empty_da();
            for pa in 0..32 {
                assert_ne!(t.da_of(pa), empty);
            }
        }
    }

    #[test]
    #[should_panic]
    fn zero_rows_rejected() {
        let _ = RemapTable::new(0);
    }

    #[test]
    fn from_mapping_roundtrip() {
        let mut t = RemapTable::new(16);
        t.shuffle(3, 9);
        t.shuffle(1, 12);
        t.advance_incr_ptr();
        let fwd: Vec<u32> = (0..16).map(|pa| t.da_of(pa)).collect();
        let back = RemapTable::from_mapping(&fwd, t.incr_ptr()).unwrap();
        assert_eq!(back.empty_da(), t.empty_da());
        for pa in 0..16 {
            assert_eq!(back.da_of(pa), t.da_of(pa));
        }
    }

    #[test]
    fn from_mapping_rejects_duplicates_and_ranges() {
        assert!(RemapTable::from_mapping(&[0, 0], 0).is_err());
        assert!(RemapTable::from_mapping(&[0, 5], 0).is_err()); // 5 >= 3 slots
        assert!(RemapTable::from_mapping(&[0, 1], 3).is_err()); // ptr out of range
        assert!(RemapTable::from_mapping(&[], 0).is_err());
    }
}

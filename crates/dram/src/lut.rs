//! Precomputed per-bank coordinate lookup tables.
//!
//! The scheduler and the device both need a bank's (channel, rank, bank
//! group) far more often than they commit commands, and the geometry decode
//! costs integer divisions. [`GeometryLut`] precomputes all three once so
//! every consumer (the device's timing checks, the memory controller's
//! frontier bookkeeping and per-channel scheduler slices) shares one table
//! instead of growing private copies.

use crate::geometry::{BankId, DramGeometry};

/// Dense per-bank (channel, flat rank, bank-group) tables.
#[derive(Debug, Clone)]
pub struct GeometryLut {
    channel: Vec<u32>,
    rank: Vec<u32>,
    group: Vec<u32>,
}

impl GeometryLut {
    /// Precomputes the tables for `geo`.
    pub fn new(geo: &DramGeometry) -> Self {
        let bpg = geo.banks_per_group;
        let total = geo.total_banks();
        let mut channel = Vec::with_capacity(total as usize);
        let mut rank = Vec::with_capacity(total as usize);
        let mut group = Vec::with_capacity(total as usize);
        for b in 0..total {
            let bank = BankId(b);
            let (ch, _, bir) = geo.bank_coords(bank);
            channel.push(ch);
            rank.push(geo.rank_of(bank));
            group.push(bir / bpg);
        }
        GeometryLut {
            channel,
            rank,
            group,
        }
    }

    /// Channel index of `bank`.
    #[inline]
    pub fn channel_of(&self, bank: BankId) -> u32 {
        self.channel[bank.0 as usize]
    }

    /// Flat rank index (`0..total_ranks`) of `bank`.
    #[inline]
    pub fn rank_of(&self, bank: BankId) -> u32 {
        self.rank[bank.0 as usize]
    }

    /// Bank group (within the rank) of `bank`.
    #[inline]
    pub fn group_of(&self, bank: BankId) -> u32 {
        self.group[bank.0 as usize]
    }

    /// Number of banks covered.
    pub fn len(&self) -> usize {
        self.channel.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.channel.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lut_matches_geometry_decode() {
        for geo in [
            DramGeometry::tiny(),
            DramGeometry::ddr4_4ch(),
            DramGeometry::ddr5_4ch(),
        ] {
            let lut = GeometryLut::new(&geo);
            assert_eq!(lut.len(), geo.total_banks() as usize);
            for b in 0..geo.total_banks() {
                let bank = BankId(b);
                let (ch, _, bir) = geo.bank_coords(bank);
                assert_eq!(lut.channel_of(bank), ch);
                assert_eq!(lut.rank_of(bank), geo.rank_of(bank));
                assert_eq!(lut.group_of(bank), bir / geo.banks_per_group);
            }
        }
    }

    #[test]
    fn channels_own_contiguous_bank_ranges() {
        // Channel-major flattening is what gives each channel's scheduler
        // slice a contiguous global bank range; pin it here.
        let geo = DramGeometry::ddr5_4ch();
        let lut = GeometryLut::new(&geo);
        let per_ch = geo.total_banks() / geo.channels;
        for b in 0..geo.total_banks() {
            assert_eq!(lut.channel_of(BankId(b)), b / per_ch);
        }
    }
}

//! The [`RandomSource`] trait and the PRINCE-CTR generator.
//!
//! The SHADOW controller (paper Fig. 5) buffers random numbers produced by
//! the per-chip RNG unit ahead of time so that row selection adds no latency
//! to the RFM critical path. In this reproduction, every consumer of in-DRAM
//! randomness draws through [`RandomSource`], which lets experiments swap the
//! CSPRNG for the LFSR (DESIGN.md ablation #5) or for a deterministic stub.

use crate::lfsr::Lfsr;
use crate::prince::Prince;

/// An object-safe source of in-DRAM random numbers.
///
/// Implementations must be deterministic given their construction state so
/// that security experiments are reproducible. `Send` is part of the
/// contract: parallel sweeps run each cell's system, its sources
/// included, on a worker thread, and every implementation is plain owned
/// data.
pub trait RandomSource: std::fmt::Debug + Send {
    /// Returns the next 64 bits of the stream.
    fn next_u64(&mut self) -> u64;

    /// Returns a uniform value in `[0, bound)` by rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn gen_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_below requires a positive bound");
        // Rejection sampling on the top bits keeps the distribution exact,
        // mirroring how the controller would consume buffered random words.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }
}

/// Number of keystream blocks a [`PrinceRng`] encrypts per refill.
///
/// Mirrors the paper's ahead-of-time random-number buffer (Fig. 5) and
/// amortizes the per-block call overhead through
/// [`Prince::encrypt_batch`]. The value is invisible to consumers: the
/// stream is `E_k(nonce + i)` regardless of buffering.
pub const KEYSTREAM_BUF_BLOCKS: usize = 32;

/// Counter blocks reserved for each seed-derivation substream.
///
/// Per-bank RNG state is derived from one PRINCE-CTR stream by giving bank
/// `b` the counter window `[b * SEED_SUBSTREAM_BLOCKS, (b + 1) *
/// SEED_SUBSTREAM_BLOCKS)`. Equal to [`KEYSTREAM_BUF_BLOCKS`] so a single
/// buffer refill never encrypts counters outside the owning window; since
/// channels own disjoint bank ranges, distinct channels draw from disjoint
/// PRINCE counter ranges by construction (pinned by a conformance proptest).
pub const SEED_SUBSTREAM_BLOCKS: u64 = KEYSTREAM_BUF_BLOCKS as u64;

/// Half-open PRINCE counter range `[start, end)` owned by bank `bank`'s
/// seed-derivation substream (see [`SEED_SUBSTREAM_BLOCKS`]).
pub fn substream_counter_range(bank: u64) -> (u64, u64) {
    let start = bank * SEED_SUBSTREAM_BLOCKS;
    (start, start + SEED_SUBSTREAM_BLOCKS)
}

/// PRINCE in counter mode: `block_i = E_k(nonce + i)`.
///
/// The paper's default RNG (§V-C): cryptographically secure assuming PRINCE
/// is a PRP, with throughput far above SHADOW's 126 Mbit/s demand.
///
/// Blocks are produced a buffer at a time (like the controller's
/// ahead-of-time RNG buffer) but consumed one by one;
/// [`blocks_generated`](Self::blocks_generated) counts *consumed* blocks,
/// so buffering never shows through the public API.
///
/// ```
/// use shadow_crypto::{PrinceRng, RandomSource};
/// let mut a = PrinceRng::new(1, 2);
/// let mut b = PrinceRng::new(1, 2);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic per key
/// ```
#[derive(Debug, Clone)]
pub struct PrinceRng {
    cipher: Prince,
    /// Counter of the next block to *consume* (not the refill frontier).
    counter: u64,
    /// Pre-encrypted keystream: `buf[i] = E_k(buf_base + i)` for `i < buf_len`.
    buf: [u64; KEYSTREAM_BUF_BLOCKS],
    buf_base: u64,
    buf_len: usize,
}

impl PrinceRng {
    /// Creates a generator from the 128-bit key `k0 || k1`, counter at zero.
    pub fn new(k0: u64, k1: u64) -> Self {
        Self::with_counter(k0, k1, 0)
    }

    /// Creates the seed-derivation substream for bank `bank`.
    ///
    /// The stream starts at the first counter of the bank's reserved window
    /// (see [`substream_counter_range`]); drawing at most
    /// [`SEED_SUBSTREAM_BLOCKS`] blocks keeps consumption inside it, and one
    /// buffer refill encrypts exactly that window.
    pub fn bank_substream(k0: u64, k1: u64, bank: u64) -> Self {
        Self::with_counter(k0, k1, substream_counter_range(bank).0)
    }

    /// Creates a generator with an explicit starting counter (nonce).
    pub fn with_counter(k0: u64, k1: u64, counter: u64) -> Self {
        PrinceRng {
            cipher: Prince::new(k0, k1),
            counter,
            buf: [0; KEYSTREAM_BUF_BLOCKS],
            buf_base: 0,
            buf_len: 0,
        }
    }

    /// Re-keys the generator (models boot-time / periodic key refresh, §VIII).
    pub fn rekey(&mut self, k0: u64, k1: u64) {
        self.cipher = Prince::new(k0, k1);
        self.counter = 0;
        self.buf_len = 0;
    }

    /// Blocks consumed from the keystream so far.
    pub fn blocks_generated(&self) -> u64 {
        self.counter
    }

    /// Refills the keystream buffer starting at the consume counter.
    #[cold]
    fn refill(&mut self) {
        self.buf_base = self.counter;
        for (i, b) in self.buf.iter_mut().enumerate() {
            *b = self.counter.wrapping_add(i as u64);
        }
        self.cipher.encrypt_batch(&mut self.buf);
        self.buf_len = KEYSTREAM_BUF_BLOCKS;
    }
}

impl RandomSource for PrinceRng {
    fn next_u64(&mut self) -> u64 {
        let idx = self.counter.wrapping_sub(self.buf_base);
        if self.buf_len == 0 || idx >= self.buf_len as u64 {
            self.refill();
        }
        let idx = self.counter.wrapping_sub(self.buf_base) as usize;
        let block = self.buf[idx];
        self.counter = self.counter.wrapping_add(1);
        block
    }
}

impl RandomSource for Lfsr {
    fn next_u64(&mut self) -> u64 {
        Lfsr::next_u64(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prince_ctr_deterministic_and_counted() {
        let mut rng = PrinceRng::new(0xAA, 0xBB);
        let v1 = rng.next_u64();
        let v2 = rng.next_u64();
        assert_ne!(v1, v2);
        assert_eq!(rng.blocks_generated(), 2);
        let mut again = PrinceRng::new(0xAA, 0xBB);
        assert_eq!(again.next_u64(), v1);
    }

    #[test]
    fn with_counter_offsets_stream() {
        let mut a = PrinceRng::new(5, 6);
        a.next_u64();
        let second = a.next_u64();
        let mut b = PrinceRng::with_counter(5, 6, 1);
        assert_eq!(b.next_u64(), second);
    }

    #[test]
    fn rekey_restarts_stream() {
        let mut rng = PrinceRng::new(1, 2);
        let first = rng.next_u64();
        rng.next_u64();
        rng.rekey(1, 2);
        assert_eq!(rng.next_u64(), first);
    }

    #[test]
    fn gen_below_bounds_and_uniformity() {
        let mut rng = PrinceRng::new(3, 4);
        let mut buckets = [0u32; 8];
        for _ in 0..40_000 {
            let v = rng.gen_below(8);
            assert!(v < 8);
            buckets[v as usize] += 1;
        }
        for &b in &buckets {
            assert!((b as f64 - 5000.0).abs() < 300.0, "bucket {b}");
        }
    }

    #[test]
    #[should_panic]
    fn gen_below_zero_panics() {
        let mut rng = PrinceRng::new(0, 0);
        let _ = rng.gen_below(0);
    }

    #[test]
    fn trait_object_usable() {
        let mut sources: Vec<Box<dyn RandomSource>> =
            vec![Box::new(PrinceRng::new(1, 2)), Box::new(Lfsr::new(77))];
        for s in &mut sources {
            let v = s.gen_below(513);
            assert!(v < 513);
        }
    }

    #[test]
    fn bank_substreams_are_disjoint_and_window_bounded() {
        let (s0, e0) = substream_counter_range(0);
        let (s1, e1) = substream_counter_range(1);
        assert_eq!(s0, 0, "bank 0's window starts at the counter origin");
        assert_eq!(e0, s1, "windows must tile the counter space");
        assert!(e1 > e0);
        // A substream starts at its window base and a refill stays inside it.
        let mut rng = PrinceRng::bank_substream(9, 9, 3);
        let (start, end) = substream_counter_range(3);
        assert_eq!(rng.blocks_generated(), start);
        for _ in 0..SEED_SUBSTREAM_BLOCKS {
            rng.next_u64();
        }
        assert_eq!(rng.blocks_generated(), end);
        // Distinct banks produce distinct leading blocks under the same key.
        let a = PrinceRng::bank_substream(9, 9, 0).next_u64();
        let b = PrinceRng::bank_substream(9, 9, 1).next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn keystream_bit_balance() {
        let mut rng = PrinceRng::new(0x0123, 0x4567);
        let mut ones = 0u32;
        for _ in 0..1000 {
            ones += rng.next_u64().count_ones();
        }
        let frac = ones as f64 / 64_000.0;
        assert!((frac - 0.5).abs() < 0.01, "keystream bias {frac}");
    }
}

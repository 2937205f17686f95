//! Timing wrappers for the traced pass.
//!
//! The layers the benchmark can reach from outside are the request streams
//! (`shadow-workloads`) and the mitigation (`shadow-mitigations`); both are
//! trait objects handed to `MemSystem::try_new`, so the traced pass wraps
//! each in a forwarding type that counts calls and sums their durations
//! with a pair of `Instant` reads. Wrappers keep their tallies in plain
//! fields and add them to a shared [`Ledger`] when the system drops them,
//! so the hot path takes no lock.
//!
//! A wrapped mitigation no longer devirtualizes into `AnyMitigation`'s enum
//! arms: the engine dispatches through the trait object instead. That is
//! part of the tracing cost `trace.overhead_ratio` reports; the outcome is
//! unchanged, which every traced pass checks by digest.

use std::cell::Cell;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use shadow_mitigations::{AboSpec, ActResponse, Mitigation, RfmAction};
use shadow_workloads::{Request, RequestStream};

/// Whole nanoseconds in `d`, saturating.
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Calls to one method and their summed recorded duration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStats {
    /// Calls made.
    pub calls: u64,
    /// Summed `Instant` difference across the calls, in nanoseconds.
    pub recorded_ns: u64,
}

impl CallStats {
    fn add(&mut self, other: CallStats) {
        self.calls += other.calls;
        self.recorded_ns += other.recorded_ns;
    }

    /// Time spent inside the wrapped method, in seconds: the recorded
    /// durations less what the clock reads themselves record.
    pub fn self_s(&self, clock: &Clock) -> f64 {
        (self.recorded_ns as f64 - self.calls as f64 * clock.read_ns) / 1e9
    }
}

/// Times `f` into `stats`.
#[inline]
fn timed<R>(stats: &mut CallStats, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = f();
    stats.recorded_ns += nanos(t.elapsed());
    stats.calls += 1;
    out
}

/// The mitigation methods the engine calls per request, ACT or RFM.
pub const MITIGATION_METHODS: [&str; 7] = [
    "translate",
    "remap_epoch",
    "on_activate",
    "on_rfm",
    "counts_toward_rfm",
    "on_act_issued",
    "on_recovery_rfm",
];

/// Per-method tallies, indexed like [`MITIGATION_METHODS`].
pub type MitigationStats = [CallStats; 7];

/// Tallies of every wrapper dropped since the ledger was created.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Mitigation methods, indexed like [`MITIGATION_METHODS`].
    pub mitigation: MitigationStats,
    /// `RequestStream::next_request`.
    pub next_request: CallStats,
}

/// A ledger the wrappers of one traced pass share.
pub type SharedLedger = Arc<Mutex<Ledger>>;

/// What one timed call costs, calibrated on this host at start-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clock {
    /// Mean duration recorded for an empty timed interval, in ns.
    pub read_ns: f64,
    /// Mean wall time one timed call adds around the wrapped work, in ns.
    pub call_ns: f64,
}

impl Clock {
    /// Times `n` empty intervals the way the wrappers time a call.
    pub fn calibrate(n: u32) -> Clock {
        let mut stats = CallStats::default();
        let start = Instant::now();
        for _ in 0..n {
            timed(&mut stats, || black_box(()));
        }
        let total_ns = nanos(start.elapsed());
        let n = f64::from(n.max(1));
        Clock {
            read_ns: stats.recorded_ns as f64 / n,
            call_ns: total_ns as f64 / n,
        }
    }
}

/// A request stream that counts and times `next_request`.
#[derive(Debug)]
pub struct TimedStream {
    inner: Box<dyn RequestStream>,
    stats: CallStats,
    ledger: SharedLedger,
}

impl TimedStream {
    /// Wraps `inner`; its tally lands in `ledger` on drop.
    pub fn new(inner: Box<dyn RequestStream>, ledger: SharedLedger) -> Self {
        TimedStream {
            inner,
            stats: CallStats::default(),
            ledger,
        }
    }
}

impl RequestStream for TimedStream {
    fn next_request(&mut self) -> Request {
        timed(&mut self.stats, || self.inner.next_request())
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

impl Drop for TimedStream {
    fn drop(&mut self) {
        if let Ok(mut ledger) = self.ledger.lock() {
            ledger.next_request.add(self.stats);
        }
    }
}

/// A mitigation that forwards every trait method, timing the ones the
/// engine calls per request, ACT or RFM.
#[derive(Debug)]
pub struct TimedMitigation {
    inner: Box<dyn Mitigation>,
    stats: MitigationStats,
    /// `remap_epoch` takes `&self`.
    remap_epoch: Cell<CallStats>,
    ledger: SharedLedger,
}

impl TimedMitigation {
    /// Wraps `inner`; its tallies land in `ledger` on drop.
    pub fn new(inner: Box<dyn Mitigation>, ledger: SharedLedger) -> Self {
        TimedMitigation {
            inner,
            stats: MitigationStats::default(),
            remap_epoch: Cell::new(CallStats::default()),
            ledger,
        }
    }
}

impl Mitigation for TimedMitigation {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn translate(&mut self, bank: usize, pa_row: u32) -> u32 {
        timed(&mut self.stats[0], || self.inner.translate(bank, pa_row))
    }

    fn remap_epoch(&self, bank: usize) -> u64 {
        let mut stats = self.remap_epoch.get();
        let epoch = timed(&mut stats, || self.inner.remap_epoch(bank));
        self.remap_epoch.set(stats);
        epoch
    }

    fn on_activate(&mut self, bank: usize, pa_row: u32, cycle: u64) -> ActResponse {
        timed(&mut self.stats[2], || {
            self.inner.on_activate(bank, pa_row, cycle)
        })
    }

    fn on_rfm(&mut self, bank: usize) -> RfmAction {
        timed(&mut self.stats[3], || self.inner.on_rfm(bank))
    }

    fn uses_rfm(&self) -> bool {
        self.inner.uses_rfm()
    }

    fn raaimt(&self) -> Option<u32> {
        self.inner.raaimt()
    }

    fn t_rcd_extra_cycles(&self) -> u64 {
        self.inner.t_rcd_extra_cycles()
    }

    fn da_rows_per_subarray(&self, rows_per_subarray: u32) -> u32 {
        self.inner.da_rows_per_subarray(rows_per_subarray)
    }

    fn refresh_rate_multiplier(&self) -> u32 {
        self.inner.refresh_rate_multiplier()
    }

    fn counts_toward_rfm(&mut self, bank: usize, pa_row: u32) -> bool {
        timed(&mut self.stats[4], || {
            self.inner.counts_toward_rfm(bank, pa_row)
        })
    }

    fn abo(&self) -> Option<AboSpec> {
        self.inner.abo()
    }

    fn on_act_issued(&mut self, bank: usize, da_row: u32) -> bool {
        timed(&mut self.stats[5], || {
            self.inner.on_act_issued(bank, da_row)
        })
    }

    fn on_recovery_rfm(&mut self, bank: usize) -> RfmAction {
        timed(&mut self.stats[6], || self.inner.on_recovery_rfm(bank))
    }

    fn tracker_evictions(&self) -> u64 {
        self.inner.tracker_evictions()
    }

    /// Forwarded untimed: the benchmark never asks for the sharded engine,
    /// so the engine never splits a traced mitigation.
    fn split_channels(
        &mut self,
        channels: usize,
        banks_per_channel: usize,
    ) -> Option<Vec<Box<dyn Mitigation>>> {
        self.inner.split_channels(channels, banks_per_channel)
    }
}

impl Drop for TimedMitigation {
    fn drop(&mut self) {
        self.stats[1] = self.remap_epoch.get();
        if let Ok(mut ledger) = self.ledger.lock() {
            for (total, mine) in ledger.mitigation.iter_mut().zip(self.stats) {
                total.add(mine);
            }
        }
    }
}

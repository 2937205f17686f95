//! Runtime-switched hot-path phase profiler.
//!
//! The simulation engine attributes wall-clock time to six coarse phases
//! of the per-cycle data plane:
//!
//! * **schedule** — the FR-FCFS scheduling pass and idle-time frontier
//!   derivation (gross time: it *contains* the other phases when they are
//!   entered from inside the scheduler).
//! * **calendar** — event-calendar maintenance inside the scheduler: due
//!   pops, stale-entry discards, and the pop-validate `next_min` loop (a
//!   sub-phase of the gross `schedule` time).
//! * **translate** — PA→DA row translation and row-hit queue scans.
//! * **ledger** — Row Hammer disturbance deposits and restores.
//! * **rng** — mitigation callbacks (`on_activate`/`on_rfm`), which is
//!   where SHADOW's PRINCE keystream draws happen.
//! * **device** — DRAM bank/rank state commits (`issue`).
//!
//! Timing is **sampled**: every phase entry is counted, but only about one
//! in [`SAMPLE_RATE`] reads the monotonic clock. Timing every entry made
//! the profiler itself the dominant cost on the hot path (72% overhead in
//! the PR6 artifact), which distorted the very shares the profile exists
//! to report. Per-phase wall time is reconstructed as
//! [`PhaseProfile::estimated_nanos`]: `sampled nanos × hits / timed`.
//! The sampled subset is chosen by a Weyl sequence (golden-ratio
//! increment), which is deterministic, cheap, and cannot alias the
//! engine's periodic bank-visit patterns the way a plain `tick % N`
//! counter could.
//!
//! A run is profiled only when it asks for it (`SystemConfig::profile`):
//! the engine then holds a `Some(PhaseProfile)`, and an unprofiled run's
//! `None` makes every [`PhaseTimer`] call a branch that reads no clock.
//! The accumulated [`PhaseProfile`] is observation-only: report equality
//! deliberately ignores it, and the determinism suite pins that a
//! profiled run is bit-identical to an unprofiled one.

/// The instrumented engine phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Scheduling pass + idle frontier derivation (gross, includes others).
    Schedule = 0,
    /// Address translation and row-hit scans.
    Translate = 1,
    /// Row Hammer ledger deposits/restores.
    Ledger = 2,
    /// Mitigation callbacks (PRINCE keystream draws live here).
    Rng = 3,
    /// DRAM device state commits.
    Device = 4,
    /// Event-calendar maintenance (sub-phase of gross `schedule`).
    Calendar = 5,
}

/// Number of phases in [`Phase`].
pub const PHASE_COUNT: usize = 6;

/// Nominal sampling rate: roughly one in this many phase entries is
/// wall-clock timed; every entry is still counted. Recorded in the
/// `hotpath_profile` bench artifact next to the shares it scales.
pub const SAMPLE_RATE: u64 = 64;

/// Weyl-sequence increment (2^64 / φ), odd and therefore coprime to the
/// 2^64 state space: the sampled subset is low-discrepancy and cannot
/// lock onto the engine's periodic visit patterns.
const WEYL: u64 = 0x9E37_79B9_7F4A_7C15;

impl Phase {
    /// All phases, in display order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Schedule,
        Phase::Translate,
        Phase::Ledger,
        Phase::Rng,
        Phase::Device,
        Phase::Calendar,
    ];

    /// Stable lowercase name (used as JSON keys in the `hotpath_profile`
    /// bench artifact).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Schedule => "schedule",
            Phase::Translate => "translate",
            Phase::Ledger => "ledger",
            Phase::Rng => "rng",
            Phase::Device => "device",
            Phase::Calendar => "calendar",
        }
    }
}

/// Accumulated per-phase entry counts and sampled wall time.
///
/// Reports carry an `Option<PhaseProfile>`, `Some` only for a run with
/// `SystemConfig::profile` set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Wall nanos of the *timed* (sampled) entries only.
    nanos: [u64; PHASE_COUNT],
    /// Every entry, timed or not.
    hits: [u64; PHASE_COUNT],
    /// Entries that read the clock.
    timed: [u64; PHASE_COUNT],
    /// Weyl sampling-stream state (deterministic per profile).
    tick: u64,
}

impl PhaseProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the sampling stream; `true` means "time this entry".
    #[inline]
    fn sample(&mut self) -> bool {
        self.tick = self.tick.wrapping_add(WEYL);
        self.tick < u64::MAX / SAMPLE_RATE
    }

    /// Adds one *timed* entry of `phase`.
    #[inline]
    pub fn record(&mut self, phase: Phase, nanos: u64) {
        self.nanos[phase as usize] += nanos;
        self.hits[phase as usize] += 1;
        self.timed[phase as usize] += 1;
    }

    /// Adds one entry of `phase` that did not read the clock.
    #[inline]
    pub fn record_untimed(&mut self, phase: Phase) {
        self.hits[phase as usize] += 1;
    }

    /// Accumulated nanoseconds of the sampled entries of `phase` (raw, not
    /// scaled up; use [`estimated_nanos`](Self::estimated_nanos) for the
    /// reconstructed phase time).
    pub fn nanos(&self, phase: Phase) -> u64 {
        self.nanos[phase as usize]
    }

    /// Number of entries of `phase` (timed or not).
    pub fn hits(&self, phase: Phase) -> u64 {
        self.hits[phase as usize]
    }

    /// Number of entries of `phase` that were wall-clock timed.
    pub fn timed(&self, phase: Phase) -> u64 {
        self.timed[phase as usize]
    }

    /// Estimated total nanoseconds of `phase`: sampled nanos scaled by the
    /// realized sampling ratio (`nanos × hits / timed`). Zero when nothing
    /// was timed.
    pub fn estimated_nanos(&self, phase: Phase) -> u64 {
        let i = phase as usize;
        if self.timed[i] == 0 {
            return 0;
        }
        (self.nanos[i] as u128 * self.hits[i] as u128 / self.timed[i] as u128) as u64
    }

    /// Sum of all raw sampled phase times. Phases overlap (schedule is
    /// gross), so this is an upper bound on distinct sampled wall time,
    /// not a partition.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Sum of all estimated phase times (same overlap caveat).
    pub fn total_estimated_nanos(&self) -> u64 {
        Phase::ALL.iter().map(|&p| self.estimated_nanos(p)).sum()
    }

    /// Folds `other` into `self` (aggregating profiles across cells). The
    /// sampling stream keeps `self`'s state; the counters are exact sums
    /// either way.
    pub fn merge(&mut self, other: &PhaseProfile) {
        for i in 0..PHASE_COUNT {
            self.nanos[i] += other.nanos[i];
            self.hits[i] += other.hits[i];
            self.timed[i] += other.timed[i];
        }
    }
}

/// A scoped phase timer.
///
/// `start` reads the monotonic clock only when the profile is live *and*
/// its sampling stream selects this entry (~1 in [`SAMPLE_RATE`]); `stop`
/// then folds the elapsed time in, or just counts the entry when it was
/// not sampled. Against a `None` profile both calls are one branch each.
#[derive(Debug)]
#[must_use = "a PhaseTimer only records when stopped"]
pub struct PhaseTimer {
    started: Option<std::time::Instant>,
}

impl PhaseTimer {
    /// Starts a timer against `profile` (a no-op unless the profile is
    /// live).
    #[inline]
    pub fn start(profile: &mut Option<PhaseProfile>) -> Self {
        PhaseTimer {
            started: profile
                .as_mut()
                .and_then(|p| p.sample().then(std::time::Instant::now)),
        }
    }

    /// A timer that never reads the clock. For statically profiler-off
    /// code paths (see [`start_if`](Self::start_if)); stopping it against
    /// a live profile still counts the entry.
    #[inline]
    pub fn noop() -> Self {
        PhaseTimer { started: None }
    }

    /// Const-generic gate: [`start`](Self::start) when `ON`, otherwise a
    /// [`noop`](Self::noop) the optimizer deletes. Lets a hot function be
    /// monomorphized into a profiled and an unprofiled flavor with a
    /// single dispatch branch at its entry.
    #[inline]
    pub fn start_if<const ON: bool>(profile: &mut Option<PhaseProfile>) -> Self {
        if ON {
            Self::start(profile)
        } else {
            Self::noop()
        }
    }

    /// Stops the timer, attributing the entry (and, when sampled, the
    /// elapsed time) to `phase`.
    #[inline]
    pub fn stop(self, profile: &mut Option<PhaseProfile>, phase: Phase) {
        if let Some(p) = profile.as_mut() {
            match self.started {
                Some(t0) => p.record(phase, t0.elapsed().as_nanos() as u64),
                None => p.record_untimed(phase),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_merge_accumulate() {
        let mut a = PhaseProfile::new();
        a.record(Phase::Ledger, 10);
        a.record(Phase::Ledger, 5);
        a.record(Phase::Rng, 7);
        let mut b = PhaseProfile::new();
        b.record(Phase::Ledger, 1);
        a.merge(&b);
        assert_eq!(a.nanos(Phase::Ledger), 16);
        assert_eq!(a.hits(Phase::Ledger), 3);
        assert_eq!(a.nanos(Phase::Rng), 7);
        assert_eq!(a.total_nanos(), 23);
    }

    #[test]
    fn estimated_nanos_scales_by_realized_ratio() {
        let mut p = PhaseProfile::new();
        // 2 timed entries totalling 100 ns, 8 untimed: estimate 100 * 10/2.
        p.record(Phase::Translate, 60);
        p.record(Phase::Translate, 40);
        for _ in 0..8 {
            p.record_untimed(Phase::Translate);
        }
        assert_eq!(p.hits(Phase::Translate), 10);
        assert_eq!(p.timed(Phase::Translate), 2);
        assert_eq!(p.nanos(Phase::Translate), 100);
        assert_eq!(p.estimated_nanos(Phase::Translate), 500);
        // Nothing timed => nothing to scale.
        assert_eq!(p.estimated_nanos(Phase::Device), 0);
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "schedule",
                "translate",
                "ledger",
                "rng",
                "device",
                "calendar"
            ]
        );
    }

    #[test]
    fn timer_without_profile_records_nothing() {
        let mut profile = None;
        let t = PhaseTimer::start(&mut profile);
        t.stop(&mut profile, Phase::Device);
        assert!(profile.is_none());
    }

    #[test]
    fn start_if_off_never_times() {
        let mut profile = Some(PhaseProfile::new());
        let t = PhaseTimer::start_if::<false>(&mut profile);
        t.stop(&mut profile, Phase::Device);
        let p = profile.unwrap();
        // The entry is counted, but the clock was never read.
        assert_eq!((p.hits(Phase::Device), p.timed(Phase::Device)), (1, 0));
    }

    #[test]
    fn timer_enabled_counts_every_entry_and_samples_some() {
        let mut profile = Some(PhaseProfile::new());
        let n = 64 * 64;
        for _ in 0..n {
            let t = PhaseTimer::start(&mut profile);
            t.stop(&mut profile, Phase::Device);
        }
        let p = profile.unwrap();
        assert_eq!(p.hits(Phase::Device), n);
        let timed = p.timed(Phase::Device);
        assert!(timed > 0, "no entry was ever sampled");
        assert!(timed < n, "sampling timed every entry");
        // The Weyl stream realizes close to the nominal 1-in-SAMPLE_RATE.
        let expected = n / SAMPLE_RATE;
        assert!(
            timed >= expected / 2 && timed <= expected * 2,
            "timed {timed} far from nominal {expected}"
        );
    }
}

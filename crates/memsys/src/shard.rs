//! [`ChannelShard`]: one DRAM channel's slice of the memory controller.
//!
//! DRAM channels share no timing state. Everything the scheduler owns per
//! channel (bank queues, Row Hammer ledgers, RAA counters, the frontier
//! memo, the channel's [`ChannelLane`]) therefore lives in a
//! [`ChannelShard`] that steps one scheduling pass independently of its
//! siblings. The coordinator (`crate::system::MemSystem`) runs the shards
//! in ascending channel order on one thread and merges each pass's
//! results in fixed channel order.
//!
//! The merge stays cheap because of a proven invariant: **a channel issues
//! at most one command per cycle.** Every issue path checks the channel's
//! command-bus claim (`cmd_ready <= now`) and issuing re-claims the bus for
//! the rest of the cycle, so a pass returns at most one command and at most
//! one CAS completion per shard — a tiny fixed-size [`ShardReply`], not a
//! buffer.
//!
//! Bank indices inside a shard are channel-local (`0..banks`); the
//! mitigation is always the whole scheme, so the shard hands it the global
//! index `bank_base + local`.
//!
//! # Scheduling engines
//!
//! The shard runs one of two bit-identical engines ([`Engine`]): the
//! full-scan reference, which visits every bank and recomputes every
//! frontier each pass, and the default **event calendar**. The calendar
//! splits the active set into two disjoint pools:
//!
//!  - `pending` — banks that need per-pass examination (fresh admissions,
//!    invalidated memos, armed mitigation consults, a claimed command
//!    bus);
//!  - the [`EventCalendar`] — banks whose memoized frontier
//!    ([`FrontierSlot::raw`]) is valid, lies in the future, and has no
//!    consult armed; each holds one heap entry keyed at that frontier.
//!
//! The **lazy-invalidation contract** that makes discarding stale heap
//! entries on pop safe: every mutation that can move a bank's frontier
//! *earlier* or arm a consult (admission, the refresh engine's urgent PRE,
//! any command to the bank itself, a mitigation consult) explicitly moves
//! the bank back to `pending`; the cross-bank couplings that are *not*
//! routed (a same-rank ACT's tRRD/tFAW, a channel CAS's tCCD/bus/tWTR, a
//! REF's rank block) only ever move frontiers **later**. A live heap entry
//! is therefore at worst *stale-early*: popping it visits the bank at or
//! before its true frontier, where `schedule_bank` provably has no side
//! effect (every issue path re-checks lane timings, and a consult can only
//! have been armed through a routed path), and the bank is re-parked. Both
//! `next_min` (pop-validate: the earliest live entry whose memo is still
//! valid IS the exact heap minimum) and the pass (visit only banks whose
//! event fired at `now`, merged with `pending` in ascending bank order)
//! come off the O(active banks) scan.

use std::collections::VecDeque;

use shadow_dram::command::DramCommand;
use shadow_dram::geometry::BankId;
use shadow_dram::lane::ChannelLane;
use shadow_dram::rank::RankState;
use shadow_dram::rfm::RaaCounters;
use shadow_dram::timing::TimingParams;
use shadow_mitigations::{AboScope, AboSpec, AnyMitigation, Mitigation};
use shadow_rh::HammerLedger;
use shadow_sim::calendar::EventCalendar;
use shadow_sim::profiler::{Phase, PhaseProfile, PhaseTimer};
use shadow_sim::stats::Histogram;
use shadow_sim::time::Cycle;

use crate::active::ActiveBanks;
use crate::config::{Engine, PagePolicy};
use crate::error::BankStall;

/// Sentinel core index for posted writes (no completion to deliver at CAS).
pub(crate) const POSTED: usize = usize::MAX;

/// Sentinel remap epoch marking a translation cache as unfilled. Real
/// epochs start at 0 and bump once per remap, so `u64::MAX` is unreachable.
pub(crate) const NO_EPOCH: u64 = u64::MAX;

/// A request waiting in a bank queue.
#[derive(Debug, Clone)]
pub(crate) struct QueuedReq {
    pub core: usize,
    pub pa_row: u32,
    pub write: bool,
    /// Cycle the request entered the controller (latency accounting).
    pub enqueued_at: Cycle,
    /// Earliest cycle the ACT may issue (throttling delay applied).
    pub ready_at: Cycle,
    /// Whether the mitigation has been consulted for this request's ACT.
    pub act_charged: bool,
    /// The translated DA row, valid while the bank sits at `cached_epoch`.
    pub cached_da: u32,
    /// The bank's remap epoch when `cached_da` was computed ([`NO_EPOCH`]
    /// until first use — admission does not translate, and
    /// `Mitigation::translate` is a pure lookup, so deferring it changes no
    /// value).
    pub cached_epoch: u64,
}

impl QueuedReq {
    /// The request's DA row, re-translating only if the bank's remap
    /// `epoch` has moved since the cached value was computed.
    ///
    /// `Mitigation::translate` is contractually a pure lookup, so the
    /// cached value is exact — this is what turns the FR-FCFS row-hit scan
    /// from a translation per request per pass into a field compare.
    fn da(&mut self, mit_bank: usize, epoch: u64, mitigation: &mut AnyMitigation) -> u32 {
        if self.cached_epoch != epoch {
            self.cached_da = mitigation.translate(mit_bank, self.pa_row);
            self.cached_epoch = epoch;
        }
        self.cached_da
    }
}

/// A memoized per-bank frontier time, shared by [`ChannelShard::next_min`]
/// (skip recomputing a still-valid bank contribution) and the scheduling
/// pass (skip the whole `schedule_bank` decision tree for a bank that
/// provably cannot accept a command at `now`).
///
/// `raw` is the bank's earliest-issue cycle computed *now-independently*
/// (the lane's `earliest_*` queries clamp to `now` and are otherwise pure
/// functions of committed state, so they are evaluated at `now = 0` and
/// clamped by the caller — the final `max(now + 1)` absorbs any sub-`now`
/// value exactly as the unclamped scan did).
///
/// Validity is scoped to exactly the committed state the memoized value
/// read. Branch selection (RFM pending, open row, row hit, head readiness)
/// is a function of the bank's own command history and scheduler
/// bookkeeping alone, so every slot is pinned by `bank_cmd_seq` (bumped per
/// command to this bank — a rank's REF bumps every bank it blocks) and
/// `bank_seq` (command-free scheduler mutations: admissions, mitigation
/// consults). On top of that, `scope` records the widest cross-bank
/// coupling the lane queries behind the branch actually read, and
/// `coupled_seq` pins that coupling:
///
///  - [`FrontierScope::Bank`] — a PRE frontier (`earliest_pre` reads only
///    the bank's own timers), nothing further to pin;
///  - [`FrontierScope::Rank`] — an ACT frontier adds the rank's
///    tRRD/tFAW/refresh-recovery window, mutated only by same-rank ACTs
///    (each bumps the shard's `rank_act_seq`);
///  - [`FrontierScope::Channel`] — a RD/WR frontier adds the channel CAS
///    coupling (tCCD spacing, data-bus occupancy, and the rank's tWTR, all
///    mutated only by RD/WR, each of which bumps the shard's `cas_seq`; a
///    rank's banks share one channel, so the channel counter covers tWTR
///    too).
///
/// A PRE elsewhere on the channel, or a CAS to another rank's bank, no
/// longer invalidates an ACT frontier — that is the point: FR-FCFS read
/// storms leave closed banks' memos intact.
///
/// `consult_pending` records whether, at compute time, the bank had a
/// closed row and an un-`act_charged` head — the one `schedule_bank` path
/// with a side effect (the per-request mitigation consult) that fires even
/// when no command issues. The scheduling pass never skips such a bank, so
/// the consult happens at exactly the cycle it always did. The flag is
/// stable while the slot is valid: any open-row change, head removal, or
/// `needs_rfm` flip comes from a command to this bank (`bank_cmd_seq`),
/// and charging the head or admitting to an empty queue bumps `bank_seq`.
#[derive(Debug, Clone, Copy)]
struct FrontierSlot {
    bank_cmd_seq: u64,
    bank_seq: u64,
    /// The rank or channel counter captured at compute time (`scope`
    /// decides which; unused for bank-local frontiers).
    coupled_seq: u64,
    raw: Cycle,
    /// The bank-scoped part of `raw` alone: the bank's own timers plus
    /// head readiness, none of the rank/channel coupling. Because the
    /// lane's coupled state enters every `earliest_*` as a floor —
    /// `raw == max(intrinsic, floor(scope))`, an identity `refresh_slot`
    /// asserts — a slot whose bank-scoped counters still match can be
    /// revalidated in O(1) by re-reading just the floor
    /// ([`ChannelShard::revalidate_coupled`]), instead of re-running the
    /// branch selection and its queue scans.
    intrinsic: Cycle,
    scope: FrontierScope,
    consult_pending: bool,
}

/// The widest cross-bank state a memoized frontier read; see
/// [`FrontierSlot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrontierScope {
    Bank,
    Rank,
    Channel,
}

impl FrontierSlot {
    const INVALID: FrontierSlot = FrontierSlot {
        bank_cmd_seq: u64::MAX,
        bank_seq: u64::MAX,
        coupled_seq: u64::MAX,
        raw: 0,
        intrinsic: 0,
        scope: FrontierScope::Bank,
        consult_pending: true,
    };
}

/// What one shard did in one scheduling pass. Fixed size by the
/// one-command-per-channel-per-cycle invariant (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ShardReply {
    /// Whether the shard committed a command or consulted the mitigation.
    pub progressed: bool,
    /// The command this channel issued, tagged with the phase that issued
    /// it (`true` = refresh engine, `false` = scheduler). The coordinator
    /// replays all refresh-phase commands in channel order, then all
    /// scheduler-phase commands in channel order — the global
    /// refresh-loop-then-scheduling-scan order.
    pub cmd: Option<(bool, DramCommand)>,
    /// CAS completion to deliver: (data-done cycle, core index). `None` for
    /// posted writes (their completion was scheduled at admission).
    pub completion: Option<(Cycle, usize)>,
}

/// One channel's scheduler slice. See the module docs.
#[derive(Debug)]
pub(crate) struct ChannelShard {
    /// Global id of this channel's first bank (channel-major flattening:
    /// channels own contiguous bank and rank ranges).
    bank_base: usize,
    /// Global flat index of this channel's first rank.
    rank_base: usize,
    ranks: usize,
    /// Banks per rank.
    bpr: usize,
    page_policy: PagePolicy,
    /// [`Engine::Fast`] runs the event calendar; [`Engine::Reference`]
    /// runs the full scan.
    engine: Engine,
    /// Post-mitigation timing (tRCD extension, refresh multiplier applied).
    /// A copy of the device's set, fixed for the run.
    timing: TimingParams,
    /// The channel's device-timing state, moved in from the
    /// [`DramDevice`](shadow_dram::device::DramDevice) for the duration of
    /// a run and restored afterwards.
    pub lane: Option<ChannelLane>,
    queues: Vec<VecDeque<QueuedReq>>,
    pub ledgers: Vec<HammerLedger>,
    raa: Option<RaaCounters>,
    /// The mitigation's Alert Back-Off contract, captured once at system
    /// assembly ([`Mitigation::abo`] is required to be stable). `None` for
    /// non-PRAC schemes — every ABO branch below is dead then.
    abo: Option<AboSpec>,
    /// Per-local-rank outstanding RFMAB recovery commands (Rank scope).
    /// While any is non-zero the whole rank yields to the recovery drain.
    recovery_due_rank: Vec<u32>,
    /// Per-local-bank outstanding RFMSB recovery commands (Bank scope).
    recovery_due_bank: Vec<u32>,
    /// Per-pass hoisted rank gate: `true` while the rank's refresh drain
    /// is urgent or rank-scope ABO recovery debt is outstanding — the two
    /// rank-wide conditions `schedule_bank` must yield to. Recomputed once
    /// per pass (after the refresh and recovery phases, before engine
    /// dispatch); exact for the whole scan because the scheduling phase
    /// never issues the commands that move them, and the one mid-scan
    /// mutation that could (an ACT arming new recovery debt) also claims
    /// the command bus, behind which these values are never read.
    rank_closed: Vec<bool>,
    /// Per-local-rank count of bank visits short-circuited by the hoisted
    /// rank gate (calendar engine). Diagnostic, merged into
    /// `SimReport::gate_rank_skips`.
    pub rank_gate_skips: Vec<u64>,
    /// Scheduling passes skipped wholesale by the hoisted command-bus gate
    /// (calendar engine). Diagnostic, merged into
    /// `SimReport::gate_bus_skips`.
    pub bus_gate_skips: u64,
    /// ABO alerts asserted on this channel.
    pub abo_events: u64,
    /// Cycles spent inside recovery RFM commands (tRFM each).
    pub abo_recovery_cycles: Cycle,
    /// Banks the scheduling pass must visit (queued work, pending RFM, or a
    /// row left open under the closed-page policy). Channel-local indices.
    active: ActiveBanks,
    /// Calendar engine only: the subset of `active` needing per-pass
    /// examination. Disjoint from the calendar's live entries; together
    /// they cover `active` (see the module docs).
    pending: ActiveBanks,
    /// Calendar engine only: one live entry per parked bank, keyed at its
    /// memoized frontier.
    calendar: EventCalendar,
    /// Scratch for the pass's due-event pops (kept to avoid realloc).
    due: Vec<usize>,
    /// Calendar engine only: the last `next_min` result, reusable while
    /// `cache_clean` holds (every input is now-independent committed
    /// state, so the value cannot drift between passes that leave the
    /// shard untouched).
    cached_next: Cycle,
    /// Whether `cached_next` still reflects the shard: set by `next_min`,
    /// cleared by any admission or any pass that actually runs.
    cache_clean: bool,
    /// Whether the whole shard pass is provably a no-op while
    /// `cached_next > now`: no pending bank has a mitigation consult
    /// armed, and none needs the per-pass examination `next_min` does not
    /// model (Closed-policy eager PRE on an empty queue). Computed
    /// alongside `cached_next`.
    skip_ok: bool,
    /// Calendar engine only: min over the shard's ranks of the exact next
    /// cycle the refresh phase can act ([`refresh_wake`]
    /// (Self::refresh_wake) when `skip_ok`, the raw due deadline
    /// otherwise). Valid whenever `cache_clean` holds — every input (open
    /// rows, rank readiness, the bus claim, the deadline itself) mutates
    /// only inside a pass that runs, and a run pass dirties the cache.
    /// Lets the shard-skip gate test refresh relevance with one compare.
    refresh_wake: Cycle,
    /// The legacy-form next-event bound: the bank contributions plus the
    /// conservative refresh probe (a due rank contributes `now`, an undue
    /// one the next tREFI boundary) — the value the reference scan
    /// returns from `next_min`. The coordinator falls back to the min of
    /// these whenever *any* shard reports `!skip_ok`: a shard needing
    /// per-pass examination inherited its visit cadence from the global
    /// crawl, including the 1-cycle refresh pins of *other* shards, so the
    /// exact wake is only sound for the clock advance when every shard is
    /// provably skippable. Stale reads (cache-reuse path) are safe: the
    /// stored value never exceeds a fresh recompute, and the coordinator's
    /// `max(now + 1)` clamp makes any undershoot cadence-identical.
    legacy_next: Cycle,
    pub latency: Histogram,
    /// Cycle at which the channel's command bus is next usable.
    cmd_ready: Cycle,
    /// Mitigation-imposed blocking (RRS swaps).
    block_until: Cycle,
    pub blocked_cycles: Cycle,
    pub throttle_cycles: Cycle,
    /// Cycles in which this channel issued a command (≤ 1 per cycle).
    pub busy_cycles: u64,
    /// Requests currently queued across the shard's banks.
    queued: usize,
    /// Per-bank count of committed commands touching that bank's timers
    /// (frontier invalidation, bank scope).
    bank_cmd_seq: Vec<u64>,
    /// Per-local-rank ACT count (tRRD/tFAW coupling — frontier
    /// invalidation, rank scope).
    rank_act_seq: Vec<u64>,
    /// Channel CAS count (tCCD/bus/tWTR coupling — frontier invalidation,
    /// channel scope).
    cas_seq: u64,
    /// Per-bank count of command-free scheduler mutations (admissions,
    /// mitigation consults — frontier invalidation).
    bank_seq: Vec<u64>,
    /// Memoized frontier contributions, one slot per bank.
    frontier: Vec<FrontierSlot>,
    /// The command issued by the pass in flight (see
    /// [`take_issued`](Self::take_issued)).
    issued: Option<DramCommand>,
    /// CAS completion produced by the pass in flight.
    pending_completion: Option<(Cycle, usize)>,
    /// Hot-path phase profile (`Some` only when the run asked for it).
    pub profile: Option<PhaseProfile>,
}

impl ChannelShard {
    /// Builds the shard for the channel whose first bank is `bank_base`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        bank_base: usize,
        rank_base: usize,
        banks: usize,
        ranks: usize,
        page_policy: PagePolicy,
        engine: Engine,
        timing: TimingParams,
        ledgers: Vec<HammerLedger>,
        raa: Option<RaaCounters>,
        profile: bool,
    ) -> Self {
        debug_assert_eq!(ledgers.len(), banks);
        debug_assert_eq!(banks % ranks.max(1), 0);
        ChannelShard {
            bank_base,
            rank_base,
            ranks,
            bpr: banks / ranks.max(1),
            page_policy,
            engine,
            timing,
            lane: None,
            queues: (0..banks).map(|_| VecDeque::new()).collect(),
            ledgers,
            raa,
            abo: None,
            recovery_due_rank: vec![0; ranks],
            recovery_due_bank: vec![0; banks],
            rank_closed: vec![false; ranks],
            rank_gate_skips: vec![0; ranks],
            bus_gate_skips: 0,
            abo_events: 0,
            abo_recovery_cycles: 0,
            active: ActiveBanks::new(banks),
            pending: ActiveBanks::new(banks),
            calendar: EventCalendar::new(banks),
            due: Vec::new(),
            cached_next: 0,
            cache_clean: false,
            skip_ok: false,
            refresh_wake: 0,
            legacy_next: 0,
            // 16-cycle buckets out to 4096 cycles covers every DDR4/DDR5
            // latency of interest; beyond that the overflow bucket absorbs.
            latency: Histogram::new(16, 256),
            cmd_ready: 0,
            block_until: 0,
            blocked_cycles: 0,
            throttle_cycles: 0,
            busy_cycles: 0,
            queued: 0,
            bank_cmd_seq: vec![0; banks],
            rank_act_seq: vec![0; ranks],
            cas_seq: 0,
            bank_seq: vec![0; banks],
            frontier: vec![FrontierSlot::INVALID; banks],
            issued: None,
            pending_completion: None,
            profile: profile.then(PhaseProfile::new),
        }
    }

    /// Arms the Alert Back-Off flow with the mitigation's contract.
    /// Called once at system assembly, before any traffic.
    pub fn set_abo(&mut self, abo: Option<AboSpec>) {
        self.abo = abo;
    }

    /// Whether any ABO recovery is outstanding on this channel.
    #[inline]
    fn recovery_pending(&self) -> bool {
        self.recovery_due_rank.iter().any(|&d| d > 0)
            || self.recovery_due_bank.iter().any(|&d| d > 0)
    }

    /// Requests queued across the shard's banks.
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// The legacy-form next-event bound computed by the last
    /// [`next_min`](Self::next_min) call (see the [`legacy_next`]
    /// (field@Self::legacy_next) field). Read it right after `next_min`.
    pub fn legacy_next(&self) -> Cycle {
        self.legacy_next
    }

    /// Whether the last [`next_min`](Self::next_min) proved this shard
    /// needs no per-pass examination (no armed consult, no Closed-policy
    /// eager-PRE bank). When *any* shard reports false, the coordinator
    /// must advance the clock by the legacy bounds — see
    /// [`legacy_next`](field@Self::legacy_next).
    pub fn skip_ok(&self) -> bool {
        self.skip_ok
    }

    /// The global [`BankId`] of local bank `local`.
    #[inline]
    fn gbank(&self, local: usize) -> BankId {
        BankId((self.bank_base + local) as u32)
    }

    /// The global flat rank of local rank `lr`.
    #[inline]
    fn grank(&self, lr: usize) -> u32 {
        (self.rank_base + lr) as u32
    }

    #[inline]
    fn lane(&self) -> &ChannelLane {
        self.lane
            .as_ref()
            .expect("lane moved into shard for the run")
    }

    /// Admits one decoded request into local bank `local`'s queue.
    pub fn admit(&mut self, local: usize, req: QueuedReq) {
        self.queues[local].push_back(req);
        self.active.insert(local);
        // Admission can move the bank's frontier earlier (a row hit behind
        // a far-future ACT frontier) or arm a consult, so a parked bank
        // must come back to the examined pool.
        if self.engine == Engine::Fast {
            self.calendar.invalidate(local);
            self.pending.insert(local);
            self.cache_clean = false;
        }
        self.touch_bank(local);
        self.queued += 1;
    }

    /// Commits one command: applies it on the lane, claims the channel's
    /// command bus for this cycle, and invalidates exactly the memoized
    /// frontier scopes whose state the command mutated (see
    /// [`FrontierSlot`]). Every command the shard emits goes through here,
    /// which is what makes the invalidation exhaustive on the command side:
    ///
    ///  - every command advances its own bank's timers → `bank_cmd_seq`
    ///    (REF blocks and rewinds every bank of its rank, so it bumps each
    ///    of them — that also covers the rank-level refresh-recovery window
    ///    `earliest_act` reads, since only same-rank banks read it);
    ///  - ACT additionally opens a rank tRRD/tFAW window → `rank_act_seq`;
    ///  - RD/WR additionally move the channel's tCCD/bus/tWTR state →
    ///    `cas_seq`.
    ///
    /// The bookkeeping half (stats/history/trace) happens on the
    /// coordinator via `DramDevice::record`, in canonical channel order.
    #[inline]
    fn issue(&mut self, cmd: DramCommand, now: Cycle) -> shadow_dram::device::IssueResult {
        debug_assert!(self.issued.is_none(), "two commands in one channel-cycle");
        let t = PhaseTimer::start(&mut self.profile);
        let res = self
            .lane
            .as_mut()
            .expect("lane present")
            .apply(cmd, now, &self.timing);
        t.stop(&mut self.profile, Phase::Device);
        self.cmd_ready = now + 1;
        self.busy_cycles += 1;
        self.issued = Some(cmd);
        match cmd {
            DramCommand::Act { bank, .. } => {
                let l = bank.0 as usize - self.bank_base;
                self.bank_cmd_seq[l] = self.bank_cmd_seq[l].wrapping_add(1);
                let lr = l / self.bpr;
                self.rank_act_seq[lr] = self.rank_act_seq[lr].wrapping_add(1);
            }
            DramCommand::Pre { bank } | DramCommand::Rfm { bank } | DramCommand::Rfmsb { bank } => {
                let l = bank.0 as usize - self.bank_base;
                self.bank_cmd_seq[l] = self.bank_cmd_seq[l].wrapping_add(1);
            }
            DramCommand::Rd { bank } | DramCommand::Wr { bank } => {
                let l = bank.0 as usize - self.bank_base;
                self.bank_cmd_seq[l] = self.bank_cmd_seq[l].wrapping_add(1);
                self.cas_seq = self.cas_seq.wrapping_add(1);
            }
            DramCommand::Ref { rank } | DramCommand::Rfmab { rank } => {
                let lr = rank as usize - self.rank_base;
                for b in 0..self.bpr {
                    let l = lr * self.bpr + b;
                    self.bank_cmd_seq[l] = self.bank_cmd_seq[l].wrapping_add(1);
                }
            }
        }
        res
    }

    /// Marks a command-free mutation of local bank `local`'s scheduler
    /// state (admission, mitigation consult), invalidating its memo.
    #[inline]
    fn touch_bank(&mut self, local: usize) {
        self.bank_seq[local] = self.bank_seq[local].wrapping_add(1);
    }

    /// Whether `local`'s memoized frontier still reflects current state:
    /// the bank-scoped counters must match, plus whichever coupled counter
    /// the slot's scope pinned (see [`FrontierSlot`]).
    #[inline]
    fn slot_valid(&self, local: usize) -> bool {
        let slot = &self.frontier[local];
        if slot.bank_cmd_seq != self.bank_cmd_seq[local] || slot.bank_seq != self.bank_seq[local] {
            return false;
        }
        match slot.scope {
            FrontierScope::Bank => true,
            FrontierScope::Rank => slot.coupled_seq == self.rank_act_seq[local / self.bpr],
            FrontierScope::Channel => slot.coupled_seq == self.cas_seq,
        }
    }

    /// The current value of the coupled invalidation counter `scope` pins.
    #[inline]
    fn coupled_seq(&self, scope: FrontierScope, local: usize) -> u64 {
        match scope {
            FrontierScope::Bank => 0,
            FrontierScope::Rank => self.rank_act_seq[local / self.bpr],
            FrontierScope::Channel => self.cas_seq,
        }
    }

    /// Applies a mitigation's refreshes/copies to the fault ledger.
    ///
    /// A targeted refresh is physically an ACT-PRE of the victim row, so it
    /// restores the row *and deposits one unit of disturbance on its own
    /// neighbours* — the side channel the Half-Double attack (paper ref
    /// [47]) exploits against TRR-based schemes. Modelling it as an
    /// activation makes that behaviour emergent rather than special-cased.
    fn apply_mitigation_work(
        ledger: &mut HammerLedger,
        refreshes: &[u32],
        copies: &[(u32, u32)],
        now: Cycle,
    ) {
        for &r in refreshes {
            ledger.on_activate(r, now);
        }
        for &(src, dst) in copies {
            // RowClone-style copy: both rows are activated (restored, and
            // their neighbours disturbed once).
            ledger.on_activate(src, now);
            ledger.on_activate(dst, now);
        }
    }

    fn take_issued(&mut self) -> Option<DramCommand> {
        self.issued.take()
    }

    /// One scheduling pass for this channel at `now`: runs the refresh
    /// engine over the channel's ranks, then the FR-FCFS scheduling scan
    /// over its active banks. Admissions for this cycle must already be in
    /// ([`admit`](Self::admit)). The mitigation sees bank index
    /// `bank_base + local`.
    pub fn pass(&mut self, now: Cycle, mit: &mut AnyMitigation) -> ShardReply {
        // Shard-level skip (calendar engine): when the last `next_min`
        // proved every bank event lies beyond `now`, no consult is armed,
        // nothing needs per-pass examination (`skip_ok`), no admission
        // arrived (an admission clears `cache_clean`), and the refresh phase provably cannot act before
        // `refresh_wake` (exact and fresh under `cache_clean`), the pass
        // is provably a no-op: every bank visit would take the
        // frontier-gate skip and the refresh engine would not fire.
        // Skipping it wholesale is therefore exact, and the cache stays
        // clean for `next_min` to reuse.
        if self.engine == Engine::Fast
            && self.cache_clean
            && self.skip_ok
            && self.cached_next > now
            && self.refresh_wake > now
        {
            debug_assert!(self.pending_completion.is_none());
            return ShardReply {
                progressed: false,
                cmd: None,
                completion: None,
            };
        }
        self.cache_clean = false;
        let mut progressed = false;

        // Refresh engine: one REF attempt per due rank. JEDEC permits
        // postponing up to 8 REFs, so refresh is opportunistic (fires when
        // the rank happens to be idle) until the debt hits the limit, at
        // which point the controller force-drains the rank.
        for lr in 0..self.ranks {
            let rank = self.grank(lr);
            if !self.lane().refresh_due(rank, now) {
                continue;
            }
            let urgent = self.lane().refresh_urgent(rank, now, &self.timing);
            let mut all_idle = true;
            for b in 0..self.bpr {
                let local = lr * self.bpr + b;
                let bank = self.gbank(local);
                if self.lane().open_row(bank).is_some() {
                    all_idle = false;
                    if !urgent {
                        continue; // postpone: let the open row keep serving
                    }
                    let t = self.lane().earliest_pre(bank, now);
                    if t <= now && self.cmd_ready <= now && self.block_until <= now {
                        self.issue(DramCommand::Pre { bank }, now);
                        // The one command to a bank outside its own visit:
                        // closing the row can arm a consult (head no longer
                        // a hit) or move the frontier to an earlier ACT, so
                        // a calendar-parked bank must be re-examined. Only
                        // active banks — an Open-policy bank deactivated
                        // with its row open must stay deactivated.
                        if self.engine == Engine::Fast && self.active.contains(local) {
                            self.calendar.invalidate(local);
                            self.pending.insert(local);
                        }
                        progressed = true;
                    }
                }
            }
            // REF rides the same per-channel command bus as everything
            // else: without the claim below, a rank sharing its channel
            // could see a REF and a demand command in the same cycle.
            if all_idle
                && self.lane().earliest_ref(rank, now) <= now
                && self.cmd_ready <= now
                && self.block_until <= now
            {
                // Record which rows this REF covers before issuing.
                let ptr = self.lane().refresh_row_ptr(rank);
                let rows = self.lane().rows_per_ref(rank, &self.timing);
                self.issue(DramCommand::Ref { rank }, now);
                let t = PhaseTimer::start(&mut self.profile);
                for b in 0..self.bpr {
                    self.ledgers[lr * self.bpr + b].restore_block(ptr, rows);
                }
                t.stop(&mut self.profile, Phase::Ledger);
                // Note: JEDEC allows REF to credit RAA counters, but the
                // paper's evaluation (Eq. 1) derives RFM demand directly as
                // ACT count / RAAIMT, so no REF credit is applied here.
                progressed = true;
            }
        }
        // ABO recovery drain: an armed Alert Back-Off window has priority
        // over demand traffic (the scheduler yields every in-scope bank —
        // see `schedule_bank`) and rides the refresh-phase command slot.
        // RFMAB mirrors REF (all banks of the rank precharged, urgent PREs
        // drain open rows); RFMSB mirrors RFM (only its bank precharged).
        if self.issued.is_none() && self.recovery_pending() {
            self.recovery_drain(now, mit, &mut progressed);
        }
        let refresh_cmd = self.take_issued();

        // Per-pass gate hoisting: refresh urgency and rank-scope ABO
        // recovery debt are pure functions of committed rank state, and
        // the scheduling phase below never issues the commands that move
        // them (REF and RFMAB both live in the phases above). Deriving
        // them once per rank here — instead of per bank visit inside
        // `schedule_bank` — is exact: the one mid-scan mutation that
        // matters (an ACT arming fresh recovery debt via `on_act_issued`)
        // also claims the command bus, behind which no later visit reads
        // these values (the bus gate precedes the rank gate).
        for lr in 0..self.ranks {
            let closed = self.recovery_due_rank[lr] > 0
                || self
                    .lane()
                    .refresh_urgent(self.grank(lr), now, &self.timing);
            self.rank_closed[lr] = closed;
        }

        // Per-channel command scheduling in ascending bank order (banks on
        // one channel share a command bus, so visit order is load-bearing).
        let sched = PhaseTimer::start(&mut self.profile);
        match self.engine {
            Engine::Reference => {
                self.active.insert_all();
                self.pass_scan(now, mit, &mut progressed);
            }
            Engine::Fast => self.pass_calendar(now, mit, &mut progressed),
        }
        sched.stop(&mut self.profile, Phase::Schedule);
        let sched_cmd = self.take_issued();

        ShardReply {
            progressed,
            cmd: refresh_cmd
                .map(|c| (true, c))
                .or(sched_cmd.map(|c| (false, c))),
            completion: self.pending_completion.take(),
        }
    }

    /// One ABO-recovery attempt: issues at most one command (an urgent PRE
    /// draining an in-scope open row, or the recovery RFM itself). Rank
    /// scope drains ascending ranks with RFMAB — the device refreshes its
    /// flagged rows in every bank of the rank, so the mitigation is
    /// consulted once per bank, ascending — then Bank scope drains
    /// ascending banks with RFMSB. Runs identically under both engines
    /// (it precedes engine dispatch and reads only committed state), which
    /// keeps the differential fuzzer's variants bit-identical.
    fn recovery_drain(&mut self, now: Cycle, mit: &mut AnyMitigation, progressed: &mut bool) {
        if self.cmd_ready > now || self.block_until > now {
            return;
        }
        for lr in 0..self.ranks {
            if self.recovery_due_rank[lr] == 0 {
                continue;
            }
            let rank = self.grank(lr);
            let mut all_idle = true;
            for b in 0..self.bpr {
                let local = lr * self.bpr + b;
                let bank = self.gbank(local);
                if self.lane().open_row(bank).is_some() {
                    all_idle = false;
                    if self.lane().earliest_pre(bank, now) <= now {
                        self.issue(DramCommand::Pre { bank }, now);
                        // Closing the row can arm a consult or move the
                        // frontier earlier — route the bank back to the
                        // examined pool, exactly as the urgent-refresh PRE
                        // does (and like there, a deactivated Open-policy
                        // bank stays deactivated).
                        if self.engine == Engine::Fast && self.active.contains(local) {
                            self.calendar.invalidate(local);
                            self.pending.insert(local);
                        }
                        *progressed = true;
                        return;
                    }
                }
            }
            if all_idle && self.lane().earliest_ref(rank, now) <= now {
                self.issue(DramCommand::Rfmab { rank }, now);
                self.recovery_due_rank[lr] -= 1;
                self.abo_recovery_cycles += self.timing.t_rfm;
                for b in 0..self.bpr {
                    let local = lr * self.bpr + b;
                    let t = PhaseTimer::start(&mut self.profile);
                    let action = mit.on_recovery_rfm(self.bank_base + local);
                    t.stop(&mut self.profile, Phase::Rng);
                    let t = PhaseTimer::start(&mut self.profile);
                    Self::apply_mitigation_work(
                        &mut self.ledgers[local],
                        &action.refreshes,
                        &action.copies,
                        now,
                    );
                    t.stop(&mut self.profile, Phase::Ledger);
                }
                *progressed = true;
                return;
            }
        }
        for local in 0..self.recovery_due_bank.len() {
            if self.recovery_due_bank[local] == 0 {
                continue;
            }
            let bank = self.gbank(local);
            if self.lane().open_row(bank).is_some() {
                if self.lane().earliest_pre(bank, now) <= now {
                    self.issue(DramCommand::Pre { bank }, now);
                    if self.engine == Engine::Fast && self.active.contains(local) {
                        self.calendar.invalidate(local);
                        self.pending.insert(local);
                    }
                    *progressed = true;
                    return;
                }
                continue;
            }
            if self.lane().earliest_act(bank, now, &self.timing) <= now {
                self.issue(DramCommand::Rfmsb { bank }, now);
                self.recovery_due_bank[local] -= 1;
                self.abo_recovery_cycles += self.timing.t_rfm;
                let t = PhaseTimer::start(&mut self.profile);
                let action = mit.on_recovery_rfm(self.bank_base + local);
                t.stop(&mut self.profile, Phase::Rng);
                let t = PhaseTimer::start(&mut self.profile);
                Self::apply_mitigation_work(
                    &mut self.ledgers[local],
                    &action.refreshes,
                    &action.copies,
                    now,
                );
                t.stop(&mut self.profile, Phase::Ledger);
                *progressed = true;
                return;
            }
        }
    }

    /// The reference engine's scheduling loop: visit every active bank in
    /// ascending order through the full `schedule_bank` decision tree.
    /// Iterating a snapshot of each bitmask word keeps the scan stable
    /// while banks deactivate themselves.
    fn pass_scan(&mut self, now: Cycle, mit: &mut AnyMitigation, progressed: &mut bool) {
        for w in 0..self.active.words() {
            let mut bits = self.active.word(w);
            while bits != 0 {
                let local = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.schedule_bank(local, now, mit) {
                    *progressed = true;
                }
                if self.queues[local].is_empty()
                    && !self
                        .raa
                        .as_ref()
                        .is_some_and(|r| r.needs_rfm(BankId(local as u32)))
                    && (self.page_policy == PagePolicy::Open
                        || self.lane().open_row(self.gbank(local)).is_none())
                {
                    self.active.remove(local);
                }
            }
        }
    }

    /// The calendar engine's scheduling loop: visit exactly the banks
    /// whose visit can have an effect — the banks whose calendar event
    /// fired at or before `now`, merged in ascending bank order with the
    /// `pending` pool (the two are disjoint by construction). Every bank
    /// the reference scan visits beyond these provably issues nothing and
    /// changes nothing.
    fn pass_calendar(&mut self, now: Cycle, mit: &mut AnyMitigation, progressed: &mut bool) {
        // Shard-global bus gate, hoisted: with the command bus claimed at
        // pass entry `schedule_bank` returns at its first check for every
        // bank, so no visit can issue or consult and the whole pass is
        // skipped. Due heap entries stay put and pop once the bus frees;
        // completion-driven passes cost O(1) here. The per-bank checks
        // below stay load-bearing because `schedule_bank` re-claims the
        // bus mid-pass.
        if self.cmd_ready > now || self.block_until > now {
            self.bus_gate_skips += 1;
            return;
        }
        let cal = PhaseTimer::start(&mut self.profile);
        debug_assert!(self.due.is_empty());
        let mut due = std::mem::take(&mut self.due);
        while let Some((_, local)) = self.calendar.pop_due(now) {
            due.push(local);
        }
        cal.stop(&mut self.profile, Phase::Calendar);
        // pop_due drains in ascending (cycle, bank) order; re-sort by bank
        // alone for the bus-order merge with `pending`.
        due.sort_unstable();
        let mut di = 0;
        for w in 0..self.pending.words() {
            let mut bits = self.pending.word(w);
            while bits != 0 {
                let local = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                while di < due.len() && due[di] < local {
                    self.visit_fired(due[di], now, mit, progressed);
                    di += 1;
                }
                debug_assert!(
                    di >= due.len() || due[di] != local,
                    "bank both pending and live in the calendar"
                );
                self.visit_pending(local, now, mit, progressed);
            }
        }
        while di < due.len() {
            self.visit_fired(due[di], now, mit, progressed);
            di += 1;
        }
        due.clear();
        self.due = due;
    }

    /// Visits a bank whose calendar event fired (its heap entry is already
    /// popped). A live fired entry is either exact (the bank's frontier
    /// is `now`) or stale-early under the module's monotone-later
    /// contract (the visit is provably side-effect-free);
    /// either way the bank ends the visit in `pending`, re-parked, or
    /// deactivated — never silently dropped.
    fn visit_fired(
        &mut self,
        local: usize,
        now: Cycle,
        mit: &mut AnyMitigation,
        progressed: &mut bool,
    ) {
        if self.cmd_ready > now || self.block_until > now {
            // Bus claimed: the visit would be a no-op; park the bank so
            // the next pass revisits it.
            self.pending.insert(local);
            return;
        }
        // Stale-early pop: the entry fired at its old key but the bank's
        // true frontier has since moved later (an unrouted coupling).
        // Revalidate in O(1) and re-park instead of paying for a provably
        // no-op `schedule_bank`.
        if !self.slot_valid(local) {
            let _ = self.revalidate_coupled(local);
        }
        let slot = self.frontier[local];
        if !slot.consult_pending && slot.raw > now && self.slot_valid(local) {
            if slot.raw > now + 1 {
                self.calendar.push(slot.raw, local);
            } else {
                self.pending.insert(local);
            }
            return;
        }
        // Hoisted rank gate (see `pass`): the visit would take
        // `schedule_bank`'s refresh/recovery early-out with no side
        // effect, so only the disposition below remains.
        let lr = local / self.bpr;
        if self.rank_closed[lr] || self.recovery_due_bank[local] > 0 {
            self.rank_gate_skips[lr] += 1;
        } else if self.schedule_bank(local, now, mit) {
            *progressed = true;
        }
        self.dispose(local);
    }

    /// Visits a bank from the `pending` pool, applying the frontier gate:
    /// a provably-idle bank graduates to the calendar instead of being
    /// re-examined every pass.
    fn visit_pending(
        &mut self,
        local: usize,
        now: Cycle,
        mit: &mut AnyMitigation,
        progressed: &mut bool,
    ) {
        if self.cmd_ready > now || self.block_until > now {
            return; // stays pending: the visit would be a no-op
        }
        // A coupled-stale slot revalidates in O(1); if the fresh frontier
        // still lies beyond `now` the visit below would provably be a
        // side-effect-free no-op (the reference scan performs it anyway
        // and changes nothing), so taking the gate instead is exact.
        if !self.slot_valid(local) {
            let _ = self.revalidate_coupled(local);
        }
        let slot = self.frontier[local];
        if !slot.consult_pending && slot.raw > now && self.slot_valid(local) {
            // Only a genuinely *future* event is worth a heap entry: a
            // bank due next cycle would pop right back out, costing a
            // push + pop + sort where the pending bitmask walk is one
            // trailing_zeros. Near-term banks stay pending.
            if slot.raw > now + 1 {
                self.pending.remove(local);
                self.calendar.push(slot.raw, local);
            }
            return;
        }
        // Hoisted rank gate, as in `visit_fired`.
        let lr = local / self.bpr;
        if self.rank_closed[lr] || self.recovery_due_bank[local] > 0 {
            self.rank_gate_skips[lr] += 1;
        } else if self.schedule_bank(local, now, mit) {
            *progressed = true;
        }
        self.dispose(local);
    }

    /// Post-visit disposition (calendar engine): deactivate a bank with
    /// nothing left to do — the reference scan's deactivation check — else
    /// park it in `pending` (the next `next_min` graduates it back to the
    /// calendar once its memo revalidates).
    fn dispose(&mut self, local: usize) {
        if self.queues[local].is_empty()
            && !self
                .raa
                .as_ref()
                .is_some_and(|r| r.needs_rfm(BankId(local as u32)))
            && (self.page_policy == PagePolicy::Open
                || self.lane().open_row(self.gbank(local)).is_none())
        {
            self.active.remove(local);
            self.pending.remove(local);
        } else {
            self.pending.insert(local);
        }
    }

    /// Attempts one command for local bank `local` (the scheduling scan's
    /// per-bank step). Returns true if a command issued.
    ///
    /// One branch per visit on the profiler's presence, then dispatch to
    /// the monomorphized body: the profiler-off instantiation carries
    /// zero timer calls on the hot path.
    #[inline]
    fn schedule_bank(&mut self, local: usize, now: Cycle, mit: &mut AnyMitigation) -> bool {
        if self.profile.is_some() {
            self.schedule_bank_impl::<true>(local, now, mit)
        } else {
            self.schedule_bank_impl::<false>(local, now, mit)
        }
    }

    fn schedule_bank_impl<const PROF: bool>(
        &mut self,
        local: usize,
        now: Cycle,
        mit: &mut AnyMitigation,
    ) -> bool {
        let bank = self.gbank(local);
        let lbank = BankId(local as u32);
        let mit_bank = self.bank_base + local;
        if self.cmd_ready > now || self.block_until > now {
            return false;
        }
        // Rank gate, hoisted to one derivation per pass (see `pass`): an
        // urgent refresh drain has absolute priority on its rank, and an
        // armed ABO recovery window stops all in-scope demand traffic
        // until its RFMs drain — no in-scope ACT may issue while recovery
        // debt is outstanding (the oracle's zero-grace rule), and yielding
        // CAS/PRE too lets the recovery drain close rows on its own
        // schedule. Bank-scope recovery debt stays a live read (it is one
        // load, and per-bank anyway).
        if self.rank_closed[local / self.bpr] || self.recovery_due_bank[local] > 0 {
            return false;
        }

        // RFM has priority over new ACTs for this bank.
        if self.raa.as_ref().is_some_and(|raa| raa.needs_rfm(lbank)) {
            if self.lane().open_row(bank).is_some() {
                if self.lane().earliest_pre(bank, now) <= now {
                    self.issue(DramCommand::Pre { bank }, now);
                    return true;
                }
                return false;
            }
            if self.lane().earliest_act(bank, now, &self.timing) <= now {
                self.issue(DramCommand::Rfm { bank }, now);
                self.raa.as_mut().expect("raa exists").on_rfm(lbank);
                let t = PhaseTimer::start_if::<PROF>(&mut self.profile);
                let action = mit.on_rfm(mit_bank);
                if PROF {
                    t.stop(&mut self.profile, Phase::Rng);
                }
                let t = PhaseTimer::start_if::<PROF>(&mut self.profile);
                Self::apply_mitigation_work(
                    &mut self.ledgers[local],
                    &action.refreshes,
                    &action.copies,
                    now,
                );
                if PROF {
                    t.stop(&mut self.profile, Phase::Ledger);
                }
                if action.channel_block_ns > 0.0 {
                    let cycles = self.timing.clock.ns_to_cycles(action.channel_block_ns);
                    self.block_until = self.block_until.max(now + cycles);
                    self.blocked_cycles += cycles;
                }
                return true;
            }
            return false;
        }

        if self.queues[local].is_empty() {
            // Closed-page policy: precharge idle-open rows eagerly.
            if self.page_policy == PagePolicy::Closed
                && self.lane().open_row(bank).is_some()
                && self.lane().earliest_pre(bank, now) <= now
            {
                self.issue(DramCommand::Pre { bank }, now);
                return true;
            }
            return false;
        }

        // Open row: serve the oldest row hit (FR-FCFS) if present. Bank
        // queues stay a few entries long, and each request caches its
        // translation per remap epoch, so the walk is a few field compares.
        if let Some(open_da) = self.lane().open_row(bank) {
            let epoch = mit.remap_epoch(mit_bank);
            let tr = PhaseTimer::start_if::<PROF>(&mut self.profile);
            let hit_idx = self.queues[local]
                .iter_mut()
                .position(|r| r.da(mit_bank, epoch, mit) == open_da);
            if PROF {
                tr.stop(&mut self.profile, Phase::Translate);
            }
            if let Some(idx) = hit_idx {
                let write = self.queues[local][idx].write;
                let t = if write {
                    self.lane().earliest_wr(bank, now, &self.timing)
                } else {
                    self.lane().earliest_rd(bank, now, &self.timing)
                };
                if t <= now {
                    let req = self.queues[local].remove(idx).expect("index valid");
                    self.queued -= 1;
                    let cmd = if write {
                        DramCommand::Wr { bank }
                    } else {
                        DramCommand::Rd { bank }
                    };
                    let res = self.issue(cmd, now);
                    let done = res.done_at.expect("CAS returns done");
                    self.latency.record(done - req.enqueued_at);
                    if req.core != POSTED {
                        debug_assert!(self.pending_completion.is_none());
                        self.pending_completion = Some((done, req.core));
                    }
                    return true;
                }
                return false;
            }
            // Conflict: close the row.
            if self.lane().earliest_pre(bank, now) <= now {
                self.issue(DramCommand::Pre { bank }, now);
                return true;
            }
            return false;
        }

        // Closed bank: activate for the head request, consulting the
        // mitigation once per request (throttle delay, inline TRR, swaps).
        if !self.queues[local].front().expect("non-empty").act_charged {
            let pa_row = self.queues[local].front().expect("head").pa_row;
            let t = PhaseTimer::start_if::<PROF>(&mut self.profile);
            let resp = mit.on_activate(mit_bank, pa_row, now);
            if PROF {
                t.stop(&mut self.profile, Phase::Rng);
            }
            {
                let head = self.queues[local].front_mut().expect("head");
                head.act_charged = true;
                if resp.delay_cycles > 0 {
                    head.ready_at = now + resp.delay_cycles;
                }
            }
            // The consult can change head readiness (and mitigation state)
            // without committing a command.
            self.touch_bank(local);
            self.throttle_cycles += resp.delay_cycles;
            let t = PhaseTimer::start_if::<PROF>(&mut self.profile);
            Self::apply_mitigation_work(
                &mut self.ledgers[local],
                &resp.refreshes,
                &resp.copies,
                now,
            );
            if PROF {
                t.stop(&mut self.profile, Phase::Ledger);
            }
            if resp.channel_block_ns > 0.0 {
                let cycles = self.timing.clock.ns_to_cycles(resp.channel_block_ns);
                self.block_until = self.block_until.max(now + cycles);
                self.blocked_cycles += cycles;
            }
        }
        let head_ready = self.queues[local].front().expect("head").ready_at;
        if head_ready > now || self.block_until > now {
            return false;
        }
        if self.lane().earliest_act(bank, now, &self.timing) <= now {
            let epoch = mit.remap_epoch(mit_bank);
            let tr = PhaseTimer::start_if::<PROF>(&mut self.profile);
            let (pa_row, da) = {
                let head = self.queues[local].front_mut().expect("head");
                (head.pa_row, head.da(mit_bank, epoch, mit))
            };
            if PROF {
                tr.stop(&mut self.profile, Phase::Translate);
            }
            self.issue(DramCommand::Act { bank, row: da }, now);
            let t = PhaseTimer::start_if::<PROF>(&mut self.profile);
            self.ledgers[local].on_activate(da, now);
            if PROF {
                t.stop(&mut self.profile, Phase::Ledger);
            }
            if let Some(raa) = &mut self.raa {
                if mit.counts_toward_rfm(mit_bank, pa_row) {
                    raa.on_act(lbank);
                }
            }
            // PRAC-style per-row counters live in the DRAM rows: they see
            // every committed ACT (this is the only ACT-issue point), in
            // issue order, at the device (DA) row.
            if let Some(spec) = self.abo {
                if mit.on_act_issued(mit_bank, da) {
                    self.abo_events += 1;
                    match spec.scope {
                        AboScope::Rank => {
                            self.recovery_due_rank[local / self.bpr] += spec.rfms_per_alert;
                        }
                        AboScope::Bank => {
                            self.recovery_due_bank[local] += spec.rfms_per_alert;
                        }
                    }
                }
            }
            return true;
        }
        false
    }

    /// The `now`-independent part of a bank's earliest-event time: every
    /// lane `earliest_*` is `now.max(raw)` with `raw` a pure function of
    /// committed state, so evaluating at `now = 0` yields `raw` itself. The
    /// caller re-applies the `now` bound; see [`FrontierSlot`] for why the
    /// difference never reaches the scheduler.
    ///
    /// Also returns the bank-scoped part of the value (see
    /// [`FrontierSlot::intrinsic`]) and the widest cross-bank coupling the
    /// value read — which `earliest_*` family the taken branch consulted —
    /// so the memo can be pinned at exactly that scope.
    fn bank_frontier_raw(
        &mut self,
        local: usize,
        needs_rfm: bool,
        mit: &mut AnyMitigation,
    ) -> (Cycle, Cycle, FrontierScope) {
        let bank = self.gbank(local);
        if needs_rfm {
            if self.lane().open_row(bank).is_some() {
                let raw = self.lane().earliest_pre(bank, 0);
                (raw, raw, FrontierScope::Bank)
            } else {
                (
                    self.lane().earliest_act(bank, 0, &self.timing),
                    self.lane().act_intrinsic(bank),
                    FrontierScope::Rank,
                )
            }
        } else if let Some(open_da) = self.lane().open_row(bank) {
            let mit_bank = self.bank_base + local;
            let epoch = mit.remap_epoch(mit_bank);
            let tr = PhaseTimer::start(&mut self.profile);
            let has_hit = self.queues[local]
                .iter_mut()
                .any(|r| r.da(mit_bank, epoch, mit) == open_da);
            tr.stop(&mut self.profile, Phase::Translate);
            if has_hit {
                (
                    self.lane()
                        .earliest_rd(bank, 0, &self.timing)
                        .min(self.lane().earliest_wr(bank, 0, &self.timing)),
                    self.lane().cas_intrinsic(bank),
                    FrontierScope::Channel,
                )
            } else {
                let raw = self.lane().earliest_pre(bank, 0);
                (raw, raw, FrontierScope::Bank)
            }
        } else {
            let head_ready = self.queues[local].front().map(|r| r.ready_at).unwrap_or(0);
            (
                self.lane()
                    .earliest_act(bank, 0, &self.timing)
                    .max(head_ready),
                self.lane().act_intrinsic(bank).max(head_ready),
                FrontierScope::Rank,
            )
        }
    }

    /// Whether local bank `local` has an RFM pending.
    #[inline]
    fn needs_rfm(&self, local: usize) -> bool {
        self.raa
            .as_ref()
            .is_some_and(|r| r.needs_rfm(BankId(local as u32)))
    }

    /// The current coupled floor `scope` applies to `local`'s intrinsic
    /// frontier: `raw == max(intrinsic, slot_floor(scope))` (asserted in
    /// `refresh_slot`). Bank-scoped frontiers have no coupling (floor 0).
    #[inline]
    fn slot_floor(&self, scope: FrontierScope, local: usize) -> Cycle {
        match scope {
            FrontierScope::Bank => 0,
            FrontierScope::Rank => self.lane().act_floor(self.gbank(local), &self.timing),
            FrontierScope::Channel => self.lane().cas_floor(self.gbank(local), &self.timing),
        }
    }

    /// Recomputes and stores local bank `local`'s frontier memo.
    fn refresh_slot(&mut self, local: usize, needs_rfm: bool, mit: &mut AnyMitigation) {
        let (raw, intrinsic, scope) = self.bank_frontier_raw(local, needs_rfm, mit);
        // The O(1) revalidation identity: the coupled state enters every
        // lane `earliest_*` purely as a floor over the bank-scoped part.
        debug_assert_eq!(raw, intrinsic.max(self.slot_floor(scope, local)));
        let consult_pending = !needs_rfm
            && self.lane().open_row(self.gbank(local)).is_none()
            && self.queues[local].front().is_some_and(|r| !r.act_charged);
        self.frontier[local] = FrontierSlot {
            bank_cmd_seq: self.bank_cmd_seq[local],
            bank_seq: self.bank_seq[local],
            coupled_seq: self.coupled_seq(scope, local),
            raw,
            intrinsic,
            scope,
            consult_pending,
        };
    }

    /// Attempts the O(1) slot revalidation: when only the slot's *coupled*
    /// counter went stale (a same-rank ACT or a channel CAS elsewhere) the
    /// branch selection, consult flag, and intrinsic part all still hold —
    /// they are functions of bank-scoped state — so the fresh `raw` is just
    /// the memoized intrinsic under the re-read floor. Returns false when
    /// the bank-scoped counters themselves moved (full `refresh_slot`
    /// required). Calendar engine only.
    #[inline]
    fn revalidate_coupled(&mut self, local: usize) -> bool {
        let slot = self.frontier[local];
        if slot.bank_cmd_seq != self.bank_cmd_seq[local] || slot.bank_seq != self.bank_seq[local] {
            return false;
        }
        let raw = slot.intrinsic.max(self.slot_floor(slot.scope, local));
        // Unrouted coupling mutations only move frontiers later (the
        // module's monotone-later contract).
        debug_assert!(raw >= slot.raw);
        let coupled = self.coupled_seq(slot.scope, local);
        let s = &mut self.frontier[local];
        s.raw = raw;
        s.coupled_seq = coupled;
        true
    }

    /// The earliest future cycle at which this shard can act: the minimum
    /// over its active banks' frontiers (memoized) and its ranks' refresh
    /// deadlines. Unclamped — the coordinator applies `max(now + 1)` after
    /// folding in completions and core eligibility.
    pub fn next_min(&mut self, now: Cycle, mit: &mut AnyMitigation) -> Cycle {
        // Cache reuse (calendar engine): every input — the memoized raws,
        // the bus floor, the refresh deadlines — is committed shard state,
        // untouched since the skipped pass, and the tREFI probe lands on
        // the same boundary while `now < cached_next`. A recompute would
        // return the identical value.
        if self.engine == Engine::Fast && self.cache_clean && self.cached_next > now {
            return self.cached_next;
        }
        let sched = PhaseTimer::start(&mut self.profile);
        let mut next = Cycle::MAX;
        let mut skip_ok = true;
        let floor = self.cmd_ready.max(self.block_until);
        match self.engine {
            // Only active banks can produce a bank event; the active set is
            // a superset of the banks the full scan would have accepted (it
            // can additionally hold Closed-policy banks with an open row
            // and no queue, which the empty-queue guard skips exactly as
            // the full scan did). The reference engine re-activates every
            // bank and bypasses the memo so it keeps exercising the
            // original recompute-every-bank path.
            Engine::Reference => {
                self.active.insert_all();
                for w in 0..self.active.words() {
                    let mut bits = self.active.word(w);
                    while bits != 0 {
                        let local = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let needs_rfm = self.needs_rfm(local);
                        if self.queues[local].is_empty() && !needs_rfm {
                            continue;
                        }
                        let raw = self.bank_frontier_raw(local, needs_rfm, mit).0;
                        next = next.min(raw.max(floor));
                    }
                }
            }
            Engine::Fast => {
                // Pending banks contribute their memoized frontier — and
                // any bank whose refreshed memo proves it idle with no
                // consult armed graduates to the calendar, so it never
                // costs another examination until its event fires or a
                // routed mutation pulls it back.
                for w in 0..self.pending.words() {
                    let mut bits = self.pending.word(w);
                    while bits != 0 {
                        let local = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let needs_rfm = self.needs_rfm(local);
                        if self.queues[local].is_empty() && !needs_rfm {
                            // No bank event possible; stays pending so the
                            // pass keeps examining it (Closed-policy
                            // eager-PRE banks must not contribute here,
                            // matching the reference scan's skip) — which
                            // also means the pass is not skippable.
                            skip_ok = false;
                            continue;
                        }
                        if !self.slot_valid(local) && !self.revalidate_coupled(local) {
                            self.refresh_slot(local, needs_rfm, mit);
                        }
                        let slot = self.frontier[local];
                        // An armed consult fires at the next visited pass
                        // whatever `raw` says, so the pass must run.
                        skip_ok &= !slot.consult_pending;
                        next = next.min(slot.raw.max(floor));
                        // Same near-term threshold as `visit_pending`:
                        // a heap entry due by `now + 1` would pop on the
                        // very next pass — cheaper left in the bitmask.
                        if !slot.consult_pending && slot.raw > now + 1 {
                            self.pending.remove(local);
                            self.calendar.push(slot.raw, local);
                        }
                    }
                }
                // Pop-validate: discard stale-early tops until the
                // earliest live entry's memo is still valid — under the
                // monotone-later contract every other live entry's true
                // frontier is at or after it, so that entry IS the exact
                // heap minimum.
                let cal = PhaseTimer::start(&mut self.profile);
                while let Some((at, local)) = self.calendar.peek_live() {
                    if self.slot_valid(local) {
                        next = next.min(at.max(floor));
                        break;
                    }
                    if !self.revalidate_coupled(local) {
                        let needs_rfm = self.needs_rfm(local);
                        self.refresh_slot(local, needs_rfm, mit);
                    }
                    let slot = self.frontier[local];
                    if slot.consult_pending {
                        // Unreachable by the routing contract (consults
                        // only arm through paths that park the bank in
                        // `pending`); tolerate it defensively.
                        debug_assert!(false, "consult armed on a calendar-parked bank");
                        next = next.min(slot.raw.max(floor));
                        self.calendar.invalidate(local);
                        self.pending.insert(local);
                    } else if slot.raw <= now + 1 {
                        // Refreshed to a near-term frontier: re-parking
                        // it would pop next pass anyway — demote to
                        // `pending` and fold its contribution in here
                        // (the pending loop above already ran).
                        next = next.min(slot.raw.max(floor));
                        self.calendar.invalidate(local);
                        self.pending.insert(local);
                    } else {
                        self.calendar.push(slot.raw, local);
                    }
                }
                cal.stop(&mut self.profile, Phase::Calendar);
            }
        }
        // An armed ABO recovery window: the drain phase must get a pass
        // attempt every cycle (its issue conditions — open rows closing,
        // rank readiness — are exactly the refresh engine's, and the
        // in-scope banks' own frontiers no longer model them while the
        // scheduler yields them). A recovery-armed shard therefore pins
        // the legacy one-cycle crawl and reports `!skip_ok`, the same
        // honest fallback as an armed mitigation consult.
        if self.recovery_pending() {
            skip_ok = false;
            next = next.min(now);
        }
        // Refresh phase contribution, in two forms. The *legacy*
        // conservative form — a due rank contributes `now` (the clock then
        // steps one cycle at a time through the whole postponement
        // stretch) and an undue rank the next tREFI boundary — is what the
        // reference scan returns, and what the calendar engine's
        // `legacy_next` records: the coordinator falls back to the min of
        // the legacy bounds whenever any shard needs per-pass examination,
        // because that shard's consult and eager-PRE timing inherited the
        // global crawl cadence, refresh pins of other shards included. The
        // *exact* form ([`refresh_wake`](Self::refresh_wake)) — a
        // postponing rank with open rows is a provable no-op until its
        // debt hits the JEDEC limit, which is where most 1-cycle clock
        // pins came from — is this shard's `next_min` value when it is
        // itself skippable, and drives the clock only when every shard is.
        let exact = self.engine == Engine::Fast && skip_ok;
        let mut refresh_wake = Cycle::MAX;
        let mut legacy_next = next;
        for lr in 0..self.ranks {
            let deadline = self.lane().refresh_deadline(self.grank(lr));
            let legacy_t = if now >= deadline {
                now
            } else {
                let refi = self.timing.t_refi;
                ((now / refi) + 1) * refi
            };
            legacy_next = legacy_next.min(legacy_t);
            if exact {
                let w = self.refresh_wake(lr, now);
                refresh_wake = refresh_wake.min(w);
                next = next.min(w);
            } else {
                refresh_wake = refresh_wake.min(deadline);
                next = next.min(legacy_t);
            }
        }
        self.legacy_next = legacy_next;
        if self.engine == Engine::Fast {
            self.cached_next = next;
            self.cache_clean = true;
            self.skip_ok = skip_ok;
            self.refresh_wake = refresh_wake;
        }
        sched.stop(&mut self.profile, Phase::Schedule);
        next
    }

    /// The exact next cycle at which the refresh phase can do anything for
    /// local rank `lr` (calendar engine, `skip_ok` passes only):
    ///
    /// * **rows open, debt below the JEDEC limit** — the phase postpones
    ///   at every pass, so it is a no-op until the urgency cycle
    ///   (`deadline + (MAX_POSTPONE - 1) * tREFI`, the first cycle
    ///   [`RankState::must_refresh`] holds);
    /// * **all banks precharged** — the next cycle a REF can actually
    ///   start: the due deadline, rank readiness, and the command bus;
    /// * **urgent force-drain with rows open** — the next cycle a PRE can
    ///   land on the earliest-ready open bank.
    ///
    /// Exact because every input — open rows, bank/rank readiness, the
    /// bus claim, the deadline itself — mutates only inside a pass that
    /// runs, and such a pass clears `cache_clean`, forcing a recompute
    /// before the next jump. Conservative-late never happens; a
    /// conservative-early wake only costs a no-op visit.
    fn refresh_wake(&self, lr: usize, now: Cycle) -> Cycle {
        let rank = self.grank(lr);
        let lane = self.lane();
        let deadline = lane.refresh_deadline(rank);
        let bus = self.cmd_ready.max(self.block_until);
        let mut min_pre = Cycle::MAX;
        for b in 0..self.bpr {
            let bank = self.gbank(lr * self.bpr + b);
            if lane.open_row(bank).is_some() {
                min_pre = min_pre.min(lane.earliest_pre(bank, now));
            }
        }
        if min_pre == Cycle::MAX {
            // All banks precharged: the next REF start.
            deadline.max(lane.earliest_ref(rank, now)).max(bus)
        } else {
            let urgent_at = deadline
                .saturating_add((RankState::MAX_POSTPONE - 1).saturating_mul(self.timing.t_refi));
            if now < urgent_at {
                urgent_at
            } else {
                min_pre.max(bus)
            }
        }
    }

    /// Per-bank queue diagnostics for the watchdog's stall snapshot
    /// (global bank ids; only banks with queued work are reported).
    pub fn bank_stalls(&self, out: &mut Vec<BankStall>) {
        for (local, q) in self.queues.iter().enumerate() {
            if q.is_empty() {
                continue;
            }
            out.push(BankStall {
                bank: self.bank_base + local,
                queue_depth: q.len(),
                open_row: self.lane().open_row(self.gbank(local)),
                head_ready_at: q.front().map(|r| r.ready_at).unwrap_or(0),
                rfm_pending: self
                    .raa
                    .as_ref()
                    .is_some_and(|r| r.needs_rfm(BankId(local as u32))),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_dram::geometry::DramGeometry;
    use shadow_mitigations::NoMitigation;
    use shadow_rh::RhParams;
    use shadow_sim::rng::Xoshiro256;

    /// Case count: `PROPTEST_CASES` env override, else `default` (the same
    /// knob the proptest-style suites across the workspace honor).
    fn cases(default: u64) -> u64 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    fn twin_geometry() -> DramGeometry {
        DramGeometry {
            channels: 1,
            ranks_per_channel: 2,
            bank_groups: 1,
            banks_per_group: 2,
            subarrays_per_bank: 2,
            rows_per_subarray: 8,
            columns: 8,
            column_bytes: 64,
        }
    }

    fn build_shard(engine: Engine, policy: PagePolicy, raaimt: u32) -> ChannelShard {
        let geo = twin_geometry();
        let tp = TimingParams::tiny();
        let banks = geo.total_banks() as usize;
        let ranks = geo.ranks_per_channel as usize;
        let ledgers = (0..banks)
            .map(|_| {
                HammerLedger::new(
                    geo.rows_per_bank(),
                    geo.rows_per_subarray,
                    RhParams::new(64, 1),
                )
            })
            .collect();
        let mut shard = ChannelShard::new(
            0,
            0,
            banks,
            ranks,
            policy,
            engine,
            tp,
            ledgers,
            Some(RaaCounters::new(banks, raaimt)),
            false,
        );
        shard.lane = Some(ChannelLane::new(0, &geo, &tp));
        shard
    }

    /// Drives two engine twins (the fast event calendar and the reference
    /// full scan; both walk the queue for FR-FCFS hits) through one
    /// identical randomized sequence of admissions, passes, and `next_min`
    /// probes, asserting lock-step agreement on every observable: the
    /// issued command stream, CAS completions, progress flags, and queue
    /// depths — plus the calendar's exactness contract against every
    /// `next_min` value the scan returns.
    ///
    /// The clock advance deliberately mixes event jumps (`next_min`) with
    /// single-cycle crawls and random stutters, so the calendar engine is
    /// exercised on stale-entry discard (events popped after invalidation),
    /// seq-counter edges (passes land between a command and its memo
    /// refresh), and spurious early visits (passes at non-event cycles).
    /// Returns command counts for the caller's coverage asserts.
    fn drive_twins(seed: u64) -> (u64, u64, u64) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let policy = if rng.gen_bool(0.5) {
            PagePolicy::Open
        } else {
            PagePolicy::Closed
        };
        // A tiny RAAIMT forces RFM recovery events into every run.
        let raaimt = rng.gen_range(3, 9) as u32;
        let mut shards = [
            build_shard(Engine::Fast, policy, raaimt),
            build_shard(Engine::Reference, policy, raaimt),
        ];
        let geo = twin_geometry();
        let banks = geo.total_banks() as usize;
        let rows = geo.rows_per_bank();
        let mut mit = AnyMitigation::from(Box::new(NoMitigation::new()) as Box<dyn Mitigation>);

        let mut now: Cycle = 0;
        // Run well past tREFI so refresh deadlines, urgent PREs, and REF
        // recovery all participate.
        let horizon: Cycle = TimingParams::tiny().t_refi * 6;
        let (mut acts, mut cas, mut refs) = (0u64, 0u64, 0u64);
        while now < horizon {
            if rng.gen_bool(0.4) {
                for _ in 0..rng.gen_range(1, 4) {
                    let req = QueuedReq {
                        core: 0,
                        pa_row: rng.gen_range(0, rows as u64) as u32,
                        write: rng.gen_bool(0.3),
                        enqueued_at: now,
                        ready_at: now + rng.gen_range(0, 3),
                        act_charged: false,
                        cached_da: 0,
                        cached_epoch: NO_EPOCH,
                    };
                    let local = rng.gen_index(banks);
                    for s in shards.iter_mut() {
                        s.admit(local, req.clone());
                    }
                }
            }
            let replies: Vec<ShardReply> =
                shards.iter_mut().map(|s| s.pass(now, &mut mit)).collect();
            for r in &replies[1..] {
                assert_eq!(r.progressed, replies[0].progressed, "seed {seed} @ {now}");
                assert_eq!(r.cmd, replies[0].cmd, "seed {seed} @ {now}");
                assert_eq!(r.completion, replies[0].completion, "seed {seed} @ {now}");
            }
            for s in &shards[1..] {
                assert_eq!(s.queued(), shards[0].queued(), "seed {seed} @ {now}");
            }
            match replies[0].cmd {
                Some((_, DramCommand::Act { .. })) => acts += 1,
                Some((_, DramCommand::Rd { .. } | DramCommand::Wr { .. })) => cas += 1,
                Some((_, DramCommand::Ref { .. })) => refs += 1,
                _ => {}
            }
            let mins: Vec<Cycle> = shards
                .iter_mut()
                .map(|s| s.next_min(now, &mut mit))
                .collect();
            // The calendar's exact refresh wake may legitimately exceed
            // the scan's conservative pin — but never undercut it, and the
            // reply-equality asserts above prove every cycle it would skip
            // is a no-op on the scan too (the driver's crawl/stutter
            // branches visit those cycles).
            assert!(
                mins[0] >= mins[1],
                "calendar next_min undercut the scan ({} < {}), seed {seed} @ {now}",
                mins[0],
                mins[1]
            );
            // The fallback bound the coordinator uses when any shard
            // needs per-pass examination must be cadence-identical to the
            // scan's value — that equivalence is what makes the
            // cross-shard fallback reproduce the scan's crawl. Compare
            // under the coordinator's `max(now + 1)` clamp: the calendar's
            // cache-reuse path legitimately keeps a stale due-rank pin
            // (`now0 < now`) that the clamp maps to the same next cycle.
            assert_eq!(
                shards[0].legacy_next().max(now + 1),
                mins[1].max(now + 1),
                "calendar legacy_next vs scan next_min, seed {seed} @ {now}"
            );
            assert!(
                !shards[0].skip_ok() || mins[0] >= shards[0].legacy_next(),
                "skippable shard's exact wake below its legacy bound, seed {seed} @ {now}"
            );
            // Advance: usually jump to the event, sometimes crawl or
            // stutter short of it to provoke stale/early calendar pops.
            now = if replies[0].progressed || rng.gen_bool(0.25) {
                now + 1
            } else {
                let next = mins[0].max(now + 1);
                if rng.gen_bool(0.2) {
                    (now + 1 + rng.gen_range(0, 4)).min(next)
                } else {
                    next
                }
            };
        }
        for s in &shards[1..] {
            assert_eq!(shards[0].queued(), s.queued(), "seed {seed}");
        }
        (acts, cas, refs)
    }

    #[test]
    fn engines_agree_on_randomized_sequences() {
        let mut covered = (0u64, 0u64, 0u64);
        for seed in 0..cases(12) {
            let (a, c, r) = drive_twins(0xCA1E_0000 + seed);
            covered.0 += a;
            covered.1 += c;
            covered.2 += r;
        }
        // The sweep as a whole must have exercised the interesting command
        // classes, or the agreement above proved nothing.
        assert!(covered.0 > 0, "no ACTs issued across the sweep");
        assert!(covered.1 > 0, "no CAS issued across the sweep");
        assert!(covered.2 > 0, "no REFs issued across the sweep");
    }

    #[test]
    fn calendar_pool_partition_invariant() {
        // After any randomized drive, a calendar shard's examined pool and
        // parked pool stay disjoint subsets of the active set.
        let mut shard = build_shard(Engine::Fast, PagePolicy::Open, 4);
        let mut mit = AnyMitigation::from(Box::new(NoMitigation::new()) as Box<dyn Mitigation>);
        let mut rng = Xoshiro256::seed_from_u64(0xD15_701);
        let banks = twin_geometry().total_banks() as usize;
        let rows = twin_geometry().rows_per_bank();
        let mut now = 0;
        for _ in 0..400 {
            if rng.gen_bool(0.5) {
                shard.admit(
                    rng.gen_index(banks),
                    QueuedReq {
                        core: 0,
                        pa_row: rng.gen_range(0, rows as u64) as u32,
                        write: rng.gen_bool(0.3),
                        enqueued_at: now,
                        ready_at: now,
                        act_charged: false,
                        cached_da: 0,
                        cached_epoch: NO_EPOCH,
                    },
                );
            }
            shard.pass(now, &mut mit);
            let next = shard.next_min(now, &mut mit);
            for local in 0..banks {
                assert!(
                    !shard.pending.contains(local) || shard.active.contains(local),
                    "pending bank {local} not active"
                );
            }
            now = next.max(now + 1).min(now + 50);
        }
    }
}

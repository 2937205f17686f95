//! The memory-system engine: FR-FCFS scheduling, refresh, RFM, mitigation
//! hooks, and the fault model, advanced on one deterministic timeline.
//!
//! All per-channel scheduler state lives in `ChannelShard`s (see
//! `crate::shard`), and [`MemSystem`] is the coordinator: it owns the
//! cores, request admission, the completion event queue, the watchdog, and
//! the device's bookkeeping (stats/history/trace). One run loop steps every
//! shard in ascending channel order against the whole mitigation, then
//! merges the pass's commands and completions in fixed channel order.
//!
//! Runs are single-threaded by design. Independent cells fan out across
//! threads instead (`shadow_bench::run_parallel`, campaign `threads`): a
//! per-pass barrier across channel workers cost far more than the ~2 µs a
//! pass takes for all four channels of the DDR4 config.

use shadow_dram::device::DramDevice;
use shadow_dram::geometry::DramGeometry;
use shadow_dram::mapping::AddressMapper;
use shadow_dram::rfm::RaaCounters;
use shadow_mitigations::{AboSpec, Mitigation, Retranslate};
use shadow_rh::HammerLedger;
use shadow_sim::events::EventQueue;
use shadow_sim::profiler::PhaseProfile;
use shadow_sim::stats::Histogram;
use shadow_sim::time::Cycle;
use shadow_workloads::RequestStream;

use crate::config::{Engine, SystemConfig};
use crate::cpu::CpuCore;
use crate::error::{BankStall, SimError, StallKind, StallSnapshot};
use crate::report::SimReport;
use crate::shard::{ChannelShard, QueuedReq, ShardReply, NO_EPOCH, POSTED};

/// The assembled memory system.
#[derive(Debug)]
pub struct MemSystem {
    cfg: SystemConfig,
    device: DramDevice,
    mapper: AddressMapper,
    /// The whole mitigation, as given. The shards call it through one
    /// `&mut dyn Mitigation` per pass.
    mitigation: Box<dyn Mitigation>,
    shards: Vec<ChannelShard>,
    /// The mitigation's Alert Back-Off contract, captured once at assembly
    /// for the shards and the conformance oracle.
    abo_spec: Option<AboSpec>,
    banks_per_channel: usize,
    cores: Vec<CpuCore>,
    completions: EventQueue<usize>,
    /// Running total of delivered completions (the `done()` fast path —
    /// avoids summing every core each scheduling pass).
    completed_reqs: u64,
    /// Reusable per-pass reply buffer.
    replies: Vec<ShardReply>,
    /// Cycle of the last delivered completion (watchdog bookkeeping;
    /// observation-only, never read by the scheduler).
    last_completion_at: Cycle,
    /// Cycle of the last committed DRAM command (watchdog bookkeeping).
    last_command_at: Cycle,
    /// Scheduling passes executed (observation-only; jump-efficiency
    /// metric for the hotpath bench).
    sched_passes: u64,
    /// Distinct cycles at which at least one pass ran (observation-only).
    pass_cycles: u64,
    /// Cycle of the most recent pass (`Cycle::MAX` before the first), for
    /// counting `pass_cycles` without a set.
    last_pass_at: Cycle,
    now: Cycle,
}

impl MemSystem {
    /// Assembles a system: one core per stream, the given mitigation.
    ///
    /// Panicking wrapper over [`try_new`](MemSystem::try_new), kept for
    /// test ergonomics and callers whose configs are static.
    ///
    /// # Panics
    ///
    /// Panics with the [`SimError`] message on any invalid input (empty
    /// `streams`, a config [`SystemConfig::validate`] rejects, an
    /// RFM-based mitigation without a RAAIMT).
    pub fn new(
        cfg: SystemConfig,
        streams: Vec<Box<dyn RequestStream>>,
        mitigation: Box<dyn Mitigation>,
    ) -> Self {
        Self::try_new(cfg, streams, mitigation).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Assembles a system: one core per stream, the given mitigation.
    ///
    /// The mitigation's tRCD extension, refresh-rate multiplier and extra
    /// DA rows are applied here, and so is [`SystemConfig::engine`]:
    /// [`Engine::Reference`] wraps the mitigation in [`Retranslate`] and
    /// builds full-scan shards. Both engines build the same ledgers.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when `streams` is empty, when
    /// [`SystemConfig::validate`] rejects `cfg`, or when an RFM-based
    /// mitigation provides no RAAIMT and the config does not override one.
    pub fn try_new(
        cfg: SystemConfig,
        streams: Vec<Box<dyn RequestStream>>,
        mut mitigation: Box<dyn Mitigation>,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        if streams.is_empty() {
            return Err(SimError::invalid(
                "streams",
                "need at least one core (pass one RequestStream per simulated core)",
            ));
        }
        if cfg.engine == Engine::Reference {
            // A fresh remap epoch per query: every cached translation is
            // stale, so every lookup re-translates.
            mitigation = Box::new(Retranslate::new(mitigation));
        }
        let mut timing = cfg.timing;
        timing.t_rcd_extra += mitigation.t_rcd_extra_cycles();
        let mult = mitigation.refresh_rate_multiplier().max(1) as u64;
        timing.t_refi = (timing.t_refi / mult).max(timing.t_rfc + 1);

        // Physical geometry: the mitigation may add rows per subarray.
        let phys_geo = DramGeometry {
            rows_per_subarray: mitigation.da_rows_per_subarray(cfg.geometry.rows_per_subarray),
            ..cfg.geometry
        };
        let mut device = DramDevice::new(phys_geo, timing);
        if cfg.trace_depth > 0 {
            device.enable_trace(cfg.trace_depth);
        }
        let banks = phys_geo.total_banks() as usize;
        let channels = phys_geo.channels as usize;
        let banks_per_channel = banks / channels;
        let ranks_per_channel = phys_geo.ranks_per_channel as usize;
        let raaimt = if mitigation.uses_rfm() {
            let v = cfg.raaimt_override.or(mitigation.raaimt()).ok_or_else(|| {
                SimError::invalid(
                    "raaimt",
                    format!(
                        "mitigation {} uses RFM but provides no RAAIMT; \
                         set SystemConfig::raaimt_override",
                        mitigation.name()
                    ),
                )
            })?;
            Some(v)
        } else {
            None
        };
        let make_ledger =
            || HammerLedger::new(phys_geo.rows_per_bank(), phys_geo.rows_per_subarray, cfg.rh);
        // `Mitigation::abo` is captured once, here at assembly.
        let abo_spec = mitigation.abo();
        let shards: Vec<ChannelShard> = (0..channels)
            .map(|ch| {
                let mut shard = ChannelShard::new(
                    ch * banks_per_channel,
                    ch * ranks_per_channel,
                    banks_per_channel,
                    ranks_per_channel,
                    cfg.page_policy,
                    cfg.engine,
                    timing,
                    (0..banks_per_channel).map(|_| make_ledger()).collect(),
                    raaimt.map(|r| RaaCounters::new(banks_per_channel, r)),
                    cfg.profile,
                );
                shard.set_abo(abo_spec);
                shard
            })
            .collect();
        Ok(MemSystem {
            mapper: AddressMapper::new(cfg.geometry),
            cores: streams
                .into_iter()
                .map(|s| CpuCore::new(s, cfg.mlp))
                .collect(),
            completions: EventQueue::new(),
            completed_reqs: 0,
            replies: Vec::with_capacity(channels),
            banks_per_channel,
            shards,
            abo_spec,
            last_completion_at: 0,
            last_command_at: 0,
            sched_passes: 0,
            pass_cycles: 0,
            last_pass_at: Cycle::MAX,
            now: 0,
            cfg,
            device,
            mitigation,
        })
    }

    /// The device (for inspection in tests).
    pub fn device(&self) -> &DramDevice {
        &self.device
    }

    /// Drains the collected command trace (oldest first), leaving tracing
    /// enabled. `None` unless the config set a non-zero `trace_depth`.
    pub fn take_trace(&mut self) -> Option<Vec<shadow_dram::trace::CommandRecord>> {
        self.device.take_trace()
    }

    /// The mitigation (for inspection in tests).
    pub fn mitigation(&self) -> &dyn Mitigation {
        &*self.mitigation
    }

    /// The mitigation's Alert Back-Off contract as captured at assembly.
    /// The conformance oracle replays recovery timing from this.
    pub fn abo_spec(&self) -> Option<AboSpec> {
        self.abo_spec
    }

    /// Bit-flip ledger of (global) `bank`.
    pub fn ledger(&self, bank: usize) -> &HammerLedger {
        &self.shards[bank / self.banks_per_channel].ledgers[bank % self.banks_per_channel]
    }

    fn done(&self) -> bool {
        if self.now >= self.cfg.max_cycles {
            return true;
        }
        self.cfg.target_requests > 0 && self.completed_reqs >= self.cfg.target_requests
    }

    /// Delivers every completion due at `now` (§1 of a scheduling pass).
    fn drain_completions(&mut self, now: Cycle) -> bool {
        let mut progressed = false;
        while let Some((_, core)) = self.completions.pop_due(now) {
            self.cores[core].complete();
            self.completed_reqs += 1;
            self.last_completion_at = now;
            progressed = true;
        }
        progressed
    }

    /// Admits eligible core requests straight into their banks' queues
    /// (§2 of a scheduling pass), in core order, before any shard's pass.
    /// Translation is deferred to first use (`NO_EPOCH`):
    /// `Mitigation::translate` is a pure lookup, so the first `da()` call
    /// yields the row admission would have, and the mitigation sees its
    /// translate calls exactly where the scheduler needs them.
    fn admit(&mut self, now: Cycle) -> bool {
        let mut progressed = false;
        for i in 0..self.cores.len() {
            while self.cores[i].can_issue(now) {
                let req = self.cores[i].issue(now);
                let d = self.mapper.decode(req.pa);
                // Posted writes retire at the controller without waiting
                // for DRAM; the completion is delivered through the event
                // queue (next scheduling pass) so admission stays bounded
                // by the MLP window within one pass.
                let core = if req.write && self.cfg.posted_writes {
                    self.completions.schedule(now, i);
                    POSTED
                } else {
                    i
                };
                let bankno = d.bank.0 as usize;
                self.shards[bankno / self.banks_per_channel].admit(
                    bankno % self.banks_per_channel,
                    QueuedReq {
                        core,
                        pa_row: d.row,
                        write: req.write,
                        enqueued_at: now,
                        ready_at: now,
                        act_charged: false,
                        cached_da: 0,
                        cached_epoch: NO_EPOCH,
                    },
                );
                progressed = true;
            }
        }
        progressed
    }

    /// One scheduling pass at `self.now`. Returns true if any command,
    /// completion, admission, or mitigation consult happened.
    fn step(&mut self) -> bool {
        let now = self.now;
        let mut progressed = self.drain_completions(now);
        progressed |= self.admit(now);
        let MemSystem {
            shards,
            mitigation,
            replies,
            device,
            completions,
            last_command_at,
            ..
        } = self;
        replies.clear();
        for shard in shards.iter_mut() {
            replies.push(shard.pass(now, &mut **mitigation));
        }
        // Canonical merge: refresh-phase commands in channel order, then
        // scheduler-phase commands in channel order (§3 walks ranks
        // channel-major, §4 walks banks channel-major, and a channel issues
        // at most one command per cycle). CAS completions land afterwards, preserving
        // the event queue's FIFO tie-break for equal-cycle entries.
        for r in replies.iter() {
            if let Some((true, cmd)) = r.cmd {
                device.record(cmd, now);
                *last_command_at = now;
            }
        }
        for r in replies.iter() {
            if let Some((false, cmd)) = r.cmd {
                device.record(cmd, now);
                *last_command_at = now;
            }
        }
        for r in replies.iter() {
            if let Some((at, core)) = r.completion {
                completions.schedule(at, core);
            }
            progressed |= r.progressed;
        }
        progressed
    }

    /// The earliest future cycle at which anything can happen.
    fn next_event_after(&mut self, now: Cycle) -> Cycle {
        let mut next = Cycle::MAX;
        if let Some(t) = self.completions.next_at() {
            next = next.min(t);
        }
        for c in &self.cores {
            if let Some(t) = c.next_eligible() {
                next = next.min(t);
            }
        }
        let MemSystem {
            shards, mitigation, ..
        } = self;
        // A shard needing per-pass examination (an armed consult, a
        // Closed-policy eager-PRE bank) inherited its visit cadence from
        // the global crawl — the 1-cycle refresh pins of *other* shards
        // included — so the calendar engine's exact wake bounds are only
        // sound for the clock advance when every shard is skippable.
        // Otherwise fall back to the min of the legacy-form bounds, which
        // reproduces the reference scan's cadence exactly.
        let mut exact_min = Cycle::MAX;
        let mut legacy_min = Cycle::MAX;
        let mut all_skip = true;
        for shard in shards.iter_mut() {
            exact_min = exact_min.min(shard.next_min(now, &mut **mitigation));
            legacy_min = legacy_min.min(shard.legacy_next());
            all_skip &= shard.skip_ok();
        }
        next = next.min(if all_skip { exact_min } else { legacy_min });
        next.max(now + 1)
    }

    /// How many consecutive same-cycle scheduling passes the watchdog
    /// tolerates before declaring a stuck-at-cycle loop. A legitimate
    /// repeat chain is bounded by the completions deliverable at one cycle
    /// (≤ cores × MLP per pass), so this is orders of magnitude above any
    /// real run.
    const STUCK_PASS_LIMIT: u64 = 1_000_000;

    /// Builds the watchdog's diagnostic snapshot of the controller state.
    /// Requires the shards to hold their lanes (i.e. called during a run).
    fn stall_snapshot(&self, kind: StallKind) -> Box<StallSnapshot> {
        let mut banks: Vec<BankStall> = Vec::new();
        for shard in &self.shards {
            shard.bank_stalls(&mut banks);
        }
        banks.sort_by(|a, b| b.queue_depth.cmp(&a.queue_depth).then(a.bank.cmp(&b.bank)));
        let queued_requests = banks.iter().map(|b| b.queue_depth).sum();
        banks.truncate(StallSnapshot::MAX_BANKS);
        let trace_tail = self
            .device
            .trace()
            .map(|t| {
                let skip = t.len().saturating_sub(StallSnapshot::MAX_TRACE_TAIL);
                t.iter()
                    .skip(skip)
                    .map(|r| format!("@{} {:?}", r.cycle, r.cmd))
                    .collect()
            })
            .unwrap_or_default();
        Box::new(StallSnapshot {
            kind,
            cycle: self.now,
            window: self.cfg.watchdog_window,
            last_completion_at: self.last_completion_at,
            last_command_at: self.last_command_at,
            completed_requests: self.completed_reqs,
            queued_requests,
            channel_blocked_cycles: self.shards.iter().map(|s| s.blocked_cycles).sum(),
            throttle_cycles: self.shards.iter().map(|s| s.throttle_cycles).sum(),
            banks,
            trace_tail,
        })
    }

    /// Watchdog decision, evaluated whenever `now` advances. Returns the
    /// stall kind once no request has completed for a full window *while
    /// requests sit queued* (an idle system with empty queues is
    /// legitimately quiet, not stalled). Purely observational: it reads
    /// committed state only, so a run it never aborts is bit-identical to
    /// one with the watchdog disabled. `any_queued` comes from the shards;
    /// queue state only changes inside passes.
    fn watchdog_kind(&mut self, any_queued: bool) -> Option<StallKind> {
        let window = self.cfg.watchdog_window;
        if window == 0 || self.now.saturating_sub(self.last_completion_at) < window {
            return None;
        }
        if !any_queued {
            // Nothing in flight: push the watermark forward so a long idle
            // stretch can't masquerade as a stall once work resumes.
            self.last_completion_at = self.now;
            return None;
        }
        Some(if self.now.saturating_sub(self.last_command_at) >= window {
            StallKind::Livelock
        } else {
            StallKind::Starvation
        })
    }

    /// Runs to the configured request target or cycle limit and reports.
    ///
    /// Panicking wrapper over [`run_checked`](MemSystem::run_checked):
    /// with the watchdog disabled (`watchdog_window == 0`, every preset's
    /// default) it cannot fail and behaves exactly as it always did.
    ///
    /// # Panics
    ///
    /// Panics with the stall diagnosis if the watchdog is enabled and
    /// fires; callers that enable it should prefer `run_checked`.
    pub fn run(&mut self) -> SimReport {
        self.run_checked().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs to the configured request target or cycle limit and reports,
    /// with the forward-progress watchdog armed when
    /// [`SystemConfig::watchdog_window`] is non-zero.
    ///
    /// # Errors
    ///
    /// [`SimError::Stalled`] with a [`StallSnapshot`] when the watchdog
    /// detects a livelock, completion starvation, or a stuck-at-cycle
    /// repeat loop. On the non-stalling path the report is bit-identical
    /// to a watchdog-free run (the determinism suite pins this).
    pub fn run_checked(&mut self) -> Result<SimReport, SimError> {
        // Move each channel's device-timing state into its shard for the
        // run; restored on every exit so post-run device inspection
        // (trace, open rows) keeps working.
        let lanes = self.device.take_lanes();
        for (shard, lane) in self.shards.iter_mut().zip(lanes) {
            shard.lane = Some(lane);
        }
        let result = self.run_loop();
        let lanes = self
            .shards
            .iter_mut()
            .map(|s| s.lane.take().expect("lane present after run"))
            .collect();
        self.device.restore_lanes(lanes);
        result.map(|()| self.report())
    }

    /// Observation-only pass accounting (jump-efficiency metrics).
    #[inline]
    fn count_pass(&mut self) {
        self.sched_passes += 1;
        if self.last_pass_at != self.now {
            self.last_pass_at = self.now;
            self.pass_cycles += 1;
        }
    }

    /// First-class watchdog event: with the window armed and requests
    /// queued, the deadline `last_completion_at + window` is itself an
    /// event. When it falls strictly between `now` and the next natural
    /// wake `next`, the run jumps straight to the deadline and the
    /// watchdog fires there — no scheduling pass runs at that cycle, so
    /// nothing simulated can diverge. On a run the old
    /// check-at-natural-wakes watchdog would not have aborted, the clamp
    /// is never taken: the deadline either falls at/after `next`, or the
    /// wake at `next` would have fired the same abort (queue state only
    /// changes inside passes, and `next` is the minimum over completions,
    /// so none can land in between). Returns the stall verdict when the
    /// clamp fires.
    fn watchdog_deadline(&mut self, any_queued: bool, next: Cycle) -> Option<StallKind> {
        if self.cfg.watchdog_window == 0 || !any_queued {
            return None;
        }
        let deadline = self
            .last_completion_at
            .saturating_add(self.cfg.watchdog_window);
        if deadline > self.now && deadline < next {
            self.now = deadline;
            let kind = self.watchdog_kind(true);
            debug_assert!(kind.is_some(), "the watchdog fires at its own deadline");
            return kind;
        }
        None
    }

    /// The run loop: one pass per wake, then a jump to the next event.
    fn run_loop(&mut self) -> Result<(), SimError> {
        let mut passes_at_now: u64 = 0;
        while !self.done() {
            self.count_pass();
            let progressed = self.step();
            // A pass can enable further work at the same cycle only by
            // delivering a completion scheduled *at* `now` (posted writes;
            // CAS completions always land in the future): admissions are
            // exhausted within a pass unless a completion reopens an MLP
            // window, every committed command claims its channel's command
            // bus for the rest of this cycle, and no timing constraint
            // couples banks across channels — so a bank that could not
            // issue in this pass cannot issue later in the same cycle
            // either, and a mitigation consult never waits for a later
            // pass (the gate's floor check blocks claimed channels in both
            // passes alike). The reference engine keeps the naive
            // repeat-while-progress loop, so the differential harness pins
            // this short-circuit cell for cell.
            let repeat = progressed
                && (self.cfg.engine == Engine::Reference
                    || self.completions.next_at() == Some(self.now));
            // The `done()` guard matches the naive loop's exit shape: there,
            // the terminal pass progresses and the loop exits at the top
            // before any no-progress pass can advance `now` — so the
            // reported cycle count must not include a post-completion jump.
            if !repeat && !self.done() {
                let next = self.next_event_after(self.now).min(self.cfg.max_cycles);
                let any_queued = self.shards.iter().any(|s| s.queued() > 0);
                if let Some(kind) = self.watchdog_deadline(any_queued, next) {
                    return Err(SimError::Stalled(self.stall_snapshot(kind)));
                }
                self.now = next;
                passes_at_now = 0;
                if let Some(kind) = self.watchdog_kind(any_queued) {
                    return Err(SimError::Stalled(self.stall_snapshot(kind)));
                }
            } else if repeat && self.cfg.watchdog_window > 0 {
                passes_at_now += 1;
                if passes_at_now >= Self::STUCK_PASS_LIMIT {
                    return Err(SimError::Stalled(
                        self.stall_snapshot(StallKind::StuckCycle),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Assembles the final [`SimReport`], merging per-shard state in fixed
    /// channel order (exact: histogram merge is element-wise, sums are
    /// integer, flips concatenate in global bank order).
    fn report(&self) -> SimReport {
        let mut latency = Histogram::new(16, 256);
        let mut blocked: Cycle = 0;
        let mut throttle: Cycle = 0;
        let mut busy = Vec::with_capacity(self.shards.len());
        let mut flips = Vec::new();
        let mut profile: Option<PhaseProfile> = None;
        let mut abo_events: u64 = 0;
        let mut abo_recovery_cycles: Cycle = 0;
        let mut gate_rank_skips: Vec<u64> = Vec::new();
        let mut gate_bus_skips: u64 = 0;
        for shard in &self.shards {
            latency.merge(&shard.latency);
            blocked += shard.blocked_cycles;
            throttle += shard.throttle_cycles;
            busy.push(shard.busy_cycles);
            abo_events += shard.abo_events;
            abo_recovery_cycles += shard.abo_recovery_cycles;
            gate_rank_skips.extend_from_slice(&shard.rank_gate_skips);
            gate_bus_skips += shard.bus_gate_skips;
            for l in &shard.ledgers {
                flips.push(l.flips().to_vec());
            }
            if let Some(p) = &shard.profile {
                profile.get_or_insert_with(PhaseProfile::new).merge(p);
            }
        }
        SimReport {
            scheme: self.mitigation.name().to_string(),
            cycles: self.now,
            core_names: self.cores.iter().map(|c| c.name().to_string()).collect(),
            completed: self.cores.iter().map(|c| c.completed()).collect(),
            commands: self.device.stats().clone(),
            flips,
            channel_blocked_cycles: blocked,
            throttle_cycles: throttle,
            latency,
            abo_events,
            abo_recovery_cycles,
            tracker_evictions: self.mitigation.tracker_evictions(),
            channel_busy_cycles: busy,
            sched_passes: self.sched_passes,
            pass_cycles: self.pass_cycles,
            gate_rank_skips,
            gate_bus_skips,
            profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_core::bank::ShadowConfig;
    use shadow_core::timing::ShadowTiming;
    use shadow_dram::command::DramCommand;
    use shadow_dram::geometry::BankId;
    use shadow_mitigations::{Drr, NoMitigation, Parfm, ShadowMitigation};
    use shadow_workloads::{AppProfile, ProfileStream, RandomStream};

    fn one_stream(cfg: &SystemConfig, seed: u64) -> Vec<Box<dyn RequestStream>> {
        vec![Box::new(RandomStream::new(
            cfg.capacity_bytes().max(1 << 20),
            seed,
        ))]
    }

    #[test]
    fn baseline_completes_requests() {
        let cfg = SystemConfig::tiny();
        let mut sys = MemSystem::new(cfg, one_stream(&cfg, 1), Box::new(NoMitigation::new()));
        let r = sys.run();
        assert!(r.total_completed() >= cfg.target_requests);
        assert!(r.commands.get("ACT") > 0);
        assert!(r.commands.get("RD") > 0);
        assert_eq!(r.commands.get("RFM"), 0, "no RFM without an RFM scheme");
    }

    #[test]
    fn refresh_happens() {
        let cfg = SystemConfig::tiny();
        let mut sys = MemSystem::new(cfg, one_stream(&cfg, 2), Box::new(NoMitigation::new()));
        let r = sys.run();
        assert!(
            r.commands.get("REF") > 0,
            "no refreshes in {} cycles",
            r.cycles
        );
    }

    #[test]
    fn drr_doubles_refresh_rate() {
        let cfg = SystemConfig::tiny();
        let base = MemSystem::new(cfg, one_stream(&cfg, 3), Box::new(NoMitigation::new())).run();
        let drr = MemSystem::new(cfg, one_stream(&cfg, 3), Box::new(Drr::new())).run();
        let per_cycle_base = base.commands.get("REF") as f64 / base.cycles as f64;
        let per_cycle_drr = drr.commands.get("REF") as f64 / drr.cycles as f64;
        let ratio = per_cycle_drr / per_cycle_base;
        assert!((1.7..2.4).contains(&ratio), "REF rate ratio {ratio}");
    }

    #[test]
    fn rfm_scheme_triggers_rfms() {
        let cfg = SystemConfig::tiny();
        let rh = cfg.rh;
        let parfm = Parfm::new(cfg.geometry.total_banks() as usize, rh, 16, 7)
            .with_rows_per_subarray(cfg.geometry.rows_per_subarray);
        let mut sys = MemSystem::new(cfg, one_stream(&cfg, 4), Box::new(parfm));
        let r = sys.run();
        assert!(r.commands.get("RFM") > 0, "RFM never issued");
        // RAAIMT=16: roughly one RFM per 16 ACTs.
        let apr = r.acts_per_rfm().unwrap();
        assert!((10.0..30.0).contains(&apr), "ACTs per RFM = {apr}");
    }

    fn shadow_with_raaimt(cfg: &SystemConfig, raaimt: u32) -> ShadowMitigation {
        let scfg = ShadowConfig {
            subarrays: cfg.geometry.subarrays_per_bank,
            rows_per_subarray: cfg.geometry.rows_per_subarray,
        };
        ShadowMitigation::new(
            cfg.geometry.total_banks() as usize,
            scfg,
            raaimt,
            &cfg.timing,
            &ShadowTiming::paper_default(),
            99,
        )
    }

    fn shadow_for(cfg: &SystemConfig) -> ShadowMitigation {
        shadow_with_raaimt(cfg, 16)
    }

    #[test]
    fn shadow_runs_and_shuffles() {
        let cfg = SystemConfig::tiny();
        let mut sys = MemSystem::new(cfg, one_stream(&cfg, 5), Box::new(shadow_for(&cfg)));
        let r = sys.run();
        assert!(r.commands.get("RFM") > 0);
        assert!(r.total_completed() >= cfg.target_requests);
    }

    #[test]
    fn shadow_slows_down_modestly() {
        // tRCD' and RFM work must cost something, but not catastrophically.
        let cfg = SystemConfig::tiny();
        let base = MemSystem::new(cfg, one_stream(&cfg, 6), Box::new(NoMitigation::new())).run();
        let sh = MemSystem::new(cfg, one_stream(&cfg, 6), Box::new(shadow_for(&cfg))).run();
        let rel = sh.relative_performance(&base);
        assert!(rel < 1.0, "SHADOW cannot be free (rel = {rel})");
        assert!(rel > 0.5, "SHADOW overhead implausibly high (rel = {rel})");
    }

    #[test]
    fn single_sided_hammer_flips_baseline_but_not_shadow() {
        // An attacker hammering one row must flip victims on the
        // unprotected system; SHADOW's shuffling + incremental refresh must
        // prevent it at the same ACT budget.
        #[derive(Debug)]
        struct Hammer {
            pas: [u64; 2],
            i: usize,
        }
        impl RequestStream for Hammer {
            fn next_request(&mut self) -> shadow_workloads::Request {
                self.i ^= 1;
                shadow_workloads::Request {
                    pa: self.pas[self.i],
                    write: false,
                    gap_cycles: 0,
                }
            }
            fn name(&self) -> &str {
                "hammer"
            }
        }
        let mut cfg = SystemConfig::tiny();
        cfg.target_requests = 0;
        cfg.max_cycles = 3_000_000;
        // Double-sided hammer around row 8 of bank 0 (16-row subarrays):
        // alternating rows 7 and 9 forces an ACT per access.
        let mapper = AddressMapper::new(cfg.geometry);
        let bank = cfg.geometry.bank_id(0, 0, 0);
        let pas = [mapper.pa_of_row(bank, 7), mapper.pa_of_row(bank, 9)];

        let mut base_sys = MemSystem::new(
            cfg,
            vec![Box::new(Hammer { pas, i: 0 })],
            Box::new(NoMitigation::new()),
        );
        let base = base_sys.run();
        assert!(base.total_flips() > 0, "baseline should flip (H_cnt=64)");

        // The tiny parameters (H_cnt = 64, N_row = 16) sit far off Table
        // II's secure diagonal at RAAIMT 16, so use the proportionally
        // secure RAAIMT = 4 (H_cnt / RAAIMT = 16 = N_row) and require a
        // dramatic reduction rather than perfection.
        let mut shadow_cfg = cfg;
        shadow_cfg.raaimt_override = Some(4);
        let mut sh_sys = MemSystem::new(
            shadow_cfg,
            vec![Box::new(Hammer { pas, i: 0 })],
            Box::new(shadow_with_raaimt(&shadow_cfg, 4)),
        );
        let sh = sh_sys.run();
        assert!(
            sh.total_flips() * 50 < base.total_flips(),
            "SHADOW must suppress the double-sided hammer ({} vs {} flips)",
            sh.total_flips(),
            base.total_flips()
        );
    }

    #[test]
    fn spec_mix_runs_on_ddr4() {
        let mut cfg = SystemConfig::ddr4_actual_system();
        cfg.target_requests = 5_000;
        let streams: Vec<Box<dyn RequestStream>> = vec![
            Box::new(ProfileStream::new(
                AppProfile::spec_high()[0],
                cfg.capacity_bytes(),
                1,
            )),
            Box::new(ProfileStream::new(
                AppProfile::spec_low()[0],
                cfg.capacity_bytes(),
                2,
            )),
        ];
        let mut sys = MemSystem::new(cfg, streams, Box::new(NoMitigation::new()));
        let r = sys.run();
        assert!(r.total_completed() >= 5_000);
        // The memory-bound core completes far more than the compute-bound.
        assert!(r.completed[0] > r.completed[1] * 5);
    }

    #[test]
    fn posted_writes_never_stall_cores() {
        // A write-heavy stream should finish sooner with posted writes.
        #[derive(Debug)]
        struct WriteHeavy {
            rng: shadow_sim::rng::Xoshiro256,
        }
        impl RequestStream for WriteHeavy {
            fn next_request(&mut self) -> shadow_workloads::Request {
                let pa = self.rng.gen_range(0, 1 << 14) * 64;
                shadow_workloads::Request {
                    pa,
                    write: true,
                    gap_cycles: 0,
                }
            }
            fn name(&self) -> &str {
                "write-heavy"
            }
        }
        let make = || -> Vec<Box<dyn RequestStream>> {
            vec![Box::new(WriteHeavy {
                rng: shadow_sim::rng::Xoshiro256::seed_from_u64(4),
            })]
        };
        let cfg = SystemConfig::tiny();
        let mut posted_cfg = cfg;
        posted_cfg.posted_writes = true;
        let plain = MemSystem::new(cfg, make(), Box::new(NoMitigation::new())).run();
        let posted = MemSystem::new(posted_cfg, make(), Box::new(NoMitigation::new())).run();
        assert!(
            posted.cycles <= plain.cycles,
            "posted writes slower ({} vs {})",
            posted.cycles,
            plain.cycles
        );
        assert!(posted.total_completed() >= cfg.target_requests);
    }

    #[test]
    fn latency_histogram_populated_and_plausible() {
        let cfg = SystemConfig::tiny();
        let mut sys = MemSystem::new(cfg, one_stream(&cfg, 21), Box::new(NoMitigation::new()));
        let r = sys.run();
        // CAS-issued requests whose data lands after the stop condition are
        // recorded but not completed, so the histogram may lead slightly.
        assert!(r.latency.count() >= r.total_completed());
        assert!(r.latency.count() <= r.total_completed() + (cfg.mlp as u64));
        let tp = cfg.timing;
        // Every request needs at least the CAS-to-data time.
        assert!(r.latency.mean() >= (tp.t_cl + tp.t_bl) as f64);
        assert!(r.latency.percentile(50.0) > 0);
    }

    #[test]
    fn closed_page_policy_precharges_more() {
        let cfg_open = SystemConfig::tiny();
        let mut cfg_closed = SystemConfig::tiny();
        cfg_closed.page_policy = crate::config::PagePolicy::Closed;
        let seq: Vec<Box<dyn RequestStream>> =
            vec![Box::new(shadow_workloads::ProfileStream::new(
                shadow_workloads::AppProfile::spec_low()[1], // imagick: high locality
                1 << 20,
                3,
            ))];
        let open = MemSystem::new(cfg_open, seq, Box::new(NoMitigation::new())).run();
        let seq2: Vec<Box<dyn RequestStream>> =
            vec![Box::new(shadow_workloads::ProfileStream::new(
                shadow_workloads::AppProfile::spec_low()[1],
                1 << 20,
                3,
            ))];
        let closed = MemSystem::new(cfg_closed, seq2, Box::new(NoMitigation::new())).run();
        let pre_rate_open = open.commands.get("PRE") as f64 / open.commands.get("RD").max(1) as f64;
        let pre_rate_closed =
            closed.commands.get("PRE") as f64 / closed.commands.get("RD").max(1) as f64;
        assert!(
            pre_rate_closed > pre_rate_open,
            "closed page should precharge more ({pre_rate_closed} vs {pre_rate_open})"
        );
    }

    #[test]
    fn trace_depth_records_every_command() {
        let mut cfg = SystemConfig::tiny();
        cfg.target_requests = 200;
        cfg.trace_depth = 1 << 20; // deep enough to retain the whole run
        let mut sys = MemSystem::new(cfg, one_stream(&cfg, 11), Box::new(NoMitigation::new()));
        let r = sys.run();
        let total_cmds: u64 = ["ACT", "PRE", "RD", "WR", "REF", "RFM", "RFMAB", "RFMSB"]
            .iter()
            .map(|m| r.commands.get(m))
            .sum();
        let trace = sys.device().trace().expect("tracing enabled");
        assert!(trace.is_complete(), "depth 2^20 should retain all commands");
        assert_eq!(trace.len() as u64, total_cmds);
        let recs = sys.take_trace().expect("tracing enabled");
        // Monotone non-decreasing cycles, commands well-formed.
        assert!(recs.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        assert!(sys.take_trace().expect("still enabled").is_empty());
    }

    #[test]
    fn refresh_claims_the_command_bus() {
        // Two ranks share each channel on the DDR4 config: a REF on rank 0
        // must exclude any same-cycle command on the channel. Build a trace
        // and check no two commands of one channel share a cycle.
        let mut cfg = SystemConfig::ddr4_actual_system();
        cfg.target_requests = 2_000;
        cfg.trace_depth = 1 << 20;
        let mut sys = MemSystem::new(cfg, one_stream(&cfg, 12), Box::new(NoMitigation::new()));
        let r = sys.run();
        assert!(
            r.commands.get("REF") > 0,
            "need refreshes to exercise the path"
        );
        let geo = *sys.device().geometry();
        let recs = sys.take_trace().expect("tracing enabled");
        let mut last_by_ch = vec![None::<Cycle>; geo.channels as usize];
        for rec in recs {
            let ch = match rec.cmd {
                DramCommand::Ref { rank } => {
                    geo.channel_of(BankId(rank * geo.banks_per_rank())) as usize
                }
                cmd => geo.channel_of(cmd.bank().expect("non-REF has a bank")) as usize,
            };
            if let Some(prev) = last_by_ch[ch] {
                assert!(
                    rec.cycle > prev,
                    "two commands on channel {ch} at cycle {}",
                    rec.cycle
                );
            }
            last_by_ch[ch] = Some(rec.cycle);
        }
    }

    #[test]
    fn deterministic_given_seeds() {
        let cfg = SystemConfig::tiny();
        let a = MemSystem::new(cfg, one_stream(&cfg, 9), Box::new(NoMitigation::new())).run();
        let b = MemSystem::new(cfg, one_stream(&cfg, 9), Box::new(NoMitigation::new())).run();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.completed, b.completed);
    }

    /// A 2-channel shrink of the tiny config (tiny itself is 1-channel).
    fn two_channel_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::tiny();
        cfg.geometry.channels = 2;
        cfg.target_requests = 1_500;
        cfg
    }

    #[test]
    fn engines_agree_bit_for_bit() {
        // The fast engine and the reference engine must produce identical
        // reports — the whole point of the lazy-invalidation contract.
        let fast_cfg = SystemConfig::tiny();
        let mut reference_cfg = fast_cfg;
        reference_cfg.engine = Engine::Reference;
        for seed in [22, 23] {
            let fast = MemSystem::new(
                fast_cfg,
                one_stream(&fast_cfg, seed),
                Box::new(shadow_for(&fast_cfg)),
            )
            .run();
            let reference = MemSystem::new(
                reference_cfg,
                one_stream(&reference_cfg, seed),
                Box::new(shadow_for(&reference_cfg)),
            )
            .run();
            assert_eq!(fast, reference, "fast vs reference (seed {seed})");
        }
    }

    #[test]
    fn report_counts_scheduling_passes() {
        let cfg = SystemConfig::tiny();
        let r = MemSystem::new(cfg, one_stream(&cfg, 25), Box::new(NoMitigation::new())).run();
        assert!(r.sched_passes > 0);
        assert!(r.pass_cycles > 0);
        assert!(r.pass_cycles <= r.sched_passes);
        assert!(
            r.pass_cycles < r.cycles,
            "the jump engine must skip cycles ({} passes over {} cycles)",
            r.pass_cycles,
            r.cycles
        );
    }

    #[test]
    fn report_exposes_per_channel_busy_cycles() {
        let cfg = two_channel_cfg();
        let r = MemSystem::new(cfg, one_stream(&cfg, 19), Box::new(NoMitigation::new())).run();
        assert_eq!(r.channel_busy_cycles.len(), 2);
        let total: u64 = r.channel_busy_cycles.iter().sum();
        let cmds: u64 = ["ACT", "PRE", "RD", "WR", "REF", "RFM", "RFMAB", "RFMSB"]
            .iter()
            .map(|m| r.commands.get(m))
            .sum();
        assert_eq!(total, cmds, "busy cycles are exactly the command count");
        assert!(r.channel_busy_shares().iter().all(|&s| s <= 1.0));
    }

    #[test]
    fn try_new_rejects_empty_streams() {
        let cfg = SystemConfig::tiny();
        let err = MemSystem::try_new(cfg, Vec::new(), Box::new(NoMitigation::new()))
            .expect_err("empty streams must be rejected");
        match err {
            SimError::InvalidConfig { what, ref why } => {
                assert_eq!(what, "streams");
                assert!(why.contains("at least one core"), "{why}");
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn try_new_rejects_invalid_config() {
        let mut cfg = SystemConfig::tiny();
        cfg.mlp = 0;
        let err = MemSystem::try_new(cfg, one_stream(&cfg, 1), Box::new(NoMitigation::new()))
            .expect_err("mlp = 0 must be rejected");
        assert!(matches!(err, SimError::InvalidConfig { what: "mlp", .. }));
    }

    #[test]
    fn try_new_rejects_missing_raaimt() {
        // A scheme that claims the RFM interface but supplies no RAAIMT
        // (every built-in scheme does; third-party ones may not).
        #[derive(Debug)]
        struct RfmNoRate;
        impl Mitigation for RfmNoRate {
            fn name(&self) -> &'static str {
                "RFM-NO-RATE"
            }
            fn uses_rfm(&self) -> bool {
                true
            }
        }
        let mut cfg = SystemConfig::tiny();
        cfg.raaimt_override = None;
        let err = MemSystem::try_new(cfg, one_stream(&cfg, 1), Box::new(RfmNoRate))
            .expect_err("an RFM scheme with no RAAIMT must be rejected");
        assert!(
            matches!(err, SimError::InvalidConfig { what: "raaimt", .. }),
            "{err}"
        );
    }

    #[test]
    fn watchdog_is_observation_only_on_healthy_runs() {
        // A healthy run with the watchdog armed must produce the exact
        // report of a watchdog-free run — the window only *observes*.
        let off = SystemConfig::tiny();
        let mut with = off;
        with.watchdog_window = with.max_cycles - 1;
        let r_off = MemSystem::new(off, one_stream(&off, 21), Box::new(NoMitigation::new())).run();
        let r_on = MemSystem::new(with, one_stream(&with, 21), Box::new(NoMitigation::new()))
            .run_checked()
            .expect("healthy run must not trip the watchdog");
        assert_eq!(r_off, r_on);
    }

    #[test]
    fn watchdog_window_must_fit_below_max_cycles() {
        let mut cfg = SystemConfig::tiny();
        cfg.watchdog_window = cfg.max_cycles;
        assert!(matches!(
            cfg.validate(),
            Err(SimError::InvalidConfig {
                what: "watchdog_window",
                ..
            })
        ));
    }
}

//! Per-channel device state: the [`ChannelLane`].
//!
//! DRAM channels share no timing state — the data bus, CAS spacing, write
//! turnaround, and every bank/rank constraint are all scoped to one channel.
//! [`ChannelLane`] packages exactly that slice of
//! [`DramDevice`](crate::device::DramDevice) state so the simulator's
//! per-channel scheduler slice can own its lane for a run and step it
//! independently of the other channels. The device's bookkeeping (stats,
//! history, trace) stays behind on the coordinator, which records commands
//! in the canonical merge order.
//!
//! Lane methods accept *global* bank ids and flat rank indices and rebase
//! internally; debug builds assert the argument actually belongs to the
//! lane, so cross-channel leaks surface as panics.

use crate::bank::{BankPhase, BankState};
use crate::command::DramCommand;
use crate::device::IssueResult;
use crate::geometry::{BankId, DramGeometry, RowId};
use crate::rank::RankState;
use crate::timing::TimingParams;
use shadow_sim::time::Cycle;

/// The device-timing state of one DRAM channel.
#[derive(Debug, Clone)]
pub struct ChannelLane {
    channel: u32,
    /// Global id of this channel's first bank (channels own contiguous
    /// bank and rank ranges under the channel-major flattening).
    bank_base: u32,
    rank_base: u32,
    banks: Vec<BankState>,
    ranks: Vec<RankState>,
    /// Cycle at which the channel data bus frees.
    bus_free: Cycle,
    /// Per-local-rank earliest RD after the last WR (write-to-read
    /// turnaround).
    wtr_ready: Vec<Cycle>,
    /// Last CAS of any bank group on this channel (tCCD_S spacing).
    last_cas_any: Option<Cycle>,
    /// Per-bank-group last CAS (tCCD_L applies between consecutive CAS *to
    /// the same group*, not only adjacent commands).
    last_cas_group: Vec<Option<Cycle>>,
    banks_per_rank: u32,
    banks_per_group: u32,
    rows_per_bank: u32,
}

impl ChannelLane {
    /// Builds the lane for `channel` of a `geo`-shaped system.
    pub fn new(channel: u32, geo: &DramGeometry, tp: &TimingParams) -> Self {
        let bpr = geo.banks_per_rank();
        let ranks = geo.ranks_per_channel;
        ChannelLane {
            channel,
            bank_base: channel * ranks * bpr,
            rank_base: channel * ranks,
            banks: vec![BankState::new(); (ranks * bpr) as usize],
            ranks: (0..ranks).map(|_| RankState::new(tp)).collect(),
            bus_free: 0,
            wtr_ready: vec![0; ranks as usize],
            last_cas_any: None,
            last_cas_group: vec![None; geo.bank_groups as usize],
            banks_per_rank: bpr,
            banks_per_group: geo.banks_per_group,
            rows_per_bank: geo.rows_per_bank(),
        }
    }

    /// The channel this lane models.
    pub fn channel(&self) -> u32 {
        self.channel
    }

    #[inline]
    fn lb(&self, bank: BankId) -> usize {
        debug_assert!(
            bank.0 >= self.bank_base && bank.0 < self.bank_base + self.banks.len() as u32,
            "bank {bank} not on channel {}",
            self.channel
        );
        (bank.0 - self.bank_base) as usize
    }

    #[inline]
    fn lr(&self, rank: u32) -> usize {
        debug_assert!(
            rank >= self.rank_base && rank < self.rank_base + self.ranks.len() as u32,
            "rank {rank} not on channel {}",
            self.channel
        );
        (rank - self.rank_base) as usize
    }

    #[inline]
    fn group_of(&self, local_bank: usize) -> u32 {
        (local_bank as u32 % self.banks_per_rank) / self.banks_per_group
    }

    #[inline]
    fn rank_of(&self, local_bank: usize) -> usize {
        local_bank / self.banks_per_rank as usize
    }

    /// The row currently open in `bank`, if any.
    pub fn open_row(&self, bank: BankId) -> Option<RowId> {
        self.banks[self.lb(bank)].open_row()
    }

    /// Lifetime ACT count of `bank`.
    pub fn act_count(&self, bank: BankId) -> u64 {
        self.banks[self.lb(bank)].act_count()
    }

    /// Earliest cycle ≥ `now` at which `ACT bank` is legal.
    pub fn earliest_act(&self, bank: BankId, now: Cycle, tp: &TimingParams) -> Cycle {
        let lb = self.lb(bank);
        let b = &self.banks[lb];
        let r = &self.ranks[self.rank_of(lb)];
        now.max(b.earliest_act())
            .max(r.earliest_act(self.group_of(lb), tp))
    }

    /// Earliest cycle ≥ `now` at which `PRE bank` is legal.
    pub fn earliest_pre(&self, bank: BankId, now: Cycle) -> Cycle {
        now.max(self.banks[self.lb(bank)].earliest_pre())
    }

    /// Channel-level CAS spacing: tCCD_S after any CAS, tCCD_L after the
    /// last CAS to the same bank group (which need not be the most recent
    /// command — an A-B-A group pattern still owes tCCD_L between the As).
    fn ccd_ready(&self, bank_group: u32, tp: &TimingParams) -> Cycle {
        let short = self.last_cas_any.map_or(0, |t| t + tp.t_ccd_s);
        let long = self.last_cas_group[bank_group as usize].map_or(0, |t| t + tp.t_ccd_l);
        short.max(long)
    }

    fn note_cas(&mut self, bank_group: u32, t: Cycle) {
        self.last_cas_any = Some(t);
        self.last_cas_group[bank_group as usize] = Some(t);
    }

    /// Earliest cycle ≥ `now` at which `RD bank` is legal (bank CAS timing,
    /// channel data-bus availability, and the rank's write-to-read
    /// turnaround).
    pub fn earliest_rd(&self, bank: BankId, now: Cycle, tp: &TimingParams) -> Cycle {
        let lb = self.lb(bank);
        let b = &self.banks[lb];
        let cas = now
            .max(b.earliest_cas())
            .max(self.wtr_ready[self.rank_of(lb)])
            .max(self.ccd_ready(self.group_of(lb), tp));
        // Data burst [t+CL, t+CL+BL) must start after the bus frees.
        let bus = self.bus_free.saturating_sub(tp.t_cl);
        cas.max(bus)
    }

    /// Earliest cycle ≥ `now` at which `WR bank` is legal.
    pub fn earliest_wr(&self, bank: BankId, now: Cycle, tp: &TimingParams) -> Cycle {
        let lb = self.lb(bank);
        let b = &self.banks[lb];
        let cas = now
            .max(b.earliest_cas())
            .max(self.ccd_ready(self.group_of(lb), tp));
        let bus = self.bus_free.saturating_sub(tp.t_cwl);
        cas.max(bus)
    }

    /// The exact cycle `rank`'s next refresh becomes due:
    /// `refresh_due(rank, now)` is precisely `now >= refresh_deadline(rank)`.
    pub fn refresh_deadline(&self, rank: u32) -> Cycle {
        self.ranks[self.lr(rank)].next_refi()
    }

    /// Earliest cycle ≥ `now` at which a REF to `rank` may start (requires
    /// all banks of the rank precharged and past their ACT-ready times).
    pub fn earliest_ref(&self, rank: u32, now: Cycle) -> Cycle {
        let lr = self.lr(rank);
        let base = lr * self.banks_per_rank as usize;
        let mut t = now;
        for b in 0..self.banks_per_rank as usize {
            let bank = &self.banks[base + b];
            debug_assert_eq!(
                bank.phase(),
                BankPhase::Idle,
                "REF requires precharged banks"
            );
            t = t.max(bank.earliest_act());
        }
        t
    }

    /// Whether an auto-refresh is due on `rank` at `now`.
    pub fn refresh_due(&self, rank: u32, now: Cycle) -> bool {
        self.ranks[self.lr(rank)].refresh_due(now)
    }

    /// Whether `rank`'s refresh debt has hit the JEDEC postponement limit.
    pub fn refresh_urgent(&self, rank: u32, now: Cycle, tp: &TimingParams) -> bool {
        self.ranks[self.lr(rank)].must_refresh(now, tp)
    }

    /// Rows covered by one REF in each bank of a rank.
    pub fn rows_per_ref(&self, rank: u32, tp: &TimingParams) -> u32 {
        self.ranks[self.lr(rank)].rows_per_ref(self.rows_per_bank, tp)
    }

    /// The sequential refresh pointer of `rank` (row block refreshed by the
    /// *next* REF).
    pub fn refresh_row_ptr(&self, rank: u32) -> u32 {
        self.ranks[self.lr(rank)].refresh_row_ptr()
    }

    /// Total REF commands issued to `rank`.
    pub fn ref_count(&self, rank: u32) -> u64 {
        self.ranks[self.lr(rank)].ref_count()
    }

    /// Applies `cmd`'s state transition at cycle `t`.
    ///
    /// This is the mutation half of [`crate::device::DramDevice::issue`];
    /// the bookkeeping half (stats/history/trace) is recorded separately so
    /// the coordinator can keep one canonically ordered stream.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) on any timing or state violation.
    pub fn apply(&mut self, cmd: DramCommand, t: Cycle, tp: &TimingParams) -> IssueResult {
        match cmd {
            DramCommand::Act { bank, row } => {
                debug_assert!(row < self.rows_per_bank, "row out of range");
                debug_assert!(t >= self.earliest_act(bank, t, tp));
                let lb = self.lb(bank);
                let group = self.group_of(lb);
                let rank = self.rank_of(lb);
                self.banks[lb].on_act(t, row, tp);
                self.ranks[rank].on_act(t, group, tp);
                IssueResult::default()
            }
            DramCommand::Pre { bank } => {
                let lb = self.lb(bank);
                self.banks[lb].on_pre(t, tp);
                IssueResult::default()
            }
            DramCommand::Rd { bank } => {
                let lb = self.lb(bank);
                let done = self.banks[lb].on_rd(t, tp);
                self.bus_free = done;
                self.note_cas(self.group_of(lb), t);
                IssueResult {
                    done_at: Some(done),
                }
            }
            DramCommand::Wr { bank } => {
                let lb = self.lb(bank);
                let rank = self.rank_of(lb);
                let done = self.banks[lb].on_wr(t, tp);
                let data_end = t + tp.t_cwl + tp.t_bl;
                self.bus_free = data_end;
                self.note_cas(self.group_of(lb), t);
                // Write-to-read turnaround: internal write completion must
                // precede the next rank-internal read (tWTR_L conservative).
                self.wtr_ready[rank] = self.wtr_ready[rank].max(data_end + tp.t_wtr_l);
                IssueResult {
                    done_at: Some(done),
                }
            }
            DramCommand::Ref { rank } => {
                let lr = self.lr(rank);
                let (done, _ptr) = self.ranks[lr].on_refresh(t, self.rows_per_bank, tp);
                let base = lr * self.banks_per_rank as usize;
                for b in 0..self.banks_per_rank as usize {
                    self.banks[base + b].block_until(done);
                }
                IssueResult {
                    done_at: Some(done),
                }
            }
            DramCommand::Rfm { bank } => {
                let done = t + tp.t_rfm;
                let lb = self.lb(bank);
                self.banks[lb].block_until(done);
                IssueResult {
                    done_at: Some(done),
                }
            }
            DramCommand::Rfmab { rank } => {
                // ABO recovery, rank scope: like REF, all banks must be
                // precharged and the whole rank blocks for tRFM — but no
                // tREFI bookkeeping moves (recovery is extra work, not a
                // scheduled refresh).
                let done = t + tp.t_rfm;
                let lr = self.lr(rank);
                let base = lr * self.banks_per_rank as usize;
                for b in 0..self.banks_per_rank as usize {
                    debug_assert_eq!(
                        self.banks[base + b].phase(),
                        BankPhase::Idle,
                        "RFMAB requires precharged banks"
                    );
                    self.banks[base + b].block_until(done);
                }
                self.ranks[lr].block_until(done);
                IssueResult {
                    done_at: Some(done),
                }
            }
            DramCommand::Rfmsb { bank } => {
                // ABO recovery, bank scope: only the alerting bank blocks
                // (PRACtical's recovery isolation).
                let done = t + tp.t_rfm;
                let lb = self.lb(bank);
                debug_assert_eq!(
                    self.banks[lb].phase(),
                    BankPhase::Idle,
                    "RFMSB requires a precharged bank"
                );
                self.banks[lb].block_until(done);
                IssueResult {
                    done_at: Some(done),
                }
            }
        }
    }
}

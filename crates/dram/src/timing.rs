//! JEDEC timing parameter sets.
//!
//! All values are stored in clock cycles (`tCK` units) together with the
//! clock itself, so the device state machines work in integer cycles while
//! presets are derived from datasheet nanoseconds.
//!
//! The two presets mirror the paper's platforms:
//!
//! * [`TimingParams::ddr4_2666`] — Table IV: 19-19-19 (tCL-tRCD-tRP),
//!   tRFC = 467 tCK, tREFI = 10400 tCK, tCK = 0.75 ns.
//! * [`TimingParams::ddr5_4800`] — the §VII architectural-simulation
//!   configuration (tCK ≈ 0.417 ns) with the DDR5 RFM interface.

use shadow_sim::time::{ClockSpec, Cycle};

/// A complete DRAM timing parameter set, in cycles of [`TimingParams::clock`].
///
/// Passive configuration data: fields are public. Use
/// [`validate`](TimingParams::validate) after hand-editing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingParams {
    /// The command clock.
    pub clock: ClockSpec,
    /// CAS latency (RD command to first data).
    pub t_cl: Cycle,
    /// ACT to RD/WR delay.
    pub t_rcd: Cycle,
    /// Additional ACT-to-RD/WR delay imposed by a mitigation (SHADOW's
    /// remapping-row fetch, `tRD_RM`); zero for an unmodified device.
    pub t_rcd_extra: Cycle,
    /// PRE to ACT delay (precharge time).
    pub t_rp: Cycle,
    /// ACT to PRE minimum (row restoration).
    pub t_ras: Cycle,
    /// ACT to ACT, same bank (`tRAS + tRP`).
    pub t_rc: Cycle,
    /// RD to RD, same bank group.
    pub t_ccd_l: Cycle,
    /// RD to RD, different bank group.
    pub t_ccd_s: Cycle,
    /// ACT to ACT, different bank, same bank group.
    pub t_rrd_l: Cycle,
    /// ACT to ACT, different bank group.
    pub t_rrd_s: Cycle,
    /// Four-activate window.
    pub t_faw: Cycle,
    /// Write recovery (end of write data to PRE).
    pub t_wr: Cycle,
    /// RD to PRE.
    pub t_rtp: Cycle,
    /// CAS write latency.
    pub t_cwl: Cycle,
    /// Burst length on the data bus, in clocks.
    pub t_bl: Cycle,
    /// Write-to-read turnaround, same bank group.
    pub t_wtr_l: Cycle,
    /// Write-to-read turnaround, different bank group.
    pub t_wtr_s: Cycle,
    /// Refresh cycle time (REF blocks the rank this long).
    pub t_rfc: Cycle,
    /// Average refresh interval (one REF per tREFI per rank).
    pub t_refi: Cycle,
    /// Refresh window: every row refreshed once per tREFW.
    pub t_refw: Cycle,
    /// RFM command duration (bank busy time granted for mitigation).
    pub t_rfm: Cycle,
}

impl TimingParams {
    /// DDR4-2666 (paper Table IV; tCK = 0.75 ns).
    pub fn ddr4_2666() -> Self {
        let clock = ClockSpec::from_period_ps(750);
        let p = TimingParams {
            clock,
            t_cl: 19,
            t_rcd: 19,
            t_rcd_extra: 0,
            t_rp: 19,
            t_ras: clock.ns_to_cycles(32.0), // 43
            t_rc: clock.ns_to_cycles(32.0) + 19,
            t_ccd_l: 7,
            t_ccd_s: 4,
            t_rrd_l: 7,
            t_rrd_s: 4,
            t_faw: clock.ns_to_cycles(21.0), // 28
            t_wr: clock.ns_to_cycles(15.0),  // 20
            t_rtp: clock.ns_to_cycles(7.5),  // 10
            t_cwl: 14,
            t_bl: 4, // BL8 at double data rate
            t_wtr_l: clock.ns_to_cycles(7.5),
            t_wtr_s: clock.ns_to_cycles(2.5),
            t_rfc: 467,                         // Table IV
            t_refi: 10400,                      // Table IV
            t_refw: clock.ns_to_cycles(64.0e6), // 64 ms
            // DDR4 has no native RFM; grant the DDR5-spec tRFM (195 ns) on
            // this clock — comfortably covering SHADOW's 178 ns shuffle.
            t_rfm: clock.ns_to_cycles(195.0),
        };
        debug_assert!(p.validate().is_ok());
        p
    }

    /// DDR5-4800 (architectural simulations; tCK ≈ 0.417 ns).
    pub fn ddr5_4800() -> Self {
        let clock = ClockSpec::from_freq_mhz(2400.0);
        let p = TimingParams {
            clock,
            t_cl: 40,
            t_rcd: 40,
            t_rcd_extra: 0,
            t_rp: 40,
            t_ras: clock.ns_to_cycles(32.0), // 77
            t_rc: clock.ns_to_cycles(32.0) + 40,
            t_ccd_l: 12,
            t_ccd_s: 8,
            t_rrd_l: 12,
            t_rrd_s: 8,
            t_faw: clock.ns_to_cycles(13.333), // 32
            t_wr: clock.ns_to_cycles(30.0),
            t_rtp: clock.ns_to_cycles(7.5),
            t_cwl: 38,
            t_bl: 8, // BL16
            t_wtr_l: clock.ns_to_cycles(10.0),
            t_wtr_s: clock.ns_to_cycles(2.5),
            t_rfc: clock.ns_to_cycles(295.0),
            t_refi: clock.ns_to_cycles(3900.0),
            t_refw: clock.ns_to_cycles(32.0e6), // 32 ms
            t_rfm: clock.ns_to_cycles(195.0),
        };
        debug_assert!(p.validate().is_ok());
        p
    }

    /// LPDDR5-6400 (the mobile RFM-capable generation the paper cites via
    /// the LPDDR5 standard, reference 34; tCK here is the 800 MHz command clock of
    /// a 16n-prefetch part).
    pub fn lpddr5_6400() -> Self {
        let clock = ClockSpec::from_freq_mhz(800.0);
        let p = TimingParams {
            clock,
            t_cl: clock.ns_to_cycles(18.0),
            t_rcd: clock.ns_to_cycles(18.0),
            t_rcd_extra: 0,
            t_rp: clock.ns_to_cycles(18.0),
            t_ras: clock.ns_to_cycles(42.0),
            // Summed in cycles so per-term ceiling cannot undercut tRAS+tRP.
            t_rc: clock.ns_to_cycles(42.0) + clock.ns_to_cycles(18.0),
            t_ccd_l: 4,
            t_ccd_s: 2,
            t_rrd_l: clock.ns_to_cycles(10.0),
            t_rrd_s: clock.ns_to_cycles(5.0),
            t_faw: clock.ns_to_cycles(30.0),
            t_wr: clock.ns_to_cycles(34.0),
            t_rtp: clock.ns_to_cycles(7.5),
            t_cwl: clock.ns_to_cycles(11.0),
            t_bl: 8,
            t_wtr_l: clock.ns_to_cycles(12.0),
            t_wtr_s: clock.ns_to_cycles(6.0),
            t_rfc: clock.ns_to_cycles(280.0),
            t_refi: clock.ns_to_cycles(3904.0),
            t_refw: clock.ns_to_cycles(32.0e6),
            t_rfm: clock.ns_to_cycles(210.0),
        };
        debug_assert!(p.validate().is_ok());
        p
    }

    /// A fast, small parameter set for unit tests (few-cycle constraints).
    pub fn tiny() -> Self {
        TimingParams {
            clock: ClockSpec::from_period_ps(1000),
            t_cl: 3,
            t_rcd: 3,
            t_rcd_extra: 0,
            t_rp: 3,
            t_ras: 6,
            t_rc: 9,
            t_ccd_l: 2,
            t_ccd_s: 1,
            t_rrd_l: 2,
            t_rrd_s: 1,
            t_faw: 8,
            t_wr: 3,
            t_rtp: 2,
            t_cwl: 2,
            t_bl: 2,
            t_wtr_l: 2,
            t_wtr_s: 1,
            t_rfc: 20,
            t_refi: 1000,
            t_refw: 3200,
            t_rfm: 15,
        }
    }

    /// Effective ACT→RD/WR latency including any mitigation extension.
    pub fn t_rcd_effective(&self) -> Cycle {
        self.t_rcd + self.t_rcd_extra
    }

    /// Checks internal consistency of the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated relation.
    pub fn validate(&self) -> Result<(), String> {
        match self.t_ras.checked_add(self.t_rp) {
            Some(ras_rp) if self.t_rc >= ras_rp => {}
            Some(ras_rp) => {
                return Err(format!(
                    "tRC ({}) must cover tRAS + tRP ({ras_rp})",
                    self.t_rc
                ))
            }
            None => return Err("tRAS + tRP overflows the cycle counter".into()),
        }
        if self.t_ras < self.t_rcd {
            return Err("tRAS must be at least tRCD".into());
        }
        if self.t_ccd_l < self.t_ccd_s || self.t_rrd_l < self.t_rrd_s {
            return Err("long (same-bank-group) constraints must dominate short ones".into());
        }
        if self.t_faw < self.t_rrd_s {
            return Err("tFAW must be at least tRRD_S".into());
        }
        if self.t_refi <= self.t_rfc {
            return Err("tREFI must exceed tRFC or refresh starves the rank".into());
        }
        if self.t_refw < self.t_refi {
            return Err("tREFW must cover at least one tREFI".into());
        }
        Ok(())
    }

    /// Number of REF commands per refresh window (8192 for standard DDR4).
    pub fn refs_per_window(&self) -> u64 {
        self.t_refw / self.t_refi
    }

    /// Converts a cycle count on this clock to nanoseconds.
    pub fn cycles_to_ns(&self, c: Cycle) -> f64 {
        self.clock.cycles_to_ns(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr4_matches_table_iv() {
        let t = TimingParams::ddr4_2666();
        assert_eq!(t.t_cl, 19);
        assert_eq!(t.t_rcd, 19);
        assert_eq!(t.t_rp, 19);
        assert_eq!(t.t_rfc, 467);
        assert_eq!(t.t_refi, 10400);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn ddr4_refresh_window_has_8k_refs() {
        let t = TimingParams::ddr4_2666();
        // 64 ms / 7.8 us ≈ 8205 ≈ the canonical 8192 REF slots.
        let refs = t.refs_per_window();
        assert!((8000..8400).contains(&refs), "refs per window = {refs}");
    }

    #[test]
    fn ddr5_valid_and_faster_clock() {
        let t = TimingParams::ddr5_4800();
        assert!(t.validate().is_ok());
        assert!(t.clock.period_ps() < TimingParams::ddr4_2666().clock.period_ps());
    }

    #[test]
    fn tiny_valid() {
        assert!(TimingParams::tiny().validate().is_ok());
    }

    #[test]
    fn lpddr5_valid_and_slow_clock() {
        let t = TimingParams::lpddr5_6400();
        assert!(t.validate().is_ok());
        // LPDDR5's command clock is slower than DDR5's despite the higher
        // data rate (16n prefetch).
        assert!(t.clock.period_ps() > TimingParams::ddr5_4800().clock.period_ps());
    }

    #[test]
    fn rcd_effective_includes_extra() {
        let mut t = TimingParams::ddr4_2666();
        assert_eq!(t.t_rcd_effective(), 19);
        t.t_rcd_extra = 6; // SHADOW's tRD_RM at DDR4-2666 ≈ 4 ns ≈ 6 tCK
        assert_eq!(t.t_rcd_effective(), 25); // the paper's tRCD' = 25 tCK
    }

    #[test]
    fn validate_catches_bad_trc() {
        let mut t = TimingParams::tiny();
        t.t_rc = 1;
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_catches_refresh_starvation() {
        let mut t = TimingParams::tiny();
        t.t_refi = t.t_rfc;
        assert!(t.validate().is_err());
    }

    #[test]
    fn cycles_to_ns_uses_clock() {
        let t = TimingParams::ddr4_2666();
        assert!((t.cycles_to_ns(19) - 14.25).abs() < 1e-9);
    }
}

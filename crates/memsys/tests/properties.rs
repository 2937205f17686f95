//! Randomized property tests on the full memory system: for arbitrary
//! small workloads and knob settings, runs complete and their reports obey
//! the protocol invariants.
//!
//! Inputs come from the workspace's deterministic `Xoshiro256` generator
//! (fixed seeds), so every failure is reproducible without an external
//! property-testing framework.

use shadow_core::bank::ShadowConfig;
use shadow_core::timing::ShadowTiming;
use shadow_memsys::{Engine, MemSystem, PagePolicy, SystemConfig};
use shadow_mitigations::{Mitigation, NoMitigation, Prac, Rrs, ShadowMitigation};
use shadow_rh::RhParams;
use shadow_sim::rng::Xoshiro256;
use shadow_workloads::{AppProfile, ProfileStream, RandomStream, RequestStream};

fn build_streams(kinds: &[u8], seed: u64) -> Vec<Box<dyn RequestStream>> {
    kinds
        .iter()
        .enumerate()
        .map(|(i, &k)| -> Box<dyn RequestStream> {
            let s = seed.wrapping_add(i as u64);
            match k % 3 {
                0 => Box::new(RandomStream::new(1 << 20, s)),
                1 => Box::new(ProfileStream::new(AppProfile::spec_high()[0], 1 << 20, s)),
                _ => Box::new(ProfileStream::new(AppProfile::spec_low()[2], 1 << 20, s)),
            }
        })
        .collect()
}

/// Any small workload mix under any knob combination completes and the
/// report is self-consistent.
#[test]
fn runs_complete_with_consistent_reports() {
    let mut gen = Xoshiro256::seed_from_u64(0x3E35_0001);
    for _ in 0..16 {
        let n_kinds = 1 + gen.gen_index(3);
        let kinds: Vec<u8> = (0..n_kinds).map(|_| gen.next_u32() as u8).collect();
        let closed_page = gen.gen_bool(0.5);
        let posted = gen.gen_bool(0.5);
        let mlp = 1 + gen.gen_index(7);
        let seed = gen.next_u64();

        let mut cfg = SystemConfig::tiny();
        cfg.target_requests = 800;
        // Compute-bound profiles (gaps in the thousands of cycles) need far
        // more wall-clock than tiny's default 2M-cycle cap.
        cfg.max_cycles = 50_000_000;
        cfg.mlp = mlp;
        cfg.rh = RhParams::new(1_000_000, 2); // benign threshold
        cfg.page_policy = if closed_page {
            PagePolicy::Closed
        } else {
            PagePolicy::Open
        };
        cfg.posted_writes = posted;
        let report = MemSystem::new(
            cfg,
            build_streams(&kinds, seed),
            Box::new(NoMitigation::new()),
        )
        .run();

        assert!(report.total_completed() >= cfg.target_requests);
        assert!(report.cycles <= cfg.max_cycles);
        // Protocol invariants.
        let acts = report.commands.get("ACT");
        let pres = report.commands.get("PRE");
        let cas = report.commands.get("RD") + report.commands.get("WR");
        assert!(pres <= acts, "PRE {pres} > ACT {acts}");
        // Re-activations happen only when an urgent refresh drain closes a
        // row under a waiting request, so ACTs exceed column accesses by at
        // most the refresh activity.
        let refs = report.commands.get("REF");
        assert!(
            acts <= cas + 8 * (refs + 1),
            "ACT {acts} far above CAS {cas} (REF {refs})"
        );
        // Posted writes can complete before their CAS drains, so the bound
        // only holds for synchronous writes.
        if !posted {
            assert!(cas >= report.total_completed(), "CAS below completions");
        }
        // Latency is at least the CAS-to-data minimum.
        assert!(report.latency.mean() >= (cfg.timing.t_cl + cfg.timing.t_bl) as f64);
        // No flips at a benign threshold.
        assert_eq!(report.total_flips(), 0);
    }
}

/// The two scheduling engines (the fast event calendar and the full-scan
/// reference) produce bit-identical reports on randomized workloads and
/// knob settings. This is the system-level face of the calendar's
/// lazy-invalidation contract: stale heap entries discarded on pop and
/// seq-counter invalidation must never change what the scheduler issues,
/// only how much work it does to decide. Case count honors
/// `PROPTEST_CASES` like the rest of the workspace's randomized suites.
#[test]
fn scheduling_engines_agree_on_random_workloads() {
    let cases: u64 = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6);
    let mut gen = Xoshiro256::seed_from_u64(0x3E35_0003);
    for _ in 0..cases {
        let n_kinds = 1 + gen.gen_index(3);
        let kinds: Vec<u8> = (0..n_kinds).map(|_| gen.next_u32() as u8).collect();
        let seed = gen.next_u64();
        let mut cfg = SystemConfig::tiny();
        cfg.target_requests = 600;
        cfg.max_cycles = 50_000_000;
        cfg.mlp = 1 + gen.gen_index(7);
        cfg.rh = RhParams::new(1_000_000, 2);
        cfg.page_policy = if gen.gen_bool(0.5) {
            PagePolicy::Closed
        } else {
            PagePolicy::Open
        };
        cfg.posted_writes = gen.gen_bool(0.5);
        // RFM recovery in the mix: a small RAAIMT makes the counters trip.
        cfg.raaimt_override = Some(4 + gen.gen_index(28) as u32);

        let fast = MemSystem::new(
            cfg,
            build_streams(&kinds, seed),
            Box::new(NoMitigation::new()),
        )
        .run();
        let mut reference_cfg = cfg;
        reference_cfg.engine = Engine::Reference;
        let reference = MemSystem::new(
            reference_cfg,
            build_streams(&kinds, seed),
            Box::new(NoMitigation::new()),
        )
        .run();
        assert_eq!(
            fast, reference,
            "fast vs reference, kinds {kinds:?} seed {seed:#x}"
        );
    }
}

/// Remap-churn FR-FCFS equivalence: for random workloads under the two
/// remap-heavy schemes — SHADOW (RFM-triggered intra-subarray shuffles)
/// and RRS (channel-blocking row swaps), both of which bump the remap
/// epoch while requests sit queued — the fast engine (event calendar,
/// per-request translation cache) must select the *identical* request the
/// reference engine (full scan, a translation per lookup) selects, at
/// every single decision. Random streams, MLP windows, page policies, and
/// posted-write settings generate arbitrary enqueue/dequeue interleavings;
/// aggressive RAAIMT (SHADOW) and swap thresholds (RRS) make the epoch
/// bumps land mid-queue, exactly where a stale cached translation would
/// steer the hit walk to the wrong request. Reports *and* command traces
/// must be bit-identical. Case count honors `PROPTEST_CASES`.
#[test]
fn remap_churn_frfcfs_fast_equals_reference() {
    let cases: u64 = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6);
    let mut gen = Xoshiro256::seed_from_u64(0x3E35_0004);
    for case in 0..cases {
        let n_kinds = 1 + gen.gen_index(3);
        let kinds: Vec<u8> = (0..n_kinds).map(|_| gen.next_u32() as u8).collect();
        let seed = gen.next_u64();
        let scheme_seed = gen.next_u64();
        let use_shadow = case % 2 == 0;

        let mut cfg = SystemConfig::tiny();
        cfg.target_requests = 600;
        cfg.max_cycles = 50_000_000;
        cfg.mlp = 1 + gen.gen_index(7);
        // Low enough that RRS actually swaps rows mid-run.
        cfg.rh = RhParams::new(64 + gen.gen_index(192) as u64, 2);
        cfg.page_policy = if gen.gen_bool(0.5) {
            PagePolicy::Closed
        } else {
            PagePolicy::Open
        };
        cfg.posted_writes = gen.gen_bool(0.5);
        // Small RAAIMT: SHADOW shuffles fire constantly, so remap epochs
        // advance under queued requests.
        cfg.raaimt_override = Some(4 + gen.gen_index(12) as u32);
        cfg.trace_depth = 1 << 20;

        let mitigation = |cfg: &SystemConfig| -> Box<dyn Mitigation> {
            let banks = cfg.geometry.total_banks() as usize;
            if use_shadow {
                Box::new(ShadowMitigation::new(
                    banks,
                    ShadowConfig {
                        subarrays: cfg.geometry.subarrays_per_bank,
                        rows_per_subarray: cfg.geometry.rows_per_subarray,
                    },
                    cfg.raaimt_override.expect("set above"),
                    &cfg.timing,
                    &ShadowTiming::paper_default(),
                    scheme_seed,
                ))
            } else {
                Box::new(Rrs::new(
                    banks,
                    cfg.geometry.rows_per_bank(),
                    cfg.rh,
                    scheme_seed,
                ))
            }
        };
        let run_variant = |engine: Engine| {
            let mut c = cfg;
            c.engine = engine;
            let mut sys = MemSystem::new(c, build_streams(&kinds, seed), mitigation(&c));
            let report = sys.run();
            let trace = sys.take_trace().expect("tracing enabled");
            (report, trace)
        };
        let (fast, fast_trace) = run_variant(Engine::Fast);
        let (reference, reference_trace) = run_variant(Engine::Reference);
        assert!(fast.total_completed() >= cfg.target_requests);
        assert_eq!(
            fast, reference,
            "report: fast vs reference under remap churn, shadow={use_shadow} kinds {kinds:?} seed {seed:#x}"
        );
        assert_eq!(
            fast_trace, reference_trace,
            "trace: fast vs reference under remap churn, shadow={use_shadow} kinds {kinds:?} seed {seed:#x}"
        );
    }
}

/// Determinism holds across knob combinations.
#[test]
fn deterministic_under_any_knobs() {
    let mut gen = Xoshiro256::seed_from_u64(0x3E35_0002);
    for case in 0..8 {
        let closed_page = case & 1 != 0;
        let posted = case & 2 != 0;
        let seed = gen.next_u64();
        let mut cfg = SystemConfig::tiny();
        cfg.target_requests = 500;
        cfg.rh = RhParams::new(1_000_000, 2);
        cfg.page_policy = if closed_page {
            PagePolicy::Closed
        } else {
            PagePolicy::Open
        };
        cfg.posted_writes = posted;
        let a = MemSystem::new(
            cfg,
            build_streams(&[0, 1], seed),
            Box::new(NoMitigation::new()),
        )
        .run();
        let b = MemSystem::new(
            cfg,
            build_streams(&[0, 1], seed),
            Box::new(NoMitigation::new()),
        )
        .run();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.completed, b.completed);
    }
}

/// Deterministic replay of conformance fuzz cell 56 (`gen_case(0xC0DE_0038)`,
/// the PR6 calendar legacy-cadence fallback case): RRS under a Closed page
/// policy on two single-rank channels. RRS consults the mitigation on every
/// closed-bank activation, so channel shards keep reporting `!skip_ok` and
/// the coordinator must fall back to the legacy crawl cadence (the min of
/// the per-shard conservative bounds) instead of the exact refresh wake.
/// The case is checked in by value — geometry, timing, streams, and the
/// RRS recipe all pinned — so it survives any future reshuffle of the
/// fuzzer's scheme table or seed mapping. The property is the one the
/// fuzzer asserted: the fast engine and the reference engine stay
/// bit-identical in both report and command trace.
#[test]
fn regression_fuzz_cell56_rrs_closed_calendar_fallback() {
    let mut cfg = SystemConfig::tiny();
    cfg.geometry.channels = 2;
    cfg.geometry.ranks_per_channel = 1;
    cfg.geometry.bank_groups = 2;
    cfg.geometry.banks_per_group = 2;
    cfg.geometry.subarrays_per_bank = 4;
    cfg.geometry.rows_per_subarray = 8;
    cfg.geometry.columns = 8;
    cfg.geometry.column_bytes = 64;
    cfg.timing.t_cl = 3;
    cfg.timing.t_rcd = 2;
    cfg.timing.t_rp = 3;
    cfg.timing.t_ras = 5;
    cfg.timing.t_rc = 8;
    cfg.timing.t_ccd_l = 3;
    cfg.timing.t_ccd_s = 2;
    cfg.timing.t_rrd_l = 3;
    cfg.timing.t_rrd_s = 1;
    cfg.timing.t_faw = 8;
    cfg.timing.t_wr = 3;
    cfg.timing.t_rtp = 2;
    cfg.timing.t_cwl = 2;
    cfg.timing.t_bl = 2;
    cfg.timing.t_wtr_l = 2;
    cfg.timing.t_wtr_s = 2;
    cfg.timing.t_rfc = 36;
    cfg.timing.t_refi = 1264;
    cfg.timing.t_refw = 12640;
    cfg.timing.t_rfm = 7;
    cfg.timing.validate().expect("cell 56 timing");
    cfg.rh = RhParams::new(236, 2);
    cfg.mlp = 3;
    cfg.target_requests = 726;
    cfg.max_cycles = 3_000_000;
    cfg.raaimt_override = Some(28);
    cfg.page_policy = PagePolicy::Closed;
    cfg.posted_writes = true;
    cfg.trace_depth = 1 << 20;

    // The conformance harness's RRS recipe: seed 0x5A5A, threshold scaled
    // by its 1/16 window slice and floored at 64.
    let rrs = |cfg: &SystemConfig| -> Box<dyn Mitigation> {
        Box::new(Rrs::new(
            cfg.geometry.total_banks() as usize,
            cfg.geometry.rows_per_bank(),
            RhParams::new(
                ((cfg.rh.h_cnt as f64 / 16.0) as u64).max(64),
                cfg.rh.blast_radius,
            ),
            0x5A5A,
        ))
    };
    // Cell 56's stream recipe: one random core, two SPEC-profile cores.
    let streams = |cfg: &SystemConfig| -> Vec<Box<dyn RequestStream>> {
        let cap = cfg.capacity_bytes().max(1 << 20);
        [
            (false, 3752374247615609949u64),
            (true, 61569711267652140u64),
            (true, 3789046954075788811u64),
        ]
        .iter()
        .map(|&(use_profile, seed)| -> Box<dyn RequestStream> {
            if use_profile {
                let profiles = AppProfile::spec_high();
                let p = profiles[(seed % profiles.len() as u64) as usize];
                Box::new(ProfileStream::new(p, cap, seed))
            } else {
                Box::new(RandomStream::new(cap, seed))
            }
        })
        .collect()
    };

    let run_variant = |mutate: &dyn Fn(&mut SystemConfig)| {
        let mut c = cfg;
        mutate(&mut c);
        let mut sys = MemSystem::new(c, streams(&c), rrs(&c));
        let report = sys.run();
        let trace = sys.take_trace().expect("tracing enabled");
        (report, trace)
    };
    let (fast, fast_trace) = run_variant(&|_| {});
    let (reference, reference_trace) = run_variant(&|c| c.engine = Engine::Reference);

    assert!(fast.total_completed() >= cfg.target_requests);
    assert!(
        fast.commands.get("REF") > 0,
        "case no longer exercises refresh"
    );
    assert_eq!(fast, reference, "fast vs reference");
    assert_eq!(fast_trace, reference_trace, "trace: fast vs reference");
}

/// PRAC's Alert Back-Off recovery, end to end: an aggressive threshold on
/// a tiny geometry trips per-row counters, the scheduler arms recovery
/// debt at the ACT-issue point, and the drain issues RFMAB (rank scope,
/// `PRAC`) or RFMSB (bank scope, `PRACtical`) before normal traffic
/// resumes. The recovery path rides the refresh-phase command slot and
/// reads only committed state, so both engines must stay bit-identical
/// in both report and command trace — the same contract the conformance fuzzer enforces,
/// pinned here at memsys level with the scope split asserted explicitly.
#[test]
fn prac_abo_recovery_engines_agree() {
    for practical in [false, true] {
        let mut cfg = SystemConfig::tiny();
        cfg.geometry.channels = 2;
        cfg.target_requests = 2_000;
        cfg.max_cycles = 50_000_000;
        cfg.mlp = 4;
        // threshold_for(16, 1) = 4: random streams over 64 rows per bank
        // cross it constantly.
        cfg.rh = RhParams::new(16, 1);
        cfg.page_policy = PagePolicy::Closed;
        cfg.trace_depth = 1 << 20;

        let prac = |cfg: &SystemConfig| -> Box<dyn Mitigation> {
            let banks = cfg.geometry.total_banks() as usize;
            let rows = cfg.geometry.rows_per_bank();
            let sa = cfg.geometry.rows_per_subarray;
            if practical {
                Box::new(Prac::practical(banks, rows, sa, cfg.rh))
            } else {
                Box::new(Prac::new(banks, rows, sa, cfg.rh))
            }
        };
        let run_variant = |mutate: &dyn Fn(&mut SystemConfig)| {
            let mut c = cfg;
            mutate(&mut c);
            let mut sys = MemSystem::new(c, build_streams(&[0, 0], 0x0AB0_0001), prac(&c));
            let report = sys.run();
            let trace = sys.take_trace().expect("tracing enabled");
            (report, trace)
        };
        let (fast, fast_trace) = run_variant(&|_| {});
        let (reference, reference_trace) = run_variant(&|c| c.engine = Engine::Reference);

        assert!(fast.total_completed() >= cfg.target_requests);
        assert!(fast.abo_events > 0, "threshold never crossed");
        assert!(fast.abo_recovery_cycles > 0, "no recovery tax recorded");
        let (rfmab, rfmsb) = (fast.commands.get("RFMAB"), fast.commands.get("RFMSB"));
        if practical {
            assert!(rfmsb > 0, "PRACtical must recover with RFMSB");
            assert_eq!(rfmab, 0, "bank scope must never widen to the rank");
        } else {
            assert!(rfmab > 0, "PRAC must recover with RFMAB");
            assert_eq!(rfmsb, 0, "rank scope must never narrow to a bank");
        }
        assert_eq!(fast, reference, "fast vs reference");
        assert_eq!(fast_trace, reference_trace, "trace: fast vs reference");
    }
}

/// Deterministic replay of the shrunk case in
/// `properties.proptest-regressions` (`kinds = [29]`, open page,
/// synchronous writes, `mlp = 1`, `seed = 15`): a single sparse
/// compute-bound core, so nearly every DRAM command races a due refresh.
///
/// Root cause of the original failure: the refresh engine issued REF
/// without checking or claiming the per-channel command bus, so a REF to
/// one rank and a demand command to the *other rank of the same channel*
/// could occupy the bus in the same cycle (with a single rank the post-REF
/// bank blocking hides the race, which is why the one-rank invariants
/// above never saw it). The replay runs the shrunk case on two ranks per
/// channel, records the command trace, and pins the bus property
/// directly: per channel, at most one command per cycle.
#[test]
fn regression_kinds29_refresh_shares_no_bus_cycle() {
    let kinds = [29u8];
    let (closed_page, posted, mlp, seed) = (false, false, 1usize, 15u64);

    let mut cfg = SystemConfig::tiny();
    cfg.geometry.ranks_per_channel = 2;
    cfg.target_requests = 800;
    cfg.max_cycles = 50_000_000;
    cfg.mlp = mlp;
    cfg.rh = RhParams::new(1_000_000, 2);
    cfg.page_policy = if closed_page {
        PagePolicy::Closed
    } else {
        PagePolicy::Open
    };
    cfg.posted_writes = posted;
    cfg.trace_depth = 1 << 21;

    let mut sys = MemSystem::new(
        cfg,
        build_streams(&kinds, seed),
        Box::new(NoMitigation::new()),
    );
    let report = sys.run();
    assert!(report.total_completed() >= cfg.target_requests);
    assert!(
        report.commands.get("REF") > 0,
        "case no longer exercises refresh"
    );

    let geo = *sys.device().geometry();
    let trace = sys.take_trace().expect("tracing enabled");
    assert!(!trace.is_empty());
    let mut last_on_channel = vec![None; geo.channels as usize];
    for rec in &trace {
        let ch = match rec.cmd {
            shadow_dram::DramCommand::Ref { rank } => {
                geo.channel_of(shadow_dram::BankId(rank * geo.banks_per_rank()))
            }
            other => geo.channel_of(other.bank().expect("non-REF commands address a bank")),
        } as usize;
        assert_ne!(
            last_on_channel[ch],
            Some(rec.cycle),
            "two commands on channel {ch} at cycle {} ({})",
            rec.cycle,
            rec.cmd
        );
        last_on_channel[ch] = Some(rec.cycle);
    }
}

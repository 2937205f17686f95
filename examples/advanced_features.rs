//! Tour of the reproduction's extension features beyond the paper's core
//! evaluation: sPPR resources (§VIII), trace record/replay, the LPDDR5
//! timing preset, controller page policies and posted writes, the
//! remapping-row bit image, and the Hydra-style group-count table.
//!
//! ```sh
//! cargo run --release --example advanced_features
//! ```

use shadow_repro::core::bank::{ShadowBank, ShadowConfig};
use shadow_repro::core::rowimage;
use shadow_repro::crypto::PrinceRng;
use shadow_repro::dram::sppr::SpprResources;
use shadow_repro::dram::timing::TimingParams;
use shadow_repro::memsys::{MemSystem, PagePolicy, SystemConfig};
use shadow_repro::mitigations::NoMitigation;
use shadow_repro::trackers::GroupCountTable;
use shadow_repro::workloads::{trace, AppProfile, ProfileStream, RequestStream, TraceStream};

fn main() {
    // --- 1. sPPR: the JEDEC runtime row-repair path (§VIII). ---
    println!("== sPPR (soft post-package repair) ==");
    let mut sppr = SpprResources::ddr5(65536);
    let spare = sppr.repair(1234).expect("fresh bank group has spares");
    println!(
        "row 1234 repaired onto spare {spare}; translate(1234) = {}",
        sppr.translate(1234)
    );
    println!("remaining bank-group budget: {} of 4\n", sppr.remaining());

    // --- 2. Trace record / replay. ---
    println!("== trace record/replay ==");
    let mut src = ProfileStream::new(AppProfile::spec_high()[2], 1 << 30, 7);
    let text = trace::record(&mut src, 5_000);
    let replay = TraceStream::from_text("lbm", &text).expect("self-recorded trace parses");
    println!(
        "recorded {} requests of {}; replay loops forever",
        replay.len(),
        src.name()
    );
    let cfg = SystemConfig::ddr4_actual_system();
    let mut run_cfg = cfg;
    run_cfg.target_requests = 10_000;
    let rep = MemSystem::new(
        run_cfg,
        vec![Box::new(replay) as Box<dyn RequestStream>],
        Box::new(NoMitigation::new()),
    )
    .run();
    println!(
        "replayed to {} completions in {} cycles\n",
        rep.total_completed(),
        rep.cycles
    );

    // --- 3. LPDDR5 preset. ---
    println!("== LPDDR5-6400 timing preset ==");
    let lp = TimingParams::lpddr5_6400();
    println!(
        "tCK = {:.2} ns, tRCD = {} tCK, tRFM = {} tCK, validate: {:?}\n",
        lp.clock.period_ns(),
        lp.t_rcd,
        lp.t_rfm,
        lp.validate()
    );

    // --- 4. Page policy and posted writes. ---
    println!("== controller options ==");
    for (label, policy, posted) in [
        ("open page, synchronous writes", PagePolicy::Open, false),
        ("closed page", PagePolicy::Closed, false),
        ("open page, posted writes", PagePolicy::Open, true),
    ] {
        let mut c = SystemConfig::ddr4_actual_system();
        c.target_requests = 20_000;
        c.page_policy = policy;
        c.posted_writes = posted;
        let streams: Vec<Box<dyn RequestStream>> = vec![Box::new(ProfileStream::new(
            AppProfile::spec_high()[2],
            c.capacity_bytes(),
            11,
        ))];
        let r = MemSystem::new(c, streams, Box::new(NoMitigation::new())).run();
        println!(
            "{label:<34} {} cycles, PRE/RD = {:.2}, p50 latency = {} tCK",
            r.cycles,
            r.commands.get("PRE") as f64 / r.commands.get("RD").max(1) as f64,
            r.latency.percentile(50.0)
        );
    }
    println!();

    // --- 5. Remapping-row bit image (§V-A layout). ---
    println!("== remapping-row image ==");
    let mut bank = ShadowBank::new(
        ShadowConfig {
            subarrays: 1,
            rows_per_subarray: 512,
        },
        Box::new(PrinceRng::new(9, 9)),
    );
    for i in 0..200 {
        bank.note_activate(i % 512);
        bank.on_rfm();
    }
    let img = rowimage::encode(bank.table(0).expect("200 RFMs shuffled subarray 0"));
    println!(
        "subarray mapping after 200 shuffles encodes to {} bytes (row budget 1024); \
         decode + checksum: {}",
        img.len(),
        rowimage::decode(&img, 512)
            .map(|_| "ok")
            .unwrap_or("FAILED")
    );
    println!();

    // --- 6. Hydra-style GCT (the other §VIII filter structure). ---
    println!("== group-count table ==");
    let mut gct = GroupCountTable::new(65536, 128, 512, 32);
    for _ in 0..600 {
        gct.observe(4242); // one hot row escalates its group
    }
    for r in 0..1000u64 {
        gct.observe(r * 64 % 65536); // background noise
    }
    println!(
        "hot row estimate {} (exact after escalation), cold row estimate {} (group-level), \
         escalations {}, cost {} B vs {} B for per-row counters",
        gct.estimate(4242),
        gct.estimate(9999),
        gct.escalations(),
        gct.cost(16).total_bytes(),
        65536 * 2,
    );
}

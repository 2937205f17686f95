//! §VII-C worst-case adversarial microbenchmark.
//!
//! Two synthetic extremes bound SHADOW's overhead:
//!
//! * a **bandwidth-bound random stream** (four cores of zero-locality,
//!   zero-gap traffic spread over all banks) — maximally sensitive to the
//!   tRCD' increase; paper bound: < 3% degradation;
//! * a **bank-focused stream** (all traffic into one bank at the maximum
//!   ACT rate) — drives the theoretically highest per-bank RFM frequency;
//!   paper bound: < 9% degradation including the RFM slots.

use shadow_bench::{banner, build_mitigation, host_cpus, run_parallel, BenchArgs, Scheme};
use shadow_dram::mapping::AddressMapper;
use shadow_memsys::{MemSystem, SystemConfig};
use shadow_sim::rng::Xoshiro256;
use shadow_workloads::{Request, RequestStream};

/// Zero-locality random rows confined to a set of banks: `banks.len() == 1`
/// gives the single-bank serialization extreme; all banks of one rank give
/// the JEDEC maximum rank ACT rate (tFAW-limited), the paper's "<9%"
/// scenario.
#[derive(Debug)]
struct FocusedStream {
    mapper: AddressMapper,
    banks: Vec<shadow_dram::geometry::BankId>,
    rows: u32,
    rng: Xoshiro256,
    name: &'static str,
}

impl RequestStream for FocusedStream {
    fn next_request(&mut self) -> Request {
        let bank = *self.rng.choose(&self.banks).expect("non-empty bank set");
        let row = self.rng.gen_range(0, self.rows as u64) as u32;
        Request {
            pa: self.mapper.pa_of_row(bank, row),
            write: false,
            gap_cycles: 0,
        }
    }
    fn name(&self) -> &str {
        self.name
    }
}

fn spread_streams(cfg: &SystemConfig, n: usize) -> Vec<Box<dyn RequestStream>> {
    (0..n)
        .map(|i| {
            Box::new(shadow_workloads::RandomStream::new(
                cfg.capacity_bytes().max(1 << 30),
                0xADE + i as u64,
            )) as Box<dyn RequestStream>
        })
        .collect()
}

fn focused_streams(
    cfg: &SystemConfig,
    banks: Vec<shadow_dram::geometry::BankId>,
    name: &'static str,
    n_cores: usize,
) -> Vec<Box<dyn RequestStream>> {
    (0..n_cores)
        .map(|i| {
            Box::new(FocusedStream {
                mapper: AddressMapper::new(cfg.geometry),
                banks: banks.clone(),
                rows: cfg.geometry.rows_per_bank(),
                rng: Xoshiro256::seed_from_u64(0xF0C5 + i as u64),
                name,
            }) as Box<dyn RequestStream>
        })
        .collect()
}

fn main() {
    banner("Adversarial worst case (DDR4-2666, H_cnt = 4K)");
    let args = BenchArgs::from_args("adversarial_worstcase", &["--requests"]);
    println!("({} worker threads)", host_cpus());
    let mut cfg = SystemConfig::ddr4_actual_system();
    cfg.target_requests = args.requests();

    // All six (pattern × scheme) runs are independent: fan them out as one
    // batch over the worker pool, in the fixed order consumed below.
    let rank0: Vec<_> = (0..cfg.geometry.banks_per_rank())
        .map(|b| cfg.geometry.bank_id(0, 0, b))
        .collect();
    let bank0 = vec![cfg.geometry.bank_id(0, 0, 0)];
    let jobs: Vec<Box<dyn FnOnce() -> shadow_memsys::SimReport + Send>> = vec![
        Box::new(move || {
            MemSystem::new(
                cfg,
                spread_streams(&cfg, 8),
                build_mitigation(Scheme::Baseline, &cfg),
            )
            .run()
        }),
        Box::new(move || {
            MemSystem::new(
                cfg,
                spread_streams(&cfg, 8),
                build_mitigation(Scheme::Shadow, &cfg),
            )
            .run()
        }),
        {
            let banks = rank0.clone();
            Box::new(move || {
                MemSystem::new(
                    cfg,
                    focused_streams(&cfg, banks, "rank-focused", 4),
                    build_mitigation(Scheme::Baseline, &cfg),
                )
                .run()
            })
        },
        Box::new(move || {
            MemSystem::new(
                cfg,
                focused_streams(&cfg, rank0, "rank-focused", 4),
                build_mitigation(Scheme::Shadow, &cfg),
            )
            .run()
        }),
        {
            let banks = bank0.clone();
            Box::new(move || {
                MemSystem::new(
                    cfg,
                    focused_streams(&cfg, banks, "bank-focused", 1),
                    build_mitigation(Scheme::Baseline, &cfg),
                )
                .run()
            })
        },
        Box::new(move || {
            MemSystem::new(
                cfg,
                focused_streams(&cfg, bank0, "bank-focused", 1),
                build_mitigation(Scheme::Shadow, &cfg),
            )
            .run()
        }),
    ];
    let mut reports = run_parallel(jobs, host_cpus()).into_iter();
    let (base, shadow) = (
        reports.next().expect("base"),
        reports.next().expect("shadow"),
    );
    let (base_r, shadow_r) = (
        reports.next().expect("base_r"),
        reports.next().expect("shadow_r"),
    );
    let (base_b, shadow_b) = (
        reports.next().expect("base_b"),
        reports.next().expect("shadow_b"),
    );

    // --- Bandwidth-bound spread pattern: tRCD' sensitivity. ---
    // Eight cores saturate the channels, so latency is partially hidden as
    // on the paper's real machine.
    let rel = shadow.relative_performance(&base);
    println!(
        "spread random stream : SHADOW degradation {:>5.2}% (paper tRCD'-only bound: < 3%), RFMs {}",
        (1.0 - rel) * 100.0,
        shadow.commands.get("RFM")
    );

    // --- Rank-focused pattern: the JEDEC max ACT rate into one rank, the
    //     paper's theoretical maximum RFM frequency. ---
    let rel_r = shadow_r.relative_performance(&base_r);
    println!(
        "rank-focused stream  : SHADOW degradation {:>5.2}% (paper max-RFM bound: < 9%), RFMs {}, ACT/RFM {:.1}",
        (1.0 - rel_r) * 100.0,
        shadow_r.commands.get("RFM"),
        shadow_r.acts_per_rfm().unwrap_or(f64::NAN)
    );

    // --- Single-bank serialization: strictly worse than any pattern the
    //     paper bounds (RFM slots cannot overlap useful work at all). ---
    let rel_b = shadow_b.relative_performance(&base_b);
    println!(
        "single-bank stream   : SHADOW degradation {:>5.2}% (no paper bound; fully serialized)",
        (1.0 - rel_b) * 100.0
    );
}

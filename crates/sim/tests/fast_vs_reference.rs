//! Property test: the optimized packed-table paths against the retained
//! reference scan, end to end, for every consistency scheme.
//!
//! Reference mode drives drains through full scans of the hierarchy and
//! never folds its golden chain; fast mode uses the packed SoA tables,
//! the epoch index, and a chain folded through the persisted frontier
//! after every commit. Arbitrary combinations of scheme, workload, epoch
//! length, and seed — which between them exercise stores, capacity
//! evictions, asynchronous cache scans, and epoch commits in every
//! interleaving the machine can produce — must yield bit-identical run
//! reports. Crash-at-instant recovery must agree between the two modes as
//! well, including crash points long after the fast chain has folded its
//! history into a base image. Each crash is also judged on its own: the
//! golden image of the recovered epoch must exist for every scheme, and
//! match NVM for every scheme but Ideal, so a fold that hid or corrupted
//! a needed epoch fails even where both modes would agree.

use proptest::prelude::*;

use picl_sim::{RunReport, SchemeKind, Simulation, WorkloadSpec};
use picl_trace::mixes::table_v_mixes;
use picl_trace::spec::SpecBenchmark;
use picl_types::SystemConfig;

fn scheme_strategy() -> impl Strategy<Value = SchemeKind> {
    proptest::sample::select(SchemeKind::ALL.to_vec())
}

fn bench_strategy() -> impl Strategy<Value = SpecBenchmark> {
    prop_oneof![
        Just(SpecBenchmark::Gcc),
        Just(SpecBenchmark::Mcf),
        Just(SpecBenchmark::Libquantum),
    ]
}

fn build(
    scheme: SchemeKind,
    bench: SpecBenchmark,
    epoch_len: u64,
    seed: u64,
    reference: bool,
) -> Simulation {
    let mut cfg = SystemConfig::paper_single_core();
    cfg.epoch.epoch_len_instructions = epoch_len;
    Simulation::builder(cfg)
        .scheme(scheme)
        .workload_spec(WorkloadSpec::single(bench))
        .instructions_per_core(60_000)
        .seed(seed)
        .footprint_scale(0.05)
        .keep_snapshots(true)
        .reference_mode(reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_schemes_match_reference_scan(
        scheme in scheme_strategy(),
        bench in bench_strategy(),
        epoch_len in 2_000u64..30_000,
        seed in any::<u64>(),
    ) {
        let fast = build(scheme, bench, epoch_len, seed, false)
            .run()
            .expect("fast run");
        let reference = build(scheme, bench, epoch_len, seed, true)
            .run()
            .expect("reference run");
        prop_assert_eq!(
            fast, reference,
            "reports diverged: {:?}/{:?} epoch {} seed {}",
            scheme, bench, epoch_len, seed
        );
    }

    #[test]
    fn crash_recovery_matches_reference_scan(
        scheme in scheme_strategy(),
        // Early points crash on the unfolded chain; by 200k instructions
        // (20 epochs of gcc at this scale) it has folded for every scheme
        // but Ideal, whose persisted frontier never leaves ZERO.
        at in prop_oneof![5_000u64..55_000, 200_000u64..400_000],
        seed in any::<u64>(),
    ) {
        let crash = |reference: bool| {
            let mut m = build(scheme, SpecBenchmark::Gcc, 10_000, seed, reference)
                .into_machine()
                .expect("valid configuration");
            m.run_until(at);
            let report = m.crash();
            (m.instructions(), report)
        };
        let (fast_instr, fast) = crash(false);
        let (ref_instr, reference) = crash(true);
        prop_assert_eq!(fast_instr, ref_instr);
        prop_assert!(
            fast.consistent.is_some(),
            "{:?} at {} seed {}: no golden image of {}",
            scheme, at, seed, fast.outcome.recovered_to
        );
        if scheme != SchemeKind::Ideal {
            prop_assert_eq!(
                fast.consistent, Some(true),
                "{:?} at {} seed {}: recovery mismatched at {:?}",
                scheme, at, seed, fast.mismatches
            );
        }
        prop_assert_eq!(
            fast, reference,
            "crash reports diverged: {:?} at {} seed {}",
            scheme, at, seed
        );
    }
}

fn run_w0_mix(scheme: SchemeKind, reference: bool) -> RunReport {
    let mut cfg = SystemConfig::paper_multicore(8);
    cfg.epoch.epoch_len_instructions = 2_000;
    Simulation::builder(cfg)
        .scheme(scheme)
        .workload_spec(WorkloadSpec::mix(&table_v_mixes()[0]))
        .instructions_per_core(20_000)
        .seed(42)
        .footprint_scale(0.02)
        .keep_snapshots(true)
        .reference_mode(reference)
        .run()
        .expect("simulation runs")
}

/// The proptests above are single-core; this pins the eight-core W0 mix,
/// where the laggard scheduler interleaves cores over shared LLC and NVM.
#[test]
fn eight_core_mix_matches_reference_scan() {
    for scheme in [SchemeKind::Ideal, SchemeKind::Picl] {
        assert_eq!(
            run_w0_mix(scheme, false),
            run_w0_mix(scheme, true),
            "{scheme:?}: eight-core W0 report diverged from reference"
        );
    }
}

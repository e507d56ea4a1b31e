//! Property tests for the simulation machine: timing sanity, accounting
//! invariants, and scheme-independent functional state.

use proptest::prelude::*;

use picl_sim::{Machine, SchemeKind, Simulation, WorkloadSpec};
use picl_trace::spec::SpecBenchmark;
use picl_types::{Cycle, SystemConfig};

fn build(scheme: SchemeKind, bench: SpecBenchmark, epoch: u64, seed: u64) -> Machine {
    let mut cfg = SystemConfig::paper_single_core();
    cfg.epoch.epoch_len_instructions = epoch;
    Simulation::builder(cfg)
        .scheme(scheme)
        .workload_spec(WorkloadSpec::single(bench))
        .seed(seed)
        .footprint_scale(0.05)
        // `logical_memory` derives its image from the golden history.
        .keep_snapshots(true)
        .into_machine()
        .expect("valid configuration")
}

fn scheme_strategy() -> impl Strategy<Value = SchemeKind> {
    proptest::sample::select(SchemeKind::ALL.to_vec())
}

fn bench_strategy() -> impl Strategy<Value = SpecBenchmark> {
    prop_oneof![
        Just(SpecBenchmark::Mcf),
        Just(SpecBenchmark::Lbm),
        Just(SpecBenchmark::Gamess),
        Just(SpecBenchmark::Xalancbmk),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Time moves forward, instructions are retired, IPC is positive and
    /// below the in-order bound of 1.0.
    #[test]
    fn timing_sanity(
        scheme in scheme_strategy(),
        bench in bench_strategy(),
        budget in 50_000u64..200_000,
        seed in any::<u64>(),
    ) {
        let mut m = build(scheme, bench, 30_000, seed);
        m.run(budget);
        let r = m.report();
        prop_assert!(r.instructions >= budget);
        prop_assert!(r.total_cycles > Cycle::ZERO);
        let ipc = r.ipc();
        prop_assert!(ipc > 0.0 && ipc <= 1.0, "IPC {ipc} out of range");
    }

    /// The functional memory view is scheme-independent: after identical
    /// runs, the logical (all-stores) image is identical across schemes.
    #[test]
    fn logical_memory_is_scheme_independent(
        bench in bench_strategy(),
        seed in any::<u64>(),
    ) {
        let mut a = build(SchemeKind::Ideal, bench, 30_000, seed);
        let mut b = build(SchemeKind::Picl, bench, 30_000, seed);
        let mut c = build(SchemeKind::Journaling, bench, 30_000, seed);
        a.run(80_000);
        b.run(80_000);
        c.run(80_000);
        prop_assert!(a.logical_memory().diff(&b.logical_memory()).is_empty());
        prop_assert!(a.logical_memory().diff(&c.logical_memory()).is_empty());
        prop_assert_eq!(a.instructions(), b.instructions());
        prop_assert_eq!(a.instructions(), c.instructions());
    }

    /// Caches plus memory always agree with the logical image: for any
    /// line the logical image knows, the cached value (if resident) or the
    /// freshest scheme/NVM value must match. Spot-check via cached lines.
    #[test]
    fn cached_values_match_logical(
        scheme in scheme_strategy(),
        seed in any::<u64>(),
    ) {
        let mut m = build(scheme, SpecBenchmark::Gamess, 25_000, seed);
        m.run(60_000);
        let mut checked = 0;
        for (line, value) in m.logical_memory().iter() {
            if let Some(cached) = m.hierarchy_cached_value(line) {
                prop_assert_eq!(cached, value, "line {} cached stale", line);
                checked += 1;
                if checked > 200 {
                    break;
                }
            }
        }
        prop_assert!(checked > 0, "no resident lines to check");
    }
}

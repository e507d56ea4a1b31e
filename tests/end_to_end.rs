//! Cross-crate integration tests: whole simulations through the public
//! API, checking the paper's qualitative results hold end-to-end.

use picl_repro::sim::{
    run_experiments_with, CampaignOptions, SchemeKind, Simulation, WorkloadSpec,
};
use picl_repro::trace::mixes::table_v_mixes;
use picl_repro::trace::spec::SpecBenchmark;
use picl_repro::types::SystemConfig;

fn quick_cfg(epoch: u64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_single_core();
    cfg.epoch.epoch_len_instructions = epoch;
    cfg
}

fn run(
    scheme: SchemeKind,
    bench: SpecBenchmark,
    epoch: u64,
    budget: u64,
) -> picl_repro::sim::RunReport {
    Simulation::builder(quick_cfg(epoch))
        .scheme(scheme)
        .workload(&[bench])
        .instructions_per_core(budget)
        .seed(42)
        .run()
        .expect("valid configuration")
}

/// The headline result: on a memory-bound workload PiCL stays within a few
/// percent of Ideal while every prior-work scheme costs noticeably more.
#[test]
fn picl_beats_prior_work_on_memory_bound_workload() {
    let epoch = 1_500_000;
    let budget = 4_500_000;
    let ideal = run(SchemeKind::Ideal, SpecBenchmark::Mcf, epoch, budget);
    let picl = run(SchemeKind::Picl, SpecBenchmark::Mcf, epoch, budget);
    let frm = run(SchemeKind::Frm, SpecBenchmark::Mcf, epoch, budget);
    let journaling = run(SchemeKind::Journaling, SpecBenchmark::Mcf, epoch, budget);

    let picl_overhead = picl.normalized_to(&ideal);
    let frm_overhead = frm.normalized_to(&ideal);
    let journaling_overhead = journaling.normalized_to(&ideal);

    assert!(picl_overhead < 1.10, "PiCL overhead {picl_overhead}");
    assert!(
        frm_overhead > picl_overhead + 0.05,
        "FRM {frm_overhead} vs PiCL {picl_overhead}"
    );
    assert!(
        journaling_overhead > picl_overhead + 0.2,
        "Journaling {journaling_overhead} vs PiCL {picl_overhead}"
    );
}

/// Compute-bound workloads show little overhead for everyone — the write
/// set fits the tables and the flush is small.
#[test]
fn compute_bound_workloads_are_cheap_for_all_schemes() {
    // Near-paper epoch length: short epochs would inflate flush overhead.
    let epoch = 10_000_000;
    let budget = 20_000_000;
    let ideal = run(SchemeKind::Ideal, SpecBenchmark::Gamess, epoch, budget);
    for kind in [SchemeKind::Journaling, SchemeKind::Shadow, SchemeKind::Picl] {
        let r = run(kind, SpecBenchmark::Gamess, epoch, budget);
        let overhead = r.normalized_to(&ideal);
        let limit = if kind == SchemeKind::Picl { 1.05 } else { 1.45 };
        assert!(
            overhead < limit,
            "{} overhead {overhead} on compute-bound gamess",
            kind.name()
        );
        assert_eq!(r.forced_commits, 0, "{}", kind.name());
    }
}

/// Fig. 11's mechanism: redo-based schemes commit early under large write
/// sets; undo-based schemes never do.
#[test]
fn translation_table_overflow_forces_early_commits() {
    let epoch = 3_000_000;
    let budget = 6_000_000;
    let journaling = run(SchemeKind::Journaling, SpecBenchmark::Mcf, epoch, budget);
    let picl = run(SchemeKind::Picl, SpecBenchmark::Mcf, epoch, budget);
    let frm = run(SchemeKind::Frm, SpecBenchmark::Mcf, epoch, budget);

    assert!(
        journaling.forced_commits > 10,
        "expected heavy forced commits, saw {}",
        journaling.forced_commits
    );
    assert_eq!(picl.forced_commits, 0);
    assert_eq!(frm.forced_commits, 0);
    assert!(journaling.commits > 10 * picl.commits);
}

/// PiCL never stalls; every prior-work scheme pays synchronous flushes.
#[test]
fn only_picl_is_stall_free() {
    let epoch = 1_000_000;
    let budget = 3_000_000;
    for kind in [
        SchemeKind::Journaling,
        SchemeKind::Shadow,
        SchemeKind::Frm,
        SchemeKind::ThyNvm,
    ] {
        let r = run(kind, SpecBenchmark::Bzip2, epoch, budget);
        assert!(r.stall_cycles > 0, "{} should stall", kind.name());
    }
    let picl = run(SchemeKind::Picl, SpecBenchmark::Bzip2, epoch, budget);
    assert_eq!(picl.stall_cycles, 0);
}

/// Shadow paging's page granularity beats Journaling on streaming writes
/// and loses on scattered ones (the paper's astar-vs-sequential contrast).
#[test]
fn page_granularity_tradeoff() {
    // The per-epoch dirty set must exceed the LLC so dirty lines evict
    // mid-epoch and exercise the translation tables.
    let epoch = 3_000_000;
    let budget = 9_000_000;
    // Streaming: libquantum walks lines sequentially; one page entry
    // covers 64 lines, so Shadow needs far fewer forced commits.
    let j_stream = run(
        SchemeKind::Journaling,
        SpecBenchmark::Libquantum,
        epoch,
        budget,
    );
    let s_stream = run(SchemeKind::Shadow, SpecBenchmark::Libquantum, epoch, budget);
    assert!(
        s_stream.forced_commits < j_stream.forced_commits,
        "Shadow {} vs Journaling {} forced commits on streaming",
        s_stream.forced_commits,
        j_stream.forced_commits
    );
    let ideal = run(SchemeKind::Ideal, SpecBenchmark::Libquantum, epoch, budget);
    assert!(s_stream.normalized_to(&ideal) < j_stream.normalized_to(&ideal));
}

/// Identical seeds reproduce identical results through the whole stack.
#[test]
fn end_to_end_determinism() {
    let a = run(SchemeKind::Picl, SpecBenchmark::Gcc, 1_000_000, 2_000_000);
    let b = run(SchemeKind::Picl, SpecBenchmark::Gcc, 1_000_000, 2_000_000);
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(
        a.scheme_stats.log_bytes_written,
        b.scheme_stats.log_bytes_written
    );
    assert_eq!(a.nvm.total_ops(), b.nvm.total_ops());
}

/// An eight-core Table V mix runs end-to-end and PiCL still wins.
#[test]
fn multicore_mix_preserves_ordering() {
    let mixes = table_v_mixes();
    let mut experiments = Vec::new();
    for scheme in [SchemeKind::Ideal, SchemeKind::Picl, SchemeKind::Frm] {
        experiments.push(
            Simulation::builder(quick_cfg(2_000_000))
                .scheme(scheme)
                .workload_spec(WorkloadSpec::mix(&mixes[0]))
                .instructions_per_core(800_000)
                .seed(42)
                .footprint_scale(0.25),
        );
    }
    let opts = CampaignOptions {
        threads: 3,
        ..CampaignOptions::default()
    };
    let reports = run_experiments_with(&experiments, &opts).unwrap();
    assert_eq!(reports[0].cores, 8);
    let picl = reports[1].normalized_to(&reports[0]);
    let frm = reports[2].normalized_to(&reports[0]);
    assert!(picl < frm, "PiCL {picl} vs FRM {frm} on W0");
}

/// Observed epoch length collapses for redo schemes at long epoch targets
/// (Fig. 14's mechanism) while PiCL sustains the full target.
#[test]
fn long_epoch_targets_collapse_for_redo_schemes() {
    let epoch = 20_000_000; // "long" relative to the write set
    let budget = 20_000_000;
    let j = run(
        SchemeKind::Journaling,
        SpecBenchmark::Omnetpp,
        epoch,
        budget,
    );
    let p = run(SchemeKind::Picl, SpecBenchmark::Omnetpp, epoch, budget);
    assert!(
        j.observed_epoch_len() < epoch as f64 / 4.0,
        "Journaling observed epoch {:.0}",
        j.observed_epoch_len()
    );
    assert!(
        p.observed_epoch_len() >= epoch as f64 * 0.9,
        "PiCL observed epoch {:.0}",
        p.observed_epoch_len()
    );
}

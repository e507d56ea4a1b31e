//! The simulator correctness check: report digests must agree across
//! rounds and match the recorded seed-1 digest.

use picl_benchmark::sim::{failed_rounds, round_digest, SEED1_DIGESTS};
use picl_benchmark::Workload;

#[test]
fn a_different_seed_fails_the_digest_check() {
    let scale = 0.01;
    let one = round_digest(Workload::SimSmall, 1, scale).unwrap();
    let two = round_digest(Workload::SimSmall, 2, scale).unwrap();
    assert_eq!(one, round_digest(Workload::SimSmall, 1, scale).unwrap());
    assert_ne!(one, two, "the seed reaches the simulated trace");
    // Held to seed 1's digest, seed 2's rounds all fail ...
    assert_eq!(failed_rounds(&[two, two, two], Some(one)), 3);
    // ... rounds that disagree all fail ...
    assert_eq!(failed_rounds(&[one, two, one], None), 3);
    // ... and agreeing rounds with the right digest pass.
    assert_eq!(failed_rounds(&[one, one, one], Some(one)), 0);
}

#[test]
fn recorded_seed1_digests_match_a_full_scale_round() {
    for (workload, recorded) in SEED1_DIGESTS {
        let got = round_digest(workload, 1, 1.0).unwrap();
        assert_eq!(
            got,
            recorded,
            "{}: the simulator now computes {got:#018x}; a speed-only change must not move it",
            workload.name()
        );
    }
}

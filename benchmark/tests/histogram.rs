//! The log-linear histogram against exact percentiles of the sorted
//! samples.

use picl_benchmark::hist::LogHist;
use picl_types::rng::Rng;

/// Nearest-rank percentile of sorted samples: the definition
/// [`LogHist::percentile`] estimates.
fn exact(sorted: &[u64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank - 1] as f64
}

fn check(samples: &[u64]) {
    let mut h = LogHist::new();
    for &s in samples {
        h.record(s);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    assert_eq!(h.count(), samples.len() as u64);
    for p in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 99.99, 100.0] {
        let (est, want) = (h.percentile(p), exact(&sorted, p));
        assert!(
            (est - want).abs() <= 0.01 * want,
            "p{p}: estimate {est} vs exact {want}"
        );
    }
}

#[test]
fn percentiles_are_within_one_percent() {
    let mut rng = Rng::new(7);
    // Log-uniform over 1 ns .. 1 s: every bucket scale is exercised.
    let wide: Vec<u64> = (0..200_000)
        .map(|_| (1e9f64.powf(rng.unit_f64())) as u64)
        .collect();
    check(&wide);
    // A latency-shaped mix: a fast body and a slow tail.
    let shaped: Vec<u64> = (0..200_000)
        .map(|_| {
            if rng.chance(0.99) {
                800 + rng.below(1_500)
            } else {
                20_000 + rng.below(2_000_000)
            }
        })
        .collect();
    check(&shaped);
}

#[test]
fn tail_percentiles_do_not_sit_on_power_of_two_edges() {
    // Samples straddling 2^24 ns: a log2 histogram reports p99.9 as the
    // bucket edge 2^24 - 1 whatever the samples are.
    let mut rng = Rng::new(11);
    let samples: Vec<u64> = (0..100_000)
        .map(|_| (1 << 24) - 2_000_000 + rng.below(4_000_000))
        .collect();
    let mut h = LogHist::new();
    for &s in &samples {
        h.record(s);
    }
    let mut sorted = samples.clone();
    sorted.sort_unstable();
    for p in [99.0, 99.9] {
        let est = h.percentile(p);
        assert!(!(est as u64 + 1).is_power_of_two() && !(est as u64).is_power_of_two());
        let want = exact(&sorted, p);
        assert!((est - want).abs() <= 0.01 * want, "p{p}: {est} vs {want}");
    }
}

#[test]
fn merging_equals_recording_together() {
    let mut rng = Rng::new(3);
    let (mut a, mut b, mut both) = (LogHist::new(), LogHist::new(), LogHist::new());
    for i in 0..10_000u64 {
        let v = rng.below(1 << 20);
        if i % 3 == 0 { &mut a } else { &mut b }.record(v);
        both.record(v);
    }
    a.merge(&b);
    assert_eq!(a, both);
    assert_eq!(LogHist::new().percentile(50.0), 0.0, "empty reads 0");
}

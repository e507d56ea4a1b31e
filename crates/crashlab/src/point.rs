//! The crash-point scheduler: enumerates/samples the instants a campaign
//! pulls the plug at.
//!
//! Crash-consistency schemes fail at *specific* interleavings — mid-epoch
//! at an arbitrary store, exactly at an epoch boundary, or inside the
//! boundary flush window while the OS handler is checkpointing register
//! files. A schedule therefore mixes three point classes instead of
//! sampling uniformly: half the points land mid-epoch, a quarter exactly
//! on boundary-aligned instruction counts, and a quarter inside the
//! boundary window (partial core checkpoints). Points are drawn without
//! replacement, so a schedule never repeats a crash. All sampling is
//! driven by the seeded [`picl_types::Rng`], so a campaign is replayable
//! from `(seed, config)` alone and any single point from its reproducer
//! line.

use std::collections::{HashMap, HashSet};

use picl_types::Rng;

/// One crash instant, expressed in retired instructions so it is
/// reproducible from the trace alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Power failure once `at` total instructions have retired.
    MidEpoch {
        /// Retired-instruction instant.
        at: u64,
    },
    /// Power failure inside the epoch-boundary flush window after `at`
    /// instructions: `cores_done` cores have checkpointed their register
    /// files, the commit has not run.
    MidBoundary {
        /// Retired-instruction instant.
        at: u64,
        /// Cores whose boundary-handler stores completed before the cut.
        cores_done: usize,
    },
}

impl CrashPoint {
    /// The retired-instruction instant of this point.
    pub fn at(self) -> u64 {
        match self {
            CrashPoint::MidEpoch { at } | CrashPoint::MidBoundary { at, .. } => at,
        }
    }

    /// The partial-checkpoint count (`None` for plain mid-epoch points).
    pub fn cores_done(self) -> Option<usize> {
        match self {
            CrashPoint::MidEpoch { .. } => None,
            CrashPoint::MidBoundary { cores_done, .. } => Some(cores_done),
        }
    }
}

impl std::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrashPoint::MidEpoch { at } => write!(f, "@{at}"),
            CrashPoint::MidBoundary { at, cores_done } => {
                write!(f, "@{at}+boundary[{cores_done}]")
            }
        }
    }
}

/// Timeline parameters the scheduler samples within.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleConfig {
    /// Points to generate.
    pub points: usize,
    /// Run budget in total retired instructions; points fall in `[1, budget]`.
    pub budget: u64,
    /// Configured epoch length (instructions per core).
    pub epoch_len: u64,
    /// Core count (the boundary fires every `epoch_len * cores` retired
    /// instructions, and bounds partial-checkpoint counts).
    pub cores: usize,
}

/// Samples a replayable schedule of `cfg.points` distinct crash instants.
///
/// Each class draws without replacement; a slot whose class has run out
/// takes a point of another class, mid-epoch first. A timeline holding
/// fewer than `cfg.points` points yields every one of them.
///
/// # Panics
///
/// Panics if `budget`, `epoch_len`, or `cores` is zero.
pub fn schedule(seed: u64, cfg: &ScheduleConfig) -> Vec<CrashPoint> {
    assert!(cfg.budget > 0, "empty timeline");
    assert!(cfg.epoch_len > 0 && cfg.cores > 0, "degenerate epoch span");
    let mut rng = Rng::new(seed);
    let span = cfg.epoch_len.saturating_mul(cfg.cores as u64);
    let whole_epochs = (cfg.budget / span).max(1);
    let checkpoints = cfg.cores as u64 + 1;
    let point = |class: usize, i: u64| match class {
        // Mid-epoch, anywhere on the timeline.
        0 => CrashPoint::MidEpoch { at: i + 1 },
        // Exactly at a boundary-aligned instant: the epoch timer fires
        // within the step that reaches this count.
        1 => CrashPoint::MidEpoch { at: span * (i + 1) },
        // Inside the boundary flush window, with a partial checkpoint.
        _ => CrashPoint::MidBoundary {
            at: span * (i / checkpoints + 1),
            cores_done: (i % checkpoints) as usize,
        },
    };
    let lens = [cfg.budget, whole_epochs, whole_epochs * checkpoints];
    let mut pools: [Pool; 3] = Default::default();
    let mut chosen = HashSet::new();
    let mut out = Vec::with_capacity(cfg.points);
    for slot in 0..cfg.points {
        let own = [0, 1, 0, 2][slot % 4];
        // A boundary-aligned instant can also come up as a mid-epoch
        // draw; whichever class draws it second rejects it.
        let next = [own, 0, 1, 2].into_iter().find_map(|class| {
            std::iter::from_fn(|| pools[class].draw(lens[class], &mut rng))
                .map(|i| point(class, i))
                .find(|p| chosen.insert(*p))
        });
        let Some(p) = next else { break };
        out.push(p);
    }
    out
}

/// Draws from `[0, len)` without replacement: a Fisher-Yates shuffle that
/// keeps only the positions it has swapped, so a pool as long as the run
/// budget costs memory in proportion to the draws.
#[derive(Default)]
struct Pool {
    taken: u64,
    swapped: HashMap<u64, u64>,
}

impl Pool {
    fn draw(&mut self, len: u64, rng: &mut Rng) -> Option<u64> {
        (self.taken < len).then(|| {
            let j = rng.range(self.taken, len);
            let head = self.swapped.remove(&self.taken).unwrap_or(self.taken);
            self.taken += 1;
            if j + 1 == self.taken {
                head
            } else {
                self.swapped.insert(j, head).unwrap_or(j)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ScheduleConfig {
        ScheduleConfig {
            points: 64,
            budget: 200_000,
            epoch_len: 25_000,
            cores: 1,
        }
    }

    #[test]
    fn schedule_is_replayable() {
        assert_eq!(schedule(1, &cfg()), schedule(1, &cfg()));
        assert_ne!(schedule(1, &cfg()), schedule(2, &cfg()));
    }

    #[test]
    fn points_stay_on_the_timeline() {
        for p in schedule(3, &cfg()) {
            assert!(p.at() >= 1 && p.at() <= 200_000, "{p}");
            if let Some(done) = p.cores_done() {
                assert!(done <= 1);
            }
        }
    }

    #[test]
    fn mixes_all_three_classes() {
        let points = schedule(5, &cfg());
        let boundary_aligned = points
            .iter()
            .filter(|p| matches!(p, CrashPoint::MidEpoch { at } if at % 25_000 == 0))
            .count();
        let mid_boundary = points.iter().filter(|p| p.cores_done().is_some()).count();
        let mid_epoch = points.len() - boundary_aligned - mid_boundary;
        assert!(boundary_aligned >= 8, "{boundary_aligned} boundary-aligned");
        assert!(mid_boundary >= 8, "{mid_boundary} mid-boundary");
        assert!(mid_epoch >= 16, "{mid_epoch} mid-epoch");
    }

    #[test]
    fn short_timelines_still_schedule() {
        let tight = ScheduleConfig {
            points: 16,
            budget: 10_000,
            epoch_len: 25_000,
            cores: 1,
        };
        for p in schedule(7, &tight) {
            // Boundary-aligned points may exceed the budget (the run just
            // ends at its natural end); mid-epoch ones must not.
            if p.cores_done().is_none() && p.at() <= 10_000 {
                assert!(p.at() >= 1);
            }
        }
    }

    fn distinct(points: &[CrashPoint]) -> usize {
        points.iter().collect::<HashSet<_>>().len()
    }

    #[test]
    fn ci_smoke_config_schedules_distinct_points() {
        // `crashlab --points 32 --instructions 150k --seed 1`: 6 boundary
        // instants serve 8 boundary-aligned slots, so 2 become mid-epoch.
        let ci = ScheduleConfig {
            points: 32,
            budget: 150_000,
            ..cfg()
        };
        assert_eq!(distinct(&schedule(1, &ci)), 32);
        for seed in 0..64 {
            assert_eq!(distinct(&schedule(seed, &cfg())), 64, "seed {seed}");
        }
    }

    #[test]
    fn short_timeline_yields_every_point_once() {
        // Instants 1..=4 (2 and 4 boundary-aligned), plus boundaries 2
        // and 4 with 0 or 1 cores checkpointed: 8 points in all.
        let tiny = ScheduleConfig {
            points: 16,
            budget: 4,
            epoch_len: 2,
            cores: 1,
        };
        let points = schedule(9, &tiny);
        assert_eq!((points.len(), distinct(&points)), (8, 8));
        assert!(points.iter().all(|p| p.at() <= 4));
    }

    #[test]
    fn display_formats() {
        assert_eq!(CrashPoint::MidEpoch { at: 5 }.to_string(), "@5");
        assert_eq!(
            CrashPoint::MidBoundary {
                at: 5,
                cores_done: 2
            }
            .to_string(),
            "@5+boundary[2]"
        );
    }
}

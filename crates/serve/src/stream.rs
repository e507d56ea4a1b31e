//! Deterministic per-session operation streams for the kill -9 harness.
//!
//! The multi-session torture oracle needs something the single-session
//! one got for free: a way to judge a recovered store when the sessions'
//! ops interleaved nondeterministically before the kill. The trick is
//! key disjointness — session `i` only ever touches keys under
//! [`session_prefix`]`(i)`, so the recovered image *restricted to that
//! prefix* must equal [`session_model_after`]`(seed, i, n, ..)` for some
//! op count `n`, and the per-session counts reported at each epoch
//! commit (see `ServeKv::set_commit_hook`) give a sound lower bound for
//! `n`; [`first_matching_count`] searches the range in one replay. That
//! is prefix consistency, per session, within the RPO bound. A
//! lone session is deterministic, so its `n` is exact:
//! [`ops_through_epoch`].
//!
//! Streams are pure functions of `(seed, session, op index)`: a killed
//! child and the judging parent reconstruct them independently, and a
//! stream's first `n` ops never depend on how many ops were generated.
//!
//! Values deliberately cycle through lengths on both sides of the
//! single-slot threshold so a kill lands on multi-slot (spanning) record
//! writes too.

use std::ops::RangeInclusive;

use picl_store::workload::{apply_to_model, Model, Op};
use picl_types::hash::fnv1a_64;
use picl_types::rng::Rng;

/// Value lengths the put stream cycles through; 8 and 14 fit the head
/// slot, the rest span 1–4 continuation slots.
const VALUE_LENS: [usize; 5] = [8, 14, 40, 100, 220];

/// The key prefix session `session` owns exclusively.
pub fn session_prefix(session: usize) -> String {
    format!("s{session}-")
}

fn session_key(session: usize, idx: u64) -> Vec<u8> {
    format!("{}k{idx:03}", session_prefix(session)).into_bytes()
}

/// The first `count` ops of session `session`'s stream: ~55% put,
/// ~20% delete, ~25% get over `key_space` keys under the session's
/// prefix.
pub fn session_ops(seed: u64, session: usize, count: u64, key_space: u64) -> Vec<Op> {
    assert!(key_space > 0, "need at least one key per session");
    let salt = fnv1a_64(session_prefix(session).as_bytes());
    let mut rng = Rng::new(seed ^ salt.rotate_left(17));
    let mut ops = Vec::with_capacity(count as usize);
    for i in 0..count {
        let k = session_key(session, rng.below(key_space));
        let roll = rng.below(100);
        if roll < 55 {
            let len = VALUE_LENS[rng.below(VALUE_LENS.len() as u64) as usize];
            let mut v = format!("s{session}e{i:05}:").into_bytes();
            v.resize(len, b'.');
            v.truncate(len);
            ops.push(Op::Put(k, v));
        } else if roll < 75 {
            ops.push(Op::Delete(k));
        } else {
            ops.push(Op::Get(k));
        }
    }
    ops
}

/// The reference state of session `session`'s key range after its first
/// `count` ops.
pub fn session_model_after(seed: u64, session: usize, count: u64, key_space: u64) -> Model {
    let mut model = Model::new();
    for op in session_ops(seed, session, count, key_space) {
        apply_to_model(&mut model, &op);
    }
    model
}

/// The first op count in `counts` after which session `session`'s model
/// equals `slice`, or `None` if there is none.
///
/// One replay of the stream through `counts`' end: it keeps a running
/// count of keys whose model value differs from `slice` and stops at the
/// first count at or above the range's start where that count is 0. The
/// search is linear in the stream, where testing each count against
/// [`session_model_after`] would replay from op 0 every time.
pub fn first_matching_count(
    seed: u64,
    session: usize,
    key_space: u64,
    counts: RangeInclusive<u64>,
    slice: &Model,
) -> Option<u64> {
    let (floor, last) = counts.into_inner();
    let ops = session_ops(seed, session, last, key_space);
    let mut model = Model::new();
    // Before the first op the model is empty: every slice key differs.
    let mut differing = slice.len();
    for n in 0..=last {
        if n >= floor && differing == 0 {
            return Some(n);
        }
        let Some(op) = ops.get(n as usize) else {
            break;
        };
        let key = match op {
            Op::Put(k, _) | Op::Delete(k) => k,
            Op::Get(_) => continue,
        };
        let was = model.get(key) != slice.get(key);
        apply_to_model(&mut model, op);
        let now = model.get(key) != slice.get(key);
        differing = differing + usize::from(now) - usize::from(was);
    }
    None
}

/// How many of `ops` a one-session run holds at epoch `epoch`. A lone
/// session's stream is totally ordered and `ServeKv` commits after every
/// `ops_per_epoch`-th mutation (gets do not count) and once more at the
/// end of the run, so epoch `epoch` runs through the
/// `epoch × ops_per_epoch`-th mutation, or through the whole stream once
/// that is past its last mutation. Gets between two mutations leave the
/// model unchanged, so the model after this count is *the* model of that
/// epoch: the crash oracles judge a one-session store at this one point.
pub fn ops_through_epoch(ops: &[Op], ops_per_epoch: u64, epoch: u64) -> u64 {
    let target = epoch.saturating_mul(ops_per_epoch);
    if target == 0 {
        return 0;
    }
    let mut mutations = 0;
    for (i, op) in ops.iter().enumerate() {
        if !matches!(op, Op::Get(_)) {
            mutations += 1;
            if mutations == target {
                return i as u64 + 1;
            }
        }
    }
    ops.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_count_mutations_only() {
        let put = || Op::Put(b"k".to_vec(), b"v".to_vec());
        let get = || Op::Get(b"k".to_vec());
        let del = || Op::Delete(b"k".to_vec());
        // Mutations sit at indices 0, 2, 3 and 5.
        let ops = [put(), get(), del(), put(), get(), put(), get()];
        let at = |ope, epoch| ops_through_epoch(&ops, ope, epoch);
        assert_eq!(at(2, 0), 0, "nothing before the first commit");
        assert_eq!(at(2, 1), 3, "through the 2nd mutation, not the get");
        assert_eq!(at(2, 2), 6);
        assert_eq!(at(2, 3), 7, "the final commit holds the whole stream");
        assert_eq!(at(1, 4), 6);
        assert_eq!(at(1, 9), 7);
        assert_eq!(at(4, 1), 6);
    }

    #[test]
    fn streams_are_prefix_pure() {
        // ops(n) must be exactly the first n ops of ops(2n) — the judge
        // replays prefixes of a stream the child generated in full.
        let long = session_ops(11, 2, 400, 12);
        let short = session_ops(11, 2, 200, 12);
        assert_eq!(short.as_slice(), &long[..200]);
    }

    #[test]
    fn sessions_own_disjoint_keys() {
        for session in 0..6usize {
            let prefix = session_prefix(session);
            for op in session_ops(5, session, 300, 10) {
                let key = match &op {
                    Op::Put(k, _) | Op::Delete(k) | Op::Get(k) => k.clone(),
                };
                let key = String::from_utf8(key).unwrap();
                assert!(key.starts_with(&prefix), "{key} not under {prefix}");
            }
        }
        // Prefixes themselves never nest (s1- is not a prefix of s10-k…
        // because the dash terminates the session number).
        assert!(!session_prefix(10).starts_with(&session_prefix(1)));
    }

    #[test]
    fn sessions_differ_and_spread_value_sizes() {
        let a = session_ops(3, 0, 500, 8);
        let b = session_ops(3, 1, 500, 8);
        assert_ne!(a, b);
        let mut small = 0;
        let mut spanning = 0;
        for op in &a {
            if let Op::Put(_, v) = op {
                if v.len() <= 16 {
                    small += 1;
                } else {
                    spanning += 1;
                }
            }
        }
        assert!(
            small > 50 && spanning > 50,
            "{small} small / {spanning} spanning"
        );
    }

    #[test]
    fn model_matches_incremental_replay() {
        let ops = session_ops(7, 1, 250, 6);
        let mut model = Model::new();
        for (i, op) in ops.iter().enumerate() {
            apply_to_model(&mut model, op);
            if (i + 1) % 50 == 0 {
                assert_eq!(model, session_model_after(7, 1, (i + 1) as u64, 6));
            }
        }
    }

    /// The per-count replay the judge used to run: one fresh replay from
    /// op 0 for every count in the range.
    fn first_matching_count_by_replay(
        seed: u64,
        session: usize,
        key_space: u64,
        counts: RangeInclusive<u64>,
        slice: &Model,
    ) -> Option<u64> {
        counts
            .into_iter()
            .find(|&n| session_model_after(seed, session, n, key_space) == *slice)
    }

    #[test]
    fn linear_search_matches_per_count_replay() {
        const OPS: u64 = 240;
        let mut verdicts = [0u32; 2];
        for (seed, session, key_space) in [(3, 1, 6), (9, 0, 40)] {
            let model = |n| session_model_after(seed, session, n, key_space);
            let mut slices = Vec::new();
            // Clean slices, including the empty one and the whole stream.
            for n in [0, 1, 17, 120, 239, OPS] {
                slices.push(model(n));
            }
            // Corrupted slices: a changed value, a foreign key, a lost key.
            let mut changed = model(120);
            if let Some(v) = changed.values_mut().next() {
                v.push(b'!');
            }
            slices.push(changed);
            let mut foreign = model(120);
            foreign.insert(b"s9-k000".to_vec(), b"x".to_vec());
            slices.push(foreign);
            let mut lost = model(239);
            let first = lost.keys().next().cloned().unwrap();
            lost.remove(&first);
            slices.push(lost);
            for slice in &slices {
                // Floors at 0, inside the stream, past a rolled-back
                // slice's count, and past the range's end.
                for floor in [0, 1, 18, 100, 121, 200, OPS, OPS + 1] {
                    for last in [OPS / 2, OPS] {
                        let got =
                            first_matching_count(seed, session, key_space, floor..=last, slice);
                        verdicts[usize::from(got.is_some())] += 1;
                        assert_eq!(
                            got,
                            first_matching_count_by_replay(
                                seed,
                                session,
                                key_space,
                                floor..=last,
                                slice
                            ),
                            "seed {seed}, floor {floor}, last {last}, slice of {} keys",
                            slice.len()
                        );
                    }
                }
            }
        }
        assert!(
            verdicts[0] > 0 && verdicts[1] > 0,
            "{verdicts:?} (rejected, accepted)"
        );
    }
}

//! Property tests: `SetAssocCache` against a reference model.
//!
//! The reference is a per-set vector ordered by recency; the table must
//! agree with it on membership, payloads, and LRU victim choice for
//! arbitrary operation sequences — at every width the table allows, at
//! power-of-two and modulo-indexed set counts (the translation tables'
//! 384 sets), with a `Copy` payload, with a payload that owns a map (as
//! the shadow-paging entries do), and under the hierarchy's own mix of
//! operations on its packed [`Line`]s.

use proptest::prelude::*;

use picl_cache::line::{decode_line, encode_line};
use picl_cache::set_assoc::Insertion;
use picl_cache::{CacheLineMeta, Line, SetAssocCache};
use picl_types::config::MAX_WAYS;
use picl_types::hash::FastMap;
use picl_types::{EpochId, LineAddr};

/// Reference: per set, most-recently-used last.
struct Model<T> {
    sets: Vec<Vec<(LineAddr, T)>>,
    ways: usize,
}

impl<T> Model<T> {
    fn new(sets: usize, ways: usize) -> Self {
        Model {
            sets: (0..sets).map(|_| Vec::new()).collect(),
            ways,
        }
    }

    fn set_of(&mut self, addr: LineAddr) -> &mut Vec<(LineAddr, T)> {
        let n = self.sets.len() as u64;
        &mut self.sets[(addr.raw() % n) as usize]
    }

    /// A hit moves the line to most recent.
    fn get(&mut self, addr: LineAddr) -> Option<&mut T> {
        let set = self.set_of(addr);
        let pos = set.iter().position(|(a, _)| *a == addr)?;
        let e = set.remove(pos);
        set.push(e);
        set.last_mut().map(|(_, v)| v)
    }

    fn insert(&mut self, addr: LineAddr, value: T) -> Insertion<T> {
        let ways = self.ways;
        let set = self.set_of(addr);
        if let Some(pos) = set.iter().position(|(a, _)| *a == addr) {
            let (_, old) = set.remove(pos);
            set.push((addr, value));
            return Insertion::Replaced(old);
        }
        let outcome = if set.len() == ways {
            let (a, v) = set.remove(0);
            Insertion::Evicted(a, v)
        } else {
            Insertion::Fit
        };
        set.push((addr, value));
        outcome
    }

    fn remove(&mut self, addr: LineAddr) -> Option<T> {
        let set = self.set_of(addr);
        let pos = set.iter().position(|(a, _)| *a == addr)?;
        Some(set.remove(pos).1)
    }

    fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Every resident line, sorted by address.
    fn contents(&self) -> Vec<(LineAddr, T)>
    where
        T: Clone,
    {
        let mut out: Vec<_> = self.sets.iter().flatten().cloned().collect();
        out.sort_unstable_by_key(|&(a, _)| a);
        out
    }
}

/// Every resident line of the table, sorted by address.
fn table_contents<T: Default + Clone>(table: &SetAssocCache<T>) -> Vec<(LineAddr, T)> {
    let mut out: Vec<_> = table.iter().map(|(a, v)| (a, v.clone())).collect();
    out.sort_unstable_by_key(|&(a, _)| a);
    out
}

/// Key `k` as a line address in a table of `sets` sets: three sets
/// (fewer when `sets` is smaller), each with 32 candidate tags, so every
/// width up to [`MAX_WAYS`] fills and evicts.
fn line_of(k: u64, sets: usize) -> LineAddr {
    LineAddr::new((k / 3) * sets as u64 + k % 3)
}

#[derive(Debug, Clone)]
enum Op {
    Get(u64),
    Insert(u64, u32),
    Remove(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..96).prop_map(Op::Get),
        ((0u64..96), any::<u32>()).prop_map(|(a, v)| Op::Insert(a, v)),
        (0u64..96).prop_map(Op::Remove),
    ]
}

/// Power-of-two and modulo-indexed counts, the translation tables' 384
/// among them.
fn sets_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..8, Just(384usize)]
}

/// A payload that owns memory, like a shadow-paging entry's line map.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Delta {
    lines: FastMap<u64, u64>,
}

impl Delta {
    fn of(v: u32) -> Self {
        Delta {
            lines: (0..u64::from(v % 5))
                .map(|i| (i, u64::from(v) ^ i))
                .collect(),
        }
    }
}

/// Runs `ops` against the table and the model at one geometry, with
/// payloads built by `make`.
fn check_against_model<T>(
    ops: &[Op],
    sets: usize,
    ways: usize,
    make: impl Fn(u32) -> T,
) -> Result<(), TestCaseError>
where
    T: Default + Clone + PartialEq + std::fmt::Debug,
{
    let mut table = SetAssocCache::new(sets, ways);
    let mut model = Model::new(sets, ways);
    for op in ops {
        match *op {
            Op::Get(k) => {
                let a = line_of(k, sets);
                let got = table.get(a).cloned();
                prop_assert_eq!(got, model.get(a).cloned(), "get({:?})", a);
            }
            Op::Insert(k, v) => {
                let a = line_of(k, sets);
                let got = table.insert(a, make(v));
                let want = model.insert(a, make(v));
                prop_assert_eq!(got, want, "insert({:?}) at {} ways", a, ways);
            }
            Op::Remove(k) => {
                let a = line_of(k, sets);
                prop_assert_eq!(table.remove(a), model.remove(a), "remove({:?})", a);
            }
        }
        prop_assert_eq!(table.len(), model.len());
        prop_assert!(table.len() <= table.capacity());
    }
    prop_assert_eq!(table_contents(&table), model.contents());
    Ok(())
}

proptest! {
    #[test]
    fn cache_matches_reference_model(
        ops in proptest::collection::vec(op_strategy(), 1..400),
        sets in sets_strategy(),
    ) {
        for ways in 1..=MAX_WAYS {
            check_against_model(&ops, sets, ways, |v| v)?;
        }
    }

    #[test]
    fn owning_payloads_come_back_whole(
        ops in proptest::collection::vec(op_strategy(), 1..400),
        sets in sets_strategy(),
    ) {
        for ways in 1..=MAX_WAYS {
            check_against_model(&ops, sets, ways, Delta::of)?;
        }
    }
}

/// The hierarchy's operations on one cache level.
#[derive(Debug, Clone)]
enum LineOp {
    /// A load hit/miss probe: hits refresh recency.
    Access(u64),
    /// A fill or store: insert (or overwrite) the line with this metadata.
    Insert(u64, CacheLineMeta),
    /// A store to a resident line: mark dirty and re-tag its EID in place.
    Store(u64, u64, u64),
    /// An invalidation: remove the line outright.
    Remove(u64),
    /// The asynchronous cache scan: extract every dirty line tagged `eid`,
    /// leaving it clean and untagged in place.
    Acs(u64),
    /// A crash: all volatile state is lost.
    Crash,
}

fn meta_strategy() -> impl Strategy<Value = CacheLineMeta> {
    (any::<u64>(), any::<bool>(), 0u64..16).prop_map(|(value, dirty, eid)| CacheLineMeta {
        value,
        dirty,
        // Odd draws are untagged: lines filled from memory have no EID.
        eid: (eid % 2 == 0).then_some(EpochId(eid / 2)),
    })
}

fn line_op_strategy() -> impl Strategy<Value = LineOp> {
    prop_oneof![
        (0u64..32).prop_map(LineOp::Access),
        ((0u64..32), meta_strategy()).prop_map(|(a, m)| LineOp::Insert(a, m)),
        ((0u64..32), any::<u64>(), 0u64..8).prop_map(|(a, v, e)| LineOp::Store(a, v, e)),
        (0u64..32).prop_map(LineOp::Remove),
        (0u64..8).prop_map(LineOp::Acs),
        Just(LineOp::Crash),
    ]
}

const LINE_SETS: usize = 4;
const LINE_WAYS: usize = 2;

proptest! {
    /// The hierarchy's access path (probe, touch, slot writes, the ACS
    /// drain over `iter_mut`) on packed lines agrees with the model on
    /// decoded metadata: same hits, same victims, same survivors.
    #[test]
    fn line_table_matches_reference_model(
        ops in proptest::collection::vec(line_op_strategy(), 1..200),
    ) {
        let mut table: SetAssocCache<Line> = SetAssocCache::new(LINE_SETS, LINE_WAYS);
        let mut model: Model<CacheLineMeta> = Model::new(LINE_SETS, LINE_WAYS);

        for op in ops {
            match op {
                LineOp::Access(raw) => {
                    let addr = LineAddr::new(raw);
                    let hit = table.probe(addr);
                    let model_hit = model.get(addr).copied();
                    prop_assert_eq!(hit.is_some(), model_hit.is_some());
                    if let Some(slot) = hit {
                        table.touch(slot);
                        prop_assert_eq!(Some(decode_line(*table.at(slot))), model_hit);
                    }
                }
                LineOp::Insert(raw, meta) => {
                    let addr = LineAddr::new(raw);
                    let got = match table.insert(addr, encode_line(&meta)) {
                        Insertion::Fit => Insertion::Fit,
                        Insertion::Replaced(old) => Insertion::Replaced(decode_line(old)),
                        Insertion::Evicted(a, line) => Insertion::Evicted(a, decode_line(line)),
                    };
                    prop_assert_eq!(got, model.insert(addr, meta));
                }
                LineOp::Store(raw, value, eid) => {
                    let addr = LineAddr::new(raw);
                    let slot = table.probe(addr);
                    let meta = model.get(addr);
                    prop_assert_eq!(slot.is_some(), meta.is_some());
                    if let (Some(slot), Some(meta)) = (slot, meta) {
                        table.touch(slot);
                        let stored = CacheLineMeta::dirty(value, EpochId(eid));
                        *table.at_mut(slot) = encode_line(&stored);
                        *meta = stored;
                    }
                }
                LineOp::Remove(raw) => {
                    let addr = LineAddr::new(raw);
                    let got = table.remove(addr).map(decode_line);
                    prop_assert_eq!(got, model.remove(addr));
                }
                LineOp::Acs(eid) => {
                    let eid = Some(EpochId(eid));
                    let mut drained = Vec::new();
                    for (addr, line) in table.iter_mut() {
                        let meta = decode_line(*line);
                        if meta.dirty && meta.eid == eid {
                            drained.push((addr, meta.value));
                            *line = encode_line(&CacheLineMeta::clean(meta.value));
                        }
                    }
                    drained.sort_unstable_by_key(|&(a, _)| a);
                    let mut drained_model = Vec::new();
                    for (addr, meta) in model.sets.iter_mut().flatten() {
                        if meta.dirty && meta.eid == eid {
                            drained_model.push((*addr, meta.value));
                            *meta = CacheLineMeta::clean(meta.value);
                        }
                    }
                    drained_model.sort_unstable_by_key(|&(a, _)| a);
                    prop_assert_eq!(drained, drained_model);
                }
                LineOp::Crash => {
                    table.clear();
                    model = Model::new(LINE_SETS, LINE_WAYS);
                }
            }
            prop_assert_eq!(table.len(), model.len());
        }
        let decoded: Vec<_> = table_contents(&table)
            .into_iter()
            .map(|(a, line)| (a, decode_line(line)))
            .collect();
        prop_assert_eq!(decoded, model.contents());
    }
}

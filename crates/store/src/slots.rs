//! Slot-level record layout: open addressing with multi-slot spanning
//! values.
//!
//! A record's head slot holds only the continuation pointers the record
//! uses, then the key at its own length, then as many value bytes as fit;
//! each continuation slot carries 60 more value bytes. Values are capped
//! at [`MAX_VALUE_BYTES`] (255, the reach of the one-byte length field):
//!
//! ```text
//! head: [ state u8 | klen u8 | vlen u8 | ver u8 | n x u32 cont ptr | key klen B | value <= 60-4n-klen B ]
//! cont: [ state u8 | seq  u8 | len  u8 | ver u8 |                 payload 60B                      ]
//! ```
//!
//! `n` is `cont_count(klen, vlen)`, the fewest continuations that hold
//! the value; it is never stored, only derived from the head's own length
//! bytes. A continuation adds 60 value bytes but costs the head a 4-byte
//! pointer, so even a 28-byte key with four pointers leaves the head 16
//! value bytes, and every key and value within the limits fits in at most
//! `1 + MAX_CONTS` slots. An 11-byte key with a 100-byte value spans two
//! slots, so each put logs and writes back two lines.
//!
//! Heads are probed linearly from `fnv1a_64(key) % lines`; continuation
//! slots are allocated from any free slot and reached only through the
//! head's pointers, never by probing. Turning an `EMPTY` slot into a
//! `CONT` can lengthen probe chains but never shorten one (no transition
//! ever re-creates `EMPTY`), so probes stay correct.
//!
//! Mutation functions assume *per-record* exclusion — no two writers
//! mutate the same key at once (the serving layer locks the shard of the
//! key's [`home_line`]; a single-threaded caller has it trivially). Writers for *different* keys may run concurrently as
//! long as free-line claims never collide: a writer confined via
//! [`put_within`] only turns `EMPTY`/`TOMBSTONE` lines into record state
//! inside its own locked range and escalates (retries under full
//! exclusion) otherwise, while writes to lines a record already owns are
//! safe anywhere because only that record's writer touches them.
//! `lookup` is safe *concurrently with* those writers: it validates each
//! continuation against the
//! head's version byte and re-reads the head before returning, reporting
//! [`Lookup::Contended`] when a racing mutation is detected so the caller
//! can retry or fall back to excluding the writer (the serving layer
//! takes the key's shard lock). (As with any seqlock, a
//! reader that stalls across exactly 256 mutations of one record could
//! miss the version wrap; reads are a handful of slot copies and writers
//! take a lock per mutation, so the window is not reachable in practice.)
//!
//! Crash atomicity is *not* this module's job: the engine's undo log
//! rolls the whole table back to an epoch boundary, and callers keep
//! every multi-slot mutation inside one epoch, so recovery never sees a
//! half-written record.

use picl_types::hash::fnv1a_64;
use picl_types::LINE_BYTES;

use crate::engine::{Engine, StoreError};

const LINE: usize = LINE_BYTES as usize;

/// Slot states.
pub const SLOT_EMPTY: u8 = 0;
/// A record head.
pub const SLOT_LIVE: u8 = 1;
/// A freed slot (still non-terminating for probes).
pub const SLOT_TOMBSTONE: u8 = 2;
/// A continuation slot, reached only via head pointers.
pub const SLOT_CONT: u8 = 3;

/// Maximum key length a head slot can hold.
pub const MAX_KEY_BYTES: usize = 28;
/// Value bytes a head slot holds at the least: what is left beside a
/// [`MAX_KEY_BYTES`] key and [`MAX_CONTS`] pointers. A shorter key or
/// fewer pointers leave the head more, so sizing a table from this bound
/// never undercounts a record's slots.
pub const HEAD_VALUE_BYTES: usize = 16;
/// Value bytes per continuation slot.
pub const CONT_VALUE_BYTES: usize = 60;
/// Maximum continuation slots per record.
pub const MAX_CONTS: usize = 4;
/// Maximum value length: one byte of length, so 255 even though the slot
/// chain could carry 256.
pub const MAX_VALUE_BYTES: usize = 255;

/// The four header bytes every slot starts with (state, two lengths,
/// version); head pointers and continuation payloads follow.
const HEADER_BYTES: usize = 4;

/// Line-granularity access to the slot table. Implemented by the engine
/// (undo-logged persistent lines) and by test/baseline backings.
pub trait Lines {
    /// Slots in the table.
    fn line_count(&self) -> u32;
    /// Reads one slot. A read racing a write of the same slot must return
    /// the old or the new bytes whole, never a mix: `lookup` validates
    /// *across* slots (version bytes, head re-read) but trusts each slot
    /// copy. The engine keeps this with a per-line seqlock, so reads take
    /// no lock.
    ///
    /// # Errors
    ///
    /// Propagates backing-store failures.
    fn read_slot(&self, line: u32) -> Result<[u8; LINE], StoreError>;
    /// Writes one slot.
    ///
    /// # Errors
    ///
    /// Propagates backing-store failures.
    fn write_slot(&self, line: u32, data: &[u8; LINE]) -> Result<(), StoreError>;
}

impl Lines for Engine {
    fn line_count(&self) -> u32 {
        self.geometry().lines
    }

    fn read_slot(&self, line: u32) -> Result<[u8; LINE], StoreError> {
        self.read_line(line)
    }

    fn write_slot(&self, line: u32, data: &[u8; LINE]) -> Result<(), StoreError> {
        self.write_line(line, data)
    }
}

/// Rejects an unusable key.
///
/// # Errors
///
/// Empty and oversized keys are invalid.
pub fn check_key(key: &[u8]) -> Result<(), StoreError> {
    if key.is_empty() || key.len() > MAX_KEY_BYTES {
        return Err(StoreError::Invalid(format!(
            "key length {} not in 1..={MAX_KEY_BYTES}",
            key.len()
        )));
    }
    Ok(())
}

/// Rejects an oversized value.
///
/// # Errors
///
/// Values longer than [`MAX_VALUE_BYTES`] are invalid.
pub fn check_value(value: &[u8]) -> Result<(), StoreError> {
    if value.len() > MAX_VALUE_BYTES {
        return Err(StoreError::Invalid(format!(
            "value length {} exceeds {MAX_VALUE_BYTES}",
            value.len()
        )));
    }
    Ok(())
}

/// Continuation slots a record with a `klen`-byte key and a `vlen`-byte
/// value needs: the smallest `n` with `(60 - 4n - klen) + 60n >= vlen`,
/// since each continuation nets 56 bytes (60 of payload less its 4-byte
/// head pointer). For `klen <= 28` and `vlen <= 255` this is at most
/// [`MAX_CONTS`], and never more than the rule `ceil((vlen - 16) / 60)`
/// that [`HEAD_VALUE_BYTES`] sizes tables by.
fn cont_count(klen: usize, vlen: usize) -> usize {
    vlen.saturating_sub(LINE - HEADER_BYTES - klen)
        .div_ceil(CONT_VALUE_BYTES - 4)
}

/// A head's `(conts, key_at, value_at)`, derived from the slot's own
/// length bytes. `lookup` decodes heads a writer may be racing, so `klen`
/// is clamped to [`MAX_KEY_BYTES`]: with `vlen <= 255` that bounds
/// `conts` to [`MAX_CONTS`] and every offset to `4 + 16 + 28 = 48`, and a
/// torn head is caught by the version check and head re-read, never by
/// an out-of-bounds index.
fn head_shape(slot: &[u8; LINE]) -> (usize, usize, usize) {
    let klen = (slot[1] as usize).min(MAX_KEY_BYTES);
    let conts = cont_count(klen, slot[2] as usize);
    let key_at = HEADER_BYTES + 4 * conts;
    (conts, key_at, key_at + klen)
}

fn head_key(slot: &[u8; LINE]) -> &[u8] {
    let (_, key_at, value_at) = head_shape(slot);
    &slot[key_at..value_at]
}

fn ptr_at(slot: &[u8; LINE], i: usize) -> u32 {
    let at = HEADER_BYTES + 4 * i;
    u32::from_le_bytes(slot[at..at + 4].try_into().expect("4 bytes"))
}

/// Encodes a head with exactly `cont_count(key, value)` pointers. Returns
/// the slot and how many leading value bytes it holds.
fn encode_head(key: &[u8], value: &[u8], ptrs: &[u32], ver: u8) -> ([u8; LINE], usize) {
    debug_assert_eq!(ptrs.len(), cont_count(key.len(), value.len()));
    let mut slot = [0u8; LINE];
    slot[0] = SLOT_LIVE;
    slot[1] = key.len() as u8;
    slot[2] = value.len() as u8;
    slot[3] = ver;
    let mut at = HEADER_BYTES;
    for ptr in ptrs {
        slot[at..at + 4].copy_from_slice(&ptr.to_le_bytes());
        at += 4;
    }
    slot[at..at + key.len()].copy_from_slice(key);
    at += key.len();
    let take = value.len().min(LINE - at);
    slot[at..at + take].copy_from_slice(&value[..take]);
    (slot, take)
}

fn encode_cont(seq: usize, chunk: &[u8], ver: u8) -> [u8; LINE] {
    let mut slot = [0u8; LINE];
    slot[0] = SLOT_CONT;
    slot[1] = seq as u8;
    slot[2] = chunk.len() as u8;
    slot[3] = ver;
    slot[HEADER_BYTES..HEADER_BYTES + chunk.len()].copy_from_slice(chunk);
    slot
}

/// Frees one slot, preserving (and bumping) its version byte so readers
/// parked on the old contents always see a change.
fn write_tombstone(store: &impl Lines, line: u32) -> Result<(), StoreError> {
    let old = store.read_slot(line)?;
    let mut slot = [0u8; LINE];
    slot[0] = SLOT_TOMBSTONE;
    slot[3] = old[3].wrapping_add(1);
    store.write_slot(line, &slot)
}

/// The line where `key`'s linear probe starts — its natural head
/// position. The serving layer keys its shard locks off this line, so
/// the hash must stay in lockstep with [`probe`].
pub fn home_line(lines: u32, key: &[u8]) -> u32 {
    (fnv1a_64(key) % u64::from(lines)) as u32
}

/// Where a probe for a key ended.
#[derive(Debug)]
pub enum Probe {
    /// The live head slot holding the key, with its snapshot.
    Found {
        /// Head slot line.
        line: u32,
        /// The head slot's contents at probe time.
        slot: [u8; LINE],
    },
    /// Not present; `line` is where an insert would land (first reusable
    /// tombstone, else the terminating empty slot).
    Free {
        /// Insertion slot line.
        line: u32,
    },
}

/// Probes linearly for `key`'s head slot.
///
/// # Errors
///
/// Propagates backing-store failures; a table with no empty or reusable
/// slot left is `Invalid`.
pub fn probe(store: &impl Lines, key: &[u8]) -> Result<Probe, StoreError> {
    let lines = store.line_count();
    let start = home_line(lines, key);
    let mut first_tombstone: Option<u32> = None;
    for i in 0..lines {
        let line = (start + i) % lines;
        let slot = store.read_slot(line)?;
        match slot[0] {
            SLOT_LIVE if head_key(&slot) == key => return Ok(Probe::Found { line, slot }),
            SLOT_EMPTY => {
                return Ok(Probe::Free {
                    line: first_tombstone.unwrap_or(line),
                })
            }
            SLOT_TOMBSTONE if first_tombstone.is_none() => first_tombstone = Some(line),
            _ => {}
        }
    }
    match first_tombstone {
        Some(line) => Ok(Probe::Free { line }),
        None => Err(StoreError::Invalid("table full".into())),
    }
}

/// Reassembles the value behind a head snapshot. Returns `None` when a
/// concurrent mutation raced the read (version/state mismatch on a
/// continuation, or the head changed before the final re-read).
fn assemble(
    store: &impl Lines,
    line: u32,
    head: &[u8; LINE],
) -> Result<Option<Vec<u8>>, StoreError> {
    let vlen = head[2] as usize;
    let ver = head[3];
    let (conts, _, value_at) = head_shape(head);
    let take = vlen.min(LINE - value_at);
    let mut value = Vec::with_capacity(vlen);
    value.extend_from_slice(&head[value_at..value_at + take]);
    let mut remaining = vlen - take;
    for i in 0..conts {
        let ptr = ptr_at(head, i);
        if ptr >= store.line_count() {
            return Ok(None);
        }
        let cont = store.read_slot(ptr)?;
        let chunk = remaining.min(CONT_VALUE_BYTES);
        if cont[0] != SLOT_CONT
            || cont[1] as usize != i + 1
            || cont[2] as usize != chunk
            || cont[3] != ver
        {
            return Ok(None);
        }
        value.extend_from_slice(&cont[HEADER_BYTES..HEADER_BYTES + chunk]);
        remaining -= chunk;
    }
    if store.read_slot(line)? != *head {
        return Ok(None);
    }
    Ok(Some(value))
}

/// What one optimistic lookup attempt observed.
#[derive(Debug)]
pub enum Lookup {
    /// The key's value, read consistently.
    Found {
        /// Head slot line.
        line: u32,
        /// The assembled value.
        value: Vec<u8>,
    },
    /// Consistently absent; `line` is the probe's terminal slot.
    Missing {
        /// Terminal probe slot.
        line: u32,
    },
    /// A concurrent mutation raced this read; retry (or serialize).
    Contended,
}

/// One optimistic lookup attempt. Safe concurrently with one writer.
///
/// # Errors
///
/// Propagates backing-store failures and invalid keys.
pub fn lookup(store: &impl Lines, key: &[u8]) -> Result<Lookup, StoreError> {
    check_key(key)?;
    match probe(store, key)? {
        Probe::Free { line } => Ok(Lookup::Missing { line }),
        Probe::Found { line, slot } => match assemble(store, line, &slot)? {
            Some(value) => Ok(Lookup::Found { line, value }),
            None => Ok(Lookup::Contended),
        },
    }
}

/// True when `line` is inside the `[start, end)` confinement range (or
/// there is no confinement).
fn in_range(allowed: Option<(u32, u32)>, line: u32) -> bool {
    allowed.is_none_or(|(start, end)| line >= start && line < end)
}

/// Allocates `n` continuation slots, scanning from the head. Free means
/// `EMPTY` or `TOMBSTONE`; slots in `taken` (reused pointers) are
/// skipped. With `allowed` set, only lines inside that range qualify —
/// `Ok(None)` means the range could not satisfy the request (the caller
/// escalates to an unconfined retry under stronger locking); the hard
/// table-full error is reserved for unconfined allocation.
fn alloc_conts(
    store: &impl Lines,
    head_line: u32,
    taken: &[u32],
    n: usize,
    allowed: Option<(u32, u32)>,
) -> Result<Option<Vec<u32>>, StoreError> {
    let mut out = Vec::with_capacity(n);
    if n == 0 {
        return Ok(Some(out));
    }
    let lines = store.line_count();
    for step in 1..lines {
        let line = (head_line + step) % lines;
        if !in_range(allowed, line) || taken.contains(&line) || out.contains(&line) {
            continue;
        }
        let state = store.read_slot(line)?[0];
        if state == SLOT_EMPTY || state == SLOT_TOMBSTONE {
            out.push(line);
            if out.len() == n {
                return Ok(Some(out));
            }
        }
    }
    if allowed.is_some() {
        return Ok(None);
    }
    Err(StoreError::Invalid(
        "table full (no free slots for a spanning value)".into(),
    ))
}

/// Writes a record: continuations first, then the head. A concurrent
/// reader either holds the old head (and trips on the bumped version in
/// any rewritten continuation) or picks up the new head over the already
/// written new continuations.
fn write_record(
    store: &impl Lines,
    head_line: u32,
    key: &[u8],
    value: &[u8],
    ptrs: &[u32],
    ver: u8,
) -> Result<(), StoreError> {
    let (head, in_head) = encode_head(key, value, ptrs, ver);
    let mut rest = &value[in_head..];
    for (i, &ptr) in ptrs.iter().enumerate() {
        let chunk = rest.len().min(CONT_VALUE_BYTES);
        store.write_slot(ptr, &encode_cont(i + 1, &rest[..chunk], ver))?;
        rest = &rest[chunk..];
    }
    debug_assert!(rest.is_empty());
    store.write_slot(head_line, &head)
}

/// Outcome of a range-confined [`put_within`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// The record was written; the head slot line.
    Done(u32),
    /// The write needs to claim a free line outside the allowed range
    /// (insertion target or continuation allocation); retry unconfined
    /// under locking that excludes every other writer.
    Escalate,
}

/// Inserts or overwrites `key`, reusing the old record's continuation
/// slots where possible and tombstoning the surplus. Requires the single
/// writer. Returns the head slot line.
///
/// # Errors
///
/// Rejects oversized keys/values and a table too full to hold the
/// record; propagates backing-store failures.
pub fn put(store: &impl Lines, key: &[u8], value: &[u8]) -> Result<u32, StoreError> {
    match put_within(store, key, value, None)? {
        Placement::Done(line) => Ok(line),
        Placement::Escalate => unreachable!("unconfined puts never escalate"),
    }
}

/// [`put`] with its *free-line claims* confined to the `allowed`
/// `[start, end)` line range. Writes to slots the record already owns
/// (its head, its continuation slots, surplus tombstones) may land
/// anywhere — only turning an `EMPTY`/`TOMBSTONE` line into part of this
/// record is restricted, because that is the one action that races a
/// concurrent writer confined to a different range. Returns
/// [`Placement::Escalate`] when the insertion target falls outside the
/// range or the range has too few free lines for the value's
/// continuations; the caller retries unconfined while excluding all
/// other writers.
///
/// # Errors
///
/// As [`put`].
pub fn put_within(
    store: &impl Lines,
    key: &[u8],
    value: &[u8],
    allowed: Option<(u32, u32)>,
) -> Result<Placement, StoreError> {
    check_key(key)?;
    check_value(value)?;
    let new_conts = cont_count(key.len(), value.len());
    match probe(store, key)? {
        Probe::Found { line, slot } => {
            let (old_conts, ..) = head_shape(&slot);
            let old_ptrs: Vec<u32> = (0..old_conts).map(|i| ptr_at(&slot, i)).collect();
            let ver = slot[3].wrapping_add(1);
            let mut ptrs: Vec<u32> = old_ptrs.iter().copied().take(new_conts).collect();
            if new_conts > old_conts {
                match alloc_conts(store, line, &ptrs, new_conts - old_conts, allowed)? {
                    Some(extra) => ptrs.extend(extra),
                    None => return Ok(Placement::Escalate),
                }
            }
            write_record(store, line, key, value, &ptrs, ver)?;
            for &surplus in &old_ptrs[new_conts.min(old_conts)..] {
                if surplus < store.line_count() {
                    write_tombstone(store, surplus)?;
                }
            }
            Ok(Placement::Done(line))
        }
        Probe::Free { line } => {
            if !in_range(allowed, line) {
                return Ok(Placement::Escalate);
            }
            let ver = store.read_slot(line)?[3].wrapping_add(1);
            match alloc_conts(store, line, &[], new_conts, allowed)? {
                Some(ptrs) => {
                    write_record(store, line, key, value, &ptrs, ver)?;
                    Ok(Placement::Done(line))
                }
                None => Ok(Placement::Escalate),
            }
        }
    }
}

/// How a delete resolved.
#[derive(Debug)]
pub enum Deletion {
    /// The key was present; its head slot was tombstoned.
    Deleted {
        /// Head slot line.
        line: u32,
    },
    /// The key was absent; `line` is the probe's terminal slot.
    Missing {
        /// Terminal probe slot.
        line: u32,
    },
}

/// Deletes `key` if present: head slot first (the key vanishes in one
/// slot write), then its continuations. Requires the single writer.
///
/// # Errors
///
/// Propagates backing-store failures and invalid keys.
pub fn delete(store: &impl Lines, key: &[u8]) -> Result<Deletion, StoreError> {
    check_key(key)?;
    match probe(store, key)? {
        Probe::Found { line, slot } => {
            write_tombstone(store, line)?;
            for i in 0..head_shape(&slot).0 {
                let ptr = ptr_at(&slot, i);
                if ptr < store.line_count() {
                    write_tombstone(store, ptr)?;
                }
            }
            Ok(Deletion::Deleted { line })
        }
        Probe::Free { line } => Ok(Deletion::Missing { line }),
    }
}

/// All live pairs, sorted by key. Requires exclusive access (no
/// concurrent writer): a torn record here means corruption, not
/// contention.
///
/// # Errors
///
/// Propagates backing-store failures; reports torn records as `Corrupt`.
pub fn scan(store: &impl Lines) -> Result<crate::kv::KvPairs, StoreError> {
    let mut out = Vec::new();
    for line in 0..store.line_count() {
        let slot = store.read_slot(line)?;
        if slot[0] != SLOT_LIVE {
            continue;
        }
        match assemble(store, line, &slot)? {
            Some(value) => out.push((head_key(&slot).to_vec(), value)),
            None => {
                return Err(StoreError::Corrupt(format!(
                    "torn record at slot {line} during exclusive scan"
                )))
            }
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// A plain in-memory slot table (single-threaded test backing).
    struct MemLines(RefCell<Vec<[u8; LINE]>>);

    impl MemLines {
        fn new(lines: u32) -> MemLines {
            MemLines(RefCell::new(vec![[0u8; LINE]; lines as usize]))
        }
    }

    impl Lines for MemLines {
        fn line_count(&self) -> u32 {
            self.0.borrow().len() as u32
        }

        fn read_slot(&self, line: u32) -> Result<[u8; LINE], StoreError> {
            Ok(self.0.borrow()[line as usize])
        }

        fn write_slot(&self, line: u32, data: &[u8; LINE]) -> Result<(), StoreError> {
            self.0.borrow_mut()[line as usize] = *data;
            Ok(())
        }
    }

    fn value_of(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    fn get(store: &impl Lines, key: &[u8]) -> Option<Vec<u8>> {
        match lookup(store, key).unwrap() {
            Lookup::Found { value, .. } => Some(value),
            Lookup::Missing { .. } => None,
            Lookup::Contended => panic!("contended without concurrency"),
        }
    }

    fn slots_in_use(store: &MemLines) -> usize {
        let table = store.0.borrow();
        table
            .iter()
            .filter(|s| matches!(s[0], SLOT_LIVE | SLOT_CONT))
            .count()
    }

    #[test]
    fn every_record_shape_round_trips_in_its_packed_width() {
        let store = MemLines::new(8);
        for klen in 1..=MAX_KEY_BYTES {
            let key: Vec<u8> = (0..klen).map(|i| b'a' + (i % 26) as u8).collect();
            let ascending = 0..=MAX_VALUE_BYTES;
            for vlen in ascending.clone().chain(ascending.rev()) {
                let value: Vec<u8> = value_of(vlen).iter().map(|b| b ^ klen as u8).collect();
                put(&store, &key, &value).unwrap();
                assert_eq!(get(&store, &key), Some(value), "klen {klen} vlen {vlen}");
                let used = slots_in_use(&store);
                assert_eq!(used, 1 + cont_count(klen, vlen), "klen {klen} vlen {vlen}");
                // Never wider than the unpacked head (16 value bytes
                // beside a fixed 28-byte key field and four pointers).
                assert!(used <= 1 + vlen.saturating_sub(16).div_ceil(60));
            }
            delete(&store, &key).unwrap();
        }
        // The benchmark's record: an 11-byte key with a 100-byte value.
        assert_eq!(cont_count(11, 100), 1);
        assert!(put(&store, b"big", &value_of(256)).is_err());
    }

    #[test]
    fn garbage_heads_never_panic() {
        // A corrupt head may carry any length bytes and any pointers;
        // decoding must stay inside the line. Lines 0..8 are continuations
        // with random sequence, length and version bytes, and the head's
        // pointer words point among them, so chains get followed too.
        let store = MemLines::new(9);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut garbage = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        };
        for line in 0..8 {
            let mut slot = [0u8; LINE];
            slot.iter_mut().for_each(|b| *b = garbage());
            slot[..4].copy_from_slice(&[SLOT_CONT, garbage() % 5, garbage() % 61, 0]);
            store.write_slot(line, &slot).unwrap();
        }
        for klen in 0..=255u8 {
            for vlen in 0..=255u8 {
                let mut head = [0u8; LINE];
                head.iter_mut().for_each(|b| *b = garbage());
                head[..4].copy_from_slice(&[SLOT_LIVE, klen, vlen, 0]);
                for i in 0..MAX_CONTS {
                    let ptr = u32::from(garbage() % 9);
                    head[4 + 4 * i..8 + 4 * i].copy_from_slice(&ptr.to_le_bytes());
                }
                assert!(head_key(&head).len() <= MAX_KEY_BYTES);
                store.write_slot(8, &head).unwrap();
                if let Some(value) = assemble(&store, 8, &head).unwrap() {
                    assert_eq!(value.len(), usize::from(vlen));
                }
            }
        }
    }

    #[test]
    fn overwrite_grows_and_shrinks_cont_chains() {
        let store = MemLines::new(32);
        put(&store, b"k", &value_of(255)).unwrap();
        put(&store, b"other", &value_of(200)).unwrap();
        // Shrink to a single slot: four continuations must come free.
        put(&store, b"k", &value_of(5)).unwrap();
        assert_eq!(get(&store, b"k"), Some(value_of(5)));
        // Grow again; the freed slots are reusable.
        put(&store, b"k", &value_of(230)).unwrap();
        assert_eq!(get(&store, b"k"), Some(value_of(230)));
        assert_eq!(get(&store, b"other"), Some(value_of(200)));
        let pairs = scan(&store).unwrap();
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn delete_frees_spanned_slots() {
        // 6 slots: one 255-byte record consumes 5 of them.
        let store = MemLines::new(6);
        put(&store, b"a", &value_of(255)).unwrap();
        assert!(put(&store, b"b", &value_of(100)).is_err(), "table is full");
        match delete(&store, b"a").unwrap() {
            Deletion::Deleted { .. } => {}
            Deletion::Missing { .. } => panic!("a was present"),
        }
        assert_eq!(get(&store, b"a"), None);
        put(&store, b"b", &value_of(255)).unwrap();
        assert_eq!(get(&store, b"b"), Some(value_of(255)));
    }

    #[test]
    fn confined_put_escalates_instead_of_claiming_foreign_lines() {
        let store = MemLines::new(64);
        let key = b"confined";
        let home = home_line(64, key);
        // A fresh table: the home slot is empty, so a single-slot value
        // fits inside a one-line range.
        let r = put_within(&store, key, &value_of(4), Some((home, home + 1))).unwrap();
        assert_eq!(r, Placement::Done(home));
        // Growing to a spanning value needs continuation lines the range
        // cannot provide: escalate, mutating nothing.
        let r = put_within(&store, key, &value_of(255), Some((home, home + 1))).unwrap();
        assert_eq!(r, Placement::Escalate);
        assert_eq!(get(&store, key), Some(value_of(4)), "escalation is a no-op");
        // The unconfined retry (what the caller does under full locks)
        // places it.
        assert!(matches!(
            put_within(&store, key, &value_of(255), None).unwrap(),
            Placement::Done(_)
        ));
        assert_eq!(get(&store, key), Some(value_of(255)));
        // An insert whose home line lies outside the allowed range must
        // escalate rather than claim a foreign head slot.
        let other = b"elsewhere";
        let oh = home_line(64, other);
        let far = if oh >= 2 { (0, 1) } else { (4, 5) };
        assert_eq!(
            put_within(&store, other, b"v", Some(far)).unwrap(),
            Placement::Escalate
        );
        assert_eq!(get(&store, other), None);
    }

    #[test]
    fn cont_slots_do_not_break_probe_chains() {
        // Force everything to hash-collide into a tiny table so probes
        // must walk across CONT and TOMBSTONE slots.
        let store = MemLines::new(8);
        put(&store, b"a", &value_of(60)).unwrap(); // head + 1 cont
        put(&store, b"b", &value_of(1)).unwrap();
        put(&store, b"c", &value_of(150)).unwrap(); // head + 2 conts
        assert_eq!(get(&store, b"a"), Some(value_of(60)));
        assert_eq!(get(&store, b"b"), Some(value_of(1)));
        assert_eq!(get(&store, b"c"), Some(value_of(150)));
        delete(&store, b"b").unwrap();
        assert_eq!(
            get(&store, b"c"),
            Some(value_of(150)),
            "probes pass tombstones"
        );
        let pairs = scan(&store).unwrap();
        assert_eq!(
            pairs.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            vec![b"a".to_vec(), b"c".to_vec()]
        );
    }
}

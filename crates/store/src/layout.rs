//! The on-media layout of a PiCL store file.
//!
//! ```text
//! offset 0        superblock (64 B, checksummed)
//! offset 4096     data region: `lines` x 64 B cache lines
//! after data      log region: `log_blocks` x 4 KB circular undo-log blocks
//! ```
//!
//! Log blocks are addressed by an ever-growing *sequence number*; block
//! `seq` lives at slot `seq % log_blocks`. Each block carries the store's
//! *generation* — recovery bumps the generation and resets the sequence
//! window, which atomically invalidates every block of the rolled-back
//! timeline (their epoch numbers are about to be reused, so replaying them
//! after a second crash would be unsound).
//!
//! All integers are little-endian; the superblock and every log block end
//! in an FNV-1a checksum so a torn or stale block reads as *absent*, never
//! as garbage.

use picl_types::hash::fnv1a_64;
use picl_types::{EpochId, LineAddr, LINE_BYTES};

/// Superblock magic: `PICLSTO1`.
pub const SB_MAGIC: u64 = u64::from_le_bytes(*b"PICLSTO1");
/// Log block magic: `PICLLOG1`.
pub const LOG_MAGIC: u64 = u64::from_le_bytes(*b"PICLLOG1");
/// Layout version. Version 2 checksums log blocks over 8-byte words;
/// every version-1 log block would read as torn, so a version-1 file is
/// rejected instead of opened without its rollback. Version 3 packs
/// record heads (`crate::slots`); a version-2 file's records would decode
/// at the wrong offsets, so it is rejected too.
pub const VERSION: u32 = 3;

/// Superblock size on media.
pub const SB_BYTES: u64 = 64;
/// Data region offset (superblock page).
pub const DATA_OFFSET: u64 = 4096;
/// One log block on media.
pub const LOG_BLOCK_BYTES: u64 = 4096;
/// Log block header size; entries follow.
pub const LOG_HEADER_BYTES: usize = 64;
/// One serialized undo entry: line u32 + pad + (ValidFrom, ValidTill) +
/// the 64-byte pre-image.
pub const ENTRY_BYTES: usize = 88;
/// Entries per 4 KB log block.
pub const ENTRIES_PER_BLOCK: usize = (LOG_BLOCK_BYTES as usize - LOG_HEADER_BYTES) / ENTRY_BYTES;
/// The paper's 2 KB coalescing undo buffer, in entries. (The hardware
/// packs 32 x 64 B; our entries carry the full 64 B pre-image plus
/// metadata, so 2 KB holds fewer.)
pub const UNDO_BUFFER_BYTES: usize = 2048;
/// Buffer capacity in entries.
pub const UNDO_BUFFER_ENTRIES: usize = UNDO_BUFFER_BYTES / ENTRY_BYTES;

// Geometry sanity, checked at compile time: the coalescing buffer holds a
// sensible number of full-line entries, and one 4 KB log block always has
// room for a full buffer drain.
const _: () = assert!(UNDO_BUFFER_ENTRIES >= 16);
const _: () = assert!(ENTRIES_PER_BLOCK >= UNDO_BUFFER_ENTRIES);
// The log-block checksum runs over whole 8-byte words.
const _: () = assert!(LOG_HEADER_BYTES.is_multiple_of(8) && ENTRY_BYTES.is_multiple_of(8));

/// One multi-undo log entry: the simulator's entry with the full 64-byte
/// line as its pre-image. `addr` is the line index within the data region.
pub type UndoEntry = picl_types::UndoEntry<[u8; LINE_BYTES as usize]>;

/// Static geometry of a store file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Data-region capacity in 64-byte lines.
    pub lines: u32,
    /// Log-region capacity in 4 KB blocks.
    pub log_blocks: u32,
}

impl Geometry {
    /// Total file length this geometry needs.
    pub fn total_len(&self) -> u64 {
        DATA_OFFSET
            + u64::from(self.lines) * LINE_BYTES
            + u64::from(self.log_blocks) * LOG_BLOCK_BYTES
    }

    /// Byte offset of data line `line`.
    pub fn data_off(&self, line: u32) -> u64 {
        debug_assert!(line < self.lines);
        DATA_OFFSET + u64::from(line) * LINE_BYTES
    }

    /// Byte offset of the log slot holding sequence number `seq`.
    pub fn log_slot_off(&self, seq: u64) -> u64 {
        DATA_OFFSET
            + u64::from(self.lines) * LINE_BYTES
            + (seq % u64::from(self.log_blocks)) * LOG_BLOCK_BYTES
    }
}

/// The durable root: geometry, frontiers, and the live log window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// Data/log geometry (immutable after creation).
    pub geometry: Geometry,
    /// The persist frontier: every epoch `<= persisted_eid` is durable.
    pub persisted_eid: u64,
    /// Timeline generation; bumped by every recovery.
    pub generation: u64,
    /// Oldest possibly-live log sequence number.
    pub log_start_seq: u64,
    /// Next log sequence number to write (blocks `[start, head)` are the
    /// live window; `head` itself may be stale on media — recovery probes
    /// forward from `start`).
    pub log_head_seq: u64,
}

fn put_u32(buf: &mut [u8], at: usize, v: u32) {
    buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut [u8], at: usize, v: u64) {
    buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

fn get_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"))
}

fn get_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
}

impl Superblock {
    /// Serializes to the 64-byte on-media form (checksum in the last 8
    /// bytes).
    pub fn encode(&self) -> [u8; SB_BYTES as usize] {
        let mut buf = [0u8; SB_BYTES as usize];
        put_u64(&mut buf, 0, SB_MAGIC);
        put_u32(&mut buf, 8, VERSION);
        put_u32(&mut buf, 12, self.geometry.lines);
        put_u32(&mut buf, 16, self.geometry.log_blocks);
        put_u64(&mut buf, 24, self.persisted_eid);
        put_u64(&mut buf, 32, self.generation);
        put_u64(&mut buf, 40, self.log_start_seq);
        put_u64(&mut buf, 48, self.log_head_seq);
        let sum = fnv1a_64(&buf[..56]);
        put_u64(&mut buf, 56, sum);
        buf
    }

    /// Parses and validates the on-media form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first validation failure (bad magic,
    /// version, checksum, or degenerate geometry).
    pub fn decode(buf: &[u8]) -> Result<Superblock, String> {
        if buf.len() < SB_BYTES as usize {
            return Err(format!("superblock truncated to {} bytes", buf.len()));
        }
        if get_u64(buf, 0) != SB_MAGIC {
            return Err("bad superblock magic (not a PiCL store)".into());
        }
        if get_u32(buf, 8) != VERSION {
            return Err(format!("unsupported layout version {}", get_u32(buf, 8)));
        }
        if get_u64(buf, 56) != fnv1a_64(&buf[..56]) {
            return Err("superblock checksum mismatch".into());
        }
        let geometry = Geometry {
            lines: get_u32(buf, 12),
            log_blocks: get_u32(buf, 16),
        };
        if geometry.lines == 0 || geometry.log_blocks < 2 {
            return Err(format!(
                "degenerate geometry: {} lines, {} log blocks",
                geometry.lines, geometry.log_blocks
            ));
        }
        Ok(Superblock {
            geometry,
            persisted_eid: get_u64(buf, 24),
            generation: get_u64(buf, 32),
            log_start_seq: get_u64(buf, 40),
            log_head_seq: get_u64(buf, 48),
        })
    }
}

/// A decoded log block: its identity and its entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogBlock {
    /// Timeline generation the block was written in.
    pub generation: u64,
    /// Sequence number (position in the logical log).
    pub seq: u64,
    /// The block's entries, in append order.
    pub entries: Vec<UndoEntry>,
    /// Max `valid_till` across entries: the block is dead once the
    /// persist frontier reaches it.
    pub max_valid_till: EpochId,
}

/// 64-bit FNV-1a over 8-byte little-endian words: one multiply per word
/// instead of per byte. Each step is a bijection of the running state,
/// so changing any one word always changes the digest.
fn fnv1a_64_words(bytes: &[u8]) -> u64 {
    // The FNV-1a 64-bit offset basis and prime.
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    debug_assert!(bytes.len().is_multiple_of(8), "a whole number of words");
    bytes
        .chunks_exact(8)
        .fold(OFFSET, |h, w| (h ^ get_u64(w, 0)).wrapping_mul(PRIME))
}

/// A log block's checksum: the 40 header bytes before it, and the entry
/// area up to `used`. Both are whole 8-byte words.
fn log_block_sum(buf: &[u8], used: usize) -> u64 {
    fnv1a_64_words(&buf[..40]) ^ fnv1a_64_words(&buf[LOG_HEADER_BYTES..used]).rotate_left(1)
}

/// Serializes one log block.
///
/// # Panics
///
/// Panics if `entries` exceeds [`ENTRIES_PER_BLOCK`] or is empty.
pub fn encode_log_block(generation: u64, seq: u64, entries: &[UndoEntry]) -> Vec<u8> {
    assert!(
        !entries.is_empty() && entries.len() <= ENTRIES_PER_BLOCK,
        "log block holds 1..={ENTRIES_PER_BLOCK} entries, got {}",
        entries.len()
    );
    let mut buf = vec![0u8; LOG_BLOCK_BYTES as usize];
    put_u64(&mut buf, 0, LOG_MAGIC);
    put_u64(&mut buf, 8, generation);
    put_u64(&mut buf, 16, seq);
    put_u32(&mut buf, 24, entries.len() as u32);
    let max_till = entries.iter().map(|e| e.valid_till.raw()).max();
    put_u64(&mut buf, 32, max_till.unwrap_or(0));
    for (i, e) in entries.iter().enumerate() {
        let at = LOG_HEADER_BYTES + i * ENTRY_BYTES;
        let line = u32::try_from(e.addr.raw()).expect("line index fits the u32 field");
        put_u32(&mut buf, at, line);
        put_u64(&mut buf, at + 8, e.valid_from.raw());
        put_u64(&mut buf, at + 16, e.valid_till.raw());
        buf[at + 24..at + 24 + LINE_BYTES as usize].copy_from_slice(&e.value);
    }
    let used = LOG_HEADER_BYTES + entries.len() * ENTRY_BYTES;
    let sum = log_block_sum(&buf, used);
    put_u64(&mut buf, 40, sum);
    buf
}

/// Reads a log slot's [`LOG_HEADER_BYTES`]-byte header: the block's
/// sequence number and the bytes it spans (header and entries) if the
/// magic matches, the generation is `generation` and the entry count is
/// in range; `None` otherwise. The checksum is not checked: a header
/// that passes may still start a torn block.
pub fn log_block_span(header: &[u8], generation: u64) -> Option<(u64, usize)> {
    if get_u64(header, 0) != LOG_MAGIC || get_u64(header, 8) != generation {
        return None;
    }
    let count = get_u32(header, 24) as usize;
    (1..=ENTRIES_PER_BLOCK)
        .contains(&count)
        .then(|| (get_u64(header, 16), LOG_HEADER_BYTES + count * ENTRY_BYTES))
}

/// Parses one log slot. Returns `None` for anything that is not a valid
/// block of generation `generation` (wrong magic, wrong generation, torn
/// contents): absent and torn are deliberately indistinguishable. The
/// entries are taken as written; a checksummed block whose entries make no
/// sense for the store (line out of range, empty validity range) is for
/// the caller to reject.
pub fn decode_log_block(buf: &[u8], generation: u64) -> Option<LogBlock> {
    if buf.len() < LOG_BLOCK_BYTES as usize {
        return None;
    }
    let (_, used) = log_block_span(buf, generation)?;
    if get_u64(buf, 40) != log_block_sum(buf, used) {
        return None;
    }
    let count = (used - LOG_HEADER_BYTES) / ENTRY_BYTES;
    let mut entries = Vec::with_capacity(count);
    for i in 0..count {
        let at = LOG_HEADER_BYTES + i * ENTRY_BYTES;
        let mut value = [0u8; LINE_BYTES as usize];
        value.copy_from_slice(&buf[at + 24..at + 24 + LINE_BYTES as usize]);
        entries.push(UndoEntry {
            addr: LineAddr::new(u64::from(get_u32(buf, at))),
            valid_from: EpochId(get_u64(buf, at + 8)),
            valid_till: EpochId(get_u64(buf, at + 16)),
            value,
        });
    }
    Some(LogBlock {
        generation,
        seq: get_u64(buf, 16),
        max_valid_till: EpochId(get_u64(buf, 32)),
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(line: u64, from: u64, till: u64, fill: u8) -> UndoEntry {
        UndoEntry::new(
            LineAddr::new(line),
            [fill; 64],
            EpochId(from),
            EpochId(till),
        )
    }

    #[test]
    fn geometry_offsets_are_disjoint() {
        let g = Geometry {
            lines: 100,
            log_blocks: 4,
        };
        assert_eq!(g.data_off(0), DATA_OFFSET);
        assert_eq!(g.data_off(99), DATA_OFFSET + 99 * 64);
        let log_base = DATA_OFFSET + 100 * 64;
        assert_eq!(g.log_slot_off(0), log_base);
        assert_eq!(g.log_slot_off(5), log_base + LOG_BLOCK_BYTES); // 5 % 4 = 1
        assert_eq!(g.total_len(), log_base + 4 * LOG_BLOCK_BYTES);
    }

    #[test]
    fn superblock_round_trips() {
        let sb = Superblock {
            geometry: Geometry {
                lines: 512,
                log_blocks: 8,
            },
            persisted_eid: 17,
            generation: 3,
            log_start_seq: 40,
            log_head_seq: 45,
        };
        let buf = sb.encode();
        assert_eq!(Superblock::decode(&buf).unwrap(), sb);
    }

    #[test]
    fn superblock_rejects_corruption() {
        let sb = Superblock {
            geometry: Geometry {
                lines: 1,
                log_blocks: 2,
            },
            persisted_eid: 0,
            generation: 1,
            log_start_seq: 0,
            log_head_seq: 0,
        };
        let mut buf = sb.encode();
        buf[24] ^= 1; // flip a persisted_eid bit
        assert!(Superblock::decode(&buf).unwrap_err().contains("checksum"));
        assert!(Superblock::decode(&[0u8; 64])
            .unwrap_err()
            .contains("magic"));
        assert!(Superblock::decode(&buf[..10])
            .unwrap_err()
            .contains("truncated"));
        // Well-formed superblocks of older versions: version 1's log
        // blocks carry the old checksum and version 2's records the
        // unpacked head, so neither file may open.
        for old in [1, 2] {
            let mut buf = sb.encode();
            put_u32(&mut buf, 8, old);
            let sum = fnv1a_64(&buf[..56]);
            put_u64(&mut buf, 56, sum);
            let err = Superblock::decode(&buf).unwrap_err();
            assert!(err.contains(&format!("version {old}")), "{err}");
        }
    }

    #[test]
    fn log_block_round_trips() {
        let entries = vec![entry(3, 0, 2, 0xAA), entry(9, 1, 2, 0xBB)];
        let buf = encode_log_block(7, 41, &entries);
        let block = decode_log_block(&buf, 7).unwrap();
        assert_eq!(block.seq, 41);
        assert_eq!(block.generation, 7);
        assert_eq!(block.max_valid_till, EpochId(2));
        assert_eq!(block.entries, entries);
    }

    #[test]
    fn log_block_rejects_wrong_generation_and_corruption() {
        let buf = encode_log_block(7, 41, &[entry(0, 0, 1, 1)]);
        assert!(decode_log_block(&buf, 8).is_none(), "stale generation");
        let used = LOG_HEADER_BYTES + ENTRY_BYTES;
        for at in (LOG_HEADER_BYTES..used).step_by(8) {
            for flip in [1u64, 0xFF << 48, u64::MAX] {
                let mut torn = buf.clone();
                put_u64(&mut torn, at, get_u64(&buf, at) ^ flip);
                assert!(decode_log_block(&torn, 7).is_none(), "torn word at {at}");
            }
        }
        let mut bad_count = buf;
        bad_count[24] = 0;
        assert!(decode_log_block(&bad_count, 7).is_none(), "zero count");
    }

    #[test]
    fn buffer_and_block_capacities() {
        // Pin the derived capacities so a format change is a conscious one
        // (the >= relations are compile-time asserts next to the consts).
        assert_eq!(UNDO_BUFFER_ENTRIES, 23);
        assert_eq!(ENTRIES_PER_BLOCK, 45);
    }
}

//! Per-line cache metadata and the word it packs into.
//!
//! [`CacheLineMeta`] is the readable form of a cached line's state: its
//! data token, dirty bit and PiCL's optional EID tag (Fig. 5b). The
//! hierarchy's tables hold each line as a [`Line`]: the same state with
//! the dirty bit and tag packed into one metadata word.
//!
//! # Metadata word layout
//!
//! ```text
//!   bit 63      DIRTY    line differs from its canonical NVM copy
//!   bit 62      TAGGED   the EID field is meaningful (PiCL's per-line tag)
//!   bit 61      OWNED    LLC only: the slot is a directory pointer and the
//!                        field holds the owning core, not an EID
//!   bits 60..56 (zero)   reserved
//!   bits 55..0  FIELD    EID raw value (TAGGED) or owner core id (OWNED)
//! ```
//!
//! Invariant: when `TAGGED` (or `OWNED`) is clear the `FIELD` bits are
//! zero, so whole-word equality doubles as semantic equality and "did the
//! tag change?" is one XOR + mask.

use picl_types::{EpochId, LineAddr};

/// Metadata word bit: the line is dirty.
pub const DIRTY: u64 = 1 << 63;
/// Metadata word bit: the `FIELD` bits carry an epoch-ID tag.
pub const TAGGED: u64 = 1 << 62;
/// Metadata word bit (LLC directory): the `FIELD` bits name the owning core.
pub const OWNED: u64 = 1 << 61;
/// Metadata word mask: the 56-bit EID / owner field.
pub const FIELD: u64 = (1 << 56) - 1;

/// Metadata carried by a cached line as it moves through the hierarchy.
///
/// This is the augmented cache entry of Fig. 5b: conventional state (valid
/// is implied by presence, dirty is explicit) plus PiCL's per-line EID tag.
/// The `value` field is the functional 64-bit stand-in for the line's data
/// (see `picl_nvm::state`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLineMeta {
    /// The line's current data token.
    pub value: u64,
    /// Whether the line differs from the copy at its canonical NVM address.
    pub dirty: bool,
    /// The epoch in which the line was last modified; `None` for lines
    /// loaded from memory that have not been stored to ("a line loaded from
    /// the memory to the LLC initially has no EID associated", §IV-A).
    pub eid: Option<EpochId>,
}

impl CacheLineMeta {
    /// Metadata for a line freshly filled from memory: clean, untagged.
    pub fn clean(value: u64) -> Self {
        CacheLineMeta {
            value,
            dirty: false,
            eid: None,
        }
    }

    /// Metadata for a dirty line tagged with the epoch that modified it.
    pub fn dirty(value: u64, eid: EpochId) -> Self {
        CacheLineMeta {
            value,
            dirty: true,
            eid: Some(eid),
        }
    }
}

/// A cached line as the hierarchy's tables hold it: the packed metadata
/// word (see the module docs for its layout) and the data token.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Line {
    /// Dirty bit, tag bit and EID, or the LLC directory's owner.
    pub word: u64,
    /// The line's current data token.
    pub value: u64,
}

/// Packs [`CacheLineMeta`] into a [`Line`].
///
/// # Panics
///
/// Debug-asserts the EID fits the 56-bit field (at one epoch per
/// microsecond that is two millennia of simulated time).
#[inline]
pub fn encode_line(meta: &CacheLineMeta) -> Line {
    let mut word = 0u64;
    if meta.dirty {
        word |= DIRTY;
    }
    if let Some(eid) = meta.eid {
        debug_assert!(eid.0 <= FIELD, "EID {} overflows the packed field", eid.0);
        word |= TAGGED | (eid.0 & FIELD);
    }
    Line {
        word,
        value: meta.value,
    }
}

/// Unpacks a [`Line`] into [`CacheLineMeta`].
#[inline]
pub fn decode_line(line: Line) -> CacheLineMeta {
    let word = line.word;
    debug_assert_eq!(word & OWNED, 0, "directory word decoded as line metadata");
    CacheLineMeta {
        value: line.value,
        dirty: word & DIRTY != 0,
        eid: (word & TAGGED != 0).then_some(EpochId(word & FIELD)),
    }
}

/// A dirty line extracted from the hierarchy for write-back — by an
/// eviction, a synchronous flush, or PiCL's asynchronous cache scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushLine {
    /// The line's address.
    pub addr: LineAddr,
    /// The data token to be written back.
    pub value: u64,
    /// The line's EID tag at extraction time.
    pub eid: Option<EpochId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let c = CacheLineMeta::clean(5);
        assert!(!c.dirty);
        assert_eq!(c.eid, None);
        assert_eq!(c.value, 5);

        let d = CacheLineMeta::dirty(6, EpochId(3));
        assert!(d.dirty);
        assert_eq!(d.eid, Some(EpochId(3)));
    }

    #[test]
    fn encode_decode_roundtrip() {
        for meta in [
            CacheLineMeta::clean(7),
            CacheLineMeta::dirty(9, EpochId(0)),
            CacheLineMeta::dirty(u64::MAX, EpochId(FIELD)),
            CacheLineMeta {
                value: 3,
                dirty: false,
                eid: Some(EpochId(12)),
            },
        ] {
            assert_eq!(decode_line(encode_line(&meta)), meta);
        }
    }

    #[test]
    fn untagged_words_have_zero_field() {
        let line = encode_line(&CacheLineMeta::clean(5));
        assert_eq!(line.word & (TAGGED | FIELD), 0);
        let line = encode_line(&CacheLineMeta {
            value: 5,
            dirty: true,
            eid: None,
        });
        assert_eq!(line.word & (TAGGED | FIELD), 0);
        assert_eq!(line.word, DIRTY);
    }
}

//! Epoch identifiers and epoch-state tracking (Table I).
//!
//! The paper divides execution into *epochs* (Table I): an executing epoch
//! (the current `SystemEID`), committed epochs (finished but not necessarily
//! durable), and persisted epochs (fully written to NVM, recoverable).
//!
//! Logically EIDs grow without bound; the hardware stores only a small
//! truncated tag (4 bits suffice per §IV-A). [`EpochId`] is the unbounded
//! logical identifier used throughout the simulator, and [`TaggedEid`] models
//! the truncated hardware tag together with the wraparound-safety condition
//! that makes the truncation lossless.
//!
//! [`EpochTracker`] maintains the `SystemEID`/`PersistedEID` pair and the
//! invariants between them: persistence never leads commit, and the live
//! window must fit the tag width. The simulator tracks 4-bit hardware tags;
//! the store engine keeps full-width tags and passes a width of 63.

/// An unbounded logical epoch identifier.
///
/// `EpochId(0)` is the state of memory before execution begins; the first
/// executing epoch is `EpochId(1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EpochId(pub u64);

impl EpochId {
    /// The pre-execution epoch: memory as it was at simulation start.
    pub const ZERO: EpochId = EpochId(0);

    /// Returns the raw epoch number.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The epoch immediately after this one.
    #[must_use]
    pub fn next(self) -> EpochId {
        EpochId(self.0 + 1)
    }

    /// The epoch immediately before this one.
    ///
    /// # Panics
    ///
    /// Panics if called on [`EpochId::ZERO`].
    #[must_use]
    pub fn prev(self) -> EpochId {
        assert!(self.0 > 0, "EpochId::ZERO has no predecessor");
        EpochId(self.0 - 1)
    }

    /// Epoch that is `gap` epochs before this one, saturating at zero.
    #[must_use]
    pub fn saturating_back(self, gap: u64) -> EpochId {
        EpochId(self.0.saturating_sub(gap))
    }

    /// The truncated hardware tag of this epoch for a given tag width.
    pub fn tag(self, bits: u32) -> TaggedEid {
        TaggedEid::new(self, bits)
    }
}

impl std::fmt::Display for EpochId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "E{}", self.0)
    }
}

impl From<u64> for EpochId {
    fn from(raw: u64) -> Self {
        EpochId(raw)
    }
}

/// A truncated epoch tag as stored in hardware (§IV-A: "4-bit values are
/// sufficient").
///
/// The truncation is lossless as long as the spread of live epochs — from the
/// oldest unpersisted epoch to the current `SystemEID` — stays below
/// `2^bits`. [`TaggedEid::reconstruct`] recovers the full [`EpochId`] under
/// that condition, and [`wraparound_safe`] states the condition itself so the
/// simulator can assert it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaggedEid {
    tag: u16,
    bits: u32,
}

impl TaggedEid {
    /// Truncates `eid` to its low `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or greater than 16.
    pub fn new(eid: EpochId, bits: u32) -> Self {
        assert!((1..=16).contains(&bits), "tag width must be 1..=16 bits");
        TaggedEid {
            tag: (eid.0 & ((1u64 << bits) - 1)) as u16,
            bits,
        }
    }

    /// The raw truncated tag value.
    pub fn raw(self) -> u16 {
        self.tag
    }

    /// The tag width in bits.
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// Reconstructs the full epoch id given any *reference* epoch known to be
    /// within `2^bits - 1` epochs at or after the tagged epoch (typically the
    /// current `SystemEID`).
    ///
    /// Returns the unique `EpochId <= reference` whose truncation equals this
    /// tag.
    pub fn reconstruct(self, reference: EpochId) -> EpochId {
        let modulus = 1u64 << self.bits;
        let ref_tag = reference.0 & (modulus - 1);
        let back = (ref_tag + modulus - u64::from(self.tag)) % modulus;
        EpochId(reference.0 - back)
    }
}

impl std::fmt::Display for TaggedEid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{:#x}/{}b", self.tag, self.bits)
    }
}

/// Whether the live-epoch window `[oldest, newest]` can be represented
/// without ambiguity by tags of the given width.
///
/// This is the wraparound-safety condition the hardware must maintain: the
/// ACS engine may never let persistence lag execution by `2^bits` or more
/// epochs.
pub fn wraparound_safe(oldest: EpochId, newest: EpochId, bits: u32) -> bool {
    newest.0 - oldest.0 < (1u64 << bits)
}

/// Tracks the executing, committed, and persisted epoch identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochTracker {
    system: EpochId,
    persisted: EpochId,
    eid_bits: u32,
}

impl EpochTracker {
    /// A fresh tracker: epoch 0 is the pre-execution memory image (already
    /// trivially persisted); epoch 1 is executing.
    pub fn new(eid_bits: u32) -> Self {
        EpochTracker::recovered(EpochId::ZERO, eid_bits)
    }

    /// A tracker resuming after `persisted`: that epoch is the durable
    /// image, and execution continues in the epoch after it.
    pub fn recovered(persisted: EpochId, eid_bits: u32) -> Self {
        EpochTracker {
            system: persisted.next(),
            persisted,
            eid_bits,
        }
    }

    /// The currently executing (uncommitted) epoch — `SystemEID`.
    pub fn system(&self) -> EpochId {
        self.system
    }

    /// The most recently committed epoch (`SystemEID − 1`), or `None` if
    /// nothing has committed yet.
    pub fn committed(&self) -> Option<EpochId> {
        (self.system.raw() > 1).then(|| self.system.prev())
    }

    /// The most recent persisted (recoverable) epoch — `PersistedEID`.
    pub fn persisted(&self) -> EpochId {
        self.persisted
    }

    /// Whether committing now would grow the live window past the EID tag
    /// width. This is the §IV-A backpressure signal: when it reads `true`
    /// the scheme must persist (ACS catch-up, log flush) before opening
    /// another epoch, because in-cache EID tags could no longer
    /// distinguish the oldest unpersisted epoch from the newest.
    pub fn commit_would_overflow(&self) -> bool {
        !wraparound_safe(self.persisted, self.system.next(), self.eid_bits)
    }

    /// Commits the executing epoch; a new epoch begins executing.
    /// Returns the epoch that just committed.
    ///
    /// # Panics
    ///
    /// Panics if the post-commit live window would overflow the EID tag
    /// width (§IV-A). Hardware would have to stall the pipeline here;
    /// callers can query [`commit_would_overflow`](Self::commit_would_overflow)
    /// first to apply backpressure instead.
    pub fn commit(&mut self) -> EpochId {
        assert!(
            !self.commit_would_overflow(),
            "committing {} with persisted {} overflows {}-bit EID tags (§IV-A): \
             persist before opening another epoch",
            self.system,
            self.persisted,
            self.eid_bits
        );
        let committed = self.system;
        self.system = self.system.next();
        committed
    }

    /// Marks `epoch` persisted.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is not committed yet, regresses persistence, or
    /// the resulting live window would overflow the EID tag width.
    pub fn persist(&mut self, epoch: EpochId) {
        assert!(
            epoch < self.system,
            "cannot persist the executing epoch {epoch}"
        );
        assert!(
            epoch >= self.persisted,
            "persistence cannot regress from {} to {epoch}",
            self.persisted
        );
        self.persisted = epoch;
        assert!(
            wraparound_safe(self.persisted, self.system, self.eid_bits),
            "live window {}..{} overflows {}-bit EID tags",
            self.persisted,
            self.system,
            self.eid_bits
        );
    }

    /// Number of committed-but-unpersisted epochs in flight.
    pub fn in_flight(&self) -> u64 {
        self.system.raw() - 1 - self.persisted.raw()
    }

    /// Resets to post-recovery state: execution resumes in the epoch after
    /// the persisted one.
    pub fn resume_after_recovery(&mut self) {
        self.system = self.persisted.next();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_prev() {
        let e = EpochId(5);
        assert_eq!(e.next(), EpochId(6));
        assert_eq!(e.prev(), EpochId(4));
        assert_eq!(e.saturating_back(3), EpochId(2));
        assert_eq!(e.saturating_back(10), EpochId::ZERO);
    }

    #[test]
    #[should_panic(expected = "no predecessor")]
    fn prev_of_zero_panics() {
        let _ = EpochId::ZERO.prev();
    }

    #[test]
    fn tag_truncates() {
        let t = EpochId(0x123).tag(4);
        assert_eq!(t.raw(), 0x3);
        assert_eq!(t.bits(), 4);
    }

    #[test]
    fn reconstruct_within_window() {
        // Tag width 4: window of 16 epochs.
        for base in [0u64, 13, 100, 4093] {
            let reference = EpochId(base + 15);
            for off in 0..16 {
                let eid = EpochId(base + off);
                let t = eid.tag(4);
                assert_eq!(t.reconstruct(reference), eid, "base={base} off={off}");
            }
        }
    }

    #[test]
    fn reconstruct_is_ambiguous_outside_window() {
        // An epoch 16 back aliases with the reference itself under 4 bits.
        let reference = EpochId(32);
        let stale = EpochId(16);
        assert_eq!(stale.tag(4).reconstruct(reference), reference);
        assert!(!wraparound_safe(stale, reference, 4));
        assert!(wraparound_safe(EpochId(17), reference, 4));
    }

    #[test]
    #[should_panic(expected = "tag width")]
    fn zero_width_tag_panics() {
        let _ = EpochId(1).tag(0);
    }

    #[test]
    fn display() {
        assert_eq!(EpochId(7).to_string(), "E7");
        assert_eq!(EpochId(7).tag(4).to_string(), "T0x7/4b");
    }

    #[test]
    fn initial_state() {
        let t = EpochTracker::new(4);
        assert_eq!(t.system(), EpochId(1));
        assert_eq!(t.persisted(), EpochId::ZERO);
        assert_eq!(t.committed(), None);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn commit_advances_system() {
        let mut t = EpochTracker::new(4);
        assert_eq!(t.commit(), EpochId(1));
        assert_eq!(t.system(), EpochId(2));
        assert_eq!(t.committed(), Some(EpochId(1)));
        assert_eq!(t.in_flight(), 1);
    }

    #[test]
    fn persist_catches_up() {
        let mut t = EpochTracker::new(4);
        for _ in 0..5 {
            t.commit();
        }
        assert_eq!(t.in_flight(), 5);
        t.persist(EpochId(2));
        assert_eq!(t.persisted(), EpochId(2));
        assert_eq!(t.in_flight(), 3);
    }

    #[test]
    #[should_panic(expected = "cannot persist the executing epoch")]
    fn persisting_executing_epoch_panics() {
        let mut t = EpochTracker::new(4);
        t.persist(EpochId(1));
    }

    #[test]
    #[should_panic(expected = "cannot regress")]
    fn persistence_regression_panics() {
        let mut t = EpochTracker::new(4);
        for _ in 0..4 {
            t.commit();
        }
        t.persist(EpochId(3));
        t.persist(EpochId(1));
    }

    #[test]
    #[should_panic(expected = "overflows 2-bit EID tags")]
    fn commit_past_the_tag_window_panics() {
        let mut t = EpochTracker::new(2); // window of 4
        t.commit(); // system 1 -> 2, window 2
        t.commit(); // system 2 -> 3, window 3
        t.commit(); // system 3 -> 4 would need window 4 — overflow
    }

    #[test]
    fn commit_backpressure_query_tracks_the_window() {
        let mut t = EpochTracker::new(2); // window of 4
        assert!(!t.commit_would_overflow());
        t.commit();
        t.commit();
        // system = 3, persisted = 0: one more commit needs window 4.
        assert!(t.commit_would_overflow());
        // Persisting an epoch shrinks the window and releases backpressure.
        t.persist(EpochId(1));
        assert!(!t.commit_would_overflow());
        assert_eq!(t.commit(), EpochId(3));
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn persist_still_checks_the_window() {
        // Belt and braces: even if a caller bypassed commit-time
        // enforcement (e.g. state restored by hand), persist re-checks.
        let mut t = EpochTracker {
            system: EpochId(7),
            persisted: EpochId::ZERO,
            eid_bits: 2,
        };
        t.persist(EpochId(1));
    }

    #[test]
    fn resume_after_recovery_rewinds_system() {
        let mut t = EpochTracker::new(8);
        for _ in 0..10 {
            t.commit();
        }
        t.persist(EpochId(6));
        t.resume_after_recovery();
        assert_eq!(t.system(), EpochId(7));
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn recovered_resumes_after_the_persisted_epoch() {
        let t = EpochTracker::recovered(EpochId(9), 63);
        assert_eq!(t.system(), EpochId(10));
        assert_eq!(t.persisted(), EpochId(9));
        assert_eq!(t.committed(), Some(EpochId(9)));
        assert_eq!(t.in_flight(), 0);
        assert_eq!(
            EpochTracker::new(4),
            EpochTracker::recovered(EpochId::ZERO, 4)
        );
    }
}

//! The Ideal NVM baseline: no checkpointing, no crash consistency.
//!
//! Every figure in the paper normalizes to this model. Evictions write in
//! place, epoch boundaries are free, and a crash leaves main memory in
//! whatever (possibly inconsistent) state the eviction stream produced —
//! the `crash_recovery` example uses exactly that to demonstrate the
//! corruption PiCL prevents.

use picl_cache::{
    BoundaryOutcome, ConsistencyScheme, EvictRoute, EvictionEvent, Hierarchy, RecoveryOutcome,
    SchemeStats, StoreDirective, StoreEvent,
};
use picl_nvm::Nvm;
use picl_telemetry::{EventKind, Telemetry};
use picl_types::{stats::Counter, Cycle, EpochId};

/// The unprotected baseline.
#[derive(Debug, Default)]
pub struct IdealNvm {
    system: EpochId,
    commits: Counter,
    telemetry: Telemetry,
}

impl IdealNvm {
    /// Creates the baseline scheme.
    pub fn new() -> Self {
        IdealNvm {
            system: EpochId(1),
            commits: Counter::new(),
            telemetry: Telemetry::off(),
        }
    }
}

impl ConsistencyScheme for IdealNvm {
    fn name(&self) -> &'static str {
        "Ideal"
    }

    fn system_eid(&self) -> EpochId {
        self.system
    }

    /// Nothing ever persists: there is no recovery target.
    fn persisted_eid(&self) -> EpochId {
        EpochId::ZERO
    }

    fn on_store(&mut self, _: &StoreEvent, _: &mut Nvm, _: Cycle) -> StoreDirective {
        StoreDirective::default()
    }

    fn on_dirty_eviction(&mut self, _: &EvictionEvent, _: &mut Nvm, _: Cycle) -> EvictRoute {
        EvictRoute::InPlace
    }

    fn on_epoch_boundary(&mut self, _: &mut Hierarchy, _: &mut Nvm, now: Cycle) -> BoundaryOutcome {
        let committed = self.system;
        self.system = self.system.next();
        self.commits.incr();
        self.telemetry
            .record(now, None, EventKind::EpochCommit { eid: committed });
        BoundaryOutcome {
            committed,
            stall_until: None,
        }
    }

    /// No durable log exists; memory is left exactly as the crash found it
    /// (torn between epochs).
    fn crash_recover(&mut self, _: &mut Nvm, now: Cycle) -> RecoveryOutcome {
        RecoveryOutcome {
            recovered_to: EpochId::ZERO,
            entries_applied: 0,
            completed_at: now,
        }
    }

    fn stats(&self) -> SchemeStats {
        SchemeStats {
            commits: self.commits.get(),
            ..SchemeStats::default()
        }
    }

    fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picl_types::config::NvmConfig;
    use picl_types::time::ClockDomain;
    use picl_types::{LineAddr, SystemConfig};

    #[test]
    fn boundary_is_free_and_counts() {
        let mut s = IdealNvm::new();
        let mut h = Hierarchy::new(&SystemConfig::paper_single_core());
        let mut m = Nvm::new(NvmConfig::paper_nvm(), ClockDomain::from_mhz(2000));
        let out = s.on_epoch_boundary(&mut h, &mut m, Cycle(5));
        assert_eq!(out.committed, EpochId(1));
        assert_eq!(out.stall_until, None);
        assert_eq!(s.system_eid(), EpochId(2));
        assert_eq!(s.stats().commits, 1);
    }

    #[test]
    fn recovery_restores_nothing() {
        let mut s = IdealNvm::new();
        let mut m = Nvm::new(NvmConfig::paper_nvm(), ClockDomain::from_mhz(2000));
        m.set_line(LineAddr::new(1), 99);
        let out = s.crash_recover(&mut m, Cycle(7));
        assert_eq!(out.recovered_to, EpochId::ZERO);
        assert_eq!(out.entries_applied, 0);
        assert_eq!(
            m.state().read_line(LineAddr::new(1)),
            99,
            "memory untouched"
        );
    }
}

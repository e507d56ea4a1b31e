//! System configuration.
//!
//! [`SystemConfig`] mirrors Table IV of the paper:
//!
//! > 2.0 GHz in-order x86, CPI 1 for non-memory instructions; 32 KB 4-way
//! > single-cycle L1; 256 KB 8-way 4-cycle L2; 2 MB-per-core 8-way 30-cycle
//! > LLC; 64-bit 12.8 GB/s memory link; FCFS controller, closed-page;
//! > 128 ns row read, 368 ns row write.
//!
//! plus the PiCL parameters from §III–IV (2 KB undo buffer ≙ 32 entries,
//! 4096-bit bloom filter, 4-bit EID tags, ACS-gap 3, 30 M-instruction
//! epochs) and the baseline translation-table geometry from §VI-A (6144
//! entries, 16-way; ThyNVM 2048 block + 4096 page entries).
//!
//! Configs are plain data with public fields; [`SystemConfig::validate`]
//! checks cross-field invariants before a simulation is built.

use crate::addr::LINE_BYTES;
use crate::time::{ClockDomain, Cycle, Picoseconds};

/// Most ways a cache level or translation table can have: the simulator
/// ranks a set's ways by recency in the 16 nibbles of one `u64`.
pub const MAX_WAYS: usize = 16;

/// Why a cache level or table with more than [`MAX_WAYS`] ways is rejected.
pub const TOO_MANY_WAYS: &str = "ways must be at most 16, the ways a set's recency order holds";

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Access (hit) latency in core cycles.
    pub latency: Cycle,
}

impl CacheConfig {
    /// Creates a cache configuration.
    pub fn new(size_bytes: u64, ways: usize, latency: Cycle) -> Self {
        CacheConfig {
            size_bytes,
            ways,
            latency,
        }
    }

    /// Number of sets implied by the size, associativity, and 64 B lines.
    pub fn sets(&self) -> usize {
        (self.size_bytes / LINE_BYTES) as usize / self.ways
    }

    /// Total number of lines this cache can hold.
    pub fn lines(&self) -> usize {
        (self.size_bytes / LINE_BYTES) as usize
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the size is not an exact multiple of
    /// `ways × 64 B`, the set count is not a power of two, or the ways
    /// exceed [`MAX_WAYS`].
    pub fn validate(&self, what: &'static str) -> Result<(), ConfigError> {
        if self.ways == 0 || self.size_bytes == 0 {
            return Err(ConfigError::new(what, "size and ways must be nonzero"));
        }
        if self.ways > MAX_WAYS {
            return Err(ConfigError::new(what, TOO_MANY_WAYS));
        }
        if !self
            .size_bytes
            .is_multiple_of(LINE_BYTES * self.ways as u64)
        {
            return Err(ConfigError::new(
                what,
                "size must divide into ways of 64 B lines",
            ));
        }
        if !self.sets().is_power_of_two() {
            return Err(ConfigError::new(what, "set count must be a power of two"));
        }
        Ok(())
    }
}

/// Row-buffer management policy of the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowPolicy {
    /// Rows stay open between requests; a subsequent access to the same
    /// row pays only the row-hit latency.
    Open,
    /// Rows close after every request (Table IV): each request pays the
    /// full activate latency, and only a single *bulk* request streams
    /// multiple lines under one activation.
    Closed,
}

/// Timing and geometry of the NVM device and its memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NvmConfig {
    /// Latency of a read that misses the row buffer (Table IV: 128 ns).
    pub row_read_miss: Picoseconds,
    /// Latency of a write that misses the row buffer (Table IV: 368 ns).
    pub row_write_miss: Picoseconds,
    /// Latency of an access that hits the open row.
    pub row_hit: Picoseconds,
    /// Row buffer size in bytes (§II-C: at least 2 KB in current products).
    pub row_buffer_bytes: u64,
    /// Number of independent banks. Capacity-optimized NVM devices expose
    /// far less bank-level parallelism than DRAM (§II-C: low random-access
    /// IOPS); four concurrent activations is representative.
    pub banks: usize,
    /// Memory link bandwidth in bytes per core cycle ×1000 (milli-bytes per
    /// cycle), so a 12.8 GB/s link at 2 GHz is 6400.
    pub link_millibytes_per_cycle: u64,
    /// Row-buffer policy (Table IV: closed-page).
    pub row_policy: RowPolicy,
    /// Pages of memory-side write-through DRAM cache (§IV-C extension);
    /// zero disables the buffer (the paper's evaluated configuration).
    pub dram_buffer_pages: usize,
    /// DRAM-buffer hit latency.
    pub dram_hit: Picoseconds,
}

impl NvmConfig {
    /// The paper's NVM: 128/368 ns row misses, 2 KB rows, 12.8 GB/s link.
    pub fn paper_nvm() -> Self {
        NvmConfig {
            row_read_miss: Picoseconds::from_ns(128),
            row_write_miss: Picoseconds::from_ns(368),
            row_hit: Picoseconds::from_ns(15),
            row_buffer_bytes: 2048,
            banks: 4,
            link_millibytes_per_cycle: 6400,
            row_policy: RowPolicy::Closed,
            dram_buffer_pages: 0,
            dram_hit: Picoseconds::from_ns(50),
        }
    }

    /// An idealized DRAM-like device used for sanity comparisons: uniform
    /// fast access, ample bank parallelism, open rows.
    pub fn ideal_dram() -> Self {
        NvmConfig {
            row_read_miss: Picoseconds::from_ns(50),
            row_write_miss: Picoseconds::from_ns(50),
            row_hit: Picoseconds::from_ns(15),
            row_buffer_bytes: 2048,
            banks: 16,
            link_millibytes_per_cycle: 6400,
            row_policy: RowPolicy::Open,
            dram_buffer_pages: 0,
            dram_hit: Picoseconds::from_ns(50),
        }
    }

    /// Cycles the link needs to transfer `bytes` at the configured bandwidth.
    pub fn link_cycles(&self, bytes: u64) -> Cycle {
        Cycle((bytes * 1000).div_ceil(self.link_millibytes_per_cycle))
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if geometry fields are zero or the row buffer
    /// is smaller than one cache line.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.banks == 0 {
            return Err(ConfigError::new("nvm", "bank count must be nonzero"));
        }
        if self.row_buffer_bytes < LINE_BYTES {
            return Err(ConfigError::new(
                "nvm",
                "row buffer must hold at least one line",
            ));
        }
        if self.link_millibytes_per_cycle == 0 {
            return Err(ConfigError::new("nvm", "link bandwidth must be nonzero"));
        }
        Ok(())
    }
}

/// Epoch, logging, and ACS parameters (§III–IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochConfig {
    /// Epoch length in retired instructions per core (§VI-A: 30 M).
    pub epoch_len_instructions: u64,
    /// ACS-gap: how many epochs persistence trails commit (§III-C, Fig. 4
    /// shows a gap of three).
    pub acs_gap: u64,
    /// Capacity of the on-chip undo buffer in entries (§IV-A: 32 entries,
    /// flushed as a 2 KB sequential write).
    pub undo_buffer_entries: usize,
    /// Bloom filter size in bits (§III-B: 4096 bits vs 32-entry capacity).
    pub bloom_bits: usize,
    /// Width of the per-line EID tag in bits (§IV-A: 4 bits suffice).
    pub eid_bits: u32,
}

impl EpochConfig {
    /// The paper's defaults.
    pub fn paper_default() -> Self {
        EpochConfig {
            epoch_len_instructions: 30_000_000,
            acs_gap: 3,
            undo_buffer_entries: 32,
            bloom_bits: 4096,
            eid_bits: 4,
        }
    }

    /// Checks internal consistency, including 4-bit-tag wraparound safety:
    /// the ACS-gap plus one executing epoch must fit in the tag window.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any parameter is zero where disallowed or
    /// the ACS gap is too large for the tag width.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.epoch_len_instructions == 0 {
            return Err(ConfigError::new("epoch", "epoch length must be nonzero"));
        }
        if self.undo_buffer_entries == 0 {
            return Err(ConfigError::new(
                "epoch",
                "undo buffer must hold at least one entry",
            ));
        }
        if self.bloom_bits == 0 || !self.bloom_bits.is_power_of_two() {
            return Err(ConfigError::new(
                "epoch",
                "bloom bits must be a nonzero power of two",
            ));
        }
        if !(1..=16).contains(&self.eid_bits) {
            return Err(ConfigError::new(
                "epoch",
                "EID tag width must be 1..=16 bits",
            ));
        }
        // Live window: persisting epoch .. SystemEID, spread = acs_gap + 1.
        if self.acs_gap + 2 >= (1u64 << self.eid_bits) {
            return Err(ConfigError::new(
                "epoch",
                "ACS gap too large for EID tag width",
            ));
        }
        Ok(())
    }
}

/// Why a ThyNVM block table that fills no whole set is rejected.
pub const THYNVM_BLOCKS_NOT_SETS: &str = "thynvm block entries must be a nonzero multiple of ways";

/// Why a ThyNVM page table that fills no whole set is rejected.
pub const THYNVM_PAGES_NOT_SETS: &str = "thynvm page entries must be a nonzero multiple of ways";

/// Translation-table geometry for the redo-based baselines (§VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableConfig {
    /// Total entries in the Journaling / Shadow-Paging translation table.
    pub entries: usize,
    /// Associativity of the table.
    pub ways: usize,
    /// ThyNVM block-granularity (64 B) table entries.
    pub thynvm_block_entries: usize,
    /// ThyNVM page-granularity (4 KB) table entries.
    pub thynvm_page_entries: usize,
}

impl TableConfig {
    /// The paper's table geometry: 6144 entries, 16-way; ThyNVM 2048 + 4096.
    pub fn paper_default() -> Self {
        TableConfig {
            entries: 6144,
            ways: 16,
            thynvm_block_entries: 2048,
            thynvm_page_entries: 4096,
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the ways exceed [`MAX_WAYS`], or if any
    /// of the three tables' entries is zero or does not divide evenly
    /// into ways.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.ways == 0 {
            return Err(ConfigError::new("table", "ways must be nonzero"));
        }
        if self.ways > MAX_WAYS {
            return Err(ConfigError::new("table", TOO_MANY_WAYS));
        }
        for (entries, reason) in [
            (self.entries, "entries must be a nonzero multiple of ways"),
            (self.thynvm_block_entries, THYNVM_BLOCKS_NOT_SETS),
            (self.thynvm_page_entries, THYNVM_PAGES_NOT_SETS),
        ] {
            if entries == 0 || !entries.is_multiple_of(self.ways) {
                return Err(ConfigError::new("table", reason));
            }
        }
        Ok(())
    }
}

/// Full system configuration (Table IV plus scheme parameters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemConfig {
    /// Number of cores.
    pub cores: usize,
    /// Core clock frequency in MHz (Table IV: 2.0 GHz).
    pub clock_mhz: u64,
    /// Private per-core L1 data cache.
    pub l1: CacheConfig,
    /// Private per-core L2 cache.
    pub l2: CacheConfig,
    /// Shared LLC capacity *per core* (Table IV: 2 MB per core).
    pub llc_per_core: CacheConfig,
    /// NVM device and controller parameters.
    pub nvm: NvmConfig,
    /// Epoch / PiCL parameters.
    pub epoch: EpochConfig,
    /// Baseline translation-table parameters.
    pub table: TableConfig,
}

impl SystemConfig {
    /// The paper's single-core configuration (Fig. 9 experiments).
    pub fn paper_single_core() -> Self {
        SystemConfig {
            cores: 1,
            clock_mhz: 2000,
            l1: CacheConfig::new(32 * 1024, 4, Cycle(1)),
            l2: CacheConfig::new(256 * 1024, 8, Cycle(4)),
            llc_per_core: CacheConfig::new(2 * 1024 * 1024, 8, Cycle(30)),
            nvm: NvmConfig::paper_nvm(),
            epoch: EpochConfig::paper_default(),
            table: TableConfig::paper_default(),
        }
    }

    /// The paper's eight-core configuration (Fig. 10 experiments): the LLC
    /// scales to 16 MB total.
    pub fn paper_multicore(cores: usize) -> Self {
        SystemConfig {
            cores,
            ..Self::paper_single_core()
        }
    }

    /// The total shared LLC configuration (per-core slice × core count).
    pub fn llc_total(&self) -> CacheConfig {
        CacheConfig {
            size_bytes: self.llc_per_core.size_bytes * self.cores as u64,
            ..self.llc_per_core
        }
    }

    /// The core clock domain.
    pub fn clock(&self) -> ClockDomain {
        ClockDomain::from_mhz(self.clock_mhz)
    }

    /// Checks all cross-field invariants.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found in any component.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 {
            return Err(ConfigError::new("system", "core count must be nonzero"));
        }
        if self.clock_mhz == 0 {
            return Err(ConfigError::new(
                "system",
                "clock frequency must be nonzero",
            ));
        }
        self.l1.validate("l1")?;
        self.l2.validate("l2")?;
        self.llc_total().validate("llc")?;
        self.nvm.validate()?;
        self.epoch.validate()?;
        self.table.validate()?;
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper_single_core()
    }
}

/// An invalid configuration was supplied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    component: &'static str,
    reason: &'static str,
}

impl ConfigError {
    fn new(component: &'static str, reason: &'static str) -> Self {
        ConfigError { component, reason }
    }

    /// Which configuration component was invalid (`"l1"`, `"nvm"`, …).
    pub fn component(&self) -> &str {
        self.component
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid {} configuration: {}",
            self.component, self.reason
        )
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        let cfg = SystemConfig::paper_single_core();
        cfg.validate().unwrap();
        assert_eq!(cfg.l1.sets(), 128);
        assert_eq!(cfg.l2.sets(), 512);
        assert_eq!(cfg.llc_per_core.sets(), 4096);
        assert_eq!(cfg.llc_per_core.lines(), 32768);
    }

    #[test]
    fn multicore_scales_llc() {
        let cfg = SystemConfig::paper_multicore(8);
        cfg.validate().unwrap();
        assert_eq!(cfg.llc_total().size_bytes, 16 * 1024 * 1024);
        assert_eq!(cfg.llc_total().sets(), 32768);
    }

    #[test]
    fn link_transfer_cycles() {
        let nvm = NvmConfig::paper_nvm();
        // 12.8 GB/s at 2 GHz = 6.4 B/cycle; a 64 B line takes 10 cycles.
        assert_eq!(nvm.link_cycles(64), Cycle(10));
        // A 2 KB bulk write takes 320 cycles of link time.
        assert_eq!(nvm.link_cycles(2048), Cycle(320));
    }

    #[test]
    fn bad_cache_geometry_rejected() {
        let mut cfg = SystemConfig::paper_single_core();
        cfg.l1.ways = 3; // 32768/64/3 is not integral
        assert_eq!(cfg.validate().unwrap_err().component(), "l1");
        cfg.l1 = CacheConfig::new(0, 4, Cycle(1));
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn ways_beyond_the_recency_order_rejected() {
        // 64 sets of 64 B lines at any width: only the way count varies.
        let level = |ways: usize| CacheConfig::new(64 * 64 * ways as u64, ways, Cycle(1));
        let mut cfg = SystemConfig::paper_single_core();
        cfg.l2 = level(16);
        cfg.validate().unwrap();
        cfg.l2 = level(17);
        let err = cfg.validate().unwrap_err();
        assert_eq!(err.component(), "l2");
        assert!(err.to_string().contains(TOO_MANY_WAYS), "{err}");
        let mut cfg = SystemConfig::paper_single_core();
        cfg.llc_per_core = level(17);
        assert_eq!(cfg.validate().unwrap_err().component(), "llc");
    }

    #[test]
    fn acs_gap_wraparound_guard() {
        let mut cfg = SystemConfig::paper_single_core();
        cfg.epoch.acs_gap = 14; // needs 16-epoch window; 4-bit tags hold < 16
        assert_eq!(cfg.validate().unwrap_err().component(), "epoch");
        cfg.epoch.acs_gap = 13;
        cfg.validate().unwrap();
    }

    #[test]
    fn error_display() {
        let err = SystemConfig {
            cores: 0,
            ..SystemConfig::paper_single_core()
        }
        .validate()
        .unwrap_err();
        assert!(err.to_string().contains("core count"));
    }

    #[test]
    fn table_geometry_rejected() {
        let mut cfg = SystemConfig::paper_single_core();
        cfg.table.ways = 5;
        assert_eq!(cfg.validate().unwrap_err().component(), "table");
    }

    #[test]
    fn table_ways_beyond_the_recency_order_rejected() {
        let mut table = TableConfig::paper_default();
        table.validate().unwrap();
        table.ways = 17;
        table.entries = 17 * 384;
        let err = table.validate().unwrap_err();
        assert_eq!(err.component(), "table");
        assert!(err.to_string().contains(TOO_MANY_WAYS), "{err}");
    }

    #[test]
    fn thynvm_tables_must_fill_whole_sets() {
        for (reason, set) in [
            (
                THYNVM_BLOCKS_NOT_SETS,
                (|t, n| t.thynvm_block_entries = n) as fn(&mut TableConfig, usize),
            ),
            (THYNVM_PAGES_NOT_SETS, |t, n| t.thynvm_page_entries = n),
        ] {
            // Fewer entries than ways (no whole set), none, a remainder.
            for entries in [8, 0, 2056] {
                let mut table = TableConfig::paper_default();
                set(&mut table, entries);
                let err = table.validate().unwrap_err();
                assert_eq!(err.component(), "table");
                assert!(err.to_string().contains(reason), "{entries}: {err}");
            }
            let mut table = TableConfig::paper_default();
            set(&mut table, 16);
            table.validate().unwrap();
        }
    }
}

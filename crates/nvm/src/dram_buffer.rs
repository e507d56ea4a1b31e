//! Write-through DRAM memory-side cache (§IV-C "DRAM Buffer Extensions").
//!
//! Systems with low-IOPS NVM often add a DRAM layer caching hot memory at
//! page granularity. The paper's observation: with a **write-through**
//! DRAM cache, PiCL needs no modification at all — every write still
//! reaches NVM in the same order, so undo logging and recovery semantics
//! are untouched; the DRAM only accelerates reads.
//!
//! [`DramBuffer`] models exactly that: a page-granularity, LRU,
//! fixed-capacity read cache in front of the NVM timing model. Writes
//! allocate (the page is hot) but always pass through. Because it is
//! purely a timing-side structure, it holds no data — functional contents
//! stay in the [`Nvm`](crate::Nvm)'s state, which is what makes
//! the transparency argument checkable: with or without the buffer, the
//! functional image is identical.

use picl_types::hash::FastMap;
use picl_types::{stats::Counter, Cycle, PageAddr};

/// A page-granularity write-through DRAM cache (timing only).
#[derive(Debug, Clone)]
pub struct DramBuffer {
    pages: FastMap<PageAddr, u64>,
    capacity_pages: usize,
    hit_latency: Cycle,
    use_clock: u64,
    /// Read hits served from DRAM.
    pub hits: Counter,
    /// Reads that missed and went to NVM.
    pub misses: Counter,
}

impl DramBuffer {
    /// Creates a buffer holding `capacity_pages` 4 KB pages with the given
    /// hit latency in core cycles.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_pages` is zero.
    pub fn new(capacity_pages: usize, hit_latency: Cycle) -> Self {
        assert!(capacity_pages > 0, "capacity must be nonzero");
        DramBuffer {
            pages: FastMap::default(),
            capacity_pages,
            hit_latency,
            use_clock: 0,
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Page capacity.
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }

    fn touch(&mut self, page: PageAddr) {
        self.use_clock += 1;
        let clock = self.use_clock;
        if self.pages.len() == self.capacity_pages && !self.pages.contains_key(&page) {
            // Evict the LRU page. Clean by construction (write-through),
            // so eviction is silent.
            if let Some((&victim, _)) = self.pages.iter().min_by_key(|(_, &lru)| lru) {
                self.pages.remove(&victim);
            }
        }
        self.pages.insert(page, clock);
    }

    /// Attempts to service a read of `page` at `now`. On a hit, returns
    /// the completion cycle; on a miss the caller reads NVM (and the page
    /// is allocated for next time).
    pub fn read(&mut self, now: Cycle, page: PageAddr) -> Option<Cycle> {
        let hit = self.pages.contains_key(&page);
        self.touch(page);
        if hit {
            self.hits.incr();
            Some(now + self.hit_latency)
        } else {
            self.misses.incr();
            None
        }
    }

    /// Observes a write to `page`. Write-through: the caller still writes
    /// NVM with full latency; the page is merely kept warm here.
    pub fn write_through(&mut self, page: PageAddr) {
        self.touch(page);
    }

    /// DRAM read hit rate so far.
    pub fn hit_rate(&self) -> f64 {
        picl_types::stats::ratio(self.hits.get(), self.hits.get() + self.misses.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(i: u64) -> PageAddr {
        PageAddr::new(i)
    }

    #[test]
    fn first_read_misses_second_hits() {
        let mut d = DramBuffer::new(4, Cycle(100));
        assert_eq!(d.read(Cycle(0), page(1)), None);
        assert_eq!(d.read(Cycle(10), page(1)), Some(Cycle(110)));
        assert_eq!(d.hits.get(), 1);
        assert_eq!(d.misses.get(), 1);
        assert!((d.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn writes_warm_the_page() {
        let mut d = DramBuffer::new(4, Cycle(100));
        d.write_through(page(2));
        assert_eq!(d.read(Cycle(0), page(2)), Some(Cycle(100)));
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut d = DramBuffer::new(2, Cycle(100));
        d.write_through(page(1));
        d.write_through(page(2));
        d.read(Cycle(0), page(1)); // 2 becomes LRU
        d.write_through(page(3)); // evicts 2
        assert_eq!(d.resident_pages(), 2);
        // Probe the survivor first — a missing-page probe allocates and
        // would evict it.
        assert!(d.read(Cycle(0), page(1)).is_some());
        assert!(d.read(Cycle(0), page(2)).is_none(), "page 2 was evicted");
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = DramBuffer::new(0, Cycle(1));
    }

    /// The §IV-C transparency argument, checked: the buffer is timing-only
    /// (it holds no values), so NVM functional contents cannot depend on
    /// its presence. The type system enforces it — this test documents it.
    #[test]
    fn holds_no_data() {
        let mut d = DramBuffer::new(2, Cycle(1));
        d.write_through(page(7));
        // Only recency metadata is stored per page.
        assert_eq!(d.resident_pages(), 1);
        assert_eq!(d.capacity_pages(), 2);
    }
}

//! A two-level set-associative data-cache simulator (L1D + LLC) with LRU
//! replacement, sized like the paper's Apple M1 Pro testbed (24 MB LLC).
//!
//! The evaluation only needs *relative* miss behaviour — e.g. Pythia's heap
//! sectioning fragments the heap and can add LLC misses for benchmarks
//! with interleaved shared/isolated accesses (§6.1, `510.parest_r`) — so a
//! straightforward LRU model suffices.

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Hit in L1D.
    L1Hit,
    /// Missed L1, hit LLC.
    LlcHit,
    /// Missed both levels (memory access).
    Miss,
}

/// One set-associative level with LRU replacement.
///
/// Tags live in one flat `sets × ways` array (LRU first, MRU last
/// within each set's live prefix) instead of a `Vec` per set: ~33k
/// per-set allocations for an LLC-sized level would cost more than
/// many short benchmark runs execute. The flat form is one allocation,
/// and each access touches a single short contiguous stripe. Only a
/// set's live prefix is ever read, so emptying the level
/// ([`Level::reset`]) zeroes the per-set live counts and leaves the
/// stale tags behind.
#[derive(Debug, Clone, Default)]
struct Level {
    tags: Vec<u64>, // sets * ways
    lens: Vec<u32>, // live ways per set
    ways: usize,
    set_shift: u32,
    set_mask: u64,
}

impl Level {
    fn new(capacity: u64, line: u64, ways_hint: usize) -> Self {
        let lines = (capacity / line).max(1) as usize;
        // Round the set count down to a power of two and absorb the
        // remainder into the associativity, so any capacity works.
        let mut sets = (lines / ways_hint).max(1);
        while !sets.is_power_of_two() {
            sets &= sets - 1; // drop lowest set bit -> previous power of two
        }
        let ways = (lines / sets).max(1);
        Level {
            tags: vec![0; sets * ways],
            lens: vec![0; sets],
            ways,
            set_shift: line.trailing_zeros(),
            set_mask: sets as u64 - 1,
        }
    }

    /// Empty every set: tags past a set's live prefix are never read.
    fn reset(&mut self) {
        self.lens.fill(0);
    }

    /// Access a line; returns `true` on hit.
    fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.set_shift;
        let set = (line & self.set_mask) as usize;
        let len = self.lens[set] as usize;
        let tags = &mut self.tags[set * self.ways..set * self.ways + len];
        // MRU fast path: repeated hits on the hottest line (the common
        // case for consecutive accesses) skip the scan and the rotate.
        if len > 0 && tags[len - 1] == line {
            return true;
        }
        if let Some(pos) = tags.iter().position(|&t| t == line) {
            // Refresh to MRU (end of the live prefix).
            tags[pos..].rotate_left(1);
            tags[len - 1] = line;
            true
        } else {
            if len == self.ways {
                // Evict the LRU tag at the front.
                tags.rotate_left(1);
                tags[len - 1] = line;
            } else {
                self.tags[set * self.ways + len] = line;
                self.lens[set] = (len + 1) as u32;
            }
            false
        }
    }
}

/// Per-level hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// L1D hits.
    pub l1_hits: u64,
    /// LLC hits (L1 misses that hit LLC).
    pub llc_hits: u64,
    /// Full misses.
    pub misses: u64,
}

impl CacheStats {
    /// LLC miss rate over all accesses.
    pub fn llc_miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// The two-level cache hierarchy.
#[derive(Debug, Clone)]
pub struct CacheSim {
    l1: Level,
    llc: Level,
    line: u64,
    stats: CacheStats,
}

impl CacheSim {
    /// M1-Pro-like geometry: 64 KiB L1D (8-way), 24 MiB LLC (12-way),
    /// 64-byte lines. (The LLC way count is rounded to keep sets a power
    /// of two.)
    pub fn m1_like() -> Self {
        CacheSim::new(64 << 10, 24 << 20, 64)
    }

    /// Custom geometry (capacities in bytes). Way counts are fixed at 8
    /// (L1) and 12 (LLC), adjusted if needed to keep set counts a power of
    /// two.
    ///
    /// # Panics
    ///
    /// Panics if `capacity / line / ways` is not a power of two after
    /// adjustment.
    pub fn new(l1_capacity: u64, llc_capacity: u64, line: u64) -> Self {
        CacheSim {
            l1: Level::new(l1_capacity, line, 8),
            llc: Level::new(llc_capacity, line, 12),
            line,
            stats: CacheStats::default(),
        }
    }

    /// Empty both levels and zero the counters, keeping the tag arrays:
    /// afterwards the simulator behaves exactly like a freshly built one
    /// of the same geometry, at the cost of clearing the per-set live
    /// counts (~130 KiB for [`CacheSim::m1_like`]) instead of ~3 MiB of
    /// tags.
    pub fn reset(&mut self) {
        self.l1.reset();
        self.llc.reset();
        self.stats = CacheStats::default();
    }

    /// An inert stand-in with no tag arrays, which lets
    /// [`crate::Vm::reset`] move the real simulator out of a VM and
    /// straight back in. Any access panics.
    pub(crate) fn placeholder() -> Self {
        CacheSim {
            l1: Level::default(),
            llc: Level::default(),
            line: 0,
            stats: CacheStats::default(),
        }
    }

    /// Cache line size.
    pub fn line(&self) -> u64 {
        self.line
    }

    /// Access one address.
    pub fn access(&mut self, addr: u64) -> CacheOutcome {
        self.stats.accesses += 1;
        if self.l1.access(addr) {
            self.stats.l1_hits += 1;
            return CacheOutcome::L1Hit;
        }
        if self.llc.access(addr) {
            self.stats.llc_hits += 1;
            return CacheOutcome::LlcHit;
        }
        self.stats.misses += 1;
        CacheOutcome::Miss
    }

    /// Access a byte range, touching every line it covers; returns the
    /// worst outcome (used for bulk intrinsics like `memcpy`).
    pub fn access_range(&mut self, addr: u64, len: u64) -> CacheOutcome {
        let mut worst = CacheOutcome::L1Hit;
        let first = addr / self.line;
        let last = (addr + len.max(1) - 1) / self.line;
        for l in first..=last {
            let o = self.access(l * self.line);
            worst = match (worst, o) {
                (_, CacheOutcome::Miss) | (CacheOutcome::Miss, _) => CacheOutcome::Miss,
                (_, CacheOutcome::LlcHit) | (CacheOutcome::LlcHit, _) => CacheOutcome::LlcHit,
                _ => CacheOutcome::L1Hit,
            };
        }
        worst
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

impl Default for CacheSim {
    fn default() -> Self {
        CacheSim::m1_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = CacheSim::m1_like();
        assert_eq!(c.access(0x1000), CacheOutcome::Miss);
        assert_eq!(c.access(0x1000), CacheOutcome::L1Hit);
        assert_eq!(c.access(0x1038), CacheOutcome::L1Hit, "same 64B line");
        assert_eq!(c.access(0x1040), CacheOutcome::Miss, "next line");
    }

    #[test]
    fn l1_eviction_falls_back_to_llc() {
        let mut c = CacheSim::new(1024, 1 << 20, 64); // tiny L1: 16 lines, 2 sets
                                                      // Fill one set beyond its 8 ways: lines mapping to set 0.
        let stride = 2 * 64; // set count = 2 -> same set every 2 lines
        for i in 0..9 {
            c.access(i * stride);
        }
        // line 0 evicted from L1 but still in LLC
        assert_eq!(c.access(0), CacheOutcome::LlcHit);
    }

    #[test]
    fn lru_keeps_recently_used() {
        let mut c = CacheSim::new(1024, 1 << 20, 64);
        let stride = 2 * 64;
        for i in 0..8 {
            c.access(i * stride); // fill set
        }
        c.access(0); // refresh line 0 -> MRU
        c.access(8 * stride); // evicts line 1 (LRU), not line 0
        assert_eq!(c.access(0), CacheOutcome::L1Hit);
        assert_eq!(c.access(stride), CacheOutcome::LlcHit);
    }

    #[test]
    fn range_access_touches_every_line() {
        let mut c = CacheSim::m1_like();
        assert_eq!(c.access_range(0x2000, 200), CacheOutcome::Miss);
        assert_eq!(c.stats().accesses, 4); // 200 bytes over 64B lines, aligned
        assert_eq!(c.access_range(0x2000, 200), CacheOutcome::L1Hit);
    }

    #[test]
    fn reset_equals_a_fresh_cache() {
        // Tiny geometry (16-line L1, 64-line LLC): a pseudo-random
        // stream over 96 lines evicts at both levels, leaving stale tags
        // behind every set's live prefix.
        let geometry = || CacheSim::new(1024, 4096, 64);
        let trace: Vec<u64> = (0..2000u64)
            .scan(1u64, |x, _| {
                *x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                Some((*x >> 33) % 96 * 64)
            })
            .collect();
        let mut used = geometry();
        for &a in &trace {
            used.access(a);
        }
        let s = used.stats();
        assert!(s.misses > 0 && s.llc_hits > 0 && s.l1_hits > 0, "{s:?}");
        used.reset();
        assert_eq!(used.stats(), CacheStats::default());
        let mut fresh = geometry();
        for &a in trace.iter().rev().chain(&trace) {
            assert_eq!(used.access(a), fresh.access(a), "diverged at {a:#x}");
        }
        assert_eq!(used.stats(), fresh.stats());
    }

    #[test]
    fn stats_accumulate() {
        let mut c = CacheSim::m1_like();
        c.access(0x100);
        c.access(0x100);
        let s = c.stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.l1_hits, 1);
        assert!(s.llc_miss_rate() > 0.0);
    }
}

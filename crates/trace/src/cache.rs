//! Set-associative cache hierarchy — the filter between CPU accesses
//! and DRAM activations.
//!
//! Table I simulates 4 cores with 64 KB L1 and 256 KB L2 caches; the
//! attacker defeats them with cache flushing (`CLFLUSH`), which is what
//! makes row hammering possible from software.  This module provides
//! LRU set-associative caches and a two-level hierarchy so the
//! access-level workload model in [`crate::cpu`] produces its DRAM
//! activation stream the same way the paper's gem5 setup did: only
//! cache *misses* (and flushed lines) reach the memory controller.

use serde::{Deserialize, Serialize};

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Associativity.
    pub ways: u32,
}

impl CacheConfig {
    /// Table I's L1: 64 KB, 64 B lines, 8-way.
    pub fn paper_l1() -> Self {
        CacheConfig {
            capacity_bytes: 64 * 1024,
            line_bytes: 64,
            ways: 8,
        }
    }

    /// Table I's L2: 256 KB, 64 B lines, 8-way.
    pub fn paper_l2() -> Self {
        CacheConfig {
            capacity_bytes: 256 * 1024,
            line_bytes: 64,
            ways: 8,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.capacity_bytes / self.line_bytes / self.ways
    }
}

/// An LRU set-associative cache over line addresses.
///
/// The tags live in one flat array, `ways` slots per set, most recently
/// used first, with a fill count per set.  A hit rotates the line to
/// the front of its set, a miss shifts the set down one slot (dropping
/// the least recently used line when the set is full), and a flush
/// closes the gap — the LRU order of a per-set stack, with no per-set
/// allocation and, for a power-of-two set count (every shipped
/// geometry), a mask instead of a division to find the set.
///
/// ```
/// use mem_trace::cache::{Cache, CacheConfig};
///
/// let mut cache = Cache::new(CacheConfig::paper_l1());
/// assert!(!cache.access(0x100)); // cold miss
/// assert!(cache.access(0x100)); // hit
/// cache.flush(0x100);           // CLFLUSH
/// assert!(!cache.access(0x100)); // miss again
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `ways` tag slots per set; the first `fill[set]` hold the set's
    /// lines, most recently used first.
    tags: Vec<u64>,
    /// Lines held per set.
    fill: Vec<u32>,
    ways: usize,
    sets: u64,
    /// `sets - 1` when the set count is a power of two, so the set
    /// index is a mask; `None` falls back to `%`.
    set_mask: Option<u64>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero ways or a
    /// capacity that is not a multiple of `line_bytes × ways`).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.ways > 0 && config.line_bytes > 0, "degenerate cache");
        let sets = config.sets();
        assert!(sets > 0, "cache smaller than one set");
        let ways = config.ways as usize;
        Cache {
            config,
            tags: vec![0; sets as usize * ways],
            fill: vec![0; sets as usize],
            ways,
            sets: u64::from(sets),
            set_mask: sets.is_power_of_two().then(|| u64::from(sets) - 1),
            hits: 0,
            misses: 0,
        }
    }

    // Reduced below the set count, a u32.
    #[allow(clippy::cast_possible_truncation)]
    #[inline]
    fn set_index(&self, line: u64) -> usize {
        match self.set_mask {
            Some(mask) => (line & mask) as usize,
            None => (line % self.sets) as usize,
        }
    }

    /// The set `line` maps to: its index and its held lines, most
    /// recently used first.
    #[inline]
    fn set_of(&self, line: u64) -> (usize, &[u64]) {
        let set = self.set_index(line);
        let base = set * self.ways;
        (set, &self.tags[base..base + self.fill[set] as usize])
    }

    /// Accesses `line`; returns `true` on a hit.  Misses insert the line
    /// (LRU eviction).
    #[inline]
    pub fn access(&mut self, line: u64) -> bool {
        let set = self.set_index(line);
        let base = set * self.ways;
        let held = self.fill[set] as usize;
        let stack = &mut self.tags[base..base + self.ways];
        let hit = stack[..held].iter().position(|&t| t == line);
        // The line moves to the front and every line before its old slot
        // (on a miss: before the first free or the evicted slot) moves
        // back one.
        let end = match hit {
            Some(pos) => {
                self.hits += 1;
                pos
            }
            None => {
                self.misses += 1;
                if held < self.ways {
                    self.fill[set] += 1;
                }
                held.min(self.ways - 1)
            }
        };
        let mut carry = line;
        for slot in &mut stack[..=end] {
            carry = std::mem::replace(slot, carry);
        }
        hit.is_some()
    }

    /// Probes without updating recency or statistics.
    pub fn contains(&self, line: u64) -> bool {
        self.set_of(line).1.contains(&line)
    }

    /// Removes `line` (the attacker's `CLFLUSH`).
    #[inline]
    pub fn flush(&mut self, line: u64) {
        let (set, held) = self.set_of(line);
        // A set never holds a line twice: only misses insert.
        if let Some(pos) = held.iter().position(|&t| t == line) {
            let base = set * self.ways;
            let end = held.len();
            self.tags
                .copy_within(base + pos + 1..base + end, base + pos);
            self.fill[set] -= 1;
        }
    }

    /// Hits observed.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses observed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }
}

/// A two-level inclusive hierarchy (per core, as in Table I).
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: Cache,
    l2: Cache,
}

impl CacheHierarchy {
    /// Table I's per-core hierarchy.
    pub fn paper() -> Self {
        CacheHierarchy {
            l1: Cache::new(CacheConfig::paper_l1()),
            l2: Cache::new(CacheConfig::paper_l2()),
        }
    }

    /// Accesses a line; returns `true` if the access missed *both*
    /// levels and therefore reaches DRAM.
    pub fn access_misses_to_dram(&mut self, line: u64) -> bool {
        if self.l1.access(line) {
            return false;
        }
        if self.l2.access(line) {
            return false; // L2 hit fills L1 (already inserted above)
        }
        true
    }

    /// Flushes a line from both levels (`CLFLUSH` semantics).
    pub fn flush(&mut self, line: u64) {
        self.l1.flush(line);
        self.l2.flush(line);
    }

    /// The L1 level.
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// The L2 level.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometries() {
        assert_eq!(CacheConfig::paper_l1().sets(), 128);
        assert_eq!(CacheConfig::paper_l2().sets(), 512);
    }

    #[test]
    fn lru_evicts_oldest() {
        let config = CacheConfig {
            capacity_bytes: 2 * 64,
            line_bytes: 64,
            ways: 2,
        };
        let mut c = Cache::new(config); // 1 set, 2 ways
        c.access(1);
        c.access(2);
        c.access(1); // 1 is now MRU
        c.access(3); // evicts 2
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
    }

    #[test]
    fn hit_rate_tracks_reuse() {
        let mut c = Cache::new(CacheConfig::paper_l1());
        for _ in 0..10 {
            c.access(42);
        }
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 9);
        assert!((c.hit_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn flush_forces_next_access_to_miss() {
        let mut c = Cache::new(CacheConfig::paper_l1());
        c.access(7);
        c.flush(7);
        assert!(!c.contains(7));
        assert!(!c.access(7));
    }

    #[test]
    fn hierarchy_filters_two_levels() {
        let mut h = CacheHierarchy::paper();
        assert!(h.access_misses_to_dram(100)); // cold
        assert!(!h.access_misses_to_dram(100)); // L1 hit
                                                // Evict from tiny L1 by conflict, keep in L2: lines mapping to
                                                // the same L1 set are 128 apart.
        for k in 1..=8 {
            h.access_misses_to_dram(100 + k * 128);
        }
        assert!(!h.l1().contains(100));
        // L2 still has it: no DRAM access.
        assert!(!h.access_misses_to_dram(100));
    }

    #[test]
    fn hierarchy_flush_reaches_both_levels() {
        let mut h = CacheHierarchy::paper();
        h.access_misses_to_dram(5);
        h.flush(5);
        assert!(h.access_misses_to_dram(5));
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let config = CacheConfig {
            capacity_bytes: 4 * 64,
            line_bytes: 64,
            ways: 1,
        };
        let mut c = Cache::new(config); // 4 sets, direct mapped
        c.access(0);
        c.access(1);
        c.access(2);
        c.access(3);
        for line in 0..4 {
            assert!(c.contains(line));
        }
        c.access(4); // conflicts with 0 only
        assert!(!c.contains(0));
        assert!(c.contains(1));
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_ways_rejected() {
        let _ = Cache::new(CacheConfig {
            capacity_bytes: 64,
            line_bytes: 64,
            ways: 0,
        });
    }
}

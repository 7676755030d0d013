//! The flat-array `Cache` is stream-identical to the per-set `Vec`
//! stack it replaced.
//!
//! The oracle below is that earlier implementation, kept verbatim in
//! behaviour: one `Vec` of tags per set, most recently used first, a
//! hit moved to the front with `remove`/`insert(0)`, a miss inserted at
//! the front and the stack truncated to the associativity, a flush
//! `retain`ing every other tag.  Random access/flush sequences must get
//! the same hit/miss answer at every step, the same residency for every
//! line afterwards, and the same counters — on direct-mapped,
//! set-associative and non-power-of-two set counts alike.

use mem_trace::cache::{Cache, CacheConfig};
use proptest::prelude::*;

/// The `Vec`-per-set LRU cache the flat array must reproduce.
struct StackCache {
    ways: usize,
    sets: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
}

impl StackCache {
    fn new(config: CacheConfig) -> Self {
        StackCache {
            ways: config.ways as usize,
            sets: vec![Vec::new(); config.sets() as usize],
            hits: 0,
            misses: 0,
        }
    }

    fn set_index(&self, line: u64) -> usize {
        usize::try_from(line % self.sets.len() as u64).expect("set index fits usize")
    }

    fn access(&mut self, line: u64) -> bool {
        let set = self.set_index(line);
        let stack = &mut self.sets[set];
        if let Some(pos) = stack.iter().position(|&t| t == line) {
            stack.remove(pos);
            stack.insert(0, line);
            self.hits += 1;
            true
        } else {
            stack.insert(0, line);
            stack.truncate(self.ways);
            self.misses += 1;
            false
        }
    }

    fn contains(&self, line: u64) -> bool {
        self.sets[self.set_index(line)].contains(&line)
    }

    fn flush(&mut self, line: u64) {
        let set = self.set_index(line);
        self.sets[set].retain(|&t| t != line);
    }
}

/// `(sets, ways)` shapes: direct-mapped, power-of-two and
/// non-power-of-two set counts, and a single fully associative set.
const SHAPES: [(u32, u32); 6] = [(4, 1), (3, 1), (4, 2), (3, 4), (6, 8), (1, 8)];

/// Line addresses drawn from a range a few times the cache's capacity,
/// so sets conflict, evict and re-hit.
const LINES: u64 = 96;

fn config(shape: usize) -> CacheConfig {
    let (sets, ways) = SHAPES[shape];
    CacheConfig {
        capacity_bytes: sets * ways * 64,
        line_bytes: 64,
        ways,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn flat_cache_matches_the_stack_oracle(
        shape in 0usize..SHAPES.len(),
        ops in proptest::collection::vec((0u8..4, 0u64..LINES), 0..400),
    ) {
        let config = config(shape);
        let mut flat = Cache::new(config);
        let mut oracle = StackCache::new(config);
        for (step, &(op, line)) in ops.iter().enumerate() {
            // One op in four is a CLFLUSH.
            if op == 0 {
                flat.flush(line);
                oracle.flush(line);
            } else {
                prop_assert_eq!(
                    flat.access(line),
                    oracle.access(line),
                    "shape {:?}, step {}, line {}", SHAPES[shape], step, line
                );
            }
        }
        for line in 0..LINES {
            prop_assert_eq!(flat.contains(line), oracle.contains(line), "line {}", line);
        }
        prop_assert_eq!(flat.hits(), oracle.hits);
        prop_assert_eq!(flat.misses(), oracle.misses);
    }
}

/// The paper geometries, driven hard enough to fill every set.
#[test]
fn paper_geometries_match_the_stack_oracle() {
    for config in [CacheConfig::paper_l1(), CacheConfig::paper_l2()] {
        let mut flat = Cache::new(config);
        let mut oracle = StackCache::new(config);
        let lines = u64::from(config.sets()) * u64::from(config.ways) * 3;
        // A multiplicative walk covers every set many times over, with
        // reuse at every distance.
        let mut line = 1u64;
        for step in 0..200_000u64 {
            line = line.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let target = (line >> 33) % lines;
            if step % 7 == 0 {
                flat.flush(target);
                oracle.flush(target);
            } else {
                assert_eq!(flat.access(target), oracle.access(target), "step {step}");
            }
        }
        for target in 0..lines {
            assert_eq!(flat.contains(target), oracle.contains(target));
        }
        assert_eq!(flat.hits(), oracle.hits);
        assert_eq!(flat.misses(), oracle.misses);
        assert!(flat.hits() > 0 && flat.misses() > 0);
    }
}

//! The access-level CPU workload's activation stream is pinned.
//!
//! `CpuWorkload` derives its activations from four cores behind per-core
//! L1/L2 caches, all drawing from one RNG.  Its speed-ups — flat cache
//! sets, guide-table Zipf sampling, shared Zipf tables, the native batch
//! path — must leave that stream exactly as it was: one FNV-1a digest of
//! the paper configuration's output pins every event and every interval
//! boundary, and the batch path must deliver the interval path's stream
//! at every batch size.

use dram_sim::Geometry;
use tivapromi_suite::trace::{CpuWorkload, CpuWorkloadConfig, EventBatch, TraceEvent, TraceSource};

const SEED: u64 = 7;
const INTERVALS: u64 = 64;
const BATCH_SIZES: [usize; 4] = [1, 7, 63, 4096];

/// The digest of `CpuWorkloadConfig::paper(Geometry::paper(), 64)` at
/// seed 7 as the `Vec`-per-set cache and the binary-search Zipf
/// sampler produced it.
const PAPER_DIGEST: u64 = 0x8b78_8abc_0c04_7206;

fn workload() -> CpuWorkload {
    CpuWorkload::new(
        CpuWorkloadConfig::paper(&Geometry::paper(), INTERVALS),
        SEED,
    )
}

fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a over each interval's events (bank, row, aggressor) followed
/// by an end-of-interval marker.
fn digest(intervals: &[Vec<TraceEvent>]) -> u64 {
    intervals
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |mut hash, interval| {
            for e in interval {
                hash = fnv(hash, &e.bank.0.to_le_bytes());
                hash = fnv(hash, &e.row.0.to_le_bytes());
                hash = fnv(hash, &[u8::from(e.aggressor)]);
            }
            fnv(hash, &[0xff])
        })
}

fn by_interval(mut source: impl TraceSource) -> Vec<Vec<TraceEvent>> {
    let mut intervals = Vec::new();
    let mut out = Vec::new();
    while source.next_interval(&mut out) {
        intervals.push(std::mem::take(&mut out));
    }
    intervals
}

fn by_batch(mut source: impl TraceSource, batch_events: usize) -> Vec<Vec<TraceEvent>> {
    let mut intervals = Vec::new();
    let mut batch = EventBatch::with_target_events(batch_events);
    while source.next_batch(&mut batch, u64::MAX) {
        for i in 0..batch.intervals() {
            intervals.push(batch.segment(i).map(|e| batch.event(e)).collect());
        }
    }
    intervals
}

#[test]
fn paper_cpu_stream_is_pinned() {
    let intervals = by_interval(workload());
    assert_eq!(intervals.len() as u64, INTERVALS);
    assert!(intervals.iter().flatten().any(|e| e.aggressor));
    let digest = digest(&intervals);
    assert_eq!(
        digest, PAPER_DIGEST,
        "CpuWorkload paper stream digest {digest:#018x}"
    );
}

#[test]
fn batches_deliver_the_interval_stream() {
    let reference = by_interval(workload());
    for size in BATCH_SIZES {
        assert_eq!(by_batch(workload(), size), reference, "batch size {size}");
    }
}

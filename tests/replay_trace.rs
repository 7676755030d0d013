//! Recorded-trace replay: the shared `ReplayTrace` cursor and the one
//! `MixedTrace` merge behind both delivery paths.
//!
//! A `ReplayTrace` clone or bank shard shares the recording instead of
//! copying it, so these properties pin what sharing must not change:
//! every shard delivers exactly the parent's bank filter on both the
//! interval and the batch path (empty intervals included, at several
//! batch sizes), a clone taken mid-stream continues exactly like its
//! original, and the interval count a fresh source reports is the
//! recording's.  `MixedTrace::next_batch` and `next_interval` must
//! agree interval by interval, cap drops included.
//!
//! A trace naming a bank the geometry lacks is rejected before the run
//! starts, with the same typed error on the sequential and the sharded
//! path.

use dram_sim::{BankId, Geometry, RowAddr};
use proptest::prelude::*;
use tivapromi_suite::harness::{
    engine, techniques, ExperimentScale, NullObserver, Parallelism, RunConfig, RunError, Runner,
};
use tivapromi_suite::hwmodel::Technique;
use tivapromi_suite::trace::{
    EventBatch, MixedTrace, ReplayTrace, TraceEvent, TraceSource, TraceSplit,
};

const BANKS: u32 = 4;
const BATCH_SIZES: [usize; 4] = [1, 7, 63, 4096];

type Intervals = Vec<Vec<TraceEvent>>;

fn event_strategy() -> impl Strategy<Value = TraceEvent> {
    (0..BANKS, 0u32..64, any::<bool>()).prop_map(|(bank, row, aggressor)| TraceEvent {
        bank: BankId(bank),
        row: RowAddr(row),
        aggressor,
    })
}

/// A recording of up to 24 intervals; some intervals are empty and
/// some are dense enough to overrun a small per-bank cap.
fn recording_strategy() -> impl Strategy<Value = Intervals> {
    proptest::collection::vec(proptest::collection::vec(event_strategy(), 0..40), 0..24)
}

/// Every remaining interval, one `next_interval` call each.
fn drain_intervals(source: &mut dyn TraceSource) -> Intervals {
    let mut intervals = Vec::new();
    loop {
        let mut events = Vec::new();
        if !source.next_interval(&mut events) {
            return intervals;
        }
        intervals.push(events);
    }
}

/// Every remaining interval, read back from `next_batch` fills of a
/// batch targeting `batch_events` events.
fn drain_batches(source: &mut dyn TraceSource, batch_events: usize) -> Intervals {
    let mut batch = EventBatch::with_target_events(batch_events);
    let mut intervals = Vec::new();
    while source.next_batch(&mut batch, u64::MAX) {
        for segment in 0..batch.intervals() {
            intervals.push(batch.segment(segment).map(|i| batch.event(i)).collect());
        }
    }
    intervals
}

fn bank_filter(intervals: &Intervals, bank: BankId) -> Intervals {
    intervals
        .iter()
        .map(|events| events.iter().filter(|e| e.bank == bank).copied().collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shards_deliver_the_parent_bank_filter_on_both_paths(recording in recording_strategy()) {
        let trace = ReplayTrace::new(recording.clone());
        let len = recording.len() as u64;
        prop_assert_eq!(trace.intervals_hint(), Some(len));
        for b in 0..BANKS {
            let bank = BankId(b);
            let expected = bank_filter(&recording, bank);
            let shard = trace.bank_shard(bank);
            prop_assert_eq!(shard.intervals_hint(), Some(len));
            prop_assert_eq!(&drain_intervals(&mut trace.bank_shard(bank)), &expected);
            for size in BATCH_SIZES {
                prop_assert_eq!(&drain_batches(&mut trace.bank_shard(bank), size), &expected);
            }
            // A shard of a shard keeps its bank, or is empty but still
            // ticks every interval.
            prop_assert_eq!(&drain_intervals(&mut shard.bank_shard(bank)), &expected);
            let mut other = shard.bank_shard(BankId((b + 1) % BANKS));
            prop_assert_eq!(other.intervals_hint(), Some(len));
            prop_assert_eq!(
                drain_batches(&mut other, 7),
                vec![Vec::<TraceEvent>::new(); recording.len()]
            );
        }
        // The whole trace replays the recording on both paths.
        prop_assert_eq!(&drain_intervals(&mut trace.clone()), &recording);
        for size in BATCH_SIZES {
            prop_assert_eq!(&drain_batches(&mut trace.clone(), size), &recording);
        }
    }

    #[test]
    fn clones_taken_mid_stream_continue_like_the_original(
        recording in recording_strategy(),
        cut in 0usize..30,
    ) {
        let cut = cut.min(recording.len());
        let mut original = ReplayTrace::new(recording.clone());
        let mut scratch = Vec::new();
        for _ in 0..cut {
            prop_assert!(original.next_interval(&mut scratch));
        }
        let mut by_interval = original.clone();
        let mut by_batch = original.clone();
        let rest = drain_intervals(&mut original);
        prop_assert_eq!(&rest, &recording[cut..].to_vec());
        prop_assert_eq!(&drain_intervals(&mut by_interval), &rest);
        prop_assert_eq!(&drain_batches(&mut by_batch, 63), &rest);
    }

    #[test]
    fn mixed_batches_equal_mixed_intervals_with_cap_drops(
        parts in proptest::collection::vec(recording_strategy(), 1..4),
        cap in 1u32..12,
        size_index in 0usize..4,
    ) {
        // One source overruns bank 0's cap in the first interval, so
        // every case exercises the drop path.
        let mut parts = parts;
        parts.push(vec![vec![TraceEvent::attack(BankId(0), RowAddr(7)); 2 * cap as usize]]);
        let mix = |parts: &[Intervals]| {
            let sources: Vec<Box<dyn TraceSplit>> = parts
                .iter()
                .map(|p| Box::new(ReplayTrace::new(p.clone())) as Box<dyn TraceSplit>)
                .collect();
            MixedTrace::new(sources, cap)
        };
        let mut by_interval = mix(&parts);
        let mut by_batch = mix(&parts);
        let intervals = drain_intervals(&mut by_interval);
        let batches = drain_batches(&mut by_batch, BATCH_SIZES[size_index]);
        prop_assert_eq!(&batches, &intervals);
        prop_assert!(by_interval.dropped() >= u64::from(cap));
        prop_assert_eq!(by_batch.dropped(), by_interval.dropped());
        let longest = parts.iter().map(Vec::len).max().unwrap_or(0);
        prop_assert_eq!(intervals.len(), longest);
    }
}

/// A 4-bank configuration on the scaled-down geometry.
fn four_bank_config(parallelism: Parallelism) -> RunConfig {
    let mut config = RunConfig::paper(&ExperimentScale {
        windows: 1,
        banks: BANKS,
        seeds: 1,
    });
    config.geometry = Geometry::scaled_down(64).with_banks(BANKS);
    config.with_parallelism(parallelism)
}

/// Bank 9 on a 4-bank device, next to ordinary bank-0 traffic.
fn out_of_range_trace() -> ReplayTrace {
    ReplayTrace::new(vec![
        vec![
            TraceEvent::benign(BankId(0), RowAddr(1)),
            TraceEvent::attack(BankId(9), RowAddr(2)),
        ],
        vec![TraceEvent::benign(BankId(0), RowAddr(3))],
    ])
}

const OUT_OF_RANGE: &str = "trace names bank 9 but the geometry has 4 banks";

fn panic_message(run: impl FnOnce()) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
        .expect_err("the run must be refused");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default()
}

#[test]
fn out_of_range_banks_are_rejected_alike_on_both_paths() {
    for parallelism in [Parallelism::sequential(), Parallelism::with_workers(2)] {
        let runner = Runner::new(four_bank_config(parallelism)).technique(Technique::Para);
        let err = runner
            .run_source(out_of_range_trace())
            .expect_err("a trace naming bank 9 must not run on 4 banks");
        assert_eq!(
            err,
            RunError::BankOutOfRange {
                bank: BankId(9),
                banks: BANKS
            }
        );
        assert_eq!(err.to_string(), OUT_OF_RANGE);

        // The infallible entry points panic with the same message, not
        // an index out of bounds, and not a silent drop.
        let message = panic_message(|| {
            runner.run(out_of_range_trace());
        });
        assert_eq!(message, OUT_OF_RANGE, "{parallelism:?} run");
        let message = panic_message(|| {
            runner.run_sequential(out_of_range_trace());
        });
        assert_eq!(message, OUT_OF_RANGE, "{parallelism:?} run_sequential");
    }
    let config = four_bank_config(Parallelism::sequential());
    let message = panic_message(|| {
        let mut para = techniques::build_any(Technique::Para, &config, 1);
        engine::run_observed(out_of_range_trace(), &mut para, &config, &mut NullObserver);
    });
    assert_eq!(message, OUT_OF_RANGE, "engine::run_observed");
    let message = panic_message(|| {
        let mut para = techniques::build_any(Technique::Para, &config, 1);
        engine::run_scalar(out_of_range_trace(), &mut para, &config);
    });
    assert_eq!(message, OUT_OF_RANGE, "engine::run_scalar");
}

#[test]
fn in_range_recordings_replay_alike_on_both_paths() {
    let in_range = || {
        ReplayTrace::new(vec![
            vec![
                TraceEvent::benign(BankId(0), RowAddr(1)),
                TraceEvent::attack(BankId(3), RowAddr(2)),
            ],
            vec![TraceEvent::benign(BankId(2), RowAddr(3))],
        ])
    };
    let run = |parallelism| {
        Runner::new(four_bank_config(parallelism))
            .technique(Technique::Para)
            .run_source(in_range())
            .expect("every bank is inside the geometry")
    };
    let sequential = run(Parallelism::sequential());
    assert_eq!(sequential.workload_activations, 3);
    assert_eq!(run(Parallelism::with_workers(2)), sequential);
}

//! The allocation-free steady-state contract.
//!
//! The lane-kernel architecture promises that once a mitigation's
//! working set is warm, driving batches through `on_batch`, draining
//! the [`ActionSink`] arena, and turning refresh intervals over — the
//! engine's entire decision side — performs **zero** heap allocations.
//! Every per-batch buffer is a reusable arena (`ActionSink::reset`),
//! every table reset happens in place (Graphene summaries, CAT trees,
//! CaPRoMi's drain scratch), and the per-bank RNG block refills reuse
//! one scratch lane.
//!
//! This test pins the contract with a counting global allocator: after
//! two full refresh windows of warm-up (covering every window-wrap
//! reset path), one further window must not touch the heap, for all
//! nine Table III techniques.
//!
//! The test drives the mitigation layer directly rather than through
//! the engine so the assertion isolates the decision side — the arena,
//! the kernels, the interval turnover — from backend bookkeeping
//! (flip logs grow with device state, which is workload physics, not
//! kernel overhead).
//!
//! The trace side carries the same contract.  A recorded `ReplayTrace`
//! is shared, not copied: cloning it and taking every bank shard costs
//! a fixed number of allocations whatever the recording's length, a
//! shard drains into a warm `EventBatch` without allocating, and a warm
//! `MixedTrace` merges intervals without allocating.
//!
//! Synthesis and the exact device keep it too: a warm bank shard of the
//! paper mix drains across a phase boundary (where the SPEC-like
//! workload redraws its hot set) without allocating, so does a warm
//! `CpuWorkload` batch, and a warm exact-tier device turns a whole
//! refresh window over without touching the heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dram_sim::{BankId, Command, Geometry, RowAddr};
use tivapromi_suite::harness::{scenario, techniques, ExperimentScale, RunConfig};
use tivapromi_suite::hwmodel::Technique;
use tivapromi_suite::tivapromi::{ActionSink, Mitigation};
use tivapromi_suite::trace::{
    CpuWorkload, CpuWorkloadConfig, EventBatch, MixedTrace, ReplayTrace, TraceEvent, TraceSource,
    TraceSplit, WorkloadConfig,
};

/// Counts every allocation and reallocation made by the measuring
/// thread; frees are not counted — the contract is "no heap traffic",
/// and a free implies a matching earlier allocation anyway.
///
/// Counting is gated on a thread-local flag armed only around the
/// measured window, and the count itself is thread-local: the libtest
/// harness runs helper threads and the other tests of this file in the
/// same process, and an unrelated allocation from one of them landing
/// inside the window must not fail the contract.  Both cells are
/// `const`-initialized so reading them never allocates, and `try_with`
/// falls back to not counting during TLS teardown.
struct CountingAllocator;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_this_thread() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
    }
}

// lint: allow(D4) — GlobalAlloc is an unsafe trait; the impl forwards
// every call to System verbatim and only bumps a counter.
unsafe impl GlobalAlloc for CountingAllocator {
    // lint: allow(D4) — unsafe-trait method; only bumps a thread-local count.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_this_thread();
        // lint: allow(D4) — verbatim System forwarding per the trait contract.
        unsafe { System.alloc(layout) }
    }

    // lint: allow(D4) — unsafe-trait method; only bumps a thread-local count.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_this_thread();
        // lint: allow(D4) — verbatim System forwarding per the trait contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // lint: allow(D4) — unsafe-trait method; only bumps a thread-local count.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_this_thread();
        // lint: allow(D4) — verbatim System forwarding per the trait contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // lint: allow(D4) — unsafe-trait method forwarding to System verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const BANKS: u32 = 4;

/// Runs `f` with allocation counting armed on this thread only, so
/// concurrent harness threads cannot pollute the reading; returns `f`'s
/// result and the allocations it made.
fn counting<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|flag| flag.set(true));
    let result = f();
    COUNTING.with(|flag| flag.set(false));
    (result, ALLOCATIONS.with(Cell::get) - before)
}

fn config() -> RunConfig {
    let mut config = RunConfig::paper(&ExperimentScale {
        windows: 3,
        banks: BANKS,
        seeds: 1,
    });
    config.geometry = Geometry::scaled_down(64).with_banks(BANKS);
    config
}

/// One interval's traffic: heavy hammering of a few rows per bank (so
/// counter tables, histories and trigger paths are exercised) plus a
/// benign spread, identical every interval so the warm-up's high-water
/// marks cover the measured window.
fn interval_events() -> Vec<TraceEvent> {
    let mut events = Vec::new();
    for i in 0..160u32 {
        let bank = BankId(i % BANKS);
        let row = if i % 2 == 0 {
            // Hammered set: three aggressors per bank.
            RowAddr(500 + i % 3)
        } else {
            // Benign spread across the bank.
            RowAddr((i * 37) % 1024)
        };
        events.push(TraceEvent::benign(bank, row));
    }
    events
}

/// Zero heap allocations per steady-state batch, for all nine
/// techniques: warm up two full windows (hitting every window-wrap
/// reset), then measure one more.
#[test]
fn steady_state_batches_never_allocate() {
    let config = config();
    let intervals_per_window = config.geometry.intervals_per_window() as u64;
    let events = interval_events();
    let mut batch = EventBatch::new();
    batch.push_interval(&events);
    let range = batch.segment(0);

    let mut total_triggers = 0u64;
    for technique in Technique::TABLE3 {
        let mut mitigation = techniques::build_any(technique, &config, 17);
        let mut sink = ActionSink::with_capacity(1024);
        let mut actions = Vec::with_capacity(1024);
        let mut triggers = 0u64;

        let mut drive_interval = |mitigation: &mut tivapromi_suite::baselines::AnyMitigation,
                                  sink: &mut ActionSink,
                                  triggers: &mut u64| {
            sink.reset();
            Mitigation::on_batch(mitigation, &batch, range.clone(), sink);
            for tag in 0..u32::try_from(events.len()).expect("event count fits u32") {
                while sink.next_for(tag).is_some() {
                    *triggers += 1;
                }
            }
            mitigation.on_refresh_interval(&mut actions);
            *triggers += actions.len() as u64;
            actions.clear();
        };

        // Warm-up: two full windows, including both window-wrap resets.
        for _ in 0..(2 * intervals_per_window) {
            drive_interval(&mut mitigation, &mut sink, &mut triggers);
        }

        // Measurement: one further window — including its wrap — must
        // be allocation-free.
        let ((), allocations) = counting(|| {
            for _ in 0..intervals_per_window {
                drive_interval(&mut mitigation, &mut sink, &mut triggers);
            }
        });
        assert_eq!(
            allocations, 0,
            "{technique:?} allocated {allocations} times in a steady-state window"
        );
        total_triggers += triggers;
    }
    // The contract must be proven on exercised trigger paths, not on
    // techniques idling through empty decision loops.
    assert!(total_triggers > 0, "no trigger path was exercised");
}

/// A recording of `intervals` copies of the test interval.
fn recording(intervals: usize) -> ReplayTrace {
    ReplayTrace::new(vec![interval_events(); intervals])
}

/// Cloning a recording and taking every bank shard shares the recording:
/// the allocation count does not grow with its length.
#[test]
fn replay_clones_and_shards_do_not_copy_the_recording() {
    let clone_and_shard = |trace: &ReplayTrace| {
        counting(|| {
            let clone = trace.clone();
            (0..BANKS)
                .map(|bank| clone.bank_shard(BankId(bank)))
                .collect::<Vec<_>>()
        })
        .1
    };
    let short = clone_and_shard(&recording(1 << 10));
    let long = clone_and_shard(&recording(1 << 16));
    assert_eq!(short, long, "shard set-up grew with the recording");
}

/// A bank shard drains into a warm batch, and a warm mix merges
/// intervals, without touching the heap.
#[test]
fn warm_replay_and_mix_delivery_never_allocate() {
    let trace = recording(256);
    let mut batch = EventBatch::new();
    for bank in 0..BANKS {
        let drain = |mut shard: Box<dyn TraceSplit>, batch: &mut EventBatch| {
            let mut events = 0;
            while shard.next_batch(batch, u64::MAX) {
                events += batch.len();
            }
            events
        };
        let warm = drain(trace.bank_shard(BankId(bank)), &mut batch);
        let shard = trace.bank_shard(BankId(bank));
        let (events, allocations) = counting(|| drain(shard, &mut batch));
        assert_eq!(events, warm);
        assert!(events > 0, "bank {bank} delivered nothing");
        assert_eq!(allocations, 0, "bank {bank} shard drain allocated");
    }

    // Two recorded sources overrunning the cap, so the merge also drops.
    let sources: Vec<Box<dyn TraceSplit>> = vec![Box::new(trace.clone()), Box::new(trace)];
    let mut mix = MixedTrace::new(sources, 30);
    let mut out = Vec::new();
    for _ in 0..8 {
        out.clear();
        assert!(mix.next_interval(&mut out));
    }
    let (delivered, allocations) = counting(|| {
        let mut delivered = 0;
        loop {
            out.clear();
            if !mix.next_interval(&mut out) {
                return delivered;
            }
            delivered += 1;
        }
    });
    assert_eq!(delivered, 248);
    assert!(mix.dropped() > 0, "the cap never bound");
    assert_eq!(allocations, 0, "warm MixedTrace::next_interval allocated");
}

/// Drains `source` batch by batch until at least `intervals` intervals
/// have been delivered (or it ends); returns the intervals delivered.
fn drain_intervals(source: &mut dyn TraceSource, batch: &mut EventBatch, intervals: u64) -> u64 {
    let mut delivered = 0;
    while delivered < intervals && source.next_batch(batch, u64::MAX) {
        delivered += batch.intervals() as u64;
    }
    delivered
}

/// A paper-mix bank shard — SPEC-like benign traffic plus the ramping
/// attacker — drains through a phase boundary without allocating: the
/// hot-set redraw refills the bank's set in place and the attacker
/// refills its aggressor list in place, sized once at construction.
#[test]
fn warm_paper_mix_shard_drains_across_a_phase_boundary_without_allocating() {
    let config = config();
    let phase = WorkloadConfig::paper(&config.geometry).phase_intervals;
    assert!(
        config.intervals() > phase + 64,
        "the run must outlast the first phase"
    );
    let mix = scenario::paper_mix(&config, 5);
    let mut batch = EventBatch::new();
    for bank in 0..BANKS {
        let mut shard = mix.bank_shard(BankId(bank));
        // Warm-up: most of the first phase, which sizes every buffer.
        let warm = drain_intervals(&mut shard, &mut batch, phase - 64);
        let (rest, allocations) = counting(|| drain_intervals(&mut shard, &mut batch, u64::MAX));
        assert!(
            warm < phase && warm + rest > phase,
            "bank {bank}: the measured drain ({warm}..{}) misses the boundary at {phase}",
            warm + rest
        );
        assert_eq!(
            allocations, 0,
            "bank {bank} paper-mix shard drain allocated"
        );
    }
}

/// The CPU/cache model's native batch path writes straight into a warm
/// batch without allocating.
#[test]
fn warm_cpu_workload_batches_never_allocate() {
    let config = config();
    let mut cpu = CpuWorkload::new(
        CpuWorkloadConfig::paper(&config.geometry, config.intervals()),
        7,
    );
    let mut batch = EventBatch::new();
    let warm = drain_intervals(&mut cpu, &mut batch, config.intervals() / 2);
    let (rest, allocations) = counting(|| drain_intervals(&mut cpu, &mut batch, u64::MAX));
    assert!(warm > 0 && rest > 0);
    assert_eq!(allocations, 0, "warm CpuWorkload::next_batch allocated");
}

/// A warm exact-tier device applies a window of workload activations,
/// mitigation commands and refresh intervals without allocating.
#[test]
fn warm_exact_device_window_never_allocates() {
    let config = config();
    let mut device = config.build_device();
    let events = interval_events();
    let window = |device: &mut dram_sim::DramDevice| {
        for _ in 0..config.geometry.intervals_per_window() {
            for (i, e) in events.iter().enumerate() {
                device.apply(Command::Activate {
                    bank: e.bank,
                    row: e.row,
                });
                if i % 40 == 0 {
                    device.apply(Command::ActivateNeighbors {
                        bank: e.bank,
                        row: e.row,
                    });
                    device.apply(Command::RefreshRow {
                        bank: e.bank,
                        row: e.row,
                    });
                }
            }
            device.apply(Command::Refresh);
        }
    };
    window(&mut device);
    let ((), allocations) = counting(|| window(&mut device));
    assert!(device.flips().is_empty(), "the window must not flip");
    assert_eq!(allocations, 0, "a warm exact-device window allocated");
}

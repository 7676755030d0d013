//! Determinism of the bank-sharded parallel run engine.
//!
//! The engine's contract: a sharded run — every bank's sub-stream driven
//! through its own mitigation instance and device on a worker pool — is
//! *bit-identical* to the sequential run, for every technique and every
//! worker count.  These tests pin that contract for all nine Table III
//! techniques at 1, 2, and `available_parallelism` workers, and check
//! the algebra ([`RunMetrics::merge`] associativity/commutativity) that
//! makes merge order irrelevant.

use dram_sim::{CycleStats, Geometry, RowAddr};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use tivapromi_suite::harness::{
    engine, techniques, ExperimentScale, NullObserver, Observe, Observer, Parallelism,
    PerfCounters, RunConfig, RunMetrics, RunSummary, Runner, ShardInfo, TimeSeriesRecorder,
};
use tivapromi_suite::hwmodel::Technique;
use tivapromi_suite::trace::{
    AttackConfig, AttackKind, Attacker, MixedTrace, SpecLikeWorkload, WorkloadConfig,
};

const BANKS: u32 = 8;

/// A small multi-bank configuration: 8 banks, scaled-down geometry
/// (1024 rows, 128 intervals per window), two windows.
fn config() -> RunConfig {
    let mut config = RunConfig::paper(&ExperimentScale {
        windows: 2,
        banks: BANKS,
        seeds: 1,
    });
    config.geometry = Geometry::scaled_down(64).with_banks(BANKS);
    config
}

/// The paper-shaped mixed trace scaled to the small geometry: benign
/// Zipf workload on every bank plus a ramping multi-aggressor attack,
/// with aggressors placed inside the 1024-row bank.
fn mix(config: &RunConfig, seed: u64) -> MixedTrace {
    let intervals = config.intervals();
    let workload = SpecLikeWorkload::new(
        WorkloadConfig::paper(&config.geometry).with_intervals(intervals),
        seed,
    );
    let mut attack = AttackConfig::paper_ramp(
        config.geometry.banks(),
        intervals,
        u64::from(config.geometry.intervals_per_window()),
    );
    attack.kind = AttackKind::MultiAggressorRamp {
        base_row: RowAddr(500),
        max_aggressors: 20,
    };
    let attacker = Attacker::new(attack);
    MixedTrace::new(
        vec![Box::new(workload), Box::new(attacker)],
        config.timing.max_activations_per_interval(),
    )
}

#[test]
fn sharded_runs_match_sequential_for_every_technique() {
    let seed = 7;
    let available = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    for technique in Technique::TABLE3 {
        let base = config().with_parallelism(Parallelism::sequential());
        let sequential = {
            let mut mitigation = techniques::build(technique, &base, seed);
            engine::run_observed(
                mix(&base, seed),
                mitigation.as_mut(),
                &base,
                &mut NullObserver,
            )
        };
        for workers in [1, 2, available] {
            let parallel = base
                .clone()
                .with_parallelism(Parallelism::with_workers(workers));
            let sharded = engine::run_sharded(
                mix(&parallel, seed),
                &|| techniques::build(technique, &parallel, seed),
                &parallel,
            );
            assert_eq!(
                sequential, sharded,
                "{technique} diverged at {workers} workers"
            );
        }
    }
}

#[test]
fn sharded_runs_are_schedule_independent() {
    // Repeated sharded runs at a thread count above the core count give
    // the scheduler room to vary; the result must not.
    let parallel = config().with_parallelism(Parallelism::with_workers(4));
    let technique = Technique::LoLiPromi;
    let build = || techniques::build(technique, &parallel, 3);
    let first = engine::run_sharded(mix(&parallel, 3), &build, &parallel);
    for _ in 0..3 {
        let again = engine::run_sharded(mix(&parallel, 3), &build, &parallel);
        assert_eq!(first, again);
    }
}

#[test]
fn worker_count_zero_resolves_to_auto() {
    let parallel = config().with_parallelism(Parallelism::default());
    assert!(parallel.parallelism.effective_workers() >= 1);
    let sequential = config().with_parallelism(Parallelism::sequential());
    let technique = Technique::TwiCe;
    let seq = {
        let mut mitigation = techniques::build(technique, &sequential, 1);
        engine::run_observed(
            mix(&sequential, 1),
            mitigation.as_mut(),
            &sequential,
            &mut NullObserver,
        )
    };
    let auto = engine::run_sharded(
        mix(&parallel, 1),
        &|| techniques::build(technique, &parallel, 1),
        &parallel,
    );
    assert_eq!(seq, auto);
}

// --- Observers must not perturb the engine --------------------------

/// Attaching a [`TimeSeriesRecorder`] must not change any metric: the
/// observed run equals the unobserved run (modulo the recorded series
/// itself), for sequential and sharded execution alike.
#[test]
fn timeseries_recorder_does_not_perturb_results() {
    let seed = 11;
    let technique = Technique::LoLiPromi;
    let base = config().with_parallelism(Parallelism::sequential());
    let plain = Runner::new(base.clone())
        .technique(technique)
        .seed(seed)
        .run(mix(&base, seed));
    let observed = Runner::new(base.clone())
        .technique(technique)
        .seed(seed)
        .observer(TimeSeriesRecorder::new(32))
        .run(mix(&base, seed));
    assert!(observed.timeseries.is_some());
    assert_eq!(plain, observed.without_timeseries());
}

/// With observers attached, sharded runs stay bit-identical to the
/// sequential run — including the recorded time series, whose merge is
/// associative over bank shards — at 1, 2 and `available_parallelism`
/// workers.  `Runner::run_sequential` and `Runner::run_source` under the
/// same sharded policy run whole and must agree too.
#[test]
fn observed_sharded_runs_match_observed_sequential() {
    let seed = 5;
    let available = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    for technique in [Technique::Para, Technique::TwiCe, Technique::LoLiPromi] {
        let base = config().with_parallelism(Parallelism::sequential());
        let sequential = Runner::new(base.clone())
            .technique(technique)
            .seed(seed)
            .observer(TimeSeriesRecorder::new(32))
            .run(mix(&base, seed));
        assert!(sequential.timeseries.is_some());
        for workers in [1, 2, available] {
            let parallel = base
                .clone()
                .with_parallelism(Parallelism::with_workers(workers));
            let perf = PerfCounters::new();
            let sharded = Runner::new(parallel.clone())
                .technique(technique)
                .seed(seed)
                .observer(TimeSeriesRecorder::new(32))
                .observer(perf.clone())
                .run(mix(&parallel, seed));
            assert_eq!(
                sequential, sharded,
                "{technique} observed run diverged at {workers} workers"
            );
            let shard_banks: Vec<Option<u32>> = perf.shards().iter().map(|s| s.bank).collect();
            assert_eq!(
                shard_banks,
                (0..BANKS).map(Some).collect::<Vec<_>>(),
                "{technique}: one shard per bank at {workers} workers"
            );
            let whole = Runner::new(parallel.clone())
                .technique(technique)
                .seed(seed)
                .observer(TimeSeriesRecorder::new(32));
            assert_eq!(
                sequential,
                whole.run_sequential(mix(&parallel, seed)),
                "{technique} run_sequential diverged at {workers} workers"
            );
            let source = whole
                .run_source(mix(&parallel, seed))
                .expect("a shardable source passes the policy check");
            assert_eq!(
                sequential, source,
                "{technique} run_source diverged at {workers} workers"
            );
        }
    }
}

/// An [`Observe`] strategy that keeps the [`RunSummary`] of the last run.
#[derive(Clone, Default)]
struct SummaryCapture(Arc<Mutex<Option<RunSummary>>>);

impl Observe for SummaryCapture {
    fn observer(&self, _shard: &ShardInfo) -> Box<dyn Observer> {
        Box::new(NullObserver)
    }

    fn on_run_end(&self, _merged: &RunMetrics, summary: &RunSummary) {
        *self.0.lock().expect("summary lock") = Some(*summary);
    }
}

/// `RunSummary::workers` is the number of threads that ran: a request
/// for more workers than there are bank shards runs one per shard.
#[test]
fn run_summary_reports_the_workers_that_ran() {
    let banks = BANKS as usize;
    for (parallelism, workers, shards) in [
        (Parallelism::with_workers(16), banks, banks),
        (Parallelism::with_workers(2), 2, banks),
        (Parallelism::sequential(), 1, 1),
    ] {
        let config = config().with_parallelism(parallelism);
        let capture = SummaryCapture::default();
        Runner::new(config.clone())
            .technique(Technique::Para)
            .observer(capture.clone())
            .run(mix(&config, 1));
        let summary = capture
            .0
            .lock()
            .expect("summary lock")
            .expect("the run reported its summary");
        assert_eq!(
            (summary.workers, summary.shards),
            (workers, shards),
            "{parallelism:?}"
        );
    }
}

// --- Red-team search determinism ------------------------------------

/// The security-frontier search is a coordinator/worker design: all
/// randomness and ranking happen on the coordinator, workers only
/// evaluate candidates.  The full quick search under a fixed seed must
/// therefore produce *byte-identical* frontier JSON at 1, 2 and
/// `available_parallelism` workers.
#[test]
fn redteam_search_json_is_worker_count_independent() {
    use tivapromi_suite::redteam::{run_search, SearchConfig};
    let available = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let baseline = run_search(&SearchConfig::quick(7).with_workers(1)).to_json();
    for workers in [2, available] {
        let json = run_search(&SearchConfig::quick(7).with_workers(workers)).to_json();
        assert_eq!(
            baseline, json,
            "frontier JSON diverged at {workers} workers"
        );
    }
}

// --- RunMetrics::merge algebra --------------------------------------

/// Shard-like metrics: the kept fields (technique, flip threshold,
/// storage) are fixed — as they are across the shards of one run — and
/// everything else varies freely.
fn metrics_strategy() -> impl Strategy<Value = RunMetrics> {
    (
        (0u64..10_000, 0u64..1000, 0u64..500, 0u64..500),
        (0usize..5, 0u32..200_000, (any::<bool>(), 0u64..50_000)),
        (0u64..64, 0u64..5000, (any::<bool>(), 0u64..60_000)),
    )
        .prop_map(
            |(
                (workload, mitigation, triggers, fps),
                (flips, max_disturbance, (has_trigger, trigger_act)),
                (intervals, aggressors, (has_flip, flip_act)),
            )| {
                let first_trigger = has_trigger.then_some(trigger_act);
                RunMetrics {
                    technique: "shard".into(),
                    workload_activations: workload,
                    aggressor_activations: aggressors.min(workload),
                    mitigation_activations: mitigation,
                    trigger_events: triggers,
                    false_positive_events: fps.min(triggers),
                    flips,
                    max_disturbance,
                    flip_threshold: 139_000,
                    first_trigger_act: first_trigger,
                    time_to_first_flip: has_flip.then_some(flip_act),
                    flip_log: Vec::new(),
                    storage_bytes_per_bank: 64.0,
                    intervals,
                    timeseries: None,
                    // Present on roughly half the shards so the merge
                    // algebra is exercised across Some/None mixes too.
                    cycle: has_trigger.then(|| CycleStats {
                        workload_cycles: workload * 54,
                        mitigation_cycles: mitigation * 54,
                        refresh_cycles: intervals * 420,
                        row_buffer_hits: triggers,
                        row_buffer_misses: workload.saturating_sub(triggers),
                    }),
                }
            },
        )
}

proptest! {
    #[test]
    fn merge_is_associative(
        a in metrics_strategy(),
        b in metrics_strategy(),
        c in metrics_strategy(),
    ) {
        let left = a.clone().merge(b.clone()).merge(c.clone());
        let right = a.merge(b.merge(c));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn merge_is_commutative(a in metrics_strategy(), b in metrics_strategy()) {
        prop_assert_eq!(a.clone().merge(b.clone()), b.merge(a));
    }
}

//! The [`Runner`] builder: the one documented way to drive a run.
//!
//! Pick a technique, a seed, a backend fidelity tier, a parallelism
//! policy and any number of observers, then call one of three methods:
//!
//! * [`Runner::run`] — a [`TraceSplit`] trace, sharded by bank when the
//!   policy allows it.  The common case.
//! * [`Runner::run_source`] — a [`TraceSource`] that may not be
//!   shardable; a sharded policy over a source that refuses sharding, or
//!   a trace naming a bank the geometry lacks, is a typed [`RunError`].
//! * [`Runner::run_sequential`] — any [`TraceSource`], whole, whatever
//!   the policy.
//!
//! All three are thin calls into the engine's one sharded driver.
//! Callers whose mitigation no [`TechniqueSpec`] names use the engine's
//! functions instead ([`engine::run_sharded`], [`engine::run_observed`];
//! see the [`engine`] module docs).
//!
//! ```
//! use rh_harness::{Runner, RunConfig, ExperimentScale, scenario, TimeSeriesRecorder};
//! use rh_hwmodel::Technique;
//!
//! let config = RunConfig::paper(&ExperimentScale::quick());
//! let trace = scenario::paper_mix(&config, 1);
//! let metrics = Runner::new(config.clone())
//!     .technique(Technique::Para)
//!     .seed(1)
//!     .observer(TimeSeriesRecorder::new(64))
//!     .run(trace);
//! assert!(metrics.workload_activations > 0);
//! assert!(metrics.timeseries.is_some());
//! ```

use crate::config::{Parallelism, RunConfig};
use crate::engine::{self, RunError, Split};
use crate::metrics::RunMetrics;
use crate::observe::Observe;
use crate::techniques::{self, TechniqueSpec};
use dram_sim::BackendSpec;
use mem_trace::{TraceSource, TraceSplit};
use rh_hwmodel::Technique;

/// Builder over the run engine: technique, seed, backend tier,
/// parallelism and observers in one place.
///
/// With no observers attached, every run method drives the engine loop
/// monomorphised over [`crate::NullObserver`] — the builder adds nothing
/// to the per-activation path.  Attaching an observer switches to the
/// dynamically-dispatched observed loop.
pub struct Runner {
    config: RunConfig,
    spec: TechniqueSpec,
    seed: u64,
    observers: Vec<Box<dyn Observe>>,
}

impl Runner {
    /// A runner for `config`, defaulting to the paper's headline
    /// technique (LoLiPRoMi), seed 1, the config's parallelism, and no
    /// observers.
    pub fn new(config: RunConfig) -> Self {
        Runner {
            config,
            spec: TechniqueSpec::Paper(Technique::LoLiPromi),
            seed: 1,
            observers: Vec::new(),
        }
    }

    /// Selects the mitigation: a [`Technique`], a
    /// `(TivaVariant, TivaConfig)` pair, or an explicit
    /// [`TechniqueSpec`].
    #[must_use]
    pub fn technique(mut self, spec: impl Into<TechniqueSpec>) -> Self {
        self.spec = spec.into();
        self
    }

    /// Seeds the mitigation's decision streams (default 1).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the config's [`Parallelism`] policy.
    #[must_use]
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.config.parallelism = parallelism;
        self
    }

    /// Overrides the config's disturbance backend tier (see
    /// [`BackendSpec`] for what each tier guarantees).
    #[must_use]
    pub fn backend(mut self, backend: BackendSpec) -> Self {
        self.config.backend = backend;
        self
    }

    /// Attaches an [`Observe`] strategy; may be called repeatedly, and
    /// every attached strategy sees every event.
    ///
    /// Strategies with shared state ([`crate::PerfCounters`],
    /// [`crate::DisturbanceHistogram`]) are `Clone`: keep a clone to
    /// read results after the run.
    #[must_use]
    pub fn observer(mut self, observe: impl Observe + 'static) -> Self {
        self.observers.push(Box::new(observe));
        self
    }

    /// The technique spec this runner will build.
    pub fn spec(&self) -> TechniqueSpec {
        self.spec
    }

    /// The run configuration (with any [`Runner::parallelism`] override
    /// applied).
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// Drives `trace` through the configured technique, sharding by
    /// bank when the parallelism policy allows it.
    ///
    /// Deterministic: the result is bit-identical for every worker
    /// count, with or without deterministic observers attached.
    ///
    /// # Panics
    ///
    /// Panics with [`RunError::BankOutOfRange`]'s message if the trace
    /// names a bank the geometry lacks.
    pub fn run<S: TraceSplit>(&self, trace: S) -> RunMetrics {
        self.drive(trace, Split::ByBank(S::bank_shard))
            .unwrap_or_else(|err| panic!("{err}"))
    }

    /// Drives a [`TraceSource`] that may or may not support bank
    /// sharding, surfacing the mismatch as a typed error.
    ///
    /// When the parallelism policy asks for a sharded run (`shard_by_bank`
    /// over more than one bank) but the source's
    /// [`TraceSource::shard_support`] refuses — for example
    /// [`mem_trace::CpuWorkload`], whose cores share one RNG and whose
    /// cache hierarchies span every bank — this returns the source's
    /// refusal ([`RunError::Unshardable`]) instead of silently running a
    /// schedule-dependent computation.  Callers that accept sequential
    /// execution for such sources should request it explicitly
    /// ([`Parallelism::sequential`], or a single-bank geometry) before
    /// calling.
    ///
    /// A source that passes the check still runs whole: a bare
    /// `TraceSource` offers no `bank_shard` (that is [`Runner::run`]),
    /// and the determinism contract makes the whole run bit-identical
    /// to the sharded one.
    ///
    /// # Errors
    ///
    /// [`RunError::Unshardable`] when a sharded run was requested but
    /// the source cannot be split by bank; [`RunError::BankOutOfRange`]
    /// when the trace names a bank the geometry lacks.
    pub fn run_source<S: TraceSource>(&self, trace: S) -> Result<RunMetrics, RunError> {
        self.drive(trace, Split::Checked)
    }

    /// Drives an unshardable trace ([`TraceSource`] only, e.g. one that
    /// is not `Send`) sequentially, still honouring observers: the
    /// whole run is reported as a single shard.
    ///
    /// # Panics
    ///
    /// Panics with [`RunError::BankOutOfRange`]'s message if the trace
    /// names a bank the geometry lacks.
    pub fn run_sequential<S: TraceSource>(&self, trace: S) -> RunMetrics {
        self.drive(trace, Split::Whole)
            .unwrap_or_else(|err| panic!("{err}"))
    }

    fn drive<S: TraceSource>(&self, trace: S, split: Split<S>) -> Result<RunMetrics, RunError> {
        // Static dispatch: the engine loop matches on [`AnyMitigation`]
        // per interval segment instead of making per-event vtable calls.
        let build = || techniques::build_any(self.spec, &self.config, self.seed);
        engine::drive(trace, split, &build, &self.config, &self.observers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentScale;
    use crate::observe::{PerfCounters, TimeSeriesRecorder};
    use crate::scenario;

    fn config() -> RunConfig {
        RunConfig::paper(&ExperimentScale::quick())
    }

    #[test]
    fn runner_matches_direct_engine_call() {
        let config = config();
        let direct = engine::run_sharded(
            scenario::paper_mix(&config, 4),
            &|| techniques::build(Technique::Para, &config, 4),
            &config,
        );
        let built = Runner::new(config.clone())
            .technique(Technique::Para)
            .seed(4)
            .run(scenario::paper_mix(&config, 4));
        assert_eq!(direct, built);
    }

    #[test]
    fn runner_defaults_to_lolipromi_seed_1() {
        let runner = Runner::new(config());
        assert_eq!(runner.spec(), TechniqueSpec::Paper(Technique::LoLiPromi));
        let config = config();
        let metrics = runner.run(scenario::paper_mix(&config, 1));
        assert_eq!(metrics.technique, "LoLiPRoMi");
    }

    #[test]
    fn observers_do_not_perturb_metrics() {
        let config = config();
        let plain = Runner::new(config.clone())
            .technique(Technique::TwiCe)
            .run(scenario::paper_mix(&config, 9));
        let perf = PerfCounters::default();
        let observed = Runner::new(config.clone())
            .technique(Technique::TwiCe)
            .observer(TimeSeriesRecorder::new(32))
            .observer(perf.clone())
            .run(scenario::paper_mix(&config, 9));
        assert!(observed.timeseries.is_some());
        assert_eq!(plain, observed.clone().without_timeseries());
        assert!(!perf.shards().is_empty());
    }

    #[test]
    fn run_sequential_attaches_whole_run_observer() {
        let config = config();
        let metrics = Runner::new(config.clone())
            .observer(TimeSeriesRecorder::new(16))
            .run_sequential(scenario::paper_mix(&config, 2));
        let series = metrics.timeseries.expect("recorder attached");
        assert_eq!(series.stride, 16);
        assert!(!series.points.is_empty());
    }

    #[test]
    fn run_source_rejects_unshardable_trace_under_sharded_policy() {
        use mem_trace::cpu::{CpuWorkload, CpuWorkloadConfig};
        let mut config = config();
        config.geometry = config.geometry.with_banks(4);
        config.parallelism = Parallelism::with_workers(2);
        let cpu = CpuWorkload::new(CpuWorkloadConfig::paper(&config.geometry, 4), 7);
        let err = Runner::new(config)
            .run_source(cpu)
            .expect_err("sharded policy over an unshardable source must fail");
        let RunError::Unshardable(shard) = &err else {
            panic!("expected an unshardable-source error, got {err:?}");
        };
        assert_eq!(shard.source, "CpuWorkload");
        assert!(err.to_string().contains("cannot be sharded by bank"));
    }

    #[test]
    fn run_source_accepts_unshardable_trace_sequentially() {
        use mem_trace::cpu::{CpuWorkload, CpuWorkloadConfig};
        let mut config = config();
        config.parallelism = Parallelism::sequential();
        let build = |seed| CpuWorkload::new(CpuWorkloadConfig::paper(&config.geometry, 4), seed);
        let metrics = Runner::new(config.clone())
            .run_source(build(7))
            .expect("sequential policy accepts any source");
        assert_eq!(
            metrics,
            Runner::new(config.clone()).run_sequential(build(7))
        );
        assert!(metrics.workload_activations > 0);
    }

    #[test]
    fn run_source_runs_shardable_traces_like_run_sequential() {
        let config = config();
        let metrics = Runner::new(config.clone())
            .technique(Technique::Para)
            .seed(3)
            .run_source(scenario::paper_mix(&config, 3))
            .expect("shardable sources always pass the policy check");
        let sequential = Runner::new(config.clone())
            .technique(Technique::Para)
            .seed(3)
            .run_sequential(scenario::paper_mix(&config, 3));
        assert_eq!(metrics, sequential);
    }

    #[test]
    fn sequential_and_sharded_observed_runs_agree() {
        let config = config();
        let sharded = Runner::new(config.clone())
            .technique(Technique::Para)
            .seed(2)
            .observer(TimeSeriesRecorder::new(16))
            .run(scenario::paper_mix(&config, 2));
        let sequential = Runner::new(config.clone())
            .technique(Technique::Para)
            .seed(2)
            .observer(TimeSeriesRecorder::new(16))
            .run_sequential(scenario::paper_mix(&config, 2));
        assert_eq!(sharded, sequential);
    }
}

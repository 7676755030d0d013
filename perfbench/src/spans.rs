//! Spans recorded from outside the simulator.
//!
//! A traced job drives the simulator's real engine
//! ([`engine::run_on_backend_observed`]) with its three layers wrapped:
//! the trace source, the mitigation kernel and the disturbance backend.
//! Each wrapper times every call into its layer, so the engine itself
//! decides the call order — `next_batch` → `on_batch` → backend
//! apply/refresh → `on_refresh_interval`, one batch at a time — and each
//! layer sees the same cache-warm batch the untraced run does.
//!
//! Coarse calls (job, trace construction, bank split, per-run set-up,
//! engine run, merge, fleet fold) become one [`Span`] each.  The
//! per-batch and per-event calls inside one engine run are folded into
//! one span per layer, carrying the call count and summed busy time:
//! a run makes 10⁵–10⁷ of them, and one record each would dominate
//! memory.  Per-event backend activations are timed one call in
//! [`ACTIVATE_SAMPLE`] and scaled up, because a time-stamp read costs
//! more than an activation on the exact tier.  Every timed call's busy
//! time is corrected by the calibrated timer overhead.

use crate::clock::{calibration, ticks, Calibration};
use dram_sim::{
    BackendSpec, BankId, Command, CycleBackend, CycleStats, DeviceStats, DisturbanceBackend,
    DramDevice, FlipEvent, RowAddr,
};
use mem_trace::{EventBatch, ShardError, TraceEvent, TraceSource, TraceSplit};
use rh_harness::{engine, techniques, NullObserver, RunConfig, RunMetrics};
use rh_hwmodel::Technique;
use std::ops::Range;
use tivapromi::{ActionSink, Mitigation, MitigationAction};

/// One backend activation in this many is timed; the rest are counted.
pub const ACTIVATE_SAMPLE: u64 = 8;

/// What a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One job of a pool or fleet (root span).
    Job,
    /// SPEC-like / attacker / mixed-trace synthesis and batch build.
    Synth,
    /// The CPU and cache model (`CpuWorkload`) and its batch build.
    CpuSynth,
    /// Recorded-trace copy, bank split and batch build (`ReplayTrace`).
    Replay,
    /// A mitigation kernel, by Table III index.
    Kernel(usize),
    /// A disturbance backend tier.
    Backend(BackendSpec),
    /// One engine run (`run_on_backend_observed`).
    Engine,
    /// Per-run construction of mitigation and backend.
    RunSetup,
    /// `RunMetrics::merge` over bank shards.
    Merge,
    /// `CampaignSpec::device` over the whole fleet.
    Materialize,
    /// `CohortPartial::absorb` of one device.
    Fold,
    /// `FleetReport::new`.
    Report,
}

impl Layer {
    /// The span name written to the span file.
    pub fn name(self) -> String {
        match self {
            Layer::Job => "job".into(),
            Layer::Synth => "trace.synth".into(),
            Layer::CpuSynth => "trace.cpu_synth".into(),
            Layer::Replay => "trace.replay_build".into(),
            Layer::Kernel(i) => format!("kernel.{}", kernel_name(i)),
            Layer::Backend(tier) => format!("backend.{tier}"),
            Layer::Engine => "engine".into(),
            Layer::RunSetup => "engine.run_setup".into(),
            Layer::Merge => "merge".into(),
            Layer::Materialize => "fleet.materialize".into(),
            Layer::Fold => "fleet.fold".into(),
            Layer::Report => "fleet.report".into(),
        }
    }
}

/// Lower-case metric name of Table III technique `index`.
pub fn kernel_name(index: usize) -> String {
    Technique::TABLE3[index].name().to_lowercase()
}

/// Table III index of `technique`.
pub fn table3_index(technique: Technique) -> usize {
    Technique::TABLE3
        .iter()
        .position(|&t| t == technique)
        .expect("the benchmark runs Table III techniques only")
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was measured.
    pub layer: Layer,
    /// Job the span belongs to.
    pub job: u32,
    /// Index of the span within its job.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Start tick (first call, for folded spans).
    pub start: u64,
    /// End tick (last call, for folded spans).
    pub end: u64,
    /// Calls folded into the span.
    pub calls: u64,
    /// Calls actually timed (all, except sampled activations).
    pub timed: u64,
    /// Busy time in ns, corrected for timer overhead and scaled up for
    /// sampling.
    pub busy_ns: f64,
    /// Activations the calls handled.
    pub acts: u64,
    /// Mitigation actions the kernel emitted.
    pub actions: u64,
    /// Bit flips the backend recorded.
    pub flips: u64,
}

/// Per-job span recorder.
pub struct Tracer {
    cal: Calibration,
    job: u32,
    stack: Vec<u32>,
    /// Spans recorded so far, in start order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for job `job`.
    pub fn new(job: u32) -> Self {
        Tracer {
            cal: calibration(),
            job,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn push(&mut self, layer: Layer, start: u64) -> usize {
        let id = u32::try_from(self.spans.len()).expect("span count fits u32");
        self.spans.push(Span {
            layer,
            job: self.job,
            id,
            parent: self.stack.last().copied(),
            start,
            end: start,
            calls: 1,
            timed: 1,
            busy_ns: 0.0,
            acts: 0,
            actions: 0,
            flips: 0,
        });
        id as usize
    }

    /// Runs `f` inside a span of `layer`; spans `f` records nest under it.
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = self.push(layer, ticks());
        self.stack.push(self.spans[index].id);
        let out = f(self);
        let end = ticks();
        self.stack.pop();
        let span = &mut self.spans[index];
        span.end = end;
        span.busy_ns = (self.cal.ns(end - span.start) - self.cal.inside_ns).max(0.0);
        out
    }

    /// Records the calls `acc` folded as one span under the current span,
    /// with the bit flips the layer recorded.
    pub fn fold(&mut self, layer: Layer, acc: &Acc, flips: u64) {
        if acc.calls + acc.sampled_calls == 0 {
            return;
        }
        let index = self.push(layer, acc.first);
        let cal = self.cal;
        let span = &mut self.spans[index];
        span.end = acc.last;
        span.calls = acc.calls + acc.sampled_calls;
        span.timed = acc.timed + acc.sampled_timed;
        span.busy_ns = acc.busy_ns(&cal);
        span.acts = acc.acts;
        span.actions = acc.actions;
        span.flips = flips;
    }
}

/// Accumulated calls into one layer during one engine run.
#[derive(Debug, Default)]
pub struct Acc {
    first: u64,
    last: u64,
    calls: u64,
    timed: u64,
    ticks: u64,
    sampled_calls: u64,
    sampled_timed: u64,
    sampled_ticks: u64,
    /// Activations handled.
    pub acts: u64,
    /// Actions emitted.
    pub actions: u64,
}

impl Acc {
    #[inline(always)]
    fn note(&mut self, a: u64, b: u64) {
        if self.first == 0 {
            self.first = a;
        }
        self.last = b;
    }

    /// Times one call.
    #[inline(always)]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let a = ticks();
        let out = f();
        let b = ticks();
        self.note(a, b);
        self.calls += 1;
        self.timed += 1;
        self.ticks += b - a;
        out
    }

    /// A call of a sampled kind: one in [`ACTIVATE_SAMPLE`] is timed.
    #[inline(always)]
    pub fn sample<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.sampled_calls += 1;
        if self.sampled_calls.is_multiple_of(ACTIVATE_SAMPLE) {
            let a = ticks();
            let out = f();
            let b = ticks();
            self.note(a, b);
            self.sampled_timed += 1;
            self.sampled_ticks += b - a;
            out
        } else {
            f()
        }
    }

    /// Overhead-corrected busy time in ns, sampled calls scaled up.
    pub fn busy_ns(&self, cal: &Calibration) -> f64 {
        let timed = (cal.ns(self.ticks) - self.timed as f64 * cal.inside_ns).max(0.0);
        let sampled = if self.sampled_timed == 0 {
            0.0
        } else {
            let mean = cal.ns(self.sampled_ticks) / self.sampled_timed as f64 - cal.inside_ns;
            mean.max(0.0) * self.sampled_calls as f64
        };
        timed + sampled
    }
}

/// A trace source whose `next_batch` calls are timed.
pub struct TracedSource<S> {
    inner: S,
    acc: Acc,
}

impl<S: TraceSource> TraceSource for TracedSource<S> {
    fn next_interval(&mut self, out: &mut Vec<TraceEvent>) -> bool {
        let before = out.len();
        let more = self.acc.time(|| self.inner.next_interval(out));
        self.acc.acts += (out.len() - before) as u64;
        more
    }

    fn intervals_hint(&self) -> Option<u64> {
        self.inner.intervals_hint()
    }

    fn shard_support(&self) -> Result<(), ShardError> {
        self.inner.shard_support()
    }

    fn max_batch_intervals(&self) -> u64 {
        self.inner.max_batch_intervals()
    }

    fn next_batch(&mut self, batch: &mut EventBatch, max_intervals: u64) -> bool {
        let more = self
            .acc
            .time(|| self.inner.next_batch(batch, max_intervals));
        self.acc.acts += batch.len() as u64;
        more
    }
}

/// A mitigation whose kernel entry points are timed.
pub struct TracedMitigation<M> {
    inner: M,
    acc: Acc,
}

impl<M: Mitigation> Mitigation for TracedMitigation<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_activate(&mut self, bank: BankId, row: RowAddr, actions: &mut Vec<MitigationAction>) {
        let before = actions.len();
        self.acc.time(|| self.inner.on_activate(bank, row, actions));
        self.acc.acts += 1;
        self.acc.actions += (actions.len() - before) as u64;
    }

    fn on_refresh_interval(&mut self, actions: &mut Vec<MitigationAction>) {
        let before = actions.len();
        self.acc.time(|| self.inner.on_refresh_interval(actions));
        self.acc.actions += (actions.len() - before) as u64;
    }

    fn storage_bits_per_bank(&self) -> u64 {
        self.inner.storage_bits_per_bank()
    }

    fn storage_bytes_per_bank(&self) -> f64 {
        self.inner.storage_bytes_per_bank()
    }

    fn on_batch(&mut self, batch: &EventBatch, range: Range<usize>, sink: &mut ActionSink) {
        let before = sink.len();
        self.acc.acts += range.len() as u64;
        self.acc.time(|| self.inner.on_batch(batch, range, sink));
        self.acc.actions += (sink.len() - before) as u64;
    }
}

/// A disturbance backend whose commands are timed (activations sampled).
pub struct TracedBackend<B> {
    inner: B,
    acc: Acc,
}

impl<B: DisturbanceBackend> DisturbanceBackend for TracedBackend<B> {
    #[inline]
    fn apply(&mut self, command: Command) {
        if let Command::Activate { .. } = command {
            self.acc.acts += 1;
            self.acc.sample(|| self.inner.apply(command));
        } else {
            self.acc.time(|| self.inner.apply(command));
        }
    }

    fn defers_flips(&self) -> bool {
        self.inner.defers_flips()
    }

    fn apply_activations(&mut self, banks: &[BankId], rows: &[RowAddr]) {
        self.acc.acts += banks.len() as u64;
        self.acc.time(|| self.inner.apply_activations(banks, rows));
    }

    fn flips(&self) -> &[FlipEvent] {
        self.inner.flips()
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }

    fn max_disturbance_seen(&self) -> u32 {
        self.inner.max_disturbance_seen()
    }

    fn device(&self) -> Option<&DramDevice> {
        self.inner.device()
    }

    fn cycle_stats(&self) -> Option<CycleStats> {
        self.inner.cycle_stats()
    }
}

/// One engine run with all three layers wrapped — the traced
/// counterpart of `engine::run_observed`, building the backend the
/// same way for `config.backend`.
pub fn engine_run<S: TraceSource>(
    tracer: &mut Tracer,
    source_layer: Layer,
    trace: S,
    technique: Technique,
    seed: u64,
    config: &RunConfig,
) -> RunMetrics {
    let kernel = Layer::Kernel(table3_index(technique));
    match config.backend {
        BackendSpec::Exact => {
            let (mitigation, backend) = tracer.span(Layer::RunSetup, |_| {
                (
                    techniques::build_any(technique, config, seed),
                    config.build_device(),
                )
            });
            drive(
                tracer,
                source_layer,
                kernel,
                trace,
                mitigation,
                backend,
                config,
            )
        }
        BackendSpec::Fast => {
            let (mitigation, backend) = tracer.span(Layer::RunSetup, |_| {
                (
                    techniques::build_any(technique, config, seed),
                    config.build_fast_backend(),
                )
            });
            drive(
                tracer,
                source_layer,
                kernel,
                trace,
                mitigation,
                backend,
                config,
            )
        }
        BackendSpec::Cycle => {
            let (mitigation, backend) = tracer.span(Layer::RunSetup, |_| {
                (
                    techniques::build_any(technique, config, seed),
                    CycleBackend::new(config.build_device()),
                )
            });
            drive(
                tracer,
                source_layer,
                kernel,
                trace,
                mitigation,
                backend,
                config,
            )
        }
    }
}

fn drive<S, M, B>(
    tracer: &mut Tracer,
    source_layer: Layer,
    kernel: Layer,
    trace: S,
    mitigation: M,
    backend: B,
    config: &RunConfig,
) -> RunMetrics
where
    S: TraceSource,
    M: Mitigation,
    B: DisturbanceBackend,
{
    let mut source = TracedSource {
        inner: trace,
        acc: Acc::default(),
    };
    let mut mitigation = TracedMitigation {
        inner: mitigation,
        acc: Acc::default(),
    };
    let mut backend = TracedBackend {
        inner: backend,
        acc: Acc::default(),
    };
    tracer.span(Layer::Engine, |t| {
        let metrics = engine::run_on_backend_observed(
            &mut source,
            &mut mitigation,
            config,
            &mut backend,
            &mut NullObserver,
        );
        t.fold(source_layer, &source.acc, 0);
        t.fold(kernel, &mitigation.acc, 0);
        t.fold(
            Layer::Backend(config.backend),
            &backend.acc,
            metrics.flips as u64,
        );
        metrics
    })
}

/// The traced counterpart of `engine::run_sharded` at one worker:
/// construct the trace, split it by bank, run each shard, merge in bank
/// order.  `source_layer` names the trace layer construction and
/// splitting are charged to.
pub fn sharded_run<S: TraceSplit>(
    tracer: &mut Tracer,
    source_layer: Layer,
    make: impl FnOnce() -> S,
    technique: Technique,
    seed: u64,
    config: &RunConfig,
) -> RunMetrics {
    let trace = tracer.span(source_layer, |_| make());
    let banks = config.geometry.banks();
    if !config.parallelism.shard_by_bank || banks <= 1 {
        return engine_run(tracer, source_layer, trace, technique, seed, config);
    }
    let shards: Vec<Box<dyn TraceSplit>> = tracer.span(source_layer, |_| {
        (0..banks).map(|b| trace.bank_shard(BankId(b))).collect()
    });
    let results: Vec<RunMetrics> = shards
        .into_iter()
        .map(|shard| engine_run(tracer, source_layer, shard, technique, seed, config))
        .collect();
    tracer.span(Layer::Merge, |_| {
        results
            .into_iter()
            .reduce(RunMetrics::merge)
            .expect("geometry has at least one bank")
    })
}

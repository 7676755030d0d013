//! `replay-tiers`: one paper-mix trace, recorded once during set-up,
//! replayed through the nine techniques on the exact, fast and cycle
//! tiers.  Synthesis is out of the timed region; the fast tier takes the
//! engine's flip-deferring chunked replay.

use crate::pool;
use crate::spans::{self, Layer, Tracer};
use crate::workload::{
    check_kernel_actions, digest_metrics, kernel_actions_by_job, Checked, Traced, Workload,
};
use dram_sim::BackendSpec;
use mem_trace::{ReplayTrace, TraceSource};
use rh_harness::{scenario, ExperimentScale, Parallelism, RunConfig, RunMetrics, Runner};
use rh_hwmodel::Technique;

/// The three fidelity tiers, in report order.
pub const TIERS: [BackendSpec; 3] = [BackendSpec::Exact, BackendSpec::Fast, BackendSpec::Cycle];

/// The workload at one size.
pub struct ReplayTiers {
    /// Benchmark seed: seeds the recorded trace and the mitigations.
    pub seed: u64,
    /// Refresh windows of the recorded trace.
    pub windows: u64,
}

/// Set-up: the config, the recorded trace and the job list.
pub struct Setup {
    config: RunConfig,
    trace: ReplayTrace,
    jobs: Vec<(u32, Technique, BackendSpec)>,
}

/// Records `config.intervals()` intervals of the paper mix.
fn record(config: &RunConfig, seed: u64) -> ReplayTrace {
    let mut source = scenario::paper_mix(config, seed);
    let mut intervals = Vec::new();
    for _ in 0..config.intervals() {
        let mut events = Vec::new();
        if !source.next_interval(&mut events) {
            break;
        }
        intervals.push(events);
    }
    ReplayTrace::new(intervals)
}

impl Workload for ReplayTiers {
    type Setup = Setup;
    type Raw = Vec<RunMetrics>;

    fn setup(&self) -> Setup {
        let config = RunConfig::paper(&ExperimentScale {
            windows: self.windows,
            banks: 4,
            seeds: 1,
        })
        .with_parallelism(Parallelism::with_workers(1));
        let trace = record(&config, self.seed);
        assert_eq!(
            trace.intervals_hint(),
            Some(config.intervals()),
            "trace covers the run"
        );
        let mut jobs = Vec::new();
        for &technique in &Technique::TABLE3 {
            for tier in TIERS {
                let id = u32::try_from(jobs.len()).expect("job count fits u32");
                jobs.push((id, technique, tier));
            }
        }
        Setup {
            config,
            trace,
            jobs,
        }
    }

    fn run(&self, setup: &Setup) -> (Vec<RunMetrics>, f64) {
        let done = pool::run(&setup.jobs, |&(_, technique, tier)| {
            Runner::new(setup.config.clone())
                .technique(technique)
                .seed(self.seed)
                .backend(tier)
                .run(setup.trace.clone())
        });
        let busy = done.iter().map(|d| d.busy_s).sum();
        (done.into_iter().map(|d| d.out).collect(), busy)
    }

    fn traced(&self, setup: &Setup) -> Traced<Vec<RunMetrics>> {
        let done = pool::run(&setup.jobs, |&(id, technique, tier)| {
            let config = setup.config.clone().with_backend(tier);
            let mut tracer = Tracer::new(id);
            let metrics = tracer.span(Layer::Job, |t| {
                spans::sharded_run(
                    t,
                    Layer::Replay,
                    || setup.trace.clone(),
                    technique,
                    self.seed,
                    &config,
                )
            });
            (metrics, tracer.spans)
        });
        let mut raw = Vec::new();
        let mut all = Vec::new();
        for d in done {
            raw.push(d.out.0);
            all.extend(d.out.1);
        }
        Traced {
            raw,
            spans: all,
            devices: Vec::new(),
        }
    }

    fn check(&self, setup: &Setup, raw: &Vec<RunMetrics>) -> Checked {
        let mut checked = Checked {
            ops: raw.len() as u64,
            acts: raw.iter().map(|m| m.workload_activations).sum(),
            digest: digest_metrics(raw),
            ..Checked::default()
        };
        checked.summary.push(format!(
            "{:<10} {:>9} {:>8} {:>12}  flips exact/fast/cycle",
            "technique", "triggers", "FP", "first-trig"
        ));
        for (jobs, runs) in setup.jobs.chunks(TIERS.len()).zip(raw.chunks(TIERS.len())) {
            let technique = jobs[0].1;
            let exact = &runs[0];
            for (job, m) in jobs.iter().zip(runs).skip(1) {
                let decision = |m: &RunMetrics| {
                    (
                        m.trigger_events,
                        m.false_positive_events,
                        m.first_trigger_act,
                    )
                };
                if decision(m) != decision(exact) {
                    checked.fail(
                        1,
                        format!(
                            "{technique} {} tier decided {:?}, exact tier {:?}",
                            job.2,
                            decision(m),
                            decision(exact)
                        ),
                    );
                }
            }
            checked.summary.push(format!(
                "{:<10} {:>9} {:>8} {:>12}  {}/{}/{}",
                technique.name(),
                exact.trigger_events,
                exact.false_positive_events,
                exact
                    .first_trigger_act
                    .map_or("-".to_string(), |a| a.to_string()),
                runs[0].flips,
                runs[1].flips,
                runs[2].flips,
            ));
        }
        checked
    }

    fn check_traced(
        &self,
        _setup: &Setup,
        traced: &Traced<Vec<RunMetrics>>,
        checked: &mut Checked,
    ) {
        let actions = kernel_actions_by_job(&traced.spans);
        for (job, m) in traced.raw.iter().enumerate() {
            let job = u32::try_from(job).expect("job count fits u32");
            check_kernel_actions(&actions, job, m.trigger_events, &m.technique, checked);
        }
    }
}

//! `fig4-mix`: the nine Table III techniques × seeds on the paper's
//! mixed trace, exact tier, paper geometry at 4 banks — what
//! `experiments::fig4` runs, one `fig4::run_one` per job, each job
//! re-synthesizing its trace.

use crate::pool;
use crate::spans::{self, Layer, Tracer};
use crate::workload::{
    check_kernel_actions, digest_metrics, kernel_actions_by_job, Checked, Traced, Workload,
};
use mem_trace::TraceSource;
use rh_harness::experiments::fig4;
use rh_harness::{scenario, techniques, ExperimentScale, Parallelism, RunConfig, RunMetrics};
use rh_hwmodel::reference::TABLE3;
use rh_hwmodel::Technique;
use tivapromi::Mitigation;

/// The workload at one size.
pub struct Fig4Mix {
    /// Benchmark seed; job seeds derive from it.
    pub seed: u64,
    /// Refresh windows per job.
    pub windows: u64,
    /// Seeds per technique.
    pub seeds: u64,
}

/// Set-up: the run config and the job list.
pub struct Setup {
    config: RunConfig,
    jobs: Vec<(u32, Technique, u64)>,
}

impl Fig4Mix {
    /// Job seeds: `seeds` consecutive values unique to the benchmark seed.
    fn job_seeds(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.seeds).map(|k| self.seed * self.seeds + k + 1)
    }
}

impl Workload for Fig4Mix {
    type Setup = Setup;
    type Raw = Vec<RunMetrics>;

    fn setup(&self) -> Setup {
        // One worker per job: the job pool is the only parallelism, and
        // each job's bank shards run inline and merge in bank order.
        let config = RunConfig::paper(&ExperimentScale {
            windows: self.windows,
            banks: 4,
            seeds: 1,
        })
        .with_parallelism(Parallelism::with_workers(1));
        let mut jobs = Vec::new();
        for &technique in &Technique::TABLE3 {
            for seed in self.job_seeds() {
                let id = u32::try_from(jobs.len()).expect("job count fits u32");
                jobs.push((id, technique, seed));
            }
        }
        for &(_, technique, seed) in &jobs {
            let built = techniques::build_any(technique, &config, seed);
            assert_eq!(built.name(), technique.name(), "technique builds as itself");
            scenario::paper_mix(&config, seed)
                .shard_support()
                .expect("the paper mix shards by bank");
        }
        Setup { config, jobs }
    }

    fn run(&self, setup: &Setup) -> (Vec<RunMetrics>, f64) {
        let done = pool::run(&setup.jobs, |&(_, technique, seed)| {
            fig4::run_one(technique, &setup.config, seed)
        });
        let busy = done.iter().map(|d| d.busy_s).sum();
        (done.into_iter().map(|d| d.out).collect(), busy)
    }

    fn traced(&self, setup: &Setup) -> Traced<Vec<RunMetrics>> {
        let done = pool::run(&setup.jobs, |&(id, technique, seed)| {
            let mut tracer = Tracer::new(id);
            let metrics = tracer.span(Layer::Job, |t| {
                spans::sharded_run(
                    t,
                    Layer::Synth,
                    || scenario::paper_mix(&setup.config, seed),
                    technique,
                    seed,
                    &setup.config,
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
        for (&(_, technique, seed), m) in setup.jobs.iter().zip(raw) {
            if m.flips != 0 {
                checked.fail(1, format!("{technique} seed {seed}: {} bit flips", m.flips));
            }
        }
        checked.summary = model_error(setup, raw);
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

/// Each technique's simulated overhead and FPR (mean over seeds) next
/// to Table III, so a speed figure always travels with the model's
/// error against the paper.
fn model_error(setup: &Setup, raw: &[RunMetrics]) -> Vec<String> {
    let mut lines = vec![format!(
        "{:<10} {:>12} {:>9} {:>8} {:>10} {:>9} {:>8}",
        "technique", "overhead[%]", "paper", "ratio", "FPR[%]", "paper", "ratio"
    )];
    for row in &TABLE3 {
        let runs: Vec<&RunMetrics> = setup
            .jobs
            .iter()
            .zip(raw)
            .filter(|((_, t, _), _)| *t == row.technique)
            .map(|(_, m)| m)
            .collect();
        let mean = |f: fn(&RunMetrics) -> f64| {
            runs.iter().map(|m| f(m)).sum::<f64>() / runs.len().max(1) as f64
        };
        let overhead = mean(RunMetrics::overhead_percent);
        let fpr = mean(RunMetrics::fpr_percent);
        let ratio = |sim: f64, paper: f64| {
            if paper > 0.0 {
                format!("{:.2}", sim / paper)
            } else {
                "-".to_string()
            }
        };
        lines.push(format!(
            "{:<10} {:>12.4} {:>9.4} {:>8} {:>10.4} {:>9.4} {:>8}",
            row.technique.name(),
            overhead,
            row.overhead_mean,
            ratio(overhead, row.overhead_mean),
            fpr,
            row.fpr,
            ratio(fpr, row.fpr),
        ));
    }
    lines
}

//! `fleet-screen`: the `fleet --quick` campaign shape — broad,
//! weak-tail and cpu cohorts at the 1/64 geometry — scaled to a few
//! thousand devices and run through `Fleet::run_with_sink` on two
//! workers.  Each device run is short, so per-run construction, the CPU
//! and cache model, the dispatcher and the in-order fold weigh more
//! than kernel work.

use crate::pool::WORKERS;
use crate::spans::{self, Layer, Span, Tracer};
use crate::workload::{
    check_kernel_actions, digest_metrics, fnv, kernel_actions_by_job, Checked, Traced, Workload,
};
use dram_sim::BankId;
use mem_trace::TraceSplit;
use rh_fleet::{
    CampaignSpec, CohortPartial, CohortSpec, DeviceSpec, Fleet, FleetReport, WorkloadKind,
};
use rh_harness::parallel::{TwoLevelDispatcher, WorkerCursor};
use rh_harness::RunMetrics;
use rh_hwmodel::Technique;
use std::collections::BTreeMap;
use std::sync::mpsc;

/// Cohort names, in campaign order.
pub const COHORTS: [&str; 3] = ["broad", "weak-tail", "cpu"];

/// The workload at one size.
pub struct FleetScreen {
    /// Campaign seed.
    pub seed: u64,
    /// Devices across the three cohorts.
    pub devices: u64,
}

/// The `fleet --quick` cohort split over `devices` devices.
pub fn campaign(seed: u64, devices: u64) -> CampaignSpec {
    let cpu = devices / 8;
    let weak = devices / 4;
    let broad = devices - weak - cpu;
    CampaignSpec::new(seed)
        .cohort(
            CohortSpec::new(COHORTS[0], broad)
                .banks(1, 4)
                .techniques(vec![
                    Technique::LoLiPromi,
                    Technique::Para,
                    Technique::TwiCe,
                ]),
        )
        .cohort(
            CohortSpec::new(COHORTS[1], weak)
                .banks(1, 2)
                .flip_threshold(1024, 2048)
                .attack("flooding"),
        )
        .cohort(
            CohortSpec::new(COHORTS[2], cpu)
                .workload(WorkloadKind::Cpu)
                .banks(1, 1),
        )
}

/// Set-up: the validated fleet and its materialized devices.
pub struct Setup {
    fleet: Fleet,
    devices: Vec<DeviceSpec>,
}

/// One round: the report and what the sink saw, in call order.
pub struct Raw {
    /// `Fleet::run_with_sink`'s report.
    pub report: FleetReport,
    /// `(device index, cohort, metrics)` per sink call.
    pub seen: Vec<(u64, usize, RunMetrics)>,
}

/// Jobs a device decomposes into, as the fleet schedules it: one per
/// bank for multi-bank SPEC-like devices, else one.
fn device_jobs(device: &DeviceSpec) -> usize {
    if device.workload == WorkloadKind::SpecLike && device.banks > 1 {
        device.banks as usize
    } else {
        1
    }
}

/// One traced job of one device — the fleet's per-job run, with spans.
fn device_job(t: &mut Tracer, device: &DeviceSpec, job: usize) -> RunMetrics {
    let config = t.span(Layer::RunSetup, |_| device.run_config());
    match device.workload {
        WorkloadKind::Cpu => {
            let trace = t.span(Layer::CpuSynth, |_| device.cpu_trace(&config));
            spans::engine_run(
                t,
                Layer::CpuSynth,
                trace,
                device.technique,
                device.seed,
                &config,
            )
        }
        WorkloadKind::SpecLike if device.banks > 1 => {
            let bank = BankId(u32::try_from(job).expect("job index is a bank index"));
            let shard = t.span(Layer::Synth, |_| {
                device.spec_trace(&config).bank_shard(bank)
            });
            spans::engine_run(
                t,
                Layer::Synth,
                shard,
                device.technique,
                device.seed,
                &config,
            )
        }
        WorkloadKind::SpecLike => {
            let trace = t.span(Layer::Synth, |_| device.spec_trace(&config));
            spans::engine_run(
                t,
                Layer::Synth,
                trace,
                device.technique,
                device.seed,
                &config,
            )
        }
    }
}

impl Workload for FleetScreen {
    type Setup = Setup;
    type Raw = Raw;

    fn setup(&self) -> Setup {
        let fleet = Fleet::new(campaign(self.seed, self.devices)).workers(WORKERS);
        fleet.validate().expect("the benchmark campaign is valid");
        let devices: Vec<DeviceSpec> = (0..self.devices)
            .map(|i| fleet.spec().device(i).expect("index inside the fleet"))
            .collect();
        for device in &devices {
            let config = device.run_config();
            assert_eq!(
                config.geometry.banks(),
                device.banks,
                "device config has its banks"
            );
        }
        Setup { fleet, devices }
    }

    fn run(&self, setup: &Setup) -> (Raw, f64) {
        let mut seen = Vec::with_capacity(setup.devices.len());
        let report = setup
            .fleet
            .run_with_sink(|device, metrics| {
                seen.push((device.index, device.cohort, metrics.clone()))
            })
            .expect("validated in set-up");
        // Per-device host time is only visible to the traced replica.
        (Raw { report, seen }, 0.0)
    }

    fn traced(&self, setup: &Setup) -> Traced<Raw> {
        let spec = setup.fleet.spec();
        let mut coordinator = Tracer::new(u32::MAX);
        let devices: Vec<DeviceSpec> = coordinator.span(Layer::Materialize, |_| {
            (0..spec.total_devices())
                .map(|i| spec.device(i).expect("index inside the fleet"))
                .collect()
        });
        let job_counts: Vec<usize> = devices.iter().map(device_jobs).collect();
        let first_job: Vec<usize> = job_counts
            .iter()
            .scan(0, |next, &c| {
                let first = *next;
                *next += c;
                Some(first)
            })
            .collect();
        let total_jobs: usize = job_counts.iter().sum();
        let dispatcher = TwoLevelDispatcher::new(job_counts.clone());
        let mut partials: Vec<CohortPartial> =
            spec.cohorts.iter().map(|_| CohortPartial::new()).collect();
        let mut seen = Vec::with_capacity(devices.len());
        let mut job_spans: Vec<Span> = Vec::new();
        let mut device_s = vec![0.0f64; devices.len()];
        let (tx, rx) = mpsc::channel();
        // The same shape as `Fleet::run_with_sink`: two workers claim
        // (device, job) pairs; this thread merges each device's shards in
        // bank order and folds devices strictly in index order.
        std::thread::scope(|scope| {
            for _ in 0..WORKERS {
                let tx = tx.clone();
                let (dispatcher, devices, first_job) = (&dispatcher, &devices, &first_job);
                scope.spawn(move || {
                    let mut cursor = WorkerCursor::new();
                    while let Some((d, j)) = dispatcher.claim(&mut cursor) {
                        let id = u32::try_from(first_job[d] + j).expect("job count fits u32");
                        let mut tracer = Tracer::new(id);
                        let metrics = tracer.span(Layer::Job, |t| device_job(t, &devices[d], j));
                        tx.send((d, j, metrics, tracer.spans))
                            .expect("coordinator outlives workers");
                    }
                });
            }
            drop(tx);
            let mut parts: Vec<Vec<Option<RunMetrics>>> =
                job_counts.iter().map(|&c| vec![None; c]).collect();
            let mut remaining = job_counts.clone();
            let mut reorder: BTreeMap<usize, RunMetrics> = BTreeMap::new();
            let mut next = 0usize;
            for _ in 0..total_jobs {
                let (d, j, metrics, spans) = rx.recv().expect("a worker thread panicked");
                device_s[d] += spans[0].busy_ns * 1e-9;
                job_spans.extend(spans);
                parts[d][j] = Some(metrics);
                remaining[d] -= 1;
                if remaining[d] == 0 {
                    let shards: Vec<RunMetrics> = parts[d]
                        .drain(..)
                        .map(|m| m.expect("counted down to zero"))
                        .collect();
                    let merged = coordinator.span(Layer::Merge, |_| {
                        shards
                            .into_iter()
                            .reduce(RunMetrics::merge)
                            .expect("every device has a job")
                    });
                    reorder.insert(d, merged);
                    while let Some(done) = reorder.remove(&next) {
                        let device = &devices[next];
                        coordinator.span(Layer::Fold, |_| partials[device.cohort].absorb(&done));
                        seen.push((device.index, device.cohort, done));
                        next += 1;
                    }
                }
            }
        });
        let report = coordinator.span(Layer::Report, |_| FleetReport::new(spec, &partials));
        job_spans.extend(coordinator.spans);
        Traced {
            raw: Raw { report, seen },
            spans: job_spans,
            devices: devices.iter().map(|d| d.cohort).zip(device_s).collect(),
        }
    }

    fn check(&self, setup: &Setup, raw: &Raw) -> Checked {
        let mut checked = Checked {
            ops: setup.devices.len() as u64,
            acts: raw
                .seen
                .iter()
                .map(|(_, _, m)| m.workload_activations)
                .sum(),
            ..Checked::default()
        };
        // The sink sees every device once, in index order.
        let out_of_order = raw
            .seen
            .iter()
            .enumerate()
            .filter(|(i, (index, _, _))| *index != *i as u64)
            .count();
        let missing = setup.devices.len().saturating_sub(raw.seen.len());
        if out_of_order + missing > 0 {
            checked.fail(
                (out_of_order + missing) as u64,
                format!("sink saw {out_of_order} devices out of order, {missing} missing"),
            );
        }
        // The report equals the one rebuilt from the sink's metrics.
        let spec = setup.fleet.spec();
        let mut partials: Vec<CohortPartial> =
            spec.cohorts.iter().map(|_| CohortPartial::new()).collect();
        for (_, cohort, metrics) in &raw.seen {
            partials[*cohort].absorb(metrics);
        }
        let rebuilt = FleetReport::new(spec, &partials);
        if rebuilt != raw.report {
            // Charge the devices of every cohort that differs (at least one).
            let devices: u64 = rebuilt
                .cohorts
                .iter()
                .zip(&raw.report.cohorts)
                .filter(|(ours, theirs)| ours != theirs)
                .map(|(_, theirs)| theirs.devices)
                .sum();
            checked.fail(
                devices.max(1),
                "Fleet::run_with_sink's report differs from the sink's fold".into(),
            );
        }
        checked.digest = fnv(
            digest_metrics(raw.seen.iter().map(|(_, _, m)| m)),
            raw.report.to_json().as_bytes(),
        );
        for cohort in &raw.report.cohorts {
            checked.summary.push(format!(
                "{:<10} {:>6} devices {:>6} flipped  ttff p99 {:>8} acts",
                cohort.name,
                cohort.devices,
                cohort.flip_devices,
                cohort
                    .time_to_first_flip
                    .p99
                    .map_or("-".to_string(), |v| format!("{v:.0}")),
            ));
        }
        checked
    }

    fn check_traced(&self, setup: &Setup, traced: &Traced<Raw>, checked: &mut Checked) {
        // A device's jobs carry consecutive ids; its kernels' actions sum
        // to the merged device's trigger count.
        let actions = kernel_actions_by_job(&traced.spans);
        let mut next_job = 0u32;
        for (device, (_, _, metrics)) in setup.devices.iter().zip(&traced.raw.seen) {
            let jobs = u32::try_from(device_jobs(device)).expect("job count fits u32");
            let mut per_device = BTreeMap::new();
            per_device.insert(
                0,
                (next_job..next_job + jobs)
                    .map(|job| actions.get(&job).copied().unwrap_or(0))
                    .sum(),
            );
            let label = format!("device {}", device.index);
            check_kernel_actions(&per_device, 0, metrics.trigger_events, &label, checked);
            next_job += jobs;
        }
    }
}

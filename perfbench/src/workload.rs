//! What every workload provides, and the checks they share.

use crate::spans::{Layer, Span};
use rh_harness::RunMetrics;
use std::collections::BTreeMap;

/// The outcome of checking one round's simulated results.
#[derive(Debug, Default)]
pub struct Checked {
    /// Operations attempted (engine jobs or fleet devices).
    pub ops: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// Σ `RunMetrics::workload_activations`.
    pub acts: u64,
    /// FNV-1a digest of every simulated statistic, in job order.
    pub digest: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Human-readable result table, printed once per run.
    pub summary: Vec<String>,
}

impl Checked {
    /// Records a failed check covering `ops` operations.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.failures.push(why);
    }
}

/// A traced round: the raw results plus every span recorded.
pub struct Traced<R> {
    /// The same results an untraced round produces.
    pub raw: R,
    /// Spans of every job, the coordinator's included.
    pub spans: Vec<Span>,
    /// Per-device `(cohort, host seconds)` (fleet workloads only).
    pub devices: Vec<(usize, f64)>,
}

/// One benchmark workload.
pub trait Workload: Sync {
    /// Everything built before the timed region.
    type Setup: Sync;
    /// One round's simulated results.
    type Raw;

    /// Builds configs, validates, materializes and records inputs.
    fn setup(&self) -> Self::Setup;

    /// One untraced round; returns the results and Σ job host seconds.
    fn run(&self, setup: &Self::Setup) -> (Self::Raw, f64);

    /// One traced round of the same work.
    fn traced(&self, setup: &Self::Setup) -> Traced<Self::Raw>;

    /// Checks a round's results and digests them.
    fn check(&self, setup: &Self::Setup, raw: &Self::Raw) -> Checked;

    /// Checks what only a traced round can: per job, the kernel's
    /// summed action count against the engine's `trigger_events`.
    fn check_traced(&self, setup: &Self::Setup, traced: &Traced<Self::Raw>, checked: &mut Checked);
}

/// FNV-1a over bytes, continuing from `hash`.
pub fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The FNV-1a offset basis.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a sequence of run results (their canonical JSON).
pub fn digest_metrics<'a>(runs: impl IntoIterator<Item = &'a RunMetrics>) -> u64 {
    runs.into_iter().fold(FNV_START, |hash, m| {
        fnv(
            hash,
            serde_json::to_string(m)
                .expect("metrics serialize")
                .as_bytes(),
        )
    })
}

/// Σ kernel actions per job, from the job's spans.
pub fn kernel_actions_by_job(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut by_job = BTreeMap::new();
    for span in spans {
        if let Layer::Kernel(_) = span.layer {
            *by_job.entry(span.job).or_insert(0) += span.actions;
        }
    }
    by_job
}

/// Checks that the kernels of job `job` emitted exactly
/// `trigger_events` actions (every action the engine applies is one
/// trigger event).
pub fn check_kernel_actions(
    actions: &BTreeMap<u32, u64>,
    job: u32,
    trigger_events: u64,
    label: &str,
    checked: &mut Checked,
) {
    let emitted = actions.get(&job).copied().unwrap_or(0);
    if emitted != trigger_events {
        checked.fail(
            1,
            format!("{label}: kernels emitted {emitted} actions, engine counted {trigger_events} triggers"),
        );
    }
}

//! The run engine: drives a trace through a mitigation and the DRAM
//! device, collecting [`RunMetrics`].
//!
//! The hot loop is *batched*: the trace delivers [`EventBatch`]es of a
//! few thousand activations spanning whole refresh intervals
//! ([`mem_trace::TraceSource::next_batch`]), and per interval segment
//! the engine
//!
//! 1. hands the whole segment to the mitigation in one
//!    [`Mitigation::on_batch`] call, collecting its actions — tagged by
//!    causing event — in an [`ActionSink`];
//! 2. reports the segment to the observer ([`Observer::on_batch`]);
//! 3. replays the segment event by event: ledger and device accounting
//!    for the activation, then that event's actions applied
//!    immediately — the exact order of the one-event-at-a-time path,
//!    so the batched engine is bit-identical to the scalar reference
//!    ([`run_scalar`], kept for equivalence tests and benchmarks);
//! 4. issues the auto-refresh and the mitigation's
//!    `on_refresh_interval`, applying the interval-granular actions
//!    (CaPRoMi's collective decisions, ProHit's hot-table refresh).
//!
//! Step 3 is sound because mitigations never read the device: deciding
//! a whole segment before applying any of its device commands cannot
//! change a decision.  The only segment-visible coupling runs the other
//! way — feedback-coupled *traces* reading mitigation actions — and is
//! handled at delivery: such sources bound their batch to one interval
//! via [`mem_trace::TraceSource::max_batch_intervals`].
//!
//! False-positive attribution uses the trace's ground-truth aggressor
//! labels: a trigger is a false positive when the row it names (the
//! suspected aggressor for `act_n`, the victim for `RefreshRow`) is not,
//! respectively adjacent to, an attacker-hammered row.
//!
//! The mitigation is a generic parameter: built as
//! [`rh_baselines::AnyMitigation`] (see [`crate::techniques::build_any`])
//! the per-event inner loop is a `match`, not a vtable call — one
//! dynamic-free dispatch per interval segment.  The observer is generic
//! too: monomorphised over [`crate::observe::NullObserver`], whose empty
//! inline callbacks compile away, the unobserved loop costs nothing.
//!
//! The *device* side is equally generic: the loop drives any
//! [`DisturbanceBackend`] (see [`dram_sim::backend`]), and
//! [`run_observed`] picks the tier `config.backend` names exactly once
//! before entering it — exact (the event-accurate
//! [`DramDevice`](dram_sim::DramDevice), the default), fast
//! (interval-level accumulation), or cycle (row-buffer and
//! command-timing accounting in [`RunMetrics::cycle`]).  Because
//! mitigations never read the device, the mitigation decision stream —
//! triggers, false positives, first-trigger time — is identical on
//! every tier; only flip-side metrics inherit the tier's fidelity.
//!
//! # Entrypoints
//!
//! [`crate::Runner`] is the documented way to drive a run of a
//! technique a [`crate::TechniqueSpec`] names.  Four public functions
//! remain for the callers it cannot serve:
//!
//! * [`run_observed`] — one whole run of any [`Mitigation`] (a test
//!   double, a `Box<dyn Mitigation>`) on the backend `config.backend`
//!   names, with an [`Observer`] (pass
//!   [`crate::observe::NullObserver`] for none).  Never shards.
//! * [`run_on_backend_observed`] — the loop itself, on a caller-built
//!   backend: for callers that wrap or inspect the backend.
//! * [`run_sharded`] — a bank-sharded run of a mitigation the caller's
//!   closure builds once per shard (an unprotected baseline, a wide
//!   adapter).
//! * [`run_scalar`] — the one-event-at-a-time reference loop the
//!   batched loop is pinned bit-identical against.
//!
//! `run_sharded` and every `Runner` method share one crate-private
//! driver (`drive`): the only code that decides whether to shard by
//! bank, forks one observer per shard, times shards and merges their
//! metrics.

use crate::config::RunConfig;
use crate::metrics::{sort_flip_log, FlipRecord, RunMetrics};
use crate::observe::{IntervalSnapshot, NullObserver, Observe, Observer, RunSummary, ShardInfo};
use dram_sim::{
    BackendSpec, BankId, Command, CycleBackend, DisturbanceBackend, FlipEvent, RowAddr,
};
use mem_trace::{EventBatch, ShardError, TraceEvent, TraceSource, TraceSplit};
use std::collections::BTreeSet;
use std::time::Instant;
use tivapromi::{ActionSink, Mitigation, MitigationAction};

/// Tracks which rows the attacker has hammered, for ground-truth
/// false-positive attribution.
#[derive(Debug, Default)]
struct AggressorLedger {
    // Ordered set: the ledger is only membership-tested today, but an
    // ordered container keeps any future traversal structural (rule
    // D1) instead of hash-seeded.
    rows: BTreeSet<(u32, u32)>,
}

impl AggressorLedger {
    fn record(&mut self, event: &TraceEvent) {
        self.record_parts(event.bank, event.row, event.aggressor);
    }

    fn record_parts(&mut self, bank: BankId, row: RowAddr, aggressor: bool) {
        if aggressor {
            self.rows.insert((bank.0, row.0));
        }
    }

    fn is_aggressor(&self, bank: BankId, row: RowAddr) -> bool {
        self.rows.contains(&(bank.0, row.0))
    }

    /// Is this action aimed at real attacker activity?
    fn is_true_positive(&self, action: &MitigationAction) -> bool {
        match action {
            // act_n names the suspected aggressor.
            MitigationAction::ActivateNeighbors { bank, row } => self.is_aggressor(*bank, *row),
            // RefreshRow names a victim; it is justified if either
            // physical neighbor is an attacker row.
            MitigationAction::RefreshRow { bank, row } => {
                (row.0 > 0 && self.is_aggressor(*bank, RowAddr(row.0 - 1)))
                    || self.is_aggressor(*bank, RowAddr(row.0 + 1))
            }
        }
    }
}

/// Trigger/first-trigger bookkeeping shared by the per-activation and
/// per-interval action drains.
struct TriggerLedger {
    trigger_events: u64,
    false_positive_events: u64,
    // First-trigger bookkeeping is *bank-local*: each trigger is
    // attributed to the bank it targets and recorded against that bank's
    // own activation count.  The run-level `first_trigger_act` is the
    // minimum over banks, which makes it invariant under bank sharding
    // (each shard sees exactly its bank's activations).
    bank_acts: Vec<u64>,
    bank_first: Vec<Option<u64>>,
    // First-flip bookkeeping mirrors the first-trigger accounting: a
    // new device flip is attributed to the bank whose activation (or
    // mitigation action) caused it — disturbance never couples banks,
    // so the bank issuing the current command is the flipping bank —
    // and recorded against that bank's activation count.
    flips_seen: usize,
    bank_first_flip: Vec<Option<u64>>,
    // Per-row flip attribution: every new device flip becomes a
    // `FlipRecord` carrying the flipping bank's activation count at the
    // moment the flip was noted — the same bank-local accounting as
    // `bank_first_flip`, so the log is invariant under bank sharding.
    flip_log: Vec<FlipRecord>,
}

impl TriggerLedger {
    /// An empty ledger with per-bank lanes for `banks` banks (lanes grow
    /// on demand if a trace names a bank beyond that).
    fn new(banks: usize) -> Self {
        TriggerLedger {
            trigger_events: 0,
            false_positive_events: 0,
            bank_acts: vec![0; banks],
            bank_first: vec![None; banks],
            flips_seen: 0,
            bank_first_flip: vec![None; banks],
            flip_log: Vec::new(),
        }
    }

    /// Walks the backend's flip log past the ledger's cursor, appends a
    /// [`FlipRecord`] per new flip, and records, per flipping bank, the
    /// bank-local activation count of its first flip.
    ///
    /// Each flip carries its own bank (disturbance never couples banks,
    /// so on the exact tier new flips always land in the bank of the
    /// command that caused them — this is the historical attribution,
    /// generalized to backends that resolve flips at interval ends).
    fn note_flips(&mut self, flips: &[FlipEvent]) {
        while self.flips_seen < flips.len() {
            let event = flips[self.flips_seen];
            let bank = event.bank.index();
            self.flips_seen += 1;
            let bank_act = self.bank_acts.get(bank).copied().unwrap_or(0);
            self.flip_log.push(FlipRecord {
                bank: event.bank,
                row: event.row,
                interval: event.interval,
                bank_act,
            });
            if bank >= self.bank_first_flip.len() {
                self.bank_first_flip.resize(bank + 1, None);
            }
            if self.bank_first_flip[bank].is_none() {
                self.bank_first_flip[bank] = Some(bank_act);
            }
        }
    }
}

#[inline]
fn apply_action<B: DisturbanceBackend + ?Sized, O: Observer + ?Sized>(
    action: MitigationAction,
    backend: &mut B,
    ledger: &AggressorLedger,
    triggers: &mut TriggerLedger,
    observer: &mut O,
) {
    triggers.trigger_events += 1;
    let true_positive = ledger.is_true_positive(&action);
    if !true_positive {
        triggers.false_positive_events += 1;
    }
    observer.on_action(&action, true_positive);
    let bank = action.bank().index();
    if bank >= triggers.bank_first.len() {
        triggers.bank_first.resize(bank + 1, None);
    }
    if triggers.bank_first[bank].is_none() {
        triggers.bank_first[bank] = Some(triggers.bank_acts.get(bank).copied().unwrap_or(0));
    }
    backend.apply(action.to_command());
    // ActivateNeighbors disturbs the neighbors' neighbors and can
    // itself cross the flip threshold.
    triggers.note_flips(backend.flips());
}

fn apply_actions<B: DisturbanceBackend + ?Sized, O: Observer + ?Sized>(
    actions: &mut Vec<MitigationAction>,
    backend: &mut B,
    ledger: &AggressorLedger,
    triggers: &mut TriggerLedger,
    observer: &mut O,
) {
    for action in actions.drain(..) {
        apply_action(action, backend, ledger, triggers, observer);
    }
}

/// Why a run was refused before it started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The policy asks for bank shards and the source cannot be split
    /// by bank.
    Unshardable(ShardError),
    /// The trace names a bank the configured geometry does not have.
    BankOutOfRange {
        /// The highest bank the trace names.
        bank: BankId,
        /// Banks in the configured geometry.
        banks: u32,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Unshardable(err) => err.fmt(f),
            RunError::BankOutOfRange { bank, banks } => write!(
                f,
                "trace names bank {} but the geometry has {banks} banks",
                bank.0
            ),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Unshardable(err) => Some(err),
            RunError::BankOutOfRange { .. } => None,
        }
    }
}

impl From<ShardError> for RunError {
    fn from(err: ShardError) -> Self {
        RunError::Unshardable(err)
    }
}

/// Rejects a trace that names a bank outside the configured geometry,
/// before any of it runs: unchecked, the sequential loop would index
/// past the device's banks and a sharded run would silently drop the
/// events.
fn check_banks<S: TraceSource + ?Sized>(trace: &S, config: &RunConfig) -> Result<(), RunError> {
    let banks = config.geometry.banks();
    match trace.max_bank() {
        Some(bank) if bank.0 >= banks => Err(RunError::BankOutOfRange { bank, banks }),
        _ => Ok(()),
    }
}

/// Runs `trace` through `mitigation` with an [`Observer`] receiving
/// callbacks from inside the loop, on the backend tier `config.backend`
/// selects.
///
/// The backend is chosen **once** here, then the loop monomorphises
/// over its concrete type — the per-event hot path carries no enum or
/// vtable dispatch, and with [`BackendSpec::Exact`] it compiles to
/// exactly the historical device loop.  The observer type is also a
/// generic parameter, so passing [`NullObserver`] monomorphises to the
/// unobserved loop.
///
/// # Panics
///
/// Panics with [`RunError::BankOutOfRange`]'s message if the trace
/// names a bank the geometry lacks.
pub fn run_observed<S: TraceSource, M: Mitigation + ?Sized, O: Observer + ?Sized>(
    mut trace: S,
    mitigation: &mut M,
    config: &RunConfig,
    observer: &mut O,
) -> RunMetrics {
    match config.backend {
        BackendSpec::Exact => {
            let mut device = config.build_device();
            run_on_backend_observed(&mut trace, mitigation, config, &mut device, observer)
        }
        BackendSpec::Fast => {
            let mut backend = config.build_fast_backend();
            run_on_backend_observed(&mut trace, mitigation, config, &mut backend, observer)
        }
        BackendSpec::Cycle => {
            let mut backend = CycleBackend::new(config.build_device());
            run_on_backend_observed(&mut trace, mitigation, config, &mut backend, observer)
        }
    }
}

/// The full engine loop — batched, generic over the disturbance
/// backend: caller-provided backend and observer.
///
/// Every fidelity tier shares this one loop; the backend parameter is
/// monomorphised, so each tier compiles to its own straight-line code.
/// The mitigation decision stream is backend-independent (mitigations
/// never read the device), so trigger/false-positive accounting is
/// bit-identical across tiers — only the flip-side metrics inherit the
/// backend's fidelity.
///
/// # Panics
///
/// Panics with [`RunError::BankOutOfRange`]'s message if the trace
/// names a bank the geometry lacks.
pub fn run_on_backend_observed<S, M, B, O>(
    trace: &mut S,
    mitigation: &mut M,
    config: &RunConfig,
    backend: &mut B,
    observer: &mut O,
) -> RunMetrics
where
    S: TraceSource,
    M: Mitigation + ?Sized,
    B: DisturbanceBackend + ?Sized,
    O: Observer + ?Sized,
{
    if let Err(err) = check_banks(trace, config) {
        panic!("{err}");
    }
    let banks = config.geometry.banks() as usize;
    let mut batch = EventBatch::with_target_events(config.batch_events);
    // Generously preallocated arena: steady-state segments reuse the
    // same tag/action lanes with `reset`, so the loop's decision side
    // stays heap-quiet (`tests/alloc_free.rs`).
    let mut sink = ActionSink::with_capacity(1024);
    // lint: allow(D6) — per-run buffer made once before the interval
    // loop; every segment drains it in place.
    let mut actions: Vec<MitigationAction> = Vec::new();
    let mut ledger = AggressorLedger::default();
    let mut triggers = TriggerLedger::new(banks);
    let mut total_acts = 0u64;
    let mut aggressor_acts = 0u64;
    let max_intervals = config.intervals();
    let mut interval = 0u64;

    while interval < max_intervals && trace.next_batch(&mut batch, max_intervals - interval) {
        for segment in 0..batch.intervals() {
            let range = batch.segment(segment);
            // Decide ahead: the mitigation sees the whole segment in
            // one call (mitigations never read the device, so deciding
            // before applying cannot change a decision) …
            sink.reset();
            mitigation.on_batch(&batch, range.clone(), &mut sink);
            observer.on_batch(&batch, range.clone());
            // … then replay in scalar order: per event, ledger/device
            // accounting followed immediately by that event's actions.
            // The columns are walked as parallel slices so the hot loop
            // carries no per-event bounds checks.
            let (banks_col, rows_col, aggrs_col) = batch.columns();
            let start = range.start;
            if backend.defers_flips() {
                // Flip-deferring tier: flips cannot appear before the
                // `Refresh`, so per-event flip polling is dead and the
                // replay only has to stop at *action* points (an
                // action's trigger accounting reads the counters as of
                // its causing event, and its true-positive check reads
                // the ledger as of that event).  Everything between two
                // action points collapses into column scans plus one
                // batched device call — counters are per-chunk sums no
                // mid-chunk code reads, so aggregation order cannot be
                // observed.
                let mut cur = range.start;
                while cur < range.end {
                    // Process up to and including the next event that
                    // carries actions (or the whole rest of the segment).
                    let stop = sink.peek_tag().map_or(range.end, |tag| {
                        let tag = usize::try_from(tag).expect("event tag fits usize");
                        (tag + 1).min(range.end)
                    });
                    let chunk = cur..stop;
                    // One pass in runs of equal bank (a bank-sharded or
                    // single-bank column is one run — [`EventBatch::bank_runs`]):
                    // per-bank totals add per run, and the ledger — a
                    // set — collapses a hammering run's consecutive
                    // duplicates to one insert.
                    for (bank_id, run) in batch.bank_runs(chunk.clone()) {
                        let bank = bank_id.index();
                        if bank >= triggers.bank_acts.len() {
                            triggers.bank_acts.resize(bank + 1, 0);
                        }
                        triggers.bank_acts[bank] +=
                            u64::try_from(run.len()).expect("run length fits u64");
                        let mut last = None;
                        for (&row, &aggressor) in rows_col[run.clone()].iter().zip(&aggrs_col[run])
                        {
                            if aggressor {
                                aggressor_acts += 1;
                                if last != Some(row) {
                                    ledger.record_parts(bank_id, row, true);
                                    last = Some(row);
                                }
                            }
                        }
                    }
                    total_acts += u64::try_from(chunk.len()).expect("segment length fits u64");
                    backend.apply_activations(&banks_col[chunk.clone()], &rows_col[chunk]);
                    cur = stop;
                    // Drain the actions of the chunk's last event, if it
                    // had any (tags ascend, so equal tags drain together).
                    if let Some(tag) = sink.peek_tag() {
                        if usize::try_from(tag).expect("event tag fits usize") < cur {
                            while let Some(action) = sink.next_for(tag) {
                                apply_action(action, backend, &ledger, &mut triggers, observer);
                            }
                        }
                    }
                }
            } else {
                let events = banks_col[range.clone()]
                    .iter()
                    .zip(&rows_col[range.clone()])
                    .zip(&aggrs_col[range]);
                for (offset, ((&bank_id, &row), &aggressor)) in events.enumerate() {
                    let i = start + offset;
                    ledger.record_parts(bank_id, row, aggressor);
                    let bank = bank_id.index();
                    if bank >= triggers.bank_acts.len() {
                        triggers.bank_acts.resize(bank + 1, 0);
                    }
                    triggers.bank_acts[bank] += 1;
                    total_acts += 1;
                    if aggressor {
                        aggressor_acts += 1;
                    }
                    backend.apply(Command::Activate { bank: bank_id, row });
                    triggers.note_flips(backend.flips());
                    let tag = u32::try_from(i).expect("event tag fits u32");
                    while let Some(action) = sink.next_for(tag) {
                        apply_action(action, backend, &ledger, &mut triggers, observer);
                    }
                }
            }
            debug_assert!(sink.fully_drained(), "sink tags must cover the segment");
            backend.apply(Command::Refresh);
            // Backends may resolve deferred disturbance at the interval
            // boundary (the fast tier); on the exact tier refresh only
            // restores, so this is a cursor comparison and nothing else.
            triggers.note_flips(backend.flips());
            mitigation.on_refresh_interval(&mut actions);
            if !actions.is_empty() {
                apply_actions(&mut actions, backend, &ledger, &mut triggers, observer);
            }
            observer.on_interval_end(&IntervalSnapshot {
                interval,
                activations: total_acts,
                triggers: triggers.trigger_events,
                false_positives: triggers.false_positive_events,
                stats: backend.stats(),
                max_disturbance: backend.max_disturbance_seen(),
                device: backend.device(),
            });
            interval += 1;
        }
    }

    finish_metrics(
        mitigation,
        config,
        backend,
        triggers,
        aggressor_acts,
        observer,
    )
}

/// The scalar reference loop: one event at a time, exactly the pre-batch
/// engine, on the backend tier `config.backend` selects.
///
/// Kept public for two reasons: the equivalence tests prove the batched
/// loop bit-identical against it on every tier and at several batch
/// sizes, and the throughput bench uses it as the baseline the batched
/// pipeline is measured against.  Not otherwise called by the harness.
///
/// # Panics
///
/// Panics with [`RunError::BankOutOfRange`]'s message if the trace
/// names a bank the geometry lacks.
pub fn run_scalar<S: TraceSource, M: Mitigation + ?Sized>(
    mut trace: S,
    mitigation: &mut M,
    config: &RunConfig,
) -> RunMetrics {
    if let Err(err) = check_banks(&trace, config) {
        panic!("{err}");
    }
    match config.backend {
        BackendSpec::Exact => {
            let mut device = config.build_device();
            run_scalar_on_backend(&mut trace, mitigation, config, &mut device)
        }
        BackendSpec::Fast => {
            let mut backend = config.build_fast_backend();
            run_scalar_on_backend(&mut trace, mitigation, config, &mut backend)
        }
        BackendSpec::Cycle => {
            let mut backend = CycleBackend::new(config.build_device());
            run_scalar_on_backend(&mut trace, mitigation, config, &mut backend)
        }
    }
}

/// The scalar loop body, generic over the backend tier.
fn run_scalar_on_backend<S, M, B>(
    trace: &mut S,
    mitigation: &mut M,
    config: &RunConfig,
    backend: &mut B,
) -> RunMetrics
where
    S: TraceSource,
    M: Mitigation + ?Sized,
    B: DisturbanceBackend + ?Sized,
{
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut actions: Vec<MitigationAction> = Vec::new();
    let mut ledger = AggressorLedger::default();
    let mut triggers = TriggerLedger::new(config.geometry.banks() as usize);
    let mut aggressor_acts = 0u64;

    for _ in 0..config.intervals() {
        events.clear();
        if !trace.next_interval(&mut events) {
            break;
        }
        for event in &events {
            ledger.record(event);
            let bank = event.bank.index();
            if bank >= triggers.bank_acts.len() {
                triggers.bank_acts.resize(bank + 1, 0);
            }
            triggers.bank_acts[bank] += 1;
            if event.aggressor {
                aggressor_acts += 1;
            }
            backend.apply(Command::Activate {
                bank: event.bank,
                row: event.row,
            });
            triggers.note_flips(backend.flips());
            mitigation.on_activate(event.bank, event.row, &mut actions);
            if !actions.is_empty() {
                apply_actions(
                    &mut actions,
                    backend,
                    &ledger,
                    &mut triggers,
                    &mut NullObserver,
                );
            }
        }
        backend.apply(Command::Refresh);
        triggers.note_flips(backend.flips());
        mitigation.on_refresh_interval(&mut actions);
        if !actions.is_empty() {
            apply_actions(
                &mut actions,
                backend,
                &ledger,
                &mut triggers,
                &mut NullObserver,
            );
        }
    }

    finish_metrics(
        mitigation,
        config,
        backend,
        triggers,
        aggressor_acts,
        &mut NullObserver,
    )
}

fn finish_metrics<M: Mitigation + ?Sized, B: DisturbanceBackend + ?Sized, O: Observer + ?Sized>(
    mitigation: &mut M,
    config: &RunConfig,
    backend: &mut B,
    mut triggers: TriggerLedger,
    aggressor_acts: u64,
    observer: &mut O,
) -> RunMetrics {
    // Catch up on any flips the loop has not yet noted (both loops end
    // every interval with a post-refresh note, so this is normally a
    // cursor comparison) and put the log into its canonical order.
    triggers.note_flips(backend.flips());
    sort_flip_log(&mut triggers.flip_log);
    let stats = backend.stats();
    let mut metrics = RunMetrics {
        technique: mitigation.name().to_string(),
        workload_activations: stats.workload_activations,
        aggressor_activations: aggressor_acts,
        mitigation_activations: stats.mitigation_activations,
        trigger_events: triggers.trigger_events,
        false_positive_events: triggers.false_positive_events,
        flips: backend.flips().len(),
        max_disturbance: backend.max_disturbance_seen(),
        flip_threshold: config.flip_threshold,
        first_trigger_act: triggers.bank_first.iter().flatten().copied().min(),
        time_to_first_flip: triggers.bank_first_flip.iter().flatten().copied().min(),
        flip_log: triggers.flip_log,
        storage_bytes_per_bank: mitigation.storage_bytes_per_bank(),
        intervals: stats.refresh_intervals,
        timeseries: None,
        cycle: backend.cycle_stats(),
    };
    observer.on_run_end(&mut metrics);
    metrics
}

/// Runs `trace` through the mitigation that `build` constructs, sharded
/// by bank when `config.parallelism` allows it, with no observer.
///
/// For mitigations no [`crate::TechniqueSpec`] names (an unprotected
/// baseline, a wide adapter); [`crate::Runner::run`] is the same run for
/// those it does.
///
/// With `shard_by_bank` (and more than one bank) each bank's sub-stream
/// ([`TraceSplit::bank_shard`]) is driven through its *own* mitigation
/// instance and backend on a worker pool, and the per-shard
/// [`RunMetrics`] are combined with [`RunMetrics::merge`].  Because
/// banks are independent — disturbance never couples them on any
/// backend tier and every mitigation derives per-bank decision streams
/// via [`dram_sim::bank_seed`] — the merged result is bit-identical to
/// the sequential run, for every worker count and schedule.
///
/// `build` must construct the mitigation identically on every call
/// (same technique, same seed); it is called once per bank shard, or
/// once for the sequential fallback.
///
/// # Panics
///
/// Panics with [`RunError::BankOutOfRange`]'s message if the trace
/// names a bank the geometry lacks.
pub fn run_sharded<S, M, F>(trace: S, build: &F, config: &RunConfig) -> RunMetrics
where
    S: TraceSplit,
    M: Mitigation,
    F: Fn() -> M + Sync,
{
    drive(trace, Split::ByBank(S::bank_shard), build, config, &[])
        .unwrap_or_else(|err| panic!("{err}"))
}

/// How [`drive`] may split a run's trace.
pub(crate) enum Split<S> {
    /// Shard by bank with this splitter when the policy asks for it.
    ByBank(fn(&S, BankId) -> Box<dyn TraceSplit>),
    /// Run whole; when the policy asks for shards, the source must still
    /// vouch ([`TraceSource::shard_support`]) that sharding would be
    /// sound, so a policy mismatch surfaces as a typed error.
    Checked,
    /// Run whole, whatever the policy.
    Whole,
}

/// The one sharded driver behind [`run_sharded`] and [`crate::Runner`]:
/// decides whether to shard by bank, forks one observer per shard,
/// times shards, and merges their metrics.
///
/// # Errors
///
/// [`RunError::BankOutOfRange`] when the trace names a bank the
/// geometry lacks, checked before anything runs on either path; and
/// [`RunError::Unshardable`] when `split` is [`Split::Checked`], the
/// policy asks for bank shards and the source cannot be split by bank.
pub(crate) fn drive<S, M, F>(
    trace: S,
    split: Split<S>,
    build: &F,
    config: &RunConfig,
    observe: &[Box<dyn Observe>],
) -> Result<RunMetrics, RunError>
where
    S: TraceSource,
    M: Mitigation,
    F: Fn() -> M + Sync,
{
    check_banks(&trace, config)?;
    // lint: allow(D2) — run wall time feeds only Observe::on_run_end,
    // never RunMetrics.
    let start = Instant::now();
    let banks = config.geometry.banks();
    let shard_by_bank = config.parallelism.shard_by_bank && banks > 1;
    let (metrics, workers, shards) = match split {
        Split::ByBank(bank_shard) if shard_by_bank => {
            let shards: Vec<(ShardInfo, Box<dyn TraceSplit>)> = (0..banks)
                .map(|b| {
                    let info = ShardInfo {
                        index: b as usize,
                        count: banks as usize,
                        bank: Some(BankId(b)),
                    };
                    (info, bank_shard(&trace, BankId(b)))
                })
                .collect();
            // Reported as the threads that ran: never more than shards.
            let workers = config.parallelism.effective_workers().min(shards.len());
            let results = crate::parallel::map_workers(shards, workers, |(info, shard)| {
                run_shard(shard, &info, build, config, observe)
            });
            let merged = results
                .into_iter()
                .reduce(RunMetrics::merge)
                .expect("geometry has at least one bank");
            (merged, workers, banks as usize)
        }
        split => {
            if shard_by_bank && matches!(split, Split::Checked) {
                trace.shard_support()?;
            }
            let metrics = run_shard(trace, &ShardInfo::whole_run(), build, config, observe);
            (metrics, 1, 1)
        }
    };
    observe.on_run_end(
        &metrics,
        &RunSummary {
            workers,
            shards,
            elapsed: start.elapsed(),
        },
    );
    Ok(metrics)
}

/// One shard of [`drive`]: builds the mitigation, runs the loop with the
/// shard's observer (or [`NullObserver`] when none is attached), and
/// reports the shard's wall time.
fn run_shard<S, M, F>(
    trace: S,
    info: &ShardInfo,
    build: &F,
    config: &RunConfig,
    observe: &[Box<dyn Observe>],
) -> RunMetrics
where
    S: TraceSource,
    M: Mitigation,
    F: Fn() -> M,
{
    observe.on_shard_start(info);
    // lint: allow(D2) — shard wall time goes to Observe::on_shard_finish only.
    let start = Instant::now();
    let mut mitigation = build();
    let metrics = if observe.is_empty() {
        run_observed(trace, &mut mitigation, config, &mut NullObserver)
    } else {
        run_observed(
            trace,
            &mut mitigation,
            config,
            observe.observer(info).as_mut(),
        )
    };
    observe.on_shard_finish(info, &metrics, start.elapsed());
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentScale;
    use crate::observe::TimeSeriesRecorder;
    use crate::{scenario, techniques};
    use mem_trace::{AttackConfig, Attacker, ReplayTrace};
    use rh_hwmodel::Technique;

    fn quick_config() -> RunConfig {
        RunConfig::paper(&ExperimentScale::quick())
    }

    #[derive(Debug)]
    struct Null;
    impl Mitigation for Null {
        fn name(&self) -> &str {
            "none"
        }
        fn on_activate(&mut self, _: BankId, _: RowAddr, _: &mut Vec<MitigationAction>) {}
        fn on_refresh_interval(&mut self, _: &mut Vec<MitigationAction>) {}
        fn storage_bits_per_bank(&self) -> u64 {
            0
        }
    }

    #[test]
    fn unprotected_attack_flips_bits() {
        // A null mitigation: the attack must succeed.
        let config = quick_config();
        let attack = Attacker::new(AttackConfig::flooding(RowAddr(30_000), config.intervals()));
        let metrics = run_observed(attack, &mut Null, &config, &mut NullObserver);
        assert!(metrics.flips > 0, "{metrics:?}");
        assert_eq!(metrics.mitigation_activations, 0);
        assert_eq!(metrics.first_trigger_act, None);
    }

    #[test]
    fn twice_stops_the_same_attack() {
        let config = quick_config();
        let attack = Attacker::new(AttackConfig::flooding(RowAddr(30_000), config.intervals()));
        let mut twice = techniques::build(Technique::TwiCe, &config, 1);
        let metrics = run_observed(attack, twice.as_mut(), &config, &mut NullObserver);
        assert_eq!(metrics.flips, 0, "{metrics:?}");
        assert!(metrics.trigger_events > 0);
        // Pure attack trace → no false positives.
        assert_eq!(metrics.false_positive_events, 0);
    }

    #[test]
    fn false_positives_attribute_to_benign_rows() {
        let config = quick_config();
        // Benign-only trace with PARA: every trigger is a false positive.
        let trace = scenario::workload_only(&config, 3);
        let mut para = techniques::build(Technique::Para, &config, 3);
        let metrics = run_observed(trace, para.as_mut(), &config, &mut NullObserver);
        assert!(metrics.trigger_events > 0);
        assert_eq!(metrics.false_positive_events, metrics.trigger_events);
    }

    #[test]
    fn first_trigger_records_activation_count() {
        let config = quick_config();
        let attack = Attacker::new(AttackConfig::flooding(RowAddr(30_000), config.intervals()));
        let mut twice = techniques::build(Technique::TwiCe, &config, 1);
        let metrics = run_observed(attack, twice.as_mut(), &config, &mut NullObserver);
        // TWiCe triggers deterministically at 34 750 activations.
        assert_eq!(metrics.first_trigger_act, Some(34_750));
    }

    #[test]
    fn run_stops_at_configured_intervals() {
        let config = quick_config();
        // An endless trace is clipped at config.intervals().
        let long = ReplayTrace::new(vec![vec![]; 10 * config.intervals() as usize]);
        let metrics = run_observed(long, &mut Null, &config, &mut NullObserver);
        assert_eq!(metrics.intervals, config.intervals());
    }

    /// A counting observer: every hook increments a counter, so the test
    /// can check the engine calls each hook the documented number of
    /// times.
    #[derive(Default)]
    struct Counting {
        activations: u64,
        aggressors: u64,
        actions: u64,
        true_positives: u64,
        intervals: u64,
        run_ends: u64,
    }

    impl Observer for Counting {
        fn on_activation(&mut self, _: BankId, _: RowAddr, aggressor: bool) {
            self.activations += 1;
            if aggressor {
                self.aggressors += 1;
            }
        }
        fn on_action(&mut self, _: &MitigationAction, true_positive: bool) {
            self.actions += 1;
            if true_positive {
                self.true_positives += 1;
            }
        }
        fn on_interval_end(&mut self, snapshot: &IntervalSnapshot<'_>) {
            self.intervals += 1;
            assert_eq!(snapshot.interval + 1, self.intervals);
            assert_eq!(snapshot.activations, self.activations);
            assert_eq!(snapshot.triggers, self.actions);
        }
        fn on_run_end(&mut self, _: &mut RunMetrics) {
            self.run_ends += 1;
        }
    }

    #[test]
    fn observer_hooks_fire_once_per_event() {
        let config = quick_config();
        let trace = scenario::paper_mix(&config, 5);
        let mut para = techniques::build(Technique::Para, &config, 5);
        let mut counting = Counting::default();
        let metrics = run_observed(trace, para.as_mut(), &config, &mut counting);
        assert_eq!(counting.activations, metrics.workload_activations);
        assert!(counting.aggressors > 0);
        assert!(counting.aggressors < counting.activations);
        assert_eq!(counting.actions, metrics.trigger_events);
        assert_eq!(
            counting.actions - counting.true_positives,
            metrics.false_positive_events
        );
        assert_eq!(counting.intervals, metrics.intervals);
        assert_eq!(counting.run_ends, 1);
    }

    #[test]
    fn observed_run_matches_unobserved_run() {
        let config = quick_config();
        let unobserved = {
            let mut m = techniques::build(Technique::LoLiPromi, &config, 2);
            run_observed(
                scenario::paper_mix(&config, 2),
                m.as_mut(),
                &config,
                &mut NullObserver,
            )
        };
        let observed = {
            let mut m = techniques::build(Technique::LoLiPromi, &config, 2);
            let mut counting = Counting::default();
            run_observed(
                scenario::paper_mix(&config, 2),
                m.as_mut(),
                &config,
                &mut counting,
            )
        };
        assert_eq!(unobserved, observed);
    }

    #[test]
    fn timeseries_final_point_matches_run_totals() {
        let config = quick_config();
        let trace = scenario::paper_mix(&config, 3);
        let build = |seed: u64| move || techniques::build(Technique::Para, &quick_config(), seed);
        let recorder: Box<dyn Observe> = Box::new(TimeSeriesRecorder::new(64));
        let metrics = drive(trace, Split::Whole, &build(3), &config, &[recorder])
            .expect("whole runs never refuse");
        let series = metrics.timeseries.as_ref().expect("recorder attached");
        assert_eq!(series.stride, 64);
        let last = series.points.last().expect("nonempty run");
        assert_eq!(last.interval, metrics.intervals - 1);
        assert_eq!(last.activations, metrics.workload_activations);
        assert_eq!(last.mitigation_activations, metrics.mitigation_activations);
        assert_eq!(last.triggers, metrics.trigger_events);
        assert_eq!(last.false_positives, metrics.false_positive_events);
        assert_eq!(last.max_disturbance, metrics.max_disturbance);
        // Grid points sit at stride boundaries; cumulative counters are
        // monotone along the series.
        for pair in series.points.windows(2) {
            assert!(pair[0].interval < pair[1].interval);
            assert!(pair[0].activations <= pair[1].activations);
            assert!(pair[0].triggers <= pair[1].triggers);
            assert!(pair[0].max_disturbance <= pair[1].max_disturbance);
        }
        for p in &series.points[..series.points.len() - 1] {
            assert_eq!((p.interval + 1) % series.stride, 0);
        }
    }
}

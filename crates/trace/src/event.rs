//! Trace events and the interval-batched trace source abstraction.

use crate::batch::EventBatch;
use dram_sim::{BankId, RowAddr};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// One row activation in the trace.
///
/// `aggressor` is ground-truth labelling from the generator: the access
/// belongs to attacker code.  Mitigations never see this flag — it is
/// used only by the metrics layer to separate true from false positives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Bank being activated.
    pub bank: BankId,
    /// Row being activated.
    pub row: RowAddr,
    /// Whether this access was issued by attacker code.
    pub aggressor: bool,
}

impl TraceEvent {
    /// A benign workload access.
    pub fn benign(bank: BankId, row: RowAddr) -> Self {
        TraceEvent {
            bank,
            row,
            aggressor: false,
        }
    }

    /// An attacker access.
    pub fn attack(bank: BankId, row: RowAddr) -> Self {
        TraceEvent {
            bank,
            row,
            aggressor: true,
        }
    }
}

/// Why a trace source cannot be split into per-bank sub-streams.
///
/// Sharding by bank is only sound when banks are *independent* in the
/// generator: each bank's sub-stream must be a pure function of the
/// configuration and the bank id.  Sources whose banks share mutable
/// state (one RNG, one cache hierarchy, a feedback loop) cannot honour
/// that contract, and must say so through this typed error instead of a
/// doc-only caveat, so the harness and the fleet layer can refuse a
/// sharded run loudly rather than produce schedule-dependent results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardError {
    /// The source type that refused to shard, e.g. `"CpuWorkload"`.
    pub source: String,
    /// Why per-bank sub-streams would be unsound for this source.
    pub reason: String,
}

impl ShardError {
    /// A new error naming the refusing source and the coupling that
    /// makes per-bank sharding unsound for it.
    pub fn new(source: impl Into<String>, reason: impl Into<String>) -> Self {
        ShardError {
            source: source.into(),
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} cannot be sharded by bank: {}",
            self.source, self.reason
        )
    }
}

impl std::error::Error for ShardError {}

/// A source of activations, delivered one refresh interval at a time.
///
/// The driving harness alternates `next_interval` (activations) with the
/// device's refresh command, mirroring how the memory controller
/// interleaves traffic with auto-refresh.
pub trait TraceSource {
    /// Appends this interval's activations to `out`, in issue order.
    ///
    /// Returns `false` when the trace is exhausted (nothing appended).
    fn next_interval(&mut self, out: &mut Vec<TraceEvent>) -> bool;

    /// A hint of the number of intervals this source will produce, if
    /// bounded.
    fn intervals_hint(&self) -> Option<u64> {
        None
    }

    /// Whether this source may be split into per-bank sub-streams.
    ///
    /// Returns `Ok(())` for sources whose banks are independent (the
    /// default — it covers every [`TraceSplit`] implementor and every
    /// single-bank source, where the question never arises).  Sources
    /// whose banks share mutable state override this to return a
    /// [`ShardError`] naming the coupling, so callers that want to
    /// shard — [`crate::TraceSplit`] users, the harness engine, the
    /// fleet layer — can fail with a typed error *before* running
    /// instead of silently producing schedule-dependent results.
    fn shard_support(&self) -> Result<(), ShardError> {
        Ok(())
    }

    /// The highest bank any of this source's events may name, if the
    /// source can tell without being consumed.
    ///
    /// Recorded traces know what they hold and report it, so a driver
    /// can reject a trace that names a bank its device lacks before the
    /// run starts.  Generators built from a geometry cannot overstep it
    /// and keep the default `None` (unknown); composite sources report
    /// the maximum over the parts that know.
    fn max_bank(&self) -> Option<BankId> {
        None
    }

    /// The most intervals this source may deliver in one batch.
    ///
    /// Sources that *react* to what the consumer did with earlier
    /// intervals (closed-loop attackers reading a feedback board) must
    /// return `1`: prefetching interval `n+1` before the mitigation has
    /// processed interval `n` would decouple the loop.  Open-loop
    /// generators keep the default unbounded value.  Composite sources
    /// take the minimum over their parts.
    fn max_batch_intervals(&self) -> u64 {
        u64::MAX
    }

    /// Fills `batch` (cleared first) with up to `max_intervals` whole
    /// refresh intervals of activations, stopping early once the
    /// batch's soft event capacity is reached.  Returns `false` when
    /// the trace is exhausted (no interval delivered).
    ///
    /// The default implementation is a one-interval-at-a-time shim over
    /// [`TraceSource::next_interval`], so every source batches without
    /// changes; sources whose delivery can skip the staging copy
    /// (`MixedTrace`, `CpuWorkload`, `ReplayTrace`, `IdleTrace`)
    /// override it.  The number of intervals per fill is bounded by
    /// `max_intervals`, by [`TraceSource::max_batch_intervals`], and by
    /// the batch's event target (so sparse traces cannot grow the
    /// boundary list without bound).
    fn next_batch(&mut self, batch: &mut EventBatch, max_intervals: u64) -> bool {
        batch.clear();
        let cap = max_intervals
            .min(self.max_batch_intervals())
            .min(batch.target_events() as u64);
        let mut delivered = 0u64;
        let mut scratch = batch.take_scratch();
        while delivered < cap && !batch.is_full() {
            scratch.clear();
            if !self.next_interval(&mut scratch) {
                break;
            }
            batch.push_interval(&scratch);
            delivered += 1;
        }
        batch.restore_scratch(scratch);
        delivered > 0
    }
}

impl<S: TraceSource + ?Sized> TraceSource for &mut S {
    fn next_interval(&mut self, out: &mut Vec<TraceEvent>) -> bool {
        (**self).next_interval(out)
    }

    fn intervals_hint(&self) -> Option<u64> {
        (**self).intervals_hint()
    }

    fn shard_support(&self) -> Result<(), ShardError> {
        (**self).shard_support()
    }

    fn max_bank(&self) -> Option<BankId> {
        (**self).max_bank()
    }

    fn max_batch_intervals(&self) -> u64 {
        (**self).max_batch_intervals()
    }

    fn next_batch(&mut self, batch: &mut EventBatch, max_intervals: u64) -> bool {
        (**self).next_batch(batch, max_intervals)
    }
}

impl<S: TraceSource + ?Sized> TraceSource for Box<S> {
    fn next_interval(&mut self, out: &mut Vec<TraceEvent>) -> bool {
        (**self).next_interval(out)
    }

    fn intervals_hint(&self) -> Option<u64> {
        (**self).intervals_hint()
    }

    fn shard_support(&self) -> Result<(), ShardError> {
        (**self).shard_support()
    }

    fn max_bank(&self) -> Option<BankId> {
        (**self).max_bank()
    }

    fn max_batch_intervals(&self) -> u64 {
        (**self).max_batch_intervals()
    }

    fn next_batch(&mut self, batch: &mut EventBatch, max_intervals: u64) -> bool {
        (**self).next_batch(batch, max_intervals)
    }
}

/// A trace source that can be split into deterministic per-bank
/// sub-streams.
///
/// DRAM banks are independent: no disturbance couples them, and every
/// mitigation keeps per-bank state, so a run can be *sharded by bank* —
/// each bank's sub-stream driven through its own mitigation instance and
/// device view — and merged afterwards with bit-identical results.  The
/// contract that makes this sound:
///
/// * `bank_shard(b)` must be called on a **fresh** (not yet consumed)
///   source, and returns a fresh source producing exactly the events the
///   parent would emit for bank `b`, in the parent's per-bank order;
/// * the shard ticks the **same number of intervals** as the parent
///   (banks with no traffic still tick — see [`IdleTrace`]);
/// * the shard is a pure function of the parent's configuration and
///   `b` — independent of worker count or scheduling.  Generators with
///   randomness derive per-bank sub-streams via
///   [`dram_sim::bank_seed`].
///
/// Shards implement `TraceSplit` themselves so composite sources (for
/// example [`crate::MixedTrace`]) can shard their parts recursively.
pub trait TraceSplit: TraceSource + Send {
    /// This source's bank-`bank` sub-stream, from the beginning.
    fn bank_shard(&self, bank: BankId) -> Box<dyn TraceSplit>;
}

impl<S: TraceSplit + ?Sized> TraceSplit for Box<S> {
    fn bank_shard(&self, bank: BankId) -> Box<dyn TraceSplit> {
        (**self).bank_shard(bank)
    }
}

/// A source that produces no events but ticks a fixed number of
/// intervals — the bank shard of a source that never touches that bank.
/// Keeping idle banks ticking preserves interval alignment, so every
/// shard of a run simulates the same number of refresh intervals.
#[derive(Debug, Clone)]
pub struct IdleTrace {
    remaining: u64,
    total: u64,
}

impl IdleTrace {
    /// An idle source ticking `intervals` times.
    pub fn new(intervals: u64) -> Self {
        IdleTrace {
            remaining: intervals,
            total: intervals,
        }
    }
}

impl TraceSource for IdleTrace {
    fn next_interval(&mut self, _out: &mut Vec<TraceEvent>) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        true
    }

    fn intervals_hint(&self) -> Option<u64> {
        Some(self.total)
    }

    fn next_batch(&mut self, batch: &mut EventBatch, max_intervals: u64) -> bool {
        // Idle bank shards are the common case of a sharded run: ticks
        // only, no events, no scratch round-trip.
        batch.clear();
        let n = self
            .remaining
            .min(max_intervals)
            .min(batch.target_events() as u64);
        if n == 0 {
            return false;
        }
        self.remaining -= n;
        batch.push_empty_intervals(n);
        true
    }
}

impl TraceSplit for IdleTrace {
    fn bank_shard(&self, _bank: BankId) -> Box<dyn TraceSplit> {
        Box::new(IdleTrace::new(self.total))
    }
}

/// A pre-recorded trace replayed interval by interval.
///
/// The recording is immutable and shared: a `ReplayTrace` is a cursor
/// (the next interval to deliver, and an optional bank filter) over one
/// reference-counted list of intervals.  Cloning it and taking its bank
/// shards are O(1) — N techniques replaying one recording, each split
/// into per-bank shards, never copy the recording; each delivered event
/// is copied once, into the caller's buffer.
///
/// ```
/// use mem_trace::{ReplayTrace, TraceEvent, TraceSource};
/// use dram_sim::{BankId, RowAddr};
///
/// let intervals = vec![
///     vec![TraceEvent::benign(BankId(0), RowAddr(1))],
///     vec![],
/// ];
/// let mut replay = ReplayTrace::new(intervals);
/// let mut out = Vec::new();
/// assert!(replay.next_interval(&mut out));
/// assert_eq!(out.len(), 1);
/// out.clear();
/// assert!(replay.next_interval(&mut out)); // empty interval still ticks
/// assert!(!replay.next_interval(&mut out)); // exhausted
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReplayTrace {
    recording: Arc<Recording>,
    /// Index of the next interval to deliver.
    next: usize,
    /// When set, only this bank's events are delivered (a bank shard).
    bank: Option<BankId>,
}

/// The shared, immutable body of a [`ReplayTrace`].
#[derive(Debug, Default)]
struct Recording {
    intervals: Vec<Vec<TraceEvent>>,
    /// The highest bank any event names, found on first request so that
    /// construction only moves the intervals in.
    max_bank: OnceLock<Option<BankId>>,
}

impl ReplayTrace {
    /// Wraps a list of per-interval event batches.
    pub fn new<I>(intervals: I) -> Self
    where
        I: IntoIterator<Item = Vec<TraceEvent>>,
    {
        ReplayTrace {
            recording: Arc::new(Recording {
                intervals: intervals.into_iter().collect(),
                max_bank: OnceLock::new(),
            }),
            next: 0,
            bank: None,
        }
    }

    /// The next recorded interval, before the bank filter; `None` once
    /// the recording is exhausted.
    fn advance(&mut self) -> Option<&[TraceEvent]> {
        let events = self.recording.intervals.get(self.next)?;
        self.next += 1;
        Some(events)
    }
}

impl TraceSource for ReplayTrace {
    fn next_interval(&mut self, out: &mut Vec<TraceEvent>) -> bool {
        let bank = self.bank;
        match self.advance() {
            Some(events) => {
                match bank {
                    None => out.extend_from_slice(events),
                    Some(bank) => out.extend(events.iter().filter(|e| e.bank == bank)),
                }
                true
            }
            None => false,
        }
    }

    fn intervals_hint(&self) -> Option<u64> {
        Some(self.recording.intervals.len() as u64)
    }

    fn max_bank(&self) -> Option<BankId> {
        if self.bank.is_some() {
            // A shard only ever delivers its own bank.
            return self.bank;
        }
        *self.recording.max_bank.get_or_init(|| {
            self.recording
                .intervals
                .iter()
                .flatten()
                .map(|e| e.bank)
                .max()
        })
    }

    fn next_batch(&mut self, batch: &mut EventBatch, max_intervals: u64) -> bool {
        // Recorded intervals go straight into the SoA columns, skipping
        // the shim's staging copy.
        batch.clear();
        let cap = max_intervals.min(batch.target_events() as u64);
        let bank = self.bank;
        let mut delivered = 0u64;
        while delivered < cap && !batch.is_full() {
            let Some(events) = self.advance() else {
                break;
            };
            match bank {
                None => batch.push_interval(events),
                Some(bank) => {
                    for e in events.iter().filter(|e| e.bank == bank) {
                        batch.push_event(e.bank, e.row, e.aggressor);
                    }
                    batch.end_interval();
                }
            }
            delivered += 1;
        }
        delivered > 0
    }
}

impl TraceSplit for ReplayTrace {
    fn bank_shard(&self, bank: BankId) -> Box<dyn TraceSplit> {
        match self.bank {
            // Already another bank's shard: nothing of `bank` is left.
            Some(own) if own != bank => Box::new(IdleTrace::new(
                (self.recording.intervals.len() - self.next) as u64,
            )),
            _ => Box::new(ReplayTrace {
                recording: Arc::clone(&self.recording),
                next: self.next,
                bank: Some(bank),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_label() {
        assert!(!TraceEvent::benign(BankId(0), RowAddr(1)).aggressor);
        assert!(TraceEvent::attack(BankId(0), RowAddr(1)).aggressor);
    }

    #[test]
    fn idle_trace_ticks_without_events() {
        let mut idle = IdleTrace::new(3);
        assert_eq!(idle.intervals_hint(), Some(3));
        let mut out = Vec::new();
        let mut n = 0;
        while idle.next_interval(&mut out) {
            n += 1;
        }
        assert_eq!(n, 3);
        assert!(out.is_empty());
    }

    #[test]
    fn replay_shard_filters_by_bank_and_keeps_interval_count() {
        let trace = ReplayTrace::new(vec![
            vec![
                TraceEvent::benign(BankId(0), RowAddr(1)),
                TraceEvent::attack(BankId(1), RowAddr(2)),
            ],
            vec![TraceEvent::benign(BankId(1), RowAddr(3))],
        ]);
        let mut shard = trace.bank_shard(BankId(1));
        assert_eq!(shard.intervals_hint(), Some(2));
        let mut out = Vec::new();
        assert!(shard.next_interval(&mut out));
        assert_eq!(out, vec![TraceEvent::attack(BankId(1), RowAddr(2))]);
        out.clear();
        assert!(shard.next_interval(&mut out));
        assert_eq!(out, vec![TraceEvent::benign(BankId(1), RowAddr(3))]);
        assert!(!shard.next_interval(&mut out));
    }

    #[test]
    fn default_batch_shim_matches_interval_delivery() {
        let intervals = vec![
            vec![TraceEvent::benign(BankId(0), RowAddr(1))],
            vec![],
            vec![
                TraceEvent::attack(BankId(1), RowAddr(2)),
                TraceEvent::benign(BankId(0), RowAddr(3)),
            ],
        ];
        // Drive the *shim* (not ReplayTrace's override) through a
        // wrapper that only implements next_interval.
        struct Shimmed(ReplayTrace);
        impl TraceSource for Shimmed {
            fn next_interval(&mut self, out: &mut Vec<TraceEvent>) -> bool {
                self.0.next_interval(out)
            }
        }
        let mut shimmed = Shimmed(ReplayTrace::new(intervals.clone()));
        let mut batch = EventBatch::new();
        assert!(shimmed.next_batch(&mut batch, u64::MAX));
        assert_eq!(batch.intervals(), 3);
        let flattened: Vec<_> = (0..batch.len()).map(|i| batch.event(i)).collect();
        let expected: Vec<_> = intervals.iter().flatten().copied().collect();
        assert_eq!(flattened, expected);
        assert_eq!(batch.segment(1), 1..1);
        assert!(!shimmed.next_batch(&mut batch, u64::MAX));
    }

    #[test]
    fn batch_respects_max_intervals_and_source_cap() {
        struct OnePerBatch(ReplayTrace);
        impl TraceSource for OnePerBatch {
            fn next_interval(&mut self, out: &mut Vec<TraceEvent>) -> bool {
                self.0.next_interval(out)
            }
            fn max_batch_intervals(&self) -> u64 {
                1
            }
        }
        let intervals = vec![vec![], vec![], vec![]];
        let mut capped = OnePerBatch(ReplayTrace::new(intervals.clone()));
        let mut batch = EventBatch::new();
        let mut fills = 0;
        while capped.next_batch(&mut batch, u64::MAX) {
            assert_eq!(batch.intervals(), 1);
            fills += 1;
        }
        assert_eq!(fills, 3);

        // The caller's limit binds too, on the override path.
        let mut replay = ReplayTrace::new(intervals);
        assert!(replay.next_batch(&mut batch, 2));
        assert_eq!(batch.intervals(), 2);
    }

    #[test]
    fn idle_batch_ticks_in_bulk() {
        let mut idle = IdleTrace::new(5);
        let mut batch = EventBatch::new();
        assert!(idle.next_batch(&mut batch, 3));
        assert_eq!(batch.intervals(), 3);
        assert!(batch.is_empty());
        assert!(idle.next_batch(&mut batch, u64::MAX));
        assert_eq!(batch.intervals(), 2);
        assert!(!idle.next_batch(&mut batch, u64::MAX));
    }

    #[test]
    fn replay_reports_hint_and_exhausts() {
        let mut t = ReplayTrace::new(vec![vec![], vec![]]);
        assert_eq!(t.intervals_hint(), Some(2));
        let mut out = Vec::new();
        assert!(t.next_interval(&mut out));
        assert!(t.next_interval(&mut out));
        assert!(!t.next_interval(&mut out));
        assert!(out.is_empty());
    }
}

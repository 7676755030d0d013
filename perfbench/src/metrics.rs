//! Turning rounds and spans into the reported metrics.

use crate::clock::calibration;
use crate::fleet::COHORTS;
use crate::pool::WORKERS;
use crate::replay::TIERS;
use crate::spans::{kernel_name, Layer, Span};
use crate::workload::{Checked, Traced};
use rh_hwmodel::Technique;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// The result line: checks plus named metrics with units.
#[derive(Default)]
pub struct Output {
    /// Operations attempted over all rounds.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Output {
    /// Adds a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The JSON object printed as the last line of stdout.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The per-layer figures of one traced round.
pub struct LayerInput {
    /// Activations the trace layer delivered.
    pub acts: u64,
    values: Vec<(String, f64, &'static str)>,
    /// Σ layer self time: every leaf span plus engine self time (s).
    explained_s: f64,
    /// Σ device job time, for fleet workloads (s).
    fleet_busy_s: Option<f64>,
}

#[derive(Default)]
struct Sum {
    busy_s: f64,
    count: u64,
    acts: u64,
    actions: u64,
    flips: u64,
}

fn per_act_ns(sum: &Sum) -> f64 {
    if sum.acts == 0 {
        0.0
    } else {
        sum.busy_s * 1e9 / sum.acts as f64
    }
}

/// Nearest-rank quantile of sorted `values`.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl<R> From<&Traced<R>> for LayerInput {
    fn from(run: &Traced<R>) -> Self {
        let outside_ns = calibration().outside_ns;
        let mut sums: BTreeMap<String, Sum> = BTreeMap::new();
        // Engine self time: the engine span minus its folded children and
        // the timer overhead their timed calls left outside them.
        let mut engine_self: BTreeMap<(u32, u32), f64> = BTreeMap::new();
        for span in &run.spans {
            if span.layer == Layer::Engine {
                engine_self.insert((span.job, span.id), span.busy_ns);
            }
        }
        let mut explained_ns = 0.0;
        for span in &run.spans {
            let sum = sums.entry(span.layer.name()).or_default();
            sum.busy_s += span.busy_ns * 1e-9;
            sum.count += 1;
            sum.acts += span.acts;
            sum.actions += span.actions;
            sum.flips += span.flips;
            if let Some(parent) = span.parent {
                if let Some(own) = engine_self.get_mut(&(span.job, parent)) {
                    *own -= span.busy_ns + span.timed as f64 * outside_ns;
                }
            }
            if !matches!(span.layer, Layer::Job | Layer::Engine) {
                explained_ns += span.busy_ns;
            }
        }
        let engine_self_s: f64 = engine_self.values().sum::<f64>() * 1e-9;
        explained_ns += engine_self_s * 1e9;
        let get = |layer: Layer| sums.get(&layer.name());
        let empty = Sum::default();
        let synth = get(Layer::Synth).unwrap_or(&empty);
        let cpu = get(Layer::CpuSynth).unwrap_or(&empty);
        let replay = get(Layer::Replay).unwrap_or(&empty);
        let engine_runs = get(Layer::Engine).map_or(0, |s| s.count);
        let run_setup = get(Layer::RunSetup).unwrap_or(&empty);
        let acts = synth.acts + cpu.acts + replay.acts;

        let mut values = vec![
            ("trace.acts".to_string(), acts as f64, "count"),
            ("trace.synth_s".to_string(), synth.busy_s, "s"),
            (
                "trace.synth_ns_per_act".to_string(),
                per_act_ns(synth),
                "ns",
            ),
            ("trace.cpu_synth_s".to_string(), cpu.busy_s, "s"),
            ("trace.replay_build_s".to_string(), replay.busy_s, "s"),
        ];
        for index in 0..Technique::TABLE3.len() {
            let kernel = get(Layer::Kernel(index)).unwrap_or(&empty);
            let name = kernel_name(index);
            values.push((
                format!("kernel.{name}.ns_per_act"),
                per_act_ns(kernel),
                "ns",
            ));
            values.push((format!("kernel.{name}.s"), kernel.busy_s, "s"));
            values.push((
                format!("kernel.{name}.actions"),
                kernel.actions as f64,
                "count",
            ));
        }
        for tier in TIERS {
            let backend = get(Layer::Backend(tier)).unwrap_or(&empty);
            values.push((
                format!("backend.{tier}.ns_per_act"),
                per_act_ns(backend),
                "ns",
            ));
            values.push((
                format!("backend.{tier}.flips"),
                backend.flips as f64,
                "count",
            ));
        }
        values.push(("engine.replay_s".to_string(), engine_self_s, "s"));
        values.push((
            "engine.run_setup_us".to_string(),
            if engine_runs == 0 {
                0.0
            } else {
                run_setup.busy_s * 1e6 / engine_runs as f64
            },
            "us",
        ));
        values.push((
            "merge.s".to_string(),
            get(Layer::Merge).map_or(0.0, |s| s.busy_s),
            "s",
        ));
        values.push((
            "fleet.materialize_s".to_string(),
            get(Layer::Materialize).map_or(0.0, |s| s.busy_s),
            "s",
        ));
        values.push((
            "fleet.fold_s".to_string(),
            get(Layer::Fold).map_or(0.0, |s| s.busy_s)
                + get(Layer::Report).map_or(0.0, |s| s.busy_s),
            "s",
        ));
        let mut device_ms: Vec<f64> = run.devices.iter().map(|&(_, s)| s * 1e3).collect();
        device_ms.sort_by(f64::total_cmp);
        values.push((
            "fleet.device_p50_ms".to_string(),
            quantile(&device_ms, 0.50),
            "ms",
        ));
        values.push((
            "fleet.device_p99_ms".to_string(),
            quantile(&device_ms, 0.99),
            "ms",
        ));
        for (index, cohort) in COHORTS.iter().enumerate() {
            let seconds: f64 = run
                .devices
                .iter()
                .filter(|&&(c, _)| c == index)
                .map(|&(_, s)| s)
                .sum();
            values.push((format!("fleet.{cohort}.s"), seconds, "s"));
        }
        LayerInput {
            acts,
            values,
            explained_s: explained_ns * 1e-9,
            fleet_busy_s: (!run.devices.is_empty())
                .then(|| run.devices.iter().map(|&(_, s)| s).sum()),
        }
    }
}

impl LayerInput {
    /// The trace layer must have delivered every activation the runs
    /// counted: a traced split that misses work cannot explain it.
    pub fn check_acts(&self, checked: &mut Checked) {
        if self.acts != checked.acts {
            let why = format!(
                "trace spans delivered {} activations, the runs counted {}",
                self.acts, checked.acts
            );
            checked.fail(checked.ops, why);
        }
    }
}

/// Adds the per-layer metrics: per-metric medians over the traced
/// rounds, utilizations, tracing overhead and the unexplained residual.
pub fn per_layer(
    out: &mut Output,
    rounds: &[(f64, LayerInput)],
    untraced_wall_s: f64,
    pool_util: f64,
) {
    let median_of = |f: &dyn Fn(&(f64, LayerInput)) -> f64| {
        let mut values: Vec<f64> = rounds.iter().map(f).collect();
        crate::median(&mut values)
    };
    for (i, (name, _, unit)) in rounds[0].1.values.iter().enumerate() {
        let value = median_of(&|(_, layer)| layer.values[i].1);
        out.put(name, value, unit);
    }
    let fleet_util = median_of(&|(wall, layer)| {
        layer
            .fleet_busy_s
            .map_or(0.0, |busy| busy / (WORKERS as f64 * wall))
    });
    out.put("fleet.util", fleet_util, "share");
    let is_pool = rounds[0].1.fleet_busy_s.is_none();
    out.put(
        "harness.job_pool_util",
        if is_pool { pool_util } else { 0.0 },
        "share",
    );
    let traced_wall_s = median_of(&|(wall, _)| *wall);
    out.put("tracing.untraced_wall_s", untraced_wall_s, "s");
    out.put("tracing.traced_wall_s", traced_wall_s, "s");
    out.put("tracing.overhead_s", traced_wall_s - untraced_wall_s, "s");
    let explained = median_of(&|(_, layer)| layer.explained_s);
    out.put(
        "tracing.residual_s",
        untraced_wall_s - explained / WORKERS as f64,
        "s",
    );
}

/// One JSON line per span, times in ns from the round's start.
pub fn span_lines(spans: &[Span], origin: u64) -> Vec<String> {
    let cal = calibration();
    spans
        .iter()
        .map(|s| {
            let at = |tick: u64| cal.ns(tick.saturating_sub(origin));
            format!(
                "{{\"job\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {:.0}, \
                 \"end_ns\": {:.0}, \"calls\": {}, \"timed\": {}, \"busy_ns\": {:.0}, \"acts\": {}, \
                 \"actions\": {}, \"flips\": {}}}",
                if s.job == u32::MAX { -1 } else { i64::from(s.job) },
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.layer.name(),
                at(s.start),
                at(s.end),
                s.calls,
                s.timed,
                s.busy_ns,
                s.acts,
                s.actions,
                s.flips,
            )
        })
        .collect()
}

/// Writes span lines to `path`, creating its directory.
pub fn write_spans(path: &Path, lines: &[String]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    for line in lines {
        writeln!(file, "{line}")?;
    }
    file.flush()
}

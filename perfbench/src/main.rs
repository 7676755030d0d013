//! The repository benchmark.
//!
//! ```text
//! perfbench --workload fig4-mix|replay-tiers|fleet-screen --seed N
//!           --seconds S --trace 0|1 [--size full|tiny] [--spans FILE]
//! perfbench --selftest
//! ```
//!
//! Set-up runs several times (median reported as `setup_s`), then the
//! workload's round — a fixed amount of simulation — repeats until
//! `--seconds` have passed.  With `--trace 0` the end-to-end metrics are
//! medians over the rounds; with `--trace 1` the first half of the time
//! runs untraced rounds and the second half traced ones, and the
//! per-layer metrics come from the traced rounds (see `spans.rs`).
//! Every round's simulated results are checked and digested; the last
//! stdout line is the JSON result.

mod clock;
mod fig4;
mod fleet;
mod metrics;
mod pool;
mod replay;
mod selftest;
mod spans;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Checked, Workload};

const USAGE: &str = "usage: perfbench --workload fig4-mix|replay-tiers|fleet-screen --seed N \
                     --seconds S --trace 0|1 [--size full|tiny] [--spans FILE]\n       \
                     perfbench --selftest";

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    spans: Option<PathBuf>,
}

fn parse() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selftest" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            "--size" => {
                args.tiny = match value.as_str() {
                    "full" => false,
                    "tiny" => true,
                    _ => return Err(bad("full or tiny")),
                };
            }
            "--spans" => args.spans = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(Some(args)) => args,
        Ok(None) => return selftest::run(),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    clock::calibration();
    let seed = args.seed;
    let result = match args.workload.as_str() {
        "fig4-mix" => bench(&fig4_mix(seed, args.tiny), &args),
        "replay-tiers" => bench(&replay_tiers(seed), &args),
        "fleet-screen" => bench(&fleet_screen(seed, args.tiny), &args),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// `fig4-mix` at the benchmark size (or the self-test size).
pub fn fig4_mix(seed: u64, tiny: bool) -> fig4::Fig4Mix {
    let (windows, seeds) = if tiny { (1, 1) } else { (2, 2) };
    fig4::Fig4Mix {
        seed,
        windows,
        seeds,
    }
}

/// `replay-tiers`; one window is already small enough for the self-test.
pub fn replay_tiers(seed: u64) -> replay::ReplayTiers {
    replay::ReplayTiers { seed, windows: 1 }
}

/// `fleet-screen` at the benchmark size (or the self-test size).
pub fn fleet_screen(seed: u64, tiny: bool) -> fleet::FleetScreen {
    fleet::FleetScreen {
        seed,
        devices: if tiny { 64 } else { 3072 },
    }
}

/// One untraced or traced round, measured.
struct Round {
    wall_s: f64,
    cpu_s: f64,
    busy_s: f64,
    checked: Checked,
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Set-up repeats at least this often, and until [`SETUP_BUDGET_S`]
/// has passed (at most [`SETUP_MAX_REPS`] times); the median is reported.
const SETUP_MIN_REPS: usize = 3;
const SETUP_BUDGET_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 1000;

/// Repeats set-up; returns the last result, the median time and the
/// repetition count.
fn set_up<W: Workload>(w: &W) -> (W::Setup, f64, usize) {
    let mut times = Vec::new();
    let mut kept = None;
    while times.len() < SETUP_MIN_REPS
        || (times.iter().sum::<f64>() < SETUP_BUDGET_S && times.len() < SETUP_MAX_REPS)
    {
        drop(kept.take());
        let start = Instant::now();
        let setup = w.setup();
        times.push(start.elapsed().as_secs_f64());
        kept = Some(setup);
    }
    let reps = times.len();
    (kept.expect("at least one set-up"), median(&mut times), reps)
}

/// Untraced rounds until `budget_s` has passed and `min` rounds ran.
fn untraced_rounds<W: Workload>(w: &W, setup: &W::Setup, budget_s: f64, min: usize) -> Vec<Round> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < min || start.elapsed().as_secs_f64() < budget_s {
        let cpu0 = clock::cpu_seconds();
        let t0 = Instant::now();
        let (raw, busy_s) = w.run(setup);
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = clock::cpu_seconds() - cpu0;
        let checked = w.check(setup, &raw);
        println!(
            "round {:>3}: wall {wall_s:.4} s  cpu {cpu_s:.4} s  ops {}  failed {}",
            rounds.len(),
            checked.ops,
            checked.failed
        );
        rounds.push(Round {
            wall_s,
            cpu_s,
            busy_s,
            checked,
        });
    }
    rounds
}

/// Flags rounds whose digest differs from the first round's.
fn check_digests(rounds: &mut [Round], reference: u64, what: &str) {
    for round in rounds.iter_mut() {
        if round.checked.digest != reference {
            let ops = round.checked.ops;
            let digest = round.checked.digest;
            round.checked.fail(
                ops,
                format!("{what} digest {digest:016x} differs from {reference:016x}"),
            );
        }
    }
}

fn report_checks(workload: &str, seed: u64, rounds: &[Round]) -> (u64, u64) {
    let first = &rounds[0].checked;
    for line in &first.summary {
        println!("  {line}");
    }
    println!(
        "digest {workload} seed {seed}: {:016x} ({} acts per round)",
        first.digest, first.acts
    );
    let mut attempted = 0;
    let mut failed = 0;
    for round in rounds {
        attempted += round.checked.ops;
        failed += round.checked.failed;
        for why in &round.checked.failures {
            println!("FAILED: {why}");
        }
    }
    (attempted, failed)
}

fn bench<W: Workload>(w: &W, args: &Args) -> Result<String, String> {
    let (setup, setup_s, reps) = set_up(w);
    println!(
        "{} seed {}: set-up median {setup_s:.6} s over {reps} reps",
        args.workload, args.seed
    );
    let mut out = metrics::Output::default();
    if !args.trace {
        let mut rounds = untraced_rounds(w, &setup, args.seconds, 3);
        let reference = rounds[0].checked.digest;
        check_digests(&mut rounds, reference, "round");
        let (attempted, failed) = report_checks(&args.workload, args.seed, &rounds);
        let wall_s = median(&mut rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let cpu_s = median(&mut rounds.iter().map(|r| r.cpu_s).collect::<Vec<_>>());
        let acts = rounds[0].checked.acts as f64;
        out.attempted = attempted;
        out.failed = failed;
        out.put("setup_s", setup_s, "s");
        out.put("wall_s", wall_s, "s");
        out.put("sim_acts_per_s", acts / wall_s, "1/s");
        out.put("cpu_s", cpu_s, "s");
        // The high-water mark over the whole run: with two threads the
        // peak depends on how their jobs overlap, and more rounds sample
        // more overlaps.
        out.put("peak_rss_mb", clock::peak_rss_mb(), "MiB");
    } else {
        let mut plain = untraced_rounds(w, &setup, args.seconds / 2.0, 1);
        let reference = plain[0].checked.digest;
        check_digests(&mut plain, reference, "untraced round");
        let start = Instant::now();
        let mut traced = Vec::new();
        let mut layers = Vec::new();
        let mut last_spans = (Vec::new(), 0);
        while traced.is_empty() || start.elapsed().as_secs_f64() < args.seconds / 2.0 {
            let t0 = Instant::now();
            let tick0 = clock::ticks();
            let run = w.traced(&setup);
            let wall_s = t0.elapsed().as_secs_f64();
            let mut checked = w.check(&setup, &run.raw);
            w.check_traced(&setup, &run, &mut checked);
            let layer = metrics::LayerInput::from(&run);
            layer.check_acts(&mut checked);
            println!(
                "traced round {:>3}: wall {wall_s:.4} s  spans {}  failed {}",
                traced.len(),
                run.spans.len(),
                checked.failed
            );
            layers.push((wall_s, layer));
            last_spans = (run.spans, tick0);
            traced.push(Round {
                wall_s,
                cpu_s: 0.0,
                busy_s: 0.0,
                checked,
            });
        }
        check_digests(&mut traced, reference, "traced round");
        let mut all: Vec<Round> = plain;
        let untraced_n = all.len();
        all.extend(traced);
        let (attempted, failed) = report_checks(&args.workload, args.seed, &all);
        let untraced_wall = median(
            &mut all[..untraced_n]
                .iter()
                .map(|r| r.wall_s)
                .collect::<Vec<_>>(),
        );
        let pool_util = median(
            &mut all[..untraced_n]
                .iter()
                .map(|r| r.busy_s / (pool::WORKERS as f64 * r.wall_s))
                .collect::<Vec<_>>(),
        );
        out.attempted = attempted;
        out.failed = failed;
        metrics::per_layer(&mut out, &layers, untraced_wall, pool_util);
        if let Some(path) = &args.spans {
            metrics::write_spans(path, &metrics::span_lines(&last_spans.0, last_spans.1))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!("spans of the last traced round: {}", path.display());
        }
    }
    Ok(out.to_json())
}

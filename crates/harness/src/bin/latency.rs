//! Demand-latency impact study: mitigation traffic through the
//! cycle-level memory controller, plus per-shard engine throughput
//! ([`PerfCounters`]) for the same scale.
//!
//! Usage: `latency [quick|paper|full]` (default: paper).
//!
//! The latency table goes to stdout and is seeded, so
//! `latency paper > results/latency.txt` is reproducible byte for byte.
//! The throughput table is wall-clock data and goes to stderr.

use rh_harness::experiments::latency;
use rh_harness::{ExperimentScale, PerfCounters, RunConfig, Runner};
use rh_hwmodel::Technique;

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| ExperimentScale::from_name(&s))
        .unwrap_or_else(ExperimentScale::paper_shape);
    println!("Demand latency — mixed trace through the cycle-level controller");
    println!("(background priority unless marked @urgent)");
    println!();
    print!("{}", latency::render(&latency::run(&scale)));

    // Engine-side throughput: the same mixed workload through the run
    // engine with per-shard perf counters attached.
    let config = RunConfig::paper(&scale);
    let perf = PerfCounters::default();
    let trace = rh_harness::scenario::paper_mix(&config, 1);
    Runner::new(config)
        .technique(Technique::LoLiPromi)
        .seed(1)
        .observer(perf.clone())
        .run(trace);
    eprintln!();
    eprintln!("Engine shard throughput (LoLiPRoMi, mixed trace)");
    eprint!("{}", perf.render());
}

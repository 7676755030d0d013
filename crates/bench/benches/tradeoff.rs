//! Fig. 4 regenerator + full-engine run benchmarks.
//!
//! The printed series uses 2 windows × 1 bank × 2 seeds; run
//! `cargo run --release --bin rh -- fig4 paper` (or `full`) for
//! the evaluation scale.

use criterion::{criterion_group, criterion_main, Criterion};
use rh_bench::{bench_scale, print_scale};
use rh_harness::experiments::fig4;
use rh_harness::RunConfig;
use rh_hwmodel::Technique;
use std::hint::black_box;

fn regenerate_and_bench(c: &mut Criterion) {
    println!("\n=== Fig. 4 — table size vs activation overhead (reduced scale) ===");
    let points = fig4::run(&print_scale());
    println!("{}", fig4::render(&points));
    for (desc, ok) in fig4::shape_checks(&points) {
        println!("[{}] {desc}", if ok { "ok" } else { "MISS" });
    }
    println!();

    let config = RunConfig::paper(&bench_scale());
    let mut group = c.benchmark_group("fig4_run_one_window");
    group.sample_size(10);
    for technique in [
        Technique::Para,
        Technique::TwiCe,
        Technique::LoLiPromi,
        Technique::CaPromi,
    ] {
        group.bench_function(technique.name(), |b| {
            b.iter(|| black_box(fig4::run_one(technique, &config, 1)))
        });
    }
    group.finish();
}

criterion_group!(benches, regenerate_and_bench);
criterion_main!(benches);

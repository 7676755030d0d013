//! Table III regenerator + area-model benchmark.
//!
//! The printed table uses a reduced simulation scale; run
//! `cargo run --release --bin rh -- table3 paper` for the
//! evaluation scale.

use criterion::{criterion_group, criterion_main, Criterion};
use dram_sim::DramGeneration;
use rh_bench::print_scale;
use rh_harness::experiments::table3;
use rh_hwmodel::{area, HwParams, Technique};
use std::hint::black_box;

fn regenerate_and_bench(c: &mut Criterion) {
    println!("\n=== Table III — comparison (reduced scale) ===");
    let results = table3::run(&print_scale());
    println!("{}", table3::render(&results));

    let params = HwParams::paper();
    c.bench_function("table3/lut_breakdowns", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for t in Technique::TABLE3 {
                total += area::area(t, &params, DramGeneration::Ddr4).total();
            }
            black_box(total)
        })
    });
}

criterion_group!(benches, regenerate_and_bench);
criterion_main!(benches);

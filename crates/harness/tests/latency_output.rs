//! `rh latency` prints only seeded simulation results: two runs at one
//! scale print the same bytes, so `rh latency paper > results/latency.txt`
//! is reproducible.

use std::process::{Command, Output};

fn latency(scale: &str) -> Output {
    let output = Command::new(env!("CARGO_BIN_EXE_rh"))
        .args(["latency", scale])
        .output()
        .expect("rh binary runs");
    assert!(
        output.status.success(),
        "rh latency {scale} failed: {output:?}"
    );
    output
}

#[test]
fn latency_stdout_is_byte_identical_across_runs() {
    let first = latency("quick");
    let second = latency("quick");
    assert_eq!(first.stdout, second.stdout);
    let stdout = String::from_utf8_lossy(&first.stdout);
    assert!(stdout.contains("mean demand latency"), "{stdout}");
    assert!(!stdout.contains("events/sec"), "{stdout}");
}

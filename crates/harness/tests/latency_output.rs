//! The `latency` binary's stdout is seeded: two runs at one scale print
//! the same bytes, so `latency paper > results/latency.txt` is
//! reproducible.  Its wall-clock throughput table goes to stderr.

use std::process::{Command, Output};

fn latency(scale: &str) -> Output {
    let output = Command::new(env!("CARGO_BIN_EXE_latency"))
        .arg(scale)
        .output()
        .expect("latency binary runs");
    assert!(
        output.status.success(),
        "latency {scale} failed: {output:?}"
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
    assert!(String::from_utf8_lossy(&first.stderr).contains("events/sec"));
}

//! A mistyped scale or experiment name is an error, not a silent run of
//! the default: the binaries print the valid choices on stderr and exit
//! with status 2 before simulating anything.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

/// An output directory the binaries may not write to on a usage error.
fn scratch_dir() -> String {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_args");
    dir.to_str().expect("utf-8 temp dir").to_string()
}

fn assert_usage_error(output: &Output, expected: &[&str]) {
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    assert!(output.stdout.is_empty(), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    for choice in expected {
        assert!(
            stderr.contains(choice),
            "`{choice}` missing from {stderr:?}"
        );
    }
}

#[test]
fn rh_rejects_an_unknown_scale() {
    let output = run(env!("CARGO_BIN_EXE_rh"), &["table1", "ful"]);
    assert_usage_error(&output, &["`ful`", "quick", "paper", "full"]);
}

#[test]
fn rh_rejects_an_unknown_experiment() {
    let output = run(env!("CARGO_BIN_EXE_rh"), &["fig5", "quick"]);
    assert_usage_error(&output, &["`fig5`", "table1", "fig4", "trace-stats"]);
}

#[test]
fn timeline_rejects_an_unknown_scale() {
    let dir = scratch_dir();
    let output = run(
        env!("CARGO_BIN_EXE_timeline"),
        &["pape", "PARA", "64", &dir],
    );
    assert_usage_error(&output, &["`pape`", "quick", "paper", "full"]);
}

#[test]
fn export_rejects_an_unknown_scale() {
    let dir = scratch_dir();
    let output = run(env!("CARGO_BIN_EXE_export"), &["pape", &dir]);
    assert_usage_error(&output, &["`pape`", "quick", "paper", "full"]);
}

//! Pins the committed `results/` files to what the code prints.
//!
//! Each entry of `experiments::ALL` owns `results/<name>.txt`, holding
//! `rh <name> paper`; `fig4.csv`, `fig4.svg`, `flooding.csv` and
//! `latency.csv` hold `export paper results`.  The default tests check
//! the file set and the two instant tables; the ignored test re-runs
//! every paper-scale experiment (minutes) and compares all files:
//!
//! ```text
//! cargo test --release --test results_pinned -- --ignored
//! ```

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use tivapromi_suite::harness::experiments::{fig4, flooding, latency, Experiment, ALL};
use tivapromi_suite::harness::{plot, report, ExperimentScale};

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn committed(file: &str) -> String {
    let path = results_dir().join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `None` if `actual` equals the committed file, else a description of
/// the first differing line.
fn mismatch(file: &str, actual: &str) -> Option<String> {
    let expected = committed(file);
    if expected == actual {
        return None;
    }
    let (line, want, got) = expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (want, got))| want != got)
        .map_or(
            (expected.lines().count().min(actual.lines().count()), "", ""),
            |(i, (w, g))| (i, w, g),
        );
    Some(format!(
        "results/{file} differs at line {}:\n  committed: {want}\n  now:       {got}",
        line + 1
    ))
}

fn csv(write: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>) -> String {
    let mut bytes = Vec::new();
    write(&mut bytes).expect("csv write");
    String::from_utf8(bytes).expect("utf-8 csv")
}

fn experiment(name: &str) -> &'static Experiment {
    ALL.iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("no experiment `{name}`"))
}

#[test]
fn every_experiment_has_exactly_one_results_file() {
    let expected: BTreeSet<String> = ALL.iter().map(|e| format!("{}.txt", e.name)).collect();
    assert_eq!(expected.len(), ALL.len(), "duplicate experiment names");
    let present: BTreeSet<String> = std::fs::read_dir(results_dir())
        .expect("results/ exists")
        .map(|entry| entry.expect("readable entry").file_name())
        .map(|name| name.into_string().expect("utf-8 file name"))
        .filter(|name| name.ends_with(".txt"))
        .collect();
    assert_eq!(
        present, expected,
        "results/*.txt must match experiments::ALL"
    );
}

#[test]
fn instant_tables_match_their_results_files() {
    let paper = ExperimentScale::paper_shape();
    for name in ["table1", "table2"] {
        let file = format!("{name}.txt");
        if let Some(diff) = mismatch(&file, &(experiment(name).report)(&paper)) {
            panic!("{diff}");
        }
    }
}

#[test]
#[ignore = "re-runs every paper-scale experiment; minutes in release mode"]
fn every_results_file_regenerates_byte_for_byte() {
    let paper = ExperimentScale::paper_shape();
    let mut diffs: Vec<String> = ALL
        .iter()
        .filter_map(|e| mismatch(&format!("{}.txt", e.name), &(e.report)(&paper)))
        .collect();

    let points = fig4::run(&paper);
    let floods = flooding::run(&paper);
    let latencies = latency::run(&paper);
    let exports = [
        ("fig4.csv", csv(|w| report::fig4_csv(&points, w))),
        ("fig4.svg", plot::fig4_svg(&points)),
        ("flooding.csv", csv(|w| report::flooding_csv(&floods, w))),
        ("latency.csv", csv(|w| report::latency_csv(&latencies, w))),
    ];
    diffs.extend(
        exports
            .iter()
            .filter_map(|(file, actual)| mismatch(file, actual)),
    );
    assert!(diffs.is_empty(), "{}", diffs.join("\n"));
}

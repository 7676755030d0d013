//! `rh` — the experiment runner.
//!
//! ```text
//! rh <experiment> [quick|paper|full]
//! rh all [quick|paper|full]
//! rh list
//! ```
//!
//! `rh <experiment>` prints that experiment's report; `rh all` prints
//! every report, each under a `==== name ====` header, so a full
//! regeneration is one command: `rh all paper`.  The scale defaults to
//! `paper`; an unknown scale or experiment exits with status 2.

use rh_harness::experiments::{Experiment, ALL};
use rh_harness::ExperimentScale;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| "list".into());
    let scale = match ExperimentScale::from_arg(args.next().as_deref()) {
        Ok(scale) => scale,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    match command.as_str() {
        "list" | "--help" | "-h" => {
            println!("usage: rh <experiment|all|list> [quick|paper|full]\n");
            for Experiment { name, about, .. } in ALL {
                println!("  {name:16} {about}");
            }
        }
        "all" => {
            for Experiment { name, report, .. } in ALL {
                println!("==== {name} ====");
                println!("{}", report(&scale));
            }
        }
        name => match ALL.iter().find(|e| e.name == name) {
            Some(experiment) => print!("{}", (experiment.report)(&scale)),
            None => {
                let names: Vec<&str> = ALL.iter().map(|e| e.name).collect();
                eprintln!(
                    "unknown experiment `{name}`; expected all, list or one of: {}",
                    names.join(", ")
                );
                return ExitCode::from(2);
            }
        },
    }
    ExitCode::SUCCESS
}

//! `--selftest`: at tiny sizes, every output check must pass on real
//! results and fail on a corrupted copy.

use crate::metrics::LayerInput;
use crate::spans::Layer;
use crate::workload::{Checked, Workload};
use crate::{fig4_mix, fleet_screen, replay_tiers};
use std::process::ExitCode;

struct Tally {
    failures: usize,
}

impl Tally {
    fn expect(&mut self, what: &str, ok: bool) {
        println!("selftest {}: {what}", if ok { "ok    " } else { "FAILED" });
        if !ok {
            self.failures += 1;
        }
    }

    fn clean(&mut self, what: &str, checked: &Checked) {
        self.expect(
            &format!("{what} passes on real results"),
            checked.failed == 0 && checked.ops > 0,
        );
    }

    fn caught(&mut self, what: &str, checked: &Checked) {
        self.expect(&format!("{what} is caught"), checked.failed > 0);
    }
}

/// Runs every check against real and corrupted tiny-size results.
pub fn run() -> ExitCode {
    let mut tally = Tally { failures: 0 };

    let w = fig4_mix(3, true);
    let setup = w.setup();
    let (raw, _) = w.run(&setup);
    tally.clean("fig4-mix zero-flip check", &w.check(&setup, &raw));
    let mut bad = raw.clone();
    bad[0].flips = 1;
    tally.caught("fig4-mix: a bit flip", &w.check(&setup, &bad));

    let traced = w.traced(&setup);
    let mut checked = w.check(&setup, &traced.raw);
    w.check_traced(&setup, &traced, &mut checked);
    tally.clean("fig4-mix traced kernel-action check", &checked);
    tally.expect(
        "fig4-mix traced digest equals untraced digest",
        checked.digest == w.check(&setup, &raw).digest,
    );
    let mut checked = w.check(&setup, &traced.raw);
    LayerInput::from(&traced).check_acts(&mut checked);
    tally.clean("traced trace-layer activation count", &checked);
    let mut bad = traced;
    let synth = bad
        .spans
        .iter_mut()
        .find(|s| s.layer == Layer::Synth && s.acts > 0)
        .expect("a traced job has synthesis spans");
    synth.acts -= 1;
    let mut checked = w.check(&setup, &bad.raw);
    LayerInput::from(&bad).check_acts(&mut checked);
    tally.caught("traced: trace layer missed an activation", &checked);
    let kernel = bad
        .spans
        .iter_mut()
        .find(|s| matches!(s.layer, Layer::Kernel(_)))
        .expect("a traced job has kernel spans");
    kernel.actions += 1;
    let mut checked = Checked::default();
    w.check_traced(&setup, &bad, &mut checked);
    tally.caught("traced: kernel actions ≠ trigger events", &checked);
    bad.raw[1].trigger_events += 1;
    tally.expect(
        "a changed statistic changes the digest",
        w.check(&setup, &bad.raw).digest != w.check(&setup, &raw).digest,
    );

    let w = replay_tiers(3);
    let setup = w.setup();
    let (raw, _) = w.run(&setup);
    tally.clean("replay-tiers cross-tier check", &w.check(&setup, &raw));
    type Corrupt = fn(&mut rh_harness::RunMetrics);
    let corruptions: [(&str, Corrupt); 3] = [
        ("replay-tiers: fast-tier trigger count", |m| {
            m.trigger_events += 1
        }),
        ("replay-tiers: fast-tier false positives", |m| {
            m.false_positive_events += 1;
        }),
        ("replay-tiers: fast-tier first trigger", |m| {
            m.first_trigger_act = Some(m.first_trigger_act.map_or(0, |a| a + 1));
        }),
    ];
    for (what, corrupt) in corruptions {
        let mut bad = raw.clone();
        corrupt(&mut bad[1]);
        tally.caught(what, &w.check(&setup, &bad));
    }
    let traced = w.traced(&setup);
    let mut checked = w.check(&setup, &traced.raw);
    w.check_traced(&setup, &traced, &mut checked);
    tally.clean("replay-tiers traced kernel-action check", &checked);

    let w = fleet_screen(3, true);
    let setup = w.setup();
    let (raw, _) = w.run(&setup);
    tally.clean(
        "fleet-screen sink and report checks",
        &w.check(&setup, &raw),
    );
    let traced = w.traced(&setup);
    let mut checked = w.check(&setup, &traced.raw);
    w.check_traced(&setup, &traced, &mut checked);
    tally.clean("fleet-screen traced kernel-action check", &checked);
    tally.expect(
        "fleet-screen traced replica digest equals Fleet::run_with_sink digest",
        checked.digest == w.check(&setup, &raw).digest,
    );
    let (mut bad, _) = w.run(&setup);
    bad.seen.swap(0, 1);
    tally.caught("fleet-screen: sink order", &w.check(&setup, &bad));
    let (mut bad, _) = w.run(&setup);
    bad.seen.pop();
    tally.caught(
        "fleet-screen: a device missing from the sink",
        &w.check(&setup, &bad),
    );
    let (mut bad, _) = w.run(&setup);
    bad.seen[2].2.workload_activations += 1;
    tally.caught(
        "fleet-screen: report ≠ fold of the sink",
        &w.check(&setup, &bad),
    );

    if tally.failures == 0 {
        println!("selftest passed");
        ExitCode::SUCCESS
    } else {
        println!("selftest: {} expectations failed", tally.failures);
        ExitCode::FAILURE
    }
}

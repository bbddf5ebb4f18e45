//! End-to-end phase-structured scenario: the `fig_phases` campaign on
//! machine B, from the phased workload timeline through the engine's
//! epoch-boundary profile swaps and the adaptive watchdog to the
//! versioned report.
//!
//! Pins the tentpole acceptance criterion — on the phase-flipping
//! workloads, adaptive BWAP beats one-shot ("static") BWAP, which beats
//! first-touch, with at least one re-tune recorded in the report — and
//! the determinism contract: a phase switch at epoch *k* lands at the
//! same epoch in every run, so reports are byte-identical across runs
//! and shard counts.

use bwap_bench::experiments::fig_phases_spec;
use bwap_suite::prelude::*;

fn exec_time(report: &CampaignReport, workload: &str, policy: &str) -> f64 {
    report
        .find(workload, policy, ScenarioKind::Standalone, 1, None)
        .unwrap_or_else(|| panic!("no {workload}/{policy} cell"))
        .result()
        .unwrap_or_else(|| panic!("{workload}/{policy} cell failed"))
        .exec_time_s
}

/// The headline: across both phase-flipping workloads, the adaptive
/// daemon's re-tuning beats the placement any one-shot tuner freezes,
/// which in turn beats the Linux default — with the watchdog's activity
/// recorded in the report.
#[test]
fn adaptive_beats_static_beats_first_touch_on_phase_flips() {
    let spec = fig_phases_spec(true);
    let report = run_campaign(&spec);
    for c in &report.cells {
        assert!(c.outcome.is_ok(), "{}: {:?}", c.key, c.outcome);
    }
    for w in ["SC.FLIP", "OC.SWING"] {
        let ft = exec_time(&report, w, "first-touch");
        let stat = exec_time(&report, w, "bwap");
        let adapt = exec_time(&report, w, "bwap-adaptive");
        assert!(adapt < stat, "{w}: adaptive {adapt} should beat static bwap {stat}");
        assert!(stat < ft, "{w}: static bwap {stat} should beat first-touch {ft}");

        let cell = report
            .find(w, "bwap-adaptive", ScenarioKind::Standalone, 1, None)
            .and_then(|c| c.result())
            .expect("adaptive cell ran");
        let retunes = cell.retunes.expect("adaptive cells report retunes");
        assert!(retunes >= 1, "{w}: the watchdog re-tuned at least once");
        let times = cell.retune_times_s.as_ref().expect("timestamps ride along");
        assert_eq!(times.len(), retunes as usize);
        assert!(times.windows(2).all(|p| p[0] < p[1]), "timestamps ordered: {times:?}");
        assert!(cell.phase_switches.expect("phased cells count switches") >= 2);

        // Non-adaptive cells carry no adaptive observables.
        let stat_cell = report
            .find(w, "bwap", ScenarioKind::Standalone, 1, None)
            .and_then(|c| c.result())
            .expect("static cell ran");
        assert_eq!(stat_cell.retunes, None);
    }
    // The v2 report surfaces the new fields.
    let json = report.deterministic_json();
    assert!(json.contains("\"retunes\""));
    assert!(json.contains("\"retune_times_s\""));
    assert!(json.contains("\"phase_switches\""));
    assert!(json.contains("\"phase_period_s\""));
}

fn small_phased_spec() -> CampaignSpec {
    CampaignSpec::new("phases-determinism", machines::machine_b())
        .phased_workloads(vec![workloads::sc_bandwidth_flip().scaled_down(64.0)])
        .phase_periods(vec![2.0])
        .policies(vec![
            PlacementPolicy::UniformWorkers,
            PlacementPolicy::AdaptiveBwap(AdaptiveConfig::default()),
        ])
        .seed(17)
}

/// Phase switches happen at epoch boundaries driven only by the simulated
/// clock, so two runs of the same spec — at any shard count — produce
/// byte-identical deterministic payloads (switch counts, re-tune
/// timestamps and all).
#[test]
fn phase_switches_are_deterministic_across_runs_and_shards() {
    let spec = small_phased_spec();
    let one = run_campaign_with(&spec, &CampaignConfig { threads: Some(1), ..Default::default() });
    let four = run_campaign_with(&spec, &CampaignConfig { threads: Some(4), ..Default::default() });
    let again =
        run_campaign_with(&spec, &CampaignConfig { threads: Some(1), ..Default::default() });
    assert_eq!(one.deterministic_json(), four.deterministic_json(), "shard-count invariance");
    assert_eq!(one.deterministic_json(), again.deterministic_json(), "run-to-run determinism");
    // The runs actually switched phases (the property is not vacuous).
    let r = one.cells[0].result().expect("cell ran");
    assert!(r.phase_switches.unwrap() >= 2, "switches: {:?}", r.phase_switches);
}

/// A phase trace nested 50,000 levels deep is a typed JSON error, not a
/// stack overflow that aborts the process.
#[test]
fn deeply_nested_phase_trace_is_an_error_not_an_abort() {
    let hostile = "[".repeat(50_000);
    let err = bwap_workloads::trace::parse_phase_trace(&hostile).unwrap_err();
    assert!(matches!(err, bwap_workloads::trace::TraceError::Json { .. }), "{err:?}");
    let err = bwap_workloads::json::Json::parse(&hostile).unwrap_err();
    assert_eq!(err.kind, bwap_workloads::json::JsonErrorKind::TooDeep);
}

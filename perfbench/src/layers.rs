//! The traced run: per-layer numbers, each timed from outside around
//! calls into the layer's public functions.
//!
//! Only the public API the roadmap keeps is called — `run_campaign_with`,
//! `CampaignSpec`, `run_cell_for`, `cell_descriptor`, `CellCache`,
//! `Simulator`, `poisson_jobs`, `canonical_weights_on` and `Json::parse`
//! — so engine, solver and sweep refactors never force an edit here.

use std::collections::HashSet;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use bwap::canonical_weights_on;
use bwap_runtime::{
    cell_descriptor, run_campaign_with, run_cell_for, CampaignReport, CampaignSpec, CellCache,
    RunResult, ScenarioKind,
};
use bwap_workloads::json::Json;
use numasim::{MemPolicy, Simulator};

use crate::check::{Expect, Tally};
use crate::metrics::Values;
use crate::stats::{median, percentile, tail};
use crate::{arrival_streams, campaign_config, simulated_seconds, TempDir, THREADS};

/// Repetitions of the sub-millisecond calls; their median is reported.
const MICRO_REPS: usize = 101;

/// `step()` samples the simulator loop aims for, per kind: enough for a
/// p99 with ten samples beyond it.
const STEP_SAMPLES: usize = 1000;

/// Upper bound on the simulator loop's host time.
const SIM_LOOP_BUDGET: Duration = Duration::from_secs(8);

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median milliseconds of [`MICRO_REPS`] calls of `f`.
fn micro_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..MICRO_REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            ms(t)
        })
        .collect();
    median(&times)
}

/// One executed cell of the campaign plan: the representative of a dedup
/// class, run alone through `run_cell_for`.
struct ClassRun {
    cell: usize,
    host_ms: f64,
    outcome: Result<RunResult, String>,
}

pub fn measure(
    spec: &CampaignSpec,
    seconds: f64,
    expect: &Expect,
    tally: &mut Tally,
    out: &mut Values,
) -> Result<(), String> {
    let start = Instant::now();

    // runtime.campaign: the plan — cell enumeration plus one canonical
    // descriptor per cell, grouped into dedup classes.
    let plan_ms = micro_ms(|| {
        let cells = spec.cells();
        let descs: Vec<_> = cells.iter().map(|c| cell_descriptor(spec, c)).collect();
        descs
    });
    let cells = spec.cells();
    let descs: Vec<_> = cells.iter().map(|c| cell_descriptor(spec, c)).collect();
    let mut seen = HashSet::new();
    let reps: Vec<usize> = (0..cells.len()).filter(|&i| seen.insert(descs[i].text())).collect();
    out.set("campaign.plan_ms", plan_ms);
    out.set("campaign.cells", cells.len() as f64);
    out.set("campaign.classes", reps.len() as f64);

    // runtime.scenario, through the executor's entry point: each class
    // representative alone, one after another.
    let runs: Vec<ClassRun> = reps
        .iter()
        .map(|&i| {
            let t = Instant::now();
            let outcome = run_cell_for(spec, &cells[i]).map_err(|e| e.to_string());
            ClassRun { cell: i, host_ms: ms(t), outcome }
        })
        .collect();
    tally.add_cells(runs.len(), runs.iter().filter(|r| r.outcome.is_err()).count());
    let cell_ms: Vec<f64> = runs.iter().map(|r| r.host_ms).collect();
    let busy_ms: f64 = cell_ms.iter().sum();
    out.set("executor.cell_ms.p50", median(&cell_ms));
    out.set("executor.cell_ms.max", percentile(&cell_ms, 100.0));
    out.set("executor.cell_samples", cell_ms.len() as f64);

    // numasim.trace: untraced and traced campaigns, alternating which
    // goes first, until `seconds` have passed since the plan (at least one
    // pair). Engine counts come from the first traced run's traces.
    let deadline = Duration::from_secs_f64(seconds);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut engine = None;
    let mut report = None;
    while plain.is_empty() || start.elapsed() < deadline {
        let pair = plain.len();
        for traced_turn in [pair % 2 == 1, pair % 2 == 0] {
            let dir = match traced_turn {
                true => {
                    Some(TempDir::new("traces").map_err(|e| format!("temporary directory: {e}"))?)
                }
                false => None,
            };
            let trace_dir = dir.as_ref().map(|d| d.path().to_path_buf());
            let t = Instant::now();
            let r = run_campaign_with(spec, &campaign_config(THREADS, trace_dir));
            let wall = t.elapsed().as_secs_f64();
            let label =
                format!("{} run {}", if traced_turn { "traced" } else { "untraced" }, pair + 1);
            tally.add(&label, &r, expect);
            if traced_turn {
                traced.push(wall);
                if engine.is_none() {
                    engine = Some(scan_traces(&r, &runs)?);
                }
            } else {
                plain.push(wall);
                report.get_or_insert(r);
            }
        }
    }
    let plain_s = median(&plain);
    out.set("trace.overhead_frac", median(&traced) / plain_s - 1.0);
    out.set("trace.runs", plain.len() as f64);
    out.set("executor.busy_frac", busy_ms / 1e3 / (THREADS as f64 * plain_s));
    let e = engine.expect("at least one traced run");
    out.set("trace.bytes", e.bytes as f64);
    out.set("trace.dropped_events", e.dropped as f64);
    out.set("trace.truncated_cells", e.truncated.len() as f64);
    out.set("engine.epochs", e.epochs as f64);
    out.set("engine.strides", e.strides as f64);
    out.set("engine.mbind_calls", e.mbind_calls as f64);
    out.set("engine.migrate_events", e.migrate_events as f64);
    out.set("engine.migrated_pages", e.migrated_pages as f64);
    out.set(
        "engine.us_per_epoch",
        if e.epochs > 0 { e.host_ms * 1e3 / e.epochs as f64 } else { 0.0 },
    );
    let report = report.expect("at least one untraced run");
    out.set("engine.sim_s", simulated_seconds(&report));
    if !e.truncated.is_empty() {
        println!(
            "note: {} cell trace(s) overflowed the trace ring ({} events dropped); engine.* \
             counts and engine.us_per_epoch cover only the {} complete cells. Truncated: {}",
            e.truncated.len(),
            e.dropped,
            runs.len() - e.truncated.len(),
            e.truncated.join(", ")
        );
    }

    sim_loop(spec, out)?;

    // core: the canonical weight distribution of each worker set.
    let worker_sets: Vec<_> = spec
        .worker_counts
        .iter()
        .filter(|&&k| k >= 1 && k <= spec.machine.worker_node_count())
        .map(|&k| spec.machine.best_worker_set(k))
        .collect();
    out.set(
        "core.canonical_ms",
        micro_ms(|| {
            worker_sets.iter().map(|&w| canonical_weights_on(&spec.machine, w)).collect::<Vec<_>>()
        }) / worker_sets.len().max(1) as f64,
    );

    // runtime.fleet: drawing the arrival streams, and host time per
    // simulated second of fleet makespan.
    let fleet: Vec<&ClassRun> =
        runs.iter().filter(|r| cells[r.cell].scenario == ScenarioKind::Fleet).collect();
    if spec.fleet.is_some() {
        out.set("fleet.arrivals_ms", micro_ms(|| arrival_streams(spec, &cells)));
    } else {
        println!("note: fleet.* are 0: this workload has no fleet cells");
        out.set("fleet.arrivals_ms", 0.0);
    }
    let fleet_ok: Vec<(f64, &RunResult)> =
        fleet.iter().filter_map(|r| r.outcome.as_ref().ok().map(|o| (r.host_ms, o))).collect();
    let makespan: f64 = fleet_ok.iter().map(|(_, o)| o.exec_time_s).sum();
    let fleet_host_ms: f64 = fleet_ok.iter().map(|(ms, _)| ms).sum();
    out.set("fleet.jobs", fleet_ok.iter().filter_map(|(_, o)| o.jobs).sum::<u64>() as f64);
    out.set("fleet.host_ms_per_sim_s", if makespan > 0.0 { fleet_host_ms / makespan } else { 0.0 });

    cache_pass(spec, &descs, &runs, expect, tally, out)?;

    // runtime.campaign.report and workloads.json: writing the
    // deterministic report and reading it back.
    let json = report.deterministic_json();
    out.set("report.json_ms", micro_ms(|| report.deterministic_json()));
    out.set("report.bytes", json.len() as f64);
    Json::parse(&json).map_err(|e| format!("deterministic report does not parse: {e}"))?;
    out.set("json.parse_ms", micro_ms(|| Json::parse(&json)));
    Ok(())
}

/// Engine work counted from one traced campaign's per-cell traces.
#[derive(Default)]
struct EngineCounts {
    bytes: u64,
    dropped: u64,
    /// Keys of the cells whose trace ring overflowed.
    truncated: Vec<String>,
    /// The remaining counts cover complete traces only.
    epochs: u64,
    strides: u64,
    mbind_calls: u64,
    migrate_events: u64,
    migrated_pages: u64,
    /// Host time of the complete cells, from their `run_cell_for` runs.
    host_ms: f64,
}

/// Count engine events in the trace of each executed class. A truncated
/// trace has lost its oldest events, so its counts would undercount: such
/// cells are named and left out of every count, host time included.
fn scan_traces(report: &CampaignReport, runs: &[ClassRun]) -> Result<EngineCounts, String> {
    let mut e = EngineCounts::default();
    for run in runs.iter().filter(|r| r.outcome.is_ok()) {
        let rec = &report.cells[run.cell];
        let Some(path) = &rec.trace_path else {
            return Err(format!("cell {} wrote no trace", rec.key));
        };
        let text = std::fs::read_to_string(Path::new(path))
            .map_err(|err| format!("trace {path}: {err}"))?;
        e.bytes += text.len() as u64;
        let doc = Json::parse(&text).map_err(|err| format!("trace {path}: {err}"))?;
        drop(text);
        let dropped = doc
            .get("otherData")
            .and_then(|o| o.get("dropped_events"))
            .and_then(|d| d.as_str().and_then(|s| s.parse().ok()).or(d.as_f64().map(|f| f as u64)))
            .ok_or_else(|| format!("trace {path}: no otherData.dropped_events"))?;
        if dropped > 0 {
            e.dropped += dropped;
            e.truncated.push(rec.key.clone());
            continue;
        }
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("trace {path}: no traceEvents array"))?;
        for ev in events {
            let name = ev.get("name").and_then(Json::as_str).unwrap_or("");
            let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("");
            match (name, ph) {
                ("epoch", "B") => e.epochs += 1,
                ("stride", "B") => e.strides += 1,
                ("mbind", "i") => e.mbind_calls += 1,
                ("migrate", "i") => {
                    e.migrate_events += 1;
                    e.migrated_pages += ev
                        .get("args")
                        .and_then(|a| a.get("pages"))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0) as u64;
                }
                _ => {}
            }
        }
        e.host_ms += run.host_ms;
    }
    Ok(e)
}

/// numasim, driven directly: first-touch spawn of the workload's
/// heaviest application on its machine, a weighted mbind of every
/// segment to the canonical BWAP weights, `step()` while the moves
/// drain, then `step()` with nothing pending.
fn sim_loop(spec: &CampaignSpec, out: &mut Values) -> Result<(), String> {
    let machine = &spec.machine;
    let k = spec
        .worker_counts
        .iter()
        .copied()
        .filter(|&k| k >= 1 && k <= machine.worker_node_count())
        .max()
        .unwrap_or(1);
    let workers = machine.best_worker_set(k);
    let threads: u64 = workers.to_vec().iter().map(|&n| u64::from(machine.node(n).cores)).sum();
    let profile = spec
        .workloads
        .iter()
        .map(|w| w.profile_for(machine))
        .max_by_key(|p| p.shared_pages + p.private_pages_per_thread * threads)
        .ok_or("workload catalog is empty")?;
    let weights = canonical_weights_on(machine, workers).map_err(|e| e.to_string())?;
    let policy = MemPolicy::WeightedInterleave(weights.as_slice().to_vec());

    let (mut spawn, mut mbind, mut drain, mut steady) = (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    while spawn.is_empty()
        || ((drain.len() < STEP_SAMPLES || steady.len() < STEP_SAMPLES)
            && start.elapsed() < SIM_LOOP_BUDGET)
    {
        let mut sim = Simulator::new(machine.clone(), spec.sim_cfg.clone());
        let t = Instant::now();
        let pid = sim
            .spawn(profile.clone(), workers, None, MemPolicy::FirstTouch)
            .map_err(|e| e.to_string())?;
        spawn.push(ms(t));
        let t = Instant::now();
        sim.apply_policy_all_segments(pid, &policy, true).map_err(|e| e.to_string())?;
        mbind.push(ms(t));
        while sim.pending_migrations(pid) > 0 && start.elapsed() < SIM_LOOP_BUDGET {
            let t = Instant::now();
            sim.step();
            drain.push(ms(t) * 1e3);
        }
        while steady.len() < STEP_SAMPLES
            && sim.process(pid).is_ok_and(|p| p.is_running())
            && start.elapsed() < SIM_LOOP_BUDGET
        {
            let t = Instant::now();
            sim.step();
            steady.push(ms(t) * 1e3);
        }
    }
    println!(
        "numasim loop: {} on {} ({k} workers), {} spawns",
        profile.name,
        machine.name(),
        spawn.len()
    );
    out.set("numasim.spawn_ms", median(&spawn));
    out.set("numasim.mbind_ms", median(&mbind));
    for (xs, [p50, p99, n]) in [
        (
            &drain,
            [
                "numasim.step_us.drain.p50",
                "numasim.step_us.drain.p99",
                "numasim.step_us.drain.samples",
            ],
        ),
        (
            &steady,
            [
                "numasim.step_us.steady.p50",
                "numasim.step_us.steady.p99",
                "numasim.step_us.steady.samples",
            ],
        ),
    ] {
        out.set(p50, median(xs));
        out.set(n, xs.len() as f64);
        match tail(xs, 99.0) {
            Some((99.0, v)) => out.set(p99, v),
            Some((q, v)) => {
                println!(
                    "note: {p99} reports p{q}: {} samples leave fewer than ten beyond p99",
                    xs.len()
                );
                out.set(p99, v);
            }
            None => {
                println!("note: {p99} reports the maximum of only {} samples", xs.len());
                out.set(p99, percentile(xs, 100.0));
            }
        }
    }
    Ok(())
}

/// runtime.campaign.cache: store every class outcome into a fresh cache,
/// load each back, then check that a campaign over the warm cache
/// executes nothing and reports the same bytes.
fn cache_pass(
    spec: &CampaignSpec,
    descs: &[bwap::CellDescriptor],
    runs: &[ClassRun],
    expect: &Expect,
    tally: &mut Tally,
    out: &mut Values,
) -> Result<(), String> {
    let dir = TempDir::new("cache").map_err(|e| format!("temporary directory: {e}"))?;
    let cache = CellCache::open(dir.path()).ok_or("cannot open the cell cache")?;
    let t = Instant::now();
    for r in runs {
        cache.store(&descs[r.cell], &r.outcome);
    }
    out.set("cache.store_ms", ms(t));
    let t = Instant::now();
    let hits = runs.iter().filter(|r| cache.load(&descs[r.cell]).is_some()).count();
    out.set("cache.load_ms", ms(t));
    out.set("cache.hit_frac", hits as f64 / runs.len().max(1) as f64);
    let bytes: u64 = std::fs::read_dir(dir.path())
        .map_err(|e| format!("cache directory: {e}"))?
        .filter_map(|e| e.ok()?.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum();
    out.set("cache.bytes", bytes as f64);

    let mut cfg = campaign_config(THREADS, None);
    cfg.cache_dir = Some(dir.path().to_path_buf());
    let warm = run_campaign_with(spec, &cfg);
    match warm.executed_cells {
        0 => tally.add("warm-cache run", &warm, expect),
        n => tally.reject(&format!("warm-cache run executed {n} cells, expected 0"), &warm),
    }
    Ok(())
}

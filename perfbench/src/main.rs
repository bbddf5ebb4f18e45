//! Benchmark of the BWAP simulator and campaign system.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a full-scale canned campaign from
//! `bwap_bench::experiments`, seeded through `CampaignSpec::seed` and run
//! on two executor threads with the cell cache off. `--trace 0` measures
//! the end-to-end metrics; `--trace 1` measures the per-layer ones by
//! timing calls into each layer's public functions. Every campaign run's
//! deterministic report is checked. Human-readable lines go first; the
//! last line of standard output is the JSON result. See `README.md`.

mod check;
mod layers;
mod metrics;
mod stats;

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use bwap_bench::experiments;
use bwap_runtime::campaign::CellSpec;
use bwap_runtime::{
    poisson_jobs, run_campaign_with, CampaignConfig, CampaignReport, CampaignSpec, FleetJob,
    ScenarioKind,
};

use check::{Expect, Tally};
use metrics::Values;

/// Executor threads for every measured campaign: one per core of the
/// two-core machine the benchmark was sized on.
const THREADS: usize = 2;

/// Set-up repetitions after each measured campaign run. `setup_s` is the
/// median of all of them: spreading them over the run exposes them to the
/// same host conditions as the campaigns, where one burst of repetitions
/// at start-up would catch a single fast or slow moment.
const SETUP_BATCH: usize = 25;

/// Fewest measured campaign runs, however short `--seconds` is.
const MIN_RUNS: usize = 3;

/// One benchmark workload.
struct Workload {
    name: &'static str,
    spec: fn() -> CampaignSpec,
    /// FNV-1a-64 of `deterministic_json()` at the spec's own seed.
    digest: u64,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "tiered_capacity",
        spec: || experiments::fig_tiered_spec(false),
        digest: 0x3b8f_feab_d6ca_864d,
    },
    Workload {
        name: "dwp_grid",
        spec: || experiments::fig4_spec(false),
        digest: 0x52fe_ed2b_a182_a7c6,
    },
    Workload {
        name: "fleet_arrivals",
        spec: || experiments::fig_fleet_spec(false),
        digest: 0x6480_e654_c590_e067,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(WORKLOADS.iter().find(|w| w.name == value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| bad("expected a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Everything a campaign needs before its first cell: the spec, which
/// builds the machine topology and the workload catalog, and the arrival
/// stream of every fleet cell. The campaign draws the streams again
/// itself; they are timed here because a user pays for them before the
/// first cell runs.
fn setup(w: &Workload, seed: u64) -> CampaignSpec {
    let spec = (w.spec)().seed(seed);
    black_box(arrival_streams(&spec, &spec.cells()));
    spec
}

/// The open-loop arrival stream of each fleet cell, drawn exactly as the
/// campaign draws it.
pub fn arrival_streams(spec: &CampaignSpec, cells: &[CellSpec]) -> Vec<Vec<FleetJob>> {
    let Some(axis) = &spec.fleet else { return Vec::new() };
    cells
        .iter()
        .filter(|c| c.scenario == ScenarioKind::Fleet)
        .map(|c| poisson_jobs(c.seed, c.arrival_rate.unwrap_or(0.0), axis.jobs, &spec.workloads))
        .collect()
}

/// Time [`SETUP_BATCH`] set-ups into `times`.
fn time_setups(w: &Workload, seed: u64, times: &mut Vec<f64>) {
    for _ in 0..SETUP_BATCH {
        let t = Instant::now();
        black_box(setup(w, black_box(seed)));
        times.push(t.elapsed().as_secs_f64());
    }
}

/// The campaign configuration every measured run uses: two threads,
/// dedup on, cache off — `run_campaign`'s defaults at two cores.
pub fn campaign_config(threads: usize, trace_dir: Option<PathBuf>) -> CampaignConfig {
    CampaignConfig { threads: Some(threads), trace_dir, ..CampaignConfig::default() }
}

/// Simulated seconds a campaign executed: `exec_time_s` summed over the
/// cells that ran, one per dedup class (members of a class share their
/// representative's run).
pub fn simulated_seconds(report: &CampaignReport) -> f64 {
    let mut seen = std::collections::HashSet::new();
    report
        .ok_results()
        .filter(|(c, _)| c.dedup_class.as_ref().is_none_or(|k| seen.insert(k.clone())))
        .map(|(_, r)| r.exec_time_s)
        .sum()
}

/// A scratch directory under the working directory, removed on drop.
pub struct TempDir(PathBuf);

const TEMP_ROOT: &str = ".perfbench_tmp";

impl TempDir {
    pub fn new(label: &str) -> std::io::Result<TempDir> {
        let dir = Path::new(TEMP_ROOT).join(format!("{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other invocation still uses the root.
        let _ = std::fs::remove_dir(TEMP_ROOT);
    }
}

/// Peak resident set size of this process so far, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// End-to-end run: time whole campaigns for `seconds`, then check the
/// reports of one single-threaded and one traced run of the same seed.
fn end_to_end(
    args: &Args,
    spec: &CampaignSpec,
    expect: &Expect,
    tally: &mut Tally,
    out: &mut Values,
) -> Result<(), String> {
    let cfg = campaign_config(THREADS, None);
    let deadline = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut sim_s = 0.0;
    while walls.len() < MIN_RUNS || start.elapsed() < deadline {
        let t = Instant::now();
        let report = run_campaign_with(spec, &cfg);
        walls.push(t.elapsed().as_secs_f64());
        tally.add(&format!("run {}", walls.len()), &report, expect);
        sim_s = simulated_seconds(&report);
        time_setups(args.workload, args.seed, &mut setups);
    }
    let rss = peak_rss_mb()?;
    let campaign_s = stats::median(&walls);
    println!(
        "campaign_s: median of {} runs, quartiles {:.4} .. {:.4} s",
        walls.len(),
        stats::percentile(&walls, 25.0),
        stats::percentile(&walls, 75.0)
    );
    out.set("campaign_s", campaign_s);
    out.set("setup_s", stats::median(&setups));
    out.set("sim_rate", sim_s / campaign_s);
    out.set("peak_rss_mb", rss);

    // Neither the thread count nor tracing may change a report. At the
    // default seed the pinned digest already says so.
    if let Expect::SameAs(_) = expect {
        let one = run_campaign_with(spec, &campaign_config(1, None));
        tally.add("1-thread run", &one, expect);
        let dir = TempDir::new("e2e-trace").map_err(|e| format!("temporary directory: {e}"))?;
        let traced = run_campaign_with(spec, &campaign_config(THREADS, Some(dir.path().into())));
        tally.add("traced run", &traced, expect);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let spec = &setup(w, args.seed);
    let default_seed = (w.spec)().seed;
    let mut tally = Tally::default();
    // The first run warms up and, at seeds without a pinned digest, is the
    // reference every later run must reproduce byte for byte.
    let first = run_campaign_with(spec, &campaign_config(THREADS, None));
    let expect = if args.seed == default_seed {
        Expect::Digest(w.digest)
    } else {
        Expect::SameAs(first.deterministic_json())
    };
    tally.add("first run", &first, &expect);
    println!(
        "workload {} seed {} ({}): {} cells, {THREADS} threads of {} cores, trace {}",
        w.name,
        args.seed,
        if matches!(expect, Expect::Digest(_)) { "pinned digest" } else { "self-consistency" },
        spec.cells().len(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        u8::from(args.trace),
    );

    let mut out = Values::default();
    let vocabulary: &[_] = if args.trace {
        layers::measure(spec, args.seconds, &expect, &mut tally, &mut out)?;
        &metrics::PER_LAYER
    } else {
        end_to_end(args, spec, &expect, &mut tally, &mut out)?;
        &metrics::END_TO_END
    };

    for m in &tally.mismatches {
        println!("MISMATCH {m}");
    }
    let correct = tally.failed == 0 && tally.attempted > 0;
    let line = out.result_line(vocabulary, correct, tally.attempted, tally.failed)?;
    for (name, unit) in vocabulary {
        if let Some(v) = out.get(name) {
            println!("{name:<32} {v:>14.6} {unit}");
        }
    }
    println!(
        "{:<32} {:>14.6} fraction ({} of {} cells)",
        "failed_frac",
        tally.failed_frac(),
        tally.failed,
        tally.attempted
    );
    println!("{line}");
    Ok(())
}

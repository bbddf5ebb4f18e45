//! Output checks: every campaign run's deterministic report must match
//! what the workload is known to produce, or every cell of that run
//! counts as failed.

use bwap_runtime::CampaignReport;

/// FNV-1a, 64-bit, over `bytes`: the digest pinned per workload.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// What a run's `deterministic_json()` must be.
pub enum Expect {
    /// The digest pinned for the workload's default seed.
    Digest(u64),
    /// Byte-identical to a reference report of the same seed (at seeds
    /// without a pinned digest, the first measured run).
    SameAs(String),
}

impl Expect {
    fn matches(&self, json: &str) -> bool {
        match self {
            Expect::Digest(d) => fnv1a64(json.as_bytes()) == *d,
            Expect::SameAs(reference) => json == reference,
        }
    }
}

/// Cells attempted and failed over every campaign run of a benchmark
/// invocation, plus a note per run that did not match.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
}

impl Tally {
    /// Account one campaign run. A cell fails when its outcome is `Err`
    /// (which covers cells that panicked); when the report does not match
    /// `expect`, every cell of the run fails.
    pub fn add(&mut self, label: &str, report: &CampaignReport, expect: &Expect) {
        let cells = report.cells.len() as u64;
        self.attempted += cells;
        let json = report.deterministic_json();
        if expect.matches(&json) {
            self.failed += report.cells.iter().filter(|c| c.outcome.is_err()).count() as u64;
        } else {
            self.failed += cells;
            self.mismatches.push(format!(
                "{label}: deterministic report differs (fnv1a64 {:016x})",
                fnv1a64(json.as_bytes())
            ));
        }
    }

    /// Account a campaign run that failed a check of its own: every cell
    /// fails.
    pub fn reject(&mut self, why: &str, report: &CampaignReport) {
        self.attempted += report.cells.len() as u64;
        self.failed += report.cells.len() as u64;
        self.mismatches.push(why.to_string());
    }

    /// Account cells run one at a time outside a campaign.
    pub fn add_cells(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwap_runtime::{CampaignReport, CellRecord, RunResult, ScenarioKind};

    #[test]
    fn fnv1a64_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    fn cell(id: usize, exec_time_s: f64) -> CellRecord {
        CellRecord {
            id,
            key: format!("w{id}"),
            workload: "SC".into(),
            policy: "bwap".into(),
            scenario: ScenarioKind::Standalone,
            workers: 1,
            static_dwp: None,
            phase_period: None,
            scheduler: None,
            arrival_rate_hz: None,
            seed: 0,
            outcome: Ok(RunResult {
                policy: "bwap".into(),
                workload: "SC".into(),
                workers: 1,
                exec_time_s,
                chosen_dwp: None,
                migrated_pages: 0,
                stall_frac: 0.25,
                a_stall_frac: None,
                read_bytes: 1e9,
                traffic_bytes: 2e9,
                retunes: None,
                retune_times_s: None,
                phase_switches: None,
                jobs: None,
                job_slowdowns: None,
                slowdown_p50: None,
                slowdown_p95: None,
                slowdown_p99: None,
            }),
            trace_path: None,
            dedup_class: None,
            cache_hit: false,
        }
    }

    fn report() -> CampaignReport {
        CampaignReport {
            schema_version: bwap_runtime::campaign::SCHEMA_VERSION,
            campaign: "t".into(),
            machine: "machine-a".into(),
            seed: 0,
            threads: 2,
            wall_time_s: 0.5,
            engine_mode: None,
            executed_cells: 3,
            journal_errors: 0,
            bw_matrix: None,
            node_tiers: None,
            cells: (0..3).map(|i| cell(i, 10.0 + i as f64)).collect(),
        }
    }

    #[test]
    fn matching_report_fails_only_error_cells() {
        let mut r = report();
        let pinned = Expect::Digest(fnv1a64(r.deterministic_json().as_bytes()));
        let mut t = Tally::default();
        t.add("clean", &r, &pinned);
        assert_eq!((t.attempted, t.failed), (3, 0));
        assert_eq!(t.failed_frac(), 0.0);

        // Volatile fields are outside the digest.
        r.wall_time_s = 9.0;
        r.threads = 1;
        t.add("volatile", &r, &pinned);
        assert_eq!((t.attempted, t.failed), (6, 0));
        assert!(t.mismatches.is_empty());
    }

    #[test]
    fn tampered_report_fails_every_cell() {
        let clean = report();
        let digest = Expect::Digest(fnv1a64(clean.deterministic_json().as_bytes()));
        let same = Expect::SameAs(clean.deterministic_json());
        let mut tampered = report();
        if let Ok(r) = &mut tampered.cells[1].outcome {
            r.exec_time_s += 1e-9;
        }
        for expect in [&digest, &same] {
            let mut t = Tally::default();
            t.add("clean", &clean, expect);
            t.add("tampered", &tampered, expect);
            assert_eq!((t.attempted, t.failed), (6, 3));
            assert_eq!(t.failed_frac(), 0.5);
            assert_eq!(t.mismatches.len(), 1);
            assert!(t.mismatches[0].starts_with("tampered:"));
        }
    }

    #[test]
    fn error_cells_count_as_failed() {
        let mut r = report();
        r.cells[2].outcome = Err("cell panicked: boom".into());
        let mut t = Tally::default();
        t.add("err", &r, &Expect::SameAs(r.deterministic_json()));
        assert_eq!((t.attempted, t.failed), (3, 1));
        t.add_cells(4, 1);
        assert_eq!((t.attempted, t.failed), (7, 2));
    }
}

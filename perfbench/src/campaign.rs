//! `campaign`: the batch engine on a grid of a few hundred short jobs.
//!
//! The grid crosses the 11 suite benchmarks plus `gen:<seed>` programs
//! drawn from the workload seed with the contended and clustered
//! machines, elimination off / cfi / oracle, and a threshold axis (so
//! canonical dedup fires). A round splits it by target into campaigns of
//! [`TARGETS_PER_PART`] target each, and each campaign is one job:
//! `run_campaign` with the default flush and fixture settings (so fsync
//! durability stays on), followed by a `run_campaign_report` read-back of
//! the store it wrote. Dedup and fixture reuse only ever act within one
//! target, so the split leaves every job and count of the whole grid
//! unchanged; it makes each timed piece short (see `run::Outcome::round_estimate`).
//!
//! Campaigns run at `--jobs 1`, the engine's inline path. At `--jobs 2`
//! on a 2-vCPU shared host, a piece is fast only when both vCPUs are
//! quiet at once: over 14-second windows of a minute-long run the
//! host-time estimate ranged 42%, against 13% at `--jobs 1`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use dide::{
    expand_grid, run_campaign, run_campaign_report, suite, CampaignGrid, CampaignOptions, Elim,
    Machine, OptLevel, ReportOptions, WorkloadSpec,
};
use dide_emu::Emulator;

use crate::round::{geomean, guarded, splitmix, Round};
use crate::trace::Tracer;

/// Worker threads of every campaign run (see the module docs).
pub const JOBS: usize = 1;

/// The record fields the read-back sums per job, in report column order.
const REPORT_METRICS: [&str; 11] = [
    "pipeline.cycles",
    "pipeline.committed",
    "emu.total",
    "violations",
    "pipeline.dead_predicted",
    "pipeline.dead_violations",
    "pipeline.steer.dead",
    "pipeline.steer.squashed",
    "pipeline.mem.l1d.accesses",
    "pipeline.mem.l1d.misses",
    "pipeline.savings.dcache_accesses_saved",
];

/// The fields a report row is grouped by; one unique job per group.
const GROUP_BY: [&str; 4] = ["benchmark", "machine", "elim", "threshold"];

/// Grid shape.
#[derive(Debug, Clone)]
pub struct Config {
    /// Named suite benchmarks.
    pub benchmarks: Vec<&'static str>,
    /// How many `gen:<seed>` programs to draw from the workload seed.
    pub generated: usize,
    /// CFI threshold axis.
    pub thresholds: Vec<u32>,
}

impl Config {
    /// The benchmark's `campaign` workload.
    pub fn full() -> Config {
        Config {
            benchmarks: suite().iter().map(|s| s.name).collect(),
            generated: 4,
            thresholds: vec![4, 8, 12],
        }
    }
}

/// Targets (named benchmarks and `gen:` programs) per campaign of a round.
pub const TARGETS_PER_PART: usize = 1;

/// One campaign of a round: the grid restricted to a few targets.
struct Part {
    grid: CampaignGrid,
    store: PathBuf,
    /// Unique jobs and total grid points of the part's expanded grid.
    expected: (u64, u64),
}

/// Built inputs of the `campaign` workload.
pub struct Campaign {
    parts: Vec<Part>,
}

static STORES: AtomicU64 = AtomicU64::new(0);

fn store_path(dir: &Path) -> PathBuf {
    let n = STORES.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("campaign-{}-{n}.jsonl", std::process::id()))
}

fn remove_store(path: &Path) {
    let _ = std::fs::remove_file(path);
    let mut cursor = path.as_os_str().to_owned();
    cursor.push(".cursor");
    let _ = std::fs::remove_file(cursor);
}

impl Drop for Campaign {
    fn drop(&mut self) {
        for part in &self.parts {
            remove_store(&part.store);
        }
    }
}

fn options(grid: CampaignGrid, out: PathBuf) -> CampaignOptions {
    CampaignOptions { grid, out, jobs: JOBS, ..CampaignOptions::default() }
}

/// Draws the `gen:` seeds (keeping those whose program builds and runs to
/// `halt`) and expands the grid, one campaign per [`TARGETS_PER_PART`]
/// targets.
pub fn setup(config: &Config, seed: u64, dir: &Path, t: &mut Tracer) -> Result<Campaign, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut state = seed;
    let mut seeds = Vec::new();
    for job in 0..(64 * config.generated.max(1)) as u64 {
        if seeds.len() == config.generated {
            break;
        }
        let candidate = splitmix(&mut state);
        let program = t.span("workloads.build", job, |_| {
            WorkloadSpec::generated(candidate).build(OptLevel::O2, 1)
        });
        if Emulator::new(&program).run().is_ok() && !seeds.contains(&candidate) {
            seeds.push(candidate);
        }
    }
    if seeds.len() < config.generated {
        return Err(format!(
            "seed {seed}: fewer than {} generated programs halt",
            config.generated
        ));
    }
    let grid = CampaignGrid {
        benchmarks: Vec::new(),
        seeds: Vec::new(),
        opts: vec![OptLevel::O2],
        scales: vec![1],
        machines: vec![Machine::Contended, Machine::Clustered],
        elims: vec![Elim::Off, Elim::Cfi, Elim::Oracle],
        thresholds: config.thresholds.clone(),
        penalties: vec![dide_pipeline::DeadElimConfig::default().violation_penalty],
    };
    let targets: Vec<(Option<&str>, Option<u64>)> = config
        .benchmarks
        .iter()
        .map(|b| (Some(*b), None))
        .chain(seeds.iter().map(|s| (None, Some(*s))))
        .collect();
    let mut parts = Vec::new();
    for chunk in targets.chunks(TARGETS_PER_PART) {
        let grid = CampaignGrid {
            benchmarks: chunk.iter().filter_map(|(b, _)| b.map(str::to_string)).collect(),
            seeds: chunk.iter().filter_map(|(_, s)| *s).collect(),
            ..grid.clone()
        };
        let expanded = expand_grid(&grid)?;
        let unique = expanded.jobs.len() as u64;
        let store = store_path(dir);
        parts.push(Part { grid, store, expected: (unique, unique + expanded.deduped) });
    }
    Ok(Campaign { parts })
}

/// One report row: the group key and the summed record fields.
struct Row {
    benchmark: String,
    machine: String,
    elim: String,
    threshold: String,
    records: u64,
    values: [u64; REPORT_METRICS.len()],
}

impl Row {
    fn get(&self, metric: &str) -> u64 {
        let i = REPORT_METRICS.iter().position(|m| *m == metric).expect("metric is read back");
        self.values[i]
    }
}

/// Parses `run_campaign_report`'s output: the record count from the title
/// line, then one row per group.
fn parse_report(text: &str) -> Result<(u64, Vec<Row>), String> {
    let mut lines = text.lines();
    let title = lines.next().ok_or("empty report")?;
    let records = title
        .split(" record(s)")
        .next()
        .and_then(|head| head.rsplit('(').next())
        .and_then(|n| n.parse::<u64>().ok())
        .ok_or_else(|| format!("no record count in `{title}`"))?;
    let mut rows = Vec::new();
    for line in lines.skip(2) {
        let cells: Vec<&str> = line.split_whitespace().collect();
        if cells.len() != GROUP_BY.len() + 1 + REPORT_METRICS.len() {
            return Err(format!("malformed report row `{line}`"));
        }
        let number =
            |cell: &str| cell.parse::<u64>().map_err(|_| format!("non-numeric cell `{cell}`"));
        let mut values = [0u64; REPORT_METRICS.len()];
        for (slot, cell) in values.iter_mut().zip(&cells[GROUP_BY.len() + 1..]) {
            *slot = number(cell)?;
        }
        rows.push(Row {
            benchmark: cells[0].to_string(),
            machine: cells[1].to_string(),
            elim: cells[2].to_string(),
            threshold: cells[3].to_string(),
            records: number(cells[4])?,
            values,
        });
    }
    Ok((records, rows))
}

/// Contended-machine cycles per benchmark, elimination off and CFI at
/// the default threshold, for `elim_speedup`.
#[derive(Default)]
struct Cycles {
    off: BTreeMap<String, u64>,
    cfi: BTreeMap<String, u64>,
}

impl Campaign {
    /// Unique jobs and total grid points over every part.
    pub fn expected(&self) -> (u64, u64) {
        self.parts.iter().fold((0, 0), |(u, n), p| (u + p.expected.0, n + p.expected.1))
    }

    /// One campaign run and its read-back per part, each its own job.
    pub fn round(&self, t: &mut Tracer) -> Round {
        let mut round = Round { attempted: self.expected().0, ..Round::default() };
        let mut cycles = Cycles::default();
        t.span("round", 0, |t| {
            for (index, part) in self.parts.iter().enumerate() {
                let job = index as u64;
                round.job(t, job, |round, t| {
                    let ran = guarded(t, |t| {
                        let run = t.span("campaign.run", job, |_| {
                            run_campaign(&options(part.grid.clone(), part.store.clone()))
                        })?;
                        let report = ReportOptions {
                            store: part.store.clone(),
                            wheres: Vec::new(),
                            group_by: GROUP_BY.iter().map(|s| (*s).to_string()).collect(),
                            metrics: REPORT_METRICS.iter().map(|s| (*s).to_string()).collect(),
                        };
                        let text = t.span("store.report", job, |_| run_campaign_report(&report))?;
                        Ok((run, text))
                    });
                    match ran {
                        Ok((run, text)) => part.check(round, &run, &text, &mut cycles),
                        Err(e) => round.fail(part.expected.0, format!("campaign {job}: {e}")),
                    }
                });
            }
        });
        let speedups: Vec<f64> = cycles
            .off
            .iter()
            .filter_map(|(bench, &base)| {
                cycles.cfi.get(bench).filter(|&&c| c > 0).map(|&c| base as f64 / c as f64)
            })
            .collect();
        round.elim_speedup = geomean(&speedups);
        round
    }
}

impl Part {
    fn check(&self, round: &mut Round, run: &dide::CampaignRun, text: &str, cycles: &mut Cycles) {
        let (unique, total) = self.expected;
        if let Some(v) = run.violations.first() {
            return round.fail(unique, format!("campaign rule violated: {v}"));
        }
        let counter = |name: &str| run.counters.get(name).unwrap_or(0);
        if counter("campaign.jobs_unique") != unique || counter("campaign.jobs_total") != total {
            return round.fail(unique, "campaign grid differs from the expanded grid".to_string());
        }
        let (records, rows) = match parse_report(text) {
            Ok(parsed) => parsed,
            Err(e) => return round.fail(unique, format!("report: {e}")),
        };
        if records != unique {
            return round.fail(unique, format!("read back {records} records, expected {unique}"));
        }
        for name in [
            "campaign.jobs_unique",
            "campaign.jobs_total",
            "campaign.jobs_deduped",
            "fixture.hits",
            "fixture.misses",
        ] {
            round.add(name, counter(name));
        }
        round.add("store.records", records);
        round.add("store.bytes", std::fs::metadata(&self.store).map_or(0, |m| m.len()));

        let default_threshold = dide_predictor::dead::CfiConfig::default().threshold.to_string();
        for row in &rows {
            let job = format!("{}|{}|{}|t{}", row.benchmark, row.machine, row.elim, row.threshold);
            if row.records != 1 || row.get("violations") != 0 {
                round.fail(
                    1,
                    format!(
                        "{job}: {} record(s), {} violation(s)",
                        row.records,
                        row.get("violations")
                    ),
                );
                continue;
            }
            if row.get("pipeline.committed") != row.get("emu.total") {
                round.fail(
                    1,
                    format!(
                        "{job}: committed {} != emulated {}",
                        row.get("pipeline.committed"),
                        row.get("emu.total")
                    ),
                );
                continue;
            }
            let clustered = row.machine == Machine::Clustered.label();
            let row_cycles = row.get("pipeline.cycles");
            round.add(
                if clustered { "pipeline.clustered.cycles" } else { "pipeline.unified.cycles" },
                row_cycles,
            );
            round.add("pipeline.cycles", row_cycles);
            round.add("pipeline.committed", row.get("pipeline.committed"));
            round.add("pipeline.eliminated", row.get("pipeline.dead_predicted"));
            round.add("pipeline.violations", row.get("pipeline.dead_violations"));
            round.add(
                "pipeline.clustered.steered_dead",
                row.get("pipeline.steer.dead") + row.get("pipeline.steer.squashed"),
            );
            round.add("mem.dcache.accesses", row.get("pipeline.mem.l1d.accesses"));
            round.add("mem.dcache.misses", row.get("pipeline.mem.l1d.misses"));
            round.add(
                "mem.dcache.accesses_saved",
                row.get("pipeline.savings.dcache_accesses_saved"),
            );
            round.sim_insts += row.get("pipeline.committed");
            if row.machine == Machine::Contended.label() {
                if row.elim == Elim::Off.label() {
                    cycles.off.insert(row.benchmark.clone(), row_cycles);
                } else if row.elim == Elim::Cfi.label() && row.threshold == default_threshold {
                    cycles.cfi.insert(row.benchmark.clone(), row_cycles);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> Config {
        Config { benchmarks: vec!["expr", "netflow"], generated: 2, thresholds: vec![8, 12] }
    }

    fn dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join("test")
    }

    #[test]
    fn full_grid_has_a_few_hundred_points_and_dedups() {
        let mut t = Tracer::new(false);
        let c =
            setup(&Config { thresholds: vec![4, 8, 12], ..smoke() }, 3, &dir(), &mut t).unwrap();
        // 4 targets x 2 machines x (1 off + 3 cfi + 1 oracle) unique, of 4 x 2 x 3 x 3 points.
        assert_eq!(c.expected(), (40, 72));
        let full = Config::full();
        assert_eq!((full.benchmarks.len() + full.generated) * 2 * 5, 150);
    }

    #[test]
    fn rounds_repeat_exactly_and_seeds_only_move_gen_counts() {
        let mut t = Tracer::new(true);
        let a = setup(&smoke(), 11, &dir(), &mut t).unwrap();
        let from = t.mark();
        let (r1, r2) = (a.round(&mut t), a.round(&mut t));
        assert_eq!((r1.attempted, r1.failed), (32, 0), "{:?}", r1.errors);
        assert_eq!(r1.counts, r2.counts);
        assert_eq!(r1.elim_speedup, r2.elim_speedup);
        assert_eq!(r1.count("store.records"), r1.count("campaign.jobs_unique"));
        assert_eq!(r1.count("fixture.misses"), 4);
        let names: Vec<&str> = t.spans()[from..].iter().map(|s| s.name).collect();
        // One campaign per part, two rounds.
        let parts = 4usize.div_ceil(TARGETS_PER_PART);
        assert_eq!(a.parts.len(), parts);
        assert_eq!(names.iter().filter(|n| **n == "campaign.run").count(), 2 * parts);
        assert_eq!(names.iter().filter(|n| **n == "store.report").count(), 2 * parts);

        let b = setup(&smoke(), 12, &dir(), &mut t).unwrap();
        let r3 = b.round(&mut t);
        for name in [
            "campaign.jobs_unique",
            "campaign.jobs_total",
            "campaign.jobs_deduped",
            "fixture.misses",
        ] {
            assert_eq!(r1.count(name), r3.count(name), "{name}");
        }
    }

    #[test]
    fn report_rows_parse() {
        let text = "== campaign report: x.jsonl (2 record(s), 2 matched) ==\n\
                    benchmark  machine  elim  threshold  records  a  b  c  d  e  f  g  h  i  j  k\n\
                    ---\n\
                    expr  contended  off  12  1  10  9  9  0  0  0  0  0  5  1  0\n";
        let (records, rows) = parse_report(text).unwrap();
        assert_eq!(records, 2);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("pipeline.cycles"), 10);
        assert_eq!(rows[0].get("pipeline.mem.l1d.misses"), 1);
    }
}

//! The `dide bench` runner: a tracked performance harness over the
//! benchmark suite.
//!
//! Runs the four pipeline phases (build → trace → analyze → simulate) for
//! every benchmark at the requested scales, bypassing the fixture cache so
//! each phase is actually re-executed and timed, and renders the result as
//! a machine-readable `BENCH.json`. CI runs `dide bench --quick
//! --check-against BENCH.json` as a smoke stage: the simulate phase is
//! compared against the committed baseline ([`check_regression`]) and the
//! report is archived; comparing two `BENCH.json` files from different
//! commits is how analyze/trace-phase regressions are caught (see
//! `TESTING.md`).
//!
//! The JSON is hand-rolled: the build environment has no serde, and the
//! schema is small and flat. Key order is fixed so diffs are stable.

use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dide_analysis::DeadnessAnalysis;
use dide_emu::{DynInst, TraceStream};
use dide_obs::{EventTrace, EventsConfig};
use dide_pipeline::{ClusterConfig, Core, PipelineConfig, SteerPolicy};
use dide_workloads::{suite, OptLevel, WorkloadSpec};

use crate::campaign::{measure_campaign_throughput, CampaignThroughput};
use crate::harness::{self, Phase};
use crate::statsrun::DEFAULT_EPOCH_LEN;
use crate::{BenchCase, Table};

/// Schema identifier written into `BENCH.json`; bump on layout changes.
/// v2 added the `stream` block (bounded-memory streamed runs with their
/// `mem_peak_bytes` accounting); v3 added the `campaign` block (batch
/// engine throughput, dedup rate and fixture-cache accounting); v4 added
/// the `cluster` block (clustered-backend reference point: host overhead
/// of the clustered scheduling loop plus exact-gated cycle counts,
/// DESIGN.md §11).
pub const BENCH_SCHEMA: &str = "dide-bench/v4";

/// Benchmarks used by `--quick` (CI smoke): small but covering the three
/// workload families (expression-heavy, store-heavy, pointer-chasing) plus
/// one externally assembled `.asm` workload.
const QUICK_SUITE: [&str; 4] = ["expr", "objstore", "route", "prime"];

/// `(benchmark, scale)` streamed-mode enrollments for the full run. The
/// scale-16 entries produce multi-million-record traces the materializing
/// path would hold fully resident (tens of MB); matmul at scale 64 runs a
/// long `.asm` kernel (256 rounds) through the same path.
const STREAM_SUITE: [(&str, u32); 4] = [("expr", 4), ("expr", 16), ("route", 16), ("matmul", 64)];

/// Streamed enrollments for `--quick`: one small entry so CI still compares
/// `mem_peak_bytes` against the committed baseline on every push.
const QUICK_STREAM_SUITE: [(&str, u32); 1] = [("expr", 4)];

/// Options accepted by [`run_bench`] (the `dide bench` CLI).
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Workload scales to measure. The full run uses `[1, 4]`.
    pub scales: Vec<u32>,
    /// Smoke mode: only the [`QUICK_SUITE`] benchmarks at scale 1.
    pub quick: bool,
    /// Where to write the JSON report.
    pub out: PathBuf,
    /// A committed `BENCH.json` to compare the simulate phase against
    /// (`--check-against`); see [`check_regression`].
    pub check_against: Option<PathBuf>,
    /// `--stream`: skip the materializing four-phase sweep and measure only
    /// the streamed enrollments.
    pub stream_only: bool,
    /// Epoch length for the streamed enrollments (`--epoch`).
    pub epoch: usize,
}

impl Default for BenchOptions {
    fn default() -> BenchOptions {
        BenchOptions {
            scales: vec![1, 4],
            quick: false,
            out: PathBuf::from("BENCH.json"),
            check_against: None,
            stream_only: false,
            epoch: DEFAULT_EPOCH_LEN,
        }
    }
}

/// Simulate-phase slowdown (relative to the baseline file) above which
/// [`check_regression`] fails. Deliberately generous: CI shares one CPU
/// with other jobs and single-shot phase timings jitter by tens of
/// percent, so the gate only catches order-of-magnitude regressions
/// (e.g. an accidentally quadratic pipeline structure), not tuning drift.
const REGRESSION_FACTOR: f64 = 2.0;

/// Absolute slowdown floor: differences under this many milliseconds are
/// never flagged, whatever the ratio — sub-millisecond baselines would
/// otherwise trip on scheduler noise alone. Kept below a single quick-run
/// simulate phase (~8ms), so a genuine 2x regression there still clears
/// the floor.
const REGRESSION_FLOOR_MS: u128 = 5;

/// Peak-memory growth factor above which a streamed enrollment fails the
/// regression check. Unlike wall-clock, `mem_peak_bytes` is deterministic
/// (ring or epoch capacity x record bytes), so any growth is structural — the
/// factor only absorbs intentional epoch retuning, not noise.
const MEM_REGRESSION_FACTOR: f64 = 2.0;

/// One streamed-mode measurement: windowed analysis + streaming pipeline,
/// with the peak retained trace memory both paths would need.
#[derive(Debug, Clone)]
pub struct StreamMeasurement {
    /// Benchmark name.
    pub name: String,
    /// Workload scale.
    pub scale: u32,
    /// Epoch length (records per chunk).
    pub epoch_len: usize,
    /// Dynamic trace length.
    pub trace_len: u64,
    /// Windowed-analysis wall-clock (one emulation pass).
    pub analyze: Duration,
    /// Streaming-pipeline wall-clock (emulation + cycle loop).
    pub simulate: Duration,
    /// Peak trace bytes resident in the stream during the pipeline pass.
    pub mem_peak_bytes: u64,
    /// Bytes the materializing path would hold for the same trace
    /// (`trace_len * size_of::<DynInst>()`).
    pub materialized_bytes: u64,
}

impl StreamMeasurement {
    /// Materialized-over-streamed memory ratio (the headline saving).
    #[must_use]
    pub fn mem_ratio(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        if self.mem_peak_bytes == 0 {
            1.0
        } else {
            self.materialized_bytes as f64 / self.mem_peak_bytes as f64
        }
    }
}

/// Wall-clock of the four phases for one benchmark at one scale.
#[derive(Debug, Clone)]
pub struct BenchMeasurement {
    /// Benchmark name.
    pub name: String,
    /// Optimization level measured (the suite default, O2).
    pub opt: OptLevel,
    /// Workload scale.
    pub scale: u32,
    /// Dynamic trace length, for ns-per-instruction normalization.
    pub trace_len: u64,
    /// Wall-clock per phase, in [`Phase::ALL`] order.
    pub phases: [Duration; 4],
}

impl BenchMeasurement {
    /// Sum of the four phases.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.phases.iter().sum()
    }
}

/// The result of one [`run_bench`] call.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// Every measurement, in (scale, suite) order.
    pub measurements: Vec<BenchMeasurement>,
    /// Streamed-mode measurements, in [`STREAM_SUITE`] order.
    pub streams: Vec<StreamMeasurement>,
    /// Batch-engine throughput over [`crate::campaign::bench_grid`].
    pub campaign: CampaignThroughput,
    /// Event-trace overhead on the fixed reference workload.
    pub events_overhead: EventsOverhead,
    /// Clustered-backend overhead on the fixed reference workload.
    pub cluster: ClusterOverhead,
    /// The `BENCH.json` document.
    pub json: String,
    /// Human-readable summary table (stderr).
    pub report: String,
    /// Baseline comparison, when `--check-against` was given.
    pub regression: Option<RegressionCheck>,
}

/// Outcome of comparing a run's simulate phase against a baseline
/// `BENCH.json` (see [`check_regression`]).
#[derive(Debug, Clone)]
pub struct RegressionCheck {
    /// Per-benchmark comparison lines, for the report.
    pub lines: Vec<String>,
    /// Whether every compared benchmark stayed within the tolerance.
    pub ok: bool,
}

/// Wall-clock of one fixed simulation with cycle-event tracing off versus
/// sampled, recorded into `BENCH.json` so a regression in the
/// tracing-disabled hot path shows up in CI history.
#[derive(Debug, Clone)]
pub struct EventsOverhead {
    /// Workload measured (the fixed reference point `expr@O2/s1`).
    pub workload: String,
    /// Simulation wall-clock with no event trace attached.
    pub off: Duration,
    /// Simulation wall-clock with a sampled event trace attached.
    pub sampled: Duration,
    /// Whether both runs produced bit-identical pipeline statistics.
    /// Anything but `true` is a tracing-hook bug.
    pub identical: bool,
}

impl EventsOverhead {
    /// Sampled-over-off wall-clock ratio (1.0 when `off` was too fast to
    /// time).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.off.is_zero() {
            1.0
        } else {
            self.sampled.as_secs_f64() / self.off.as_secs_f64()
        }
    }
}

/// The clustered-backend reference point: the fixed `expr@O2/s1` workload
/// simulated on the unified contended machine versus the clustered backend
/// (DESIGN.md §11) under round-robin and dead-instruction steering.
///
/// The wall-clock fields track the host-side cost of the clustered
/// scheduling loop (visibility bitsets, remote-wakeup events, per-cluster
/// issue merge) so a regression there shows up in CI history. The cycle
/// counts and steered-dead tally are pure functions of the workload and
/// are exact-compared by [`check_cluster_regression`] — any drift is a
/// determinism bug, not noise.
#[derive(Debug, Clone)]
pub struct ClusterOverhead {
    /// Workload measured (the fixed reference point `expr@O2/s1`).
    pub workload: String,
    /// Cluster count of the clustered runs ([`ClusterConfig::default`]).
    pub clusters: usize,
    /// Inter-cluster bypass penalty of the clustered runs.
    pub bypass_penalty: u32,
    /// Unified-backend simulation wall-clock.
    pub unified: Duration,
    /// Clustered round-robin simulation wall-clock.
    pub rr: Duration,
    /// Clustered dead-steer simulation wall-clock.
    pub dead: Duration,
    /// Simulated cycles on the unified backend.
    pub unified_cycles: u64,
    /// Simulated cycles clustered with round-robin steering.
    pub rr_cycles: u64,
    /// Simulated cycles clustered with dead-instruction steering.
    pub dead_cycles: u64,
    /// Instructions the dead-steer run routed to the cheap cluster.
    pub steered_dead: u64,
}

impl ClusterOverhead {
    /// Dead-steer-over-unified host wall-clock ratio (1.0 when `unified`
    /// was too fast to time): what the clustered loop costs the *host*,
    /// not the simulated machine.
    #[must_use]
    pub fn host_overhead(&self) -> f64 {
        if self.unified.is_zero() {
            1.0
        } else {
            self.dead.as_secs_f64() / self.unified.as_secs_f64()
        }
    }
}

/// Runs the benchmark harness and writes `BENCH.json`.
///
/// # Errors
///
/// Returns an error if the output file cannot be written.
///
/// # Panics
///
/// Panics if a benchmark program traps (a workload-generator bug).
pub fn run_bench(options: &BenchOptions) -> std::io::Result<BenchRun> {
    let specs: Vec<WorkloadSpec> = if options.quick {
        QUICK_SUITE
            .iter()
            .map(|&n| dide_workloads::find_workload(n).expect("quick benchmark exists"))
            .collect()
    } else {
        // The full sweep covers the synthetic suite plus the shipped
        // `.asm` workloads (which ignore `scale`, so their repeated
        // measurements double as timing-stability probes).
        suite().into_iter().chain(dide_workloads::asm_suite()).collect()
    };
    let scales: &[u32] = if options.quick { &[1] } else { &options.scales };

    let mut measurements = Vec::new();
    if !options.stream_only {
        for &scale in scales {
            for &spec in &specs {
                eprintln!("bench: {}@{}/s{scale}...", spec.name, OptLevel::O2);
                measurements.push(measure(spec, OptLevel::O2, scale));
            }
        }
    }

    let stream_suite: &[(&str, u32)] =
        if options.quick { &QUICK_STREAM_SUITE } else { &STREAM_SUITE };
    let mut streams = Vec::new();
    for &(name, scale) in stream_suite {
        eprintln!("bench: {name}@{}/s{scale} (streamed)...", OptLevel::O2);
        let spec = dide_workloads::find_workload(name).expect("stream benchmark exists");
        streams.push(measure_stream(spec, scale, options.epoch));
    }

    eprintln!("bench: campaign throughput grid...");
    let campaign = measure_campaign_throughput(4).map_err(std::io::Error::other)?;

    eprintln!("bench: events-overhead reference point...");
    let events_overhead = measure_events_overhead();

    eprintln!("bench: clustered-backend reference point...");
    let cluster = measure_cluster_overhead();

    let json = render_json(
        scales,
        &measurements,
        &streams,
        Some(&campaign),
        Some(&events_overhead),
        Some(&cluster),
    );
    std::fs::File::create(&options.out)?.write_all(json.as_bytes())?;
    let mut report =
        render_report(&measurements, &streams, &campaign, &events_overhead, &cluster, &options.out);
    let regression = match &options.check_against {
        None => None,
        Some(path) => {
            let baseline = std::fs::read_to_string(path)?;
            let mut check = check_regression(&measurements, &parse_baseline(&baseline));
            let mem = check_mem_regression(&streams, &parse_stream_baseline(&baseline));
            check.lines.extend(mem.lines);
            check.ok &= mem.ok;
            let camp =
                check_campaign_regression(&campaign, parse_campaign_baseline(&baseline).as_ref());
            check.lines.extend(camp.lines);
            check.ok &= camp.ok;
            let clu =
                check_cluster_regression(&cluster, parse_cluster_baseline(&baseline).as_ref());
            check.lines.extend(clu.lines);
            check.ok &= clu.ok;
            report.push_str(&format!("\n== regression check against {} ==\n", path.display()));
            for line in &check.lines {
                report.push_str(line);
                report.push('\n');
            }
            report.push_str(if check.ok {
                "regression check passed\n"
            } else {
                "REGRESSION CHECK FAILED\n"
            });
            Some(check)
        }
    };
    Ok(BenchRun {
        measurements,
        streams,
        campaign,
        events_overhead,
        cluster,
        json,
        report,
        regression,
    })
}

/// The deterministic half of a baseline `campaign` block, plus its timing
/// reference. Dedup and fixture numbers are pure functions of the grid, so
/// they are compared exactly; wall-clock gets the usual generous factor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignBaselineEntry {
    /// Grid fingerprint the baseline was measured on.
    pub grid: String,
    /// Expanded grid points.
    pub jobs_total: u64,
    /// Unique canonical jobs.
    pub jobs_unique: u64,
    /// Deduplicated grid points.
    pub jobs_deduped: u64,
    /// Peak resident fixtures.
    pub peak_resident: u64,
    /// `--jobs N` wall-clock, nanoseconds.
    pub jobsn_ns: u128,
}

/// Extracts the `campaign` block from a baseline `BENCH.json` (line
/// oriented, like [`parse_baseline`]). Returns `None` for documents
/// without the block (v2 and older), which the check reports as skipped.
#[must_use]
pub fn parse_campaign_baseline(json: &str) -> Option<CampaignBaselineEntry> {
    let start = json.find("\"campaign\": {")?;
    let mut grid = None;
    let mut nums: std::collections::HashMap<&str, u128> = std::collections::HashMap::new();
    for line in json[start..].lines() {
        let t = line.trim().trim_end_matches(',');
        if let Some(rest) = t.strip_prefix("\"grid\": \"") {
            grid = rest.split('"').next().map(ToString::to_string);
        } else if let Some((key, value)) = t.strip_prefix('"').and_then(|r| r.split_once("\": ")) {
            if let Ok(n) = value.parse::<u128>() {
                for want in [
                    "jobs_total",
                    "jobs_unique",
                    "jobs_deduped",
                    "peak_resident_fixtures",
                    "jobsn_ns",
                ] {
                    if key == want {
                        nums.insert(want, n);
                    }
                }
            }
        }
        if t.ends_with('}') && grid.is_some() {
            break;
        }
    }
    Some(CampaignBaselineEntry {
        grid: grid?,
        jobs_total: u64::try_from(*nums.get("jobs_total")?).ok()?,
        jobs_unique: u64::try_from(*nums.get("jobs_unique")?).ok()?,
        jobs_deduped: u64::try_from(*nums.get("jobs_deduped")?).ok()?,
        peak_resident: u64::try_from(*nums.get("peak_resident_fixtures")?).ok()?,
        jobsn_ns: *nums.get("jobsn_ns")?,
    })
}

/// Compares a campaign throughput measurement against the baseline block.
///
/// Dedup and fixture accounting are deterministic given the same grid
/// fingerprint, so any difference fails; wall-clock uses
/// [`REGRESSION_FACTOR`] with the usual [`REGRESSION_FLOOR_MS`]. A missing
/// baseline block or a different grid fingerprint is reported but never
/// fails (the baseline may predate the grid).
#[must_use]
pub fn check_campaign_regression(
    current: &CampaignThroughput,
    baseline: Option<&CampaignBaselineEntry>,
) -> RegressionCheck {
    let mut lines = Vec::new();
    let mut ok = true;
    let Some(base) = baseline else {
        lines.push("campaign: no baseline campaign block (skipped)".to_string());
        return RegressionCheck { lines, ok };
    };
    if base.grid != current.grid_fingerprint {
        lines.push(format!(
            "campaign: baseline grid {} differs from current {} (skipped)",
            base.grid, current.grid_fingerprint
        ));
        return RegressionCheck { lines, ok };
    }
    for (what, got, want) in [
        ("jobs_total", current.jobs_total, base.jobs_total),
        ("jobs_unique", current.jobs_unique, base.jobs_unique),
        ("jobs_deduped", current.jobs_deduped, base.jobs_deduped),
        ("peak_resident_fixtures", current.peak_resident, base.peak_resident),
    ] {
        if got == want {
            lines.push(format!("campaign {what}: {got} — ok"));
        } else {
            ok = false;
            lines.push(format!(
                "campaign {what}: {got} vs baseline {want} — DETERMINISM REGRESSION"
            ));
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let ratio =
        if base.jobsn_ns == 0 { 1.0 } else { current.jobsn_ns as f64 / base.jobsn_ns as f64 };
    let over_floor =
        current.jobsn_ns.saturating_sub(base.jobsn_ns) > REGRESSION_FLOOR_MS * 1_000_000;
    if ratio > REGRESSION_FACTOR && over_floor {
        ok = false;
        lines.push(format!(
            "campaign jobs={}: {}ns vs baseline {}ns ({ratio:.2}x) — REGRESSION",
            current.jobsn, current.jobsn_ns, base.jobsn_ns
        ));
    } else {
        lines.push(format!(
            "campaign jobs={}: {}ns vs baseline {}ns ({ratio:.2}x) — ok",
            current.jobsn, current.jobsn_ns, base.jobsn_ns
        ));
    }
    RegressionCheck { lines, ok }
}

/// The deterministic half of a baseline `cluster` block, plus its timing
/// reference. Cycle counts are pure functions of the fixed reference
/// workload, so they are compared exactly; wall-clock gets the usual
/// generous factor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterBaselineEntry {
    /// Workload the baseline was measured on.
    pub workload: String,
    /// Unified-backend simulated cycles.
    pub unified_cycles: u64,
    /// Clustered round-robin simulated cycles.
    pub rr_cycles: u64,
    /// Clustered dead-steer simulated cycles.
    pub dead_cycles: u64,
    /// Instructions the dead-steer run routed to the cheap cluster.
    pub steered_dead: u64,
    /// Dead-steer run wall-clock, nanoseconds.
    pub dead_ns: u128,
}

/// Extracts the `cluster` block from a baseline `BENCH.json` (line
/// oriented, like [`parse_baseline`]). Returns `None` for documents
/// without the block (v3 and older), which the check reports as skipped.
#[must_use]
pub fn parse_cluster_baseline(json: &str) -> Option<ClusterBaselineEntry> {
    let start = json.find("\"cluster\": {")?;
    let mut workload = None;
    let mut nums: std::collections::HashMap<&str, u128> = std::collections::HashMap::new();
    for line in json[start..].lines() {
        let t = line.trim().trim_end_matches(',');
        if let Some(rest) = t.strip_prefix("\"workload\": \"") {
            workload = rest.split('"').next().map(ToString::to_string);
        } else if let Some((key, value)) = t.strip_prefix('"').and_then(|r| r.split_once("\": ")) {
            if let Ok(n) = value.parse::<u128>() {
                for want in
                    ["unified_cycles", "rr_cycles", "dead_cycles", "steered_dead", "dead_ns"]
                {
                    if key == want {
                        nums.insert(want, n);
                    }
                }
            }
        }
        if t.ends_with('}') && workload.is_some() {
            break;
        }
    }
    Some(ClusterBaselineEntry {
        workload: workload?,
        unified_cycles: u64::try_from(*nums.get("unified_cycles")?).ok()?,
        rr_cycles: u64::try_from(*nums.get("rr_cycles")?).ok()?,
        dead_cycles: u64::try_from(*nums.get("dead_cycles")?).ok()?,
        steered_dead: u64::try_from(*nums.get("steered_dead")?).ok()?,
        dead_ns: *nums.get("dead_ns")?,
    })
}

/// Compares the clustered-backend reference point against the baseline
/// block.
///
/// Simulated cycle counts and the steered-dead tally are deterministic for
/// the fixed reference workload, so any difference fails; wall-clock uses
/// [`REGRESSION_FACTOR`] with the usual [`REGRESSION_FLOOR_MS`]. A missing
/// baseline block or a different workload is reported but never fails (the
/// baseline may predate the block).
#[must_use]
pub fn check_cluster_regression(
    current: &ClusterOverhead,
    baseline: Option<&ClusterBaselineEntry>,
) -> RegressionCheck {
    let mut lines = Vec::new();
    let mut ok = true;
    let Some(base) = baseline else {
        lines.push("cluster: no baseline cluster block (skipped)".to_string());
        return RegressionCheck { lines, ok };
    };
    if base.workload != current.workload {
        lines.push(format!(
            "cluster: baseline workload {} differs from current {} (skipped)",
            base.workload, current.workload
        ));
        return RegressionCheck { lines, ok };
    }
    for (what, got, want) in [
        ("unified_cycles", current.unified_cycles, base.unified_cycles),
        ("rr_cycles", current.rr_cycles, base.rr_cycles),
        ("dead_cycles", current.dead_cycles, base.dead_cycles),
        ("steered_dead", current.steered_dead, base.steered_dead),
    ] {
        if got == want {
            lines.push(format!("cluster {what}: {got} — ok"));
        } else {
            ok = false;
            lines
                .push(format!("cluster {what}: {got} vs baseline {want} — DETERMINISM REGRESSION"));
        }
    }
    let current_ns = current.dead.as_nanos();
    #[allow(clippy::cast_precision_loss)]
    let ratio = if base.dead_ns == 0 { 1.0 } else { current_ns as f64 / base.dead_ns as f64 };
    let over_floor = current_ns.saturating_sub(base.dead_ns) > REGRESSION_FLOOR_MS * 1_000_000;
    if ratio > REGRESSION_FACTOR && over_floor {
        ok = false;
        lines.push(format!(
            "cluster dead-steer: {current_ns}ns vs baseline {}ns ({ratio:.2}x) — REGRESSION",
            base.dead_ns
        ));
    } else {
        lines.push(format!(
            "cluster dead-steer: {current_ns}ns vs baseline {}ns ({ratio:.2}x) — ok",
            base.dead_ns
        ));
    }
    RegressionCheck { lines, ok }
}

/// A `(benchmark, scale)` simulate-phase time parsed from a baseline
/// `BENCH.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Benchmark name.
    pub name: String,
    /// Workload scale.
    pub scale: u32,
    /// Simulate-phase wall-clock, in nanoseconds.
    pub simulate_ns: u128,
}

/// A `(benchmark, scale)` streamed peak-memory entry parsed from a
/// baseline `BENCH.json` `stream` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamBaselineEntry {
    /// Benchmark name.
    pub name: String,
    /// Workload scale.
    pub scale: u32,
    /// Peak resident trace bytes of the streamed run.
    pub mem_peak_bytes: u64,
}

/// Extracts per-benchmark simulate times from a `BENCH.json` document.
///
/// The build environment has no serde, so this is a line-oriented reader
/// of the fixed layout [`render_json`] produces (one key per line inside
/// each benchmark object, `phases_ns` on a single line). Unparseable
/// lines are skipped; a malformed file yields an empty baseline, which
/// [`check_regression`] reports as "no baseline entry" rather than
/// failing the gate.
#[must_use]
pub fn parse_baseline(json: &str) -> Vec<BaselineEntry> {
    fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let rest = line.trim().strip_prefix(&format!("\"{key}\": \""))?;
        rest.split('"').next()
    }
    fn num_field(line: &str, key: &str) -> Option<u128> {
        let rest = line.trim().strip_prefix(&format!("\"{key}\": "))?;
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits.parse().ok()
    }

    let mut entries = Vec::new();
    let mut name: Option<String> = None;
    let mut scale: Option<u32> = None;
    for line in json.lines() {
        // `totals_ns` also contains a `"simulate":` key; benchmark
        // entries are recognized by having seen a `name` first, which the
        // totals sections never carry.
        if let Some(n) = str_field(line, "name") {
            name = Some(n.to_string());
            scale = None;
        } else if let Some(s) = num_field(line, "scale") {
            scale = u32::try_from(s).ok();
        } else if let Some(i) = line.find("\"simulate\": ") {
            if let (Some(n), Some(sc)) = (name.take(), scale.take()) {
                let digits: String = line[i + "\"simulate\": ".len()..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect();
                if let Ok(ns) = digits.parse() {
                    entries.push(BaselineEntry { name: n, scale: sc, simulate_ns: ns });
                }
            }
        }
    }
    entries
}

/// Extracts streamed peak-memory entries from the `stream` block of a
/// `BENCH.json` document (same line-oriented reading as
/// [`parse_baseline`]). A document without a `stream` block — e.g. a v1
/// baseline — yields an empty list, which [`check_mem_regression`]
/// reports as "no baseline mem entry" rather than failing the gate.
#[must_use]
pub fn parse_stream_baseline(json: &str) -> Vec<StreamBaselineEntry> {
    let Some(start) = json.find("\"stream\": [") else {
        return Vec::new();
    };
    let mut entries = Vec::new();
    let mut name: Option<String> = None;
    let mut scale: Option<u32> = None;
    for line in json[start..].lines() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("\"name\": \"") {
            name = rest.split('"').next().map(ToString::to_string);
            scale = None;
        } else if let Some(rest) = t.strip_prefix("\"scale\": ") {
            scale = rest.chars().take_while(char::is_ascii_digit).collect::<String>().parse().ok();
        } else if let Some(rest) = t.strip_prefix("\"mem_peak_bytes\": {\"streamed\": ") {
            if let (Some(n), Some(sc)) = (name.take(), scale.take()) {
                let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
                if let Ok(bytes) = digits.parse() {
                    entries.push(StreamBaselineEntry { name: n, scale: sc, mem_peak_bytes: bytes });
                }
            }
        }
    }
    entries
}

/// Compares each streamed enrollment's peak memory against the baseline.
///
/// Peak resident bytes are deterministic (ring capacity x record bytes),
/// so any growth beyond [`MEM_REGRESSION_FACTOR`] is a structural change
/// to the streaming window — no noise floor applies. Enrollments without a
/// baseline entry are reported but never fail.
#[must_use]
pub fn check_mem_regression(
    streams: &[StreamMeasurement],
    baseline: &[StreamBaselineEntry],
) -> RegressionCheck {
    let mut lines = Vec::new();
    let mut ok = true;
    for s in streams {
        let label = format!("{}@s{} (streamed)", s.name, s.scale);
        let Some(base) = baseline.iter().find(|b| b.name == s.name && b.scale == s.scale) else {
            lines.push(format!("{label}: no baseline mem entry (skipped)"));
            continue;
        };
        #[allow(clippy::cast_precision_loss)]
        let ratio = if base.mem_peak_bytes == 0 {
            1.0
        } else {
            s.mem_peak_bytes as f64 / base.mem_peak_bytes as f64
        };
        if ratio > MEM_REGRESSION_FACTOR {
            ok = false;
            lines.push(format!(
                "{label}: mem_peak {} bytes vs baseline {} ({ratio:.2}x) — REGRESSION",
                s.mem_peak_bytes, base.mem_peak_bytes
            ));
        } else {
            lines.push(format!(
                "{label}: mem_peak {} bytes vs baseline {} ({ratio:.2}x) — ok",
                s.mem_peak_bytes, base.mem_peak_bytes
            ));
        }
    }
    RegressionCheck { lines, ok }
}

/// Compares each measurement's simulate phase against the baseline.
///
/// A benchmark fails when its simulate time exceeds the baseline by more
/// than [`REGRESSION_FACTOR`] *and* by more than [`REGRESSION_FLOOR_MS`]
/// of absolute wall-clock; benchmarks without a matching baseline entry
/// are reported but never fail (the baseline may predate a new workload).
#[must_use]
pub fn check_regression(
    measurements: &[BenchMeasurement],
    baseline: &[BaselineEntry],
) -> RegressionCheck {
    let simulate_slot =
        Phase::ALL.iter().position(|p| p.label() == "simulate").expect("simulate phase exists");
    let mut lines = Vec::new();
    let mut ok = true;
    for m in measurements {
        let label = format!("{}@{}/s{}", m.name, m.opt, m.scale);
        let Some(base) = baseline.iter().find(|b| b.name == m.name && b.scale == m.scale) else {
            lines.push(format!("{label}: no baseline entry (skipped)"));
            continue;
        };
        let current = m.phases[simulate_slot].as_nanos();
        #[allow(clippy::cast_precision_loss)]
        let ratio =
            if base.simulate_ns == 0 { 1.0 } else { current as f64 / base.simulate_ns as f64 };
        let over_factor = ratio > REGRESSION_FACTOR;
        let over_floor = current.saturating_sub(base.simulate_ns) > REGRESSION_FLOOR_MS * 1_000_000;
        if over_factor && over_floor {
            ok = false;
            lines.push(format!(
                "{label}: simulate {current}ns vs baseline {}ns ({ratio:.2}x) — REGRESSION",
                base.simulate_ns
            ));
        } else {
            lines.push(format!(
                "{label}: simulate {current}ns vs baseline {}ns ({ratio:.2}x) — ok",
                base.simulate_ns
            ));
        }
    }
    RegressionCheck { lines, ok }
}

/// Times the same contended-machine simulation with event tracing off and
/// with the default sampling config, on the fixed `expr@O2/s1` reference
/// workload. The architectural results must be bit-identical — tracing is
/// pure observation — and the wall-clock ratio goes into `BENCH.json`.
#[must_use]
pub fn measure_events_overhead() -> EventsOverhead {
    let spec = *suite().iter().find(|s| s.name == "expr").expect("expr is in the suite");
    let case = crate::BenchCase::cached(spec, OptLevel::O2, 1);
    let config = PipelineConfig::contended();

    let start = Instant::now();
    let off_stats = Core::new(config).run_observed(&case.trace, &case.analysis, None);
    let off = start.elapsed();

    let mut events = EventTrace::new(EventsConfig::default());
    let start = Instant::now();
    let sampled_stats =
        Core::new(config).run_observed(&case.trace, &case.analysis, Some(&mut events));
    let sampled = start.elapsed();

    EventsOverhead {
        workload: format!("{}@{}/s1", spec.name, OptLevel::O2),
        off,
        sampled,
        identical: off_stats == sampled_stats,
    }
}

/// Times the fixed `expr@O2/s1` reference workload on the unified
/// contended machine and on the default clustered backend (2 clusters,
/// bypass 2) under round-robin and dead-instruction steering, recording
/// both the host wall-clock and the deterministic simulated cycle counts.
#[must_use]
pub fn measure_cluster_overhead() -> ClusterOverhead {
    let spec = *suite().iter().find(|s| s.name == "expr").expect("expr is in the suite");
    let case = crate::BenchCase::cached(spec, OptLevel::O2, 1);
    let machine = PipelineConfig::contended();
    let cluster = ClusterConfig::default();

    let start = Instant::now();
    let unified = Core::new(machine).run(&case.trace, &case.analysis);
    let unified_wall = start.elapsed();

    let start = Instant::now();
    let rr = Core::new(machine.with_cluster(cluster)).run(&case.trace, &case.analysis);
    let rr_wall = start.elapsed();

    let dead_config = ClusterConfig { steer: SteerPolicy::DeadSteer, ..cluster };
    let start = Instant::now();
    let dead = Core::new(machine.with_cluster(dead_config)).run(&case.trace, &case.analysis);
    let dead_wall = start.elapsed();

    ClusterOverhead {
        workload: format!("{}@{}/s1", spec.name, OptLevel::O2),
        clusters: cluster.clusters,
        bypass_penalty: cluster.bypass_penalty,
        unified: unified_wall,
        rr: rr_wall,
        dead: dead_wall,
        unified_cycles: unified.cycles,
        rr_cycles: rr.cycles,
        dead_cycles: dead.cycles,
        steered_dead: dead.steer.dead,
    }
}

/// Measures one streamed enrollment: a windowed analysis pass over the
/// program, then the streaming pipeline over a fresh epoch stream (on the
/// contended machine, matching [`measure`]'s simulate phase). The recorded
/// peak is the larger of the two phases' retained trace memory.
fn measure_stream(spec: WorkloadSpec, scale: u32, epoch_len: usize) -> StreamMeasurement {
    let program = spec.build(OptLevel::O2, scale);
    let start = Instant::now();
    let deadness = DeadnessAnalysis::analyze_streamed(&program, epoch_len)
        .unwrap_or_else(|e| panic!("benchmark {} must run to halt: {e}", spec.name));
    let analyze = start.elapsed();
    let mut stream = TraceStream::new(&program, epoch_len);
    let start = Instant::now();
    let _stats = Core::new(PipelineConfig::contended()).run_streamed(&mut stream, &deadness);
    let simulate = start.elapsed();
    let trace_len = deadness.len() as u64;
    StreamMeasurement {
        name: spec.name.to_string(),
        scale,
        epoch_len,
        trace_len,
        analyze,
        simulate,
        mem_peak_bytes: stream.peak_resident_bytes().max(deadness.mem_peak_bytes()),
        materialized_bytes: trace_len * std::mem::size_of::<DynInst>() as u64,
    }
}

/// Measures one benchmark at one scale: a fresh (uncached) build, trace and
/// analyze, then a contended-machine simulation.
fn measure(spec: WorkloadSpec, opt: OptLevel, scale: u32) -> BenchMeasurement {
    let before = harness::timing_records().len();
    // `build` bypasses the fixture cache and records Build/Trace/Analyze
    // spans in the process-wide registry; the simulation span is recorded
    // here under the same label.
    let case = BenchCase::build(spec, opt, scale);
    let label = format!("{}@{opt}/s{scale}", spec.name);
    let _stats = harness::time(&label, Phase::Simulate, || {
        Core::new(PipelineConfig::contended()).run(&case.trace, &case.analysis)
    });

    let mut phases = [Duration::ZERO; 4];
    for r in &harness::timing_records()[before..] {
        if r.label == label {
            let slot = Phase::ALL.iter().position(|&p| p == r.phase).expect("phase in ALL");
            phases[slot] += r.elapsed;
        }
    }
    BenchMeasurement {
        name: spec.name.to_string(),
        opt,
        scale,
        trace_len: case.trace.len() as u64,
        phases,
    }
}

/// Renders the `BENCH.json` document. Deterministic layout: fixed key
/// order, benchmarks in measurement order, 2-space indentation.
#[must_use]
pub fn render_json(
    scales: &[u32],
    measurements: &[BenchMeasurement],
    streams: &[StreamMeasurement],
    campaign: Option<&CampaignThroughput>,
    events: Option<&EventsOverhead>,
    cluster: Option<&ClusterOverhead>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": \"{BENCH_SCHEMA}\",\n"));
    out.push_str(&format!(
        "  \"scales\": [{}],\n",
        scales.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
    ));

    out.push_str("  \"benchmarks\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", m.name));
        out.push_str(&format!("      \"opt\": \"{}\",\n", m.opt));
        out.push_str(&format!("      \"scale\": {},\n", m.scale));
        out.push_str(&format!("      \"trace_len\": {},\n", m.trace_len));
        out.push_str("      \"phases_ns\": {");
        for (slot, phase) in Phase::ALL.iter().enumerate() {
            if slot > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", phase.label(), m.phases[slot].as_nanos()));
        }
        out.push_str("},\n");
        out.push_str(&format!("      \"total_ns\": {}\n", m.total().as_nanos()));
        out.push_str(if i + 1 < measurements.len() { "    },\n" } else { "    }\n" });
    }
    out.push_str("  ],\n");

    out.push_str("  \"totals_ns\": {");
    for (slot, phase) in Phase::ALL.iter().enumerate() {
        if slot > 0 {
            out.push_str(", ");
        }
        let total: u128 = measurements.iter().map(|m| m.phases[slot].as_nanos()).sum();
        out.push_str(&format!("\"{}\": {total}", phase.label()));
    }
    out.push_str("},\n");

    out.push_str("  \"per_scale_totals_ns\": {\n");
    for (i, &scale) in scales.iter().enumerate() {
        out.push_str(&format!("    \"{scale}\": {{"));
        for (slot, phase) in Phase::ALL.iter().enumerate() {
            if slot > 0 {
                out.push_str(", ");
            }
            let total: u128 = measurements
                .iter()
                .filter(|m| m.scale == scale)
                .map(|m| m.phases[slot].as_nanos())
                .sum();
            out.push_str(&format!("\"{}\": {total}", phase.label()));
        }
        out.push_str(if i + 1 < scales.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  },\n");

    // Batch-engine throughput: dedup and fixture fields are deterministic
    // for a fixed grid and are exact-compared by the CI gate; the ns
    // fields get the usual generous wall-clock factor.
    if let Some(c) = campaign {
        out.push_str("  \"campaign\": {\n");
        out.push_str(&format!("    \"grid\": \"{}\",\n", c.grid_fingerprint));
        out.push_str(&format!("    \"jobs_total\": {},\n", c.jobs_total));
        out.push_str(&format!("    \"jobs_unique\": {},\n", c.jobs_unique));
        out.push_str(&format!("    \"jobs_deduped\": {},\n", c.jobs_deduped));
        out.push_str(&format!("    \"dedup_rate\": {:.3},\n", c.dedup_rate()));
        out.push_str(&format!("    \"peak_resident_fixtures\": {},\n", c.peak_resident));
        out.push_str(&format!("    \"fixture_cap\": {},\n", c.fixture_cap));
        out.push_str(&format!("    \"direct_ns\": {},\n", c.direct_ns));
        out.push_str(&format!("    \"jobs1_ns\": {},\n", c.jobs1_ns));
        out.push_str(&format!("    \"scheduler_overhead\": {:.3},\n", c.scheduler_overhead()));
        out.push_str(&format!("    \"jobs\": {},\n", c.jobsn));
        out.push_str(&format!("    \"jobsn_ns\": {},\n", c.jobsn_ns));
        out.push_str(&format!("    \"jobs_per_sec\": {:.1}\n", c.jobs_per_sec()));
        out.push_str("  },\n");
    }

    // Streamed enrollments: the `mem_peak_bytes` block is what the CI
    // regression gate and the acceptance criteria read.
    if streams.is_empty() {
        out.push_str("  \"stream\": []");
    } else {
        out.push_str("  \"stream\": [\n");
        for (i, s) in streams.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": \"{}\",\n", s.name));
            out.push_str(&format!("      \"scale\": {},\n", s.scale));
            out.push_str(&format!("      \"epoch_len\": {},\n", s.epoch_len));
            out.push_str(&format!("      \"trace_len\": {},\n", s.trace_len));
            out.push_str(&format!("      \"analyze_ns\": {},\n", s.analyze.as_nanos()));
            out.push_str(&format!("      \"simulate_ns\": {},\n", s.simulate.as_nanos()));
            out.push_str(&format!(
                "      \"mem_peak_bytes\": {{\"streamed\": {}, \"materialized\": {}, \
                 \"ratio\": {:.1}}}\n",
                s.mem_peak_bytes,
                s.materialized_bytes,
                s.mem_ratio()
            ));
            out.push_str(if i + 1 < streams.len() { "    },\n" } else { "    }\n" });
        }
        out.push_str("  ]");
    }

    if let Some(ev) = events {
        out.push_str(",\n  \"events_overhead\": {\n");
        out.push_str(&format!("    \"workload\": \"{}\",\n", ev.workload));
        out.push_str(&format!("    \"off_ns\": {},\n", ev.off.as_nanos()));
        out.push_str(&format!("    \"sampled_ns\": {},\n", ev.sampled.as_nanos()));
        out.push_str(&format!("    \"ratio\": {:.3},\n", ev.ratio()));
        out.push_str(&format!("    \"identical\": {}\n", ev.identical));
        out.push_str("  }");
    }

    // Clustered-backend reference point: the cycle counts and steered-dead
    // tally are deterministic and exact-compared by the CI gate; the ns
    // fields get the usual generous wall-clock factor.
    if let Some(c) = cluster {
        out.push_str(",\n  \"cluster\": {\n");
        out.push_str(&format!("    \"workload\": \"{}\",\n", c.workload));
        out.push_str(&format!("    \"clusters\": {},\n", c.clusters));
        out.push_str(&format!("    \"bypass_penalty\": {},\n", c.bypass_penalty));
        out.push_str(&format!("    \"unified_ns\": {},\n", c.unified.as_nanos()));
        out.push_str(&format!("    \"rr_ns\": {},\n", c.rr.as_nanos()));
        out.push_str(&format!("    \"dead_ns\": {},\n", c.dead.as_nanos()));
        out.push_str(&format!("    \"host_overhead\": {:.3},\n", c.host_overhead()));
        out.push_str(&format!("    \"unified_cycles\": {},\n", c.unified_cycles));
        out.push_str(&format!("    \"rr_cycles\": {},\n", c.rr_cycles));
        out.push_str(&format!("    \"dead_cycles\": {},\n", c.dead_cycles));
        out.push_str(&format!("    \"steered_dead\": {}\n", c.steered_dead));
        out.push_str("  }");
    }
    out.push_str("\n}\n");
    out
}

/// Renders the human-readable summary.
fn render_report(
    measurements: &[BenchMeasurement],
    streams: &[StreamMeasurement],
    campaign: &CampaignThroughput,
    events: &EventsOverhead,
    cluster: &ClusterOverhead,
    out: &std::path::Path,
) -> String {
    let mut text = String::new();
    if !measurements.is_empty() {
        text.push_str("== bench (wall-clock per phase) ==\n");
        let mut t =
            Table::new(["benchmark", "scale", "build", "trace", "analyze", "simulate", "total"]);
        for m in measurements {
            t.row([
                m.name.clone(),
                m.scale.to_string(),
                harness::fmt_duration(m.phases[0]),
                harness::fmt_duration(m.phases[1]),
                harness::fmt_duration(m.phases[2]),
                harness::fmt_duration(m.phases[3]),
                harness::fmt_duration(m.total()),
            ]);
        }
        text.push_str(&t.to_string());
    }
    if !streams.is_empty() {
        text.push_str("\n== bench (streamed, bounded-memory) ==\n");
        let mut t = Table::new([
            "benchmark",
            "scale",
            "insts",
            "analyze",
            "simulate",
            "mem peak",
            "vs materialized",
        ]);
        for s in streams {
            t.row([
                s.name.clone(),
                s.scale.to_string(),
                s.trace_len.to_string(),
                harness::fmt_duration(s.analyze),
                harness::fmt_duration(s.simulate),
                format!("{} KiB", s.mem_peak_bytes / 1024),
                format!("{:.1}x smaller", s.mem_ratio()),
            ]);
        }
        text.push_str(&t.to_string());
    }
    text.push_str(&format!(
        "\n== campaign throughput (grid {}) ==\n\
         {} grid points -> {} unique ({} deduped, rate {:.3})\n\
         direct {}, jobs=1 {} (overhead {:.3}x), jobs={} {} ({:.1} jobs/sec)\n\
         fixtures: peak {} resident (cap {})\n",
        campaign.grid_fingerprint,
        campaign.jobs_total,
        campaign.jobs_unique,
        campaign.jobs_deduped,
        campaign.dedup_rate(),
        harness::fmt_duration(Duration::from_nanos(
            campaign.direct_ns.min(u128::from(u64::MAX)) as u64
        )),
        harness::fmt_duration(Duration::from_nanos(
            campaign.jobs1_ns.min(u128::from(u64::MAX)) as u64
        )),
        campaign.scheduler_overhead(),
        campaign.jobsn,
        harness::fmt_duration(Duration::from_nanos(
            campaign.jobsn_ns.min(u128::from(u64::MAX)) as u64
        )),
        campaign.jobs_per_sec(),
        campaign.peak_resident,
        campaign.fixture_cap,
    ));
    text.push_str(&format!(
        "\nevents overhead on {}: off {}, sampled {} (ratio {:.3}, {})\n",
        events.workload,
        harness::fmt_duration(events.off),
        harness::fmt_duration(events.sampled),
        events.ratio(),
        if events.identical { "results identical" } else { "RESULTS DIVERGED" },
    ));
    text.push_str(&format!(
        "clustered backend on {} ({} clusters, bypass {}): unified {}, rr {}, dead-steer {} \
         (host overhead {:.3}x); cycles {} -> {} rr -> {} dead-steer, {} steered dead\n",
        cluster.workload,
        cluster.clusters,
        cluster.bypass_penalty,
        harness::fmt_duration(cluster.unified),
        harness::fmt_duration(cluster.rr),
        harness::fmt_duration(cluster.dead),
        cluster.host_overhead(),
        cluster.unified_cycles,
        cluster.rr_cycles,
        cluster.dead_cycles,
        cluster.steered_dead,
    ));
    text.push_str(&format!("wrote {}\n", out.display()));
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<BenchMeasurement> {
        vec![
            BenchMeasurement {
                name: "expr".into(),
                opt: OptLevel::O2,
                scale: 1,
                trace_len: 1000,
                phases: [
                    Duration::from_nanos(10),
                    Duration::from_nanos(20),
                    Duration::from_nanos(30),
                    Duration::from_nanos(40),
                ],
            },
            BenchMeasurement {
                name: "route".into(),
                opt: OptLevel::O2,
                scale: 4,
                trace_len: 4000,
                phases: [
                    Duration::from_nanos(1),
                    Duration::from_nanos(2),
                    Duration::from_nanos(3),
                    Duration::from_nanos(4),
                ],
            },
        ]
    }

    fn overhead() -> EventsOverhead {
        EventsOverhead {
            workload: "expr@O2/s1".into(),
            off: Duration::from_nanos(1000),
            sampled: Duration::from_nanos(1100),
            identical: true,
        }
    }

    fn stream_sample() -> Vec<StreamMeasurement> {
        vec![StreamMeasurement {
            name: "expr".into(),
            scale: 16,
            epoch_len: 65_536,
            trace_len: 1_000_000,
            analyze: Duration::from_nanos(50),
            simulate: Duration::from_nanos(60),
            mem_peak_bytes: 5_242_880,
            materialized_bytes: 40_000_000,
        }]
    }

    fn campaign_sample() -> CampaignThroughput {
        CampaignThroughput {
            grid_fingerprint: "00000000deadbeef".into(),
            jobs_total: 12,
            jobs_unique: 9,
            jobs_deduped: 3,
            peak_resident: 3,
            fixture_cap: 256,
            direct_ns: 1_000_000,
            jobs1_ns: 1_020_000,
            jobsn: 4,
            jobsn_ns: 900_000,
        }
    }

    fn cluster_sample() -> ClusterOverhead {
        ClusterOverhead {
            workload: "expr@O2/s1".into(),
            clusters: 2,
            bypass_penalty: 2,
            unified: Duration::from_nanos(1000),
            rr: Duration::from_nanos(1300),
            dead: Duration::from_nanos(1200),
            unified_cycles: 500,
            rr_cycles: 700,
            dead_cycles: 620,
            steered_dead: 40,
        }
    }

    #[test]
    fn json_has_schema_and_per_phase_totals() {
        let json = render_json(&[1, 4], &sample(), &[], None, None, None);
        assert!(json.contains("\"schema\": \"dide-bench/v4\""));
        assert!(json.contains("\"scales\": [1, 4]"));
        assert!(json.contains("\"name\": \"expr\""));
        assert!(json.contains(
            "\"phases_ns\": {\"build\": 10, \"trace\": 20, \"analyze\": 30, \"simulate\": 40}"
        ));
        assert!(json.contains("\"total_ns\": 100"));
        assert!(json.contains(
            "\"totals_ns\": {\"build\": 11, \"trace\": 22, \"analyze\": 33, \"simulate\": 44}"
        ));
        assert!(json.contains("\"1\": {\"build\": 10"));
        assert!(json.contains("\"4\": {\"build\": 1"));
        assert!(json.contains("\"stream\": []"), "no streams renders an empty block");
    }

    #[test]
    fn json_records_campaign_block_and_roundtrips() {
        let c = campaign_sample();
        let json = render_json(&[1], &sample()[..1], &[], Some(&c), None, None);
        assert!(json.contains("\"campaign\": {"));
        assert!(json.contains("\"grid\": \"00000000deadbeef\""));
        assert!(json.contains("\"dedup_rate\": 0.250"));
        assert!(json.contains("\"scheduler_overhead\": 1.020"));
        assert!(json.contains("\"jobs_per_sec\": 10000.0"));
        let parsed = parse_campaign_baseline(&json).expect("campaign block parses");
        assert_eq!(
            parsed,
            CampaignBaselineEntry {
                grid: "00000000deadbeef".into(),
                jobs_total: 12,
                jobs_unique: 9,
                jobs_deduped: 3,
                peak_resident: 3,
                jobsn_ns: 900_000,
            }
        );
        assert!(parse_campaign_baseline("{\"schema\": \"dide-bench/v2\"}").is_none());
    }

    #[test]
    fn campaign_regression_check_gates_determinism_and_timing() {
        let c = campaign_sample();
        let base =
            parse_campaign_baseline(&render_json(&[1], &[], &[], Some(&c), None, None)).unwrap();
        assert!(check_campaign_regression(&c, Some(&base)).ok);
        assert!(check_campaign_regression(&c, None).ok, "missing block is skipped");

        // A different grid fingerprint skips rather than fails.
        let other = CampaignBaselineEntry { grid: "ffff".into(), ..base.clone() };
        let check = check_campaign_regression(&c, Some(&other));
        assert!(check.ok);
        assert!(check.lines[0].contains("skipped"), "{:?}", check.lines);

        // Same grid, different dedup count: a determinism regression.
        let drifted = CampaignBaselineEntry { jobs_deduped: 2, ..base.clone() };
        assert!(!check_campaign_regression(&c, Some(&drifted)).ok);

        // A big slowdown over the floor fails; a tiny one passes.
        let fast = CampaignBaselineEntry { jobsn_ns: 1000, ..base.clone() };
        let mut slow_run = campaign_sample();
        slow_run.jobsn_ns = 400_000_000;
        assert!(!check_campaign_regression(&slow_run, Some(&fast)).ok);
        assert!(check_campaign_regression(&c, Some(&fast)).ok, "under the 5ms floor");
    }

    #[test]
    fn json_records_cluster_block_and_roundtrips() {
        let c = cluster_sample();
        let json = render_json(&[1], &sample()[..1], &[], None, None, Some(&c));
        assert!(json.contains("\"cluster\": {"));
        assert!(json.contains("\"clusters\": 2"));
        assert!(json.contains("\"bypass_penalty\": 2"));
        assert!(json.contains("\"host_overhead\": 1.200"));
        assert!(json.contains("\"steered_dead\": 40"));
        let parsed = parse_cluster_baseline(&json).expect("cluster block parses");
        assert_eq!(
            parsed,
            ClusterBaselineEntry {
                workload: "expr@O2/s1".into(),
                unified_cycles: 500,
                rr_cycles: 700,
                dead_cycles: 620,
                steered_dead: 40,
                dead_ns: 1200,
            }
        );
        assert!(parse_cluster_baseline("{\"schema\": \"dide-bench/v3\"}").is_none());
    }

    #[test]
    fn cluster_regression_check_gates_determinism_and_timing() {
        let c = cluster_sample();
        let base =
            parse_cluster_baseline(&render_json(&[1], &[], &[], None, None, Some(&c))).unwrap();
        assert!(check_cluster_regression(&c, Some(&base)).ok);
        assert!(check_cluster_regression(&c, None).ok, "missing block is skipped");

        // A different reference workload skips rather than fails.
        let other = ClusterBaselineEntry { workload: "route@O2/s1".into(), ..base.clone() };
        let check = check_cluster_regression(&c, Some(&other));
        assert!(check.ok);
        assert!(check.lines[0].contains("skipped"), "{:?}", check.lines);

        // Same workload, different cycle count: a determinism regression.
        let drifted = ClusterBaselineEntry { dead_cycles: 621, ..base.clone() };
        assert!(!check_cluster_regression(&c, Some(&drifted)).ok);
        let steered = ClusterBaselineEntry { steered_dead: 39, ..base.clone() };
        assert!(!check_cluster_regression(&c, Some(&steered)).ok);

        // A big slowdown over the floor fails; a tiny one passes.
        let fast = ClusterBaselineEntry { dead_ns: 1000, ..base.clone() };
        let mut slow_run = cluster_sample();
        slow_run.dead = Duration::from_nanos(400_000_000);
        assert!(!check_cluster_regression(&slow_run, Some(&fast)).ok);
        assert!(check_cluster_regression(&c, Some(&fast)).ok, "under the 5ms floor");
    }

    #[test]
    fn clustered_reference_point_is_deterministic_and_steers() {
        // The regression test behind the exact-compared cycle fields: two
        // measurements of the fixed reference point must agree on every
        // simulated count (wall-clock is environment noise and is not
        // compared).
        let a = measure_cluster_overhead();
        let b = measure_cluster_overhead();
        assert_eq!(a.unified_cycles, b.unified_cycles);
        assert_eq!(a.rr_cycles, b.rr_cycles);
        assert_eq!(a.dead_cycles, b.dead_cycles);
        assert_eq!(a.steered_dead, b.steered_dead);
        assert!(a.rr_cycles >= a.unified_cycles, "clustering is not free on expr");
        assert!(a.steered_dead > 0, "dead work must be steered on expr");
        assert!(!a.unified.is_zero() && !a.dead.is_zero());
    }

    #[test]
    fn json_records_stream_block() {
        let json = render_json(&[1], &sample()[..1], &stream_sample(), None, None, None);
        assert!(json.contains("\"stream\": [\n"));
        assert!(json.contains("\"epoch_len\": 65536"));
        assert!(json.contains("\"analyze_ns\": 50"));
        assert!(json.contains("\"simulate_ns\": 60"));
        assert!(json.contains(
            "\"mem_peak_bytes\": {\"streamed\": 5242880, \"materialized\": 40000000, \
             \"ratio\": 7.6}"
        ));
    }

    #[test]
    fn json_is_structurally_balanced() {
        let streams = stream_sample();
        let campaign = campaign_sample();
        let cluster = cluster_sample();
        for cl in [None, Some(&cluster)] {
            for events in [None, Some(&overhead())] {
                for c in [None, Some(&campaign)] {
                    for s in [&[] as &[StreamMeasurement], &streams] {
                        let json = render_json(&[1], &sample()[..1], s, c, events, cl);
                        assert_eq!(json.matches('{').count(), json.matches('}').count());
                        assert_eq!(json.matches('[').count(), json.matches(']').count());
                        assert!(json.ends_with("}\n"));
                    }
                }
            }
        }
    }

    #[test]
    fn json_records_events_overhead() {
        let json = render_json(&[1], &sample()[..1], &[], None, Some(&overhead()), None);
        assert!(json.contains("\"events_overhead\": {"));
        assert!(json.contains("\"workload\": \"expr@O2/s1\""));
        assert!(json.contains("\"off_ns\": 1000"));
        assert!(json.contains("\"sampled_ns\": 1100"));
        assert!(json.contains("\"ratio\": 1.100"));
        assert!(json.contains("\"identical\": true"));
    }

    #[test]
    fn event_tracing_never_changes_architectural_results() {
        // The regression test behind the `identical` flag: the sampled run
        // must be a pure observer. (The timing itself is environment noise,
        // so only the architectural equality is asserted.)
        let ev = measure_events_overhead();
        assert!(ev.identical, "event tracing perturbed the pipeline on {}", ev.workload);
        assert!(!ev.off.is_zero() && !ev.sampled.is_zero());
    }

    #[test]
    fn baseline_roundtrips_through_the_renderer() {
        // The parser must read exactly what render_json writes — including
        // not confusing the `totals_ns` simulate key with a benchmark's,
        // and not treating `stream` entries as phase measurements.
        let json = render_json(
            &[1, 4],
            &sample(),
            &stream_sample(),
            Some(&campaign_sample()),
            Some(&overhead()),
            Some(&cluster_sample()),
        );
        let parsed = parse_baseline(&json);
        assert_eq!(
            parsed,
            vec![
                BaselineEntry { name: "expr".into(), scale: 1, simulate_ns: 40 },
                BaselineEntry { name: "route".into(), scale: 4, simulate_ns: 4 },
            ]
        );
        assert_eq!(
            parse_stream_baseline(&json),
            vec![StreamBaselineEntry { name: "expr".into(), scale: 16, mem_peak_bytes: 5_242_880 }]
        );
    }

    #[test]
    fn baseline_parser_tolerates_garbage() {
        assert!(parse_baseline("").is_empty());
        assert!(parse_baseline("not json at all").is_empty());
        assert!(parse_baseline("{\"simulate\": 12}").is_empty(), "simulate without a name");
        assert!(parse_stream_baseline("").is_empty());
        assert!(parse_stream_baseline("{\"schema\": \"dide-bench/v1\"}").is_empty(), "v1 baseline");
    }

    #[test]
    fn mem_regression_check_flags_structural_growth() {
        let streams = stream_sample();
        // No baseline block (e.g. a v1 file): reported, never failing.
        let check = check_mem_regression(&streams, &[]);
        assert!(check.ok);
        assert!(check.lines[0].contains("no baseline mem entry"));
        // Within 2x: ok.
        let base =
            vec![StreamBaselineEntry { name: "expr".into(), scale: 16, mem_peak_bytes: 5_242_880 }];
        assert!(check_mem_regression(&streams, &base).ok);
        // More than 2x growth: a structural regression, no noise floor.
        let shrunk =
            vec![StreamBaselineEntry { name: "expr".into(), scale: 16, mem_peak_bytes: 1_000_000 }];
        let check = check_mem_regression(&streams, &shrunk);
        assert!(!check.ok);
        assert!(check.lines[0].contains("REGRESSION"), "{:?}", check.lines);
    }

    #[test]
    fn regression_check_flags_only_large_real_slowdowns() {
        let mut m = sample();
        // expr baseline 100ms; current 40ns → fine (a speedup).
        let baseline = vec![
            BaselineEntry { name: "expr".into(), scale: 1, simulate_ns: 100_000_000 },
            BaselineEntry { name: "route".into(), scale: 4, simulate_ns: 4 },
        ];
        let check = check_regression(&m, &baseline);
        assert!(check.ok, "{:?}", check.lines);
        // route: ratio 1.0 — fine.
        assert!(check.lines[1].contains("ok"));

        // A 3x slowdown that is still under the 5ms floor must pass
        // (sub-millisecond noise), then one over both thresholds must fail.
        m[0].phases[3] = Duration::from_nanos(300_000_000);
        let noisy = vec![BaselineEntry { name: "expr".into(), scale: 1, simulate_ns: 1 }];
        let check = check_regression(&m[..1], &noisy);
        assert!(!check.ok, "300ms over a 1ns baseline is a regression");
        let small = vec![BaselineEntry { name: "expr".into(), scale: 1, simulate_ns: 299_000_000 }];
        assert!(check_regression(&m[..1], &small).ok, "1ms over baseline is noise");
    }

    #[test]
    fn regression_check_skips_unmatched_benchmarks() {
        let check = check_regression(&sample(), &[]);
        assert!(check.ok);
        assert!(check.lines.iter().all(|l| l.contains("no baseline entry")));
    }

    #[test]
    fn quick_bench_writes_well_formed_json() {
        let dir = std::env::temp_dir().join("dide-benchrun-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("BENCH.json");
        let options = BenchOptions { quick: true, out: out.clone(), ..BenchOptions::default() };
        let run = run_bench(&options).expect("bench writes");
        assert_eq!(run.measurements.len(), QUICK_SUITE.len());
        assert!(run.measurements.iter().all(|m| m.scale == 1));
        assert!(run.measurements.iter().all(|m| m.trace_len > 0));
        assert_eq!(run.streams.len(), QUICK_STREAM_SUITE.len());
        let written = std::fs::read_to_string(&out).unwrap();
        assert_eq!(written, run.json);
        assert!(written.contains("\"schema\": \"dide-bench/v4\""));
        assert!(written.contains("\"events_overhead\""));
        assert!(written.contains("\"mem_peak_bytes\": {\"streamed\": "));
        assert!(written.contains("\"campaign\": {"));
        assert!(written.contains("\"cluster\": {"));
        assert!(run.campaign.jobs_deduped > 0, "the bench grid must exercise dedup");
        assert_eq!(run.campaign.jobs_total, run.campaign.jobs_unique + run.campaign.jobs_deduped);
        assert!(run.events_overhead.identical);
        assert!(run.cluster.steered_dead > 0, "dead steering must route work on expr");
        assert!(run.report.contains("objstore"));
        assert!(run.report.contains("events overhead"));
        assert!(run.report.contains("streamed"));
        assert!(run.report.contains("campaign throughput"));
        assert!(run.report.contains("clustered backend"));
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn streamed_measurement_is_bounded_and_honest() {
        let spec = dide_workloads::find_workload("expr").expect("expr exists");
        let s = measure_stream(spec, 4, DEFAULT_EPOCH_LEN);
        let epoch_bytes = DEFAULT_EPOCH_LEN as u64 * std::mem::size_of::<DynInst>() as u64;
        assert_eq!(s.materialized_bytes, s.trace_len * std::mem::size_of::<DynInst>() as u64);
        assert!(s.trace_len as usize > 2 * DEFAULT_EPOCH_LEN, "expr@4 spans several epochs");
        assert!(
            s.mem_peak_bytes <= epoch_bytes,
            "peak retained trace memory must stay within one epoch (got {} bytes)",
            s.mem_peak_bytes
        );
        assert!(s.mem_ratio() > 1.0, "streaming must beat materializing at this scale");
    }
}

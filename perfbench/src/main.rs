//! `dide-perfbench`: one benchmark for the dide stack, measured end to end
//! and layer by layer. See `README.md` for the workloads, the metrics and
//! which layer metric should move which end-to-end metric.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite|stream|campaign --seed N --seconds S --trace 0|1
//! ```
//!
//! Human-readable lines go first; the last line of stdout is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}` holding the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`,
//! which also writes the spans as Chrome trace-event JSON under `out/`).

mod alloc;
mod campaign;
mod round;
mod run;
mod stream;
mod suite;
mod trace;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use run::{Kind, Metric, Outcome, Sizes};
use trace::Tracer;

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// Where campaign stores and Chrome traces are written.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    workload: Kind,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("invalid {flag} `{value}` (expected {what})");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("seconds > 0"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload_name = workload.ok_or("--workload is required")?;
    Ok(Args { workload: Kind::parse(&workload_name)?, workload_name, seed, seconds, trace })
}

fn json_metrics(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(out, "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    out.push('}');
    out
}

fn report(args: &Args, outcome: &Outcome, tracer: &Tracer) -> Result<String, String> {
    println!(
        "# workload {} seed {} | {} round(s) in {:.3} s | attempted {} failed {} error_frac {}",
        args.workload_name,
        args.seed,
        outcome.rounds,
        outcome.body.as_secs_f64(),
        outcome.attempted,
        outcome.failed,
        outcome.error_frac()
    );
    let times = |ds: &[std::time::Duration], digits: usize| {
        ds.iter().map(|d| format!("{:.*}", digits, d.as_secs_f64())).collect::<Vec<_>>().join(" ")
    };
    println!("# set-up times (s): {}", times(&outcome.setups, 6));
    println!("# untraced round times (s): {}", times(&outcome.plain, 3));
    println!("# fastest round, call by call (s): {:.6}", outcome.round_estimate().as_secs_f64());
    for e in &outcome.errors {
        println!("# FAILED {e}");
    }
    let metrics = if args.trace { outcome.per_layer() } else { outcome.end_to_end() };
    for m in &metrics {
        println!("{:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    if args.workload == Kind::Stream {
        let first = &outcome.first;
        let model = first.count("emu.stream.peak_resident_bytes")
            + first.count("analysis.window.verdict_bytes");
        println!(
            "# heap cross-check: peak {:.1} MiB; stream window + verdict vector {:.1} MiB",
            outcome.peak_heap as f64 / 1048576.0,
            model as f64 / 1048576.0
        );
    }
    if args.trace {
        let path =
            Path::new(OUT_DIR).join(format!("trace-{}-{}.json", args.workload_name, args.seed));
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
        std::fs::write(&path, tracer.chrome_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("# {} spans written to {}", tracer.spans().len(), path.display());
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        json_metrics(&metrics)
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let result = run::run(
        args.workload,
        &Sizes::full(),
        args.seed,
        args.seconds,
        Path::new(OUT_DIR),
        &mut tracer,
    )
    .and_then(|outcome| report(&args, &outcome, &tracer));
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tiny() -> Sizes {
        Sizes {
            suite: suite::Config { benchmarks: vec!["expr", "strsearch"], scale: 1 },
            stream: stream::Config { programs: vec![("expr", 1)], epoch: 8192 },
            campaign: campaign::Config {
                benchmarks: vec!["netflow"],
                generated: 1,
                thresholds: vec![12],
            },
        }
    }

    fn out() -> std::path::PathBuf {
        Path::new(OUT_DIR).join("test")
    }

    #[test]
    fn exact_counts_repeat_across_two_runs() {
        for kind in [Kind::Suite, Kind::Stream, Kind::Campaign] {
            let runs: Vec<Outcome> = (0..2)
                .map(|_| run::run(kind, &tiny(), 5, 0.01, &out(), &mut Tracer::new(false)).unwrap())
                .collect();
            let (a, b) = (&runs[0], &runs[1]);
            assert_eq!((a.failed, b.failed), (0, 0), "{kind:?}: {:?} {:?}", a.errors, b.errors);
            for name in [
                "pipeline.cycles",
                "pipeline.committed",
                "pipeline.eliminated",
                "campaign.jobs_unique",
                "campaign.jobs_deduped",
                "fixture.misses",
            ] {
                assert_eq!(a.first.count(name), b.first.count(name), "{kind:?} {name}");
            }
            assert!(a.first.count("pipeline.cycles") > 0, "{kind:?}");
            assert_eq!(a.first.elim_speedup, b.first.elim_speedup, "{kind:?}");
            let e2e: Vec<(&str, f64)> = a.end_to_end().iter().map(|m| (m.name, m.value)).collect();
            assert!(
                e2e.iter().all(|(_, v)| *v > 0.0),
                "{kind:?}: a zero end-to-end metric in {e2e:?}"
            );
        }
    }

    /// Per-layer self times of one traced suite run, with an optional
    /// delay injected into every span of one layer.
    fn self_times(
        delay: Option<(&'static str, Duration)>,
    ) -> std::collections::BTreeMap<&'static str, f64> {
        let mut t = Tracer::new(true);
        t.delay = delay;
        let outcome = run::run(Kind::Suite, &tiny(), 5, 0.01, &out(), &mut t).unwrap();
        assert_eq!(outcome.failed, 0, "{:?}", outcome.errors);
        outcome
            .per_layer()
            .into_iter()
            .filter(|m| m.unit == "s")
            .map(|m| (m.name, m.value))
            .collect()
    }

    #[test]
    fn an_injected_delay_moves_only_its_own_layer() {
        let pause = Duration::from_millis(100);
        let base = self_times(None);
        let slow = self_times(Some(("analysis.exact", pause)));
        // Two benchmarks per round, one analysis call each.
        let injected = 2.0 * pause.as_secs_f64();
        for (name, before) in &base {
            let moved = slow[name] - before;
            if *name == "analysis.exact.busy_s" {
                assert!(
                    moved > 0.9 * injected,
                    "{name} moved {moved:.3} s, expected about {injected:.3} s"
                );
            } else {
                assert!(
                    moved.abs() < 0.5 * injected,
                    "{name} moved {moved:.3} s with the delay elsewhere"
                );
            }
        }
    }

    #[test]
    fn traced_run_spans_every_layer_call_and_reports_overhead() {
        for (kind, layers) in [
            (
                Kind::Suite,
                &[
                    "emu.run",
                    "analysis.exact",
                    "predictor.replay",
                    "pipeline.unified",
                    "pipeline.clustered",
                ][..],
            ),
            (Kind::Stream, &["analysis.window", "pipeline.streamed"][..]),
            (Kind::Campaign, &["campaign.run", "store.report"][..]),
        ] {
            let mut t = Tracer::new(true);
            let outcome = run::run(kind, &tiny(), 9, 0.01, &out(), &mut t).unwrap();
            for layer in layers.iter().chain(&["workloads.build"]) {
                assert!(t.spans().iter().any(|s| s.name == *layer), "{kind:?}: no {layer} span");
            }
            let overhead =
                outcome.per_layer().into_iter().find(|m| m.name == "trace.overhead_ratio").unwrap();
            assert!(overhead.value > 0.0, "{kind:?}");
        }
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let m = [Metric { name: "setup_s", unit: "s", value: 0.25 }];
        assert_eq!(json_metrics(&m), "{\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}");
    }
}

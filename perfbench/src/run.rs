//! The measurement loop shared by every workload: repeated set-up, the
//! timed body of whole rounds, the determinism check between rounds, and
//! the end-to-end and per-layer metrics.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::round::Round;
use crate::trace::Tracer;
use crate::{alloc, campaign, stream, suite};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 25;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Per-benchmark study over the 14 enrolled benchmarks.
    Suite,
    /// Long streamed runs (bounded-memory path).
    Stream,
    /// Batch engine on a few-hundred-job grid, store and read-back.
    Campaign,
}

impl Kind {
    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Result<Kind, String> {
        match name {
            "suite" => Ok(Kind::Suite),
            "stream" => Ok(Kind::Stream),
            "campaign" => Ok(Kind::Campaign),
            other => {
                Err(format!("unknown workload `{other}` (expected suite, stream or campaign)"))
            }
        }
    }
}

/// A workload's built inputs.
pub enum Inputs {
    /// See [`suite`].
    Suite(suite::Suite),
    /// See [`stream`].
    Stream(stream::Stream),
    /// See [`campaign`].
    Campaign(Box<campaign::Campaign>),
}

/// Workload sizes; [`Sizes::full`] is the benchmark, tests shrink it.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// `suite` workload.
    pub suite: suite::Config,
    /// `stream` workload.
    pub stream: stream::Config,
    /// `campaign` workload.
    pub campaign: campaign::Config,
}

impl Sizes {
    /// The sizes `BENCHMARK.json`'s workloads run at.
    pub fn full() -> Sizes {
        Sizes {
            suite: suite::Config::full(),
            stream: stream::Config::full(),
            campaign: campaign::Config::full(),
        }
    }
}

impl Inputs {
    /// Builds the inputs of `kind` for `seed`.
    pub fn setup(
        kind: Kind,
        sizes: &Sizes,
        seed: u64,
        out: &Path,
        t: &mut Tracer,
    ) -> Result<Inputs, String> {
        Ok(match kind {
            Kind::Suite => Inputs::Suite(suite::setup(&sizes.suite, seed, t)?),
            Kind::Stream => Inputs::Stream(stream::setup(&sizes.stream, t)?),
            Kind::Campaign => {
                Inputs::Campaign(Box::new(campaign::setup(&sizes.campaign, seed, out, t)?))
            }
        })
    }

    /// One pass over the inputs.
    pub fn round(&self, t: &mut Tracer) -> Round {
        match self {
            Inputs::Suite(w) => w.round(t),
            Inputs::Stream(w) => w.round(t),
            Inputs::Campaign(w) => w.round(t),
        }
    }
}

/// Everything one run measured.
pub struct Outcome {
    /// Operations attempted over the body.
    pub attempted: u64,
    /// Operations failed over the body.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Rounds in the body.
    pub rounds: u64,
    /// Wall time of each set-up.
    pub setups: Vec<Duration>,
    /// `workloads.build` time of each set-up.
    pub builds: Vec<Duration>,
    /// Wall time of the body (rounds and the set-ups between them).
    pub body: Duration,
    /// Wall time of each untraced round.
    pub plain: Vec<Duration>,
    /// Fastest wall time of each piece over the untraced rounds.
    pub fastest_pieces: BTreeMap<(u64, usize), Duration>,
    /// Wall time of each traced round.
    pub traced: Vec<Duration>,
    /// Self time per span name, one map per traced round.
    pub layers: Vec<BTreeMap<&'static str, Duration>>,
    /// Peak live heap during the body, in bytes.
    pub peak_heap: usize,
    /// The first round (its counts repeat in every later round).
    pub first: Round,
}

fn median(mut values: Vec<Duration>) -> Duration {
    values.sort();
    values.get(values.len() / 2).copied().unwrap_or_default()
}

/// The shortest of `values` (zero for none).
fn fastest(values: impl IntoIterator<Item = Duration>) -> Duration {
    values.into_iter().min().unwrap_or_default()
}

/// Folds one untraced round's pieces into the fastest time of each piece.
fn keep_fastest(
    fastest: &mut BTreeMap<(u64, usize), Duration>,
    pieces: &BTreeMap<(u64, usize), Duration>,
) {
    for (&piece, &took) in pieces {
        fastest.entry(piece).and_modify(|f| *f = (*f).min(took)).or_insert(took);
    }
}

/// Runs whole rounds of `kind` until `seconds` have passed. The inputs
/// are set up [`SETUPS`] times, spread evenly over the run: once
/// before the first round, then again (replacing the inputs with
/// identical ones) between rounds, so `setup_s` samples the whole run
/// rather than its first moments. When `t` is enabled, rounds alternate
/// untraced and traced (at least one of each) and spans are kept in `t`.
pub fn run(
    kind: Kind,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    out: &Path,
    t: &mut Tracer,
) -> Result<Outcome, String> {
    let traced = t.enabled();
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut set_up = |t: &mut Tracer| {
        t.set_enabled(traced);
        let mark = t.mark();
        let start = Instant::now();
        let inputs = t.span("setup", 0, |t| Inputs::setup(kind, sizes, seed, out, t));
        setups.push(start.elapsed());
        builds.push(t.self_times(mark).get("workloads.build").copied().unwrap_or_default());
        // Set-up's own leaf calls (program builds) are no round's pieces.
        t.drain_laps(0);
        inputs
    };
    let mut inputs = set_up(t)?;

    alloc::reset_peak();
    let start = Instant::now();
    let mut outcome = Outcome {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        rounds: 0,
        setups: Vec::new(),
        builds: Vec::new(),
        body: Duration::ZERO,
        plain: Vec::new(),
        fastest_pieces: BTreeMap::new(),
        traced: Vec::new(),
        layers: Vec::new(),
        peak_heap: 0,
        first: Round::default(),
    };
    let mut done = 1;
    loop {
        let passes: &[bool] = if traced { &[false, true] } else { &[false] };
        for &with_spans in passes {
            t.set_enabled(with_spans);
            let mark = t.mark();
            let began = Instant::now();
            let round = inputs.round(t);
            let took = began.elapsed();
            if with_spans {
                outcome.traced.push(took);
                outcome.layers.push(t.self_times(mark));
            } else {
                outcome.plain.push(took);
                keep_fastest(&mut outcome.fastest_pieces, &round.pieces);
            }
            absorb(&mut outcome, round);
        }
        let elapsed = start.elapsed().as_secs_f64();
        // Catch up on every set-up due by now; rounds longer than the
        // interval between set-ups leave more than one due.
        while done < SETUPS && elapsed >= seconds * done as f64 / SETUPS as f64 {
            // Drop the previous inputs first so set-ups do not overlap in memory.
            drop(inputs);
            inputs = set_up(t)?;
            done += 1;
        }
        if elapsed >= seconds {
            break;
        }
    }
    outcome.body = start.elapsed();
    outcome.peak_heap = alloc::peak_bytes();
    outcome.setups = setups;
    outcome.builds = builds;
    t.set_enabled(traced);
    Ok(outcome)
}

/// Folds one round into the outcome; a round whose exact counts differ
/// from the first round's counts as one more failed operation.
fn absorb(outcome: &mut Outcome, mut round: Round) {
    if outcome.rounds == 0 {
        outcome.first = round.clone();
    } else if round.counts != outcome.first.counts
        || round.elim_speedup != outcome.first.elim_speedup
        || round.sim_insts != outcome.first.sim_insts
    {
        round.fail(1, format!("round {} counts differ from round 0", outcome.rounds));
    }
    outcome.rounds += 1;
    outcome.attempted += round.attempted;
    outcome.failed += round.failed;
    for e in round.errors {
        if outcome.errors.len() < 8 {
            outcome.errors.push(e);
        }
    }
}

/// One named metric.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Outcome {
    /// Successful operations.
    fn completed(&self) -> u64 {
        self.attempted - self.failed.min(self.attempted)
    }

    /// `failed / attempted`.
    pub fn error_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// One round's host time, piece by piece: each piece's fastest time
    /// over the untraced rounds, summed.
    ///
    /// On a shared host, interference only ever adds time, and it comes
    /// and goes in gaps of milliseconds to minutes. The shorter a timed
    /// piece, the likelier some repetition of it runs in a quiet gap, so
    /// pieces are single layer calls (see [`Round::pieces`]) rather than
    /// whole jobs or rounds.
    pub fn round_estimate(&self) -> Duration {
        self.fastest_pieces.values().sum()
    }

    /// The end-to-end metrics (untraced rounds). Rates are one round's
    /// work over [`Outcome::round_estimate`].
    pub fn end_to_end(&self) -> Vec<Metric> {
        let round_s = self.round_estimate().as_secs_f64();
        let completed_per_round = ratio(self.completed() as f64, self.rounds as f64);
        vec![
            Metric { name: "setup_s", unit: "s", value: median(self.setups.clone()).as_secs_f64() },
            Metric {
                name: "sim_minst_per_s",
                unit: "Minst/s",
                value: ratio(self.first.sim_insts as f64 / 1e6, round_s),
            },
            Metric {
                name: "peak_heap_mb",
                unit: "MiB",
                value: self.peak_heap as f64 / (1024.0 * 1024.0),
            },
            Metric {
                name: "jobs_per_s",
                unit: "jobs/s",
                value: ratio(completed_per_round, round_s),
            },
            Metric { name: "elim_speedup", unit: "ratio", value: self.first.elim_speedup },
        ]
    }

    /// The per-layer metrics (traced rounds): `*_s` times are the fastest
    /// self time of that layer in one traced round; counts are one round's.
    pub fn per_layer(&self) -> Vec<Metric> {
        let per_round = |span: &str| {
            fastest(self.layers.iter().map(|l| l.get(span).copied().unwrap_or_default()))
                .as_secs_f64()
        };
        let c = |name: &str| self.first.count(name) as f64;
        let m = |name, unit, value| Metric { name, unit, value };
        let emu = per_round("emu.run");
        let exact = per_round("analysis.exact");
        let unified = per_round("pipeline.unified");
        let clustered = per_round("pipeline.clustered");
        let report = per_round("store.report");
        let overhead = ratio(
            fastest(self.traced.iter().copied()).as_secs_f64(),
            fastest(self.plain.iter().copied()).as_secs_f64(),
        );
        vec![
            m("workloads.build_s", "s", median(self.builds.clone()).as_secs_f64()),
            m("emu.busy_s", "s", emu),
            m("emu.records", "count", c("emu.records")),
            m("emu.mrec_per_s", "Mrec/s", ratio(c("emu.records") / 1e6, emu)),
            m("emu.stream.peak_resident_bytes", "bytes", c("emu.stream.peak_resident_bytes")),
            m("analysis.exact.busy_s", "s", exact),
            m(
                "analysis.exact.mrec_per_s",
                "Mrec/s",
                ratio(c("analysis.exact.records") / 1e6, exact),
            ),
            m("analysis.window.busy_s", "s", per_round("analysis.window")),
            m("analysis.window.escaped", "count", c("analysis.window.escaped")),
            m("analysis.window.verdict_bytes", "bytes", c("analysis.window.verdict_bytes")),
            m("analysis.dead_frac", "ratio", ratio(c("analysis.dead"), c("analysis.records"))),
            m("predictor.replay.busy_s", "s", per_round("predictor.replay")),
            m(
                "predictor.coverage",
                "ratio",
                ratio(c("predictor.true_positives"), c("predictor.actual_dead")),
            ),
            m(
                "predictor.accuracy",
                "ratio",
                ratio(c("predictor.true_positives"), c("predictor.predicted_dead")),
            ),
            m("pipeline.unified.busy_s", "s", unified),
            m(
                "pipeline.unified.kcycles_per_s",
                "kcycles/s",
                ratio(c("pipeline.unified.cycles") / 1e3, unified),
            ),
            m("pipeline.clustered.busy_s", "s", clustered),
            m(
                "pipeline.clustered.kcycles_per_s",
                "kcycles/s",
                ratio(c("pipeline.clustered.cycles") / 1e3, clustered),
            ),
            m("pipeline.streamed.busy_s", "s", per_round("pipeline.streamed")),
            m("pipeline.cycles", "count", c("pipeline.cycles")),
            m("pipeline.committed", "count", c("pipeline.committed")),
            m("pipeline.eliminated", "count", c("pipeline.eliminated")),
            m(
                "pipeline.violation_frac",
                "ratio",
                ratio(c("pipeline.violations"), c("pipeline.eliminated")),
            ),
            m("pipeline.clustered.steered_dead", "count", c("pipeline.clustered.steered_dead")),
            m("mem.dcache.accesses", "count", c("mem.dcache.accesses")),
            m("mem.dcache.misses", "count", c("mem.dcache.misses")),
            m("mem.dcache.accesses_saved", "count", c("mem.dcache.accesses_saved")),
            m("campaign.busy_s", "s", per_round("campaign.run")),
            m("campaign.jobs_unique", "count", c("campaign.jobs_unique")),
            m(
                "campaign.dedup_frac",
                "ratio",
                ratio(c("campaign.jobs_deduped"), c("campaign.jobs_total")),
            ),
            m(
                "fixture.hit_frac",
                "ratio",
                ratio(c("fixture.hits"), c("fixture.hits") + c("fixture.misses")),
            ),
            m("fixture.misses", "count", c("fixture.misses")),
            m("store.bytes", "bytes", c("store.bytes")),
            m("store.report_s", "s", report),
            m("harness.self_s", "s", per_round("round") + per_round("job")),
            m("trace.overhead_ratio", "ratio", overhead),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keep_fastest_keeps_each_pieces_fastest_time() {
        let ms = Duration::from_millis;
        let mut fastest = BTreeMap::new();
        keep_fastest(&mut fastest, &[((0, 0), ms(5)), ((0, 1), ms(9))].into());
        keep_fastest(&mut fastest, &[((0, 0), ms(7)), ((0, 1), ms(4))].into());
        // No round took 9 ms, but each piece's fastest sums to it.
        assert_eq!(fastest.values().sum::<Duration>(), ms(9));
    }
}

//! `stream`: long runs through the bounded-memory streaming path.
//!
//! For each program (expr and matmul, several million records each) the
//! round runs `analyze_streamed` once, then `run_streamed` over a fresh
//! `TraceStream` twice on the contended machine — elimination off and CFI
//! elimination — at the default epoch length. Only the unified loop runs.

use dide::{find_workload, Machine, OptLevel};
use dide_analysis::DeadnessAnalysis;
use dide_emu::{TraceStream, DEFAULT_EPOCH_LEN};
use dide_isa::Program;
use dide_pipeline::{Core, DeadElimConfig};

use crate::round::{geomean, guarded, Round};
use crate::suite::{check, tally};
use crate::trace::Tracer;

/// Which programs, at which scales, with which epoch length.
#[derive(Debug, Clone)]
pub struct Config {
    /// `(benchmark, scale)` pairs.
    pub programs: Vec<(&'static str, u32)>,
    /// Records per epoch.
    pub epoch: usize,
}

impl Config {
    /// The benchmark's `stream` workload.
    pub fn full() -> Config {
        Config { programs: vec![("expr", 8), ("matmul", 16)], epoch: DEFAULT_EPOCH_LEN }
    }
}

/// Built inputs of the `stream` workload.
pub struct Stream {
    programs: Vec<(&'static str, Program)>,
    epoch: usize,
}

/// Builds every program.
pub fn setup(config: &Config, t: &mut Tracer) -> Result<Stream, String> {
    let mut programs = Vec::new();
    for (job, &(name, scale)) in config.programs.iter().enumerate() {
        let spec = find_workload(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
        let program = t.span("workloads.build", job as u64, |_| spec.build(OptLevel::O2, scale));
        programs.push((spec.name, program));
    }
    Ok(Stream { programs, epoch: config.epoch })
}

impl Stream {
    /// One windowed analysis and two streamed simulations per program,
    /// each its own job (so each is timed on its own).
    pub fn round(&self, t: &mut Tracer) -> Round {
        let mut round = Round::default();
        let mut speedups = Vec::new();
        t.span("round", 0, |t| {
            for (index, (name, program)) in self.programs.iter().enumerate() {
                let job = 3 * index as u64;
                round.attempted += 2;
                let mut analyzed = None;
                round.job(t, job, |round, t| {
                    let result = guarded(t, |t| {
                        t.span("analysis.window", job, |_| {
                            DeadnessAnalysis::analyze_streamed(program, self.epoch)
                        })
                        .map_err(|e| format!("emulation failed: {e}"))
                    });
                    match result {
                        Ok(deadness) => {
                            round.add("analysis.records", deadness.stats().total);
                            round.add("analysis.dead", deadness.stats().dead_total);
                            round.add("analysis.window.escaped", deadness.escaped());
                            round.max(
                                "analysis.window.verdict_bytes",
                                std::mem::size_of_val(deadness.verdicts()) as u64,
                            );
                            analyzed = Some(deadness);
                        }
                        Err(e) => round.fail(2, format!("{name}: {e}")),
                    }
                });
                let Some(deadness) = analyzed else { continue };
                let records = deadness.len() as u64;
                let mut cycles = [0u64; 2];
                for (i, eliminate) in [false, true].into_iter().enumerate() {
                    let job = job + 1 + i as u64;
                    let mut config = Machine::Contended.base_config();
                    if eliminate {
                        config = config.with_elimination(DeadElimConfig::default());
                    }
                    round.job(t, job, |round, t| {
                        let run = guarded(t, |t| {
                            let mut stream = TraceStream::new(program, self.epoch);
                            let stats = t.span("pipeline.streamed", job, |_| {
                                Core::new(config).run_streamed(&mut stream, &deadness)
                            });
                            check(&stats, records)?;
                            if stream.total_len() != Some(records) {
                                return Err(format!(
                                    "stream length {:?} != analyzed {records}",
                                    stream.total_len()
                                ));
                            }
                            if stream.outputs() != deadness.outputs() {
                                return Err(
                                    "streamed outputs differ from the analysis pass".to_string()
                                );
                            }
                            Ok((stats, stream.peak_resident_bytes()))
                        });
                        match run {
                            Ok((stats, peak)) => {
                                cycles[i] = stats.cycles;
                                round.add("emu.records", records);
                                round.max("emu.stream.peak_resident_bytes", peak);
                                tally(round, "pipeline.streamed.cycles", &stats);
                            }
                            Err(e) => round.fail(1, format!("{name} streamed: {e}")),
                        }
                    });
                }
                if cycles[0] > 0 && cycles[1] > 0 {
                    speedups.push(cycles[0] as f64 / cycles[1] as f64);
                }
            }
        });
        round.elim_speedup = geomean(&speedups);
        round
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_epoch_round_is_clean_and_repeats() {
        let config = Config { programs: vec![("expr", 1), ("matmul", 2)], epoch: 4096 };
        let mut t = Tracer::new(true);
        let s = setup(&config, &mut t).unwrap();
        let from = t.mark();
        let a = s.round(&mut t);
        assert_eq!((a.attempted, a.failed), (4, 0), "{:?}", a.errors);
        assert!(a.count("analysis.window.verdict_bytes") > 0);
        assert!(a.count("emu.stream.peak_resident_bytes") > 0);
        let names: Vec<&str> = t.spans()[from..].iter().map(|s| s.name).collect();
        assert_eq!(names.iter().filter(|n| **n == "analysis.window").count(), 2);
        assert_eq!(names.iter().filter(|n| **n == "pipeline.streamed").count(), 4);
        let b = s.round(&mut t);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.elim_speedup, b.elim_speedup);
    }
}

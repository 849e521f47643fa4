//! `suite`: the paper's per-benchmark study, one benchmark at a time.
//!
//! Every enrolled benchmark (the 11 suite programs and the 3 `.asm` ones,
//! at O2) is emulated, analyzed exactly, replayed through the CFI dead
//! predictor, and simulated three ways: contended with elimination off,
//! contended with CFI elimination, and the clustered machine (2 clusters,
//! bypass 2, dead steering) with CFI elimination. Single thread; the seed
//! chooses the job order.

use dide::{asm_suite, suite, Machine, OptLevel, WorkloadSpec};
use dide_analysis::DeadnessAnalysis;
use dide_emu::{Emulator, Trace};
use dide_isa::Program;
use dide_obs::check_rules;
use dide_pipeline::{Core, DeadElimConfig, PipelineConfig, PipelineStats};
use dide_predictor::branch::Gshare;
use dide_predictor::dead::{evaluate, CfiConfig, CfiDeadPredictor};

use crate::round::{geomean, guarded, splitmix, Round};
use crate::trace::Tracer;

/// Which benchmarks, at which scale.
#[derive(Debug, Clone)]
pub struct Config {
    /// Benchmark names (suite or `.asm`).
    pub benchmarks: Vec<&'static str>,
    /// Workload scale for every benchmark.
    pub scale: u32,
}

impl Config {
    /// The benchmark's `suite` workload.
    pub fn full() -> Config {
        Config { benchmarks: enrolled().iter().map(|s| s.name).collect(), scale: 1 }
    }
}

fn enrolled() -> Vec<WorkloadSpec> {
    suite().into_iter().chain(asm_suite()).collect()
}

/// The three simulations of every benchmark: span name, the exact count
/// its cycles add to, machine, whether CFI elimination is on.
const SIMULATIONS: [(&str, &str, Machine, bool); 3] = [
    ("pipeline.unified", "pipeline.unified.cycles", Machine::Contended, false),
    ("pipeline.unified", "pipeline.unified.cycles", Machine::Contended, true),
    ("pipeline.clustered", "pipeline.clustered.cycles", Machine::Clustered, true),
];

/// Built inputs of the `suite` workload.
pub struct Suite {
    programs: Vec<(&'static str, Program)>,
    order: Vec<usize>,
}

fn build(config: &Config, t: &mut Tracer) -> Result<Vec<(&'static str, Program)>, String> {
    let specs = enrolled();
    let mut programs = Vec::new();
    for (job, name) in config.benchmarks.iter().enumerate() {
        let spec = specs
            .iter()
            .find(|s| s.name == *name)
            .ok_or_else(|| format!("unknown benchmark `{name}`"))?;
        let program =
            t.span("workloads.build", job as u64, |_| spec.build(OptLevel::O2, config.scale));
        programs.push((spec.name, program));
    }
    Ok(programs)
}

/// Builds every program and draws the job order from `seed`.
pub fn setup(config: &Config, seed: u64, t: &mut Tracer) -> Result<Suite, String> {
    let mut order: Vec<usize> = (0..config.benchmarks.len()).collect();
    let mut state = seed;
    for i in (1..order.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    Ok(Suite { programs: build(config, t)?, order })
}

fn machine(machine: Machine, eliminate: bool) -> PipelineConfig {
    let base = machine.base_config();
    if eliminate {
        base.with_elimination(DeadElimConfig::default())
    } else {
        base
    }
}

/// Emulates, analyzes exactly and replays the CFI predictor.
fn prepare(
    program: &Program,
    job: u64,
    round: &mut Round,
    t: &mut Tracer,
) -> Result<(Trace, DeadnessAnalysis), String> {
    let trace = t
        .span("emu.run", job, |_| Emulator::new(program).run())
        .map_err(|e| format!("emulation failed: {e}"))?;
    let analysis = t.span("analysis.exact", job, |_| DeadnessAnalysis::analyze(&trace));
    let config = PipelineConfig::contended();
    let report = t.span("predictor.replay", job, |_| {
        let mut predictor = CfiDeadPredictor::new(CfiConfig::default());
        let mut branch = Gshare::new(config.gshare_history_bits, config.gshare_log2_entries);
        evaluate(&trace, &analysis, &mut predictor, &mut branch, config.dead.lookahead)
    });
    let records = trace.len() as u64;
    round.add("emu.records", records);
    round.add("analysis.exact.records", records);
    round.add("analysis.records", analysis.stats().total);
    round.add("analysis.dead", analysis.stats().dead_total);
    round.add("predictor.actual_dead", report.actual_dead);
    round.add("predictor.predicted_dead", report.predicted_dead);
    round.add("predictor.true_positives", report.true_positives);
    Ok((trace, analysis))
}

/// Tallies one simulate call's counters into the round.
pub fn tally(round: &mut Round, cycles_key: &'static str, stats: &PipelineStats) {
    round.add(cycles_key, stats.cycles);
    round.add("pipeline.cycles", stats.cycles);
    round.add("pipeline.committed", stats.committed);
    round.add("pipeline.eliminated", stats.dead_predicted);
    round.add("pipeline.violations", stats.dead_violations);
    round.add("pipeline.clustered.steered_dead", stats.steer.dead + stats.steer.squashed);
    round.add("mem.dcache.accesses", stats.memory.l1d.accesses);
    round.add("mem.dcache.misses", stats.memory.l1d.misses);
    round.add("mem.dcache.accesses_saved", stats.savings.dcache_accesses_saved);
    round.sim_insts += stats.committed;
}

/// The output checks of one simulate call: the run's conservation rules
/// and `committed == emulated records`.
pub fn check(stats: &PipelineStats, records: u64) -> Result<(), String> {
    let violations = check_rules(
        &PipelineStats::conservation_rules_for(stats.clusters.len()),
        &stats.counters(),
    );
    if let Some(first) = violations.first() {
        return Err(format!("conservation rule violated: {first}"));
    }
    if stats.committed != records {
        return Err(format!("committed {} != emulated records {records}", stats.committed));
    }
    Ok(())
}

impl Suite {
    /// One pass over every benchmark, in the seed's order.
    pub fn round(&self, t: &mut Tracer) -> Round {
        let mut round = Round::default();
        let mut speedups = Vec::new();
        t.span("round", 0, |t| {
            for &index in &self.order {
                let (name, program) = &self.programs[index];
                let job = index as u64;
                round.job(t, job, |round, t| {
                    round.attempted += SIMULATIONS.len() as u64;
                    let prepared = guarded(t, |t| prepare(program, job, round, t));
                    let (trace, analysis) = match prepared {
                        Ok(prepared) => prepared,
                        Err(e) => {
                            return round.fail(SIMULATIONS.len() as u64, format!("{name}: {e}"))
                        }
                    };
                    let mut cycles = [0u64; SIMULATIONS.len()];
                    for (i, &(layer, cycles_key, machine_kind, eliminate)) in
                        SIMULATIONS.iter().enumerate()
                    {
                        let config = machine(machine_kind, eliminate);
                        let run = guarded(t, |t| {
                            let stats =
                                t.span(layer, job, |_| Core::new(config).run(&trace, &analysis));
                            check(&stats, trace.len() as u64).map(|()| stats)
                        });
                        match run {
                            Ok(stats) => {
                                cycles[i] = stats.cycles;
                                tally(round, cycles_key, &stats);
                            }
                            Err(e) => round.fail(1, format!("{name} {layer}: {e}")),
                        }
                    }
                    if cycles[0] > 0 && cycles[1] > 0 {
                        speedups.push(cycles[0] as f64 / cycles[1] as f64);
                    }
                });
            }
        });
        round.elim_speedup = geomean(&speedups);
        round
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> Config {
        Config { benchmarks: vec!["expr", "strsearch"], scale: 1 }
    }

    #[test]
    fn enrolls_all_fourteen_benchmarks() {
        assert_eq!(Config::full().benchmarks.len(), 14);
    }

    #[test]
    fn seed_changes_the_order_but_not_the_counts() {
        let config = Config { benchmarks: vec!["expr", "strsearch", "prime", "netflow"], scale: 1 };
        let mut t = Tracer::new(false);
        let a = setup(&config, 1, &mut t).unwrap();
        let b = setup(&config, 12345, &mut t).unwrap();
        assert_ne!(a.order, b.order, "seeds 1 and 12345 draw the same order");
        let (ra, rb) = (a.round(&mut t), b.round(&mut t));
        assert_eq!(ra.failed, 0, "{:?}", ra.errors);
        assert_eq!(ra.counts, rb.counts);
        assert_eq!(ra.elim_speedup, rb.elim_speedup);
    }

    #[test]
    fn a_round_runs_every_layer_once_per_benchmark() {
        let mut t = Tracer::new(true);
        let s = setup(&smoke(), 7, &mut t).unwrap();
        let from = t.mark();
        let r = s.round(&mut t);
        assert_eq!((r.attempted, r.failed), (6, 0), "{:?}", r.errors);
        let names: Vec<&str> = t.spans()[from..].iter().map(|s| s.name).collect();
        for layer in ["emu.run", "analysis.exact", "predictor.replay"] {
            assert_eq!(names.iter().filter(|n| **n == layer).count(), 2, "{layer}");
        }
        assert_eq!(names.iter().filter(|n| **n == "pipeline.unified").count(), 4);
        assert_eq!(names.iter().filter(|n| **n == "pipeline.clustered").count(), 2);
        assert_eq!(r.count("pipeline.committed"), 3 * r.count("emu.records"));
        assert!(r.elim_speedup > 0.0);
    }
}

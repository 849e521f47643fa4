//! Streamed-vs-exact differential layer.
//!
//! The windowed streaming analysis ([`DeadnessAnalysis::analyze_streamed`])
//! and the streaming pipeline pass ([`Core::run_streamed`]) promise three
//! relations against the materializing path, checked here on every fuzz
//! seed across an epoch-length sweep (1-record epochs, a prime that never
//! divides the trace, the production default, and one whole-trace epoch):
//!
//! * **Soundness** — a streamed-dead verdict implies the exact verdict,
//!   with the same [`DeadKind`](dide_analysis::DeadKind); the dead-count
//!   gap is exactly the number of verdicts the window conservatively gave
//!   up, and outputs are identical to the materialized trace's.
//! * **Single-epoch exactness** — with the whole trace in one epoch, the
//!   streamed verdicts, statistics and outputs are bit-identical to the
//!   exact analysis.
//! * **Pipeline equivalence** — with elimination off the verdict vector is
//!   never consulted, so the streamed cycle loop must produce bit-identical
//!   statistics to the materialized one at *every* epoch length; with
//!   oracle elimination the same holds for the single-epoch stream (whose
//!   verdicts equal the exact oracle's). The campaign's clustered machine
//!   (2 clusters, bypass 2, dead steering) is held to the same single-epoch
//!   identity, since its CFI predictor trains on the verdicts.

use dide_analysis::DeadnessAnalysis;
use dide_emu::{Trace, TraceStream};
use dide_isa::Program;
use dide_pipeline::{ClusterConfig, Core, DeadElimConfig, PipelineConfig, SteerPolicy};

/// Epoch lengths swept per seed: degenerate (1), a prime small enough to
/// straddle every loop body, and the CLI default. A whole-trace epoch is
/// added dynamically.
const EPOCH_SWEEP: [usize; 3] = [1, 7, 65_536];

/// Runs the streaming differential checks for one program against its
/// materialized trace and exact analysis. Returns one message per violated
/// relation; empty means the streaming paths agree with the materializing
/// ones everywhere the contract says they must.
#[must_use]
pub fn check_streaming(
    program: &Program,
    trace: &Trace,
    analysis: &DeadnessAnalysis,
) -> Vec<String> {
    let mut violations = Vec::new();
    let whole = trace.len().max(1);
    for epoch_len in EPOCH_SWEEP.into_iter().chain([whole]) {
        check_analysis_at(program, trace, analysis, epoch_len, &mut violations);
    }
    check_pipeline_equivalence(program, trace, analysis, &mut violations);
    violations
}

/// Verdict soundness and output equality at one epoch length.
fn check_analysis_at(
    program: &Program,
    trace: &Trace,
    analysis: &DeadnessAnalysis,
    epoch_len: usize,
    violations: &mut Vec<String>,
) {
    let streamed = match DeadnessAnalysis::analyze_streamed(program, epoch_len) {
        Ok(s) => s,
        Err(e) => {
            violations.push(format!("epoch {epoch_len}: streamed analysis failed: {e}"));
            return;
        }
    };
    if streamed.len() != trace.len() {
        violations.push(format!(
            "epoch {epoch_len}: streamed trace length {} != materialized {}",
            streamed.len(),
            trace.len()
        ));
        return;
    }
    if streamed.outputs() != trace.outputs() {
        violations.push(format!(
            "epoch {epoch_len}: streamed outputs {:?} != materialized {:?}",
            streamed.outputs(),
            trace.outputs()
        ));
    }
    let mut dead_gap = 0u64;
    for seq in 0..trace.len() as u64 {
        let s = streamed.verdict(seq);
        let e = analysis.verdict(seq);
        if s.is_eligible() != e.is_eligible() {
            violations.push(format!(
                "epoch {epoch_len}: seq {seq} eligibility diverged (streamed {s:?}, exact {e:?})"
            ));
        }
        if s.is_dead() && s != e {
            violations.push(format!(
                "epoch {epoch_len}: seq {seq} unsound verdict: streamed {s:?}, exact {e:?}"
            ));
        }
        if !s.is_dead() && e.is_dead() {
            dead_gap += 1;
        }
    }
    if streamed.stats().dead_total + dead_gap != analysis.stats().dead_total {
        violations.push(format!(
            "epoch {epoch_len}: dead accounting broken: streamed {} + gap {dead_gap} != exact {}",
            streamed.stats().dead_total,
            analysis.stats().dead_total
        ));
    }
    if epoch_len >= trace.len() {
        // Whole trace in one epoch: bit-identical to the exact pass.
        if streamed.verdicts() != analysis.verdicts() {
            violations.push(format!("epoch {epoch_len}: single-epoch verdicts differ from exact"));
        }
        if streamed.stats() != analysis.stats() {
            violations.push(format!(
                "epoch {epoch_len}: single-epoch stats differ: {:?} vs {:?}",
                streamed.stats(),
                analysis.stats()
            ));
        }
        if streamed.escaped() != 0 {
            violations.push(format!(
                "epoch {epoch_len}: single-epoch run reported {} escapes",
                streamed.escaped()
            ));
        }
    }
}

/// Streamed-vs-materialized cycle-loop equality where the contract demands
/// bit identity.
fn check_pipeline_equivalence(
    program: &Program,
    trace: &Trace,
    analysis: &DeadnessAnalysis,
    violations: &mut Vec<String>,
) {
    let whole = trace.len().max(1);
    // Elimination off: verdicts are never consulted, so every epoch length
    // must reproduce the materialized statistics exactly.
    let base_core = Core::new(PipelineConfig::baseline());
    let base = base_core.run(trace, analysis);
    for epoch_len in [7usize, whole] {
        let Ok(sd) = DeadnessAnalysis::analyze_streamed(program, epoch_len) else {
            return; // already reported by the analysis sweep
        };
        let mut stream = TraceStream::new(program, epoch_len);
        let streamed = base_core.run_streamed(&mut stream, &sd);
        if streamed != base {
            violations.push(format!(
                "epoch {epoch_len}: elimination-off streamed pipeline diverged \
                 ({} vs {} cycles)",
                streamed.cycles, base.cycles
            ));
        }
    }
    // Oracle elimination, single epoch: streamed verdicts equal the exact
    // oracle's, so the streamed run must be bit-identical.
    let oracle_core = Core::new(
        PipelineConfig::baseline()
            .with_elimination(DeadElimConfig { oracle: true, ..DeadElimConfig::default() }),
    );
    let oracle = oracle_core.run(trace, analysis);
    let Ok(sd) = DeadnessAnalysis::analyze_streamed(program, whole) else {
        return;
    };
    let mut stream = TraceStream::new(program, whole);
    let streamed = oracle_core.run_streamed(&mut stream, &sd);
    if streamed != oracle {
        violations.push(format!(
            "single-epoch oracle-elimination streamed pipeline diverged \
             ({} vs {} cycles, {} vs {} eliminated)",
            streamed.cycles, oracle.cycles, streamed.dead_predicted, oracle.dead_predicted
        ));
    }
    // Multi-epoch oracle elimination: verdicts are conservative, not equal,
    // so only the architectural contract holds — everything commits.
    check_commits_everything(program, trace, &oracle_core, "oracle-elimination", violations);

    // The clustered loop reads records through the same source seam; its
    // dead-steering predictor trains on the verdicts, so only the
    // single-epoch stream must reproduce the materialized run exactly.
    let clustered_core = Core::new(PipelineConfig::contended().with_cluster(ClusterConfig {
        clusters: 2,
        bypass_penalty: 2,
        steer: SteerPolicy::DeadSteer,
    }));
    let clustered = clustered_core.run(trace, analysis);
    let mut stream = TraceStream::new(program, whole);
    let streamed = clustered_core.run_streamed(&mut stream, &sd);
    if streamed != clustered {
        violations.push(format!(
            "single-epoch clustered streamed pipeline diverged \
             ({} vs {} cycles, {} vs {} steered dead)",
            streamed.cycles, clustered.cycles, streamed.steer.dead, clustered.steer.dead
        ));
    }
    check_commits_everything(program, trace, &clustered_core, "clustered", violations);
}

/// An epoch-7 streamed run of `core` must commit every record and hold
/// every pipeline invariant.
fn check_commits_everything(
    program: &Program,
    trace: &Trace,
    core: &Core,
    label: &str,
    violations: &mut Vec<String>,
) {
    let Ok(sd) = DeadnessAnalysis::analyze_streamed(program, 7) else {
        return;
    };
    let mut stream = TraceStream::new(program, 7);
    let streamed = core.run_streamed(&mut stream, &sd);
    if streamed.committed != trace.len() as u64 {
        violations.push(format!(
            "epoch 7: {label} streamed run committed {} of {}",
            streamed.committed,
            trace.len()
        ));
    }
    for v in streamed.invariant_violations() {
        violations.push(format!("epoch 7: {label} streamed run: {v}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ReferenceOracle;
    use dide_analysis::{DeadKind, Verdict};
    use dide_emu::Emulator;
    use dide_isa::{ProgramBuilder, Reg};
    use dide_workloads::{random_program, GenConfig};

    #[test]
    fn random_programs_pass_the_streaming_differential() {
        for seed in [0u64, 9, 23] {
            let p = random_program(seed, &GenConfig::default());
            let t = Emulator::new(&p).run().unwrap();
            let a = DeadnessAnalysis::analyze(&t);
            let v = check_streaming(&p, &t, &a);
            assert!(v.is_empty(), "seed {seed}: {v:?}");
        }
    }

    /// The three epoch-boundary fixtures below pin the conservative-escape
    /// semantics record by record against both exact oracles (the
    /// production analysis and the naive [`ReferenceOracle`]), with the
    /// epoch boundary placed exactly on the interesting edge.

    #[test]
    fn killing_overwrite_across_the_boundary_escapes() {
        // seq 0 writes t0; the killing overwrite (seq 2) lands in the next
        // 2-record epoch. Exact: seq 0 is RegOverwritten-dead. Streamed:
        // seq 0 is still pending at the boundary, escapes, stays Useful.
        let mut b = ProgramBuilder::new("kill-across");
        b.li(Reg::T0, 1); // seq 0: epoch 0
        b.nop(); // seq 1: epoch 0
        b.li(Reg::T0, 2); // seq 2: epoch 1 — the killing overwrite
        b.out(Reg::T0); // seq 3
        b.halt(); // seq 4
        let p = b.build().unwrap();
        let t = Emulator::new(&p).run().unwrap();
        let exact = DeadnessAnalysis::analyze(&t);
        let naive = ReferenceOracle::analyze(&t);
        assert_eq!(exact.verdict(0), Verdict::Dead(DeadKind::RegOverwritten));
        assert_eq!(naive.verdict(0), exact.verdict(0), "oracles must agree on the fixture");

        let split = DeadnessAnalysis::analyze_streamed(&p, 2).unwrap();
        assert_eq!(split.verdict(0), Verdict::Useful, "pending value must escape");
        // seq 0 escapes at its boundary — and so does seq 2, whose own
        // epoch also closes (the halt epoch follows) while t0 is pending.
        assert_eq!(split.escaped(), 2);
        assert_eq!(split.stats().dead_total + 1, exact.stats().dead_total);

        let whole = DeadnessAnalysis::analyze_streamed(&p, 64).unwrap();
        assert_eq!(whole.verdicts(), exact.verdicts());
        assert!(check_streaming(&p, &t, &exact).is_empty());
    }

    #[test]
    fn last_read_across_the_boundary_keeps_the_value_useful() {
        // The only read of seq 0 sits in the next epoch. Both paths call
        // the value Useful — exactly because the escape is conservative:
        // dropping the cross-epoch read edge must never create deadness.
        let mut b = ProgramBuilder::new("read-across");
        b.li(Reg::T0, 5); // seq 0: epoch 0
        b.nop(); // seq 1: epoch 0
        b.out(Reg::T0); // seq 2: epoch 1 — the last (only) read
        b.halt(); // seq 3
        let p = b.build().unwrap();
        let t = Emulator::new(&p).run().unwrap();
        let exact = DeadnessAnalysis::analyze(&t);
        let naive = ReferenceOracle::analyze(&t);
        assert_eq!(exact.verdict(0), Verdict::Useful);
        assert_eq!(naive.verdict(0), Verdict::Useful);

        let split = DeadnessAnalysis::analyze_streamed(&p, 2).unwrap();
        assert_eq!(split.verdict(0), Verdict::Useful);
        assert_eq!(split.escaped(), 1, "the pending register escapes at the boundary");
        assert_eq!(split.stats().dead_total, exact.stats().dead_total);
        assert!(check_streaming(&p, &t, &exact).is_empty());
    }

    #[test]
    fn partial_store_overlap_across_the_boundary() {
        // An 8-byte store straddles the boundary two ways: a 4-byte load
        // reads its low half (cross-epoch read edge) and two 4-byte stores
        // then kill it completely. Exact: the doubleword store is read, so
        // it is Useful; the two killing stores die unread. Streamed with
        // 2-record epochs: the straddling store escapes (same Useful
        // verdict via conservatism), and the killing stores — whose bytes
        // are still visible when their own non-final epochs close — escape
        // too, losing their StoreUnread verdicts soundly (never the other
        // direction).
        let mut b = ProgramBuilder::new("partial-across");
        b.li(Reg::T0, 0x1122_3344); // seq 0: epoch 0
        b.sd(Reg::T0, Reg::SP, -8); // seq 1: epoch 0 — 8 bytes pending
        b.lw(Reg::T1, Reg::SP, -8); // seq 2: epoch 1 — reads the low 4
        b.sw(Reg::T0, Reg::SP, -8); // seq 3: kills the low half, unread
        b.sw(Reg::T0, Reg::SP, -4); // seq 4: kills the high half, unread
        b.out(Reg::T1); // seq 5
        b.halt(); // seq 6
        let p = b.build().unwrap();
        let t = Emulator::new(&p).run().unwrap();
        let exact = DeadnessAnalysis::analyze(&t);
        let naive = ReferenceOracle::analyze(&t);
        assert_eq!(exact.verdict(1), Verdict::Useful, "the straddling store is read");
        assert_eq!(exact.verdict(3), Verdict::Dead(DeadKind::StoreUnread));
        assert_eq!(exact.verdict(4), Verdict::Dead(DeadKind::StoreUnread));
        for seq in 0..t.len() as u64 {
            assert_eq!(naive.verdict(seq), exact.verdict(seq), "seq {seq}");
        }

        let split = DeadnessAnalysis::analyze_streamed(&p, 2).unwrap();
        assert_eq!(split.verdict(1), Verdict::Useful);
        assert_eq!(split.verdict(3), Verdict::Useful, "pending bytes escape at the boundary");
        assert_eq!(split.verdict(4), Verdict::Useful, "pending bytes escape at the boundary");
        assert!(split.escaped() >= 3, "all three stores must escape (got {})", split.escaped());
        assert_eq!(
            split.stats().dead_total + 2,
            exact.stats().dead_total,
            "exactly the two escaped killing stores are missed"
        );

        // A whole-trace epoch sees program end before any boundary, so the
        // killing stores get their exact StoreUnread verdicts back.
        let whole = DeadnessAnalysis::analyze_streamed(&p, 64).unwrap();
        assert_eq!(whole.verdicts(), exact.verdicts());
        assert!(check_streaming(&p, &t, &exact).is_empty());
    }
}

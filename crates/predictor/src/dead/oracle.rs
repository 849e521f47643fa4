//! Oracle dead predictor for limit studies.

use dide_analysis::DeadnessAnalysis;

use super::{DeadPredictor, PredictInput};
use crate::budget::StateBudget;

/// A perfect dead predictor: answers from the oracle deadness analysis.
///
/// Used as the coverage/accuracy upper bound in predictor studies and as
/// the "perfect elimination" limit in the pipeline (experiments E6–E9
/// report it as the `oracle` row).
#[derive(Debug, Clone)]
pub struct OracleDeadPredictor {
    dead_by_seq: Vec<bool>,
}

impl OracleDeadPredictor {
    /// Builds the oracle from an analysis of the trace that will be
    /// predicted.
    #[must_use]
    pub fn new(analysis: &DeadnessAnalysis) -> OracleDeadPredictor {
        OracleDeadPredictor {
            dead_by_seq: analysis.verdicts().iter().map(|v| v.is_dead()).collect(),
        }
    }
}

impl DeadPredictor for OracleDeadPredictor {
    fn predict(&mut self, input: &PredictInput) -> bool {
        self.dead_by_seq.get(input.seq as usize).copied().unwrap_or(false)
    }

    fn train(&mut self, _input: &PredictInput, _was_dead: bool) {}

    fn budget(&self) -> StateBudget {
        StateBudget::from_bits(0)
    }

    fn name(&self) -> String {
        "oracle".to_string()
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::future::CfSignature;
    use dide_emu::Emulator;
    use dide_isa::{ProgramBuilder, Reg};

    #[test]
    fn oracle_reports_exact_deadness() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 1); // dead
        b.li(Reg::T0, 2); // useful
        b.out(Reg::T0);
        b.halt();
        let trace = Emulator::new(&b.build().unwrap()).run().unwrap();
        let analysis = DeadnessAnalysis::analyze(&trace);
        let mut o = OracleDeadPredictor::new(&analysis);
        let at = |seq| PredictInput { seq, static_index: 0, signature: CfSignature::empty() };
        assert!(o.predict(&at(0)));
        assert!(!o.predict(&at(1)));
        assert!(!o.predict(&at(99)), "out of range predicts useful");
        assert_eq!(o.budget().bits(), 0);
    }
}

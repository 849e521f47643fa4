//! Dead-instruction elimination state shared by both cycle loops: the dead
//! predictor consulted at rename, and the store shadow behind the
//! eliminated-store violation check.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use dide_analysis::Verdict;
use dide_emu::{MemAccess, PagedShadow};
use dide_predictor::dead::{CfiDeadPredictor, DeadPredictor, PredictInput};

use crate::config::DeadElimConfig;

/// The dead predictor a run consults, dispatched statically: the loops
/// call it once per renamed and once per committed eligible instruction.
#[derive(Debug)]
pub(crate) enum Predictor<'v> {
    /// The paper's control-flow-indexed predictor.
    Cfi(CfiDeadPredictor),
    /// Perfect prediction: answers from the run's oracle verdicts (an
    /// out-of-range `seq` predicts useful). Training is a no-op.
    Oracle(&'v [Verdict]),
}

impl<'v> Predictor<'v> {
    /// The predictor `dead` selects, answering from `verdicts` if it is
    /// the oracle.
    pub(crate) fn new(dead: &DeadElimConfig, verdicts: &'v [Verdict]) -> Predictor<'v> {
        if dead.oracle {
            Predictor::Oracle(verdicts)
        } else {
            Predictor::Cfi(CfiDeadPredictor::new(dead.predictor))
        }
    }

    /// Whether the instruction described by `input` is predicted dead.
    #[inline]
    pub(crate) fn predict(&mut self, input: &PredictInput) -> bool {
        match self {
            Predictor::Cfi(cfi) => cfi.predict(input),
            Predictor::Oracle(verdicts) => {
                verdicts.get(input.seq as usize).is_some_and(|v| v.is_dead())
            }
        }
    }

    /// Trains on a committed instruction's true outcome.
    #[inline]
    pub(crate) fn train(&mut self, input: &PredictInput, was_dead: bool) {
        if let Predictor::Cfi(cfi) = self {
            cfi.train(input, was_dead);
        }
    }
}

/// Set in a shadow cell whose store was eliminated. Sequence numbers stay
/// far below 2^63, so the bit never collides with one.
const ELIMINATED: u64 = 1 << 63;

/// The core's rename-order store shadow: the last store to claim each
/// byte, plus the eliminated stores a later load can still trip over.
///
/// This is the core's own producer tracking for the eliminated-store
/// violation check, so the streamed path needs no retained producer table
/// from the analysis. A load can reach an eliminated store only through a
/// byte the shadow still names it for, so an eliminated store is forgotten
/// once later stores have overwritten all of its bytes: the set is bounded
/// by the live memory footprint, not by the number of eliminated stores.
#[derive(Debug, Default)]
pub(crate) struct StoreShadow {
    /// Per byte: the last store to claim it as `seq + 1` (0 = none), with
    /// [`ELIMINATED`] set if that store was eliminated.
    bytes: PagedShadow<u64>,
    /// Eliminated stores not yet tripped over, each with the number of
    /// bytes `bytes` still names it for.
    eliminated: HashMap<u64, u8>,
}

impl StoreShadow {
    /// Whether any eliminated store can still be tripped over. Lets
    /// elimination-off runs skip the shadow probe on every load.
    #[inline]
    pub(crate) fn has_eliminated(&self) -> bool {
        !self.eliminated.is_empty()
    }

    /// Marks `seq` as the last store to claim each byte of `mem`, and, if
    /// it was `eliminated`, as a store later loads can trip over.
    pub(crate) fn claim_store_bytes(&mut self, seq: u64, mem: MemAccess, eliminated: bool) {
        let len = mem.width.bytes();
        let claimed = (seq + 1) | if eliminated { ELIMINATED } else { 0 };
        if !PagedShadow::<u64>::crosses_page(mem.addr, len) {
            let cells = self.bytes.span_mut(mem.addr, len);
            if !self.eliminated.is_empty() {
                // Runs of one previous owner cost one map probe.
                let mut run = (0u64, 0u8);
                for &cell in cells.iter() {
                    if cell == run.0 {
                        run.1 += 1;
                    } else {
                        forget_bytes(&mut self.eliminated, run.0, run.1);
                        run = (cell, 1);
                    }
                }
                forget_bytes(&mut self.eliminated, run.0, run.1);
            }
            cells.fill(claimed);
        } else {
            for byte in mem.bytes() {
                forget_bytes(&mut self.eliminated, self.bytes.get(byte), 1);
                self.bytes.set(byte, claimed);
            }
        }
        if eliminated {
            self.eliminated.insert(seq, len as u8);
        }
    }

    /// Scans `mem`'s bytes in access order for the first one whose producing
    /// store is an eliminated store not yet tripped over; forgets that store
    /// and reports the hit.
    ///
    /// This replicates the producer-table walk it replaced (probing the
    /// analysis' per-load store-producer list, which listed producers in
    /// first-occurrence byte order, against the eliminated set in order):
    /// rename visits instructions in the same program order the analysis'
    /// forward pass did, so the shadow holds the same byte→store map the
    /// analysis saw — scanning the bytes in order (skipping consecutive
    /// duplicates) forgets exactly the same store, or none, as the
    /// producer-table walk did.
    pub(crate) fn take_eliminated_producer(&mut self, mem: MemAccess) -> bool {
        let len = mem.width.bytes();
        let mut last = 0u64;
        let mut hit = |cell: u64| {
            if cell & ELIMINATED != 0 && cell != last {
                last = cell;
                return self.eliminated.remove(&((cell & !ELIMINATED) - 1)).is_some();
            }
            false
        };
        if !PagedShadow::<u64>::crosses_page(mem.addr, len) {
            self.bytes.span(mem.addr, len).is_some_and(|cells| cells.iter().any(|&c| hit(c)))
        } else {
            mem.bytes().any(|byte| hit(self.bytes.get(byte)))
        }
    }

    /// Eliminated stores still tracked.
    #[cfg(test)]
    fn tracked(&self) -> usize {
        self.eliminated.len()
    }
}

/// Drops `n` bytes of the store named by shadow `cell` from the eliminated
/// set, forgetting the store when no byte names it any more.
#[inline]
fn forget_bytes(eliminated: &mut HashMap<u64, u8>, cell: u64, n: u8) {
    if cell & ELIMINATED == 0 {
        return;
    }
    if let Entry::Occupied(mut e) = eliminated.entry((cell & !ELIMINATED) - 1) {
        *e.get_mut() -= n;
        if *e.get() == 0 {
            e.remove();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dide_isa::MemWidth;

    fn at(addr: u64, width: MemWidth) -> MemAccess {
        MemAccess { addr, width }
    }

    #[test]
    fn overwritten_eliminated_stores_are_forgotten() {
        // A loop of dead stores to one doubleword: each overwrites the
        // last, so only the newest can still be tripped over.
        let mut shadow = StoreShadow::default();
        for seq in 0..10_000 {
            shadow.claim_store_bytes(seq, at(0x8000, MemWidth::B8), true);
        }
        assert!(shadow.tracked() <= 1, "{} eliminated stores tracked", shadow.tracked());
        assert!(shadow.take_eliminated_producer(at(0x8000, MemWidth::B8)));
        assert!(!shadow.has_eliminated());
    }

    #[test]
    fn partly_overwritten_store_can_still_be_tripped() {
        let mut shadow = StoreShadow::default();
        shadow.claim_store_bytes(0, at(0x100, MemWidth::B8), true);
        shadow.claim_store_bytes(1, at(0x100, MemWidth::B4), false);
        assert_eq!(shadow.tracked(), 1, "the high half still names store 0");
        // A load of the overwritten low half reaches only store 1.
        assert!(!shadow.take_eliminated_producer(at(0x100, MemWidth::B4)));
        // A load spanning both halves trips store 0, exactly once.
        assert!(shadow.take_eliminated_producer(at(0x100, MemWidth::B8)));
        assert!(!shadow.take_eliminated_producer(at(0x104, MemWidth::B4)));
        assert_eq!(shadow.tracked(), 0);

        // Overwriting the last named bytes forgets a store untripped.
        shadow.claim_store_bytes(2, at(0x200, MemWidth::B8), true);
        shadow.claim_store_bytes(3, at(0x200, MemWidth::B4), false);
        shadow.claim_store_bytes(4, at(0x204, MemWidth::B4), false);
        assert_eq!(shadow.tracked(), 0);
    }

    #[test]
    fn page_crossing_stores_are_tracked_byte_by_byte() {
        let mut shadow = StoreShadow::default();
        let edge = 2 * dide_emu::shadow::PAGE_CELLS as u64 - 4;
        shadow.claim_store_bytes(0, at(edge, MemWidth::B8), true);
        shadow.claim_store_bytes(1, at(edge + 4, MemWidth::B4), false);
        assert_eq!(shadow.tracked(), 1);
        assert!(shadow.take_eliminated_producer(at(edge, MemWidth::B8)));
        shadow.claim_store_bytes(2, at(edge, MemWidth::B8), true);
        shadow.claim_store_bytes(3, at(edge - 4, MemWidth::B8), false);
        assert_eq!(shadow.tracked(), 1, "bytes edge+4.. still name store 2");
        shadow.claim_store_bytes(4, at(edge + 4, MemWidth::B4), false);
        assert_eq!(shadow.tracked(), 0);
    }

    #[test]
    fn oracle_predicts_from_verdicts_and_never_trains() {
        use dide_analysis::DeadKind;
        use dide_predictor::future::CfSignature;
        let verdicts = [Verdict::Dead(DeadKind::RegOverwritten), Verdict::Useful];
        let dead = DeadElimConfig { oracle: true, ..DeadElimConfig::default() };
        let mut p = Predictor::new(&dead, &verdicts);
        let input = |seq| PredictInput { seq, static_index: 0, signature: CfSignature::empty() };
        p.train(&input(1), true);
        assert!(p.predict(&input(0)));
        assert!(!p.predict(&input(1)));
        assert!(!p.predict(&input(99)), "out of range predicts useful");
    }
}

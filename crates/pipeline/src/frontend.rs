//! In-order fetch engine: I-cache, branch prediction, fetch buffer.

use std::collections::VecDeque;

use dide_isa::index_to_pc;
use dide_mem::MemoryHierarchy;
use dide_predictor::branch::{
    BranchPredictor, Btb, BtbConfig, Gshare, ReturnAddressStack, TargetCache,
};
use dide_predictor::future::{pack_events, CfEvent, CfSignature};

use crate::config::PipelineConfig;
use crate::predecode::{Ctrl, PreDec};
use crate::source::RecordSource;
use crate::stats::PipelineStats;

/// An instruction sitting in the fetch buffer.
#[derive(Debug, Clone, Copy)]
struct Fetched {
    seq: u64,
    /// Cycle at which the instruction reaches the rename stage.
    ready_at: u64,
}

/// What [`Frontend::fetch`] would do at a given cycle, for the cycle
/// loop's idle-skip decision. Mirrors `fetch`'s check order exactly:
/// pending branch / stall window first, then trace exhaustion, then buffer
/// occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FetchBlock {
    /// Blocked on an unresolved mispredicted branch; counts a fetch-stall
    /// cycle. Only a backend completion can unblock it.
    Pending,
    /// Blocked until the contained cycle (I-cache fill, redirect penalty,
    /// BTB miss); counts a fetch-stall cycle while blocked.
    Stalled(u64),
    /// Trace exhausted: fetch is a silent no-op forever.
    Exhausted,
    /// Fetch buffer full; counts a fetch-stall cycle. Only rename draining
    /// the buffer can unblock it.
    BufferFull,
    /// Fetch would make progress; the cycle cannot be skipped.
    Progress,
}

/// The fetch engine.
///
/// Walks the committed-path trace in order, consulting the branch
/// predictors exactly as a real frontend would: a mispredicted conditional
/// branch (or indirect-jump target) stops fetch until the branch resolves
/// in the backend plus a redirect penalty; a taken branch ends the fetch
/// group; an I-cache miss stalls the group.
///
/// Records come through the [`RecordSource`] the cycle loop owns (passed
/// into [`Frontend::fetch`] each cycle), so the same frontend serves both
/// the materialized and the streaming path: on a stream, advancing `pos`
/// past the last produced record is what emulates further records.
///
/// The frontend also records the *predicted* direction of every fetched
/// conditional branch; those predictions form the CFI signatures consumed
/// by the dead predictor at rename ([`Frontend::signature`]).
#[derive(Debug)]
pub(crate) struct Frontend<'t> {
    /// Per-static-instruction decode (control class, RAS behavior),
    /// indexed by `DynInst::index`.
    predec: &'t [PreDec],
    /// Next unfetched sequence number.
    pos: u64,
    buffer: VecDeque<Fetched>,
    buffer_cap: usize,
    fetch_width: usize,
    frontend_depth: u32,
    mispredict_penalty: u32,
    btb_miss_penalty: u32,
    stalled_until: u64,
    /// Mispredicted control instruction awaiting backend resolution.
    pending_branch: Option<u64>,
    gshare: Gshare,
    btb: Btb,
    ras: ReturnAddressStack,
    /// History-based indirect-target predictor for non-return `jalr`.
    targets: TargetCache,
    /// (seq, event) of fetched control-flow events, pruned as rename
    /// advances: conditional-branch predictions, plus (in jump-aware mode)
    /// predicted indirect-jump targets.
    events: VecDeque<(u64, CfEvent)>,
    jump_aware: bool,
    last_line: Option<u64>,
    l1i_hit_latency: u32,
    /// `log2` of the I-cache line size (line sizes are asserted to be
    /// powers of two), so the per-instruction line check is a shift.
    line_shift: u32,
}

impl<'t> Frontend<'t> {
    pub(crate) fn new(config: &PipelineConfig, predec: &'t [PreDec]) -> Frontend<'t> {
        Frontend {
            predec,
            pos: 0,
            buffer: VecDeque::with_capacity(config.fetch_buffer),
            buffer_cap: config.fetch_buffer,
            fetch_width: config.fetch_width,
            frontend_depth: config.frontend_depth,
            mispredict_penalty: config.mispredict_penalty,
            btb_miss_penalty: config.btb_miss_penalty,
            stalled_until: 0,
            pending_branch: None,
            gshare: Gshare::new(config.gshare_history_bits, config.gshare_log2_entries),
            btb: Btb::new(BtbConfig::default()),
            ras: ReturnAddressStack::new(config.ras_depth),
            targets: TargetCache::default(),
            events: VecDeque::new(),
            jump_aware: config.dead.jump_aware,
            last_line: None,
            l1i_hit_latency: config.hierarchy.l1i.hit_latency,
            line_shift: config.hierarchy.l1i.line_bytes.trailing_zeros(),
        }
    }

    /// Whether every instruction has been fetched and drained.
    pub(crate) fn drained<S: RecordSource>(&self, source: &mut S) -> bool {
        self.buffer.is_empty() && source.end_reached(self.pos)
    }

    /// The mispredicted control instruction fetch is waiting on, if any.
    pub(crate) fn pending_branch(&self) -> Option<u64> {
        self.pending_branch
    }

    /// Called when the pending mispredicted branch completes execution:
    /// fetch resumes after the redirect penalty.
    pub(crate) fn resolve_branch(&mut self, seq: u64, resolved_at: u64) {
        if self.pending_branch == Some(seq) {
            self.pending_branch = None;
            self.stalled_until =
                self.stalled_until.max(resolved_at + u64::from(self.mispredict_penalty));
        }
    }

    /// The oldest buffered instruction that has traversed the frontend
    /// pipe by cycle `now`.
    pub(crate) fn peek_ready(&self, now: u64) -> Option<u64> {
        self.buffer.front().filter(|f| f.ready_at <= now).map(|f| f.seq)
    }

    /// Cycle at which the oldest buffered instruction reaches rename
    /// (`None` when the buffer is empty). [`Frontend::peek_ready`] first
    /// succeeds at this cycle: the buffer is FIFO and `ready_at` is
    /// monotone in fetch order, so the front has the earliest.
    pub(crate) fn next_ready_at(&self) -> Option<u64> {
        self.buffer.front().map(|f| f.ready_at)
    }

    /// Sequence number of the instruction rename will see next (the buffer
    /// front), whether or not it is ready yet.
    pub(crate) fn next_seq(&self) -> Option<u64> {
        self.buffer.front().map(|f| f.seq)
    }

    /// Classifies what [`Frontend::fetch`] would do at cycle `t`, assuming
    /// no intervening frontend activity. The checks replicate `fetch`'s
    /// order (and its stall-counter behavior, documented per variant).
    pub(crate) fn block_state<S: RecordSource>(&self, t: u64, source: &mut S) -> FetchBlock {
        if self.pending_branch.is_some() {
            FetchBlock::Pending
        } else if t < self.stalled_until {
            FetchBlock::Stalled(self.stalled_until)
        } else if source.end_reached(self.pos) {
            FetchBlock::Exhausted
        } else if self.buffer.len() == self.buffer_cap {
            FetchBlock::BufferFull
        } else {
            FetchBlock::Progress
        }
    }

    /// Consumes the oldest buffered instruction.
    pub(crate) fn pop(&mut self, seq: u64) {
        let f = self.buffer.pop_front().expect("pop from empty fetch buffer");
        debug_assert_eq!(f.seq, seq);
        while self.events.front().is_some_and(|&(s, _)| s <= seq) {
            self.events.pop_front();
        }
    }

    /// CFI signature for the instruction at `seq`: the next `lookahead`
    /// control-flow events already fetched (predicted branch directions,
    /// plus predicted indirect targets in jump-aware mode). Fewer may be
    /// available near a fetch stall; the signature length reflects that,
    /// exactly as in hardware (the predictor simply sees a shorter
    /// pattern).
    pub(crate) fn signature(&self, seq: u64, lookahead: u8) -> CfSignature {
        pack_events(self.events.iter().filter(|&&(s, _)| s > seq).map(|&(_, e)| e), lookahead)
    }

    /// Fetches up to one group of instructions at cycle `now`.
    pub(crate) fn fetch<S: RecordSource>(
        &mut self,
        now: u64,
        source: &mut S,
        hierarchy: &mut MemoryHierarchy,
        stats: &mut PipelineStats,
    ) {
        if self.pending_branch.is_some() || now < self.stalled_until {
            stats.fetch_stall_cycles += 1;
            return;
        }
        for _ in 0..self.fetch_width {
            let Some(r) = source.try_get(self.pos) else {
                return; // trace exhausted
            };
            if self.buffer.len() == self.buffer_cap {
                stats.fetch_stall_cycles += 1;
                return;
            }

            // I-cache: charge when the group crosses into a new line.
            let pc = index_to_pc(r.index);
            let line = pc >> self.line_shift;
            if self.last_line != Some(line) {
                let latency = hierarchy.access_inst(pc);
                self.last_line = Some(line);
                if latency > self.l1i_hit_latency {
                    // Miss: fill and retry this instruction after the stall.
                    self.stalled_until = now + u64::from(latency - self.l1i_hit_latency);
                    return;
                }
            }

            self.buffer
                .push_back(Fetched { seq: r.seq, ready_at: now + u64::from(self.frontend_depth) });
            self.pos += 1;

            match self.predec[r.index as usize].ctrl {
                Ctrl::None => {}
                Ctrl::CondBranch => {
                    let predicted = self.gshare.predict(r.index);
                    self.gshare.update(r.index, r.taken());
                    self.events.push_back((r.seq, CfEvent::Cond(predicted)));
                    if predicted != r.taken() {
                        stats.branch_mispredicts += 1;
                        self.pending_branch = Some(r.seq);
                        return;
                    }
                    if r.taken() {
                        // Correct taken prediction still needs a target.
                        if self.btb.lookup(r.index) != Some(r.next_index) {
                            stats.btb_misses += 1;
                            self.btb.insert(r.index, r.next_index);
                            self.stalled_until = now + u64::from(self.btb_miss_penalty);
                        }
                        return; // taken branch ends the fetch group
                    }
                }
                Ctrl::Jal { push_ras } => {
                    if push_ras {
                        self.ras.push(r.index + 1);
                    }
                    return; // direct target known at decode; group ends
                }
                Ctrl::Jalr { is_return, push_ras } => {
                    let predicted = if is_return {
                        self.ras.pop()
                    } else {
                        if push_ras {
                            self.ras.push(r.index + 1);
                        }
                        self.targets.predict(r.index)
                    };
                    if !is_return {
                        self.targets.update(r.index, r.next_index);
                    }
                    if self.jump_aware && !is_return {
                        let hash = CfEvent::hash_target(predicted.unwrap_or(0));
                        self.events.push_back((r.seq, CfEvent::Indirect(hash)));
                    }
                    if predicted != Some(r.next_index) {
                        stats.branch_mispredicts += 1;
                        self.pending_branch = Some(r.seq);
                    }
                    return; // indirect transfer ends the fetch group
                }
                Ctrl::Halt => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dide_emu::{DynInst, Emulator};
    use dide_isa::{ProgramBuilder, Reg};
    use dide_mem::HierarchyConfig;

    fn setup(iters: i64) -> (Vec<DynInst>, Vec<PreDec>, PipelineConfig) {
        let mut b = ProgramBuilder::new("f");
        b.li(Reg::T0, 0);
        b.li(Reg::T1, iters);
        let top = b.label();
        b.bind(top);
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, top);
        b.out(Reg::T0);
        b.halt();
        let p = b.build().unwrap();
        let t = Emulator::new(&p).run().unwrap();
        let cfg = PipelineConfig::baseline();
        let predec = crate::predecode::predecode(&p, &cfg);
        (t.records().to_vec(), predec, cfg)
    }

    #[test]
    fn fetches_in_order_and_drains() {
        let (records, predec, cfg) = setup(3);
        let mut src = records.as_slice();
        let mut fe = Frontend::new(&cfg, &predec);
        let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
        let mut stats = PipelineStats::default();
        let mut got = Vec::new();
        for now in 0..2000 {
            fe.fetch(now, &mut src, &mut mem, &mut stats);
            while let Some(seq) = fe.peek_ready(now) {
                got.push(seq);
                fe.pop(seq);
            }
            if let Some(seq) = fe.pending_branch() {
                fe.resolve_branch(seq, now);
            }
            if fe.drained(&mut src) {
                break;
            }
        }
        assert!(fe.drained(&mut src));
        let expected: Vec<u64> = (0..records.len() as u64).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn signature_reflects_upcoming_branch_predictions() {
        let (records, predec, cfg) = setup(5);
        let mut src = records.as_slice();
        let mut fe = Frontend::new(&cfg, &predec);
        let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
        let mut stats = PipelineStats::default();
        // Fetch for a while to accumulate branch predictions.
        for now in 0..200 {
            fe.fetch(now, &mut src, &mut mem, &mut stats);
            if let Some(seq) = fe.pending_branch() {
                fe.resolve_branch(seq, now);
            }
        }
        // Instruction 0's signature covers fetched branches after it.
        let sig = fe.signature(0, 4);
        assert!(!sig.is_empty(), "at least one branch prediction visible");
    }

    #[test]
    fn mispredict_blocks_fetch_until_resolved() {
        let (records, predec, cfg) = setup(8);
        let mut src = records.as_slice();
        let mut fe = Frontend::new(&cfg, &predec);
        let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
        let mut stats = PipelineStats::default();
        let mut now = 0;
        // Fetch until the first mispredict appears.
        while fe.pending_branch().is_none() {
            fe.fetch(now, &mut src, &mut mem, &mut stats);
            now += 1;
            assert!(now < 1000, "expected a mispredict eventually");
        }
        let buffered = fe.buffer.len();
        fe.fetch(now, &mut src, &mut mem, &mut stats);
        assert_eq!(fe.buffer.len(), buffered, "no fetch while pending");
        let seq = fe.pending_branch().unwrap();
        fe.resolve_branch(seq, now);
        assert!(fe.pending_branch().is_none());
        // Still stalled for the redirect penalty.
        fe.fetch(now + 1, &mut src, &mut mem, &mut stats);
        assert_eq!(fe.buffer.len(), buffered);
        fe.fetch(now + 1 + u64::from(cfg.mispredict_penalty), &mut src, &mut mem, &mut stats);
        assert!(fe.buffer.len() > buffered, "fetch resumed after penalty");
    }

    #[test]
    fn mispredicts_counted() {
        let (records, predec, cfg) = setup(50);
        let mut src = records.as_slice();
        let mut fe = Frontend::new(&cfg, &predec);
        let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
        let mut stats = PipelineStats::default();
        for now in 0..100_000 {
            fe.fetch(now, &mut src, &mut mem, &mut stats);
            while let Some(seq) = fe.peek_ready(now) {
                fe.pop(seq);
            }
            if let Some(seq) = fe.pending_branch() {
                fe.resolve_branch(seq, now);
            }
            if fe.drained(&mut src) {
                break;
            }
        }
        // The loop branch mispredicts at least on the final iteration.
        assert!(stats.branch_mispredicts >= 1);
        assert!(fe.drained(&mut src));
    }
}

//! The architectural interpreter.
//!
//! Three consumption models share one stepping core:
//!
//! * [`Emulator::run`] — execute to `halt` and materialize the full
//!   [`Trace`] (the original whole-trace path);
//! * [`Emulator::run_streamed`] — execute in fixed-size *epochs* of
//!   [`DynInst`] records, handing each epoch to the consumer and reusing
//!   one buffer, so peak retained trace memory is one epoch regardless of
//!   trace length;
//! * [`TraceStream`] — pull records on demand into a ring that holds the
//!   consumer's sliding window, one epoch unless the window outgrows it.

use dide_isa::{BranchCond, Inst, OpcodeKind, Program, Reg, STACK_BASE};

use crate::dyninst::{DynInst, MemAccess};
use crate::error::EmuError;
use crate::memory::Memory;
use crate::trace::Trace;

/// Default epoch length (records per [`TraceChunk`]) for streaming runs.
pub const DEFAULT_EPOCH_LEN: usize = 65_536;

/// Resource limits and initial conditions for an emulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmulatorConfig {
    /// Maximum dynamic instructions before the run aborts with
    /// [`EmuError::StepLimit`].
    pub max_steps: u64,
    /// Initial stack pointer.
    pub stack_base: u64,
}

impl Default for EmulatorConfig {
    fn default() -> Self {
        EmulatorConfig { max_steps: 50_000_000, stack_base: STACK_BASE }
    }
}

/// One epoch of consecutive dynamic instructions from a streaming run.
///
/// Record `i` of the chunk has `seq == base + i`. Every chunk except
/// possibly the last holds exactly the configured epoch length; chunks are
/// never empty.
#[derive(Debug)]
pub struct TraceChunk {
    base: u64,
    records: Vec<DynInst>,
    last: bool,
}

impl TraceChunk {
    /// Sequence number of the first record in the chunk.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The records, in sequence order.
    #[must_use]
    pub fn records(&self) -> &[DynInst] {
        &self.records
    }

    /// Number of records in the chunk.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the chunk is empty (never true for chunks a consumer sees).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// One past the sequence number of the last record.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.base + self.records.len() as u64
    }

    /// Whether this is the final chunk of the run (the program halted).
    #[must_use]
    pub fn is_last(&self) -> bool {
        self.last
    }
}

/// What a completed [`Emulator::run_streamed`] run produced besides the
/// epochs themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSummary {
    /// Total dynamic instructions retired.
    pub len: u64,
    /// Number of epochs delivered to the consumer.
    pub epochs: u64,
    /// Values written by `out`, in order.
    pub outputs: Vec<u64>,
}

/// Architectural interpreter for SIR programs.
///
/// Executes a program to completion and captures the full dynamic trace.
/// See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct Emulator<'p> {
    program: &'p Program,
    config: EmulatorConfig,
    regs: [u64; Reg::COUNT],
    memory: Memory,
    pc: u32,
    steps: u64,
    outputs: Vec<u64>,
    halted: bool,
}

impl<'p> Emulator<'p> {
    /// Creates an emulator with default limits.
    #[must_use]
    pub fn new(program: &'p Program) -> Emulator<'p> {
        Emulator::with_config(program, EmulatorConfig::default())
    }

    /// Creates an emulator with explicit limits.
    #[must_use]
    pub fn with_config(program: &'p Program, config: EmulatorConfig) -> Emulator<'p> {
        let mut memory = Memory::new();
        memory.write_bytes(dide_isa::DATA_BASE, program.data());
        let mut regs = [0u64; Reg::COUNT];
        regs[Reg::SP.index()] = config.stack_base;
        regs[Reg::FP.index()] = config.stack_base;
        Emulator {
            pc: program.entry(),
            program,
            config,
            regs,
            memory,
            steps: 0,
            outputs: Vec::new(),
            halted: false,
        }
    }

    fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    fn set_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// Executes up to `max` further instructions, handing one record per
    /// retired instruction to `sink`. Returns `true` once the program has
    /// halted (the `halt` record itself is handed over first).
    #[inline]
    fn fill(&mut self, max: usize, mut sink: impl FnMut(DynInst)) -> Result<bool, EmuError> {
        debug_assert!(!self.halted, "fill called after halt");
        let len = self.program.len() as u64;
        for _ in 0..max {
            let seq = self.steps;
            if seq >= self.config.max_steps {
                return Err(EmuError::StepLimit { limit: self.config.max_steps });
            }
            let pc = self.pc;
            let inst: Inst = *self
                .program
                .get(pc)
                .ok_or(EmuError::BadFetch { index: u64::from(pc), at_seq: seq })?;

            let mut next = pc + 1;
            let mut taken = false;
            let mut mem: Option<MemAccess> = None;
            let mut result: u64 = 0;
            let mut halted = false;

            match inst.op.kind() {
                OpcodeKind::AluRR => {
                    result =
                        crate::semantics::alu_rr(inst.op, self.reg(inst.rs1), self.reg(inst.rs2));
                    self.set_reg(inst.rd, result);
                }
                OpcodeKind::AluRI => {
                    result = crate::semantics::alu_ri(inst.op, self.reg(inst.rs1), inst.imm);
                    self.set_reg(inst.rd, result);
                }
                OpcodeKind::LoadImm => {
                    result = inst.imm as u64;
                    self.set_reg(inst.rd, result);
                }
                OpcodeKind::Load { width, signed } => {
                    let addr = self.reg(inst.rs1).wrapping_add(inst.imm as u64);
                    let bytes = width.bytes();
                    if Memory::faults(addr, bytes) {
                        return Err(EmuError::MemFault { addr, at_seq: seq });
                    }
                    let raw = self.memory.read_le(addr, bytes);
                    result = if signed { crate::semantics::sign_extend(raw, bytes) } else { raw };
                    self.set_reg(inst.rd, result);
                    mem = Some(MemAccess { addr, width });
                }
                OpcodeKind::Store { width } => {
                    let addr = self.reg(inst.rs1).wrapping_add(inst.imm as u64);
                    let bytes = width.bytes();
                    if Memory::faults(addr, bytes) {
                        return Err(EmuError::MemFault { addr, at_seq: seq });
                    }
                    result = self.reg(inst.rs2);
                    self.memory.write_le(addr, bytes, result);
                    mem = Some(MemAccess { addr, width });
                }
                OpcodeKind::Branch(cond) => {
                    taken = BranchCond::eval(cond, self.reg(inst.rs1), self.reg(inst.rs2));
                    if taken {
                        next = inst.imm as u32;
                    }
                }
                OpcodeKind::Jal => {
                    result = u64::from(pc + 1);
                    self.set_reg(inst.rd, result);
                    next = inst.imm as u32;
                    taken = true;
                }
                OpcodeKind::Jalr => {
                    let target = self.reg(inst.rs1).wrapping_add(inst.imm as u64);
                    if target >= len {
                        return Err(EmuError::BadFetch { index: target, at_seq: seq });
                    }
                    result = u64::from(pc + 1);
                    self.set_reg(inst.rd, result);
                    next = target as u32;
                    taken = true;
                }
                OpcodeKind::Out => {
                    let v = self.reg(inst.rs1);
                    self.outputs.push(v);
                }
                OpcodeKind::Halt => {
                    halted = true;
                    next = pc;
                }
                OpcodeKind::Nop => {}
            }

            sink(DynInst::new(seq, pc, inst, next, taken, mem, result));
            self.steps += 1;

            if halted {
                self.halted = true;
                return Ok(true);
            }
            self.pc = next;
        }
        Ok(false)
    }

    /// Runs the program to `halt`, returning the full dynamic trace.
    ///
    /// # Errors
    ///
    /// Returns an [`EmuError`] on an invalid fetch, a memory access into the
    /// guard region, or exhaustion of the configured step limit.
    pub fn run(mut self) -> Result<Trace, EmuError> {
        let mut records: Vec<DynInst> = Vec::new();
        while !self.fill(usize::MAX, |r| records.push(r))? {}
        Ok(Trace::from_parts(self.program.clone(), records, self.outputs))
    }

    /// Runs the program to `halt`, delivering the trace to `consumer` in
    /// epochs of `epoch_len` records.
    ///
    /// One chunk buffer is allocated for the whole run and reused between
    /// epochs, so peak retained trace memory is a single epoch. The borrow
    /// handed to the consumer does not outlive the call, and the program is
    /// never cloned (streaming consumers that need it borrow it from the
    /// caller instead).
    ///
    /// # Errors
    ///
    /// As [`Emulator::run`]. The consumer may already have observed a
    /// prefix of the trace when an error is returned.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_len` is zero.
    pub fn run_streamed<F>(
        mut self,
        epoch_len: usize,
        mut consumer: F,
    ) -> Result<StreamSummary, EmuError>
    where
        F: FnMut(&TraceChunk),
    {
        assert!(epoch_len > 0, "epoch length must be positive");
        let mut chunk = TraceChunk { base: 0, records: Vec::with_capacity(epoch_len), last: false };
        let mut epochs = 0u64;
        loop {
            chunk.base = self.steps;
            chunk.records.clear();
            let halted = self.fill(epoch_len, |r| chunk.records.push(r))?;
            chunk.last = halted;
            epochs += 1;
            consumer(&chunk);
            if halted {
                return Ok(StreamSummary { len: self.steps, epochs, outputs: self.outputs });
            }
        }
    }
}

/// Pull-style streaming view of a trace, for consumers that need random
/// access to a *sliding window* of recent records (the pipeline: fetch
/// reads ahead while the ROB still references older sequence numbers).
///
/// Records live in one power-of-two ring indexed by `seq & mask`, which
/// the emulator fills in place when [`TraceStream::get`] reads past the
/// last produced record. [`TraceStream::release_before`] frees the slots
/// behind the consumer's oldest live record for reuse. The ring starts at
/// `epoch_len.next_power_of_two()` records and doubles only when the
/// unreleased window fills it, so a consumer whose window stays under one
/// epoch retains one epoch of records for the whole run, whatever the
/// trace length.
///
/// The stream is for programs already known to emulate cleanly (the
/// analysis pass runs first and surfaces any [`EmuError`]); a mid-stream
/// emulation failure panics.
#[derive(Debug)]
pub struct TraceStream<'p> {
    emu: Emulator<'p>,
    epoch_len: usize,
    /// Record `seq` sits at `ring[seq & mask]` while it is live. The ring
    /// is filled by pushing on its first lap, so `ring.len()` reaches the
    /// capacity only once that many records have been produced.
    ring: Vec<DynInst>,
    mask: u64,
    /// Records before this sequence number have been released.
    released: u64,
}

impl<'p> TraceStream<'p> {
    /// Creates a stream over `program` with default emulator limits.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_len` is zero.
    #[must_use]
    pub fn new(program: &'p Program, epoch_len: usize) -> TraceStream<'p> {
        TraceStream::with_config(program, EmulatorConfig::default(), epoch_len)
    }

    /// Creates a stream with explicit emulator limits.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_len` is zero.
    #[must_use]
    pub fn with_config(
        program: &'p Program,
        config: EmulatorConfig,
        epoch_len: usize,
    ) -> TraceStream<'p> {
        assert!(epoch_len > 0, "epoch length must be positive");
        let capacity = epoch_len.next_power_of_two();
        TraceStream {
            emu: Emulator::with_config(program, config),
            epoch_len,
            ring: Vec::with_capacity(capacity),
            mask: capacity as u64 - 1,
            released: 0,
        }
    }

    /// The program being executed (borrowed, never cloned).
    #[must_use]
    pub fn program(&self) -> &'p Program {
        self.emu.program
    }

    /// Configured epoch length.
    #[must_use]
    pub fn epoch_len(&self) -> usize {
        self.epoch_len
    }

    /// Records produced so far.
    #[inline]
    fn produced(&self) -> u64 {
        self.emu.steps
    }

    /// Ring capacity in records (a power of two).
    fn capacity(&self) -> u64 {
        self.mask + 1
    }

    /// Emulates into every free ring slot, doubling the ring first when
    /// the unreleased window fills it.
    fn produce(&mut self) {
        debug_assert!(!self.emu.halted);
        if self.produced() - self.released == self.capacity() {
            // Every slot of the full ring holds a live record. Appending a
            // copy of the ring puts each record at both `seq & mask` and
            // `(seq & mask) + capacity`, one of which is its slot under the
            // doubled mask; the other copy is a free slot.
            self.ring.extend_from_within(..);
            self.mask = 2 * self.mask + 1;
        }
        let room = self.capacity() - (self.produced() - self.released);
        let (ring, mask) = (&mut self.ring, self.mask);
        self.emu
            .fill(room as usize, |record| {
                let slot = (record.seq & mask) as usize;
                if slot < ring.len() {
                    ring[slot] = record;
                } else {
                    ring.push(record);
                }
            })
            .expect("streamed program emulates cleanly (checked by the analysis pass)");
    }

    /// The record with sequence number `seq`, producing further records on
    /// demand; `None` once `seq` is at or past the end of the trace.
    ///
    /// # Panics
    ///
    /// Panics if `seq` was already released, or the program fails to
    /// emulate.
    #[inline]
    pub fn get(&mut self, seq: u64) -> Option<DynInst> {
        // One unsigned compare covers both window bounds: a released `seq`
        // wraps to a huge offset.
        if seq.wrapping_sub(self.released) < self.produced() - self.released {
            return Some(self.ring[(seq & self.mask) as usize]);
        }
        self.get_outside_window(seq)
    }

    #[cold]
    #[inline(never)]
    fn get_outside_window(&mut self, seq: u64) -> Option<DynInst> {
        assert!(
            seq >= self.released,
            "record {seq} was already released (window starts at {})",
            self.released
        );
        while seq >= self.produced() && !self.emu.halted {
            self.produce();
        }
        (seq < self.produced()).then(|| self.ring[(seq & self.mask) as usize])
    }

    /// Whether `pos` is past the last record of the trace (producing
    /// records as needed to decide).
    #[inline]
    pub fn end_reached(&mut self, pos: u64) -> bool {
        self.get(pos).is_none()
    }

    /// Tells the stream no record before `seq` will be read again; their
    /// slots are reused for future records.
    #[inline]
    pub fn release_before(&mut self, seq: u64) {
        self.released = self.released.max(seq.min(self.produced()));
    }

    /// High-water mark of retained trace bytes: the ring's capacity (which
    /// never shrinks) times the record size. Deterministic model-level
    /// accounting (buffer capacity, not OS RSS), comparable across runs.
    #[must_use]
    pub fn peak_resident_bytes(&self) -> u64 {
        self.capacity() * std::mem::size_of::<DynInst>() as u64
    }

    /// Total trace length, once known (the final record has been produced).
    #[must_use]
    pub fn total_len(&self) -> Option<u64> {
        self.emu.halted.then_some(self.emu.steps)
    }

    /// Values written by `out` so far; complete once [`TraceStream::total_len`]
    /// is `Some`.
    #[must_use]
    pub fn outputs(&self) -> &[u64] {
        &self.emu.outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dide_isa::ProgramBuilder;

    fn run(b: ProgramBuilder) -> Trace {
        Emulator::new(&b.build().unwrap()).run().unwrap()
    }

    #[test]
    fn arithmetic_and_output() {
        let mut b = ProgramBuilder::new("arith");
        b.li(Reg::T0, 6).li(Reg::T1, 7);
        b.mul(Reg::T2, Reg::T0, Reg::T1);
        b.out(Reg::T2);
        b.halt();
        assert_eq!(run(b).outputs(), &[42]);
    }

    #[test]
    fn signed_division_semantics() {
        let mut b = ProgramBuilder::new("div");
        b.li(Reg::T0, -7).li(Reg::T1, 2);
        b.div(Reg::T2, Reg::T0, Reg::T1);
        b.rem(Reg::T3, Reg::T0, Reg::T1);
        b.out(Reg::T2).out(Reg::T3);
        // division by zero: div -> all ones, rem -> dividend
        b.li(Reg::T1, 0);
        b.div(Reg::T4, Reg::T0, Reg::T1);
        b.rem(Reg::T5, Reg::T0, Reg::T1);
        b.out(Reg::T4).out(Reg::T5);
        b.halt();
        let t = run(b);
        assert_eq!(t.outputs(), &[(-3i64) as u64, (-1i64) as u64, u64::MAX, (-7i64) as u64]);
    }

    #[test]
    fn loads_sign_extend() {
        let mut b = ProgramBuilder::new("sext");
        let addr = b.data_bytes(&[0xff, 0xff, 0x80, 0x00]);
        b.li_u64(Reg::T0, addr);
        b.lb(Reg::T1, Reg::T0, 0);
        b.lbu(Reg::T2, Reg::T0, 0);
        b.lh(Reg::T3, Reg::T0, 0);
        b.lw(Reg::T4, Reg::T0, 0);
        b.out(Reg::T1).out(Reg::T2).out(Reg::T3).out(Reg::T4);
        b.halt();
        let t = run(b);
        assert_eq!(t.outputs(), &[(-1i64) as u64, 0xff, (-1i64) as u64, 0x0080_ffff,]);
    }

    #[test]
    fn store_then_load_roundtrip() {
        let mut b = ProgramBuilder::new("mem");
        b.li(Reg::T0, 0x0123_4567_89ab_cdef_u64 as i64);
        b.sd(Reg::T0, Reg::SP, -8);
        b.ld(Reg::T1, Reg::SP, -8);
        b.lw(Reg::T2, Reg::SP, -8);
        b.out(Reg::T1).out(Reg::T2);
        b.halt();
        let t = run(b);
        assert_eq!(t.outputs()[0], 0x0123_4567_89ab_cdef);
        assert_eq!(t.outputs()[1], 0xffff_ffff_89ab_cdef); // lw sign-extends
    }

    #[test]
    fn zero_register_writes_discarded() {
        let mut b = ProgramBuilder::new("zero");
        b.li(Reg::ZERO, 99);
        b.out(Reg::ZERO);
        b.halt();
        assert_eq!(run(b).outputs(), &[0]);
    }

    #[test]
    fn call_and_return() {
        let mut b = ProgramBuilder::new("call");
        let f = b.label();
        b.li(Reg::A0, 5);
        b.call(f);
        b.out(Reg::A0);
        b.halt();
        b.bind(f);
        b.addi(Reg::A0, Reg::A0, 10);
        b.ret();
        let t = run(b);
        assert_eq!(t.outputs(), &[15]);
        // jal and jalr recorded as taken control transfers
        let jal = t.iter().find(|r| r.op == dide_isa::Opcode::Jal).unwrap();
        assert!(jal.taken());
        assert_eq!(jal.next_index, 4);
    }

    #[test]
    fn branch_records_direction_and_target() {
        let mut b = ProgramBuilder::new("branch");
        b.li(Reg::T0, 1);
        let skip = b.label();
        b.bne(Reg::T0, Reg::ZERO, skip);
        b.li(Reg::T0, 0); // skipped
        b.bind(skip);
        b.out(Reg::T0);
        b.halt();
        let t = run(b);
        assert_eq!(t.outputs(), &[1]);
        let br = t.iter().find(|r| r.is_cond_branch()).unwrap();
        assert!(br.taken());
        assert_eq!(br.next_index, 3);
    }

    #[test]
    fn step_limit_enforced() {
        let mut b = ProgramBuilder::new("spin");
        let top = b.label();
        b.bind(top);
        b.j(top);
        b.halt();
        let p = b.build().unwrap();
        let cfg = EmulatorConfig { max_steps: 100, ..EmulatorConfig::default() };
        let err = Emulator::with_config(&p, cfg).run().unwrap_err();
        assert_eq!(err, EmuError::StepLimit { limit: 100 });
    }

    #[test]
    fn guard_region_faults() {
        let mut b = ProgramBuilder::new("null");
        b.li(Reg::T0, 0);
        b.ld(Reg::T1, Reg::T0, 8);
        b.halt();
        let p = b.build().unwrap();
        let err = Emulator::new(&p).run().unwrap_err();
        assert!(matches!(err, EmuError::MemFault { addr: 8, .. }));
    }

    #[test]
    fn jalr_to_invalid_index_faults() {
        let mut b = ProgramBuilder::new("badjump");
        b.li(Reg::T0, 1_000_000);
        b.jalr(Reg::ZERO, Reg::T0, 0);
        b.halt();
        let p = b.build().unwrap();
        assert!(matches!(
            Emulator::new(&p).run().unwrap_err(),
            EmuError::BadFetch { index: 1_000_000, .. }
        ));
    }

    #[test]
    fn data_segment_initialized() {
        let mut b = ProgramBuilder::new("data");
        let addr = b.data_u64(0xdead_beef);
        b.li_u64(Reg::T0, addr);
        b.ld(Reg::T1, Reg::T0, 0);
        b.out(Reg::T1);
        b.halt();
        assert_eq!(run(b).outputs(), &[0xdead_beef]);
    }

    #[test]
    fn shift_semantics() {
        let mut b = ProgramBuilder::new("shift");
        b.li(Reg::T0, -8);
        b.srai(Reg::T1, Reg::T0, 1);
        b.srli(Reg::T2, Reg::T0, 1);
        b.slli(Reg::T3, Reg::T0, 1);
        b.out(Reg::T1).out(Reg::T2).out(Reg::T3);
        b.halt();
        let t = run(b);
        assert_eq!(t.outputs()[0], (-4i64) as u64);
        assert_eq!(t.outputs()[1], ((-8i64) as u64) >> 1);
        assert_eq!(t.outputs()[2], (-16i64) as u64);
    }

    #[test]
    fn slt_comparisons() {
        let mut b = ProgramBuilder::new("slt");
        b.li(Reg::T0, -1).li(Reg::T1, 1);
        b.slt(Reg::T2, Reg::T0, Reg::T1);
        b.sltu(Reg::T3, Reg::T0, Reg::T1);
        b.slti(Reg::T4, Reg::T0, 0);
        b.out(Reg::T2).out(Reg::T3).out(Reg::T4);
        b.halt();
        assert_eq!(run(b).outputs(), &[1, 0, 1]);
    }

    /// A looping program long enough to span several epochs.
    fn looping_program(iters: i64) -> Program {
        let mut b = ProgramBuilder::new("loop");
        b.li(Reg::T0, 0);
        b.li(Reg::T1, iters);
        let top = b.label();
        b.bind(top);
        b.sw(Reg::T0, Reg::SP, -4);
        b.lw(Reg::T2, Reg::SP, -4);
        b.add(Reg::T3, Reg::T2, Reg::T2);
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, top);
        b.out(Reg::T3);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn streamed_concatenation_matches_run() {
        let p = looping_program(200);
        let whole = Emulator::new(&p).run().unwrap();
        for epoch_len in [1usize, 7, 64, 100_000] {
            let mut streamed: Vec<DynInst> = Vec::new();
            let mut bases = Vec::new();
            let summary = Emulator::new(&p)
                .run_streamed(epoch_len, |chunk| {
                    bases.push(chunk.base());
                    assert_eq!(chunk.base() % epoch_len as u64, 0);
                    assert!(!chunk.is_empty());
                    streamed.extend_from_slice(chunk.records());
                })
                .unwrap();
            assert_eq!(streamed, whole.records(), "epoch_len={epoch_len}");
            assert_eq!(summary.outputs, whole.outputs());
            assert_eq!(summary.len, whole.len() as u64);
            assert_eq!(summary.epochs, bases.len() as u64);
            // Every chunk but the last is exactly epoch_len.
            assert_eq!(
                bases,
                (0..summary.epochs).map(|i| i * epoch_len as u64).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn streamed_errors_propagate() {
        let mut b = ProgramBuilder::new("spin");
        let top = b.label();
        b.bind(top);
        b.j(top);
        b.halt();
        let p = b.build().unwrap();
        let cfg = EmulatorConfig { max_steps: 100, ..EmulatorConfig::default() };
        let err = Emulator::with_config(&p, cfg).run_streamed(8, |_| {}).unwrap_err();
        assert_eq!(err, EmuError::StepLimit { limit: 100 });
    }

    #[test]
    fn trace_stream_random_access_and_recycling() {
        // Walk forward like the pipeline: read ahead, release `lag` records
        // behind. Lags under one epoch keep the ring at one epoch rounded
        // up to a power of two; a lag over one epoch forces it to grow.
        let p = looping_program(300);
        let whole = Emulator::new(&p).run().unwrap();
        let n = whole.len();
        let record_bytes = std::mem::size_of::<DynInst>() as u64;
        for epoch_len in [1usize, 7, 64, n] {
            for lag in [0usize, epoch_len / 2, epoch_len + 3, 2 * epoch_len + 100] {
                let mut stream = TraceStream::new(&p, epoch_len);
                for seq in 0..n as u64 {
                    let r = stream.get(seq).expect("record exists");
                    assert_eq!(r, whole.records()[seq as usize], "epoch {epoch_len} lag {lag}");
                    stream.release_before(seq.saturating_sub(lag as u64));
                }
                assert!(stream.end_reached(n as u64));
                assert_eq!(stream.total_len(), Some(n as u64));
                assert_eq!(stream.outputs(), whole.outputs());
                // A read of `seq` happens with `lag + 1` older records
                // still live, so the ring needs `lag + 2` slots.
                let capacity = epoch_len.max((lag + 2).min(n)).next_power_of_two() as u64;
                assert_eq!(
                    stream.peak_resident_bytes(),
                    capacity * record_bytes,
                    "epoch {epoch_len} lag {lag}"
                );
                if lag + 2 <= epoch_len.next_power_of_two() {
                    assert_eq!(
                        stream.peak_resident_bytes(),
                        epoch_len.next_power_of_two() as u64 * record_bytes,
                        "a window under one epoch must keep the ring at one epoch"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "already released")]
    fn trace_stream_rejects_reads_behind_the_window() {
        let p = looping_program(300);
        let mut stream = TraceStream::new(&p, 16);
        let _ = stream.get(200);
        stream.release_before(64);
        let _ = stream.get(0);
    }
}

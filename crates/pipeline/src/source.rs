//! Record supply for the cycle loop.
//!
//! The core is indifferent to where its dynamic records come from: a fully
//! materialized trace (the classic path) or a bounded sliding window over a
//! live emulator (the streaming path). `RecordSource` is that seam. The
//! cycle loops and the frontend are generic over it, so each path compiles
//! to its own loop with the record lookup inlined. Records are 40-byte
//! `Copy` values, so `get` returns them by value — a stream cannot hand out
//! references into a ring it is about to overwrite.

use dide_emu::{DynInst, TraceStream};

/// Where the cycle loop reads dynamic instructions from.
pub(crate) trait RecordSource {
    /// The record at `seq`, or `None` once the trace is exhausted. For a
    /// stream this produces records as needed, so exhaustion is discovered
    /// exactly when fetch reaches it.
    fn try_get(&mut self, seq: u64) -> Option<DynInst>;

    /// Tells the source no record before `seq` will be read again. A slice
    /// ignores it; a stream reuses the released ring slots.
    fn release_before(&mut self, seq: u64);

    /// The record with sequence number `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is past the end of the trace, or (for a stream)
    /// already released — the core only asks for records between the
    /// commit head and the fetch position, which the window spans.
    #[inline]
    fn get(&mut self, seq: u64) -> DynInst {
        self.try_get(seq).expect("in-flight seqs are within the trace")
    }

    /// Whether `pos` is past the end of the trace (producing up to it for
    /// a stream, exactly like [`RecordSource::try_get`]).
    #[inline]
    fn end_reached(&mut self, pos: u64) -> bool {
        self.try_get(pos).is_none()
    }
}

/// A fully materialized trace: every record resident for the whole run.
impl RecordSource for &[DynInst] {
    #[inline]
    fn try_get(&mut self, seq: u64) -> Option<DynInst> {
        <[DynInst]>::get(self, seq as usize).copied()
    }

    #[inline]
    fn release_before(&mut self, _seq: u64) {}

    #[inline]
    fn get(&mut self, seq: u64) -> DynInst {
        self[seq as usize]
    }
}

/// A streaming window over a live emulator: fetch pulls records into
/// existence on demand and commit releases them once the ROB has drained
/// past.
impl RecordSource for &mut TraceStream<'_> {
    #[inline]
    fn try_get(&mut self, seq: u64) -> Option<DynInst> {
        TraceStream::get(self, seq)
    }

    #[inline]
    fn release_before(&mut self, seq: u64) {
        TraceStream::release_before(self, seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dide_emu::Emulator;
    use dide_isa::{ProgramBuilder, Reg};

    fn program(iters: i64) -> dide_isa::Program {
        let mut b = ProgramBuilder::new("src");
        b.li(Reg::T0, 0);
        b.li(Reg::T1, iters);
        let top = b.label();
        b.bind(top);
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, top);
        b.out(Reg::T0);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn slice_and_stream_agree_record_for_record() {
        let p = program(100);
        let trace = Emulator::new(&p).run().unwrap();
        let mut slice = trace.records();
        let mut stream_inner = TraceStream::new(&p, 32);
        let mut stream = &mut stream_inner;
        for seq in 0..trace.len() as u64 {
            assert_eq!(slice.try_get(seq), RecordSource::try_get(&mut stream, seq), "seq {seq}");
            assert_eq!(RecordSource::get(&mut slice, seq), RecordSource::get(&mut stream, seq));
            // Release as a commit stage would; later reads stay ahead.
            RecordSource::release_before(&mut stream, seq);
            slice.release_before(seq);
        }
        let end = trace.len() as u64;
        assert!(RecordSource::end_reached(&mut slice, end));
        assert!(RecordSource::end_reached(&mut stream, end));
        assert!(!RecordSource::end_reached(&mut slice, end - 1));
    }
}

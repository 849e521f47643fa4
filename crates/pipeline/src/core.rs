//! The cycle loop: rename, dispatch, issue, execute, commit — with
//! dead-instruction elimination.

use dide_analysis::{DeadnessAnalysis, StreamedDeadness, Verdict};
use dide_emu::{Trace, TraceStream};
use dide_isa::{Program, Reg};
use dide_mem::MemoryHierarchy;
use dide_obs::EventKind;
use dide_predictor::dead::PredictInput;
use dide_predictor::future::CfSignature;

use crate::config::{EliminationPolicy, PipelineConfig};
use crate::elim::{Predictor, StoreShadow};
use crate::frontend::{FetchBlock, Frontend};
use crate::fu::{FuClass, FuPool};
use crate::iq::{IqEntry, IssueQueue};
use crate::lsq::LoadStoreQueues;
use crate::predecode::predecode;
use crate::regfile::PhysRegFile;
use crate::rename::{Mapping, RenameMap};
use crate::rob::{DestInfo, Rob, RobEntry};
use crate::source::RecordSource;
use crate::stats::PipelineStats;
use crate::wheel::{Completion, CompletionQueue};

/// The out-of-order core.
///
/// See the [crate docs](crate) for the model and an example.
#[derive(Debug, Clone)]
pub struct Core {
    config: PipelineConfig,
}

/// Which rename-blocking stall counter a skipped idle cycle replicates.
#[derive(Debug, Clone, Copy)]
enum RenameStall {
    RobFull,
    IqFull,
    LsqFull,
    NoPhys,
}

impl Core {
    /// Creates a core with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// (see [`PipelineConfig::validate`]).
    #[must_use]
    pub fn new(config: PipelineConfig) -> Core {
        config.validate();
        Core { config }
    }

    /// The core's configuration.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Simulates the trace to completion and returns the run's statistics.
    ///
    /// The oracle `analysis` is used only for commit-time predictor
    /// training and for scoring (never for making predictions); it must
    /// have been computed from this same `trace`.
    ///
    /// # Panics
    ///
    /// Panics if `analysis` does not match `trace`, or if the simulation
    /// exceeds its deadlock guard (which would indicate a model bug).
    #[must_use]
    pub fn run(&self, trace: &Trace, analysis: &DeadnessAnalysis) -> PipelineStats {
        self.run_observed(trace, analysis, None)
    }

    /// [`Core::run`] with an optional cycle-event trace attached.
    ///
    /// With `events = None` (what [`Core::run`] passes) the loop pays one
    /// branch per hook and records nothing — architectural results are
    /// bit-identical either way, which `dide bench` asserts. With a trace
    /// attached, occupancy is sampled every
    /// [`EventsConfig::sample_every`](dide_obs::EventsConfig) cycles and
    /// predictor verdicts, eliminations and dead-tag violations are
    /// recorded as they retire through rename.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Core::run`].
    #[must_use]
    pub fn run_observed(
        &self,
        trace: &Trace,
        analysis: &DeadnessAnalysis,
        events: Option<&mut dide_obs::EventTrace>,
    ) -> PipelineStats {
        assert_eq!(
            analysis.verdicts().len(),
            trace.len(),
            "analysis must come from the same trace"
        );
        self.run_loop(trace.program(), trace.records(), analysis.verdicts(), events)
    }

    /// Simulates a streamed trace to completion: the same cycle loop as
    /// [`Core::run`], but fetch pulls records out of `stream` on demand and
    /// commit releases them once the ROB has drained past, so peak retained
    /// trace memory stays one epoch (the stream's ring grows only if the
    /// in-flight window of ROB + fetch-buffer records outgrows an epoch)
    /// regardless of trace length.
    ///
    /// `deadness` must come from [`DeadnessAnalysis::analyze_streamed`] on
    /// the same program under the same emulator limits — the analysis pass
    /// runs first, and its verdict vector also tells this loop the trace
    /// length. When that analysis was single-epoch its verdicts equal the
    /// exact oracle's, and this run's statistics are bit-identical to
    /// [`Core::run`] on the materialized trace.
    ///
    /// `stream` must be freshly constructed: nothing produced or released.
    ///
    /// # Panics
    ///
    /// Panics if `stream` and `deadness` disagree about the trace, or if
    /// the simulation exceeds its deadlock guard.
    #[must_use]
    pub fn run_streamed(
        &self,
        stream: &mut TraceStream<'_>,
        deadness: &StreamedDeadness,
    ) -> PipelineStats {
        self.run_streamed_observed(stream, deadness, None)
    }

    /// [`Core::run_streamed`] with an optional cycle-event trace attached
    /// (see [`Core::run_observed`] for the tracing contract).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Core::run_streamed`].
    #[must_use]
    pub fn run_streamed_observed(
        &self,
        stream: &mut TraceStream<'_>,
        deadness: &StreamedDeadness,
        events: Option<&mut dide_obs::EventTrace>,
    ) -> PipelineStats {
        let program = stream.program();
        let stats = self.run_loop(program, &mut *stream, deadness.verdicts(), events);
        assert_eq!(
            stream.total_len(),
            Some(deadness.len() as u64),
            "deadness must come from an analysis of the streamed program"
        );
        stats
    }

    /// The cycle loop, generic over where records come from (so each
    /// source compiles to its own loop with the lookup inlined). `verdicts`
    /// is always full-length — the analysis pass precedes the pipeline pass
    /// even when the trace itself is streamed — and supplies the trace
    /// length, the oracle predictor's answers, and commit-time training
    /// labels.
    fn run_loop<S: RecordSource>(
        &self,
        program: &Program,
        mut source: S,
        verdicts: &[Verdict],
        mut events: Option<&mut dide_obs::EventTrace>,
    ) -> PipelineStats {
        if self.config.cluster.is_some() {
            return crate::cluster::run_loop_clustered(
                &self.config,
                program,
                source,
                verdicts,
                events,
            );
        }
        let cfg = &self.config;
        let total = verdicts.len() as u64;
        let predec = predecode(program, cfg);
        let track_stores = cfg.dead.policy.covers_stores();

        let mut stats = PipelineStats::default();
        let mut hierarchy = MemoryHierarchy::new(cfg.hierarchy);
        let mut frontend = Frontend::new(cfg, &predec);
        let mut regs = PhysRegFile::new(cfg.phys_regs, Reg::COUNT);
        let mut map = RenameMap::new();
        let mut rob = Rob::new(cfg.rob_entries);
        let mut iq = IssueQueue::new(cfg.iq_entries, cfg.phys_regs);
        let mut lsq = LoadStoreQueues::new(cfg.lq_entries, cfg.sq_entries);
        let mut fus = FuPool::new(cfg.fu);
        let mut predictor = Predictor::new(&cfg.dead, verdicts);
        let mut completions = CompletionQueue::new();
        // Written at rename in program order (see `StoreShadow`).
        let mut store_shadow = StoreShadow::default();
        let mut rename_stalled_until = 0u64;
        // Scratch for issue select, reused across cycles.
        let mut ready_scratch: Vec<(u64, u32)> = Vec::new();

        let mut committed = 0u64;
        let mut now = 0u64;
        let deadlock_guard = 10_000u64.saturating_add(total.saturating_mul(1_000));

        while committed < total {
            assert!(
                now < deadlock_guard,
                "pipeline deadlock: {committed}/{total} committed after {now} cycles \
                 (rob {}/{}, iq {}/{}, lq {}/{}, sq {}/{}, free regs {})",
                rob.len(),
                cfg.rob_entries,
                iq.len(),
                cfg.iq_entries,
                lsq.lq_len(),
                cfg.lq_entries,
                lsq.sq_len(),
                cfg.sq_entries,
                regs.free_count(),
            );

            // ---- writeback: drain completions due this cycle ----
            // `pop_due` yields same-cycle completions in ascending seq
            // order (see wheel.rs for why that pinning is benign).
            while let Some(c) = completions.pop_due(now) {
                rob.complete(c.seq);
                if let Some(p) = c.dest {
                    regs.set_ready(p);
                    iq.wakeup(p);
                    stats.rf_writes += 1;
                }
                if c.is_store {
                    lsq.store_executed(c.seq);
                }
                if frontend.pending_branch() == Some(c.seq) {
                    frontend.resolve_branch(c.seq, now);
                }
            }

            // ---- commit ----
            for _ in 0..cfg.commit_width {
                let Some(head) = rob.head() else { break };
                if !head.completed {
                    break;
                }
                let e = rob.pop().expect("head exists");
                if let Some(d) = e.dest {
                    if let Mapping::Phys(p) = d.prev {
                        regs.free(p);
                        stats.phys_frees += 1;
                    }
                }
                if e.is_cond_branch {
                    stats.branches += 1;
                }
                if e.is_load && !e.eliminated {
                    lsq.pop_load(e.seq);
                }
                if e.is_store {
                    if e.eliminated {
                        stats.savings.dcache_accesses_saved += 1;
                    } else {
                        lsq.pop_store(e.seq);
                        let mem = source.get(e.seq).mem().expect("stores carry an access");
                        hierarchy.access_data(mem.addr, true);
                    }
                }
                if e.eligible {
                    let was_dead = verdicts[e.seq as usize].is_dead();
                    let input = PredictInput {
                        seq: e.seq,
                        static_index: source.get(e.seq).index,
                        signature: e.signature,
                    };
                    predictor.train(&input, was_dead);
                    if was_dead {
                        stats.oracle_dead_committed += 1;
                    }
                    if e.eliminated {
                        stats.dead_predicted += 1;
                        stats.dead_predicted_correct += u64::from(was_dead);
                    }
                }
                committed += 1;
                stats.committed += 1;
            }
            // Nothing before the commit head is ever read again: a
            // streaming source recycles the epochs the ROB drained past.
            source.release_before(committed);

            // ---- issue / execute ----
            let mut issued = 0usize;
            fus.begin_cycle();
            if iq.ready_count() > 0 {
                // Select visits only *ready* entries, oldest first — the
                // queue's age list yields them already in sequence order.
                ready_scratch.clear();
                iq.collect_ready(&mut ready_scratch);
                for &(seq, slot) in &ready_scratch {
                    if issued == cfg.issue_width {
                        break;
                    }
                    // FU availability first: it is a pure counter check,
                    // and skipping it saves the (pricier) LSQ probe for
                    // loads once the memory ports are exhausted. The probe
                    // is side-effect-free, so swapping the check order
                    // changes no outcome.
                    let e = iq.entry(slot);
                    let fu = e.fu;
                    if !fus.can_issue(fu, now) {
                        continue;
                    }
                    let is_load = e.is_load;
                    if is_load {
                        let mem = source.get(seq).mem().expect("loads carry an access");
                        if !lsq.load_may_issue(seq, mem) {
                            continue;
                        }
                    }
                    let base_latency = fus.try_issue(fu, now).expect("availability checked above");
                    let latency = if is_load {
                        let mem = source.get(seq).mem().expect("loads carry an access");
                        // The cache is probed either way; a store-to-load
                        // forward shortcuts the latency.
                        let access = hierarchy.access_data(mem.addr, false);
                        if lsq.load_forwards(seq, mem) {
                            2
                        } else {
                            1 + access
                        }
                    } else {
                        base_latency // store: address generation only
                    };
                    stats.rf_reads += e.srcs.iter().flatten().count() as u64;
                    completions.push(Completion {
                        cycle: now + u64::from(latency),
                        seq,
                        dest: e.dest,
                        is_store: fu == FuClass::Mem && !is_load,
                    });
                    iq.remove(slot);
                    issued += 1;
                }
            }

            // ---- rename / dispatch ----
            if now >= rename_stalled_until {
                'rename: for _ in 0..cfg.rename_width {
                    let Some(seq) = frontend.peek_ready(now) else { break };
                    if rob.is_full() {
                        stats.rob_full_stalls += 1;
                        break;
                    }
                    let r = source.get(seq);
                    let pre = &predec[r.index as usize];
                    let dest = pre.dest;
                    let is_store = pre.is_store;
                    let is_load = pre.is_load;

                    let eligible = pre.eligible;
                    let signature = if eligible {
                        frontend.signature(seq, cfg.dead.lookahead)
                    } else {
                        CfSignature::empty()
                    };
                    let input = PredictInput { seq, static_index: r.index, signature };
                    let eliminate = eligible && predictor.predict(&input);
                    if eligible {
                        if let Some(tr) = events.as_deref_mut() {
                            tr.record(now, EventKind::Verdict { seq, predicted_dead: eliminate });
                        }
                    }

                    let mut srcs = [None, None];
                    if !eliminate {
                        // Map sources, detecting dead-tag violations (this
                        // instruction actually reads its sources) in the
                        // same pass.
                        for (i, &src) in pre.srcs.iter().flatten().enumerate() {
                            match map.get(src) {
                                Mapping::Phys(p) => srcs[i] = Some(p),
                                Mapping::Dead(_) => {
                                    // Recovery re-executes the producer: it
                                    // needs a register for the materialized
                                    // value.
                                    let Some(p) = regs.alloc() else {
                                        stats.no_phys_stalls += 1;
                                        break 'rename;
                                    };
                                    stats.phys_allocs += 1;
                                    regs.set_ready(p);
                                    // No in-flight entry can reference a reg
                                    // straight off the free list, but keep the
                                    // set_ready → wakeup pairing uniform.
                                    iq.wakeup(p);
                                    map.set(src, Mapping::Phys(p));
                                    stats.dead_violations += 1;
                                    if let Some(tr) = events.as_deref_mut() {
                                        tr.record(now, EventKind::Violation { seq });
                                    }
                                    rename_stalled_until =
                                        now + u64::from(cfg.dead.violation_penalty);
                                    break 'rename;
                                }
                            }
                        }
                        // Loads can also trip over eliminated stores. (The
                        // emptiness guard keeps elimination-off runs from
                        // probing the shadow on every load.)
                        if is_load && store_shadow.has_eliminated() {
                            let mem = r.mem().expect("loads carry an access");
                            if store_shadow.take_eliminated_producer(mem) {
                                stats.dead_violations += 1;
                                if let Some(tr) = events.as_deref_mut() {
                                    tr.record(now, EventKind::Violation { seq });
                                }
                                rename_stalled_until = now + u64::from(cfg.dead.violation_penalty);
                                break 'rename;
                            }
                        }
                    }

                    if eliminate {
                        // The instruction vanishes: no physical register,
                        // no issue-queue slot, no execution, no cache
                        // access. It retires through the ROB for precise
                        // state and trains the predictor at commit.
                        let dest_info = dest.map(|arch| {
                            let prev = map.set(arch, Mapping::Dead(seq));
                            DestInfo { prev }
                        });
                        stats.savings.phys_allocs_saved += u64::from(dest.is_some());
                        stats.savings.iq_slots_saved += 1;
                        stats.savings.rf_writes_saved += u64::from(dest.is_some());
                        stats.savings.rf_reads_saved += pre.srcs.iter().flatten().count() as u64;
                        if is_load {
                            stats.savings.dcache_accesses_saved += 1;
                        }
                        if is_store {
                            // An eliminated store still architecturally
                            // produced its bytes: claim them so later loads
                            // can trip the violation check above.
                            store_shadow.claim_store_bytes(
                                seq,
                                r.mem().expect("stores carry an access"),
                                true,
                            );
                        }
                        if let Some(tr) = events.as_deref_mut() {
                            tr.record(now, EventKind::Eliminated { seq });
                        }
                        stats.dispatched += 1;
                        rob.push(RobEntry {
                            seq,
                            dest: dest_info,
                            eliminated: true,
                            completed: true,
                            is_load,
                            is_store,
                            is_cond_branch: pre.is_cond_branch,

                            eligible,
                            steered_dead: false,
                            signature,
                        });
                        frontend.pop(seq);
                        continue;
                    }

                    // Normal dispatch: check resources, then allocate.
                    if iq.is_full() {
                        stats.iq_full_stalls += 1;
                        break;
                    }
                    if is_load && lsq.lq_full() {
                        stats.lsq_full_stalls += 1;
                        break;
                    }
                    if is_store && lsq.sq_full() {
                        stats.lsq_full_stalls += 1;
                        break;
                    }
                    let mut dest_phys = None;
                    if dest.is_some() && regs.free_count() == 0 {
                        stats.no_phys_stalls += 1;
                        break;
                    }

                    let dest_info = dest.map(|arch| {
                        let p = regs.alloc().expect("free count checked above");
                        stats.phys_allocs += 1;
                        dest_phys = Some(p);
                        let prev = map.set(arch, Mapping::Phys(p));
                        DestInfo { prev }
                    });

                    if is_load {
                        lsq.push_load(seq);
                    }
                    if is_store {
                        let mem = r.mem().expect("stores carry an access");
                        lsq.push_store(seq, mem);
                        if track_stores {
                            store_shadow.claim_store_bytes(seq, mem, false);
                        }
                    }
                    iq.push(IqEntry { seq, srcs, fu: pre.fu, is_load, dest: dest_phys }, &regs);
                    stats.dispatched += 1;
                    rob.push(RobEntry {
                        seq,
                        dest: dest_info,
                        eliminated: false,
                        completed: false,
                        is_load,
                        is_store,
                        is_cond_branch: pre.is_cond_branch,

                        eligible,
                        steered_dead: false,
                        signature,
                    });
                    frontend.pop(seq);
                }
            }

            // ---- fetch ----
            frontend.fetch(now, &mut source, &mut hierarchy, &mut stats);

            // Occupancy accounting (end-of-cycle snapshot).
            stats.rob_occupancy_sum += rob.len() as u64;
            stats.iq_occupancy_sum += iq.len() as u64;
            // Registers in use beyond the architectural baseline; dead-tag
            // mappings hold no register, so this can dip below 32 — clamp.
            stats.phys_used_sum +=
                (cfg.phys_regs - regs.free_count()).saturating_sub(Reg::COUNT) as u64;
            if let Some(tr) = events.as_deref_mut() {
                if tr.should_sample(now) {
                    tr.record(
                        now,
                        EventKind::Sample {
                            rob: rob.len() as u32,
                            iq: iq.len() as u32,
                            lq: lsq.lq_len() as u32,
                            sq: lsq.sq_len() as u32,
                            free_regs: regs.free_count() as u32,
                        },
                    );
                }
            }

            now += 1;

            // ---- idle-cycle skip-ahead ----
            // When no stage can make progress, jump `now` to the next
            // cycle at which one can, replicating exactly the per-cycle
            // accounting the skipped no-op cycles would have performed.
            // Stage-by-stage, a cycle `t` in the skipped window is a no-op:
            //  * writeback — the earliest pending completion bounds the
            //    target, so nothing is due before it;
            //  * commit — requires a *completed* ROB head, checked below;
            //    nothing completes in the window, and dispatch (which can
            //    push pre-completed eliminated entries) is blocked;
            //  * issue — requires a ready IQ entry, checked below; wakeups
            //    only happen at writeback, dispatch is blocked;
            //  * rename — before `rename_wake`, rename is gated by its
            //    stall window or an empty/unready fetch buffer and touches
            //    no counter. From `rename_wake` on, the buffer-front
            //    instruction is presented every cycle; if a structural
            //    resource blocks it, the attempt's only side effect is one
            //    stall-counter bump, replicated below, and the window may
            //    extend past `rename_wake`. A full ROB qualifies
            //    unconditionally (the check precedes every other rename
            //    side effect, including the predictor verdict and its
            //    event). The IQ/LSQ/phys-reg checks qualify only with
            //    elimination off, where nothing is ever `eligible`: the
            //    attempt then runs no predictor query, records no event,
            //    and the dead-tag scan is read-only, so re-running it every
            //    skipped cycle is observationally a counter bump. If no
            //    resource blocks, rename would dispatch: `rename_wake`
            //    bounds the target;
            //  * fetch — classified via `block_state`: blocked states only
            //    bump `fetch_stall_cycles` (replicated below); a state that
            //    would fetch forbids skipping outright.
            // All machine state is therefore frozen across the window and
            // the classification cannot change mid-window, except for
            // `Stalled`, whose expiry cycle also bounds the target.
            if committed < total
                && iq.ready_count() == 0
                && !rob.head().is_some_and(|h| h.completed)
            {
                let mut target = completions.next_cycle().unwrap_or(u64::MAX);
                let rename_wake = match frontend.next_ready_at() {
                    Some(ready_at) => ready_at.max(rename_stalled_until),
                    None => u64::MAX,
                };
                let blocked = if rob.is_full() {
                    Some(RenameStall::RobFull)
                } else if cfg.dead.policy == EliminationPolicy::Off {
                    match frontend.next_seq() {
                        Some(seq) => {
                            let pre = &predec[source.get(seq).index as usize];
                            if iq.is_full() {
                                Some(RenameStall::IqFull)
                            } else if (pre.is_load && lsq.lq_full())
                                || (pre.is_store && lsq.sq_full())
                            {
                                Some(RenameStall::LsqFull)
                            } else if pre.dest.is_some() && regs.free_count() == 0 {
                                Some(RenameStall::NoPhys)
                            } else {
                                None
                            }
                        }
                        None => None,
                    }
                } else {
                    None
                };
                if blocked.is_none() {
                    target = target.min(rename_wake);
                }
                let fetch_stalls = match frontend.block_state(now, &mut source) {
                    FetchBlock::Pending | FetchBlock::BufferFull => true,
                    FetchBlock::Stalled(until) => {
                        target = target.min(until);
                        true
                    }
                    FetchBlock::Exhausted => false,
                    FetchBlock::Progress => {
                        target = now; // fetch would advance: cannot skip
                        false
                    }
                };
                if let Some(tr) = events.as_deref() {
                    // Never skip over an occupancy-sample cycle; the loop
                    // body records it naturally once `now` lands there.
                    let every = tr.config().sample_every;
                    if every > 0 {
                        target = target.min(now.next_multiple_of(every));
                    }
                }
                if target > now && target != u64::MAX {
                    let skipped = target - now;
                    stats.rob_occupancy_sum += rob.len() as u64 * skipped;
                    stats.iq_occupancy_sum += iq.len() as u64 * skipped;
                    stats.phys_used_sum +=
                        (cfg.phys_regs - regs.free_count()).saturating_sub(Reg::COUNT) as u64
                            * skipped;
                    if fetch_stalls {
                        stats.fetch_stall_cycles += skipped;
                    }
                    if rename_wake < target {
                        // Each skipped cycle from `rename_wake` on would
                        // have presented a ready instruction to rename and
                        // stalled on the blocking resource.
                        let stalled = target - rename_wake.max(now);
                        match blocked.expect("an unblocked rename bounds the target") {
                            RenameStall::RobFull => stats.rob_full_stalls += stalled,
                            RenameStall::IqFull => stats.iq_full_stalls += stalled,
                            RenameStall::LsqFull => stats.lsq_full_stalls += stalled,
                            RenameStall::NoPhys => stats.no_phys_stalls += stalled,
                        }
                    }
                    now = target;
                }
            }
        }
        debug_assert!(frontend.drained(&mut source), "all instructions must pass through fetch");
        stats.cycles = now;
        stats.memory = hierarchy.stats();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeadElimConfig, EliminationPolicy};
    use dide_emu::Emulator;
    use dide_isa::ProgramBuilder;

    fn counted_loop_program(iters: i64) -> Program {
        let mut b = ProgramBuilder::new("loop");
        b.li(Reg::T0, 0);
        b.li(Reg::T1, iters);
        let top = b.label();
        b.bind(top);
        b.slt(Reg::T2, Reg::T0, Reg::T1); // dead on all but the last iteration
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, top);
        b.out(Reg::T2);
        b.halt();
        b.build().unwrap()
    }

    fn counted_loop(iters: i64) -> Trace {
        Emulator::new(&counted_loop_program(iters)).run().unwrap()
    }

    #[test]
    fn commits_every_instruction() {
        let t = counted_loop(200);
        let a = DeadnessAnalysis::analyze(&t);
        let stats = Core::new(PipelineConfig::baseline()).run(&t, &a);
        assert_eq!(stats.committed, t.len() as u64);
        assert_eq!(stats.dispatched, t.len() as u64);
        assert!(stats.cycles > 0);
        assert!(stats.ipc() > 0.1, "ipc {}", stats.ipc());
        assert!(stats.invariant_violations().is_empty(), "{:?}", stats.invariant_violations());
    }

    #[test]
    fn loop_branch_is_predictable() {
        let t = counted_loop(500);
        let a = DeadnessAnalysis::analyze(&t);
        let stats = Core::new(PipelineConfig::baseline()).run(&t, &a);
        assert!(stats.branch_accuracy() > 0.95, "accuracy {}", stats.branch_accuracy());
    }

    #[test]
    fn elimination_reduces_register_traffic() {
        let t = counted_loop(2000);
        let a = DeadnessAnalysis::analyze(&t);
        let base = Core::new(PipelineConfig::baseline()).run(&t, &a);
        let elim_cfg = PipelineConfig::baseline().with_elimination(DeadElimConfig::default());
        let elim = Core::new(elim_cfg).run(&t, &a);
        assert_eq!(elim.committed, base.committed);
        assert!(elim.dead_predicted > 500, "eliminated {}", elim.dead_predicted);
        assert!(elim.savings.phys_allocs_saved > 0);
        assert!(elim.phys_allocs < base.phys_allocs);
        assert!(elim.rf_writes < base.rf_writes);
        assert!(elim.elimination_accuracy() > 0.9, "accuracy {}", elim.elimination_accuracy());
        assert!(elim.invariant_violations().is_empty(), "{:?}", elim.invariant_violations());
    }

    fn store_load_loop(iters: i64) -> Trace {
        let mut b = ProgramBuilder::new("memloop");
        b.li(Reg::T0, 0);
        b.li(Reg::T1, iters);
        let top = b.label();
        b.bind(top);
        b.sd(Reg::T0, Reg::SP, -8);
        b.ld(Reg::T2, Reg::SP, -8);
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, top);
        b.out(Reg::T2);
        b.halt();
        Emulator::new(&b.build().unwrap()).run().unwrap()
    }

    #[test]
    fn rob_pressure_shows_up_in_registry_counters() {
        // A 4-entry ROB wraps its ring dozens of times on a 300-iteration
        // loop; the registry must report the resulting backpressure while
        // every conservation law still holds.
        let t = counted_loop(300);
        let a = DeadnessAnalysis::analyze(&t);
        let mut cfg = PipelineConfig::baseline();
        cfg.rob_entries = 4;
        let stats = Core::new(cfg).run(&t, &a);
        let c = stats.counters();
        assert_eq!(c.expect("pipeline.committed"), t.len() as u64);
        assert!(c.expect("pipeline.rob_full_stalls") > 0, "tiny ROB must stall dispatch");
        assert!(stats.invariant_violations().is_empty(), "{:?}", stats.invariant_violations());
    }

    #[test]
    fn free_list_exhaustion_shows_up_in_registry_counters() {
        // Two spare physical registers: rename repeatedly drains the free
        // list and recycles registers freed at commit. The registry reports
        // the stalls, and frees stay bounded by allocs plus the initial
        // architectural mappings.
        let t = counted_loop(300);
        let a = DeadnessAnalysis::analyze(&t);
        let mut cfg = PipelineConfig::baseline();
        cfg.phys_regs = 34;
        let stats = Core::new(cfg).run(&t, &a);
        let c = stats.counters();
        assert_eq!(c.expect("pipeline.committed"), t.len() as u64);
        assert!(c.expect("pipeline.no_phys_stalls") > 0, "2 spare registers must stall rename");
        assert!(c.expect("pipeline.phys_allocs") > 0);
        assert!(
            c.expect("pipeline.phys_frees") <= c.expect("pipeline.phys_allocs") + Reg::COUNT as u64
        );
        assert!(stats.invariant_violations().is_empty(), "{:?}", stats.invariant_violations());
    }

    #[test]
    fn store_load_traffic_shows_up_in_registry_counters() {
        // Store-to-load forwarding pressure through a 1-entry store queue:
        // the LSQ stalls are counted, and the memory scope feeds the L1D
        // conservation rules (hits + misses == accesses).
        let t = store_load_loop(200);
        let a = DeadnessAnalysis::analyze(&t);
        let mut cfg = PipelineConfig::baseline();
        cfg.sq_entries = 1;
        let stats = Core::new(cfg).run(&t, &a);
        let c = stats.counters();
        assert_eq!(c.expect("pipeline.committed"), t.len() as u64);
        assert!(c.expect("pipeline.lsq_full_stalls") > 0, "1-entry SQ must stall dispatch");
        assert!(c.expect("pipeline.mem.l1d.accesses") >= 400, "each iteration touches the L1D");
        assert_eq!(
            c.expect("pipeline.mem.l1d.hits") + c.expect("pipeline.mem.l1d.misses"),
            c.expect("pipeline.mem.l1d.accesses")
        );
        assert!(stats.invariant_violations().is_empty(), "{:?}", stats.invariant_violations());
    }

    #[test]
    fn elimination_off_by_default_in_baseline() {
        let cfg = PipelineConfig::baseline();
        assert_eq!(cfg.dead.policy, EliminationPolicy::Off);
        let t = counted_loop(50);
        let a = DeadnessAnalysis::analyze(&t);
        let stats = Core::new(cfg).run(&t, &a);
        assert_eq!(stats.dead_predicted, 0);
        assert_eq!(stats.savings.phys_allocs_saved, 0);
    }

    #[test]
    fn observed_run_is_bit_identical_and_records_events() {
        use dide_obs::{EventKind, EventTrace, EventsConfig};
        let t = counted_loop(600);
        let a = DeadnessAnalysis::analyze(&t);
        let cfg = PipelineConfig::baseline().with_elimination(DeadElimConfig::default());
        let core = Core::new(cfg);
        let plain = core.run(&t, &a);
        let mut events = EventTrace::new(EventsConfig { sample_every: 16, capacity: 512 });
        let observed = core.run_observed(&t, &a, Some(&mut events));
        assert_eq!(plain, observed, "tracing must not perturb architectural results");
        assert!(!events.is_empty());
        let kinds: Vec<&str> = events.events().iter().map(|e| e.kind.label()).collect();
        assert!(kinds.contains(&"sample"));
        assert!(kinds.contains(&"verdict"));
        assert!(kinds.contains(&"eliminated"));
        let verdicts = events
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Verdict { predicted_dead: true, .. }))
            .count();
        assert!(verdicts > 0, "an eliminating run must record dead verdicts");
    }

    #[test]
    fn eliminated_stores_never_reach_the_store_queue() {
        // Each iteration's first store is overwritten before any load:
        // the oracle eliminates it at rename, so it must never be pushed
        // into the store queue or issued. If one ever leaked into the
        // execute path, writeback's `store_executed` would panic on the
        // absent sequence number (see lsq.rs) — this run completing is
        // the regression guard.
        let mut b = ProgramBuilder::new("deadstores");
        b.li(Reg::T0, 0);
        b.li(Reg::T1, 200);
        let top = b.label();
        b.bind(top);
        b.sd(Reg::T0, Reg::SP, -8); // dead: overwritten below, never read
        b.sd(Reg::T1, Reg::SP, -8);
        b.ld(Reg::T2, Reg::SP, -8);
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, top);
        b.out(Reg::T2);
        b.halt();
        let t = Emulator::new(&b.build().unwrap()).run().unwrap();
        let a = DeadnessAnalysis::analyze(&t);
        let cfg = PipelineConfig::baseline().with_elimination(DeadElimConfig {
            policy: EliminationPolicy::StoreOnly,
            oracle: true,
            ..DeadElimConfig::default()
        });
        let stats = Core::new(cfg).run(&t, &a);
        assert_eq!(stats.committed, t.len() as u64);
        assert!(stats.dead_predicted > 0, "the oracle must eliminate the dead stores");
        assert!(
            stats.savings.dcache_accesses_saved > 0,
            "eliminated stores must skip the D-cache at commit"
        );
        assert!(stats.invariant_violations().is_empty(), "{:?}", stats.invariant_violations());
    }

    #[test]
    fn contended_machine_is_slower() {
        let t = counted_loop(1000);
        let a = DeadnessAnalysis::analyze(&t);
        let base = Core::new(PipelineConfig::baseline()).run(&t, &a);
        let tight = Core::new(PipelineConfig::contended()).run(&t, &a);
        assert!(tight.cycles >= base.cycles);
    }

    #[test]
    fn single_epoch_streamed_run_is_bit_identical() {
        // A single-epoch windowed analysis yields the exact verdicts, so
        // the streamed pipeline pass must reproduce the materialized run's
        // statistics bit for bit — elimination, training and all.
        let p = counted_loop_program(2000);
        let t = Emulator::new(&p).run().unwrap();
        let a = DeadnessAnalysis::analyze(&t);
        let cfg = PipelineConfig::baseline()
            .with_elimination(DeadElimConfig { oracle: true, ..DeadElimConfig::default() });
        let core = Core::new(cfg);
        let base = core.run(&t, &a);

        let epoch = 1 << 20; // whole trace in one epoch
        let sd = DeadnessAnalysis::analyze_streamed(&p, epoch).unwrap();
        let mut stream = TraceStream::new(&p, epoch);
        let streamed = core.run_streamed(&mut stream, &sd);
        assert_eq!(streamed, base, "single-epoch streamed run must be bit-identical");
    }

    #[test]
    fn streamed_run_window_stays_bounded() {
        // With many small epochs the stream must keep only the in-flight
        // window resident: ROB (128) + fetch buffer (32) records fit one
        // 256-record epoch, so the ring never grows past it.
        let p = counted_loop_program(3000);
        let cfg = PipelineConfig::baseline()
            .with_elimination(DeadElimConfig { oracle: true, ..DeadElimConfig::default() });
        let core = Core::new(cfg);
        let sd = DeadnessAnalysis::analyze_streamed(&p, 256).unwrap();
        let mut stream = TraceStream::new(&p, 256);
        let stats = core.run_streamed(&mut stream, &sd);
        assert_eq!(stats.committed, sd.len() as u64);
        assert!(stats.invariant_violations().is_empty(), "{:?}", stats.invariant_violations());
        let epochs = stream.total_len().unwrap().div_ceil(256);
        assert!(epochs > 20, "the trace must span many epochs (got {epochs})");
        let epoch_bytes = 256 * std::mem::size_of::<dide_emu::DynInst>() as u64;
        assert_eq!(
            stream.peak_resident_bytes(),
            epoch_bytes,
            "the in-flight window must fit one epoch of {epochs}"
        );
    }

    #[test]
    fn streamed_violation_path_matches_materialized() {
        // A dead store whose bytes are read only by a dead-but-uneliminable
        // load: under a store-only oracle the store vanishes at rename and
        // the load must trip the dead-tag violation — through the core's
        // own store shadow, identically on both record paths.
        let mut b = ProgramBuilder::new("violating");
        b.li(Reg::T0, 0);
        b.li(Reg::T1, 150);
        let top = b.label();
        b.bind(top);
        b.sd(Reg::T0, Reg::SP, -8); // read only by the dead load: eliminated
        b.ld(Reg::T2, Reg::SP, -8); // result never used, not store-eligible
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, top);
        b.out(Reg::T0);
        b.halt();
        let p = b.build().unwrap();
        let cfg = PipelineConfig::baseline().with_elimination(DeadElimConfig {
            policy: EliminationPolicy::StoreOnly,
            oracle: true,
            ..DeadElimConfig::default()
        });
        let core = Core::new(cfg);

        let t = Emulator::new(&p).run().unwrap();
        let a = DeadnessAnalysis::analyze(&t);
        let base = core.run(&t, &a);
        assert!(base.dead_violations > 0, "the dead load must read the eliminated store");
        assert!(base.invariant_violations().is_empty(), "{:?}", base.invariant_violations());

        let sd = DeadnessAnalysis::analyze_streamed(&p, 1 << 20).unwrap();
        let mut stream = TraceStream::new(&p, 1 << 20);
        assert_eq!(core.run_streamed(&mut stream, &sd), base);

        // Small epochs: verdicts are conservative, but the run still
        // commits everything and detects violations soundly.
        let sd = DeadnessAnalysis::analyze_streamed(&p, 64).unwrap();
        let mut stream = TraceStream::new(&p, 64);
        let small = core.run_streamed(&mut stream, &sd);
        assert_eq!(small.committed, base.committed);
        assert!(small.invariant_violations().is_empty(), "{:?}", small.invariant_violations());
    }
}

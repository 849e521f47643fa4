//! The clustered-backend cycle loop (DESIGN.md §11).
//!
//! The unified loop in `core.rs` owns one issue queue and one function-unit
//! pool; this loop partitions both into `ClusterConfig::clusters` slices and
//! adds a dispatch-time steering stage. The pieces that stay *global* are
//! deliberate modeling choices, documented here once:
//!
//! * the ROB, rename map, free list and commit stage — clustering splits the
//!   execution backend, not the in-order machinery around it;
//! * the load/store queues and store-to-load forwarding — memory ordering is
//!   resolved centrally, so a forward pays no inter-cluster penalty;
//! * the physical register *storage* — only operand forwarding is clustered:
//!   a value produced in cluster A wakes A's consumers at local writeback
//!   and every other cluster's consumers `bypass_penalty` cycles later.
//!
//! Cross-cluster visibility is tracked as one bitset per cluster over the
//! physical registers, plus a small calendar of pending remote wakeups.
//! Each register carries a generation counter bumped at allocation: a
//! register can be freed at commit and re-allocated while a remote wakeup
//! for its *previous* value is still in flight, and the generation check
//! discards exactly those stale events.
//!
//! The loop intentionally has **no idle-cycle skip-ahead**: the unified
//! loop's skip replicates per-cycle accounting exactly, so omitting it
//! changes no counter — and it keeps this (much younger) timing model
//! simple enough for the cycle-accuracy pins in `tests/cycle_accuracy.rs`
//! to be hand-checked. The N=1, penalty-0 configuration is asserted
//! cycle-identical to the unified backend by those pins.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dide_analysis::Verdict;
use dide_isa::{Program, Reg};
use dide_mem::MemoryHierarchy;
use dide_obs::EventKind;
use dide_predictor::dead::PredictInput;
use dide_predictor::future::CfSignature;

use crate::config::{EliminationPolicy, PipelineConfig, SteerPolicy};
use crate::elim::{Predictor, StoreShadow};
use crate::frontend::Frontend;
use crate::fu::{FuClass, FuPool};
use crate::iq::{IqEntry, IssueQueue};
use crate::lsq::LoadStoreQueues;
use crate::predecode::predecode;
use crate::regfile::{PhysReg, PhysRegFile};
use crate::rename::{Mapping, RenameMap};
use crate::rob::{DestInfo, Rob, RobEntry};
use crate::source::RecordSource;
use crate::stats::{ClusterStats, PipelineStats};
use crate::wheel::{Completion, CompletionQueue};

/// A pending cross-cluster wakeup: at `cycle`, generation `gen` of register
/// `reg` becomes visible to cluster `cluster`. Ordered by the full tuple so
/// the heap drains deterministically.
type RemoteWakeup = Reverse<(u64, u16, u32, u8)>;

/// Per-cluster operand visibility plus the register generations that guard
/// in-flight remote wakeups against free/re-allocate races.
struct Visibility {
    /// One ready-style bitset per cluster (64 registers per word).
    visible: Vec<Vec<u64>>,
    /// Allocation generation per physical register.
    gen: Vec<u32>,
    /// Cluster that produces (or last produced) each register's value.
    producer: Vec<u8>,
}

impl Visibility {
    fn new(clusters: usize, phys_regs: usize, reserved: usize) -> Visibility {
        let mut visible = vec![vec![0u64; phys_regs.div_ceil(64)]; clusters];
        for set in &mut visible {
            for i in 0..reserved {
                set[i / 64] |= 1 << (i % 64);
            }
        }
        Visibility { visible, gen: vec![0; phys_regs], producer: vec![0; phys_regs] }
    }

    fn is_visible(&self, cluster: usize, p: PhysReg) -> bool {
        self.visible[cluster][p.0 as usize / 64] & (1 << (p.0 as usize % 64)) != 0
    }

    fn set_visible(&mut self, cluster: usize, p: PhysReg) {
        self.visible[cluster][p.0 as usize / 64] |= 1 << (p.0 as usize % 64);
    }

    /// Allocation bookkeeping: the new value is visible nowhere yet, and
    /// any remote wakeup still in flight for the register's previous value
    /// is invalidated by the generation bump.
    fn on_alloc(&mut self, p: PhysReg, producer: usize) {
        for set in &mut self.visible {
            set[p.0 as usize / 64] &= !(1 << (p.0 as usize % 64));
        }
        self.gen[p.0 as usize] = self.gen[p.0 as usize].wrapping_add(1);
        self.producer[p.0 as usize] = producer as u8;
    }
}

/// The clustered twin of `Core::run_loop`; see the module docs for what is
/// partitioned and what stays global. Stage order per cycle matches the
/// unified loop exactly: remote wakeups + writeback, commit, issue,
/// rename/dispatch, fetch, occupancy.
#[allow(clippy::too_many_lines)]
pub(crate) fn run_loop_clustered<S: RecordSource>(
    cfg: &PipelineConfig,
    program: &Program,
    mut source: S,
    verdicts: &[Verdict],
    mut events: Option<&mut dide_obs::EventTrace>,
) -> PipelineStats {
    let ccfg = cfg.cluster.expect("clustered loop needs a cluster config");
    let n = ccfg.clusters;
    let penalty = u64::from(ccfg.bypass_penalty);
    let cheap = n - 1;
    let elim_on = cfg.dead.policy.enabled();
    let total = verdicts.len() as u64;

    // `DeadSteer` without elimination still needs dead predictions — to
    // steer on, not to squash on. Predecode eligibility (which drives
    // signatures, prediction and commit-time training) is computed under
    // the full policy; the actual `cfg.dead.policy` stays `Off`, so nothing
    // is ever eliminated and no dead-tag mapping can exist.
    let mut effective = *cfg;
    if ccfg.steer == SteerPolicy::DeadSteer && !elim_on {
        effective.dead.policy = EliminationPolicy::RegAndStore;
    }
    let predec = predecode(program, &effective);
    let track_stores = cfg.dead.policy.covers_stores();

    let mut stats =
        PipelineStats { clusters: vec![ClusterStats::default(); n], ..PipelineStats::default() };
    let mut hierarchy = MemoryHierarchy::new(cfg.hierarchy);
    let mut frontend = Frontend::new(cfg, &predec);
    let mut regs = PhysRegFile::new(cfg.phys_regs, Reg::COUNT);
    let mut map = RenameMap::new();
    let mut rob = Rob::new(cfg.rob_entries);
    let mut iqs: Vec<IssueQueue> =
        (0..n).map(|_| IssueQueue::new((cfg.iq_entries / n).max(1), cfg.phys_regs)).collect();
    let iq_slice = (cfg.iq_entries / n).max(1);
    let mut lsq = LoadStoreQueues::new(cfg.lq_entries, cfg.sq_entries);
    let mut fus: Vec<FuPool> = (0..n)
        .map(|_| {
            let f = cfg.fu;
            FuPool::new(crate::config::FuConfig {
                alus: (f.alus / n).max(1),
                muls: (f.muls / n).max(1),
                divs: (f.divs / n).max(1),
                mem_ports: (f.mem_ports / n).max(1),
                ..f
            })
        })
        .collect();
    let mut predictor = Predictor::new(&cfg.dead, verdicts);
    let mut completions = CompletionQueue::new();
    let mut store_shadow = StoreShadow::default();
    let mut vis = Visibility::new(n, cfg.phys_regs, Reg::COUNT);
    let mut remote: BinaryHeap<RemoteWakeup> = BinaryHeap::new();
    let mut rename_stalled_until = 0u64;
    // Round-robin steering cursor, advanced only on successful dispatch so
    // stalled attempts do not skew the rotation.
    let mut rr = 0usize;
    // Merged (seq, slot, cluster) issue candidates, reused across cycles.
    let mut ready_scratch: Vec<(u64, u32, usize)> = Vec::new();
    let mut cluster_scratch: Vec<(u64, u32)> = Vec::new();

    let mut committed = 0u64;
    let mut now = 0u64;
    let deadlock_guard = 10_000u64.saturating_add(total.saturating_mul(1_000));

    while committed < total {
        assert!(
            now < deadlock_guard,
            "clustered pipeline deadlock: {committed}/{total} committed after {now} cycles \
             (rob {}/{}, iq {:?}, free regs {}, remote wakeups {})",
            rob.len(),
            cfg.rob_entries,
            iqs.iter().map(IssueQueue::len).collect::<Vec<_>>(),
            regs.free_count(),
            remote.len(),
        );

        // ---- cross-cluster wakeups due this cycle ----
        // Drained before writeback: every due event was scheduled at least
        // one cycle ago (penalty >= 1 on this path), so the two never
        // race within a cycle. A generation mismatch means the register
        // was re-allocated while the event was in flight — stale, drop it.
        while let Some(&Reverse((cycle, reg, gen, k))) = remote.peek() {
            if cycle > now {
                break;
            }
            remote.pop();
            let p = PhysReg(reg);
            if vis.gen[reg as usize] == gen {
                let k = k as usize;
                vis.set_visible(k, p);
                let woken = iqs[k].wakeup(p);
                stats.clusters[k].bypass_stalls += u64::from(woken);
            }
        }

        // ---- writeback: drain completions due this cycle ----
        while let Some(c) = completions.pop_due(now) {
            rob.complete(c.seq);
            if let Some(p) = c.dest {
                regs.set_ready(p);
                let home = vis.producer[p.0 as usize] as usize;
                vis.set_visible(home, p);
                iqs[home].wakeup(p);
                stats.rf_writes += 1;
                if penalty == 0 {
                    // An ideal bypass network: remote consumers wake at the
                    // same writeback, with no stall charged.
                    for (k, iq) in iqs.iter_mut().enumerate() {
                        if k != home {
                            vis.set_visible(k, p);
                            iq.wakeup(p);
                        }
                    }
                } else {
                    let gen = vis.gen[p.0 as usize];
                    for k in 0..n {
                        if k != home {
                            remote.push(Reverse((now + penalty, p.0, gen, k as u8)));
                        }
                    }
                }
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
            // Audit dead-steering against the oracle: a live instruction
            // routed to the cheap cluster paid latency it should not have.
            // Zero by construction under the oracle predictor.
            if e.steered_dead && !verdicts[e.seq as usize].is_dead() {
                stats.steer.dead_wrong += 1;
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
        source.release_before(committed);

        // ---- issue / execute ----
        // Oldest-first select across *all* clusters under the global issue
        // width: per-cluster ready lists are already seq-sorted, so one
        // sort of the short merged list restores global age order.
        let mut issued = 0usize;
        for f in &mut fus {
            f.begin_cycle();
        }
        ready_scratch.clear();
        for (k, iq) in iqs.iter().enumerate() {
            if iq.ready_count() > 0 {
                cluster_scratch.clear();
                iq.collect_ready(&mut cluster_scratch);
                ready_scratch.extend(cluster_scratch.iter().map(|&(seq, slot)| (seq, slot, k)));
            }
        }
        ready_scratch.sort_unstable_by_key(|&(seq, _, _)| seq);
        for &(seq, slot, k) in &ready_scratch {
            if issued == cfg.issue_width {
                break;
            }
            let e = iqs[k].entry(slot);
            let fu = e.fu;
            if !fus[k].can_issue(fu, now) {
                continue;
            }
            let is_load = e.is_load;
            if is_load {
                let mem = source.get(seq).mem().expect("loads carry an access");
                if !lsq.load_may_issue(seq, mem) {
                    continue;
                }
            }
            let base_latency = fus[k].try_issue(fu, now).expect("availability checked above");
            let latency = if is_load {
                let mem = source.get(seq).mem().expect("loads carry an access");
                let access = hierarchy.access_data(mem.addr, false);
                if lsq.load_forwards(seq, mem) {
                    2
                } else {
                    1 + access
                }
            } else {
                base_latency
            };
            stats.rf_reads += e.srcs.iter().flatten().count() as u64;
            completions.push(Completion {
                cycle: now + u64::from(latency),
                seq,
                dest: e.dest,
                is_store: fu == FuClass::Mem && !is_load,
            });
            iqs[k].remove(slot);
            stats.clusters[k].issued += 1;
            issued += 1;
        }

        // ---- rename / dispatch / steer ----
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
                let predicted_dead = eligible && predictor.predict(&input);
                // With elimination on, a dead prediction squashes (the
                // paper's mechanism); with it off under `DeadSteer`, the
                // same prediction steers to the cheap cluster instead.
                let eliminate = predicted_dead && elim_on;
                let steer_dead = predicted_dead && !elim_on;
                if eligible {
                    if let Some(tr) = events.as_deref_mut() {
                        tr.record(now, EventKind::Verdict { seq, predicted_dead });
                    }
                }

                let mut srcs = [None, None];
                if !eliminate {
                    for (i, &src) in pre.srcs.iter().flatten().enumerate() {
                        match map.get(src) {
                            Mapping::Phys(p) => srcs[i] = Some(p),
                            Mapping::Dead(_) => {
                                let Some(p) = regs.alloc() else {
                                    stats.no_phys_stalls += 1;
                                    break 'rename;
                                };
                                stats.phys_allocs += 1;
                                // The recovered value materializes outside
                                // any cluster's datapath: ready and visible
                                // everywhere at once, like the initial
                                // architectural mappings.
                                vis.on_alloc(p, 0);
                                regs.set_ready(p);
                                for (k, iq) in iqs.iter_mut().enumerate() {
                                    vis.set_visible(k, p);
                                    iq.wakeup(p);
                                }
                                map.set(src, Mapping::Phys(p));
                                stats.dead_violations += 1;
                                if let Some(tr) = events.as_deref_mut() {
                                    tr.record(now, EventKind::Violation { seq });
                                }
                                rename_stalled_until = now + u64::from(cfg.dead.violation_penalty);
                                break 'rename;
                            }
                        }
                    }
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
                    // Squash pre-dispatch, exactly as the unified loop
                    // eliminates — the instruction enters no cluster.
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
                    stats.steer.squashed += 1;
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

                // Steering: pick the target cluster before the structural
                // checks, which are then per-cluster for the issue queue.
                let (cluster, used_rr) = if steer_dead {
                    (cheap, false)
                } else {
                    match ccfg.steer {
                        SteerPolicy::RoundRobin => (rr % n, true),
                        SteerPolicy::DependenceAffinity => {
                            // Follow the cluster producing the first still
                            // in-flight source; nothing in flight means no
                            // forward to save, so fall back to rotation.
                            match srcs.iter().flatten().find(|p| !regs.is_ready(**p)) {
                                Some(p) => (vis.producer[p.0 as usize] as usize, false),
                                None => (rr % n, true),
                            }
                        }
                        // Live instructions avoid the cheap cluster when
                        // there is more than one to rotate over.
                        SteerPolicy::DeadSteer if n > 1 => (rr % (n - 1), true),
                        SteerPolicy::DeadSteer => (0, true),
                    }
                };

                if iqs[cluster].is_full() {
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
                    vis.on_alloc(p, cluster);
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
                // Readiness in this cluster is *visibility*, not the global
                // ready bit: a ready remote value still in its bypass
                // window counts as pending here.
                iqs[cluster]
                    .push_with(IqEntry { seq, srcs, fu: pre.fu, is_load, dest: dest_phys }, |p| {
                        vis.is_visible(cluster, p)
                    });
                stats.dispatched += 1;
                stats.clusters[cluster].dispatched += 1;
                if steer_dead {
                    stats.steer.dead += 1;
                    stats.clusters[cluster].steered_dead += 1;
                } else {
                    stats.steer.normal += 1;
                }
                if used_rr {
                    rr += 1;
                }
                rob.push(RobEntry {
                    seq,
                    dest: dest_info,
                    eliminated: false,
                    completed: false,
                    is_load,
                    is_store,
                    is_cond_branch: pre.is_cond_branch,
                    eligible,
                    steered_dead: steer_dead,
                    signature,
                });
                frontend.pop(seq);
            }
        }

        // ---- fetch ----
        frontend.fetch(now, &mut source, &mut hierarchy, &mut stats);

        // Occupancy accounting (end-of-cycle snapshot).
        stats.rob_occupancy_sum += rob.len() as u64;
        let iq_len: usize = iqs.iter().map(IssueQueue::len).sum();
        stats.iq_occupancy_sum += iq_len as u64;
        stats.phys_used_sum +=
            (cfg.phys_regs - regs.free_count()).saturating_sub(Reg::COUNT) as u64;
        if let Some(tr) = events.as_deref_mut() {
            if tr.should_sample(now) {
                tr.record(
                    now,
                    EventKind::Sample {
                        rob: rob.len() as u32,
                        iq: iq_len as u32,
                        lq: lsq.lq_len() as u32,
                        sq: lsq.sq_len() as u32,
                        free_regs: regs.free_count() as u32,
                    },
                );
            }
        }

        now += 1;
        debug_assert!(iqs.iter().all(|iq| iq.len() <= iq_slice));
    }
    debug_assert!(frontend.drained(&mut source), "all instructions must pass through fetch");
    stats.cycles = now;
    stats.memory = hierarchy.stats();
    stats
}

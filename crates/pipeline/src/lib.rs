//! Cycle-level out-of-order superscalar core with dead-instruction
//! elimination.
//!
//! This crate is the timing substrate of the reproduction: a 4-wide (by
//! default) out-of-order core in the style of the paper's simulated
//! machine, with
//!
//! * an in-order frontend (I-cache, gshare + BTB + RAS, fetch buffer),
//! * register renaming over a physical register file with a free list,
//! * a unified issue queue with oldest-first select and per-class function
//!   units,
//! * split load/store queues with oracle memory disambiguation,
//! * an in-order commit stage, and
//! * the paper's **dead-instruction elimination**: instructions predicted
//!   dead at rename skip physical-register allocation, the issue queue,
//!   execution, register-file traffic and (for loads/stores) the D-cache;
//!   reads of a dead-tagged register trigger a fixed-penalty recovery.
//!
//! The model is execution-driven along the committed path: the functional
//! emulator's trace supplies instructions and memory addresses, and branch
//! mispredictions appear as frontend redirect bubbles rather than wrong-path
//! execution (see DESIGN.md's substitution table).
//!
//! # Example
//!
//! ```
//! use dide_isa::{ProgramBuilder, Reg};
//! use dide_emu::Emulator;
//! use dide_analysis::DeadnessAnalysis;
//! use dide_pipeline::{Core, PipelineConfig};
//!
//! let mut b = ProgramBuilder::new("demo");
//! b.li(Reg::T0, 0).li(Reg::T1, 500);
//! let top = b.label();
//! b.bind(top);
//! b.addi(Reg::T0, Reg::T0, 1);
//! b.blt(Reg::T0, Reg::T1, top);
//! b.out(Reg::T0);
//! b.halt();
//! let trace = Emulator::new(&b.build()?).run()?;
//! let analysis = DeadnessAnalysis::analyze(&trace);
//!
//! let stats = Core::new(PipelineConfig::baseline()).run(&trace, &analysis);
//! assert!(stats.ipc() > 0.5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod config;
mod core;
mod elim;
mod frontend;
mod fu;
mod iq;
mod lsq;
mod predecode;
mod regfile;
mod rename;
mod rob;
mod source;
mod stats;
mod wheel;

pub use crate::core::Core;
pub use config::{
    ClusterConfig, DeadElimConfig, EliminationPolicy, FuConfig, PipelineConfig, SteerPolicy,
};
pub use stats::{ClusterStats, PipelineStats, ResourceSavings, SteerStats};

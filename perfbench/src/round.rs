//! What one round of a workload did, and the failure accounting shared by
//! the workloads.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::trace::Tracer;

/// Failure messages kept per round (the count is always exact).
const KEPT_ERRORS: usize = 8;

/// The piece key of a job's time outside its leaf layer calls.
pub const OWN: usize = usize::MAX;

/// The outcome of one pass over a workload's inputs.
#[derive(Debug, Default, Clone)]
pub struct Round {
    /// Operations attempted: simulate calls (`suite`), streamed runs
    /// (`stream`) or unique campaign jobs (`campaign`).
    pub attempted: u64,
    /// Operations that panicked or violated an output check.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Committed simulated instructions over every simulate call (or over
    /// the store records, for `campaign`).
    pub sim_insts: u64,
    /// Quantities that must repeat exactly from round to round and run to
    /// run (cycles, counters, job counts, bytes).
    pub counts: BTreeMap<&'static str, u64>,
    /// Geomean of cycles(elim off) / cycles(cfi) over the round's
    /// benchmarks; a pure function of the counters, so exact as well.
    pub elim_speedup: f64,
    /// Wall time of each piece of the round: every leaf layer call of a
    /// job, keyed `(job, call index)`, and the job's own time outside
    /// them, keyed `(job, OWN)`.
    pub pieces: BTreeMap<(u64, usize), Duration>,
}

impl Round {
    /// Records `ops` failed operations with one message.
    pub fn fail(&mut self, ops: u64, message: String) {
        self.failed += ops;
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(message);
        }
    }

    /// Adds `value` to the exact count `name`.
    pub fn add(&mut self, name: &'static str, value: u64) {
        *self.counts.entry(name).or_default() += value;
    }

    /// Raises the exact count `name` to at least `value`.
    pub fn max(&mut self, name: &'static str, value: u64) {
        let slot = self.counts.entry(name).or_default();
        *slot = (*slot).max(value);
    }

    /// Runs job `job` of the round inside a `job` span, timing it piece
    /// by piece (see [`Round::pieces`]).
    pub fn job(&mut self, t: &mut Tracer, job: u64, f: impl FnOnce(&mut Round, &mut Tracer)) {
        let mark = t.laps().len();
        let began = Instant::now();
        t.span("job", job, |t| f(self, t));
        let total = began.elapsed();
        let calls = t.drain_laps(mark);
        let inside: Duration = calls.iter().sum();
        self.pieces.extend(calls.into_iter().enumerate().map(|(i, lap)| ((job, i), lap)));
        self.pieces.insert((job, OWN), total.saturating_sub(inside));
    }

    /// The exact count `name` (0 when the workload never touched it).
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

/// Runs `f`, turning a panic into an error; spans left open by the panic
/// are closed so the trace stays well-formed.
pub fn guarded<R>(
    t: &mut Tracer,
    f: impl FnOnce(&mut Tracer) -> Result<R, String>,
) -> Result<R, String> {
    let depth = t.depth();
    match catch_unwind(AssertUnwindSafe(|| f(&mut *t))) {
        Ok(result) => result,
        Err(payload) => {
            t.close_to(depth);
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(format!("panicked: {message}"))
        }
    }
}

/// Geometric mean of `ratios` (1.0 for none).
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// SplitMix64: the benchmark's only source of seeded choices.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarded_turns_panics_into_errors() {
        let mut t = Tracer::new(true);
        let r: Result<(), String> = guarded(&mut t, |t| t.span("x", 0, |_| panic!("boom")));
        assert_eq!(r.unwrap_err(), "panicked: boom");
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn a_job_is_timed_call_by_call() {
        let mut t = Tracer::new(false);
        let mut r = Round::default();
        r.job(&mut t, 3, |_, t| {
            t.span("a", 3, |_| std::thread::sleep(Duration::from_millis(2)));
            t.span("b", 3, |_| ());
        });
        let keys: Vec<(u64, usize)> = r.pieces.keys().copied().collect();
        assert_eq!(keys, [(3, 0), (3, 1), (3, OWN)]);
        assert!(r.pieces[&(3, 0)] >= Duration::from_millis(2));
        assert!(t.laps().is_empty(), "the job drains its laps");
    }

    #[test]
    fn geomean_of_equal_ratios_is_that_ratio() {
        assert!((geomean(&[1.5, 1.5, 1.5]) - 1.5).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }
}

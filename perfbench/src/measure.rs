//! The untraced run: the workload's worlds through `scenario::run_scenario`
//! over `sim::parallel_sweep_timed`, repeated, with tracing and obs off.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use powerburst_scenario::{assemble, run_scenario, ScenarioResult};
use powerburst_sim::{parallel_sweep_timed, SweepTiming};

use crate::outcome::{outcomes, result_digest, Outcomes};
use crate::proc::{peak_rss_bytes, reset_peak_rss};
use crate::stats::median;
use crate::workload::{WorldDef, THREADS};

/// Fewest repeats of the whole workload in one run.
const MIN_REPS: usize = 3;
/// Set-up is timed for at least this long, and at least `MIN_SETUP_REPS`
/// times: `fig4` assembles in about 0.1 ms.
const SETUP_BUDGET_S: f64 = 1.0;
const MIN_SETUP_REPS: usize = 5;

/// Run every world once through `run_scenario`; a world that panics
/// yields `None`.
pub fn run_all(worlds: &[WorldDef]) -> (Vec<Option<ScenarioResult>>, SweepTiming) {
    let jobs: Vec<&WorldDef> = worlds.iter().collect();
    parallel_sweep_timed(jobs, THREADS, |w| {
        catch_unwind(AssertUnwindSafe(|| run_scenario(&w.cfg))).ok()
    })
}

/// Host seconds spent in `scenario::assemble` for every world, each
/// timed as its own call (the world is dropped outside the timing).
pub fn setup_once(worlds: &[WorldDef]) -> f64 {
    worlds
        .iter()
        .map(|w| {
            let t0 = Instant::now();
            let a = assemble(&w.cfg);
            let dt = t0.elapsed().as_secs_f64();
            drop(a);
            dt
        })
        .sum()
}

/// One world's identity in a run: its events and result digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldId {
    /// The world's label.
    pub label: String,
    /// Events the simulation processed.
    pub sim_events: u64,
    /// [`result_digest`] of its results.
    pub digest: String,
}

/// A world that failed in some run of it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The world's label.
    pub label: String,
    /// Every distinct reason it failed, in the order first seen.
    pub reasons: Vec<String>,
    /// The output is missing or untrustworthy — a panic, results that
    /// differ between repeats, or a traced replay that differs from
    /// `run_scenario` — as opposed to a reproducible run that logged
    /// runtime invariant violations.
    pub wrong_output: bool,
}

impl Failure {
    /// The world and its reasons, as one line.
    pub fn what(&self) -> String {
        format!("{}: {}", self.label, self.reasons.join("; "))
    }
}

/// Worlds checked and the failures among them. The operation is the
/// world: its result is a function of the seed alone, so a world that
/// fails in one repeat fails in all of them, and counting it once keeps
/// `failed` independent of how many repeats the host's speed allowed.
#[derive(Debug, Clone, Default)]
pub struct Checked {
    /// Worlds checked.
    pub attempted: usize,
    /// The failed ones, one entry per world.
    pub failures: Vec<Failure>,
}

impl Checked {
    /// A check of `worlds` worlds, none failed yet.
    pub fn new(worlds: usize) -> Checked {
        Checked { attempted: worlds, failures: Vec::new() }
    }

    /// Record that world `label` failed for `why`. A world is one failure
    /// however many of its runs show it.
    pub fn fail(&mut self, label: &str, why: String, wrong_output: bool) {
        let i = match self.failures.iter().position(|f| f.label == label) {
            Some(i) => i,
            None => {
                self.failures.push(Failure {
                    label: label.to_string(),
                    reasons: Vec::new(),
                    wrong_output: false,
                });
                self.failures.len() - 1
            }
        };
        let f = &mut self.failures[i];
        f.wrong_output |= wrong_output;
        if !f.reasons.contains(&why) {
            f.reasons.push(why);
        }
    }

    /// Check one run of world `label`: it must have finished, logged no
    /// invariant violation and, given the reference `first`, reproduced
    /// its digest.
    pub fn world(&mut self, label: &str, r: &Option<ScenarioResult>, first: Option<&WorldId>) {
        match r {
            None => self.fail(label, "panicked".into(), true),
            Some(r) => {
                if first.is_some_and(|f| f.digest != result_digest(r)) {
                    self.fail(label, "result digest differs from the first run".into(), true);
                }
                if let Some(v) = r.invariants.violations().first() {
                    let why = format!("{} invariant violations, first {v}", r.invariants.total());
                    self.fail(label, why, false);
                }
            }
        }
    }

    /// Every output was produced and reproduced.
    pub fn outputs_correct(&self) -> bool {
        self.failures.iter().all(|f| !f.wrong_output)
    }
}

/// What the untraced run measured.
#[derive(Debug, Clone)]
pub struct Untraced {
    /// Wall seconds of each repeat of the whole workload.
    pub wall_s: Vec<f64>,
    /// Set-up seconds of each set-up repeat.
    pub setup_s: Vec<f64>,
    /// The process's high-water RSS during each timed repeat, bytes.
    pub peak_rss_bytes: Vec<f64>,
    /// World identities from the untimed first run.
    pub worlds: Vec<WorldId>,
    /// Outcomes from the untimed first run (every repeat must match it).
    pub outcomes: Outcomes,
    /// Every world over all its runs, checked.
    pub checked: Checked,
}

/// Run the workload once untimed (caches, allocator and clock speed
/// settle; its results are the reference every timed repeat must match),
/// repeat it until `seconds` have passed and at least [`MIN_REPS`] timed
/// repeats are done, recording each repeat's high-water RSS, and only then
/// time set-up.
pub fn untraced(worlds: &[WorldDef], seconds: f64) -> Untraced {
    let (first, _) = run_all(worlds);
    let mut u = Untraced {
        wall_s: Vec::new(),
        setup_s: Vec::new(),
        peak_rss_bytes: Vec::new(),
        worlds: worlds
            .iter()
            .zip(&first)
            .map(|(w, r)| WorldId {
                label: w.label.clone(),
                sim_events: r.as_ref().map_or(0, |r| r.sim_events),
                digest: r.as_ref().map_or_else(|| "panicked".into(), result_digest),
            })
            .collect(),
        outcomes: outcomes(&first.iter().flatten().cloned().collect::<Vec<_>>()),
        checked: Checked::new(worlds.len()),
    };
    u.check(worlds, &first);
    drop(first);

    let t0 = Instant::now();
    while u.wall_s.len() < MIN_REPS || t0.elapsed().as_secs_f64() < seconds {
        reset_peak_rss();
        let (results, timing) = run_all(worlds);
        u.peak_rss_bytes.push(peak_rss_bytes() as f64);
        u.wall_s.push(timing.wall_s);
        u.check(worlds, &results);
    }

    let t0 = Instant::now();
    while u.setup_s.len() < MIN_SETUP_REPS || t0.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        u.setup_s.push(setup_once(worlds));
    }
    u
}

impl Untraced {
    fn check(&mut self, worlds: &[WorldDef], results: &[Option<ScenarioResult>]) {
        for ((w, r), first) in worlds.iter().zip(results).zip(&self.worlds) {
            self.checked.world(&w.label, r, Some(first));
        }
    }

    /// Median wall seconds of a repeat.
    pub fn wall_median(&self) -> f64 {
        median(&self.wall_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world that fails in every repeat is one failure, and its reasons
    /// are listed once each.
    #[test]
    fn a_world_fails_once() {
        let mut c = Checked::new(3);
        for _ in 0..5 {
            c.fail("a", "slot-overrun".into(), false);
        }
        c.fail("b", "panicked".into(), true);
        c.fail("b", "panicked".into(), true);
        c.fail("a", "result digest differs".into(), true);
        assert_eq!((c.attempted, c.failures.len()), (3, 2));
        assert_eq!(c.failures[0].what(), "a: slot-overrun; result digest differs");
        assert!(c.failures[0].wrong_output && !c.outputs_correct());
        let mut clean = Checked::new(1);
        clean.fail("c", "invariant".into(), false);
        assert!(clean.outputs_correct());
    }
}

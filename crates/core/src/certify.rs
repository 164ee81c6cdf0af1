//! Certification plumbing: the [`CellCertifier`] hook that
//! [`Session`](crate::Session) and [`Sweep`](crate::Sweep) call into, the
//! violation vocabulary shared by every certifier, and the per-cell fault
//! record shard-level certification reports.
//!
//! The hook is a trait so the facade does not depend on any concrete
//! checker: `ncdrf-certify` implements it by re-deriving the paper's
//! scheduling and allocation constraints from first principles, and the
//! farm / CLI plug that implementation in where certification is
//! requested.

use crate::model::ModelId;
use crate::pipeline::{LoopAnalysis, LoopEval};
use ncdrf_ddg::Loop;
use ncdrf_machine::Machine;
use ncdrf_sched::Schedule;
use std::fmt;

/// Rule id: a dependence edge is violated by the placement
/// (`start(succ) >= start(pred) + latency - dist * II` fails).
pub const RULE_DEPENDENCE: &str = "dependence";
/// Rule id: an operation is bound to a unit that cannot execute it (wrong
/// class, nonexistent group, or out-of-range instance).
pub const RULE_FU_BINDING: &str = "fu-binding";
/// Rule id: a modulo-reservation-table row issues more operations to a
/// functional-unit group than the group has units.
pub const RULE_MRT_OVERFLOW: &str = "mrt-overflow";
/// Rule id: two operations occupy the same unit instance in the same
/// kernel slot.
pub const RULE_UNIT_CONFLICT: &str = "unit-conflict";
/// Rule id: a reported register requirement (or MaxLive / pressure /
/// II figure derived with it) disagrees with independent recomputation.
pub const RULE_REQUIREMENT: &str = "requirement-mismatch";
/// Rule id: a spill rewrite is not shape-sound (missing or unclaimed
/// spill stores / reloads, a victim still consumed directly, or memory-op
/// counts that do not add up).
pub const RULE_SPILL_SHAPE: &str = "spill-shape";
/// Rule id: an unfit II-escalation answer skipped rungs on the strength
/// of a model requirement floor that independent recomputation does not
/// support (the floor does not exceed the budget, or exceeds the final
/// rung's own requirement, or the model declares no floor).
pub const RULE_FLOOR_SKIP: &str = "floor-skip";

/// One constraint violation found by a certifier: a stable rule id plus a
/// human-readable locator naming the offending operations or quantities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifyViolation {
    /// The violated rule (one of the `RULE_*` constants for the built-in
    /// certifier).
    pub rule: &'static str,
    /// What exactly is wrong, naming the operations / cycles / registers
    /// involved.
    pub detail: String,
}

impl CertifyViolation {
    /// Builds a violation.
    pub fn new(rule: &'static str, detail: impl Into<String>) -> Self {
        CertifyViolation {
            rule,
            detail: detail.into(),
        }
    }

    /// The same violation with a locator prefix (e.g. `"checkpoint 3: "`)
    /// prepended to the detail.
    pub fn locate(self, prefix: impl fmt::Display) -> Self {
        CertifyViolation {
            rule: self.rule,
            detail: format!("{prefix}{}", self.detail),
        }
    }
}

impl fmt::Display for CertifyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.rule, self.detail)
    }
}

impl std::error::Error for CertifyViolation {}

/// An independent validator of per-cell pipeline outputs.
///
/// Implementations must be pure functions of their arguments: the session
/// calls them from worker threads and relies on a violation meaning the
/// *artifact* is wrong, not the checker's mood. The contract for each
/// hook:
///
/// * [`certify_analysis`](CellCertifier::certify_analysis) — `sched` is
///   the exact schedule the analysis figures were derived from (for
///   swapping models, after the swap pass).
/// * [`certify_eval`](CellCertifier::certify_eval) — `final_l`/`sched`
///   are the loop body and schedule the evaluation reports; for spilled
///   cells `final_l` differs from `original` by the claimed spill code.
/// * [`certify_checkpoint`](CellCertifier::certify_checkpoint) — one
///   restored spill-trajectory checkpoint (step 0 is the unspilled base).
/// * [`certify_floor_skip`](CellCertifier::certify_floor_skip) — an
///   unfit evaluation whose II-escalation fallback skipped rungs because
///   the model's requirement floor exceeds the budget.
pub trait CellCertifier: Send + Sync + fmt::Debug {
    /// Certifies an unlimited-register analysis result.
    fn certify_analysis(
        &self,
        l: &Loop,
        machine: &Machine,
        sched: &Schedule,
        analysis: &LoopAnalysis,
    ) -> Result<(), CertifyViolation>;

    /// Certifies a budgeted evaluation result, including any spill
    /// rewrite (`spilled` / `spill_stores` / `spill_loads` are the
    /// spiller's claims; all empty/zero for unspilled cells).
    #[allow(clippy::too_many_arguments)]
    fn certify_eval(
        &self,
        original: &Loop,
        machine: &Machine,
        final_l: &Loop,
        sched: &Schedule,
        spilled: &[String],
        spill_stores: usize,
        spill_loads: usize,
        eval: &LoopEval,
    ) -> Result<(), CertifyViolation>;

    /// Certifies one restored checkpoint of a spill-trajectory replay:
    /// the checkpoint's loop/schedule state and its recorded requirement
    /// under `model`.
    fn certify_checkpoint(
        &self,
        step: usize,
        l: &Loop,
        machine: &Machine,
        sched: &Schedule,
        model: ModelId,
        regs: u32,
    ) -> Result<(), CertifyViolation>;

    /// Certifies a floor skip of the II-escalation ladder: `l`/`sched`
    /// are the served final rung (its loop and schedule), `regs` its
    /// requirement under `model`, and `claimed_floor` the model floor
    /// the ladder derived at its first stationary rung. The skip is
    /// sound when that floor exceeds `budget` and the final rung's own
    /// lifetimes support it.
    #[allow(clippy::too_many_arguments)]
    fn certify_floor_skip(
        &self,
        l: &Loop,
        machine: &Machine,
        sched: &Schedule,
        model: ModelId,
        budget: u32,
        regs: u32,
        claimed_floor: u32,
    ) -> Result<(), CertifyViolation>;
}

/// One grid cell of a shard artifact that failed certification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFault {
    /// Flattened grid-cell index (`machine_index * loops + loop_index`).
    pub task: u64,
    /// The cell's loop.
    pub loop_name: String,
    /// The cell's machine.
    pub machine: String,
    /// Why certification failed (a [`CertifyViolation`] rendering or a
    /// recomputation mismatch).
    pub detail: String,
}

impl fmt::Display for CellFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cell {} (loop `{}` on {}): {}",
            self.task, self.loop_name, self.machine, self.detail
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_renders_rule_and_detail() {
        let v = CertifyViolation::new(RULE_DEPENDENCE, "`A` starts too early");
        assert_eq!(v.to_string(), "[dependence] `A` starts too early");
        let located = v.locate("checkpoint 2: ");
        assert_eq!(
            located.to_string(),
            "[dependence] checkpoint 2: `A` starts too early"
        );
        assert_eq!(located.rule, RULE_DEPENDENCE);
    }

    #[test]
    fn cell_fault_names_its_coordinates() {
        let f = CellFault {
            task: 7,
            loop_name: "hydro".into(),
            machine: "P2L3".into(),
            detail: "[mrt-overflow] slot 2".into(),
        };
        let s = f.to_string();
        assert!(s.contains("cell 7"), "{s}");
        assert!(s.contains("`hydro`"), "{s}");
        assert!(s.contains("P2L3"), "{s}");
    }
}

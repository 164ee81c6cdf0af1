//! The II-escalation ladder: the fallback of the §5.4 loop once no
//! victim is left.
//!
//! When spilling is exhausted and the loop still does not fit, the
//! driver trades II for pressure: it retries the exhausted loop at
//! `base + 1, base + 2, …` up to the sequential length and serves the
//! first rung whose requirement fits (or, when none does, the last
//! scheduled rung). The rung sequence depends on the loop, machine,
//! requirement model and scheduler options only — never on the budget —
//! so a [`Ladder`] evaluates each rung at most once and serves every
//! budget from the recorded rungs.
//!
//! Two facts let it stop early without changing a single output:
//!
//! * **Stationarity.** A rung whose attempt carries the certificate of
//!   [`ncdrf_sched::Rung::stationary`] fixes the starts and units of
//!   every larger II, so later rungs are rebuilt with
//!   [`Schedule::from_parts`] instead of being rescheduled.
//! * **The requirement floor.** From a stationary rung on, every
//!   lifetime only grows, so the flat overlap of that rung's lifetimes
//!   bounds the unified requirement of every later rung
//!   ([`ncdrf_regalloc::flat_overlap`]). A model that maps it to a bound
//!   on its own requirement ([`RequirementFloor`]) lets the ladder jump
//!   straight to the final rung for every budget below that bound.

use crate::{RequirementFn, ResumeStats, SpillError, SpillOptions};
use ncdrf_ddg::Loop;
use ncdrf_machine::{Machine, UnitRef};
use ncdrf_regalloc::{flat_overlap, lifetimes};
use ncdrf_sched::{modulo_schedule_with, SchedContext, Schedule};
use std::fmt;
use std::sync::Arc;

/// A register model's lower bound on its own requirement, given a lower
/// bound `raw_floor` on the **unified** raw requirement (the First-Fit
/// allocation on one rotating file) of a schedule. `None` means the model
/// declares no such bound, and the ladder scans every rung.
///
/// The function must be sound: whenever the unified raw requirement of
/// a schedule is at least `raw_floor`, the model's requirement of that
/// schedule must be at least the returned value.
#[derive(Clone)]
pub struct RequirementFloor(Arc<dyn Fn(u32) -> Option<u32> + Send + Sync>);

impl RequirementFloor {
    /// Wraps a floor function.
    pub fn new(f: impl Fn(u32) -> Option<u32> + Send + Sync + 'static) -> Self {
        RequirementFloor(Arc::new(f))
    }

    /// The model floor for a unified raw floor.
    pub fn apply(&self, raw_floor: u32) -> Option<u32> {
        (self.0)(raw_floor)
    }
}

impl fmt::Debug for RequirementFloor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RequirementFloor(..)")
    }
}

/// The answer of the ladder to one budget.
#[derive(Debug)]
pub(crate) struct Served {
    /// The served (post-requirement) schedule.
    pub(crate) sched: Schedule,
    /// Its requirement.
    pub(crate) regs: u32,
    /// Rungs the fresh scan visits to reach this answer: `ii - base`
    /// for a fitting rung, the whole ladder otherwise.
    pub(crate) rungs: usize,
}

/// Placements of the first stationary rung, reused by every later rung.
#[derive(Debug, Clone)]
struct Stationary {
    ii: u32,
    starts: Vec<u32>,
    units: Vec<UnitRef>,
    /// The model floor derived at this rung, if the model declares one.
    floor: Option<u32>,
}

/// The escalation ladder of one exhausted loop (see the module docs).
///
/// It keeps the requirement of every evaluated rung but the schedule of
/// the final rung only: a session keeps one ladder per exhausted
/// `(loop, model)`, and a served rung is cheap to re-derive.
#[derive(Debug, Clone)]
pub(crate) struct Ladder {
    /// II of the exhausted loop's own schedule.
    base: u32,
    /// The last rung: the sequential length (at least `base + 1`).
    top: u32,
    /// Requirement per evaluated rung, from `base + 1` up to `next - 1`
    /// (`None` where the IMS attempt failed).
    regs: Vec<Option<u32>>,
    stationary: Option<Stationary>,
    /// The final rung — the answer to every budget no rung fits — once
    /// known.
    last: Option<(Schedule, u32)>,
}

impl Ladder {
    /// A ladder over `l`, whose own schedule has II `base`.
    pub(crate) fn new(l: &Loop, machine: &Machine, base: u32) -> Ladder {
        let seq_len: u32 = l
            .ops()
            .iter()
            .map(|op| machine.latency(op.kind()).unwrap_or(1) + 1)
            .sum::<u32>()
            + 1;
        Ladder {
            base,
            top: seq_len.max(base + 1),
            regs: Vec::new(),
            stationary: None,
            last: None,
        }
    }

    /// The next rung to evaluate; `top + 1` once the scan is complete.
    fn next(&self) -> u32 {
        self.base + 1 + u32::try_from(self.regs.len()).expect("rung count fits the II range")
    }

    /// Serves `budget`: the first rung whose requirement fits, else the
    /// final rung — evaluating rungs only as far as this budget needs.
    /// The answer is identical to a rung-by-rung scan from `base + 1`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn serve(
        &mut self,
        ctx: &mut SchedContext,
        l: &Loop,
        machine: &Machine,
        budget: u32,
        requirement: &mut RequirementFn<'_>,
        floor: Option<&RequirementFloor>,
        opts: SpillOptions,
        stats: &mut ResumeStats,
    ) -> Result<Served, SpillError> {
        let whole = (self.top - self.base) as usize;
        loop {
            if let Some(k) = self
                .regs
                .iter()
                .position(|r| r.is_some_and(|r| r <= budget))
            {
                let (sched, regs) = self.rung(ctx, l, machine, k, requirement, opts, stats)?;
                return Ok(Served {
                    sched,
                    regs,
                    rungs: k + 1,
                });
            }
            let next = self.next();
            let jump = self
                .stationary
                .as_ref()
                .and_then(|s| s.floor)
                .filter(|&f| f > budget);
            if next > self.top || jump.is_some() {
                let (sched, regs) = self.last(ctx, l, machine, requirement, opts, stats)?;
                if next <= self.top {
                    stats.rungs_skipped += (self.top - next) as usize;
                    stats.skip_floor = jump.filter(|_| self.top > next);
                }
                return Ok(Served {
                    sched,
                    regs,
                    rungs: whole,
                });
            }
            if let Some((sched, regs)) =
                self.climb(ctx, l, machine, requirement, floor, opts, stats)?
            {
                if regs <= budget {
                    return Ok(Served {
                        sched,
                        regs,
                        rungs: self.regs.len(),
                    });
                }
                if self.next() > self.top {
                    self.last = Some((sched, regs));
                }
            }
        }
    }

    /// Evaluates the next rung, records its requirement and returns its
    /// post-requirement schedule (`None` when the attempt failed).
    #[allow(clippy::too_many_arguments)]
    fn climb(
        &mut self,
        ctx: &mut SchedContext,
        l: &Loop,
        machine: &Machine,
        requirement: &mut RequirementFn<'_>,
        floor: Option<&RequirementFloor>,
        opts: SpillOptions,
        stats: &mut ResumeStats,
    ) -> Result<Option<(Schedule, u32)>, SpillError> {
        let ii = self.next();
        let (mut sched, found) = match &self.stationary {
            Some(st) => {
                stats.rungs_rebuilt += 1;
                (rebuild(l, machine, ii, st), None)
            }
            None => {
                stats.rungs_scheduled += 1;
                let Some(rung) = ctx
                    .schedule_rung(l, machine, ii, opts.scheduler)
                    .map_err(SpillError::Machine)?
                else {
                    self.regs.push(None);
                    return Ok(None);
                };
                let found = if rung.stationary {
                    let raw = match floor {
                        Some(_) => Some(flat_overlap(&lifetimes(l, machine, &rung.sched)?)),
                        None => None,
                    };
                    Some(Stationary {
                        ii,
                        starts: l.iter_ops().map(|(id, _)| rung.sched.start(id)).collect(),
                        units: l.iter_ops().map(|(id, _)| rung.sched.unit(id)).collect(),
                        floor: floor.zip(raw).and_then(|(f, raw)| f.apply(raw)),
                    })
                } else {
                    None
                };
                (rung.sched, found)
            }
        };
        let regs = requirement(l, machine, &mut sched)?;
        if found.is_some() {
            self.stationary = found;
        }
        self.regs.push(Some(regs));
        Ok(Some((sched, regs)))
    }

    /// The evaluated rung `k` (II `base + 1 + k`), re-derived exactly as
    /// the scan produced it.
    #[allow(clippy::too_many_arguments)]
    fn rung(
        &mut self,
        ctx: &mut SchedContext,
        l: &Loop,
        machine: &Machine,
        k: usize,
        requirement: &mut RequirementFn<'_>,
        opts: SpillOptions,
        stats: &mut ResumeStats,
    ) -> Result<(Schedule, u32), SpillError> {
        let ii = self.base + 1 + u32::try_from(k).expect("rung index fits the II range");
        let mut sched = match &self.stationary {
            Some(st) if ii >= st.ii => {
                stats.rungs_rebuilt += 1;
                rebuild(l, machine, ii, st)
            }
            _ => {
                stats.rungs_scheduled += 1;
                ctx.schedule_rung(l, machine, ii, opts.scheduler)
                    .map_err(SpillError::Machine)?
                    .expect("a recorded rung schedules again")
                    .sched
            }
        };
        let regs = requirement(l, machine, &mut sched)?;
        debug_assert_eq!(
            Some(regs),
            self.regs[k],
            "rung {ii} re-derives its requirement"
        );
        Ok((sched, regs))
    }

    /// The final rung when the scan did not keep it: the top rung rebuilt
    /// from the stationary placements when a floor jump needs it before
    /// the scan gets there, the last scheduled rung re-derived, or — when
    /// no rung scheduled at all — the exhausted loop's own schedule.
    #[allow(clippy::too_many_arguments)]
    fn last(
        &mut self,
        ctx: &mut SchedContext,
        l: &Loop,
        machine: &Machine,
        requirement: &mut RequirementFn<'_>,
        opts: SpillOptions,
        stats: &mut ResumeStats,
    ) -> Result<(Schedule, u32), SpillError> {
        if let Some((sched, regs)) = &self.last {
            return Ok((sched.clone(), *regs));
        }
        let (sched, regs) = if self.next() <= self.top {
            let st = self
                .stationary
                .as_ref()
                .expect("a floor jump starts from a stationary rung");
            let mut sched = rebuild(l, machine, self.top, st);
            stats.rungs_rebuilt += 1;
            let regs = requirement(l, machine, &mut sched)?;
            (sched, regs)
        } else if let Some(k) = self.regs.iter().rposition(Option::is_some) {
            self.rung(ctx, l, machine, k, requirement, opts, stats)?
        } else {
            let mut sched = modulo_schedule_with(l, machine, opts.scheduler)?;
            let regs = requirement(l, machine, &mut sched)?;
            (sched, regs)
        };
        self.last = Some((sched.clone(), regs));
        Ok((sched, regs))
    }
}

/// Rung `ii` from a stationary rung's placements.
fn rebuild(l: &Loop, machine: &Machine, ii: u32, st: &Stationary) -> Schedule {
    debug_assert!(ii >= st.ii);
    Schedule::from_parts(l, machine, ii, st.starts.to_vec(), st.units.to_vec())
}

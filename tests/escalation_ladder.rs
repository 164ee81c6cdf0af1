//! The II-escalation ladder against a linear reference scan.
//!
//! When the §5.4 spill descent runs out of victims, the fallback retries
//! the exhausted loop at every larger II up to the sequential length and
//! serves the first rung that fits. The production ladder evaluates each
//! rung once per `(loop, model)`, rebuilds rungs past a stationary one
//! instead of rescheduling them, and jumps to the final rung when the
//! model's requirement floor exceeds the budget. This suite pins that
//! none of that changes a result: every answer equals the plain
//! rung-by-rung scan written below from the public API alone.

use ncdrf::corpus::Corpus;
use ncdrf::ddg::Loop;
use ncdrf::machine::{Machine, MachineError};
use ncdrf::sched::{modulo_schedule_with, Priority, SchedContext, Schedule, SchedulerOptions};
use ncdrf::spill::{
    requirement_unified, spill_until_fits, spill_until_fits_seeded, RequirementFloor, SpillOptions,
    SpillResult, SpillTrajectory,
};
use ncdrf::{requirement, ModelId, PipelineOptions, Session};

const BUDGETS: [u32; 5] = [64, 32, 16, 8, 4];

/// The finite models of the `extended` and `full` presets.
const MODELS: [ModelId; 5] = [
    ModelId::UNIFIED,
    ModelId::PORT_LIMITED,
    ModelId::COMPRESSED,
    ModelId::PARTITIONED,
    ModelId::SWAPPED,
];

type Req<'a> = Box<dyn FnMut(&Loop, &Machine, &mut Schedule) -> Result<u32, MachineError> + 'a>;

fn model_requirement(model: ModelId) -> Req<'static> {
    let opts = PipelineOptions::default();
    Box::new(move |l, m, s| requirement(l, m, s, model, &opts))
}

/// One rung of the reference scan: `None` when the IMS attempt failed.
type RefRung = Option<(Schedule, u32)>;

/// Every rung of the exhausted loop `l`, from `base + 1` to the
/// sequential length, each scheduled and evaluated from scratch.
fn reference_rungs(
    l: &Loop,
    machine: &Machine,
    base: u32,
    req: &mut Req<'_>,
    opts: SchedulerOptions,
) -> (u32, Vec<RefRung>) {
    let seq_len: u32 = l
        .ops()
        .iter()
        .map(|op| machine.latency(op.kind()).unwrap_or(1) + 1)
        .sum::<u32>()
        + 1;
    let top = seq_len.max(base + 1);
    let mut ctx = SchedContext::new();
    let rungs = (base + 1..=top)
        .map(|ii| {
            ctx.schedule_rung(l, machine, ii, opts)
                .unwrap()
                .map(|rung| {
                    let mut sched = rung.sched;
                    let regs = req(l, machine, &mut sched).unwrap();
                    (sched, regs)
                })
        })
        .collect();
    (top, rungs)
}

/// The result a linear scan serves for `budget`, given the exhausted
/// descent `exhausted` (run without escalation) and its rungs.
fn reference_answer(
    exhausted: &SpillResult,
    machine: &Machine,
    rungs: &[RefRung],
    budget: u32,
    req: &mut Req<'_>,
    opts: SchedulerOptions,
) -> SpillResult {
    let mut r = exhausted.clone();
    for (k, rung) in rungs.iter().enumerate() {
        if let Some((sched, regs)) = rung {
            if *regs <= budget {
                r.sched = sched.clone();
                r.regs = *regs;
                r.fits = true;
                r.rounds += k + 1;
                return r;
            }
        }
    }
    match rungs.iter().rev().flatten().next() {
        Some((sched, regs)) => {
            r.sched = sched.clone();
            r.regs = *regs;
        }
        None => {
            let mut sched = modulo_schedule_with(&r.l, machine, opts).unwrap();
            r.regs = req(&r.l, machine, &mut sched).unwrap();
            r.sched = sched;
        }
    }
    r.fits = r.regs <= budget;
    r.rounds += rungs.len();
    r
}

fn floor_of(model: ModelId) -> RequirementFloor {
    let spec = model.spec();
    RequirementFloor::new(move |raw| spec.requirement_floor(raw))
}

/// Checks every budget of every finite model on `loops` (machine of the
/// `extended` preset): the trajectory's ladder (floor declared, rungs
/// shared across budgets) serves exactly the linear scan's
/// `SpillResult`. Returns (escalated evaluations, rungs skipped).
fn check_ladder_against_reference(loops: &Corpus) -> (usize, usize) {
    let machine = Machine::clustered(3, 1);
    let opts = SpillOptions::default();
    let no_escalation = SpillOptions {
        escalate_ii: false,
        ..opts
    };
    let mut escalated = 0usize;
    let mut skipped = 0usize;
    for l in loops.iter() {
        let base = modulo_schedule_with(l, &machine, opts.scheduler).unwrap();
        for model in MODELS {
            let mut req = model_requirement(model);
            let mut traj = SpillTrajectory::from_base(l, &machine, base.clone(), &mut req, opts)
                .unwrap()
                .with_requirement_floor(floor_of(model));
            let mut reference: Option<(SpillResult, Vec<RefRung>)> = None;
            for budget in BUDGETS {
                let (got, stats) = traj.evaluate(&machine, budget, &mut req).unwrap();
                let descent = spill_until_fits_seeded(
                    l,
                    &machine,
                    base.clone(),
                    budget,
                    &mut req,
                    no_escalation,
                )
                .unwrap();
                let want = if descent.fits {
                    descent
                } else {
                    let (exhausted, rungs) = reference.get_or_insert_with(|| {
                        let (_, rungs) = reference_rungs(
                            &descent.l,
                            &machine,
                            descent.sched.ii(),
                            &mut req,
                            opts.scheduler,
                        );
                        (descent, rungs)
                    });
                    escalated += 1;
                    reference_answer(exhausted, &machine, rungs, budget, &mut req, opts.scheduler)
                };
                skipped += stats.rungs_skipped;
                assert_eq!(got, want, "{} under {model} @ {budget}", l.name());
            }
        }
    }
    (escalated, skipped)
}

/// Every small-corpus loop, every finite model of the `extended` and
/// `full` presets, budgets 64 → 4. The linear reference is slow without
/// optimisation, so debug builds skip this exhaustive pass (CI's
/// trajectory-identity job runs it in release) and check the slice
/// below instead.
#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive; run with --release")]
fn ladder_matches_the_linear_reference_scan() {
    let (escalated, skipped) = check_ladder_against_reference(&Corpus::small());
    assert!(
        escalated > 0,
        "the grid must exercise the escalation fallback"
    );
    assert!(skipped > 0, "the grid must exercise the floor jump");
}

/// The same differential check on the first loops of the corpus, cheap
/// enough for every build.
#[test]
fn ladder_matches_the_linear_reference_scan_on_a_slice() {
    let (escalated, skipped) = check_ladder_against_reference(&Corpus::small().take(40));
    assert!(
        escalated > 0,
        "the slice must exercise the escalation fallback"
    );
    assert!(skipped > 0, "the slice must exercise the floor jump");
}

/// The sequential `extended` grid's escalation work, counted by the
/// session. The linear scan this ladder replaced ran 28,759 II attempts
/// on the same grid.
#[test]
fn extended_grid_escalation_work_is_pinned() {
    let corpus = Corpus::small();
    let sig = ncdrf::preset_sweep(&corpus, "extended")
        .expect("a preset")
        .signature();
    let (corpus, machines) = ncdrf::rebuild_grid(&sig).unwrap();
    let mut budgets = sig.budgets.clone();
    budgets.sort_unstable_by(|a, b| b.cmp(a));
    let mut total = ncdrf::EscalationStats::default();
    for machine in machines {
        let session = Session::new(machine);
        for l in corpus.iter() {
            for &budget in &budgets {
                for &model in &sig.models {
                    session.evaluate(l, model, budget).unwrap();
                }
            }
        }
        total.absorb(session.escalation_stats());
    }
    assert_eq!(
        total,
        ncdrf::EscalationStats {
            rungs_scheduled: 4089,
            rungs_rebuilt: 162,
            rungs_skipped: 23785,
        }
    );
}

/// Escalation schedules with the caller's scheduler options: under
/// `Priority::InputOrder` the escalated schedule is the InputOrder
/// attempt at that II, not the default height-priority one.
#[test]
fn escalation_schedules_with_the_callers_priority() {
    let machine = Machine::clustered(6, 1);
    let input_order = SchedulerOptions {
        priority: Priority::InputOrder,
        ..SchedulerOptions::default()
    };
    let opts = SpillOptions {
        scheduler: input_order,
        ..SpillOptions::default()
    };
    let mut distinct = 0usize;
    for l in Corpus::small().take(40).iter() {
        let r = spill_until_fits(l, &machine, 4, &mut requirement_unified, opts).unwrap();
        let descent = spill_until_fits(
            l,
            &machine,
            4,
            &mut requirement_unified,
            SpillOptions {
                escalate_ii: false,
                ..opts
            },
        )
        .unwrap();
        if r.sched.ii() == descent.sched.ii() {
            continue; // no escalation
        }
        let mut ctx = SchedContext::new();
        let ii = r.sched.ii();
        let want = ctx
            .schedule_rung(&r.l, &machine, ii, input_order)
            .unwrap()
            .expect("the served rung scheduled");
        assert_eq!(r.sched, want.sched, "{}", l.name());
        let height = ctx
            .schedule_rung(&r.l, &machine, ii, SchedulerOptions::default())
            .unwrap();
        if height.map(|h| h.sched) != Some(r.sched.clone()) {
            distinct += 1;
        }
    }
    assert!(
        distinct > 0,
        "some escalated schedule must differ from the height-priority attempt"
    );
}

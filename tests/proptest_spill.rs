//! Property tests for spill trajectories.
//!
//! Register-tiling work (arXiv:1406.0582) frames spilling as a monotone
//! pressure-reduction process, and that framing is *almost* right here —
//! with one honest caveat this suite pins down instead of papering over:
//!
//! * **Per-step monotonicity is violated by reschedule noise.** Each
//!   spill rewrites the graph and reschedules from scratch; the reloads'
//!   lifetimes under the new schedule can transiently *raise* the
//!   requirement (`per_step_monotonicity_has_reschedule_counterexamples`
//!   keeps a concrete kernel counterexample on record).
//! * **What continuation actually relies on is budget-independence, not
//!   per-step descent**: the fresh driver stops at the *first* state
//!   fitting its budget, and the step taken from any non-fitting state
//!   does not depend on the budget. Hence the trajectory is prefix-stable
//!   (`resuming_at_any_checkpoint_yields_the_straight_through_tail`) and
//!   first-fit service is bit-identical to a fresh run at every budget
//!   (`continued_results_match_fresh_for_any_budget_order`).
//! * **The *served* requirement is monotone in the budget** — the
//!   user-visible monotonicity theorem: descending budgets can only
//!   tighten the requirement a fitting evaluation reports
//!   (`served_requirements_are_monotone_in_the_budget`).

use ncdrf::corpus::{generate, kernels, GenConfig};
use ncdrf::machine::Machine;
use ncdrf::sched::{
    modulo_schedule, modulo_schedule_with, Priority, SchedContext, Schedule, SchedulerOptions,
};
use ncdrf::spill::{
    requirement_unified, set_full_resched, spill_until_fits_seeded, spill_value, SpillOptions,
    SpillPolicy, SpillTrajectory,
};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serialises the tests that flip the process-global rescheduling mode.
/// (Flipping mid-run is benign — both modes are bit-identical — but the
/// lock keeps each differential comparison's two phases well-defined.)
static RESCHED_MODE: Mutex<()> = Mutex::new(());

fn arb_config() -> impl Strategy<Value = GenConfig> {
    (2usize..10, 1usize..4, 0.0f64..0.4, 0.0f64..0.9).prop_map(|(arith, loads, rec, chain)| {
        GenConfig {
            min_arith: arith,
            max_arith: arith + 6,
            min_loads: loads,
            max_loads: loads + 2,
            recurrence_prob: rec,
            chain_bias: chain,
            ..GenConfig::default()
        }
    })
}

/// Drives a fresh trajectory as deep as a 2-register budget needs
/// (every step of the descent for all practical purposes).
fn deep_trajectory(l: &ncdrf::ddg::Loop, machine: &Machine, opts: SpillOptions) -> SpillTrajectory {
    let base = modulo_schedule(l, machine).unwrap();
    let mut t =
        SpillTrajectory::from_base(l, machine, base, &mut requirement_unified, opts).unwrap();
    t.evaluate(machine, 2, &mut requirement_unified).unwrap();
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // The user-visible monotonicity theorem: as the budget descends,
    // the requirement a fitting (non-escalated) evaluation serves never
    // rises. (Follows from first-fit service: a smaller budget stops at
    // the same or a later checkpoint, and a later-served checkpoint
    // must fit the smaller budget.)
    #[test]
    fn served_requirements_are_monotone_in_the_budget(seed in 0u64..5_000, cfg in arb_config(), lat in prop_oneof![Just(3u32), Just(6u32)]) {
        let l = generate("prop", seed, &cfg);
        let machine = Machine::clustered(lat, 1);
        let mut t = deep_trajectory(&l, &machine, SpillOptions::default());
        let mut prev: Option<u32> = None;
        let start = t.checkpoints()[0].regs;
        for budget in (2..=start.max(2)).rev() {
            let (r, _) = t.evaluate(&machine, budget, &mut requirement_unified).unwrap();
            if !r.fits {
                continue;
            }
            prop_assert!(r.regs <= budget);
            if let Some(p) = prev {
                prop_assert!(
                    r.regs <= p,
                    "budget {} served {} after a larger budget served {}",
                    budget, r.regs, p
                );
            }
            prev = Some(r.regs);
        }
    }

    // Prefix stability: a trajectory extended budget-by-budget through
    // every intermediate requirement commits exactly the checkpoints a
    // single straight-through run commits — same victims, same rewritten
    // loops, same schedules, same requirements.
    #[test]
    fn resuming_at_any_checkpoint_yields_the_straight_through_tail(seed in 0u64..5_000, cfg in arb_config()) {
        let l = generate("prop", seed, &cfg);
        let machine = Machine::clustered(6, 1);
        let straight = deep_trajectory(&l, &machine, SpillOptions::default());

        let base = modulo_schedule(&l, &machine).unwrap();
        let mut staged = SpillTrajectory::from_base(
            &l, &machine, base, &mut requirement_unified, SpillOptions::default()).unwrap();
        // Stop at every checkpoint of the straight run in turn: budget
        // `regs` is exactly the stopping condition of checkpoint `k`.
        // Compare the scalar records: the staged run's *terminal*
        // checkpoint still retains its loop/schedule while the straight
        // run may have pruned that index off the record-minima frontier,
        // so full structural equality only holds at matched depths (the
        // final assertion below).
        for k in 0..straight.checkpoints().len() {
            let budget = straight.checkpoints()[k].regs;
            let (r, _) = staged.evaluate(&machine, budget, &mut requirement_unified).unwrap();
            prop_assert!(r.fits);
            prop_assert!(staged.checkpoints()[..=k.min(staged.steps())]
                .iter().zip(straight.checkpoints()).all(|(a, b)| {
                    (a.regs, &a.victim, a.ii, a.mem_ops, a.spill_stores, a.spill_loads)
                        == (b.regs, &b.victim, b.ii, b.mem_ops, b.spill_stores, b.spill_loads)
                }));
        }
        let (_, _) = staged.evaluate(&machine, 2, &mut requirement_unified).unwrap();
        prop_assert_eq!(staged.checkpoints(), straight.checkpoints());
        prop_assert_eq!(staged.is_exhausted(), straight.is_exhausted());
    }

    // Every rung of an arbitrary budget ladder, in arbitrary order, is
    // bit-identical to a fresh seeded run at that budget — for the
    // paper's policy and the ablation policies alike.
    #[test]
    fn continued_results_match_fresh_for_any_budget_order(
        seed in 0u64..3_000,
        budgets in (2u32..48, 2u32..48, 2u32..48),
        policy_seed in 0u64..3,
    ) {
        let budgets = [budgets.0, budgets.1, budgets.2];
        let policy = [
            SpillPolicy::LongestLifetime,
            SpillPolicy::FewestUses,
            SpillPolicy::Random(seed | 1),
        ][policy_seed as usize];
        let opts = SpillOptions { policy, ..SpillOptions::default() };
        let l = generate("prop", seed, &GenConfig::default());
        let machine = Machine::clustered(6, 1);
        let base = modulo_schedule(&l, &machine).unwrap();
        let mut t = SpillTrajectory::from_base(
            &l, &machine, base.clone(), &mut requirement_unified, opts).unwrap();
        for &budget in &budgets {
            let (continued, _) = t.evaluate(&machine, budget, &mut requirement_unified).unwrap();
            let fresh = spill_until_fits_seeded(
                &l, &machine, base.clone(), budget, &mut requirement_unified, opts).unwrap();
            prop_assert!(continued == fresh, "budget {} under {:?}", budget, policy);
        }
    }

    // Termination: the descent exhausts (or fits) within `max_spills`
    // steps, and exhaustion is a trajectory-level fact — every budget
    // after it is served from checkpoints or the per-budget fallback,
    // computing zero further steps.
    #[test]
    fn descent_terminates_within_the_spill_cap(seed in 0u64..3_000, cap in 1usize..6) {
        let opts = SpillOptions { max_spills: cap, escalate_ii: false, ..SpillOptions::default() };
        let l = generate("prop", seed, &GenConfig::default());
        let machine = Machine::clustered(6, 1);
        let base = modulo_schedule(&l, &machine).unwrap();
        let mut t = SpillTrajectory::from_base(
            &l, &machine, base, &mut requirement_unified, opts).unwrap();
        let (r, _) = t.evaluate(&machine, 2, &mut requirement_unified).unwrap();
        prop_assert!(t.steps() <= cap);
        prop_assert!(r.fits || t.is_exhausted());
        let (_, again) = t.evaluate(&machine, 2, &mut requirement_unified).unwrap();
        prop_assert_eq!(again.steps_computed, 0);
    }

    // The incremental rescheduling path is bit-identical to the full
    // reference path on *arbitrary* generated loops, every checkpoint of
    // the whole descent — not just the curated corpus the golden grids
    // pin.
    #[test]
    fn incremental_descent_matches_full_reschedule(
        seed in 0u64..3_000,
        cfg in arb_config(),
        lat in prop_oneof![Just(3u32), Just(6u32)],
    ) {
        let _guard = RESCHED_MODE.lock().unwrap_or_else(|p| p.into_inner());
        let l = generate("prop", seed, &cfg);
        let machine = Machine::clustered(lat, 1);
        set_full_resched(Some(true));
        let full = deep_trajectory(&l, &machine, SpillOptions::default());
        set_full_resched(Some(false));
        let incremental = deep_trajectory(&l, &machine, SpillOptions::default());
        set_full_resched(None);
        prop_assert_eq!(incremental.checkpoints(), full.checkpoints());
        prop_assert_eq!(incremental.is_exhausted(), full.is_exhausted());
    }

    // Dirty-set soundness: the closure is an *over*-approximation, so
    // every op whose placement changed between the cached run and the
    // extended reschedule must have been in the dirty set. Equivalently:
    // any op the merged attempt reports clean keeps its kernel slot and
    // functional unit exactly. (And the extended result is bit-identical
    // to the reference either way.)
    #[test]
    fn dirty_set_is_a_sound_over_approximation(
        seed in 0u64..3_000,
        cfg in arb_config(),
        victim_pick in 0usize..8,
    ) {
        let l = generate("prop", seed, &cfg);
        let machine = Machine::clustered(6, 1);
        let opts = SchedulerOptions::default();
        let mut ctx = SchedContext::new();
        let first = ctx.schedule(&l, &machine, opts).unwrap();

        let victims: Vec<_> = l
            .ops()
            .iter()
            .filter(|op| op.kind().produces_value())
            .map(|op| l.find_op(op.name()).unwrap())
            .collect();
        prop_assert!(!victims.is_empty());
        let victim = victims[victim_pick % victims.len()];
        let (rewritten, _reloads, _stats) = spill_value(&l, victim).unwrap();

        let got = ctx.reschedule_extended(&rewritten, &machine, opts, l.ops().len());
        let want = modulo_schedule_with(&rewritten, &machine, opts);
        match (got, want) {
            (Ok(got), Ok(want)) => {
                prop_assert_eq!(&got, &want);
                if let Some(mask) = ctx.last_clean_mask() {
                    prop_assert_eq!(got.ii(), first.ii());
                    for (i, op) in l.ops().iter().enumerate() {
                        if !mask[i] {
                            continue;
                        }
                        let id = rewritten.find_op(op.name()).unwrap();
                        let old = l.find_op(op.name()).unwrap();
                        prop_assert_eq!(got.kernel_slot(id), first.kernel_slot(old));
                        prop_assert_eq!(got.unit(id), first.unit(old));
                    }
                    // Appended spill code is never clean.
                    for flag in &mask[l.ops().len()..] {
                        prop_assert!(!flag);
                    }
                }
            }
            (Err(g), Err(w)) => prop_assert_eq!(format!("{g:?}"), format!("{w:?}")),
            (g, w) => prop_assert!(false, "paths disagree: {:?} vs {:?}", g, w),
        }
    }

    // Arena hygiene: one `SchedContext` reused across foreign loops of
    // different sizes, a snapshot replay (which reschedules every
    // recorded victim through a fresh context), and a session cache
    // clear all stay bit-identical to fresh computation — the SoA
    // indices never dangle into a previous run's arena.
    #[test]
    fn arena_reuse_never_dangles_across_cache_clears_and_replay(
        seed in 0u64..2_000,
        cfg in arb_config(),
    ) {
        let l = generate("prop", seed, &cfg);
        let other = generate("prop", seed.wrapping_add(7), &cfg);
        let machine = Machine::clustered(6, 1);

        let mut ctx = SchedContext::new();
        for lp in [&l, &other, &l, &other] {
            let got = ctx.schedule(lp, &machine, SchedulerOptions::default()).unwrap();
            prop_assert_eq!(got, modulo_schedule(lp, &machine).unwrap());
        }

        let t = deep_trajectory(&l, &machine, SpillOptions::default());
        let snap = t.snapshot();
        let base = modulo_schedule(&l, &machine).unwrap();
        let replayed = SpillTrajectory::replay(
            &l, &machine, base, &snap, &mut requirement_unified, SpillOptions::default(),
        ).unwrap();
        prop_assert_eq!(replayed.checkpoints(), t.checkpoints());

        let session = ncdrf::Session::new(machine.clone());
        let before: Vec<_> = [48u32, 16, 6]
            .iter()
            .map(|&b| session.evaluate(&l, ncdrf::Model::Unified, b).unwrap())
            .collect();
        session.clear_cache();
        let after: Vec<_> = [48u32, 16, 6]
            .iter()
            .map(|&b| session.evaluate(&l, ncdrf::Model::Unified, b).unwrap())
            .collect();
        prop_assert_eq!(before, after);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Stationarity soundness, the premise of the II-escalation ladder:
    // when a rung carries the certificate, every larger II — the next
    // eight and the sequential length — schedules to identical starts
    // and units (so `Schedule::from_parts` rebuilds it exactly) and stays
    // certified. Checked on generated loops and on their exhausted
    // (fully spilled) form, under both priorities.
    #[test]
    fn stationary_rungs_fix_every_larger_ii(
        seed in 0u64..3_000,
        cfg in arb_config(),
        lat in prop_oneof![Just(3u32), Just(6u32)],
        input_order in 0u8..2,
    ) {
        let l = generate("prop", seed, &cfg);
        let machine = Machine::clustered(lat, 1);
        let opts = SchedulerOptions {
            priority: if input_order == 1 { Priority::InputOrder } else { Priority::Height },
            ..SchedulerOptions::default()
        };
        let spill = SpillOptions { scheduler: opts, ..SpillOptions::default() };
        let exhausted = deep_trajectory(&l, &machine, spill)
            .checkpoints()
            .last()
            .and_then(|c| c.loop_state())
            .expect("the terminal checkpoint keeps its loop")
            .clone();
        for lp in [&l, &exhausted] {
            let seq_len: u32 = lp
                .ops()
                .iter()
                .map(|op| machine.latency(op.kind()).unwrap() + 1)
                .sum::<u32>()
                + 1;
            let base = modulo_schedule_with(lp, &machine, opts).unwrap().ii();
            let mut ctx = SchedContext::new();
            let stationary = (base..=seq_len.max(base))
                .filter_map(|ii| ctx.schedule_rung(lp, &machine, ii, opts).unwrap())
                .find(|rung| rung.stationary);
            let Some(rung) = stationary else { continue };
            let ii = rung.sched.ii();
            let starts: Vec<u32> = lp.iter_ops().map(|(id, _)| rung.sched.start(id)).collect();
            let units: Vec<_> = lp.iter_ops().map(|(id, _)| rung.sched.unit(id)).collect();
            for larger in (ii + 1..=ii + 8).chain([seq_len.max(ii + 1)]) {
                let other = ctx.schedule_rung(lp, &machine, larger, opts).unwrap();
                prop_assert!(other.is_some(), "II {} scheduled but {} did not", ii, larger);
                let other = other.unwrap();
                prop_assert!(other.stationary, "II {} lost the certificate", larger);
                let rebuilt =
                    Schedule::from_parts(lp, &machine, larger, starts.clone(), units.clone());
                prop_assert_eq!(other.sched, rebuilt);
            }
        }
    }
}

/// Keeps the reschedule-noise counterexample on record: per-step
/// monotonicity of the raw requirement does **not** hold (spilling `LY`
/// out of `axpby` at latency 6 *raises* the requirement, because the
/// rewritten loop's fresh schedule stretches the reload lifetimes), and
/// continuation must therefore serve budgets by first-fit scan, never by
/// assuming the last checkpoint is the tightest. If this test starts
/// failing because the descent became monotone, the first-fit scan in
/// `SpillTrajectory` can be simplified — until then it cannot.
#[test]
fn per_step_monotonicity_has_reschedule_counterexamples() {
    let machine = Machine::clustered(6, 1);
    let mut violations = 0usize;
    for l in kernels::all() {
        let t = deep_trajectory(&l, &machine, SpillOptions::default());
        for w in t.checkpoints().windows(2) {
            if w[1].regs > w[0].regs {
                violations += 1;
            }
        }
        // Whatever the local noise, the descent must still reach its
        // global floor: the minimum over checkpoints never exceeds the
        // starting requirement, and deep budgets that fit are served.
        assert!(t.min_regs() <= t.checkpoints()[0].regs, "{}", l.name());
    }
    assert!(
        violations > 0,
        "per-step descent became monotone; simplify SpillTrajectory::first_fit \
         and retire this counterexample"
    );
}

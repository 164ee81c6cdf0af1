//! # ncdrf-certify — translation validation for scheduler/spill outputs
//!
//! Every schedule, allocation and spill rewrite the pipeline reports is
//! re-checked here **from first principles**, in the spirit of translation
//! validation: the checker restates the constraints of the paper's §3–§5
//! (modulo dependences, modulo-reservation-table rows, rotating-file
//! lifetime packing, the §5.4 spill rewrite shape) and re-derives every
//! reported quantity with its own algorithms.
//!
//! It deliberately shares **no scheduling or allocation code** with
//! `ncdrf-sched` / `ncdrf-regalloc`: the only things it borrows from them
//! are read-only data types — [`Schedule`] accessors for raw placements,
//! and the [`Lifetime`] record because
//! [`ModelSpec::effective_requirement`](ncdrf::ModelSpec::effective_requirement)
//! hooks are defined over it. In particular the rotating-register
//! interference test is decided by *enumerating* candidate iteration
//! deltas rather than by the allocator's closed-form arithmetic, so a bug
//! in either derivation is caught by the other.
//!
//! The crate exposes free functions for each check plus
//! [`ScheduleCertifier`], the [`CellCertifier`] implementation that
//! `Session`/`Sweep` certify modes, the farm's delivery gate and the
//! `ncdrf_analyze certify` subcommand all plug in.
//!
//! Violations carry a stable rule id (see the `RULE_*` constants
//! re-exported from `ncdrf`) and a detail string naming the offending
//! operations, cycles or register counts.

#![warn(missing_docs)]

use ncdrf::{
    CellCertifier, CertifyViolation, LoopAnalysis, LoopEval, ModelId, RequirementCtx,
    RULE_DEPENDENCE, RULE_FLOOR_SKIP, RULE_FU_BINDING, RULE_MRT_OVERFLOW, RULE_REQUIREMENT,
    RULE_SPILL_SHAPE, RULE_UNIT_CONFLICT,
};
use ncdrf_ddg::{ArrayRole, Loop, OpKind, ValueRef};
use ncdrf_machine::{ClusterId, Machine};
use ncdrf_regalloc::Lifetime;
use ncdrf_sched::Schedule;
use std::collections::HashMap;

fn violation(rule: &'static str, detail: impl Into<String>) -> CertifyViolation {
    CertifyViolation::new(rule, detail)
}

fn op_latency(l: &Loop, machine: &Machine, id: ncdrf_ddg::OpId) -> Result<u32, CertifyViolation> {
    machine
        .latency(l.op(id).kind())
        .map_err(|e| violation(RULE_FU_BINDING, format!("`{}`: {e}", l.op(id).name())))
}

/// Certifies a kernel schedule against the loop and machine it claims to
/// implement:
///
/// * every dependence edge `(from, to, dist)` satisfies
///   `start(to) >= start(from) + latency(from) - dist * II`
///   ([`RULE_DEPENDENCE`]);
/// * every operation is bound to an existing unit instance whose class
///   serves its kind ([`RULE_FU_BINDING`]);
/// * no modulo-reservation-table row issues more operations to a group
///   than the group has units ([`RULE_MRT_OVERFLOW`]);
/// * no unit instance is double-booked within a kernel slot
///   ([`RULE_UNIT_CONFLICT`]).
///
/// # Errors
///
/// Returns the first violation in deterministic (operation) order.
pub fn certify_schedule(
    l: &Loop,
    machine: &Machine,
    sched: &Schedule,
) -> Result<(), CertifyViolation> {
    let ii = sched.ii();
    if ii == 0 {
        return Err(violation(RULE_DEPENDENCE, "the schedule claims II = 0"));
    }
    let ii_i = i64::from(ii);

    for (from, to, dist) in l.sched_edges() {
        let lat = op_latency(l, machine, from)?;
        let earliest = i64::from(sched.start(from)) + i64::from(lat) - ii_i * i64::from(dist);
        if i64::from(sched.start(to)) < earliest {
            return Err(violation(
                RULE_DEPENDENCE,
                format!(
                    "edge `{}` -> `{}` (dist {dist}): `{}` starts at cycle {} but cannot \
                     start before {} (producer start {} + latency {lat} - {dist}*II)",
                    l.op(from).name(),
                    l.op(to).name(),
                    l.op(to).name(),
                    sched.start(to),
                    earliest,
                    sched.start(from),
                ),
            ));
        }
    }

    for (id, op) in l.iter_ops() {
        let unit = sched.unit(id);
        let Some(group) = machine.groups().get(unit.group) else {
            return Err(violation(
                RULE_FU_BINDING,
                format!(
                    "`{}` is bound to group {} but the machine has only {} groups",
                    op.name(),
                    unit.group,
                    machine.groups().len()
                ),
            ));
        };
        if !group.class.serves(op.kind()) {
            return Err(violation(
                RULE_FU_BINDING,
                format!(
                    "`{}` ({}) is bound to a {} unit, which cannot execute it",
                    op.name(),
                    op.kind().mnemonic(),
                    group.class
                ),
            ));
        }
        if unit.instance >= group.count() {
            return Err(violation(
                RULE_FU_BINDING,
                format!(
                    "`{}` is bound to instance {} of the {} group, which has {} unit(s)",
                    op.name(),
                    unit.instance,
                    group.class,
                    group.count()
                ),
            ));
        }
    }

    // MRT rows: walking ops in id order makes the first overfull row
    // deterministic.
    let mut rows: HashMap<(usize, u32), u32> = HashMap::new();
    for (id, op) in l.iter_ops() {
        let unit = sched.unit(id);
        let slot = sched.kernel_slot(id);
        let issued = rows.entry((unit.group, slot)).or_insert(0);
        *issued += 1;
        let capacity = machine.groups()[unit.group].count() as u32;
        if *issued > capacity {
            return Err(violation(
                RULE_MRT_OVERFLOW,
                format!(
                    "kernel slot {slot} issues {} ops to the {} group, which has {} \
                     unit(s); `{}` does not fit",
                    *issued,
                    machine.groups()[unit.group].class,
                    capacity,
                    op.name()
                ),
            ));
        }
    }

    let mut seats: HashMap<(usize, usize, u32), ncdrf_ddg::OpId> = HashMap::new();
    for (id, op) in l.iter_ops() {
        let unit = sched.unit(id);
        let slot = sched.kernel_slot(id);
        if let Some(&prev) = seats.get(&(unit.group, unit.instance, slot)) {
            return Err(violation(
                RULE_UNIT_CONFLICT,
                format!(
                    "`{}` and `{}` both occupy {} unit {} in kernel slot {slot}",
                    l.op(prev).name(),
                    op.name(),
                    machine.groups()[unit.group].class,
                    unit.instance
                ),
            ));
        }
        seats.insert((unit.group, unit.instance, slot), id);
    }

    Ok(())
}

/// Recomputes every value lifetime from the paper's §2 definition: a
/// value lives from its producer's issue cycle until its last consumer
/// finishes (`start(c) + dist * II + latency(c)`); stores produce no
/// value.
fn value_lifetimes(
    l: &Loop,
    machine: &Machine,
    sched: &Schedule,
) -> Result<Vec<Lifetime>, CertifyViolation> {
    let consumers = l.consumers();
    let ii = sched.ii();
    let mut out = Vec::new();
    for (id, op) in l.iter_ops() {
        if !op.kind().produces_value() {
            continue;
        }
        let start = sched.start(id);
        let mut end = start;
        for &(c, dist) in &consumers[id.index()] {
            let lat = op_latency(l, machine, c)?;
            end = end.max(sched.start(c) + dist * ii + lat);
        }
        out.push(Lifetime { op: id, start, end });
    }
    Ok(out)
}

/// The peak number of simultaneously-live instances over the II kernel
/// cycles, restricted to the lifetimes selected by `keep`. An instance
/// `k` of a value is live at kernel cycle `t` when
/// `start + k*II <= t < end + k*II`.
fn peak_live<F: Fn(usize) -> bool>(lts: &[Lifetime], ii: u32, keep: F) -> u32 {
    let ii_i = i64::from(ii);
    let mut best: i64 = 0;
    for t in 0..ii_i {
        let mut live: i64 = 0;
        for (i, lt) in lts.iter().enumerate() {
            if !keep(i) || lt.end <= lt.start {
                continue;
            }
            live += (t - i64::from(lt.start)).div_euclid(ii_i)
                - (t - i64::from(lt.end)).div_euclid(ii_i);
        }
        best = best.max(live);
    }
    best.max(0) as u32
}

/// Whether two lifetimes placed at rotating offsets `oa` / `ob` in a file
/// of `r` registers ever occupy the same physical register while both
/// live.
///
/// Instance `k` of a value at offset `o` occupies register `(o + k) mod r`
/// during `[start + k*II, end + k*II)`. For iteration delta `d = ka - kb`
/// the intervals overlap iff `sb - ea < d*II < eb - sa`, and the registers
/// coincide iff `d ≡ ob - oa (mod r)`. The candidate deltas are
/// **enumerated** over a window covering the open interval — a different
/// decision procedure from the allocator's closed form, on purpose.
fn rotating_overlap(a: &Lifetime, b: &Lifetime, ii: u32, oa: i64, ob: i64, r: i64) -> bool {
    if a.end <= a.start || b.end <= b.start {
        return false;
    }
    let ii = i64::from(ii);
    let (sa, ea) = (i64::from(a.start), i64::from(a.end));
    let (sb, eb) = (i64::from(b.start), i64::from(b.end));
    let want = (ob - oa).rem_euclid(r);
    let lo = (sb - ea).div_euclid(ii);
    let hi = (eb - sa).div_euclid(ii) + 1;
    let mut d = lo;
    while d <= hi {
        if d * ii > sb - ea && d * ii < eb - sa && d.rem_euclid(r) == want {
            return true;
        }
        d += 1;
    }
    false
}

/// Wands-Only / First-Fit packing, re-derived: lifetimes take the lowest
/// interference-free rotating offset in start-time order, and the file
/// grows from the `lower` pressure bound until the packing succeeds.
/// `interferes(u, v)` says whether two lifetimes can ever share a
/// physical register (always, for a unified file; share-a-subfile, for
/// the dual file).
fn first_fit_registers(
    lts: &[Lifetime],
    ii: u32,
    lower: u32,
    interferes: &dyn Fn(usize, usize) -> bool,
) -> u32 {
    let n = lts.len();
    if n == 0 || lts.iter().all(|lt| lt.end <= lt.start) {
        return 0;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (lts[i].start, i));
    let mut r = i64::from(lower.max(1));
    'grow: loop {
        let mut offsets: Vec<Option<i64>> = vec![None; n];
        for &vi in &order {
            if lts[vi].end <= lts[vi].start {
                offsets[vi] = Some(0);
                continue;
            }
            let mut chosen = None;
            'candidate: for c in 0..r {
                for (ui, off) in offsets.iter().enumerate() {
                    let Some(off) = off else { continue };
                    if !interferes(ui, vi) {
                        continue;
                    }
                    if rotating_overlap(&lts[vi], &lts[ui], ii, c, *off, r) {
                        continue 'candidate;
                    }
                }
                chosen = Some(c);
                break;
            }
            match chosen {
                Some(c) => offsets[vi] = Some(c),
                None => {
                    r += 1;
                    continue 'grow;
                }
            }
        }
        return r as u32;
    }
}

/// Where a value lives in the non-consistent dual file, re-derived from
/// the clusters of its consumers (§4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Residence {
    /// Read by both clusters: replicated in both subfiles.
    Both,
    /// Read by one cluster: only that cluster's subfile.
    Only(ClusterId),
}

impl Residence {
    fn in_file(self, file: ClusterId) -> bool {
        match self {
            Residence::Both => true,
            Residence::Only(c) => c == file,
        }
    }
}

fn residences(l: &Loop, machine: &Machine, sched: &Schedule, lts: &[Lifetime]) -> Vec<Residence> {
    let consumers = l.consumers();
    lts.iter()
        .map(|lt| {
            let mut left = false;
            let mut right = false;
            let mut last = None;
            for &(c, _) in &consumers[lt.op.index()] {
                let cluster = sched.cluster(c, machine);
                last = Some(cluster);
                if cluster == ClusterId::LEFT {
                    left = true;
                } else {
                    right = true;
                }
            }
            match (left, right) {
                (true, true) => Residence::Both,
                (true, false) => Residence::Only(ClusterId::LEFT),
                (false, true) => Residence::Only(last.expect("consumer seen")),
                // Unconsumed values cannot occur in validated loops.
                (false, false) => Residence::Only(ClusterId::LEFT),
            }
        })
        .collect()
}

/// Recomputes the register requirement of `model` from raw lifetimes and
/// compares it with `reported` ([`RULE_REQUIREMENT`] on mismatch).
///
/// `sched` must be the exact schedule the requirement was reported for —
/// for swapping models, after the swap pass (the requirement of a
/// swapped cell is a pure function of the post-swap schedule, so no swap
/// logic is needed here). [`ModelSpec::effective_requirement`] hooks are
/// applied: they *define* the model and are shared deliberately.
///
/// [`ModelSpec::effective_requirement`]: ncdrf::ModelSpec::effective_requirement
///
/// # Errors
///
/// Returns a violation on mismatch or when the machine cannot serve the
/// loop.
pub fn certify_requirement(
    l: &Loop,
    machine: &Machine,
    sched: &Schedule,
    model: ModelId,
    reported: u32,
) -> Result<(), CertifyViolation> {
    let spec = model.spec();
    if spec.is_ideal() {
        if reported != 0 {
            return Err(violation(
                RULE_REQUIREMENT,
                format!(
                    "model `{model}` has infinite registers but reports a requirement of {reported}"
                ),
            ));
        }
        return Ok(());
    }
    let ii = sched.ii();
    let lts = value_lifetimes(l, machine, sched)?;
    let raw = if spec.is_dual() {
        let res = residences(l, machine, sched, &lts);
        let left = peak_live(&lts, ii, |i| res[i].in_file(ClusterId::LEFT));
        let right = peak_live(&lts, ii, |i| res[i].in_file(ClusterId::RIGHT));
        first_fit_registers(&lts, ii, left.max(right), &|a, b| {
            [ClusterId::LEFT, ClusterId::RIGHT]
                .iter()
                .any(|&f| res[a].in_file(f) && res[b].in_file(f))
        })
    } else {
        first_fit_registers(&lts, ii, peak_live(&lts, ii, |_| true), &|_, _| true)
    };
    let ctx = RequirementCtx {
        l,
        ii,
        lifetimes: &lts,
    };
    let expected = spec.effective_requirement(raw, &ctx);
    if expected != reported {
        return Err(violation(
            RULE_REQUIREMENT,
            format!(
                "model `{model}` reports a requirement of {reported} register(s), but \
                 independent reallocation needs {expected} (raw packing {raw})"
            ),
        ));
    }
    Ok(())
}

/// Certifies an unlimited-register analysis cell: the schedule itself,
/// then the reported II, MaxLive, requirement and (for dual models)
/// per-class pressures against independent recomputation.
///
/// # Errors
///
/// Returns the first violation found.
pub fn certify_analysis(
    l: &Loop,
    machine: &Machine,
    sched: &Schedule,
    analysis: &LoopAnalysis,
) -> Result<(), CertifyViolation> {
    certify_schedule(l, machine, sched)?;
    if analysis.ii != sched.ii() {
        return Err(violation(
            RULE_REQUIREMENT,
            format!(
                "analysis reports II {} but the certified schedule achieves II {}",
                analysis.ii,
                sched.ii()
            ),
        ));
    }
    let lts = value_lifetimes(l, machine, sched)?;
    let max_live = peak_live(&lts, sched.ii(), |_| true);
    if analysis.max_live != max_live {
        return Err(violation(
            RULE_REQUIREMENT,
            format!(
                "analysis reports MaxLive {} but raw lifetimes give {}",
                analysis.max_live, max_live
            ),
        ));
    }
    certify_requirement(l, machine, sched, analysis.model, analysis.regs)?;

    let dual = analysis.model.spec().is_dual();
    match (&analysis.pressure, dual) {
        (None, false) => {}
        (Some(_), false) => {
            return Err(violation(
                RULE_REQUIREMENT,
                format!(
                    "model `{}` is not dual but the analysis reports subfile pressures",
                    analysis.model
                ),
            ));
        }
        (None, true) => {
            return Err(violation(
                RULE_REQUIREMENT,
                format!(
                    "dual model `{}` reports no subfile pressures",
                    analysis.model
                ),
            ));
        }
        (Some(p), true) => {
            let res = residences(l, machine, sched, &lts);
            let ii = sched.ii();
            let recomputed = [
                (
                    "global",
                    p.global,
                    peak_live(&lts, ii, |i| res[i] == Residence::Both),
                ),
                (
                    "left",
                    p.left,
                    peak_live(&lts, ii, |i| res[i] == Residence::Only(ClusterId::LEFT)),
                ),
                (
                    "right",
                    p.right,
                    peak_live(&lts, ii, |i| res[i] == Residence::Only(ClusterId::RIGHT)),
                ),
                (
                    "left_total",
                    p.left_total,
                    peak_live(&lts, ii, |i| res[i].in_file(ClusterId::LEFT)),
                ),
                (
                    "right_total",
                    p.right_total,
                    peak_live(&lts, ii, |i| res[i].in_file(ClusterId::RIGHT)),
                ),
            ];
            for (name, reported, expected) in recomputed {
                if reported != expected {
                    return Err(violation(
                        RULE_REQUIREMENT,
                        format!(
                            "dual pressure `{name}` reports {reported} but raw lifetimes \
                             give {expected}"
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Certifies that `rewritten` is `original` plus a shape-sound spill of
/// exactly the claimed victims (§5.4): every victim's value flows only
/// into its spill store (the lifetime split), every reload reads the
/// victim's spill slot at its consumer's distance and is ordered after
/// the store, no spill code is unclaimed, and the memory-operation
/// counts add up ([`RULE_SPILL_SHAPE`] on any mismatch).
///
/// # Errors
///
/// Returns the first violation found.
pub fn certify_spill_shape(
    original: &Loop,
    rewritten: &Loop,
    spilled: &[String],
    spill_stores: usize,
    spill_loads: usize,
) -> Result<(), CertifyViolation> {
    for (i, victim) in spilled.iter().enumerate() {
        if spilled[..i].contains(victim) {
            return Err(violation(
                RULE_SPILL_SHAPE,
                format!("victim `{victim}` is claimed twice"),
            ));
        }
        if victim.starts_with("RL.") || victim.starts_with("SS.") {
            return Err(violation(
                RULE_SPILL_SHAPE,
                format!("spill code `{victim}` cannot itself be a victim"),
            ));
        }
    }

    let consumers = rewritten.consumers();
    for victim in spilled {
        let Some(vid) = rewritten.find_op(victim) else {
            return Err(violation(
                RULE_SPILL_SHAPE,
                format!("claimed victim `{victim}` does not exist in the rewritten loop"),
            ));
        };
        if !rewritten.op(vid).kind().produces_value() {
            return Err(violation(
                RULE_SPILL_SHAPE,
                format!("claimed victim `{victim}` produces no value"),
            ));
        }
        let slot_name = format!("spill.{victim}");
        let Some(slot) = rewritten.find_array(&slot_name) else {
            return Err(violation(
                RULE_SPILL_SHAPE,
                format!("no spill array `{slot_name}` for victim `{victim}`"),
            ));
        };
        if rewritten.arrays()[slot.index()].role() != ArrayRole::InOut {
            return Err(violation(
                RULE_SPILL_SHAPE,
                format!("spill array `{slot_name}` must be read-write"),
            ));
        }
        let store_name = format!("SS.{victim}");
        let Some(ss) = rewritten.find_op(&store_name) else {
            return Err(violation(
                RULE_SPILL_SHAPE,
                format!("victim `{victim}` has no spill store `{store_name}`"),
            ));
        };
        let ss_op = rewritten.op(ss);
        if ss_op.kind() != OpKind::Store {
            return Err(violation(
                RULE_SPILL_SHAPE,
                format!("spill store `{store_name}` is not a store"),
            ));
        }
        match ss_op.mem() {
            Some(m) if m.array == slot && m.offset == 0 => {}
            _ => {
                return Err(violation(
                    RULE_SPILL_SHAPE,
                    format!("spill store `{store_name}` does not write `{slot_name}` at offset 0"),
                ));
            }
        }
        if ss_op.inputs() != [ValueRef::Op { id: vid, dist: 0 }] {
            return Err(violation(
                RULE_SPILL_SHAPE,
                format!("spill store `{store_name}` does not store `{victim}`'s value"),
            ));
        }
        // The lifetime split: after the rewrite the victim's value flows
        // only into its spill store; every former consumer reads a reload.
        let cons = &consumers[vid.index()];
        if cons.len() != 1 || cons[0] != (ss, 0) {
            return Err(violation(
                RULE_SPILL_SHAPE,
                format!(
                    "victim `{victim}` is still consumed directly ({} consumer(s)); the \
                     spill must split its lifetime at `{store_name}`",
                    cons.len()
                ),
            ));
        }
        let reload_prefix = format!("RL.{victim}.");
        if !rewritten
            .iter_ops()
            .any(|(_, op)| op.name().starts_with(&reload_prefix))
        {
            return Err(violation(
                RULE_SPILL_SHAPE,
                format!("victim `{victim}` was spilled but has no reloads"),
            ));
        }
    }

    let mut stores_found = 0usize;
    let mut loads_found = 0usize;
    for (id, op) in rewritten.iter_ops() {
        let name = op.name();
        if let Some(rest) = name.strip_prefix("SS.") {
            stores_found += 1;
            if !spilled.iter().any(|v| v == rest) {
                return Err(violation(
                    RULE_SPILL_SHAPE,
                    format!("spill store `{name}` stores a victim nobody claims"),
                ));
            }
        } else if name.starts_with("RL.") {
            loads_found += 1;
            if op.kind() != OpKind::Load {
                return Err(violation(
                    RULE_SPILL_SHAPE,
                    format!("reload `{name}` is not a load"),
                ));
            }
            // The owning victim is the longest claimed name the reload's
            // name extends (victim names could in principle contain dots).
            let Some(victim) = spilled
                .iter()
                .filter(|v| name.starts_with(&format!("RL.{v}.")))
                .max_by_key(|v| v.len())
            else {
                return Err(violation(
                    RULE_SPILL_SHAPE,
                    format!("reload `{name}` reloads a victim nobody claims"),
                ));
            };
            let tail = &name["RL.".len() + victim.len() + 1..];
            let Some((consumer_name, dist_str)) = tail.rsplit_once('.') else {
                return Err(violation(
                    RULE_SPILL_SHAPE,
                    format!("reload `{name}` has a malformed name"),
                ));
            };
            let Ok(dist) = dist_str.parse::<u32>() else {
                return Err(violation(
                    RULE_SPILL_SHAPE,
                    format!("reload `{name}` has a malformed distance `{dist_str}`"),
                ));
            };
            let slot = rewritten
                .find_array(&format!("spill.{victim}"))
                .expect("victim loop above checked the slot array");
            match op.mem() {
                Some(m) if m.array == slot && m.offset == -i64::from(dist) => {}
                _ => {
                    return Err(violation(
                        RULE_SPILL_SHAPE,
                        format!("reload `{name}` does not read `spill.{victim}` at offset -{dist}"),
                    ));
                }
            }
            let Some(consumer) = rewritten.find_op(consumer_name) else {
                return Err(violation(
                    RULE_SPILL_SHAPE,
                    format!(
                        "reload `{name}` names consumer `{consumer_name}`, which does not exist"
                    ),
                ));
            };
            if !rewritten
                .op(consumer)
                .inputs()
                .contains(&ValueRef::Op { id, dist: 0 })
            {
                return Err(violation(
                    RULE_SPILL_SHAPE,
                    format!("consumer `{consumer_name}` does not read reload `{name}`"),
                ));
            }
            let ss = rewritten
                .find_op(&format!("SS.{victim}"))
                .expect("victim loop above checked the store");
            if !rewritten
                .deps()
                .iter()
                .any(|d| d.from == ss && d.to == id && d.dist == dist)
            {
                return Err(violation(
                    RULE_SPILL_SHAPE,
                    format!(
                        "reload `{name}` is not ordered after `SS.{victim}` at distance {dist}"
                    ),
                ));
            }
        }
    }

    if stores_found != spilled.len() || stores_found != spill_stores {
        return Err(violation(
            RULE_SPILL_SHAPE,
            format!(
                "the loop carries {stores_found} spill store(s) for {} claimed victim(s), \
                 but {spill_stores} store(s) are reported",
                spilled.len()
            ),
        ));
    }
    if loads_found != spill_loads {
        return Err(violation(
            RULE_SPILL_SHAPE,
            format!("the loop carries {loads_found} reload(s) but {spill_loads} are reported"),
        ));
    }
    let expected_mem = original.memory_ops() + spill_stores + spill_loads;
    if rewritten.memory_ops() != expected_mem {
        return Err(violation(
            RULE_SPILL_SHAPE,
            format!(
                "the rewritten loop has {} memory op(s); the original's {} plus \
                 {spill_stores} store(s) and {spill_loads} reload(s) should give {expected_mem}",
                rewritten.memory_ops(),
                original.memory_ops()
            ),
        ));
    }
    Ok(())
}

/// Certifies a budgeted evaluation cell: the final schedule, the reported
/// requirement, the spill-rewrite shape, and the cell's derived scalars
/// (spilled count, memory ops, fits flag).
///
/// # Errors
///
/// Returns the first violation found.
#[allow(clippy::too_many_arguments)]
pub fn certify_eval(
    original: &Loop,
    machine: &Machine,
    final_l: &Loop,
    sched: &Schedule,
    spilled: &[String],
    spill_stores: usize,
    spill_loads: usize,
    eval: &LoopEval,
) -> Result<(), CertifyViolation> {
    certify_schedule(final_l, machine, sched)?;
    if eval.ii != sched.ii() {
        return Err(violation(
            RULE_REQUIREMENT,
            format!(
                "evaluation reports II {} but the certified schedule achieves II {}",
                eval.ii,
                sched.ii()
            ),
        ));
    }
    certify_requirement(final_l, machine, sched, eval.model, eval.regs)?;
    if !spilled.is_empty() || spill_stores != 0 || spill_loads != 0 {
        certify_spill_shape(original, final_l, spilled, spill_stores, spill_loads)?;
    }
    if eval.spilled != spilled.len() {
        return Err(violation(
            RULE_SPILL_SHAPE,
            format!(
                "evaluation reports {} spilled value(s) but {} victims are claimed",
                eval.spilled,
                spilled.len()
            ),
        ));
    }
    if eval.mem_ops != final_l.memory_ops() {
        return Err(violation(
            RULE_SPILL_SHAPE,
            format!(
                "evaluation reports {} memory op(s) but the final loop body has {}",
                eval.mem_ops,
                final_l.memory_ops()
            ),
        ));
    }
    let fits = eval.regs <= eval.budget || eval.model.spec().is_ideal();
    if eval.fits != fits {
        return Err(violation(
            RULE_REQUIREMENT,
            format!(
                "evaluation claims fits = {} with requirement {} against budget {}",
                eval.fits, eval.regs, eval.budget
            ),
        ));
    }
    Ok(())
}

/// Certifies one restored spill-trajectory checkpoint: its schedule and
/// its recorded requirement under `model`. Step 0 is the unspilled base.
///
/// # Errors
///
/// Returns the first violation, located with the checkpoint step.
pub fn certify_checkpoint(
    step: usize,
    l: &Loop,
    machine: &Machine,
    sched: &Schedule,
    model: ModelId,
    regs: u32,
) -> Result<(), CertifyViolation> {
    certify_schedule(l, machine, sched)
        .and_then(|()| certify_requirement(l, machine, sched, model, regs))
        .map_err(|v| v.locate(format!("checkpoint {step}: ")))
}

/// The most lifetimes of one iteration live at the same absolute cycle,
/// counted by scanning every cycle a lifetime starts at (the count only
/// rises at starts).
fn single_iteration_overlap(lts: &[Lifetime]) -> u32 {
    let live: Vec<&Lifetime> = lts.iter().filter(|lt| lt.end > lt.start).collect();
    live.iter()
        .map(|at| {
            live.iter()
                .filter(|lt| lt.start <= at.start && at.start < lt.end)
                .count()
        })
        .max()
        .map_or(0, |c| u32::try_from(c).unwrap_or(u32::MAX))
}

/// Certifies a floor skip of the II-escalation fallback: an unfit
/// evaluation served the final rung (`l`/`sched`, requirement `regs`
/// under `model`) without evaluating the rungs below it, because the
/// model floor `claimed_floor` derived at the first stationary rung
/// exceeds `budget` ([`RULE_FLOOR_SKIP`] on any failure).
///
/// Every lifetime of the final rung contains its counterpart at the
/// stationary rung, so the final rung's single-iteration overlap, mapped
/// through the model's
/// [`ModelSpec::requirement_floor`](ncdrf::ModelSpec::requirement_floor)
/// hook, bounds the claim from above. The check recomputes that bound
/// from the final schedule and requires
///
/// * the model to declare a floor at all,
/// * `budget < claimed_floor` (an understated floor justifies nothing),
/// * `claimed_floor <=` the recomputed bound, and the bound `<= regs`
///   (a floor the schedule's own lifetimes or requirement contradict).
///
/// # Errors
///
/// Returns the first failed condition, naming the II, the budget and
/// both floors.
#[allow(clippy::too_many_arguments)]
pub fn certify_floor_skip(
    l: &Loop,
    machine: &Machine,
    sched: &Schedule,
    model: ModelId,
    budget: u32,
    regs: u32,
    claimed_floor: u32,
) -> Result<(), CertifyViolation> {
    let ii = sched.ii();
    let overlap = single_iteration_overlap(&value_lifetimes(l, machine, sched)?);
    let Some(bound) = model.spec().requirement_floor(overlap) else {
        return Err(violation(
            RULE_FLOOR_SKIP,
            format!(
                "II {ii} was reached by a floor skip, but model `{model}` declares no \
                 requirement floor"
            ),
        ));
    };
    let located = |what: &str| {
        violation(
            RULE_FLOOR_SKIP,
            format!(
                "II {ii}: {what} (claimed floor {claimed_floor}, budget {budget}; the final \
                 rung's single-iteration overlap of {overlap} gives {bound}; requirement \
                 {regs})"
            ),
        )
    };
    if claimed_floor <= budget {
        return Err(located(
            "the floor does not exceed the budget, so the skipped rungs were never proven \
             unfit",
        ));
    }
    if claimed_floor > bound || bound > regs {
        return Err(located(
            "the floor is not supported by the final rung's lifetimes",
        ));
    }
    Ok(())
}

/// The stateless [`CellCertifier`] implementation over this crate's
/// checks — what `Sweep::certify`, the farm's delivery gate and
/// `ncdrf_analyze certify` all instantiate.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScheduleCertifier;

impl CellCertifier for ScheduleCertifier {
    fn certify_analysis(
        &self,
        l: &Loop,
        machine: &Machine,
        sched: &Schedule,
        analysis: &LoopAnalysis,
    ) -> Result<(), CertifyViolation> {
        certify_analysis(l, machine, sched, analysis)
    }

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
    ) -> Result<(), CertifyViolation> {
        certify_eval(
            original,
            machine,
            final_l,
            sched,
            spilled,
            spill_stores,
            spill_loads,
            eval,
        )
    }

    fn certify_checkpoint(
        &self,
        step: usize,
        l: &Loop,
        machine: &Machine,
        sched: &Schedule,
        model: ModelId,
        regs: u32,
    ) -> Result<(), CertifyViolation> {
        certify_checkpoint(step, l, machine, sched, model, regs)
    }

    fn certify_floor_skip(
        &self,
        l: &Loop,
        machine: &Machine,
        sched: &Schedule,
        model: ModelId,
        budget: u32,
        regs: u32,
        claimed_floor: u32,
    ) -> Result<(), CertifyViolation> {
        certify_floor_skip(l, machine, sched, model, budget, regs, claimed_floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncdrf_ddg::OpId;

    fn lt(i: usize, start: u32, end: u32) -> Lifetime {
        Lifetime {
            op: OpId::from_index(i),
            start,
            end,
        }
    }

    #[test]
    fn rotating_overlap_agrees_with_instance_enumeration() {
        let cases = [
            (lt(0, 0, 7), lt(1, 1, 4), 2u32, 5i64),
            (lt(0, 2, 9), lt(1, 0, 13), 3, 6),
            (lt(0, 0, 1), lt(1, 0, 1), 1, 2),
            (lt(0, 4, 20), lt(1, 5, 8), 4, 7),
            (lt(0, 0, 13), lt(1, 0, 13), 1, 26),
        ];
        for (a, b, ii, r) in cases {
            for oa in 0..r {
                for ob in 0..r {
                    let fast = rotating_overlap(&a, &b, ii, oa, ob, r);
                    let mut slow = false;
                    for ka in -40i64..40 {
                        for kb in -40i64..40 {
                            if (oa + ka).rem_euclid(r) != (ob + kb).rem_euclid(r) {
                                continue;
                            }
                            let (s1, e1) = (
                                i64::from(a.start) + ka * i64::from(ii),
                                i64::from(a.end) + ka * i64::from(ii),
                            );
                            let (s2, e2) = (
                                i64::from(b.start) + kb * i64::from(ii),
                                i64::from(b.end) + kb * i64::from(ii),
                            );
                            if s1 < e2 && s2 < e1 {
                                slow = true;
                            }
                        }
                    }
                    assert_eq!(fast, slow, "ii={ii} r={r} oa={oa} ob={ob}");
                }
            }
        }
    }

    #[test]
    fn single_iteration_overlap_ignores_touching_and_empty_lifetimes() {
        assert_eq!(single_iteration_overlap(&[lt(0, 0, 3), lt(1, 3, 6)]), 1);
        assert_eq!(
            single_iteration_overlap(&[lt(0, 0, 4), lt(1, 3, 6), lt(2, 2, 5)]),
            3
        );
        assert_eq!(single_iteration_overlap(&[lt(0, 2, 2)]), 0);
        assert_eq!(single_iteration_overlap(&[]), 0);
    }

    #[test]
    fn peak_live_counts_helical_instances() {
        // One value of length 13 at II=1 keeps 13 instances live.
        assert_eq!(peak_live(&[lt(0, 0, 13)], 1, |_| true), 13);
        assert_eq!(peak_live(&[lt(0, 0, 13)], 2, |_| true), 7);
        assert_eq!(peak_live(&[lt(0, 0, 13)], 13, |_| true), 1);
        // Empty lifetimes never count.
        assert_eq!(peak_live(&[lt(0, 5, 5)], 3, |_| true), 0);
    }

    #[test]
    fn first_fit_needs_sum_of_instances_at_ii_one() {
        // The paper's §4.1 example at II=1: lifetimes 13+7+6+6+6+4 = 42.
        let lts = [
            lt(0, 0, 13),
            lt(1, 0, 7),
            lt(2, 1, 7),
            lt(3, 4, 10),
            lt(4, 7, 13),
            lt(5, 10, 14),
        ];
        let lower = peak_live(&lts, 1, |_| true);
        assert_eq!(first_fit_registers(&lts, 1, lower, &|_, _| true), 42);
    }

    #[test]
    fn disjoint_interference_classes_pack_independently() {
        // Two overlapping values that never share a subfile: one register
        // suffices for each subfile.
        let lts = [lt(0, 0, 4), lt(1, 0, 4)];
        let never = |_: usize, _: usize| false;
        assert_eq!(first_fit_registers(&lts, 4, 1, &never), 1);
        let always = |_: usize, _: usize| true;
        assert_eq!(first_fit_registers(&lts, 4, 2, &always), 2);
    }
}

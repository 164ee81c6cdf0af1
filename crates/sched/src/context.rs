//! [`SchedContext`]: an arena-backed scheduling context with an
//! incremental rescheduling entry point for the spill descent.
//!
//! The paper's §5.4 spill loop re-runs a *full* IMS reschedule after
//! every spill step, even though each step appends a handful of ops
//! (one spill store plus reloads) and patches a few operand edges. A
//! `SchedContext` removes the redundant work on two axes — without
//! changing a single output bit:
//!
//! * **Arena/SoA scratch.** All scheduling state (the modulo
//!   reservation table, CSR predecessor/successor lists, heights,
//!   start/instance/pick arrays, the priority heap) lives in flat,
//!   `u32`-indexed buffers owned by the context and reused across
//!   calls, so the steady path of a spill descent allocates nothing
//!   per II attempt. The reference scheduler
//!   ([`modulo_schedule_with`](crate::modulo_schedule_with)) allocates
//!   ~10 vectors per attempt.
//! * **Incremental rescheduling.** The context caches the raw
//!   (pre-normalization) placements, unit instances, per-op scheduling
//!   budget consumption and final II of its previous successful run.
//!   When the next loop extends the cached one — same name, machine
//!   and options, ops appended at the end (exactly what a spill
//!   rewrite produces) — the context computes a **dirty set**: the
//!   closure of the appended ops and every changed edge/op under
//!   dependence edges *and* functional-unit-group sharing, in both the
//!   old and the new graph. Ops outside the closure (the *clean*
//!   component) provably schedule to identical slots, so at the cached
//!   II only dirty ops re-enter the scheduling queue; clean placements
//!   are reused verbatim and the reference budget accounting is
//!   preserved by charging the clean component's recorded pick count.
//!
//! The dirty closure is a sound over-approximation by construction —
//! the seeds are recomputed from the actual graph difference, not from
//! a caller contract — and when it grows to the whole loop the
//! incremental path degrades to exactly the full-reschedule result
//! (the merged attempt *is* a full attempt when the clean component is
//! empty). Bit-identity of `SchedContext::schedule` against the
//! reference scheduler, for every II search and on every grid preset,
//! is pinned by the repository's `incremental_resched` differential
//! suite and the `proptest_spill` property tests.

use crate::ims::{ScheduleError, SchedulerOptions};
use crate::mii::mii;
use crate::schedule::Schedule;
use crate::Priority;
use ncdrf_ddg::{Loop, OpId};
use ncdrf_machine::{Machine, MachineError, UnitRef};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel for "unscheduled" / "never placed" in the flat arrays.
const UNSCHED: u32 = u32::MAX;

/// The sanctioned narrow into the context's `u32` SoA index space
/// (ops, groups, edges): asserts the index fits instead of silently
/// wrapping on a loop the arenas were never sized for.
#[inline]
fn idx32(i: usize) -> u32 {
    debug_assert!(u32::try_from(i).is_ok(), "SoA index {i} overflows u32");
    i as u32
}

/// The sanctioned narrow for non-negative schedule times computed in
/// `i64` (earliest-start arithmetic): asserts the cycle fits in the
/// `u32` start arrays.
#[inline]
fn time32(t: i64) -> u32 {
    debug_assert!(
        (0..=i64::from(u32::MAX)).contains(&t),
        "schedule time {t} outside u32"
    );
    t as u32
}

/// The cached outcome of the previous successful scheduling run: enough
/// to (a) decide whether the next loop is an extension of this one,
/// (b) recompute the dirty closure soundly from the real graph
/// difference, and (c) reuse clean placements bit-identically.
#[derive(Debug, Clone)]
struct RunCache {
    loop_name: String,
    machine: Machine,
    opts: SchedulerOptions,
    /// Op count of the cached loop.
    n: usize,
    /// Final (successful) II.
    ii: u32,
    /// Raw start cycles *before* the kernel-preserving normalization
    /// shift — the shift is global, so merging reused and re-run
    /// placements must happen in raw coordinates.
    raw_start: Vec<u32>,
    /// Unit instance per op.
    instance: Vec<u32>,
    /// Times each op was picked (= budget units it consumed) during the
    /// final successful II attempt.
    picks: Vec<u32>,
    /// Functional-unit group per op, at cache time.
    group: Vec<u32>,
    /// Latency per op, at cache time.
    lat: Vec<u32>,
    /// Scheduling edges `(from, to, dist)` of the cached loop, sorted
    /// (for the multiset difference against the next loop's edges).
    edges: Vec<(u32, u32, u32)>,
}

/// One rung of an II-escalation ladder: the outcome of a single IMS
/// attempt at a fixed II (see [`SchedContext::schedule_rung`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rung {
    /// The schedule found at this rung's II.
    pub sched: Schedule,
    /// The stationarity certificate. It holds when, at this II:
    ///
    /// 1. the priorities equal the priorities with every carried edge
    ///    (distance at least 1) dropped;
    /// 2. the attempt evicted nothing;
    /// 3. every operation finishes within the first II cycles
    ///    (`start + latency <= II`).
    ///
    /// Then an attempt at any larger II picks the same ops in the same
    /// order, sees the same earliest starts (carried terms only shrink
    /// and were already non-binding), finds the same free rows (no row
    /// wraps) and evicts nothing: it yields **identical starts and
    /// units**, so later rungs are `Schedule::from_parts` of this one's
    /// placements at the larger II.
    pub stationary: bool,
}

/// The pick budget of one IMS attempt: `budget_ratio` picks per op, at
/// least 64 (the reference scheduler's budget).
fn attempt_budget(opts: SchedulerOptions, n: usize) -> u64 {
    (opts.budget_ratio as u64).saturating_mul(n as u64).max(64)
}

/// Reusable arena for modulo scheduling, plus the incremental-reschedule
/// cache. See the module docs for the design; `SchedContext::schedule`
/// is bit-identical to [`modulo_schedule_with`](crate::modulo_schedule_with)
/// for every input.
#[derive(Debug, Clone, Default)]
pub struct SchedContext {
    // Per-call analysis (rebuilt each `schedule`, allocation-free once warm).
    edge_scratch: Vec<(OpId, OpId, u32)>,
    edges: Vec<(u32, u32, u32)>,
    group: Vec<u32>,
    lat: Vec<u32>,
    num_groups: usize,
    pred_off: Vec<u32>,
    pred_edge: Vec<u32>,
    succ_off: Vec<u32>,
    succ_edge: Vec<u32>,
    cursor: Vec<u32>,
    // Per-attempt scratch.
    height: Vec<i64>,
    flat_height: Vec<i64>,
    start: Vec<u32>,
    instance: Vec<u32>,
    prev_time: Vec<u32>,
    picks: Vec<u32>,
    heap: BinaryHeap<(i64, Reverse<u32>)>,
    mrt_off: Vec<u32>,
    mrt_cnt: Vec<u32>,
    mrt: Vec<u32>,
    // Dirty-closure scratch.
    dirty: Vec<bool>,
    gdirty_new: Vec<bool>,
    gdirty_old: Vec<bool>,
    new_restricted: Vec<(u32, u32, u32)>,
    // Observability for the differential/property suites.
    clean: Vec<bool>,
    clean_valid: bool,
    last_reused: usize,
    // Previous successful run.
    cache: Option<RunCache>,
}

impl SchedContext {
    /// Creates an empty context. The first `schedule` call sizes the
    /// arenas; later calls on similarly-shaped loops allocate nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the cached previous run: the next `schedule` call takes
    /// the full (non-incremental) path. Scratch capacity is kept.
    pub fn invalidate(&mut self) {
        self.cache = None;
        self.clean_valid = false;
        self.last_reused = 0;
    }

    /// Ops whose placements were reused verbatim from the cached run in
    /// the last `schedule` call (0 when the full path ran, when the
    /// dirty closure covered the whole loop, or when the merged attempt
    /// failed and a different II won).
    pub fn last_reused_ops(&self) -> usize {
        self.last_reused
    }

    /// Per-op clean mask of the last `schedule` call, when its result
    /// came from the merged (placement-reusing) attempt: `true` means
    /// the op was outside the dirty closure and kept its cached
    /// placement. `None` when the full path produced the result.
    pub fn last_clean_mask(&self) -> Option<&[bool]> {
        self.clean_valid.then_some(self.clean.as_slice())
    }

    /// Whether the context holds a cached run usable as an incremental
    /// base for a loop with this name and at least `prev_ops` ops.
    pub fn has_cached_run(&self, loop_name: &str, prev_ops: usize) -> bool {
        self.cache
            .as_ref()
            .is_some_and(|c| c.loop_name == loop_name && c.n == prev_ops)
    }

    /// Schedules `l` on `machine`, searching IIs upward from the MII —
    /// bit-identical to [`modulo_schedule_with`](crate::modulo_schedule_with)
    /// — reusing this context's arenas and, when `l` extends the
    /// previously scheduled loop, the cached clean-component placements.
    ///
    /// # Errors
    ///
    /// Exactly those of [`modulo_schedule_with`](crate::modulo_schedule_with).
    pub fn schedule(
        &mut self,
        l: &Loop,
        machine: &Machine,
        opts: SchedulerOptions,
    ) -> Result<Schedule, ScheduleError> {
        // Take the previous run out so the borrow checker lets the
        // scratch arenas and the cache be used together; a new cache is
        // written back only on success, so every failure path leaves the
        // context safely invalidated.
        let prev = self.cache.take();
        self.last_reused = 0;
        self.clean_valid = false;

        let info = mii(l, machine)?;
        let n = l.ops().len();
        let seq_len: u32 = l
            .ops()
            .iter()
            .map(|op| machine.latency(op.kind()).unwrap_or(1))
            .sum::<u32>()
            + idx32(n)
            + 1;
        let max_ii = match opts.max_ii {
            Some(cap) => cap,
            None => seq_len.max(info.mii),
        };
        self.analyze(l, machine)?;

        // The II at which the merged (clean-placement-reusing) attempt
        // may replace the full attempt, when the cached run extends to
        // this loop and the dirty closure leaves a clean component.
        let merge_ii = prev
            .as_ref()
            .and_then(|p| self.prepare_incremental(l, machine, opts, p));

        for ii in info.mii..=max_ii {
            if self.self_recurrence_too_tight(ii) {
                continue;
            }
            let total_budget = attempt_budget(opts, n);
            let ok = if Some(ii) == merge_ii {
                let p = prev.as_ref().expect("merge_ii implies a cached run");
                self.attempt_merged(p, n, ii, opts, total_budget)
            } else {
                self.attempt(n, ii, opts.priority, total_budget, false)
            };
            if ok {
                return Ok(self.commit(l, machine, ii, opts, prev));
            }
        }
        Err(ScheduleError::NoSchedule {
            tried_up_to: max_ii,
        })
    }

    /// One IMS attempt at exactly `ii` under `opts` (priority and
    /// budget ratio; `max_ii` plays no part at a fixed II), reusing the
    /// context's arenas. Returns `Ok(None)` when the attempt fails (a
    /// self-recurrence tighter than `ii`, or an exhausted budget), and
    /// otherwise the schedule plus its stationarity certificate (see
    /// [`Rung::stationary`]). The attempt is the one
    /// [`modulo_schedule_with`](crate::modulo_schedule_with) runs at this
    /// II; the incremental-reschedule cache is neither read nor written.
    ///
    /// # Errors
    ///
    /// [`MachineError::Unserved`] if the machine cannot execute some
    /// operation.
    pub fn schedule_rung(
        &mut self,
        l: &Loop,
        machine: &Machine,
        ii: u32,
        opts: SchedulerOptions,
    ) -> Result<Option<Rung>, MachineError> {
        assert!(ii > 0, "II must be positive");
        self.analyze(l, machine)?;
        let n = l.ops().len();
        if self.self_recurrence_too_tight(ii)
            || !self.attempt(n, ii, opts.priority, attempt_budget(opts, n), false)
        {
            return Ok(None);
        }
        let stationary = self.is_stationary(n, ii, opts.priority);
        Ok(Some(Rung {
            sched: self.normalized(l, machine, ii),
            stationary,
        }))
    }

    /// The quick infeasibility check before an attempt: a self-dependence
    /// tighter than `ii` (the reference scheduler's per-II pre-check).
    fn self_recurrence_too_tight(&self, ii: u32) -> bool {
        self.edges
            .iter()
            .any(|&(f, t, d)| f == t && self.lat[f as usize] as i64 > ii as i64 * d as i64)
    }

    /// The stationarity certificate of the successful attempt in the
    /// arenas (see [`Rung::stationary`]).
    fn is_stationary(&mut self, n: usize, ii: u32, priority: Priority) -> bool {
        // Every eviction re-queues its victim, so a pick count of exactly
        // one per op means nothing was evicted.
        let picks: u64 = self.picks[..n].iter().map(|&p| u64::from(p)).sum();
        if picks != n as u64 {
            return false;
        }
        if (0..n).any(|v| u64::from(self.start[v]) + u64::from(self.lat[v]) > u64::from(ii)) {
            return false;
        }
        match priority {
            // Program order does not depend on the II.
            Priority::InputOrder => true,
            Priority::Height => {
                // Heights never grow with the II and never drop below the
                // same-iteration heights: equality here pins them at every
                // larger II.
                self.flat_height.clear();
                self.flat_height.resize(n, 0);
                for _ in 0..=n {
                    let mut changed = false;
                    for v in 0..n {
                        for k in self.succ_off[v]..self.succ_off[v + 1] {
                            let (_, w, dist) = self.edges[self.succ_edge[k as usize] as usize];
                            if dist != 0 {
                                continue;
                            }
                            let cand = self.lat[v] as i64 + self.flat_height[w as usize];
                            if cand > self.flat_height[v] {
                                self.flat_height[v] = cand;
                                changed = true;
                            }
                        }
                    }
                    if !changed {
                        break;
                    }
                }
                self.flat_height[..n] == self.height[..n]
            }
        }
    }

    /// The incremental entry point, spelled out: schedules `l` assuming
    /// the context's cached run covers its first `prev_ops` ops (the
    /// spill-rewrite contract — ops are only appended, never removed or
    /// reordered). This is [`SchedContext::schedule`] plus a debug
    /// assertion of that precondition; the dirty closure itself never
    /// trusts it (seeds are recomputed from the real graph difference),
    /// so a violated contract costs performance, not correctness.
    ///
    /// # Errors
    ///
    /// Exactly those of [`modulo_schedule_with`](crate::modulo_schedule_with).
    pub fn reschedule_extended(
        &mut self,
        l: &Loop,
        machine: &Machine,
        opts: SchedulerOptions,
        prev_ops: usize,
    ) -> Result<Schedule, ScheduleError> {
        debug_assert!(
            self.has_cached_run(l.name(), prev_ops),
            "reschedule_extended: no cached run for `{}` at {prev_ops} ops",
            l.name()
        );
        debug_assert!(prev_ops <= l.ops().len());
        self.schedule(l, machine, opts)
    }

    /// Builds per-op groups/latencies, the flat edge list and the CSR
    /// predecessor/successor indices for `l` into the arenas.
    fn analyze(&mut self, l: &Loop, machine: &Machine) -> Result<(), MachineError> {
        let n = l.ops().len();
        self.group.clear();
        self.lat.clear();
        for (_, op) in l.iter_ops() {
            let g = machine.group_for(op.kind())?;
            let lt = machine.latency(op.kind())?;
            if machine.groups()[g].count() == 0 {
                return Err(MachineError::Unserved(op.kind()));
            }
            self.group.push(idx32(g));
            self.lat.push(lt);
        }
        self.num_groups = machine.groups().len();
        self.mrt_cnt.clear();
        for g in machine.groups() {
            self.mrt_cnt.push(idx32(g.count()));
        }

        l.sched_edges_into(&mut self.edge_scratch);
        self.edges.clear();
        for &(f, t, d) in &self.edge_scratch {
            self.edges.push((idx32(f.index()), idx32(t.index()), d));
        }
        let ne = self.edges.len();

        // CSR by destination (preds) and by source (succs); the cursor
        // fill preserves edge order within each bucket, matching the
        // reference scheduler's push order.
        self.pred_off.clear();
        self.pred_off.resize(n + 1, 0);
        for &(_, t, _) in &self.edges {
            self.pred_off[t as usize + 1] += 1;
        }
        for i in 0..n {
            self.pred_off[i + 1] += self.pred_off[i];
        }
        self.pred_edge.clear();
        self.pred_edge.resize(ne, 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.pred_off[..n]);
        for e in 0..ne {
            let t = self.edges[e].1 as usize;
            self.pred_edge[self.cursor[t] as usize] = idx32(e);
            self.cursor[t] += 1;
        }

        self.succ_off.clear();
        self.succ_off.resize(n + 1, 0);
        for &(f, _, _) in &self.edges {
            self.succ_off[f as usize + 1] += 1;
        }
        for i in 0..n {
            self.succ_off[i + 1] += self.succ_off[i];
        }
        self.succ_edge.clear();
        self.succ_edge.resize(ne, 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.succ_off[..n]);
        for e in 0..ne {
            let f = self.edges[e].0 as usize;
            self.succ_edge[self.cursor[f] as usize] = idx32(e);
            self.cursor[f] += 1;
        }
        Ok(())
    }

    /// Decides whether the cached run can seed an incremental attempt
    /// for `l`, and computes the dirty closure if so. Returns the II at
    /// which the merged attempt replaces the full attempt (the cached
    /// final II), or `None` when the cache does not apply or no op
    /// stays clean.
    fn prepare_incremental(
        &mut self,
        l: &Loop,
        machine: &Machine,
        opts: SchedulerOptions,
        prev: &RunCache,
    ) -> Option<u32> {
        let n = l.ops().len();
        if prev.loop_name != l.name() || prev.opts != opts || prev.n > n || prev.machine != *machine
        {
            return None;
        }
        let m = prev.n;

        // Seeds: appended ops, ops whose group/latency changed, and the
        // endpoints of every edge in the multiset difference between the
        // cached and the current graph (restricted to the shared ops).
        self.dirty.clear();
        self.dirty.resize(n, false);
        for d in self.dirty[m..n].iter_mut() {
            *d = true;
        }
        for v in 0..m {
            if prev.group[v] != self.group[v] || prev.lat[v] != self.lat[v] {
                self.dirty[v] = true;
            }
        }
        self.new_restricted.clear();
        for &(f, t, d) in &self.edges {
            if (f as usize) < m && (t as usize) < m {
                self.new_restricted.push((f, t, d));
            }
        }
        self.new_restricted.sort_unstable();
        // Sorted multiset walk: any edge present in one graph but not
        // the other (multiplicity included) dirties both endpoints.
        let (mut i, mut j) = (0usize, 0usize);
        while i < prev.edges.len() || j < self.new_restricted.len() {
            let take_old = match (prev.edges.get(i), self.new_restricted.get(j)) {
                (Some(a), Some(b)) => {
                    if a == b {
                        i += 1;
                        j += 1;
                        continue;
                    }
                    a < b
                }
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => unreachable!(),
            };
            let &(f, t, _) = if take_old {
                let e = &prev.edges[i];
                i += 1;
                e
            } else {
                let e = &self.new_restricted[j];
                j += 1;
                e
            };
            self.dirty[f as usize] = true;
            self.dirty[t as usize] = true;
        }

        // Closure under dependence edges (old and new) and functional-
        // unit-group sharing (old and new groups): clean ops must be
        // isolated in *both* graphs for their cached trace to equal
        // their trace in a full re-run.
        let mut dirty_count = self.dirty.iter().filter(|&&d| d).count();
        if dirty_count == n {
            return None;
        }
        let old_groups = prev
            .group
            .iter()
            .map(|&g| g as usize + 1)
            .max()
            .unwrap_or(0);
        self.gdirty_new.clear();
        self.gdirty_new.resize(self.num_groups, false);
        self.gdirty_old.clear();
        self.gdirty_old.resize(old_groups, false);
        loop {
            let mut changed = false;
            for &(f, t, _) in &self.edges {
                let (f, t) = (f as usize, t as usize);
                if self.dirty[f] != self.dirty[t] {
                    self.dirty[f] = true;
                    self.dirty[t] = true;
                    dirty_count += 1;
                    changed = true;
                }
            }
            for &(f, t, _) in &prev.edges {
                let (f, t) = (f as usize, t as usize);
                if self.dirty[f] != self.dirty[t] {
                    self.dirty[f] = true;
                    self.dirty[t] = true;
                    dirty_count += 1;
                    changed = true;
                }
            }
            // A saturated closure can never un-dirty: bail out before
            // paying the group-spread and confirmation passes.
            if dirty_count == n {
                return None;
            }
            for g in self.gdirty_new.iter_mut() {
                *g = false;
            }
            for g in self.gdirty_old.iter_mut() {
                *g = false;
            }
            for v in 0..n {
                if self.dirty[v] {
                    self.gdirty_new[self.group[v] as usize] = true;
                    if v < m {
                        self.gdirty_old[prev.group[v] as usize] = true;
                    }
                }
            }
            for v in 0..n {
                if !self.dirty[v]
                    && (self.gdirty_new[self.group[v] as usize]
                        || (v < m && self.gdirty_old[prev.group[v] as usize]))
                {
                    self.dirty[v] = true;
                    dirty_count += 1;
                    changed = true;
                }
            }
            if dirty_count == n {
                return None;
            }
            if !changed {
                break;
            }
        }

        Some(prev.ii)
    }

    /// One IMS attempt at `ii` over the analyzed loop, using the arena
    /// scratch. With `restricted`, only dirty ops enter the queue (the
    /// clean component is merged afterwards). Returns success; on
    /// success `start`/`instance`/`picks` hold the raw outcome.
    ///
    /// The pick loop replaces the reference scheduler's O(n) max-scan
    /// with a lazy max-heap over the same total order
    /// `(height, Reverse(index))`: heights are fixed per attempt, so
    /// duplicate entries are indistinguishable and stale entries (ops
    /// currently scheduled) are skipped on pop — the sequence of valid
    /// pops is exactly the reference's sequence of max-scans, and the
    /// budget is charged on valid pops only, exactly as the reference
    /// charges it per pick.
    fn attempt(
        &mut self,
        n: usize,
        ii: u32,
        priority: Priority,
        mut budget: u64,
        restricted: bool,
    ) -> bool {
        self.compute_heights(n, ii, priority);
        self.start.clear();
        self.start.resize(n, UNSCHED);
        self.instance.clear();
        self.instance.resize(n, 0);
        self.prev_time.clear();
        self.prev_time.resize(n, UNSCHED);
        self.picks.clear();
        self.picks.resize(n, 0);

        self.mrt_off.clear();
        let mut total = 0u32;
        for g in 0..self.num_groups {
            self.mrt_off.push(total);
            total += ii * self.mrt_cnt[g];
        }
        self.mrt.clear();
        self.mrt.resize(total as usize, UNSCHED);

        self.heap.clear();
        for v in 0..n {
            if !restricted || self.dirty[v] {
                self.heap.push((self.height[v], Reverse(idx32(v))));
            }
        }

        while let Some((_, Reverse(vid))) = self.heap.pop() {
            let op = vid as usize;
            if self.start[op] != UNSCHED {
                continue; // stale entry: op was rescheduled since
            }
            if budget == 0 {
                return false;
            }
            budget -= 1;
            self.picks[op] += 1;

            let mut estart: i64 = 0;
            for k in self.pred_off[op]..self.pred_off[op + 1] {
                let (p, _, dist) = self.edges[self.pred_edge[k as usize] as usize];
                let p = p as usize;
                if self.start[p] != UNSCHED {
                    estart = estart
                        .max(self.start[p] as i64 + self.lat[p] as i64 - ii as i64 * dist as i64);
                }
            }
            let estart = time32(estart.max(0));
            let min_t = if self.prev_time[op] != UNSCHED {
                estart.max(self.prev_time[op] + 1)
            } else {
                estart
            };

            let g = self.group[op] as usize;
            let cnt = self.mrt_cnt[g];
            let base = self.mrt_off[g];
            // First resource-free slot in the II-wide window.
            let mut placed = None;
            'window: for t in min_t..min_t + ii {
                let row = base + (t % ii) * cnt;
                for inst in 0..cnt {
                    if self.mrt[(row + inst) as usize] == UNSCHED {
                        placed = Some((t, inst));
                        break 'window;
                    }
                }
            }
            let (t, inst) = match placed {
                Some(p) => p,
                None => {
                    // Forced placement at min_t: evict the lowest-
                    // priority occupant (first minimum in ascending
                    // instance order, as the reference's `min_by_key`).
                    let row = base + (min_t % ii) * cnt;
                    let mut evict_inst = 0u32;
                    let mut evict_op = self.mrt[row as usize];
                    for inst in 1..cnt {
                        let occ = self.mrt[(row + inst) as usize];
                        if self.height[occ as usize] < self.height[evict_op as usize] {
                            evict_op = occ;
                            evict_inst = inst;
                        }
                    }
                    debug_assert_ne!(evict_op, UNSCHED, "full row has occupants");
                    let eop = evict_op as usize;
                    self.mrt[(row + evict_inst) as usize] = UNSCHED;
                    self.start[eop] = UNSCHED;
                    self.heap.push((self.height[eop], Reverse(evict_op)));
                    (min_t, evict_inst)
                }
            };

            self.start[op] = t;
            self.instance[op] = inst;
            self.prev_time[op] = t;
            self.mrt[(base + (t % ii) * cnt + inst) as usize] = vid;

            // Evict scheduled successors whose dependence is now
            // violated (self-edges were pre-checked).
            for k in self.succ_off[op]..self.succ_off[op + 1] {
                let (_, sid, dist) = self.edges[self.succ_edge[k as usize] as usize];
                let s = sid as usize;
                if s == op {
                    continue;
                }
                let ts = self.start[s];
                if ts != UNSCHED
                    && (ts as i64) < t as i64 + self.lat[op] as i64 - ii as i64 * dist as i64
                {
                    let sg = self.group[s] as usize;
                    let cell = self.mrt_off[sg] + (ts % ii) * self.mrt_cnt[sg] + self.instance[s];
                    debug_assert_eq!(self.mrt[cell as usize], sid);
                    self.mrt[cell as usize] = UNSCHED;
                    self.start[s] = UNSCHED;
                    self.heap.push((self.height[s], Reverse(sid)));
                }
            }
        }
        true
    }

    /// The incremental attempt at the cached II: re-run only the dirty
    /// component, with the budget share the clean component's recorded
    /// picks leave over, then merge the cached clean placements back in
    /// raw coordinates. Succeeds exactly when the full attempt would
    /// (total picks `p_clean + p_dirty` against the same total budget —
    /// pick counts are interleaving-independent because the two
    /// components share no edges and no functional-unit groups).
    fn attempt_merged(
        &mut self,
        prev: &RunCache,
        n: usize,
        ii: u32,
        opts: SchedulerOptions,
        total_budget: u64,
    ) -> bool {
        let mut p_clean: u64 = 0;
        for v in 0..prev.n {
            if !self.dirty[v] {
                p_clean += prev.picks[v] as u64;
            }
        }
        if p_clean > total_budget {
            return false;
        }
        if !self.attempt(n, ii, opts.priority, total_budget - p_clean, true) {
            return false;
        }
        let mut reused = 0usize;
        for v in 0..prev.n {
            if !self.dirty[v] {
                self.start[v] = prev.raw_start[v];
                self.instance[v] = prev.instance[v];
                self.picks[v] = prev.picks[v];
                reused += 1;
            }
        }
        self.last_reused = reused;
        self.clean.clear();
        self.clean.extend(self.dirty.iter().map(|&d| !d));
        self.clean_valid = true;
        true
    }

    /// The successful attempt in the arenas as a [`Schedule`]: the
    /// earliest op moves to cycle 0 by a multiple of II, so kernel slots
    /// are preserved (the reference scheduler's normalization).
    fn normalized(&self, l: &Loop, machine: &Machine, ii: u32) -> Schedule {
        let n = l.ops().len();
        let t0 = self.start[..n].iter().copied().min().unwrap_or(0);
        let shift = (t0 / ii) * ii;
        let starts: Vec<u32> = self.start[..n].iter().map(|&s| s - shift).collect();
        let units: Vec<UnitRef> = (0..n)
            .map(|v| UnitRef {
                group: self.group[v] as usize,
                instance: self.instance[v] as usize,
            })
            .collect();
        let sched = Schedule::from_parts(l, machine, ii, starts, units);
        debug_assert_eq!(crate::schedule::verify(l, machine, &sched), Ok(()));
        sched
    }

    /// Normalizes the successful attempt into a [`Schedule`] and
    /// refreshes the run cache for the next incremental call.
    fn commit(
        &mut self,
        l: &Loop,
        machine: &Machine,
        ii: u32,
        opts: SchedulerOptions,
        prev: Option<RunCache>,
    ) -> Schedule {
        let n = l.ops().len();
        let sched = self.normalized(l, machine, ii);

        // Refresh the run cache, recycling the retired cache's
        // allocations (the common spill-descent case commits once per
        // step with near-identical sizes).
        let mut c = match prev {
            Some(mut c) => {
                if c.loop_name != l.name() {
                    c.loop_name.clear();
                    c.loop_name.push_str(l.name());
                }
                if c.machine != *machine {
                    c.machine = machine.clone();
                }
                c.raw_start.clear();
                c.instance.clear();
                c.picks.clear();
                c.group.clear();
                c.lat.clear();
                c.edges.clear();
                c
            }
            None => RunCache {
                loop_name: l.name().to_owned(),
                machine: machine.clone(),
                opts,
                n,
                ii,
                raw_start: Vec::new(),
                instance: Vec::new(),
                picks: Vec::new(),
                group: Vec::new(),
                lat: Vec::new(),
                edges: Vec::new(),
            },
        };
        c.opts = opts;
        c.n = n;
        c.ii = ii;
        c.raw_start.extend_from_slice(&self.start[..n]);
        c.instance.extend_from_slice(&self.instance[..n]);
        c.picks.extend_from_slice(&self.picks[..n]);
        c.group.extend_from_slice(&self.group[..n]);
        c.lat.extend_from_slice(&self.lat[..n]);
        c.edges.extend_from_slice(&self.edges);
        c.edges.sort_unstable();
        self.cache = Some(c);
        sched
    }

    /// Height priorities into the arena: the reference's fixpoint
    /// relaxation for [`Priority::Height`], program order for
    /// [`Priority::InputOrder`].
    fn compute_heights(&mut self, n: usize, ii: u32, priority: Priority) {
        self.height.clear();
        match priority {
            Priority::InputOrder => {
                for v in 0..n {
                    self.height.push((n - v) as i64);
                }
            }
            Priority::Height => {
                self.height.resize(n, 0);
                for _ in 0..=n {
                    let mut changed = false;
                    for v in 0..n {
                        for k in self.succ_off[v]..self.succ_off[v + 1] {
                            let (_, w, dist) = self.edges[self.succ_edge[k as usize] as usize];
                            let cand = self.lat[v] as i64 - ii as i64 * dist as i64
                                + self.height[w as usize];
                            if cand > self.height[v] {
                                self.height[v] = cand;
                                changed = true;
                            }
                        }
                    }
                    if !changed {
                        break;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ims::{modulo_schedule_with, Priority};
    use crate::SchedulerOptions;
    use ncdrf_ddg::{LoopBuilder, ValueRef, Weight};
    use ncdrf_machine::Machine;

    fn chain(n_mults: usize) -> Loop {
        let mut b = LoopBuilder::new("chain");
        let x = b.array_in("x");
        let z = b.array_out("z");
        let l = b.load("L", x, 0);
        let mut prev = l.now();
        for i in 0..n_mults {
            let m = b.mul(format!("M{i}"), prev, ValueRef::Const(1.5));
            prev = m.now();
        }
        b.store("S", z, 0, prev);
        b.finish(Weight::default()).unwrap()
    }

    /// A loop with a memory component (load feeding a store) and a pure
    /// ALU self-recurrence that never touches memory: the two share no
    /// edges and no functional-unit groups, so a spill-style extension
    /// of the memory side leaves the recurrence clean.
    fn separable() -> Loop {
        let mut b = LoopBuilder::new("separable");
        let x = b.array_in("x");
        let z = b.array_out("z");
        let ld = b.load("L", x, 0);
        b.store("S", z, 0, ld.now());
        let a = b.reserve_add("ACC");
        b.bind(a, [ValueRef::Const(1.0), a.prev(1)]);
        b.finish(Weight::default()).unwrap()
    }

    fn machines() -> Vec<Machine> {
        vec![
            Machine::clustered(3, 1),
            Machine::clustered(6, 1),
            Machine::clustered(3, 2),
            Machine::pxly(1, 3),
            Machine::pxly(2, 6),
        ]
    }

    #[test]
    fn context_matches_reference_on_fresh_loops() {
        for machine in machines() {
            for size in [1, 2, 4, 8] {
                let l = chain(size);
                let mut ctx = SchedContext::new();
                let got = ctx
                    .schedule(&l, &machine, SchedulerOptions::default())
                    .unwrap();
                let want = modulo_schedule_with(&l, &machine, SchedulerOptions::default()).unwrap();
                assert_eq!(got, want, "{} chain({size})", machine.name());
                assert_eq!(ctx.last_reused_ops(), 0);
            }
        }
    }

    #[test]
    fn context_matches_reference_under_input_order_priority() {
        let opts = SchedulerOptions {
            priority: Priority::InputOrder,
            ..SchedulerOptions::default()
        };
        for machine in machines() {
            let l = chain(6);
            let mut ctx = SchedContext::new();
            assert_eq!(
                ctx.schedule(&l, &machine, opts).unwrap(),
                modulo_schedule_with(&l, &machine, opts).unwrap(),
                "{}",
                machine.name()
            );
        }
    }

    #[test]
    fn context_reproduces_reference_failures() {
        let l = chain(4);
        let m = Machine::pxly(1, 3);
        let opts = SchedulerOptions {
            max_ii: Some(3),
            ..SchedulerOptions::default()
        };
        let mut ctx = SchedContext::new();
        assert_eq!(
            ctx.schedule(&l, &m, opts).unwrap_err(),
            modulo_schedule_with(&l, &m, opts).unwrap_err()
        );
        // A failed call invalidates the cache.
        assert!(!ctx.has_cached_run("chain", l.ops().len()));
    }

    #[test]
    fn cache_reuse_on_same_loop_is_bit_identical() {
        let l = chain(5);
        let m = Machine::clustered(3, 2);
        let mut ctx = SchedContext::new();
        let first = ctx.schedule(&l, &m, SchedulerOptions::default()).unwrap();
        // Second run hits the cache (the whole loop is clean) and must
        // reproduce the reference output exactly.
        let second = ctx.schedule(&l, &m, SchedulerOptions::default()).unwrap();
        assert_eq!(first, second);
        assert_eq!(
            second,
            modulo_schedule_with(&l, &m, SchedulerOptions::default()).unwrap()
        );
        assert_eq!(ctx.last_reused_ops(), l.ops().len());
    }

    #[test]
    fn stale_cache_from_a_different_loop_is_ignored() {
        let m = Machine::clustered(3, 1);
        let mut ctx = SchedContext::new();
        ctx.schedule(&chain(3), &m, SchedulerOptions::default())
            .unwrap();
        let other = chain(7);
        let got = ctx
            .schedule(&other, &m, SchedulerOptions::default())
            .unwrap();
        // Same name but shorter cached loop: the graph diff dirties the
        // changed suffix; whatever path runs, the output is identical.
        assert_eq!(
            got,
            modulo_schedule_with(&other, &m, SchedulerOptions::default()).unwrap()
        );
        // A machine switch invalidates outright.
        let m2 = Machine::clustered(6, 1);
        let got = ctx
            .schedule(&other, &m2, SchedulerOptions::default())
            .unwrap();
        assert_eq!(
            got,
            modulo_schedule_with(&other, &m2, SchedulerOptions::default()).unwrap()
        );
        assert_eq!(ctx.last_reused_ops(), 0);
    }

    #[test]
    fn separable_extension_reuses_the_clean_component() {
        let l = separable();
        let m = Machine::clustered(3, 1);
        let mut ctx = SchedContext::new();
        ctx.schedule(&l, &m, SchedulerOptions::default()).unwrap();

        // Extend the memory side the way a spill rewrite would: rebuild
        // the loop with an extra load consumed by an extra store. The
        // ACC/MACC recurrence keeps its ops, edges and groups.
        let mut b = LoopBuilder::new("separable");
        let x = b.array_in("x");
        let z = b.array_out("z");
        let x2 = b.array_in("x2");
        let z2 = b.array_out("z2");
        let ld = b.load("L", x, 0);
        b.store("S", z, 0, ld.now());
        let a = b.reserve_add("ACC");
        b.bind(a, [ValueRef::Const(1.0), a.prev(1)]);
        let ld2 = b.load("L2", x2, 0);
        b.store("S2", z2, 0, ld2.now());
        let extended = b.finish(Weight::default()).unwrap();

        let got = ctx
            .reschedule_extended(&extended, &m, SchedulerOptions::default(), l.ops().len())
            .unwrap();
        let want = modulo_schedule_with(&extended, &m, SchedulerOptions::default()).unwrap();
        assert_eq!(got, want);
        // The ALU recurrence (ACC) was reused; the mem ops were dirtied
        // by the appended load/store sharing their port group.
        assert!(
            ctx.last_reused_ops() >= 1,
            "reused {}",
            ctx.last_reused_ops()
        );
        let mask = ctx.last_clean_mask().expect("merged attempt ran");
        let acc = extended.find_op("ACC").unwrap();
        assert!(mask[acc.index()]);
        for (id, op) in extended.iter_ops() {
            if op.kind().is_memory() {
                assert!(!mask[id.index()], "{} must be dirty", op.name());
            }
        }
    }

    #[test]
    fn rungs_match_the_reference_attempt_and_reach_stationarity() {
        for machine in machines() {
            for size in [2, 5, 8] {
                let l = chain(size);
                let opts = SchedulerOptions::default();
                let base = modulo_schedule_with(&l, &machine, opts).unwrap().ii();
                // The sequential length: one op at a time.
                let top: u32 = l
                    .ops()
                    .iter()
                    .map(|op| machine.latency(op.kind()).unwrap() + 1)
                    .sum::<u32>()
                    + 1;
                let mut ctx = SchedContext::new();
                let mut first_stationary = None;
                for ii in base..=top {
                    let got = ctx.schedule_rung(&l, &machine, ii, opts).unwrap();
                    let want = crate::ims::modulo_schedule_with(
                        &l,
                        &machine,
                        SchedulerOptions {
                            max_ii: Some(ii),
                            ..opts
                        },
                    )
                    .ok()
                    .filter(|s| s.ii() == ii);
                    // Where the reference's II search lands exactly on
                    // `ii`, the rung is that very attempt.
                    if let Some(want) = want {
                        assert_eq!(got.as_ref().map(|r| &r.sched), Some(&want));
                    }
                    let Some(rung) = got else { continue };
                    match &first_stationary {
                        None if rung.stationary => first_stationary = Some(rung.sched),
                        None => {}
                        Some(st) => {
                            assert!(rung.stationary, "{} chain({size}) II {ii}", machine.name());
                            let starts = l.iter_ops().map(|(id, _)| st.start(id)).collect();
                            let units = l.iter_ops().map(|(id, _)| st.unit(id)).collect();
                            let rebuilt = Schedule::from_parts(&l, &machine, ii, starts, units);
                            assert_eq!(rung.sched, rebuilt, "{} chain({size})", machine.name());
                        }
                    }
                }
                assert!(
                    first_stationary.is_some(),
                    "{} chain({size}) never became stationary",
                    machine.name()
                );
            }
        }
    }

    #[test]
    fn invalidate_forces_the_full_path() {
        let l = separable();
        let m = Machine::clustered(3, 1);
        let mut ctx = SchedContext::new();
        ctx.schedule(&l, &m, SchedulerOptions::default()).unwrap();
        ctx.invalidate();
        let again = ctx.schedule(&l, &m, SchedulerOptions::default()).unwrap();
        assert_eq!(ctx.last_reused_ops(), 0);
        assert!(ctx.last_clean_mask().is_none());
        assert_eq!(
            again,
            modulo_schedule_with(&l, &m, SchedulerOptions::default()).unwrap()
        );
    }
}

//! The metric tables `BENCHMARK.json` lists, the derivation of every
//! per-layer metric from a span file, and the one-line JSON result.

use crate::stats::{percentile, tail_percentile};
use crate::trace::{self_times_ns, uncovered_share, Span};
use crate::workloads::Counts;
use std::fmt::Write as _;

/// End-to-end metrics: name, unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cells_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: name, unit.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("corpus.build_s", "s"),
    ("sched.base_calls", "count"),
    ("sched.base_s", "s"),
    ("swap.calls", "count"),
    ("swap.s", "s"),
    ("regalloc.analyze_calls", "count"),
    ("regalloc.analyze_s", "s"),
    ("spill.evals", "count"),
    ("spill.s", "s"),
    ("spill.fit_ratio", "ratio"),
    ("spill.ii_raised_evals", "count"),
    ("spill.ii_raised_s", "s"),
    ("spill.mem_ops_added", "count"),
    ("session.sched_runs", "count"),
    ("session.cache_hits", "count"),
    ("session.spill_steps", "count"),
    ("session.traj_resumes", "count"),
    ("session.traj_hits", "count"),
    ("exec.busy_ratio", "ratio"),
    ("sweep.shard_s", "s"),
    ("report.render_s", "s"),
    ("report.render_bytes", "bytes"),
    ("report.parse_s", "s"),
    ("report.parse_bytes", "bytes"),
    ("report.parse_mb_per_s", "MB/s"),
    ("artifact.write_s", "s"),
    ("artifact.read_s", "s"),
    ("merge.s", "s"),
    ("certify.s", "s"),
    ("certify.cells", "count"),
    ("certify.faults", "count"),
    ("farm.submit_ms", "ms"),
    ("farm.claim_ms_p50", "ms"),
    ("farm.grid_rebuild_ms_p50", "ms"),
    ("farm.evaluate_lease_ms_p50", "ms"),
    ("farm.deliver_ms_p50", "ms"),
    ("farm.deliver_ms_p90", "ms"),
    ("farm.status_ms_p50", "ms"),
    ("farm.status_ms_p90", "ms"),
    ("farm.report_ms", "ms"),
    ("farm.leases", "count"),
    ("farm.lease_samples", "count"),
    ("farm.refused", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.uncovered_share", "ratio"),
    ("trace.spans", "count"),
];

/// Spans that only group calls (the replay, a grid cell, a farm job or
/// lease); every other span times one call into a layer.
pub fn is_layer(name: &str) -> bool {
    !name.starts_with("replay")
}

/// What the traced run measured besides its spans.
pub struct TraceContext<'a> {
    /// Work counts of the untraced pooled run (cache counters, leases).
    pub counts: &'a Counts,
    /// `cpu_s / (wall_s * workers)` of the untraced pooled run.
    pub busy_ratio: f64,
    /// Traced replay wall time minus untraced replay wall time.
    pub overhead_s: f64,
}

/// Per-name aggregates over the span file.
struct ByName<'a> {
    spans: &'a [Span],
    self_ns: Vec<u64>,
}

impl ByName<'_> {
    fn named<'s>(&'s self, name: &'s str) -> impl Iterator<Item = (usize, &'s Span)> + 's {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
    }

    fn calls(&self, name: &str) -> f64 {
        self.named(name).count() as f64
    }

    /// Summed self time in seconds.
    fn self_s(&self, name: &str) -> f64 {
        self.named(name).map(|(i, _)| self.self_ns[i]).sum::<u64>() as f64 * 1e-9
    }

    fn attr_sum(&self, name: &str, key: &str) -> f64 {
        self.named(name).map(|(_, s)| s.attr(key)).sum::<u64>() as f64
    }

    /// Nearest-rank percentile `p` of the spans' durations, in
    /// milliseconds.
    fn ms(&self, name: &str, p: f64) -> f64 {
        let d: Vec<f64> = self
            .named(name)
            .map(|(_, s)| s.duration_ns() as f64 * 1e-6)
            .collect();
        percentile(&d, p)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every [`PER_LAYER`] metric, in table order, derived from the span
/// file's spans and the context. Layers the workload does not exercise
/// read 0.
///
/// # Errors
///
/// When a reported tail percentile has fewer than ten samples beyond it.
pub fn per_layer(spans: &[Span], ctx: &TraceContext<'_>) -> Result<Vec<f64>, String> {
    let by = ByName {
        spans,
        self_ns: self_times_ns(spans),
    };
    let count = |key: &str| ctx.counts.get(key).copied().unwrap_or(0) as f64;
    let leases = by.calls("farm.evaluate_lease") as usize;
    if leases > 0 && tail_percentile(leases).is_none_or(|p| p < 90.0) {
        return Err(format!(
            "{leases} lease samples cannot support a 90th percentile"
        ));
    }
    let evals = by.calls("spill.evaluate");
    let ii_raised_ns: u64 = by
        .named("spill.evaluate")
        .filter(|(_, s)| s.attr("ii_raised") == 1)
        .map(|(i, _)| by.self_ns[i])
        .sum();
    let parse_s = by.self_s("report.parse");
    let parse_bytes = by.attr_sum("report.parse", "bytes");
    let refused = spans
        .iter()
        .filter(|s| s.name.starts_with("farm.") && s.attrs.iter().any(|(k, _)| k == "status"))
        .filter(|s| !(200..300).contains(&s.attr("status")))
        .count();
    let root_s: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .sum();
    let values = vec![
        by.self_s("corpus.build"),
        by.calls("sched.base"),
        by.self_s("sched.base"),
        by.calls("swap"),
        by.self_s("swap"),
        by.calls("regalloc.analyze"),
        by.self_s("regalloc.analyze"),
        evals,
        by.self_s("spill.evaluate"),
        ratio(by.attr_sum("spill.evaluate", "fits"), evals),
        by.attr_sum("spill.evaluate", "ii_raised"),
        ii_raised_ns as f64 * 1e-9,
        by.attr_sum("spill.evaluate", "mem_ops_added"),
        count("sched_runs"),
        count("cache_hits"),
        count("spill_steps"),
        count("traj_resumes"),
        count("traj_hits"),
        ctx.busy_ratio,
        by.self_s("sweep.shard"),
        by.self_s("report.render"),
        by.attr_sum("report.render", "bytes"),
        parse_s,
        parse_bytes,
        ratio(parse_bytes * 1e-6, parse_s),
        by.self_s("artifact.write"),
        by.self_s("artifact.read"),
        by.self_s("merge"),
        by.self_s("certify"),
        by.attr_sum("certify", "cells"),
        by.attr_sum("certify", "faults"),
        by.ms("farm.submit", 50.0),
        by.ms("farm.claim", 50.0),
        by.ms("farm.grid_rebuild", 50.0),
        by.ms("farm.evaluate_lease", 50.0),
        by.ms("farm.deliver", 50.0),
        by.ms("farm.deliver", 90.0),
        by.ms("farm.status", 50.0),
        by.ms("farm.status", 90.0),
        by.ms("farm.report", 50.0),
        count("leases"),
        leases as f64,
        refused as f64,
        root_s,
        ctx.overhead_s,
        uncovered_share(spans, is_layer),
        spans.len() as f64,
    ];
    debug_assert_eq!(values.len(), PER_LAYER.len());
    Ok(values)
}

/// The benchmark's last output line.
pub struct RunResult {
    /// Whether every run's output and work counts checked out.
    pub correct: bool,
    /// Workload runs attempted.
    pub attempted: u64,
    /// Runs that failed or produced a mismatched output.
    pub failed: u64,
    /// `(name, value, unit)` for every reported metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    /// One JSON object, every metric value with all its digits.
    pub fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let r = RunResult {
            correct: true,
            attempted: 4,
            failed: 0,
            metrics: vec![("wall_s", 1.25, "s"), ("cells_per_s", f64::NAN, "1/s")],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"cells_per_s\": {\"value\": 0, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn every_metric_is_declared_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let decl = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&decl), "BENCHMARK.json lacks `{decl}`");
        }
        let declared = json.matches("\"unit\": ").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn layer_metrics_come_from_self_times_and_attributes() {
        let span = |id, parent, name: &str, start, end, attrs: Vec<(&str, u64)>| Span {
            id,
            parent,
            name: name.to_owned(),
            item: None,
            start_ns: start,
            end_ns: end,
            attrs: attrs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
        };
        let spans = vec![
            span(0, None, "replay", 0, 1_000_000_000, vec![]),
            span(1, Some(0), "replay.cell", 0, 600_000_000, vec![]),
            span(2, Some(1), "sched.base", 0, 100_000_000, vec![]),
            span(
                3,
                Some(1),
                "spill.evaluate",
                100_000_000,
                300_000_000,
                vec![("fits", 1)],
            ),
            span(
                4,
                Some(1),
                "spill.evaluate",
                300_000_000,
                600_000_000,
                vec![("ii_raised", 1)],
            ),
            span(
                5,
                Some(0),
                "report.parse",
                600_000_000,
                800_000_000,
                vec![("bytes", 2_000_000)],
            ),
        ];
        let counts = Counts::from([("cache_hits", 7)]);
        let ctx = TraceContext {
            counts: &counts,
            busy_ratio: 0.9,
            overhead_s: 0.25,
        };
        let v = per_layer(&spans, &ctx).unwrap();
        let get = |n: &str| v[PER_LAYER.iter().position(|(m, _)| *m == n).unwrap()];
        assert_eq!(get("sched.base_calls"), 1.0);
        assert!((get("sched.base_s") - 0.1).abs() < 1e-12);
        assert_eq!(get("spill.evals"), 2.0);
        assert!((get("spill.s") - 0.5).abs() < 1e-12);
        assert_eq!(get("spill.fit_ratio"), 0.5);
        assert_eq!(get("spill.ii_raised_evals"), 1.0);
        assert!((get("spill.ii_raised_s") - 0.3).abs() < 1e-12);
        assert!((get("report.parse_mb_per_s") - 10.0).abs() < 1e-9);
        assert_eq!(get("session.cache_hits"), 7.0);
        assert_eq!(get("exec.busy_ratio"), 0.9);
        assert!((get("trace.uncovered_share") - 0.2).abs() < 1e-12);
        assert_eq!(get("trace.wall_s"), 1.0);
        assert_eq!(get("farm.deliver_ms_p90"), 0.0);
    }
}

//! In-memory span recorder for the traced replay, the span file it
//! writes when the run ends, and the self-time arithmetic the per-layer
//! metrics are derived from.
//!
//! Spans are recorded here, around calls into each layer's public
//! functions; nothing inside the program under test is instrumented.
//! The replay is single-threaded, so spans nest strictly: a span's
//! children never overlap each other.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: name, interval, the span that caused it, and the grid
/// cell or farm lease it served.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in recording order.
    pub id: usize,
    /// The enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Layer-qualified call name, e.g. `sched.base`.
    pub name: String,
    /// Grid cell (task index) or farm lease id, when the call has one.
    pub item: Option<u64>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Exact counts observed at this boundary (bytes, fits, faults...).
    pub attrs: Vec<(String, u64)>,
}

impl Span {
    /// The span's wall-clock duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The value of attribute `key`, 0 when absent.
    pub fn attr(&self, key: &str) -> u64 {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |&(_, v)| v)
    }
}

/// Records spans when enabled; when disabled every method only runs the
/// wrapped call, so the untraced replay executes the same calls.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only forwards calls.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<R>(
        &mut self,
        name: &str,
        item: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_owned(),
            item,
            start_ns,
            end_ns: start_ns,
            attrs: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Attaches an exact count to the innermost open span.
    pub fn attr(&mut self, key: &str, value: u64) {
        if let Some(&id) = self.open.last() {
            self.spans[id].attrs.push((key.to_owned(), value));
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

const HEADER: &str = "# perfbench spans v1: id parent name item start_ns end_ns attrs";

fn opt(v: Option<impl ToString>) -> String {
    v.map_or_else(|| "-".to_owned(), |v| v.to_string())
}

/// Writes spans as one tab-separated line each (linear to write and to
/// read back, whatever the span count).
pub fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut out = String::from(HEADER);
    out.push('\n');
    for s in spans {
        let attrs = if s.attrs.is_empty() {
            "-".to_owned()
        } else {
            let kv: Vec<String> = s.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            kv.join(",")
        };
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            opt(s.parent),
            s.name,
            opt(s.item),
            s.start_ns,
            s.end_ns,
            attrs
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads a span file written by [`write_spans`].
pub fn read_spans(path: &Path) -> Result<Vec<Span>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines = text.lines();
    if lines.next() != Some(HEADER) {
        return Err(format!("{}: not a span file", path.display()));
    }
    lines
        .enumerate()
        .map(|(i, line)| parse_line(line).ok_or_else(|| format!("span line {}: `{line}`", i + 2)))
        .collect()
}

fn parse_line(line: &str) -> Option<Span> {
    let f: Vec<&str> = line.split('\t').collect();
    let [id, parent, name, item, start, end, attrs] = f.as_slice() else {
        return None;
    };
    let optional = |s: &str| -> Option<Option<u64>> {
        if s == "-" {
            Some(None)
        } else {
            s.parse().ok().map(Some)
        }
    };
    let attrs = if *attrs == "-" {
        Vec::new()
    } else {
        attrs
            .split(',')
            .map(|kv| {
                let (k, v) = kv.split_once('=')?;
                Some((k.to_owned(), v.parse().ok()?))
            })
            .collect::<Option<Vec<_>>>()?
    };
    Some(Span {
        id: id.parse().ok()?,
        parent: optional(parent)?.map(|p| p as usize),
        name: (*name).to_owned(),
        item: optional(item)?,
        start_ns: start.parse().ok()?,
        end_ns: end.parse().ok()?,
        attrs,
    })
}

/// Self time of every span (indexed like `spans`): its duration minus
/// the durations of its direct children.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Share of the root spans' time that no span accepted by `is_layer`
/// covers (the union of layer intervals, so nested layer spans count
/// once).
pub fn uncovered_share(spans: &[Span], is_layer: impl Fn(&str) -> bool) -> f64 {
    let total: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum();
    if total == 0 {
        return 0.0;
    }
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| is_layer(&s.name))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = 0u64;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    total.saturating_sub(covered) as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_owned(),
            item: Some(id as u64),
            start_ns: start,
            end_ns: end,
            attrs: vec![("bytes".to_owned(), 7 * id as u64)],
        }
    }

    /// root [0,100] > a [10,40] > a.inner [20,30]; root > b [50,70].
    fn tree() -> Vec<Span> {
        vec![
            span(0, None, "workload", 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(1), "a.inner", 20, 30),
            span(3, Some(0), "b", 50, 70),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        assert_eq!(self_times_ns(&tree()), vec![50, 20, 10, 20]);
    }

    #[test]
    fn self_times_sum_to_the_root_duration() {
        let spans = tree();
        assert_eq!(
            self_times_ns(&spans).iter().sum::<u64>(),
            spans[0].duration_ns()
        );
    }

    #[test]
    fn uncovered_share_counts_nested_layers_once() {
        let spans = tree();
        let all = |n: &str| n != "workload";
        assert_eq!(uncovered_share(&spans, all), 0.5);
        assert_eq!(uncovered_share(&spans, |n| n == "a.inner"), 0.9);
        assert_eq!(uncovered_share(&spans, |_| false), 1.0);
    }

    #[test]
    fn the_tracer_nests_and_the_file_round_trips() {
        let mut t = Tracer::new(true);
        let v = t.span("workload", None, |t| {
            t.span("a", Some(3), |t| {
                t.attr("bytes", 42);
                t.span("a.inner", None, |_| 5)
            })
        });
        assert_eq!(v, 5);
        let spans = t.spans().to_vec();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[1].attr("bytes"), 42);
        assert!(spans.iter().all(|s| s.start_ns <= s.end_ns));

        let path = std::env::temp_dir().join(format!("perfbench-spans-{}.tsv", std::process::id()));
        write_spans(&path, &spans).unwrap();
        let back = read_spans(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back, spans);
    }

    #[test]
    fn a_disabled_tracer_runs_the_call_and_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("a", None, |t| t.span("b", None, |_| 9)), 9);
        t.attr("bytes", 1);
        assert!(t.spans().is_empty());
    }
}

//! Spans recorded by the harness around its calls into each layer.
//!
//! The benchmark changes no file of the engine, so every span is drawn
//! from outside: `enter` before a call into a layer's public function,
//! `exit` after it. Spans stay in memory until the workload ends, are
//! written as JSON lines, and reduce to the per-layer table. A disabled
//! tracer still times (its `exit` returns the duration the harness needs
//! for the end-to-end metrics) but records nothing.

use crate::stats;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One closed span. `parent` is the id of the span that was open when
/// this one was entered (0 = none); spans of one job share `job`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// 1-based id, unique within a trace.
    pub id: u32,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u32,
    /// The job this span belongs to.
    pub job: u32,
    /// Layer-qualified name, e.g. `core.deploy`.
    pub name: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

/// Handle of an entered span; give it back to [`Tracer::exit`].
#[must_use]
pub struct Open {
    /// Index into the tracer's span list, when recording.
    slot: Option<usize>,
    start: Instant,
}

/// In-memory span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    job: u32,
}

impl Tracer {
    /// A tracer that records spans when `enabled`, and only times
    /// otherwise.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            job: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (between jobs).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Starts the next job: spans entered from here share a fresh job
    /// id. Also forgets spans a failed job left open.
    pub fn begin_job(&mut self) {
        self.job += 1;
        self.stack.clear();
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &str) -> Open {
        let start = Instant::now();
        let slot = self.enabled.then(|| {
            let id = self.spans.len() as u32 + 1;
            let at = (start - self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                id,
                parent: self.stack.last().copied().unwrap_or(0),
                job: self.job,
                name: name.to_owned(),
                start_ns: at,
                end_ns: at,
            });
            self.stack.push(id);
            self.spans.len() - 1
        });
        Open { slot, start }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let elapsed = open.start.elapsed();
        if let Some(slot) = open.slot {
            let span = &mut self.spans[slot];
            span.end_ns = span.start_ns + elapsed.as_nanos() as u64;
            let id = span.id;
            // Spans close innermost-first; anything above `id` was left
            // open by an early return and is dropped from the stack.
            if let Some(pos) = self.stack.iter().rposition(|&s| s == id) {
                self.stack.truncate(pos);
            }
        }
        elapsed.as_secs_f64()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of each span, index-aligned with `spans`: its duration
/// minus the part of its interval that its child spans cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            for (start, end) in kids {
                let start = start.clamp(reach, s.end_ns);
                let end = end.clamp(start, s.end_ns);
                covered += end - start;
                reach = reach.max(end);
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per-name reduction of a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanStats {
    /// Spans with this name.
    pub count: usize,
    /// Median duration, seconds.
    pub median_s: f64,
    /// Median self time, seconds.
    pub median_self_s: f64,
}

/// Reduces spans to one row per span name.
pub fn reduce(spans: &[Span]) -> BTreeMap<String, SpanStats> {
    let selfs = self_times_ns(spans);
    let mut by_name: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let row = by_name.entry(&s.name).or_default();
        row.0.push((s.end_ns - s.start_ns) as f64 * 1e-9);
        row.1.push(own as f64 * 1e-9);
    }
    by_name
        .into_iter()
        .map(|(name, (durations, selfs))| {
            let stats = SpanStats {
                count: durations.len(),
                median_s: stats::median(&durations),
                median_self_s: stats::median(&selfs),
            };
            (name.to_owned(), stats)
        })
        .collect()
}

/// Median over the spans named `root` of `self time / duration`: the
/// share of a job that no child span accounts for.
pub fn unattributed_share(spans: &[Span], root: &str) -> f64 {
    let selfs = self_times_ns(spans);
    let shares: Vec<f64> = spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == root && s.end_ns > s.start_ns)
        .map(|(s, own)| own as f64 / (s.end_ns - s.start_ns) as f64)
        .collect();
    if shares.is_empty() {
        0.0
    } else {
        stats::median(&shares)
    }
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        assert!(
            crate::report::is_metric_name(&s.name),
            "span name {:?} would need JSON escaping",
            s.name
        );
        writeln!(
            w,
            "{{\"job\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.job, s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// Reads back what [`write_jsonl`] wrote. Not a general JSON reader:
/// span names never contain a comma, colon or quote, so a line splits on
/// those.
pub fn read_jsonl(path: &Path) -> io::Result<Vec<Span>> {
    let bad = |line: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad span line {line:?}"),
        )
    };
    let mut spans = Vec::new();
    for line in io::BufReader::new(std::fs::File::open(path)?).lines() {
        let line = line?;
        let body = line
            .trim()
            .strip_prefix('{')
            .and_then(|l| l.strip_suffix('}'))
            .ok_or_else(|| bad(&line))?;
        let mut fields: BTreeMap<&str, &str> = BTreeMap::new();
        for pair in body.split(',') {
            let (key, value) = pair.split_once(':').ok_or_else(|| bad(&line))?;
            fields.insert(key.trim_matches('"'), value.trim_matches('"'));
        }
        let num = |key: &str| -> io::Result<u64> {
            fields
                .get(key)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| bad(&line))
        };
        spans.push(Span {
            id: num("id")? as u32,
            parent: num("parent")? as u32,
            job: num("job")? as u32,
            name: fields.get("name").ok_or_else(|| bad(&line))?.to_string(),
            start_ns: num("start_ns")?,
            end_ns: num("end_ns")?,
        });
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            job: 1,
            name: name.to_owned(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(1, 0, "job", 0, 100),
            span(2, 1, "core.deploy", 10, 30),
            span(3, 1, "core.run", 40, 90),
            // A grandchild shortens its parent, not the root.
            span(4, 3, "storage.insert", 50, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
        assert!((unattributed_share(&spans, "job") - 0.30).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span(1, 0, "job", 100, 200),
            span(2, 1, "a", 110, 150),
            span(3, 1, "b", 140, 170), // overlaps `a` by 10
            span(4, 1, "c", 190, 260), // overhangs the parent by 60
        ];
        // Covered: [110,170) and [190,200) = 70 of 100.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn reduce_takes_medians_per_name() {
        let spans = vec![
            span(1, 0, "job", 0, 1_000_000_000),
            span(2, 1, "core.run", 0, 400_000_000),
            span(3, 0, "job", 0, 3_000_000_000),
            span(4, 3, "core.run", 0, 600_000_000),
        ];
        let table = reduce(&spans);
        assert_eq!(table["job"].count, 2);
        assert!((table["job"].median_s - 2.0).abs() < 1e-12);
        assert!((table["job"].median_self_s - 1.5).abs() < 1e-12);
        assert!((table["core.run"].median_s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_survives_a_span_left_open() {
        let mut tr = Tracer::new(true);
        tr.begin_job();
        let job = tr.enter("job");
        let inner = tr.enter("core.deploy");
        tr.exit(inner);
        let _abandoned = tr.enter("core.fill"); // early return: never exited
        tr.exit(job);
        tr.begin_job();
        let next = tr.enter("job");
        tr.exit(next);
        let s = tr.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[1].parent, s[2].parent, s[3].parent), (1, 1, 0));
        assert_eq!((s[0].job, s[3].job), (1, 2));
        assert!(s[0].end_ns >= s[1].end_ns);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.begin_job();
        let open = tr.enter("job");
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(tr.exit(open) >= 0.002);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn jsonl_round_trips_and_reduces_to_the_same_table() {
        let spans = vec![
            span(1, 0, "job", 5, 1005),
            span(2, 1, "core.deploy", 10, 20),
            span(3, 1, "core.run", 30, 900),
        ];
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-trace-jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.jsonl");
        write_jsonl(&path, &spans).unwrap();
        let back = read_jsonl(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(back, spans);
        assert_eq!(reduce(&back), reduce(&spans));
    }
}

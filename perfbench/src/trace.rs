//! In-memory span recorder for the traced run.
//!
//! Every span records its name, start, end, parent and the unit (request
//! or input) that caused it. Spans stay in memory and are written out as
//! JSON lines when the run ends. A layer's self time is its duration minus
//! the time its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Span names that group a unit's work rather than measure a layer.
const GROUPING: [&str; 2] = ["unit", "input"];

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub unit: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; when disabled, [`Tracer::span`] only runs
/// its closure, so the untraced replay does the same work without the
/// recording.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    unit: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            unit: 0,
        }
    }

    /// Tag the spans opened from now on with `unit`.
    pub fn set_unit(&mut self, unit: u64) {
        self.unit = unit;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            unit: self.unit,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Inclusive durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Inclusive durations (ms) of spans named `name` whose unit passes `keep`.
    pub fn durations_ms_where(&self, name: &str, keep: impl Fn(u64) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(s.unit))
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time (ms) of every span: its duration minus its children's.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(c) as f64 / 1e6)
            .collect()
    }

    /// Summed self time (ms) of the spans named `name`.
    pub fn total_self_ms(&self, name: &str) -> f64 {
        self.self_ms()
            .iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == name)
            .map(|(ms, _)| ms)
            .sum()
    }

    /// Share of `wall_ns` covered by layer spans: the outermost spans that
    /// are not grouping spans (`unit`, `input`), summed.
    pub fn coverage(&self, wall_ns: u64) -> f64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| !GROUPING.contains(&s.name))
            .filter(|s| match s.parent {
                None => true,
                Some(p) => GROUPING.contains(&self.spans[p].name),
            })
            .map(Span::dur_ns)
            .sum();
        covered as f64 / wall_ns.max(1) as f64
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"unit\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.unit, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_coverage_skips_grouping() {
        let mut tr = Tracer::new(true);
        tr.span("unit", |tr| {
            tr.span("a.outer", |tr| {
                tr.span("b.inner", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(5))
                });
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        let selfs = tr.self_ms();
        assert!(selfs[1] < spans[1].dur_ns() as f64 / 1e6);
        let wall = spans[0].dur_ns();
        let cov = tr.coverage(wall);
        assert!(cov > 0.9 && cov <= 1.0, "{cov}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x.y", |_| 7), 7);
        assert!(tr.spans().is_empty());
    }
}

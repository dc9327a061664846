//! Spans recorded by the harness around calls into the layers. They stay
//! in memory during the run and are written out once, at exit.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed interval. `parent` is the enclosing harness span (the e2e
/// slice or the probe the call belongs to); spans of one op share `op`.
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: Option<u32>,
    pub start_us: f64,
    pub end_us: f64,
}

pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span that encloses later ones; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>) -> u32 {
        let now = self.epoch.elapsed().as_secs_f64() * 1e6;
        self.push(Span {
            name,
            op: 0,
            parent,
            start_us: now,
            end_us: now,
        })
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
    }

    /// Records one finished call.
    pub fn call(
        &mut self,
        name: &'static str,
        op: u32,
        parent: Option<u32>,
        start: Instant,
        dur: Duration,
    ) {
        let start_us = start.duration_since(self.epoch).as_secs_f64() * 1e6;
        self.push(Span {
            name,
            op,
            parent,
            start_us,
            end_us: start_us + dur.as_secs_f64() * 1e6,
        });
    }

    pub fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `{"workload":..,"seed":..,"spans":[{"id","name","op","parent","start_us","end_us"}]}`.
    /// Span names are harness constants (`[a-z0-9_.]`), so they need no JSON
    /// escaping.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3}}}{sep}",
                s.name, s.op, s.start_us, s.end_us
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]}\n");
        out
    }
}

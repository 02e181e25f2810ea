//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records name, host start and end, its parent span and the
//! request it serves (spans of one request share the stream index), plus
//! the client counters moved inside it. Spans stay in memory and are
//! written once, when the run ends.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use farmem_fabric::AccessStats;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;
/// Request id of a span that serves no single request.
pub const NO_REQ: u64 = u64::MAX;

pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls the span covers (1 for a single call, more for a timed chunk).
    pub calls: u32,
    /// Virtual ns, round trips, messages and bytes moved inside the span.
    pub vt_ns: u64,
    pub rt: u64,
    pub msgs: u64,
    pub bytes: u64,
}

/// Span store. When off, every call is a no-op, so the untraced run
/// pays one branch per call site.
pub struct Tracer {
    pub on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    /// Counter snapshots taken at round boundaries: (label, JSON object).
    pub counters: Vec<(String, String)>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// Host ns since the tracer started.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// Host ns from the tracer's start to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Opens a span and returns its id; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        if !self.on {
            return ROOT;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent,
            req,
            start_ns,
            end_ns: start_ns,
            calls: 1,
            vt_ns: 0,
            rt: 0,
            msgs: 0,
            bytes: 0,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        if self.on {
            let end = self.now();
            self.spans[id as usize].end_ns = end;
        }
    }

    /// Records a counter snapshot.
    pub fn counters(&mut self, label: impl Into<String>, json: impl FnOnce() -> String) {
        if self.on {
            self.counters.push((label.into(), json()));
        }
    }

    /// Records a finished span whose host interval was taken by the caller
    /// (`start` and `end` from [`now`](Self::now)).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        start_ns: u64,
        end_ns: u64,
        calls: u32,
        vt_ns: u64,
        moved: &AccessStats,
    ) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            parent,
            req,
            start_ns,
            end_ns,
            calls,
            vt_ns,
            rt: moved.round_trips,
            msgs: moved.messages,
            bytes: moved.bytes_total(),
        });
    }

    /// Per span name, in first-seen order: (name, calls, host ns, host self
    /// ns). Self time is a span's duration minus the part its direct
    /// children cover.
    pub fn by_name(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let i = match out.iter().position(|e| e.0 == s.name) {
                Some(i) => i,
                None => {
                    out.push((s.name, 0, 0, 0));
                    out.len() - 1
                }
            };
            out[i].1 += u64::from(s.calls);
            out[i].2 += dur;
            out[i].3 += dur.saturating_sub(child);
        }
        out
    }

    /// Writes counter snapshots and the per-name totals as comment lines,
    /// then one tab-separated line per span.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (label, json) in &self.counters {
            writeln!(w, "# counters {label} {json}")?;
        }
        for (name, calls, total, own) in self.by_name() {
            writeln!(
                w,
                "# span {name} calls={calls} host_ns={total} self_ns={own}"
            )?;
        }
        writeln!(
            w,
            "# id\tparent\treq\tname\tstart_ns\tend_ns\tcalls\tvt_ns\trt\tmsgs\tbytes"
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            let req = if s.req == NO_REQ { -1 } else { s.req as i64 };
            writeln!(
                w,
                "{id}\t{parent}\t{req}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.calls, s.vt_ns, s.rt, s.msgs, s.bytes
            )?;
        }
        w.flush()
    }
}

//! Benchmark-side span recording.
//!
//! One span per call into a layer: name, start, end, parent span, and the
//! batch/tick it belongs to. Spans live in memory and are written out when
//! the workload ends. The product code is not touched — spans wrap the
//! *calls* the benchmark makes through public functions, and nesting comes
//! from the call stack (the timed sink is called from inside
//! `FrontEnd::offer`, so its spans become children of the offer span).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// Marker for "no parent".
pub const ROOT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Batch (engine workloads) or tick (fleet workloads) the call served.
    pub unit: u32,
}

/// Collects spans for one pass over a workload. Disabled recorders cost one
/// branch per call, so the untraced run shares the driver code.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Current batch/tick id stamped on new spans.
    pub unit: u32,
}

/// Shared handle: the driver loop and the timed sink inside the front-end
/// both record into the same tree. Single-threaded by construction.
pub type SharedRecorder = Rc<RefCell<Recorder>>;

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            unit: 0,
        }
    }

    pub fn shared(enabled: bool) -> SharedRecorder {
        Rc::new(RefCell::new(Recorder::new(enabled)))
    }

    /// Open a span; pair with [`exit`](Self::exit).
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let id = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            unit: self.unit,
        });
        self.stack.push(id);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.stack.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Hand the recorded spans over, leaving the recorder empty.
    pub fn take_spans(&mut self) -> Vec<Span> {
        debug_assert!(self.stack.is_empty(), "take_spans with a span still open");
        std::mem::take(&mut self.spans)
    }
}

/// Record `f` as a span named `name` on a shared recorder. The borrow is
/// released while `f` runs so nested calls can record too.
pub fn spanned<T>(rec: &SharedRecorder, name: &'static str, f: impl FnOnce() -> T) -> T {
    rec.borrow_mut().enter(name);
    let out = f();
    rec.borrow_mut().exit();
    out
}

/// Self time per span name: each span's duration minus the part of it its
/// direct children cover. Children are clamped to the parent's interval, so
/// a clock hiccup cannot produce negative self time.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_cover = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            let p = &spans[s.parent as usize];
            let start = s.start_ns.max(p.start_ns);
            let end = s.end_ns.min(p.end_ns);
            child_cover[s.parent as usize] += end.saturating_sub(start);
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, cover) in spans.iter().zip(child_cover) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(cover);
    }
    out
}

/// Aggregated time of one span name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SelfTime {
    pub calls: u64,
    /// Σ duration (children included).
    pub total_ns: u64,
    /// Σ duration minus child coverage.
    pub self_ns: u64,
}

/// Σ duration of the root spans: what the span tree accounts for in total.
pub fn root_total_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == ROOT)
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// Write spans as JSON lines: `{"id":..,"name":..,"start_ns":..,"end_ns":..,"parent":..,"unit":..}`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            w,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"unit\":{}}}",
            s.name, s.start_ns, s.end_ns, s.unit
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            unit: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // offer [0,100] ─ tick [10,60] ─ wal [20,30]
        //               └ submit [70,80]
        let spans = vec![
            span("offer", 0, 100, ROOT),
            span("tick", 10, 60, 0),
            span("wal", 20, 30, 1),
            span("submit", 70, 80, 0),
        ];
        let st = self_times(&spans);
        assert_eq!(
            st["offer"],
            SelfTime {
                calls: 1,
                total_ns: 100,
                self_ns: 40
            }
        );
        assert_eq!(
            st["tick"],
            SelfTime {
                calls: 1,
                total_ns: 50,
                self_ns: 40
            }
        );
        assert_eq!(st["wal"].self_ns, 10);
        assert_eq!(st["submit"].self_ns, 10);
        // Self times of a tree add up to its root's duration.
        let sum: u64 = st.values().map(|s| s.self_ns).sum();
        assert_eq!(sum, root_total_ns(&spans));
    }

    #[test]
    fn same_named_spans_aggregate_and_children_clamp_to_parent() {
        let spans = vec![
            span("offer", 0, 10, ROOT),
            span("offer", 10, 30, ROOT),
            // A child that claims to outlive its parent only covers the
            // overlap.
            span("tick", 25, 40, 1),
        ];
        let st = self_times(&spans);
        assert_eq!(
            st["offer"],
            SelfTime {
                calls: 2,
                total_ns: 30,
                self_ns: 25
            }
        );
        assert_eq!(root_total_ns(&spans), 30);
    }

    #[test]
    fn recorder_nests_by_call_stack_and_disabled_records_nothing() {
        let rec = Recorder::shared(true);
        rec.borrow_mut().unit = 7;
        spanned(&rec, "outer", || {
            spanned(&rec, "inner", || ());
        });
        let r = rec.borrow();
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[0].parent, ROOT);
        assert_eq!(r.spans()[1].parent, 0);
        assert_eq!(r.spans()[1].unit, 7);
        assert!(r.spans()[0].end_ns >= r.spans()[1].end_ns);

        let off = Recorder::shared(false);
        spanned(&off, "outer", || ());
        assert!(off.borrow().spans().is_empty());
    }
}

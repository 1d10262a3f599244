//! The benchmark's own spans, recorded around each call into a layer.
//!
//! Spans live in a vector sized before the traced pass starts and are
//! written out as Chrome trace-event JSON when the run ends. The
//! untraced passes run the same code with [`NoSpans`], whose methods
//! compile to nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub const NO_PARENT: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Spans of one transaction (or one recovery) share this number.
    pub txn: u64,
}

/// What the driving code calls at every layer boundary.
pub trait Spans {
    fn open(&mut self, name: &'static str, txn: u64) -> u32;
    fn close(&mut self, id: u32);
    /// A child of the innermost open span whose duration was measured
    /// elsewhere (the `RecoveryReport` timers), laid end to end from
    /// `offset` after the parent's start.
    fn child(&mut self, name: &'static str, offset: Duration, dur: Duration);
}

pub struct NoSpans;

impl Spans for NoSpans {
    #[inline(always)]
    fn open(&mut self, _: &'static str, _: u64) -> u32 {
        0
    }
    #[inline(always)]
    fn close(&mut self, _: u32) {}
    #[inline(always)]
    fn child(&mut self, _: &'static str, _: Duration, _: Duration) {}
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Per span name: how often, how long, and how long net of children.
#[derive(Default, Clone, Copy)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameStats {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.total_ns as f64 / self.count as f64 / 1e3
    }
}

impl Recorder {
    pub fn with_capacity(spans: usize) -> Recorder {
        Recorder { epoch: Instant::now(), spans: Vec::with_capacity(spans), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Count, total time and self time per span name. Self time is the
    /// span's duration minus the part its direct children cover.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(covered);
        }
        out
    }

    /// Median duration of the spans called `name`, in microseconds.
    pub fn median_us(&self, name: &str) -> f64 {
        let mut ns: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        ns.sort_unstable();
        ns.get(ns.len() / 2).map_or(0.0, |&d| d as f64 / 1e3)
    }

    /// Chrome trace-event JSON (`ph:"X"` complete events, microsecond
    /// timestamps) of the first `limit` spans.
    pub fn chrome_json(&self, limit: usize) -> String {
        let mut out = String::with_capacity(limit.min(self.spans.len()) * 128 + 64);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == NO_PARENT { -1 } else { s.parent as i64 };
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\
                 \"args\":{{\"id\":{},\"parent\":{},\"txn\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                parent,
                s.txn
            )
            .expect("write to String");
        }
        out.push_str("\n]}\n");
        out
    }
}

impl Spans for Recorder {
    #[inline]
    fn open(&mut self, name: &'static str, txn: u64) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, txn });
        self.open.push(id);
        id
    }

    #[inline]
    fn close(&mut self, id: u32) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    fn child(&mut self, name: &'static str, offset: Duration, dur: Duration) {
        let Some(&parent) = self.open.last() else { return };
        let p = &self.spans[parent as usize];
        let start_ns = p.start_ns + offset.as_nanos() as u64;
        let txn = p.txn;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur.as_nanos() as u64,
            parent,
            txn,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::with_capacity(8);
        let outer = r.open("outer", 7);
        let inner = r.open("inner", 7);
        std::thread::sleep(Duration::from_millis(2));
        r.close(inner);
        std::thread::sleep(Duration::from_millis(1));
        r.child("timer", Duration::ZERO, Duration::from_micros(300));
        r.close(outer);
        let by = r.by_name();
        let (o, i, t) = (by["outer"], by["inner"], by["timer"]);
        assert_eq!((o.count, i.count, t.count), (1, 1, 1));
        assert_eq!(t.total_ns, 300_000);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns - t.total_ns);
        assert!(i.total_ns >= 2_000_000 && i.self_ns == i.total_ns);
    }

    #[test]
    fn chrome_json_parses_and_carries_the_required_fields() {
        let mut r = Recorder::with_capacity(4);
        let a = r.open("a", 1);
        let b = r.open("b", 1);
        r.close(b);
        r.close(a);
        let doc = pandora::obs::json::parse(&r.chrome_json(10)).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).expect("events");
        assert_eq!(events.len(), 2);
        for e in events {
            for field in ["ph", "ts", "pid", "tid", "name"] {
                assert!(e.get(field).is_some(), "missing {field}");
            }
        }
        assert_eq!(events[1].get("args").unwrap().get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(r.chrome_json(1).matches("\"ph\"").count(), 1);
    }
}

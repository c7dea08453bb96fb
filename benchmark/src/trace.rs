//! Spans recorded by the harness around each public call into the stack.
//!
//! Each rank owns one [`Tracer`] with preallocated storage, so recording a
//! span is two `Instant::now()` calls and a `Vec::push` that never
//! reallocates.  Spans are written out as Chrome-trace JSON when the run
//! ends (`chrome://tracing`, Perfetto and `speedscope` load it).

use std::fmt::Write as _;
use std::time::Instant;

use crate::json::quote;
use crate::stats::percentile_us;

/// Marks a span without a parent, and the handle a disabled tracer returns.
pub const NO_SPAN: u32 = u32::MAX;

/// Spans one rank may record in one traced round; later ones are dropped
/// (and counted) rather than growing the buffer inside the timed loop.
const SPAN_CAPACITY: usize = 1 << 17;

/// One timed interval on one rank.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the round's shared epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (in the same rank's span list) of the span this one ran
    /// inside, or [`NO_SPAN`].
    pub parent: u32,
    /// Operation the span belongs to: all spans of one operation share it.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-rank span recorder.  A disabled tracer records nothing and costs one
/// branch per call.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    current: u32,
    enabled: bool,
    dropped: u64,
}

impl Tracer {
    /// `epoch` is shared by every rank of the round so their timelines align.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::with_capacity(if enabled { SPAN_CAPACITY } else { 0 }),
            current: NO_SPAN,
            enabled,
            dropped: 0,
        }
    }

    /// Open a span inside the currently open one; returns its handle for
    /// [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, op: u64) -> u32 {
        if !self.enabled {
            return NO_SPAN;
        }
        if self.spans.len() == SPAN_CAPACITY {
            self.dropped += 1;
            return NO_SPAN;
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.current,
            op,
        });
        self.current = index;
        index
    }

    /// Close the span `begin` returned.
    pub fn end(&mut self, index: u32) {
        if index == NO_SPAN {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let span = &mut self.spans[index as usize];
        span.end_ns = now;
        self.current = span.parent;
    }

    /// Run `call` inside a span: the shape of every traced call into the
    /// stack.  (`call` cannot use the tracer; an operation's outer span,
    /// whose body records child spans, uses `begin`/`end`.)
    pub fn span<T>(&mut self, name: &'static str, op: u64, call: impl FnOnce() -> T) -> T {
        let index = self.begin(name, op);
        let out = call();
        self.end(index);
        out
    }

    /// The recorded spans and how many were dropped for lack of room.
    pub fn finish(self) -> (Vec<Span>, u64) {
        (self.spans, self.dropped)
    }
}

/// Self time of every span: its duration minus the part of that interval its
/// child spans cover (children may nest further, touch or overlap).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(list) = children.get_mut(span.parent as usize) {
            list.push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Median duration (µs) of the spans called `name`; 0 when there are none.
pub fn span_p50_us(spans: &[Span], name: &str) -> f64 {
    let durations: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect();
    percentile_us(&durations, 50.0)
}

/// Median self time (µs) of the spans called `name`.
pub fn self_p50_us(spans: &[Span], name: &str) -> f64 {
    let selves: Vec<u64> = self_times_ns(spans)
        .into_iter()
        .zip(spans)
        .filter(|(_, s)| s.name == name)
        .map(|(t, _)| t)
        .collect();
    percentile_us(&selves, 50.0)
}

/// Chrome-trace JSON of every rank's spans (`tid` = rank).  `args` carries
/// the span's index, its parent's index and the operation id.
pub fn chrome_trace_json(workload: &str, seed: u64, ranks: &[(usize, Vec<Span>, u64)]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (rank, spans, _) in ranks {
        for (index, span) in spans.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = if span.parent == NO_SPAN {
                -1
            } else {
                i64::from(span.parent)
            };
            // `write!` to a String cannot fail.
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":\"dcgn\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{rank},\"args\":{{\"id\":{index},\"parent\":{parent},\"op\":{}}}}}",
                quote(span.name),
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                span.op
            );
        }
    }
    let dropped: u64 = ranks.iter().map(|(_, _, dropped)| dropped).sum();
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"workload\":{},\"seed\":{seed},\"dropped_spans\":{dropped}}}}}\n",
        quote(workload)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_with_nested_and_adjacent_children() {
        let spans = vec![
            span("op", 0, 100, NO_SPAN), // children cover 10..40 and 40..70
            span("send", 10, 40, 0),     // one grandchild covers 20..30
            span("copy", 20, 30, 1),
            span("recv", 40, 70, 0),       // adjacent to "send"
            span("op", 100, 150, NO_SPAN), // no children
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 10, 30, 50]);
        assert_eq!(self_p50_us(&spans, "op"), 0.045);
        assert_eq!(span_p50_us(&spans, "recv"), 0.03);
        assert_eq!(span_p50_us(&spans, "barrier"), 0.0);
    }

    #[test]
    fn self_time_with_overlapping_and_overhanging_children() {
        let spans = vec![
            span("op", 100, 200, NO_SPAN),
            span("a", 90, 130, 0), // starts before the parent: clipped to 100..130
            span("b", 120, 150, 0), // overlaps "a": only 130..150 is new
            span("c", 190, 260, 0), // runs past the parent: clipped to 190..200
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 30 - 20 - 10);
    }

    #[test]
    fn tracer_nests_and_a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(true, Instant::now());
        let op = tr.begin("op", 7);
        let send = tr.begin("send", 7);
        tr.end(send);
        let recv = tr.begin("recv", 7);
        tr.end(recv);
        tr.end(op);
        let next = tr.begin("op", 8);
        tr.end(next);
        let (spans, dropped) = tr.finish();
        assert_eq!(dropped, 0);
        let parents: Vec<u32> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_SPAN, 0, 0, NO_SPAN]);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(spans[1].op, 7);

        let mut off = Tracer::new(false, Instant::now());
        let handle = off.begin("op", 0);
        off.end(handle);
        assert_eq!(handle, NO_SPAN);
        assert!(off.finish().0.is_empty());
    }

    #[test]
    fn chrome_trace_is_loadable_json() {
        let ranks = vec![
            (
                0,
                vec![span("op", 0, 2500, NO_SPAN), span("send", 500, 1500, 0)],
                0,
            ),
            (1, vec![span("recv", 100, 900, NO_SPAN)], 3),
        ];
        let text = chrome_trace_json("pingpong_cpu_64B", 9, &ranks);
        let doc = json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 3);
        let send = &events[1];
        assert_eq!(send.get("name").unwrap().as_str(), Some("send"));
        assert_eq!(send.get("ts").unwrap().as_f64(), Some(0.5));
        assert_eq!(send.get("dur").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            send.get("args").unwrap().get("parent").unwrap().as_f64(),
            Some(0.0)
        );
        assert_eq!(events[2].get("tid").unwrap().as_f64(), Some(1.0));
        let other = doc.get("otherData").unwrap();
        assert_eq!(other.get("dropped_spans").unwrap().as_f64(), Some(3.0));
    }
}

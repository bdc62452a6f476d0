//! The benchmark's own span recorder: one in-memory `Vec` of spans pushed
//! around every call into a program layer, written once at exit as a
//! Chrome trace. Nothing here runs inside a program crate.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. `parent` is the span that was open when this one
/// began; `rep` is the timed repetition it belongs to (-1 outside the reps).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub rep: i64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span (points, queries, messages, ...).
    pub count: u64,
}

/// Handle returned by [`Recorder::begin`]; `None` while recording is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Span recorder. While it is off every call is one branch.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    off_since: Option<u64>,
    off_ns: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            off_since: None,
            off_ns: 0,
        }
    }

    /// Switch recording off (for the reps measured without spans) or back
    /// on. The time spent off is kept, so coverage can leave it out.
    pub fn set_enabled(&mut self, on: bool) {
        let now = self.now_ns();
        match (on, self.off_since.take()) {
            (false, since) => self.off_since = since.or(Some(now)),
            (true, Some(since)) => self.off_ns += now - since,
            (true, None) => {}
        }
        self.enabled = on;
    }

    /// Nanoseconds the recorder has been switched off by [`Self::set_enabled`].
    pub fn off_ns(&self) -> u64 {
        self.off_ns
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &str, rep: i64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            rep,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close `open` (which must be the innermost open span) and attach its
    /// work count.
    pub fn end(&mut self, open: Open, count: u64) {
        let Some(id) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.count = count;
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &str, rep: i64, count: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, rep);
        let out = f();
        self.end(open, count);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover (children clipped to the parent; overlapping
/// children counted once). Indexed like `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (ps, pe) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.max(ps), s.end_ns.min(pe));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Summed self time (seconds) and summed count of all spans called `name`.
pub fn total_self(spans: &[Span], name: &str) -> (f64, u64) {
    let selfs = self_times_ns(spans);
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .fold((0.0, 0), |(t, c), (s, ns)| {
            (t + ns as f64 / 1e9, c + s.count)
        })
}

/// Share of the root span (span 0) that is attributed to a named child
/// span: one minus the root's self-time share, both after taking out the
/// `off_ns` during which the recorder was deliberately switched off.
pub fn coverage_frac(spans: &[Span], off_ns: u64) -> f64 {
    let Some(root) = spans.first() else {
        return 0.0;
    };
    let recorded = (root.end_ns - root.start_ns).saturating_sub(off_ns);
    if recorded == 0 {
        return 0.0;
    }
    let unattributed = self_times_ns(spans)[0].saturating_sub(off_ns);
    1.0 - unattributed as f64 / recorded as f64
}

/// Chrome-trace ("X" complete events, microsecond timestamps) rendering of
/// `spans`; loads in `chrome://tracing` and Perfetto.
pub fn chrome_trace_json(spans: &[Span], workload: &str) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"dnnd-bench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"rep\":{},\"count\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            parent,
            s.rep,
            s.count
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    let _ = writeln!(
        out,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"workload\":\"{workload}\"}}}}"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            rep: -1,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child 10..40 holds grandchild 20..30; child 50..70.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 20, 30),
            span(3, Some(0), 50, 70),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20]);
        assert!((coverage_frac(&spans, 0) - 0.5).abs() < 1e-12);
        // 20 of the root's 50 unattributed ns were spent switched off
        assert!((coverage_frac(&spans, 20) - 50.0 / 80.0).abs() < 1e-12);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips() {
        // children 10..60 and 40..80 overlap (union 70); a third sticks out
        // past the parent's end and is clipped to 90..100.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(0), 40, 80),
            span(3, Some(0), 90, 130),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 70 - 10);
        // a child wholly inside another child adds nothing
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 90),
            span(2, Some(0), 20, 30),
        ];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn recorder_infers_parents_and_is_inert_when_off() {
        let mut r = Recorder::new(true);
        let a = r.begin("a", -1);
        r.span("b", 0, 7, || ());
        r.end(a, 3);
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert_eq!((s[0].count, s[1].count, s[1].rep), (3, 7, 0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(total_self(s, "b").1, 7);

        let mut off = Recorder::new(false);
        let a = off.begin("a", -1);
        assert_eq!(off.span("b", 0, 1, || 5), 5);
        off.end(a, 0);
        assert!(off.spans().is_empty());

        r.set_enabled(false);
        r.span("unrecorded", 0, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.set_enabled(true);
        assert_eq!(r.spans().len(), 2);
        assert!(r.off_ns() >= 2_000_000);
    }

    #[test]
    fn chrome_trace_is_loadable_json() {
        let spans = vec![span(0, None, 0, 2_000), span(1, Some(0), 500, 1_500)];
        let doc = obs::JsonValue::parse(&chrome_trace_json(&spans, "w")).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("events");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").and_then(|p| p.as_str()), Some("X"));
        assert_eq!(events[1].get("dur").and_then(|d| d.as_f64()), Some(1.0));
        let args = events[1].get("args").expect("args");
        assert_eq!(args.get("parent").and_then(|p| p.as_f64()), Some(0.0));
    }
}

//! Chrome-trace (Trace Event Format) export, loadable in Perfetto /
//! `chrome://tracing`.
//!
//! One track per simulated rank (`pid` 0, `tid` = rank). Matched
//! begin/end pairs become complete (`"ph":"X"`) events on the wall-clock
//! timeline — per-rank wall time is what shows real thread behavior —
//! with the virtual simulation timestamps carried in `args` (`virt_us`,
//! `virt_dur_us`). Instants become `"ph":"i"` events. Unterminated spans
//! are closed at the rank's last observed wall and virtual times and
//! flagged `"unterminated": true`. `otherData` carries the span-ring
//! overflow: `dropped_events` in total and `dropped_events_per_rank`; a
//! nonzero count means the trace is incomplete.
//!
//! The document is written as it is built, one event at a time, so its
//! size in memory is one rank's events, not the whole trace.

use crate::json::JsonValue as J;
use crate::ring::EventKind;
use crate::tracer::Tracer;
use std::io::{self, Write};

fn us(ns: u64) -> J {
    J::Num(ns as f64 / 1_000.0)
}

/// Write the compact trace document for `tracer` into `out`. An error is
/// the first one `out` returned; what was written before it stays written.
pub fn write_chrome_trace(tracer: &Tracer, mut out: impl Write) -> io::Result<()> {
    out.write_all(b"{\"traceEvents\":[")?;
    // Each element of `traceEvents` goes to `out` as soon as it is built.
    let mut sep = "";
    let mut push = |event: J| write!(out, "{}{event}", std::mem::replace(&mut sep, ","));

    for rank in 0..tracer.n_ranks() {
        // Track metadata: readable names and stable top-to-bottom order.
        push(J::Obj(vec![
            ("ph".into(), J::str("M")),
            ("name".into(), J::str("thread_name")),
            ("pid".into(), J::Int(0)),
            ("tid".into(), J::uint(rank as u64)),
            (
                "args".into(),
                J::Obj(vec![("name".into(), J::str(format!("rank {rank}")))]),
            ),
        ]))?;
        push(J::Obj(vec![
            ("ph".into(), J::str("M")),
            ("name".into(), J::str("thread_sort_index")),
            ("pid".into(), J::Int(0)),
            ("tid".into(), J::uint(rank as u64)),
            (
                "args".into(),
                J::Obj(vec![("sort_index".into(), J::uint(rank as u64))]),
            ),
        ]))?;

        let rank_events = tracer.events(rank);
        let (last_wall, last_virt) = rank_events
            .last()
            .map_or((0, 0), |e| (e.wall_ns, e.virt_ns));
        // Stack of open spans: (name, wall_ns, virt_ns, arg).
        let mut open: Vec<(&'static str, u64, u64, u64)> = Vec::new();

        let complete = |name: &str,
                        b_wall: u64,
                        b_virt: u64,
                        arg: u64,
                        e_wall: u64,
                        e_virt: u64,
                        term: bool| {
            let mut args = vec![
                ("virt_us".into(), us(b_virt)),
                ("virt_dur_us".into(), us(e_virt.saturating_sub(b_virt))),
            ];
            if arg != 0 {
                args.push(("arg".into(), J::uint(arg)));
            }
            if !term {
                args.push(("unterminated".into(), J::Bool(true)));
            }
            J::Obj(vec![
                ("ph".into(), J::str("X")),
                ("name".into(), J::str(name)),
                ("pid".into(), J::Int(0)),
                ("tid".into(), J::uint(rank as u64)),
                ("ts".into(), us(b_wall)),
                ("dur".into(), us(e_wall.saturating_sub(b_wall))),
                ("args".into(), J::Obj(args)),
            ])
        };

        for ev in &rank_events {
            match ev.kind {
                EventKind::Begin => open.push((ev.name, ev.wall_ns, ev.virt_ns, ev.arg)),
                EventKind::End => {
                    // Well-nested instrumentation means the matching span is
                    // on top; if ring wrap-around ate the Begin, pop nothing
                    // and emit a zero-length marker instead.
                    if let Some(pos) = open.iter().rposition(|(n, ..)| *n == ev.name) {
                        // Anything opened after the match lost its End to
                        // wrap-around; close it at this point.
                        while open.len() > pos + 1 {
                            let (n, bw, bv, a) = open.pop().unwrap();
                            push(complete(n, bw, bv, a, ev.wall_ns, ev.virt_ns, false))?;
                        }
                        let (n, bw, bv, a) = open.pop().unwrap();
                        push(complete(n, bw, bv, a, ev.wall_ns, ev.virt_ns, true))?;
                    } else {
                        push(complete(
                            ev.name, ev.wall_ns, ev.virt_ns, ev.arg, ev.wall_ns, ev.virt_ns, false,
                        ))?;
                    }
                }
                EventKind::Instant => {
                    let mut args = vec![("virt_us".into(), us(ev.virt_ns))];
                    if ev.arg != 0 {
                        args.push(("arg".into(), J::uint(ev.arg)));
                    }
                    push(J::Obj(vec![
                        ("ph".into(), J::str("i")),
                        ("s".into(), J::str("t")),
                        ("name".into(), J::str(ev.name)),
                        ("pid".into(), J::Int(0)),
                        ("tid".into(), J::uint(rank as u64)),
                        ("ts".into(), us(ev.wall_ns)),
                        ("args".into(), J::Obj(args)),
                    ]))?;
                }
                EventKind::FlowSend | EventKind::FlowRecv => {
                    // Cross-rank arrow halves: Perfetto pairs them on
                    // (cat, id, name), so both sides derive the display
                    // name from the same tag table. The id is emitted as
                    // a hex string — packed flow ids can exceed 2^53 and
                    // must not round through a JSON double.
                    let fname = tracer
                        .tag_name(ev.arg2)
                        .unwrap_or_else(|| ev.name.to_string());
                    let send = ev.kind == EventKind::FlowSend;
                    let mut obj = vec![("ph".into(), J::str(if send { "s" } else { "f" }))];
                    if !send {
                        // Bind to the enclosing slice (the dispatch span).
                        obj.push(("bp".into(), J::str("e")));
                    }
                    obj.extend([
                        ("cat".into(), J::str("flow")),
                        ("name".into(), J::str(&fname)),
                        ("id".into(), J::str(format!("{:016x}", ev.arg))),
                        ("pid".into(), J::Int(0)),
                        ("tid".into(), J::uint(rank as u64)),
                        ("ts".into(), us(ev.wall_ns)),
                        (
                            "args".into(),
                            J::Obj(vec![
                                ("virt_us".into(), us(ev.virt_ns)),
                                ("tag".into(), J::uint(ev.arg2)),
                            ]),
                        ),
                    ]);
                    push(J::Obj(obj))?;
                }
                EventKind::AsyncBegin | EventKind::AsyncEnd => {
                    // Nestable async span halves: Perfetto pairs them on
                    // (cat, id, name). The serving layer opens one per
                    // query at arrival and closes it at answer/shed, so a
                    // query's lifecycle shows as one span joining the
                    // dispatch flow arrows. Ids share the hex-string
                    // encoding with flow events (they reuse the same
                    // > 2^53 id namespace).
                    let begin = ev.kind == EventKind::AsyncBegin;
                    push(J::Obj(vec![
                        ("ph".into(), J::str(if begin { "b" } else { "e" })),
                        ("cat".into(), J::str("query_lifecycle")),
                        ("name".into(), J::str(ev.name)),
                        ("id".into(), J::str(format!("{:016x}", ev.arg))),
                        ("pid".into(), J::Int(0)),
                        ("tid".into(), J::uint(rank as u64)),
                        ("ts".into(), us(ev.wall_ns)),
                        (
                            "args".into(),
                            J::Obj(vec![("virt_us".into(), us(ev.virt_ns))]),
                        ),
                    ]))?;
                }
            }
        }
        // Spans still open at the end of the run.
        while let Some((n, bw, bv, a)) = open.pop() {
            push(complete(n, bw, bv, a, last_wall, last_virt, false))?;
        }
    }

    // Continuous-telemetry gauges become counter ("C") tracks. Series
    // points carry only virtual timestamps, so they live under their own
    // process (pid 1, labeled) instead of the wall-clock span timeline.
    let series = tracer.series_snapshot();
    if !series.is_empty() {
        push(J::Obj(vec![
            ("ph".into(), J::str("M")),
            ("name".into(), J::str("process_name")),
            ("pid".into(), J::Int(1)),
            ("tid".into(), J::Int(0)),
            (
                "args".into(),
                J::Obj(vec![("name".into(), J::str("telemetry (virtual time)"))]),
            ),
        ]))?;
    }
    for s in &series {
        let track = format!("{} r{}", s.name, s.rank);
        for p in &s.points {
            push(J::Obj(vec![
                ("ph".into(), J::str("C")),
                ("name".into(), J::str(&track)),
                ("pid".into(), J::Int(1)),
                ("tid".into(), J::uint(s.rank)),
                ("ts".into(), us(p.t_ns)),
                (
                    "args".into(),
                    J::Obj(vec![("value".into(), J::Num(p.value))]),
                ),
            ]))?;
        }
    }

    let dropped = tracer.dropped_events_per_rank();
    let other = J::Obj(vec![
        ("producer".into(), J::str("dnnd-repro obs")),
        ("dropped_events".into(), J::uint(dropped.iter().sum())),
        (
            "dropped_events_per_rank".into(),
            J::Arr(dropped.into_iter().map(J::uint).collect()),
        ),
        ("n_ranks".into(), J::uint(tracer.n_ranks() as u64)),
    ]);
    write!(out, "],\"displayTimeUnit\":\"ms\",\"otherData\":{other}}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue as J;

    fn text(t: &Tracer) -> String {
        let mut buf = Vec::new();
        write_chrome_trace(t, &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    fn chrome_trace(t: &Tracer) -> J {
        J::parse(&text(t)).unwrap()
    }

    fn spans_named<'a>(doc: &'a J, name: &str) -> Vec<&'a J> {
        doc.get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| {
                e.get("name").and_then(J::as_str) == Some(name)
                    && e.get("ph").and_then(J::as_str) == Some("X")
            })
            .collect()
    }

    #[test]
    fn matched_spans_become_complete_events() {
        let t = Tracer::new(2);
        t.begin(0, "outer", 0);
        t.begin_arg(0, "inner", 100, 5);
        t.end(0, "inner", 400);
        t.end(0, "outer", 500);
        t.instant(1, "flush", 200, 64);

        let doc = chrome_trace(&t);
        let inner = spans_named(&doc, "inner");
        assert_eq!(inner.len(), 1);
        let args = inner[0].get("args").unwrap();
        assert_eq!(args.get("virt_us").unwrap().as_f64().unwrap(), 0.1);
        assert_eq!(args.get("virt_dur_us").unwrap().as_f64().unwrap(), 0.3);
        assert_eq!(args.get("arg").unwrap().as_u64(), Some(5));
        assert!(args.get("unterminated").is_none());
        assert_eq!(spans_named(&doc, "outer").len(), 1);

        // The instant landed on rank 1's track.
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let inst: Vec<_> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(J::as_str) == Some("i"))
            .collect();
        assert_eq!(inst.len(), 1);
        assert_eq!(inst[0].get("tid").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn one_thread_name_track_per_rank() {
        let t = Tracer::new(3);
        let doc = chrome_trace(&t);
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let names: Vec<_> = evs
            .iter()
            .filter(|e| e.get("name").and_then(J::as_str) == Some("thread_name"))
            .map(|e| {
                e.get("args")
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(names, vec!["rank 0", "rank 1", "rank 2"]);
    }

    #[test]
    fn unterminated_span_is_flagged() {
        let t = Tracer::new(1);
        t.begin(0, "leaky", 0);
        t.instant(0, "tick", 10, 0);
        let doc = chrome_trace(&t);
        let leaky = spans_named(&doc, "leaky");
        assert_eq!(leaky.len(), 1);
        let args = leaky[0].get("args").unwrap();
        assert_eq!(args.get("unterminated").and_then(J::as_bool), Some(true));
        // Closed at the rank's last virtual time, not at zero.
        assert_eq!(args.get("virt_dur_us").and_then(J::as_f64), Some(0.01));
    }

    #[test]
    fn series_become_counter_events_on_virtual_timeline() {
        let t = Tracer::new(2);
        t.gauge(1, "send_buf_bytes", 10_000, 128.0);
        t.gauge(1, "send_buf_bytes", 20_000, 64.0);
        let doc = chrome_trace(&t);
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let counters: Vec<_> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(J::as_str) == Some("C"))
            .collect();
        assert_eq!(counters.len(), 2);
        assert_eq!(
            counters[0].get("name").and_then(J::as_str),
            Some("send_buf_bytes r1")
        );
        assert_eq!(counters[0].get("pid").unwrap().as_u64(), Some(1));
        assert_eq!(counters[0].get("ts").unwrap().as_f64(), Some(10.0));
        assert_eq!(
            counters[1]
                .get("args")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(64.0)
        );
    }

    #[test]
    fn flow_halves_pair_on_id_and_name() {
        let t = Tracer::new(2);
        t.name_tag(14, "Type 1");
        let id = (14u64 << 48) | 7;
        t.flow_send(0, "flow", 100, id, 14);
        t.flow_recv(1, "flow", 200, id, 14);
        t.flow_send(0, "flow", 300, 42, 99); // unnamed tag falls back
        let doc = chrome_trace(&t);
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let flows: Vec<_> = evs
            .iter()
            .filter(|e| e.get("cat").and_then(J::as_str) == Some("flow"))
            .collect();
        assert_eq!(flows.len(), 3);
        let s = flows
            .iter()
            .find(|e| {
                e.get("ph").and_then(J::as_str) == Some("s")
                    && e.get("tid").unwrap().as_u64() == Some(0)
                    && e.get("name").and_then(J::as_str) == Some("Type 1")
            })
            .expect("send half present");
        let f = flows
            .iter()
            .find(|e| e.get("ph").and_then(J::as_str) == Some("f"))
            .expect("recv half present");
        // Matching identity triple, and the recv half binds to its
        // enclosing slice.
        assert_eq!(s.get("id").unwrap().as_str(), f.get("id").unwrap().as_str());
        assert_eq!(
            s.get("name").unwrap().as_str(),
            f.get("name").unwrap().as_str()
        );
        assert_eq!(f.get("bp").and_then(J::as_str), Some("e"));
        assert_eq!(f.get("tid").unwrap().as_u64(), Some(1));
        // Ids are hex strings, immune to double rounding.
        assert_eq!(s.get("id").unwrap().as_str().unwrap().len(), 16);
        // The unnamed tag keeps the event's own name.
        assert!(flows
            .iter()
            .any(|e| e.get("name").and_then(J::as_str) == Some("flow")));
    }

    #[test]
    fn async_span_halves_pair_on_id_and_name() {
        let t = Tracer::new(1);
        let id = 0xFF51_0000_0000_0000u64 | 3;
        t.async_begin(0, "query", 100, id);
        t.async_end(0, "query", 900, id);
        let doc = chrome_trace(&t);
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let asyncs: Vec<_> = evs
            .iter()
            .filter(|e| e.get("cat").and_then(J::as_str) == Some("query_lifecycle"))
            .collect();
        assert_eq!(asyncs.len(), 2);
        let b = asyncs
            .iter()
            .find(|e| e.get("ph").and_then(J::as_str) == Some("b"))
            .expect("begin half present");
        let e = asyncs
            .iter()
            .find(|e| e.get("ph").and_then(J::as_str) == Some("e"))
            .expect("end half present");
        assert_eq!(b.get("id").unwrap().as_str(), e.get("id").unwrap().as_str());
        assert_eq!(b.get("id").unwrap().as_str().unwrap().len(), 16);
        assert_eq!(b.get("name").and_then(J::as_str), Some("query"));
    }

    #[test]
    fn export_parses_as_json() {
        let t = Tracer::new(2);
        t.begin(0, "a \"quoted\" name", 0);
        t.end(0, "a \"quoted\" name", 10);
        let doc = chrome_trace(&t);
        assert!(doc.get("traceEvents").is_some());
        let other = doc.get("otherData").unwrap();
        assert_eq!(other.get("dropped_events").unwrap().as_u64(), Some(0));
        // The streamed text is the document's own compact emission.
        assert_eq!(text(&t), doc.to_string());
    }

    #[test]
    fn overflow_is_counted_per_rank() {
        let t = Tracer::with_capacity(3, 2);
        for i in 0..5 {
            t.instant(1, "tick", i, 0);
        }
        t.instant(2, "tick", 0, 0);
        let doc = chrome_trace(&t);
        let other = doc.get("otherData").unwrap();
        assert_eq!(other.get("dropped_events").unwrap().as_u64(), Some(3));
        let per_rank: Vec<u64> = (other.get("dropped_events_per_rank").unwrap())
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_u64().unwrap())
            .collect();
        assert_eq!(per_rank, [0, 3, 0]);
    }
}

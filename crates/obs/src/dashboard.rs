//! Self-contained single-file HTML dashboard for a [`RunReport`].
//!
//! [`dashboard_html`] renders one report into a standalone page: summary
//! stat tiles, the virtual-time phase timeline, the rank×rank traffic
//! heatmap, the NN-Descent convergence curve, continuous-telemetry series
//! charts, fault counters, and histogram summaries. Everything is inline
//! (CSS + SVG, no scripts, no external assets), so the file can be opened
//! from a CI artifact or attached to an issue without a web server.

use crate::critical_path::CriticalPathSection;
use crate::report::{
    FaultSection, MatrixSection, QueryForensicsSection, RunReport, ServingSection, VdbSection,
};
use std::fmt::Write as _;

/// Chart palette: one color per rank track, cycled.
const RANK_COLORS: &[&str] = &[
    "#4c78a8", "#f58518", "#54a24b", "#e45756", "#72b7b2", "#b279a2", "#eeca3b", "#9d755d",
];

const COMPUTE_COLOR: &str = "#4c78a8";
const COMM_COLOR: &str = "#f58518";
const BARRIER_COLOR: &str = "#e45756";
const STALL_COLOR: &str = "#b279a2";
const RETRANS_COLOR: &str = "#e45756";
const COLLECTIVE_COLOR: &str = "#a7b4c2";

/// Render `report` as a complete standalone HTML document.
pub fn dashboard_html(report: &RunReport) -> String {
    let mut body = String::new();
    body.push_str(&header_html(report));
    body.push_str(&stat_tiles(report));
    body.push_str(&section(
        "timeline",
        "Phase timeline (virtual time)",
        &timeline_svg(report),
    ));
    if let Some(cp) = &report.critical_path {
        body.push_str(&section(
            "critical-path",
            "Critical path & straggler attribution",
            &critical_path_panel(cp),
        ));
    }
    if let Some(m) = &report.matrix {
        body.push_str(&section(
            "traffic-heatmap",
            "Rank × rank traffic heatmap",
            &heatmap_svg(m),
        ));
    }
    if !report.convergence.is_empty() {
        body.push_str(&section(
            "convergence",
            "Convergence (heap updates per iteration)",
            &convergence_svg(report),
        ));
    }
    if !report.series.is_empty() {
        body.push_str(&section(
            "telemetry",
            "Continuous telemetry (virtual-clock series)",
            &series_charts(report),
        ));
    }
    if let Some(s) = &report.serving {
        body.push_str(&section(
            "serving",
            "Online serving SLOs",
            &serving_panel(s),
        ));
    }
    if let Some(v) = &report.vdb {
        body.push_str(&section(
            "vdb",
            "Vector-DB namespaces & filtered search",
            &vdb_panel(v),
        ));
    }
    if let Some(q) = &report.query_forensics {
        body.push_str(&section(
            "query-forensics",
            "Per-query forensics (tail-sampled)",
            &forensics_panel(q),
        ));
    }
    if let Some(chart) = serving_sweep_chart(report) {
        body.push_str(&section(
            "throughput-latency",
            "Throughput vs p99 latency (offered-load sweep)",
            &chart,
        ));
    }
    if let Some(f) = &report.faults {
        body.push_str(&section(
            "faults",
            "Fault injection & reliable delivery",
            &fault_table(f),
        ));
    }
    if !report.histograms.is_empty() {
        body.push_str(&section("histograms", "Histograms", &hist_table(report)));
    }
    body.push_str(&section("parameters", "Parameters", &param_table(report)));

    format!(
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <title>{} run report</title>\n<style>{}</style>\n</head>\n<body>\n\
         <main>{}</main>\n</body>\n</html>\n",
        esc(&report.binary),
        STYLE,
        body
    )
}

const STYLE: &str = "\
body{font:14px/1.45 system-ui,sans-serif;margin:0;background:#f6f7f9;color:#1c2733}\
main{max-width:980px;margin:0 auto;padding:24px}\
h1{font-size:22px;margin:0 0 4px}h2{font-size:16px;margin:0 0 10px}\
.sub{color:#5b6b7b;margin:0 0 18px}\
section{background:#fff;border:1px solid #e3e8ee;border-radius:8px;padding:16px;margin:0 0 16px}\
.tiles{display:flex;flex-wrap:wrap;gap:10px;margin:0 0 16px}\
.tile{background:#fff;border:1px solid #e3e8ee;border-radius:8px;padding:10px 14px;min-width:110px}\
.tile b{display:block;font-size:18px}.tile span{color:#5b6b7b;font-size:12px}\
table{border-collapse:collapse;width:100%}\
th,td{text-align:right;padding:4px 10px;border-bottom:1px solid #eef1f4;font-variant-numeric:tabular-nums}\
th{color:#5b6b7b;font-weight:600}td:first-child,th:first-child{text-align:left}\
svg text{font:11px system-ui,sans-serif;fill:#3c4a59}\
.legend{color:#5b6b7b;font-size:12px;margin:8px 0 0}\
.swatch{display:inline-block;width:10px;height:10px;border-radius:2px;margin:0 4px 0 10px}\
.badge{display:inline-block;background:#c0392b;color:#fff;border-radius:10px;\
padding:2px 10px;font-size:12px;font-weight:600;margin-left:8px}";

fn section(id: &str, title: &str, inner: &str) -> String {
    format!(
        "<section id=\"{id}\">\n<h2>{}</h2>\n{inner}\n</section>\n",
        esc(title)
    )
}

fn header_html(r: &RunReport) -> String {
    let faulty = r
        .faults
        .as_ref()
        .map(|f| format!(" · fault profile {} (seed {})", esc(&f.profile), f.sim_seed))
        .unwrap_or_default();
    // Satellite: a lossy trace must be impossible to miss. The badge
    // names the overflowing rank(s), not just the total.
    let dropped = if r.dropped_spans > 0 {
        let per_rank: Vec<String> = r
            .dropped_spans_per_rank
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d > 0)
            .map(|(rank, &d)| format!("r{rank}:{}", group_u64(d)))
            .collect();
        let detail = if per_rank.is_empty() {
            String::new()
        } else {
            format!(" ({})", per_rank.join(" "))
        };
        format!(
            "<span class=\"badge\">{} dropped trace spans{}</span>",
            group_u64(r.dropped_spans),
            esc(&detail)
        )
    } else {
        String::new()
    };
    format!(
        "<h1>{} run report</h1>\n<p class=\"sub\">{} ranks{}{}</p>\n",
        esc(&r.binary),
        r.n_ranks,
        faulty,
        dropped
    )
}

fn stat_tiles(r: &RunReport) -> String {
    let mut tiles: Vec<(String, String)> = vec![
        ("virtual time".into(), format!("{:.4} s", r.sim_secs)),
        ("wall time".into(), format!("{:.3} s", r.wall_secs)),
        ("iterations".into(), r.iterations.to_string()),
        ("distance evals".into(), group_u64(r.distance_evals)),
        ("messages".into(), group_u64(r.total_count)),
        ("traffic".into(), human_bytes(r.total_bytes)),
    ];
    if let Some(recall) = r.recall {
        tiles.push(("recall".into(), format!("{:.4}", recall)));
    }
    for (k, v) in &r.extra {
        // Sweep points feed the throughput-latency chart, not the tiles.
        if k.starts_with("sweep_") {
            continue;
        }
        tiles.push((k.replace('_', " "), trim_float(*v)));
    }
    tiles_html(&tiles)
}

/// One row of stat tiles: `(label, value)` pairs, value on top.
fn tiles_html<L: AsRef<str>>(tiles: &[(L, String)]) -> String {
    let mut out = String::from("<div class=\"tiles\">\n");
    for (label, value) in tiles {
        let _ = writeln!(
            out,
            "<div class=\"tile\"><b>{}</b><span>{}</span></div>",
            esc(value),
            esc(label.as_ref())
        );
    }
    out.push_str("</div>\n");
    out
}

/// Stacked compute/comm/barrier bar per phase along the virtual timeline.
fn timeline_svg(r: &RunReport) -> String {
    let (w, h, pad_l, pad_b) = (920.0_f64, 120.0_f64, 10.0_f64, 24.0_f64);
    let total: f64 = r
        .phases
        .iter()
        .map(|p| p.compute_secs + p.comm_secs + p.barrier_secs)
        .sum();
    if r.phases.is_empty() || total <= 0.0 {
        return "<p class=\"legend\">no phase records</p>".into();
    }
    let band_h = h - pad_b - 20.0;
    let scale = (w - 2.0 * pad_l) / total;
    let mut out = format!("<svg viewBox=\"0 0 {w} {h}\" width=\"100%\" role=\"img\">\n");
    let mut x = pad_l;
    for p in &r.phases {
        for (dur, color, kind) in [
            (p.compute_secs, COMPUTE_COLOR, "compute"),
            (p.comm_secs, COMM_COLOR, "comm"),
            (p.barrier_secs, BARRIER_COLOR, "barrier"),
        ] {
            if dur <= 0.0 {
                continue;
            }
            let seg = dur * scale;
            let _ = writeln!(
                out,
                "<rect x=\"{:.2}\" y=\"20\" width=\"{:.2}\" height=\"{:.0}\" fill=\"{}\">\
                 <title>phase {}: {} {:.6} s · {} msgs · {}</title></rect>",
                x,
                seg.max(0.2),
                band_h,
                color,
                p.index,
                kind,
                dur,
                p.msgs,
                human_bytes(p.bytes)
            );
            x += seg;
        }
    }
    let _ = write!(
        out,
        "<text x=\"{pad_l}\" y=\"12\">0 s</text>\
         <text x=\"{:.1}\" y=\"12\" text-anchor=\"end\">{:.4} s of modeled virtual time, {} phases</text>\n</svg>\n",
        w - pad_l,
        total,
        r.phases.len()
    );
    out.push_str(&format!(
        "<p class=\"legend\"><span class=\"swatch\" style=\"background:{COMPUTE_COLOR}\"></span>compute\
         <span class=\"swatch\" style=\"background:{COMM_COLOR}\"></span>communication\
         <span class=\"swatch\" style=\"background:{BARRIER_COLOR}\"></span>barrier wait</p>"
    ));
    out
}

/// Summary tiles, the per-phase attribution lane, and per-rank slack bars
/// of the happens-before critical-path analysis.
fn critical_path_panel(cp: &CriticalPathSection) -> String {
    let total = cp.critical_path_ns.max(1) as f64;
    let pct = |ns: u64| format!("{:.1}%", ns as f64 / total * 100.0);
    let tiles: &[(&str, String)] = &[
        (
            "critical path",
            format!("{:.4} s", cp.critical_path_ns as f64 / 1e9),
        ),
        ("compute", pct(cp.compute_ns)),
        ("communication", pct(cp.comm_ns)),
        ("stall", pct(cp.stall_ns)),
        ("retransmit", pct(cp.retransmit_ns)),
        ("collectives", pct(cp.collective_ns)),
        ("straggler score", format!("{:.3}", cp.straggler_score)),
    ];
    let mut out = tiles_html(tiles);
    out.push_str(&critical_lane_svg(cp));
    out.push_str(&slack_bars_svg(cp));
    out
}

/// The critical-path lane: one stacked bar per phase, segmented by the
/// exact attribution buckets, with the collective residue appended at the
/// end. Segment widths are proportional to virtual nanoseconds, so the
/// lane spans the whole critical path.
fn critical_lane_svg(cp: &CriticalPathSection) -> String {
    let (w, h, pad_l) = (920.0_f64, 96.0_f64, 10.0_f64);
    if cp.critical_path_ns == 0 {
        return "<p class=\"legend\">empty critical path</p>".into();
    }
    let band_h = h - 40.0;
    let scale = (w - 2.0 * pad_l) / cp.critical_path_ns as f64;
    let mut out = format!("<svg viewBox=\"0 0 {w} {h}\" width=\"100%\" role=\"img\">\n");
    let mut x = pad_l;
    for p in &cp.phase_attribution {
        for (ns, color, kind) in [
            (p.compute_ns, COMPUTE_COLOR, "compute"),
            (p.comm_ns, COMM_COLOR, "communication"),
            (p.retransmit_ns, RETRANS_COLOR, "retransmit"),
            (p.stall_ns, STALL_COLOR, "stall"),
        ] {
            if ns == 0 {
                continue;
            }
            let seg = ns as f64 * scale;
            let _ = writeln!(
                out,
                "<rect x=\"{:.2}\" y=\"20\" width=\"{:.2}\" height=\"{:.0}\" fill=\"{}\">\
                 <title>phase {}: {} {:.3} ms · critical rank {}</title></rect>",
                x,
                seg.max(0.2),
                band_h,
                color,
                p.index,
                kind,
                ns as f64 / 1e6,
                p.critical_rank
            );
            x += seg;
        }
    }
    if cp.collective_ns > 0 {
        let seg = cp.collective_ns as f64 * scale;
        let _ = writeln!(
            out,
            "<rect x=\"{:.2}\" y=\"20\" width=\"{:.2}\" height=\"{:.0}\" fill=\"{COLLECTIVE_COLOR}\">\
             <title>collectives: {:.3} ms</title></rect>",
            x,
            seg.max(0.2),
            band_h,
            cp.collective_ns as f64 / 1e6
        );
    }
    let _ = write!(
        out,
        "<text x=\"{pad_l}\" y=\"12\">0 s</text>\
         <text x=\"{:.1}\" y=\"12\" text-anchor=\"end\">{:.4} s critical path, {} phases</text>\n</svg>\n",
        w - pad_l,
        cp.critical_path_ns as f64 / 1e9,
        cp.phases
    );
    out.push_str(&format!(
        "<p class=\"legend\"><span class=\"swatch\" style=\"background:{COMPUTE_COLOR}\"></span>compute\
         <span class=\"swatch\" style=\"background:{COMM_COLOR}\"></span>communication\
         <span class=\"swatch\" style=\"background:{RETRANS_COLOR}\"></span>retransmit\
         <span class=\"swatch\" style=\"background:{STALL_COLOR}\"></span>stall\
         <span class=\"swatch\" style=\"background:{COLLECTIVE_COLOR}\"></span>collectives</p>"
    ));
    out
}

/// Horizontal per-rank slack bars: how long each rank sat at barriers
/// waiting for the per-phase critical rank, plus how often the rank was
/// itself the straggler.
fn slack_bars_svg(cp: &CriticalPathSection) -> String {
    let n = cp.rank_slack_ns.len();
    if n == 0 {
        return String::new();
    }
    let max_slack = cp.rank_slack_ns.iter().copied().fold(0.0_f64, f64::max);
    let (pad_l, row_h, bar_w) = (58.0_f64, 18.0_f64, 830.0_f64);
    let h = 16.0 + row_h * n as f64;
    let mut out = format!(
        "<h2 style=\"margin-top:14px\">Per-rank barrier slack</h2>\n\
         <svg viewBox=\"0 0 920 {h:.0}\" width=\"100%\" role=\"img\">\n"
    );
    for (rank, &slack) in cp.rank_slack_ns.iter().enumerate() {
        let y = 8.0 + row_h * rank as f64;
        let len = if max_slack > 0.0 {
            bar_w * slack / max_slack
        } else {
            0.0
        };
        let crit = cp.rank_critical_phases.get(rank).copied().unwrap_or(0);
        let _ = writeln!(
            out,
            "<text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">rank {rank}</text>\
             <rect x=\"{pad_l}\" y=\"{:.1}\" width=\"{:.2}\" height=\"{:.0}\" fill=\"{}\">\
             <title>rank {rank}: {:.3} ms slack · critical in {crit} phase(s)</title></rect>",
            pad_l - 6.0,
            y + row_h - 6.0,
            y,
            len.max(0.5),
            row_h - 4.0,
            RANK_COLORS[rank % RANK_COLORS.len()],
            slack / 1e6
        );
    }
    out.push_str("</svg>\n<p class=\"legend\">bar length ∝ virtual time spent waiting at barriers for the phase's straggler</p>\n");
    out
}

/// Rank×rank heatmap of bytes (summed over tags), diagonal included.
fn heatmap_svg(m: &MatrixSection) -> String {
    let n = m.n_ranks as usize;
    if n == 0 {
        return "<p class=\"legend\">empty matrix</p>".into();
    }
    let counts = m.total_counts();
    let bytes = m.total_bytes();
    let max = bytes.iter().copied().max().unwrap_or(0).max(1);
    let cell = (420.0 / n as f64).min(64.0);
    let (pad_l, pad_t) = (58.0, 30.0);
    let w = pad_l + cell * n as f64 + 10.0;
    let h = pad_t + cell * n as f64 + 10.0;
    let mut out = format!("<svg viewBox=\"0 0 {w:.0} {h:.0}\" role=\"img\">\n");
    let _ = writeln!(
        out,
        "<text x=\"{:.1}\" y=\"12\" text-anchor=\"middle\">destination rank →</text>\
         <text x=\"12\" y=\"{:.1}\" transform=\"rotate(-90 12 {:.1})\" text-anchor=\"middle\">source rank →</text>",
        pad_l + cell * n as f64 / 2.0,
        pad_t + cell * n as f64 / 2.0,
        pad_t + cell * n as f64 / 2.0,
    );
    for src in 0..n {
        let _ = writeln!(
            out,
            "<text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">{src}</text>",
            pad_l - 6.0,
            pad_t + cell * (src as f64 + 0.5) + 4.0
        );
        let _ = writeln!(
            out,
            "<text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"middle\">{src}</text>",
            pad_l + cell * (src as f64 + 0.5),
            pad_t - 6.0
        );
        for dest in 0..n {
            let b = bytes[src * n + dest];
            let c = counts[src * n + dest];
            let _ = writeln!(
                out,
                "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{:.1}\" height=\"{:.1}\" \
                 fill=\"{}\" stroke=\"#fff\">\
                 <title>rank {src} → rank {dest}: {} msgs, {}</title></rect>",
                pad_l + cell * dest as f64,
                pad_t + cell * src as f64,
                cell,
                cell,
                heat_color(b as f64 / max as f64),
                group_u64(c),
                human_bytes(b)
            );
        }
    }
    out.push_str("</svg>\n");
    let _ = write!(
        out,
        "<p class=\"legend\">cell shade ∝ bytes sent (max {} on one edge); diagonal = rank-local delivery</p>",
        human_bytes(max)
    );
    out
}

fn convergence_svg(r: &RunReport) -> String {
    let pts: Vec<(f64, f64)> = r
        .convergence
        .iter()
        .map(|c| (c.iteration as f64, (1.0 + c.updates as f64).log10()))
        .collect();
    let max_updates = r.convergence.iter().map(|c| c.updates).max().unwrap_or(0);
    line_chart(
        &pts,
        "iteration",
        &format!(
            "log10(1 + updates), peak {} updates",
            group_u64(max_updates)
        ),
        RANK_COLORS[0],
    )
}

/// One small line chart per series name, rank tracks overlaid.
fn series_charts(r: &RunReport) -> String {
    let mut names: Vec<&str> = r.series.iter().map(|s| s.name.as_str()).collect();
    names.dedup(); // series are sorted by (name, rank)
    let mut out = String::new();
    for name in names {
        let tracks: Vec<_> = r.series.iter().filter(|s| s.name == name).collect();
        let mut polys = String::new();
        let mut legend = String::new();
        // Shared scales across the ranks of one series.
        let all: Vec<(f64, f64)> = tracks
            .iter()
            .flat_map(|s| s.points.iter().map(|p| (p.t_ns as f64 / 1e3, p.value)))
            .collect();
        let (sx, sy) = match scales(&all) {
            Some(s) => s,
            None => continue,
        };
        for s in &tracks {
            let color = RANK_COLORS[s.rank as usize % RANK_COLORS.len()];
            let pts: Vec<(f64, f64)> = s
                .points
                .iter()
                .map(|p| (p.t_ns as f64 / 1e3, p.value))
                .collect();
            polys.push_str(&polyline(&pts, sx, sy, color));
            let _ = write!(
                legend,
                "<span class=\"swatch\" style=\"background:{color}\"></span>rank {}",
                s.rank
            );
        }
        let _ = write!(
            out,
            "<h2 style=\"margin-top:14px\">{}</h2>\n{}\n<p class=\"legend\">x: virtual time (µs){legend}</p>\n",
            esc(name),
            chart_frame(&polys, sx, sy)
        );
    }
    out
}

/// SLO tiles, the exact latency histogram, and the outcome breakdown of an
/// online serving run.
fn serving_panel(s: &ServingSection) -> String {
    let mut tiles: Vec<(&str, String)> = vec![
        ("offered", group_u64(s.offered)),
        ("answered", group_u64(s.answered)),
        ("cache hits", group_u64(s.cache_hits)),
        ("shed", group_u64(s.shed_deadline + s.shed_overload)),
        ("p50 latency", format!("{:.2} ms", s.p50_ns as f64 / 1e6)),
        ("p95 latency", format!("{:.2} ms", s.p95_ns as f64 / 1e6)),
        ("p99 latency", format!("{:.2} ms", s.p99_ns as f64 / 1e6)),
    ];
    // Client-perceived percentiles, once any query has been answered.
    if !s.client_hist.is_empty() {
        tiles.push((
            "client p50",
            format!("{:.2} ms", s.client_p50_ns as f64 / 1e6),
        ));
        tiles.push((
            "client p99",
            format!("{:.2} ms", s.client_p99_ns as f64 / 1e6),
        ));
    }
    let mut out = tiles_html(&tiles);
    out.push_str(&latency_hist_svg(s));
    let rows: &[(&str, u64)] = &[
        ("offered (open-loop arrivals)", s.offered),
        ("admitted to queue", s.admitted),
        ("answered by search", s.answered),
        ("answered from cache", s.cache_hits),
        ("shed: deadline expired", s.shed_deadline),
        ("shed: queue overload", s.shed_overload),
        ("answered degraded", s.degraded),
        ("cache evictions", s.cache_evictions),
        ("max queue depth", s.max_queue_depth),
        ("serving slots", s.slots),
    ];
    let mut table = format!(
        "<table><tr><th>counter</th><th>value</th></tr>\
         <tr><td>serve seed</td><td>{}</td></tr>\
         <tr><td>slot duration</td><td>{:.3} ms</td></tr>\
         <tr><td>mean latency</td><td>{:.3} ms</td></tr>\
         <tr><td>result digest</td><td>{:016x}</td></tr>",
        s.serve_seed,
        s.slot_ns as f64 / 1e6,
        s.mean_latency_ns / 1e6,
        s.result_digest
    );
    for (name, v) in rows {
        let _ = write!(table, "<tr><td>{name}</td><td>{}</td></tr>", group_u64(*v));
    }
    table.push_str("</table>");
    out.push_str(&table);
    out.push_str(&tenant_slo_table(s));
    out
}

/// Per-tenant SLO table; empty string when the workload
/// declared no tenant classes.
fn tenant_slo_table(s: &ServingSection) -> String {
    if s.tenants.is_empty() {
        return String::new();
    }
    let mut out = String::from(
        "<h2 style=\"margin-top:14px\">Tenant SLOs</h2>\n\
         <table><tr><th>class</th><th>share</th><th>offered</th>\
         <th>answered</th><th>cache hits</th><th>shed over</th>\
         <th>shed ddl</th><th>degraded</th><th>SLO</th>\
         <th>p50</th><th>p99</th></tr>",
    );
    for t in &s.tenants {
        let _ = write!(
            out,
            "<tr><td>{}</td><td>{}%</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{}</td><td>{}</td><td>{:.1}%</td>\
             <td>{:.2} ms</td><td>{:.2} ms</td></tr>",
            esc(&t.name),
            t.share_pct,
            group_u64(t.offered),
            group_u64(t.answered),
            group_u64(t.cache_hits),
            group_u64(t.shed_overload),
            group_u64(t.shed_deadline),
            group_u64(t.degraded),
            t.slo_attainment * 100.0,
            t.p50_ns as f64 / 1e6,
            t.p99_ns as f64 / 1e6,
        );
    }
    out.push_str("</table>\n<p class=\"legend\">classes in priority (declaration) order; SLO = answered ∪ cache hits over offered</p>");
    out
}

/// Bar chart of the exact answered-latency histogram (latency in slots).
fn latency_hist_svg(s: &ServingSection) -> String {
    if s.latency_hist.is_empty() {
        return "<p class=\"legend\">no answered queries</p>".into();
    }
    let max_count = s
        .latency_hist
        .iter()
        .map(|&(_, c)| c)
        .max()
        .unwrap_or(1)
        .max(1);
    let max_slots = s.latency_hist.iter().map(|&(b, _)| b).max().unwrap_or(1);
    let n_bars = (max_slots + 1) as f64;
    let bar_w = ((CHART_W - CHART_PAD - 10.0) / n_bars).min(40.0);
    let band_h = CHART_H - 32.0;
    let mut out =
        format!("<svg viewBox=\"0 0 {CHART_W} {CHART_H}\" width=\"100%\" role=\"img\">\n");
    for &(slots, count) in &s.latency_hist {
        let h = band_h * count as f64 / max_count as f64;
        let _ = writeln!(
            out,
            "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{:.1}\" height=\"{:.1}\" fill=\"{}\">\
             <title>{} slot(s): {} queries ({:.3} ms)</title></rect>",
            CHART_PAD + slots as f64 * bar_w,
            10.0 + band_h - h,
            (bar_w - 1.0).max(0.5),
            h.max(0.5),
            RANK_COLORS[0],
            slots,
            group_u64(count),
            slots as f64 * s.slot_ns as f64 / 1e6,
        );
    }
    let _ = write!(
        out,
        "<text x=\"{CHART_PAD}\" y=\"{}\">0 slots</text>\
         <text x=\"{:.1}\" y=\"{}\" text-anchor=\"end\">{} slots</text>\n</svg>\n\
         <p class=\"legend\">answered-query latency histogram (exact, bucketed by serving slot; tallest bar {} queries)</p>",
        CHART_H - 8.0,
        CHART_W - 10.0,
        CHART_H - 8.0,
        max_slots,
        group_u64(max_count)
    );
    out
}

/// Per-namespace counters, mutation totals, and the filtered-query
/// selectivity decile chart of the vector-DB product layer.
fn vdb_panel(v: &VdbSection) -> String {
    let tiles: &[(&str, String)] = &[
        ("namespaces", group_u64(v.namespaces.len() as u64)),
        ("filtered queries", group_u64(v.filtered_queries)),
        ("cache-suppressed ids", group_u64(v.cache_suppressed_ids)),
    ];
    let mut out = tiles_html(tiles);
    out.push_str(
        "<table><tr><th>namespace</th><th>points</th><th>live</th>\
         <th>tombstones</th><th>dead</th><th>epoch</th><th>inserts</th>\
         <th>deletes</th><th>compactions</th></tr>",
    );
    for ns in &v.namespaces {
        let _ = write!(
            out,
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            esc(&ns.name),
            group_u64(ns.points),
            group_u64(ns.live),
            group_u64(ns.tombstones),
            group_u64(ns.dead),
            group_u64(ns.epoch),
            group_u64(ns.inserts),
            group_u64(ns.deletes),
            group_u64(ns.compactions),
        );
    }
    out.push_str("</table>\n");
    if !v.selectivity_hist.is_empty() {
        let max_count = v
            .selectivity_hist
            .iter()
            .map(|&(_, c)| c)
            .max()
            .unwrap_or(1)
            .max(1);
        let bar_w = (CHART_W - CHART_PAD - 10.0) / 10.0;
        let band_h = CHART_H - 32.0;
        let _ = writeln!(
            out,
            "<svg viewBox=\"0 0 {CHART_W} {CHART_H}\" width=\"100%\" role=\"img\">"
        );
        for &(decile, count) in &v.selectivity_hist {
            let h = band_h * count as f64 / max_count as f64;
            let _ = writeln!(
                out,
                "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{:.1}\" height=\"{:.1}\" fill=\"{}\">\
                 <title>{}–{}% selective: {} queries</title></rect>",
                CHART_PAD + decile as f64 * bar_w,
                10.0 + band_h - h,
                (bar_w - 1.0).max(0.5),
                h.max(0.5),
                RANK_COLORS[2],
                decile * 10,
                (decile + 1) * 10,
                group_u64(count),
            );
        }
        let _ = write!(
            out,
            "<text x=\"{CHART_PAD}\" y=\"{}\">0%</text>\
             <text x=\"{:.1}\" y=\"{}\" text-anchor=\"end\">100%</text>\n</svg>\n\
             <p class=\"legend\">filtered-query selectivity (fraction of the collection \
             each query's mask admits, by decile)</p>",
            CHART_H - 8.0,
            CHART_W - 10.0,
            CHART_H - 8.0,
        );
    }
    out
}

/// Palette for the five waterfall stages (admission, batch wait,
/// dispatch, search, response), in pipeline order.
const STAGE_COLORS: &[&str] = &["#a7b4c2", "#b279a2", "#f58518", "#4c78a8", "#54a24b"];

/// Sampler tiles, the mean stage-latency waterfall, and the exemplar
/// table of the per-query forensics section.
fn forensics_panel(q: &QueryForensicsSection) -> String {
    let tiles: &[(&str, String)] = &[
        ("queries profiled", group_u64(q.considered)),
        ("retained", group_u64(q.retained)),
        ("slowest-per-window", group_u64(q.retained_slow)),
        ("exemplars", group_u64(q.retained_exemplar)),
        (
            "sampler",
            format!("top {} / {} slots", q.slow_n, q.window_slots),
        ),
        ("digest", format!("{:016x}", q.digest)),
    ];
    let mut out = tiles_html(tiles);
    out.push_str(&waterfall_svg(q));
    out.push_str(&exemplar_table(q));
    out
}

/// One stacked horizontal bar: the mean per-stage latency over *all*
/// profiled queries (the histograms are exact, not sampled), so the bar
/// is the average query's waterfall and its total length is the mean
/// end-to-end latency in slots.
fn waterfall_svg(q: &QueryForensicsSection) -> String {
    // (stage, mean slots, max slots) from the exact histograms.
    let stats: Vec<(&str, f64, u64)> = q
        .stage_hists
        .iter()
        .map(|(name, buckets)| {
            let count: u64 = buckets.iter().map(|&(_, c)| c).sum();
            let sum: u64 = buckets.iter().map(|&(s, c)| s * c).sum();
            let max = buckets.iter().map(|&(s, _)| s).max().unwrap_or(0);
            let mean = if count > 0 {
                sum as f64 / count as f64
            } else {
                0.0
            };
            (name.as_str(), mean, max)
        })
        .collect();
    let total_mean: f64 = stats.iter().map(|&(_, m, _)| m).sum();
    if total_mean <= 0.0 {
        return "<p class=\"legend\">all stages zero (every query answered instantly)</p>".into();
    }
    let (w, h, pad_l) = (920.0_f64, 72.0_f64, 10.0_f64);
    let scale = (w - 2.0 * pad_l) / total_mean;
    let mut out = format!("<svg viewBox=\"0 0 {w} {h}\" width=\"100%\" role=\"img\">\n");
    let mut x = pad_l;
    let mut legend = String::new();
    for (i, &(name, mean, max)) in stats.iter().enumerate() {
        let color = STAGE_COLORS[i % STAGE_COLORS.len()];
        let _ = write!(
            legend,
            "<span class=\"swatch\" style=\"background:{color}\"></span>{}",
            esc(name)
        );
        if mean <= 0.0 {
            continue;
        }
        let seg = mean * scale;
        let _ = writeln!(
            out,
            "<rect x=\"{:.2}\" y=\"20\" width=\"{:.2}\" height=\"32\" fill=\"{}\">\
             <title>{}: mean {:.3} slots, max {} slots</title></rect>",
            x,
            seg.max(0.2),
            color,
            esc(name),
            mean,
            max
        );
        x += seg;
    }
    let _ = write!(
        out,
        "<text x=\"{pad_l}\" y=\"12\">0 slots</text>\
         <text x=\"{:.1}\" y=\"12\" text-anchor=\"end\">mean end-to-end {:.3} slots</text>\n</svg>\n",
        w - pad_l,
        total_mean
    );
    let _ = write!(
        out,
        "<p class=\"legend\">mean stage-latency waterfall over all {} profiled queries{legend}</p>",
        group_u64(q.considered)
    );
    out
}

/// Exemplar rows are capped so a pathological run cannot balloon the
/// dashboard; the legend reports any truncation.
const MAX_EXEMPLAR_ROWS: usize = 40;

fn exemplar_table(q: &QueryForensicsSection) -> String {
    if q.exemplars.is_empty() {
        return "<p class=\"legend\">no exemplars retained</p>".into();
    }
    let mut out = String::from(
        "<h2 style=\"margin-top:14px\">Sampled exemplars</h2>\n\
         <table><tr><th>idx</th><th>pool</th><th>tenant</th><th>verdict</th><th>why</th>\
         <th>lvl</th><th>arrived</th><th>wait</th><th>dispatch</th><th>search</th>\
         <th>latency</th><th>expansions</th><th>dist evals</th><th>miss</th></tr>",
    );
    for e in q.exemplars.iter().take(MAX_EXEMPLAR_ROWS) {
        let _ = write!(
            out,
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{}</td><td>{}</td></tr>",
            e.idx,
            e.pool_id,
            e.tenant,
            esc(&e.verdict),
            esc(&e.why),
            e.degrade_level,
            e.arrived_slot,
            e.batch_wait_slots,
            e.dispatch_slots,
            e.search_slots,
            e.latency_slots,
            group_u64(e.expansions),
            group_u64(e.dist_evals),
            if e.deadline_miss { "✗" } else { "" },
        );
    }
    out.push_str("</table>");
    if q.exemplars.len() > MAX_EXEMPLAR_ROWS {
        let _ = write!(
            out,
            "<p class=\"legend\">showing {MAX_EXEMPLAR_ROWS} of {} exemplars (full set in the JSON report and slow-query log)</p>",
            q.exemplars.len()
        );
    }
    out
}

/// Throughput-vs-p99 curve from an offered-load sweep. The bench serve
/// driver records one `sweep_qps_<i>` / `sweep_p99_ms_<i>` pair per load
/// point in `extra`; render when at least two complete pairs exist.
fn serving_sweep_chart(r: &RunReport) -> Option<String> {
    let lookup =
        |key: &str| -> Option<f64> { r.extra.iter().find(|(k, _)| k == key).map(|&(_, v)| v) };
    let mut pts = Vec::new();
    for i in 0.. {
        match (
            lookup(&format!("sweep_qps_{i}")),
            lookup(&format!("sweep_p99_ms_{i}")),
        ) {
            (Some(qps), Some(p99)) => pts.push((qps, p99)),
            _ => break,
        }
    }
    if pts.len() < 2 {
        return None;
    }
    Some(line_chart(
        &pts,
        "offered load (queries/s)",
        "p99 latency of answered queries (ms)",
        RANK_COLORS[3],
    ))
}

fn fault_table(f: &FaultSection) -> String {
    let rows: &[(&str, u64)] = &[
        ("messages dropped", f.dropped),
        ("messages duplicated", f.duplicated),
        ("messages delayed", f.delayed),
        ("rank stalls", f.stalls),
        ("jittered flushes", f.jittered_flushes),
        ("retransmits", f.retransmits),
        ("dedup discards", f.dedup_discards),
        ("forced deliveries", f.forced_deliveries),
    ];
    let mut out = format!(
        "<table><tr><th>counter</th><th>value</th></tr>\
         <tr><td>profile</td><td>{} (sim seed {})</td></tr>",
        esc(&f.profile),
        f.sim_seed
    );
    for (name, v) in rows {
        let _ = write!(out, "<tr><td>{name}</td><td>{}</td></tr>", group_u64(*v));
    }
    out.push_str("</table>");
    out
}

fn hist_table(r: &RunReport) -> String {
    let mut out = String::from(
        "<table><tr><th>histogram</th><th>count</th><th>mean</th><th>min</th>\
         <th>p50</th><th>p95</th><th>p99</th><th>max</th></tr>",
    );
    for h in &r.histograms {
        let _ = write!(
            out,
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            esc(&h.name),
            group_u64(h.count),
            trim_float(h.mean),
            h.min,
            h.p50,
            h.p95,
            h.p99,
            h.max
        );
    }
    out.push_str("</table>");
    out
}

fn param_table(r: &RunReport) -> String {
    let mut out = String::from("<table><tr><th>parameter</th><th>value</th></tr>");
    for (k, v) in &r.params {
        let _ = write!(out, "<tr><td>{}</td><td>{}</td></tr>", esc(k), esc(v));
    }
    out.push_str("</table>");
    out
}

// ---- chart plumbing ------------------------------------------------------

const CHART_W: f64 = 920.0;
const CHART_H: f64 = 160.0;
const CHART_PAD: f64 = 40.0;

/// Linear data→pixel scale for one axis.
#[derive(Clone, Copy)]
struct Scale {
    lo: f64,
    hi: f64,
    px_lo: f64,
    px_hi: f64,
}

impl Scale {
    fn apply(&self, v: f64) -> f64 {
        let span = (self.hi - self.lo).max(1e-12);
        self.px_lo + (v - self.lo) / span * (self.px_hi - self.px_lo)
    }
}

fn scales(points: &[(f64, f64)]) -> Option<(Scale, Scale)> {
    let (mut x_lo, mut x_hi, mut y_lo, mut y_hi) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for &(x, y) in points {
        x_lo = x_lo.min(x);
        x_hi = x_hi.max(x);
        y_lo = y_lo.min(y);
        y_hi = y_hi.max(y);
    }
    if points.is_empty() {
        return None;
    }
    y_lo = y_lo.min(0.0); // gauges read best anchored at zero
    Some((
        Scale {
            lo: x_lo,
            hi: x_hi,
            px_lo: CHART_PAD,
            px_hi: CHART_W - 10.0,
        },
        Scale {
            lo: y_lo,
            hi: y_hi,
            px_lo: CHART_H - 22.0,
            px_hi: 10.0,
        },
    ))
}

fn polyline(points: &[(f64, f64)], sx: Scale, sy: Scale, color: &str) -> String {
    if points.len() == 1 {
        let (x, y) = points[0];
        return format!(
            "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"2.5\" fill=\"{color}\"/>\n",
            sx.apply(x),
            sy.apply(y)
        );
    }
    let coords: Vec<String> = points
        .iter()
        .map(|&(x, y)| format!("{:.1},{:.1}", sx.apply(x), sy.apply(y)))
        .collect();
    format!(
        "<polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\"/>\n",
        coords.join(" ")
    )
}

fn chart_frame(inner: &str, sx: Scale, sy: Scale) -> String {
    format!(
        "<svg viewBox=\"0 0 {CHART_W} {CHART_H}\" width=\"100%\" role=\"img\">\n\
         <line x1=\"{p}\" y1=\"{y0:.1}\" x2=\"{xe}\" y2=\"{y0:.1}\" stroke=\"#c8d0d9\"/>\n\
         <line x1=\"{p}\" y1=\"10\" x2=\"{p}\" y2=\"{y0:.1}\" stroke=\"#c8d0d9\"/>\n\
         <text x=\"{p}\" y=\"{yl}\">{x_lo}</text>\n\
         <text x=\"{xe}\" y=\"{yl}\" text-anchor=\"end\">{x_hi}</text>\n\
         <text x=\"{p2}\" y=\"{y0m:.1}\">{y_lo}</text>\n\
         <text x=\"{p2}\" y=\"18\">{y_hi}</text>\n\
         {inner}</svg>\n",
        p = CHART_PAD,
        p2 = 2,
        xe = CHART_W - 10.0,
        y0 = CHART_H - 22.0,
        y0m = CHART_H - 26.0,
        yl = CHART_H - 8.0,
        x_lo = trim_float(sx.lo),
        x_hi = trim_float(sx.hi),
        y_lo = trim_float(sy.lo),
        y_hi = trim_float(sy.hi),
    )
}

fn line_chart(points: &[(f64, f64)], x_label: &str, y_label: &str, color: &str) -> String {
    let (sx, sy) = match scales(points) {
        Some(s) => s,
        None => return "<p class=\"legend\">no data</p>".into(),
    };
    format!(
        "{}\n<p class=\"legend\">x: {} · y: {}</p>",
        chart_frame(&polyline(points, sx, sy, color), sx, sy),
        esc(x_label),
        esc(y_label)
    )
}

/// White→deep-blue ramp for heatmap intensity in `[0, 1]`.
fn heat_color(t: f64) -> String {
    let t = t.clamp(0.0, 1.0).sqrt(); // sqrt lifts small cells into view
    let lerp = |a: f64, b: f64| (a + (b - a) * t) as u32;
    format!(
        "#{:02x}{:02x}{:02x}",
        lerp(247.0, 8.0),
        lerp(251.0, 48.0),
        lerp(255.0, 107.0)
    )
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

fn group_u64(v: u64) -> String {
    let digits = v.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

fn human_bytes(b: u64) -> String {
    const UNITS: &[&str] = &["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit + 1 < UNITS.len() {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{b} B")
    } else {
        format!("{v:.2} {}", UNITS[unit])
    }
}

fn trim_float(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        let s = group_u64(v.abs() as u64);
        if v < 0.0 {
            format!("-{s}")
        } else {
            s
        }
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{ConvergencePoint, MatrixTagReport, PhaseReport};
    use crate::timeseries::{SeriesPoint, SeriesSnapshot};

    fn sample() -> RunReport {
        let mut r = RunReport::new("dnnd-construct");
        r.param("input", "preset:deep1b <n=600>");
        r.n_ranks = 2;
        r.iterations = 3;
        r.sim_secs = 0.5;
        r.phases = vec![
            PhaseReport {
                index: 0,
                compute_secs: 0.1,
                comm_secs: 0.05,
                barrier_secs: 0.01,
                msgs: 10,
                bytes: 640,
            },
            PhaseReport {
                index: 1,
                compute_secs: 0.2,
                comm_secs: 0.1,
                barrier_secs: 0.04,
                msgs: 20,
                bytes: 1_280,
            },
        ];
        r.convergence = vec![
            ConvergencePoint {
                iteration: 0,
                updates: 500,
            },
            ConvergencePoint {
                iteration: 1,
                updates: 20,
            },
        ];
        r.series = vec![SeriesSnapshot {
            name: "send_buf_bytes".into(),
            rank: 0,
            points: vec![
                SeriesPoint {
                    t_ns: 10_000,
                    value: 64.0,
                },
                SeriesPoint {
                    t_ns: 20_000,
                    value: 32.0,
                },
            ],
        }];
        r.matrix = Some(MatrixSection {
            n_ranks: 2,
            tags: vec![MatrixTagReport {
                tag: 1,
                name: "Type 1".into(),
                counts: vec![1, 2, 3, 4],
                bytes: vec![10, 20, 30, 40],
            }],
        });
        r
    }

    #[test]
    fn dashboard_is_self_contained() {
        let html = dashboard_html(&sample());
        assert!(html.starts_with("<!DOCTYPE html>"));
        // No external fetches of any kind.
        for needle in ["http://", "https://", "<script", "src=", "@import", "url("] {
            assert!(
                !html.contains(needle),
                "found external reference {needle:?}"
            );
        }
        // The three required views are present.
        for id in [
            "id=\"timeline\"",
            "id=\"traffic-heatmap\"",
            "id=\"convergence\"",
        ] {
            assert!(html.contains(id), "missing section {id}");
        }
        assert!(html.contains("id=\"telemetry\""));
        assert!(html.contains("send_buf_bytes"));
    }

    #[test]
    fn html_escapes_report_strings() {
        let html = dashboard_html(&sample());
        assert!(html.contains("preset:deep1b &lt;n=600&gt;"));
        assert!(!html.contains("<n=600>"));
    }

    #[test]
    fn heatmap_has_a_cell_per_rank_pair() {
        let html = dashboard_html(&sample());
        assert_eq!(html.matches("rank 1 → rank 0").count(), 1);
        assert_eq!(html.matches("→ rank").count(), 4);
    }

    #[test]
    fn missing_sections_are_omitted() {
        let mut r = sample();
        r.matrix = None;
        r.series.clear();
        r.convergence.clear();
        let html = dashboard_html(&r);
        assert!(!html.contains("id=\"traffic-heatmap\""));
        assert!(!html.contains("id=\"telemetry\""));
        assert!(!html.contains("id=\"convergence\""));
        assert!(html.contains("id=\"timeline\""));
    }

    #[test]
    fn vdb_panel_renders_and_is_omitted_without_section() {
        use crate::report::{VdbNamespaceSection, VdbSection};
        let mut r = sample();
        assert!(!dashboard_html(&r).contains("id=\"vdb\""));
        r.vdb = Some(VdbSection {
            namespaces: vec![VdbNamespaceSection {
                name: "prod".into(),
                points: 1_000,
                live: 930,
                tombstones: 20,
                dead: 50,
                epoch: 3,
                inserts: 12,
                deletes: 70,
                compactions: 2,
            }],
            filtered_queries: 44,
            cache_suppressed_ids: 5,
            selectivity_hist: vec![(1, 10), (4, 30)],
        });
        let html = dashboard_html(&r);
        assert!(html.contains("id=\"vdb\""));
        assert!(html.contains("prod"));
        assert!(html.contains("compactions"));
        assert!(html.contains("40–50% selective: 30 queries"));
        for needle in ["http://", "https://", "<script", "src=", "@import", "url("] {
            assert!(!html.contains(needle), "found {needle:?}");
        }
    }

    #[test]
    fn serving_panel_renders_and_is_omitted_without_section() {
        let mut r = sample();
        assert!(!dashboard_html(&r).contains("id=\"serving\""));
        r.serving = Some(ServingSection {
            serve_seed: 9,
            slot_ns: 250_000,
            slots: 16,
            offered: 100,
            admitted: 90,
            answered: 80,
            cache_hits: 10,
            shed_deadline: 5,
            shed_overload: 5,
            p99_ns: 1_000_000,
            latency_hist: vec![(1, 60), (2, 15), (4, 5)],
            result_digest: 0xABCD,
            ..Default::default()
        });
        let html = dashboard_html(&r);
        assert!(html.contains("id=\"serving\""));
        assert!(html.contains("shed: deadline expired"));
        assert!(html.contains("000000000000abcd")); // digest, zero-padded hex
        assert!(html.contains("4 slot(s): 5 queries"));
        // Tenant-less section: no tenant table, no
        // client-latency tiles.
        assert!(!html.contains("Tenant SLOs"));
        assert!(!html.contains("client p99"));
        // Still self-contained with the new panel.
        for needle in ["http://", "https://", "<script", "src=", "@import", "url("] {
            assert!(!html.contains(needle), "found {needle:?}");
        }
    }

    #[test]
    fn tenant_slo_table_and_client_tiles_render_when_present() {
        use crate::report::TenantSloSection;
        let mut r = sample();
        r.serving = Some(ServingSection {
            serve_seed: 9,
            slot_ns: 250_000,
            offered: 100,
            answered: 80,
            latency_hist: vec![(1, 60), (2, 20)],
            client_p50_ns: 500_000,
            client_p99_ns: 4_000_000,
            client_hist: vec![(1, 55), (2, 20), (16, 5)],
            tenants: vec![
                TenantSloSection {
                    name: "gold".into(),
                    share_pct: 50,
                    offered: 50,
                    answered: 49,
                    slo_attainment: 0.98,
                    p99_ns: 1_000_000,
                    ..Default::default()
                },
                TenantSloSection {
                    name: "free<x>".into(),
                    share_pct: 50,
                    offered: 50,
                    answered: 31,
                    slo_attainment: 0.62,
                    p99_ns: 3_000_000,
                    ..Default::default()
                },
            ],
            ..Default::default()
        });
        let html = dashboard_html(&r);
        assert!(html.contains("Tenant SLOs"));
        assert!(html.contains("client p50"));
        assert!(html.contains("client p99"));
        assert!(html.contains("<td>gold</td>"));
        assert!(html.contains("98.0%"));
        assert!(html.contains("62.0%"));
        // Tenant names are HTML-escaped like every other report string.
        assert!(html.contains("free&lt;x&gt;"));
        assert!(!html.contains("free<x>"));
        // Still self-contained.
        for needle in ["http://", "https://", "<script", "src=", "@import", "url("] {
            assert!(!html.contains(needle), "found {needle:?}");
        }
    }

    #[test]
    fn critical_path_panel_renders_and_is_omitted_without_section() {
        use crate::critical_path::PhaseAttribution;
        let mut r = sample();
        assert!(!dashboard_html(&r).contains("id=\"critical-path\""));
        r.critical_path = Some(CriticalPathSection {
            n_ranks: 2,
            phases: 1,
            critical_path_ns: 1_000_000_000,
            collective_ns: 400_000_000,
            compute_ns: 500_000_000,
            comm_ns: 80_000_000,
            stall_ns: 15_000_000,
            retransmit_ns: 5_000_000,
            rank_slack_ns: vec![0.0, 30_000_000.0],
            rank_critical_phases: vec![1, 0],
            straggler_score: 0.25,
            phase_attribution: vec![PhaseAttribution {
                index: 0,
                total_ns: 600_000_000,
                compute_ns: 500_000_000,
                comm_ns: 80_000_000,
                stall_ns: 15_000_000,
                retransmit_ns: 5_000_000,
                critical_rank: 0,
            }],
        });
        let html = dashboard_html(&r);
        assert!(html.contains("id=\"critical-path\""));
        // Lane segments carry attribution titles; slack bars are present.
        assert!(html.contains("phase 0: retransmit 5.000 ms · critical rank 0"));
        assert!(html.contains("collectives: 400.000 ms"));
        assert!(html.contains("rank 1: 30.000 ms slack · critical in 0 phase(s)"));
        assert!(html.contains("straggler score"));
        // Still self-contained with the new panel.
        for needle in ["http://", "https://", "<script", "src=", "@import", "url("] {
            assert!(!html.contains(needle), "found {needle:?}");
        }
    }

    #[test]
    fn forensics_panel_renders_and_is_omitted_without_section() {
        use crate::report::QueryExemplar;
        let mut r = sample();
        assert!(!dashboard_html(&r).contains("id=\"query-forensics\""));
        r.query_forensics = Some(QueryForensicsSection {
            window_slots: 8,
            slow_n: 4,
            considered: 100,
            retained: 2,
            retained_slow: 1,
            retained_exemplar: 1,
            stage_hists: vec![
                ("admission".into(), vec![(0, 100)]),
                ("batch_wait".into(), vec![(0, 60), (2, 40)]),
                ("dispatch".into(), vec![(0, 95), (4, 5)]),
                ("search".into(), vec![(0, 10), (1, 90)]),
                ("response".into(), vec![(0, 100)]),
            ],
            exemplars: vec![QueryExemplar {
                idx: 17,
                pool_id: 41,
                verdict: "answered".into(),
                why: "slow|deadline_miss".into(),
                degrade_level: 1,
                cache_key_hash: 0xFEED,
                arrived_slot: 10,
                done_slot: 17,
                batch_wait_slots: 2,
                dispatch_slots: 4,
                search_slots: 1,
                latency_slots: 7,
                expansions: 12,
                dist_evals: 1_340,
                rounds: 13,
                deadline_miss: true,
                ..Default::default()
            }],
            digest: 0xABCD,
        });
        let html = dashboard_html(&r);
        assert!(html.contains("id=\"query-forensics\""));
        // Waterfall segments carry per-stage stats from the exact hists.
        assert!(html.contains("batch_wait: mean 0.800 slots, max 2 slots"));
        assert!(html.contains("search: mean 0.900 slots, max 1 slots"));
        // Exemplar row with its why-mask and counters.
        assert!(html.contains("slow|deadline_miss"));
        assert!(html.contains("1,340"));
        assert!(html.contains("000000000000abcd"));
        // Still self-contained with the new panel.
        for needle in ["http://", "https://", "<script", "src=", "@import", "url("] {
            assert!(!html.contains(needle), "found {needle:?}");
        }
    }

    #[test]
    fn dropped_spans_badge_names_the_overflowing_ranks() {
        let mut r = sample();
        assert!(!dashboard_html(&r).contains("class=\"badge\""));
        r.set_dropped_spans_per_rank(vec![0, 1_200, 0, 7]);
        let html = dashboard_html(&r);
        assert!(html.contains("class=\"badge\""));
        assert!(html.contains("1,207 dropped trace spans"));
        assert!(html.contains("r1:1,200 r3:7"));
        // Total-only reports (older schema) still badge without detail.
        let mut r2 = sample();
        r2.set_dropped_spans(5);
        let html2 = dashboard_html(&r2);
        assert!(html2.contains(">5 dropped trace spans</span>"));
    }

    #[test]
    fn sweep_chart_needs_two_complete_pairs() {
        let mut r = sample();
        r.metric("sweep_qps_0", 100.0);
        r.metric("sweep_p99_ms_0", 1.5);
        assert!(!dashboard_html(&r).contains("id=\"throughput-latency\""));
        r.metric("sweep_qps_1", 200.0);
        r.metric("sweep_p99_ms_1", 4.0);
        let html = dashboard_html(&r);
        assert!(html.contains("id=\"throughput-latency\""));
        assert!(html.contains("p99 latency of answered queries (ms)"));
        // Sweep keys feed the chart, not the summary tiles.
        assert!(!html.contains("sweep qps 0"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(group_u64(1_234_567), "1,234,567");
        assert_eq!(group_u64(17), "17");
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2_048), "2.00 KiB");
        assert_eq!(heat_color(0.0), "#f7fbff");
        assert_eq!(heat_color(1.0), "#08306b");
    }
}

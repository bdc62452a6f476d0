//! Self-contained single-file HTML dashboard for a [`RunReport`].
//!
//! [`dashboard_html`] renders the report's own document — the tree
//! [`RunReport::to_json`] builds and `--report-out` prints — in one walk: the
//! top-level scalars are the header table, each object and each list of rows
//! is a `<section id="<path>">` headed by its key, an object's scalars are a
//! two-column table and a list of rows is a table whose columns are the row
//! keys. Every label on the page is a JSON key — the name `dnnd-report-diff`
//! prints — so a field added to the report appears here with no edit. The
//! lists that have a chart get it above their table ([`chart`], keyed by the
//! list's path). Everything is inline (CSS + SVG, no scripts, no external
//! assets), so the file can be opened from a CI artifact or attached to an
//! issue without a web server.

use crate::critical_path::CriticalPathSection;
use crate::json::JsonValue as J;
use crate::report::{
    join, ConvergencePoint, MatrixSection, PhaseReport, QueryForensicsSection, RunReport,
    ServingSection, VdbSection,
};
use crate::timeseries::SeriesSnapshot;
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

/// Rows shown of one list, so a pathological run cannot balloon the page;
/// the legend reports any truncation (the JSON report has them all).
const MAX_ROWS: usize = 40;

/// Render `report` as a complete standalone HTML document.
pub fn dashboard_html(report: &RunReport) -> String {
    let J::Obj(fields) = report.to_json() else {
        unreachable!("a report is an object")
    };
    let mut body = format!("<h1>{} run report</h1>\n", esc(&report.binary));
    members(&mut body, report, "", &fields);
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
h1{font-size:22px;margin:0 0 18px}h2{font-size:16px;margin:0 0 10px}h3{font-size:14px;margin:0 0 8px}\
section{background:#fff;border:1px solid #e3e8ee;border-radius:8px;padding:16px;margin:0 0 16px}\
section section{border:0;padding:0;margin:16px 0 0}\
table{border-collapse:collapse;width:100%}\
td table{width:auto;font-size:12px}\
th,td{text-align:right;padding:4px 10px;border-bottom:1px solid #eef1f4;font-variant-numeric:tabular-nums}\
th{color:#5b6b7b;font-weight:600}td:first-child,th:first-child{text-align:left}\
svg text{font:11px system-ui,sans-serif;fill:#3c4a59}\
.legend{color:#5b6b7b;font-size:12px;margin:8px 0 0}\
.swatch{display:inline-block;width:10px;height:10px;border-radius:2px;margin:0 4px 0 10px}";

// ---- the walk --------------------------------------------------------------

/// The members of the object at path `at`: its plain values as one
/// two-column table, then one section per object, list of rows or charted
/// list, in document order.
fn members(out: &mut String, r: &RunReport, at: &str, fields: &[(String, J)]) {
    let plain: Vec<_> = fields.iter().filter(|(_, v)| is_plain(v)).collect();
    if !plain.is_empty() {
        out.push_str("<table>");
        for (key, v) in plain {
            let _ = write!(out, "<tr><th>{}</th><td>{}</td></tr>", esc(key), cell(v));
        }
        out.push_str("</table>\n");
    }
    for (key, v) in fields {
        let path = join(at, key);
        let empty = matches!(v, J::Arr(items) if items.is_empty());
        let chart = if empty { None } else { chart(r, &path) };
        if !is_plain(v) || chart.is_some() {
            section(out, r, &path, key, v, chart);
        }
    }
}

fn section(out: &mut String, r: &RunReport, path: &str, key: &str, v: &J, chart: Option<String>) {
    let h = if path.contains('.') { "h3" } else { "h2" };
    let (id, key) = (esc(path), esc(key));
    let _ = writeln!(out, "<section id=\"{id}\">\n<{h}>{key}</{h}>");
    if let Some(chart) = chart {
        out.push_str(&chart);
        out.push('\n');
    }
    match v {
        J::Obj(fields) => members(out, r, path, fields),
        J::Arr(rows) if !is_plain(v) => out.push_str(&rows_table(rows)),
        _ => {}
    }
    out.push_str("</section>\n");
}

/// A value that fits one cell: a scalar, or a list of scalars.
fn is_plain(v: &J) -> bool {
    match v {
        J::Obj(_) => false,
        J::Arr(items) => items.iter().all(|x| !matches!(x, J::Obj(_) | J::Arr(_))),
        _ => true,
    }
}

/// One value, formatted by its JSON type; a list of rows (or an object)
/// inside a row is a nested table.
fn cell(v: &J) -> String {
    match v {
        J::Null => "—".into(),
        J::Bool(b) => b.to_string(),
        J::Int(i) => group_i64(*i),
        J::Num(x) => trim_float(*x),
        J::Str(s) => esc(s),
        J::Arr(items) if is_plain(v) => {
            let mut text: Vec<String> = items.iter().take(MAX_ROWS).map(cell).collect();
            if items.len() > MAX_ROWS {
                text.push(format!("… showing {MAX_ROWS} of {}", items.len()));
            }
            text.join(" ")
        }
        J::Arr(rows) => rows_table(rows),
        J::Obj(_) => rows_table(std::slice::from_ref(v)),
    }
}

/// A list of row objects: one column per row key, at most [`MAX_ROWS`] rows.
fn rows_table(rows: &[J]) -> String {
    let shown = &rows[..rows.len().min(MAX_ROWS)];
    let mut cols: Vec<&str> = Vec::new();
    for (key, _) in shown.iter().flat_map(|row| match row {
        J::Obj(fields) => fields.as_slice(),
        _ => &[],
    }) {
        if !cols.contains(&key.as_str()) {
            cols.push(key);
        }
    }
    let mut out = String::from("<table><tr>");
    for col in &cols {
        let _ = write!(out, "<th>{}</th>", esc(col));
    }
    out.push_str("</tr>");
    for row in shown {
        out.push_str("<tr>");
        for col in &cols {
            let value = row.get(col).map(cell).unwrap_or_default();
            let _ = write!(out, "<td>{value}</td>");
        }
        out.push_str("</tr>");
    }
    out.push_str("</table>");
    if rows.len() > MAX_ROWS {
        let _ = write!(
            out,
            "<p class=\"legend\">showing {MAX_ROWS} of {} (all of them are in the JSON report)</p>",
            group_u64(rows.len() as u64)
        );
    }
    out
}

// ---- charts, keyed by the list they plot -------------------------------------

/// The chart drawn above the (non-empty) value at `path`, if it has one.
fn chart(r: &RunReport, path: &str) -> Option<String> {
    Some(match path {
        "phases" => timeline_svg(&r.phases),
        "convergence" => convergence_svg(&r.convergence),
        "series" => series_charts(&r.series),
        "extra" => serving_sweep_chart(&r.extra)?,
        "matrix.tags" => heatmap_svg(r.matrix.as_ref()?),
        "serving.latency_hist" => latency_hist_svg(r.serving.as_ref()?),
        "critical_path.phase_attribution" => critical_lane_svg(r.critical_path.as_ref()?),
        "critical_path.rank_slack_ns" => slack_bars_svg(r.critical_path.as_ref()?),
        "query_forensics.stage_hists" => waterfall_svg(r.query_forensics.as_ref()?),
        "vdb.selectivity_hist" => selectivity_svg(r.vdb.as_ref()?),
        _ => return None,
    })
}

/// Stacked compute/comm/barrier bar per phase along the virtual timeline.
fn timeline_svg(phases: &[PhaseReport]) -> String {
    let total: f64 = phases
        .iter()
        .map(|p| p.compute_secs + p.comm_secs + p.barrier_secs)
        .sum();
    if total <= 0.0 {
        return "<p class=\"legend\">no phase records</p>".into();
    }
    let mut segs = Vec::new();
    for p in phases {
        for (dur, color, kind) in [
            (p.compute_secs, COMPUTE_COLOR, "compute"),
            (p.comm_secs, COMM_COLOR, "comm"),
            (p.barrier_secs, BARRIER_COLOR, "barrier"),
        ] {
            let bytes = human_bytes(p.bytes);
            let title = format!(
                "phase {}: {kind} {dur:.6} s · {} msgs · {bytes}",
                p.index, p.msgs
            );
            segs.push((dur, color, title));
        }
    }
    let n = phases.len();
    let right = format!("{total:.4} s of modeled virtual time, {n} phases");
    let kinds = [(COMPUTE_COLOR, "compute"), (COMM_COLOR, "communication")];
    let legend = legend("", &[kinds[0], kinds[1], (BARRIER_COLOR, "barrier wait")]);
    lane_svg((120.0, 76.0), total, &segs, "s", &right, &legend)
}

/// The critical-path lane: one stacked bar per phase, segmented by the
/// exact attribution buckets, with the collective residue appended at the
/// end. Segment widths are proportional to virtual nanoseconds, so the
/// lane spans the whole critical path.
fn critical_lane_svg(cp: &CriticalPathSection) -> String {
    if cp.critical_path_ns == 0 {
        return "<p class=\"legend\">empty critical path</p>".into();
    }
    let mut segs = Vec::new();
    for p in &cp.phase_attribution {
        for (ns, color, kind) in [
            (p.compute_ns, COMPUTE_COLOR, "compute"),
            (p.comm_ns, COMM_COLOR, "communication"),
            (p.retransmit_ns, RETRANS_COLOR, "retransmit"),
            (p.stall_ns, STALL_COLOR, "stall"),
        ] {
            let ms = ns as f64 / 1e6;
            let title = format!(
                "phase {}: {kind} {ms:.3} ms · critical rank {}",
                p.index, p.critical_rank
            );
            segs.push((ns as f64, color, title));
        }
    }
    let collective_ms = cp.collective_ns as f64 / 1e6;
    let title = format!("collectives: {collective_ms:.3} ms");
    segs.push((cp.collective_ns as f64, COLLECTIVE_COLOR, title));
    let total = cp.critical_path_ns as f64;
    let right = format!("{:.4} s critical path, {} phases", total / 1e9, cp.phases);
    let legend = legend(
        "",
        &[
            (COMPUTE_COLOR, "compute"),
            (COMM_COLOR, "communication"),
            (RETRANS_COLOR, "retransmit"),
            (STALL_COLOR, "stall"),
            (COLLECTIVE_COLOR, "collectives"),
        ],
    );
    lane_svg((96.0, 56.0), total, &segs, "s", &right, &legend)
}

/// Palette for the five waterfall stages (admission, batch wait,
/// dispatch, search, response), in pipeline order.
const STAGE_COLORS: &[&str] = &["#a7b4c2", "#b279a2", "#f58518", "#4c78a8", "#54a24b"];

/// One stacked horizontal bar: the mean per-stage latency over *all*
/// profiled queries (the histograms are exact, not sampled), so the bar
/// is the average query's waterfall and its total length is the mean
/// end-to-end latency in slots.
fn waterfall_svg(q: &QueryForensicsSection) -> String {
    let mut segs = Vec::new();
    let mut stages = Vec::new();
    for (i, (name, buckets)) in q.stage_hists.iter().enumerate() {
        let count: u64 = buckets.iter().map(|&(_, c)| c).sum();
        let sum: u64 = buckets.iter().map(|&(s, c)| s * c).sum();
        let max = buckets.iter().map(|&(s, _)| s).max().unwrap_or(0);
        let mean = sum as f64 / count.max(1) as f64;
        let (color, name) = (STAGE_COLORS[i % STAGE_COLORS.len()], esc(name));
        let title = format!("{name}: mean {mean:.3} slots, max {max} slots");
        segs.push((mean, color, title));
        stages.push((color, name));
    }
    let total_mean: f64 = segs.iter().map(|s| s.0).sum();
    if total_mean <= 0.0 {
        return "<p class=\"legend\">all stages zero (every query answered instantly)</p>".into();
    }
    let right = format!("mean end-to-end {total_mean:.3} slots");
    let prefix = format!(
        "mean stage-latency waterfall over all {} profiled queries",
        group_u64(q.considered)
    );
    let legend = legend(&prefix, &stages);
    lane_svg((72.0, 32.0), total_mean, &segs, "slots", &right, &legend)
}

/// One stacked lane, `(height, band height)` tall: `(length, color, title)`
/// segments laid left to right over a `total`-long axis (zero-length ones
/// skipped), `0 <unit>` and `right` above it, then `legend`.
fn lane_svg(
    (h, band_h): (f64, f64),
    total: f64,
    segs: &[(f64, &str, String)],
    unit: &str,
    right: &str,
    legend: &str,
) -> String {
    let (w, pad_l) = (920.0_f64, 10.0_f64);
    let scale = (w - 2.0 * pad_l) / total;
    let mut out = format!("<svg viewBox=\"0 0 {w} {h}\" width=\"100%\" role=\"img\">\n");
    let mut x = pad_l;
    for (len, color, title) in segs.iter().filter(|s| s.0 > 0.0) {
        let seg = len * scale;
        let _ = writeln!(
            out,
            "<rect x=\"{x:.2}\" y=\"20\" width=\"{:.2}\" height=\"{band_h:.0}\" fill=\"{color}\">\
             <title>{title}</title></rect>",
            seg.max(0.2)
        );
        x += seg;
    }
    let _ = write!(
        out,
        "<text x=\"{pad_l}\" y=\"12\">0 {unit}</text>\
         <text x=\"{:.1}\" y=\"12\" text-anchor=\"end\">{right}</text>\n</svg>\n{legend}",
        w - pad_l
    );
    out
}

/// `<p class="legend">`: `prefix`, then one color swatch per `(color, label)`.
fn legend<L: std::fmt::Display>(prefix: &str, items: &[(&str, L)]) -> String {
    let mut out = format!("<p class=\"legend\">{prefix}");
    for (color, label) in items {
        let _ = write!(
            out,
            "<span class=\"swatch\" style=\"background:{color}\"></span>{label}"
        );
    }
    out.push_str("</p>");
    out
}

/// Horizontal per-rank slack bars: how long each rank sat at barriers
/// waiting for the per-phase critical rank, plus how often the rank was
/// itself the straggler.
fn slack_bars_svg(cp: &CriticalPathSection) -> String {
    let n = cp.rank_slack_ns.len();
    let max_slack = cp.rank_slack_ns.iter().copied().fold(0.0_f64, f64::max);
    let (pad_l, row_h, bar_w) = (58.0_f64, 18.0_f64, 830.0_f64);
    let h = 16.0 + row_h * n as f64;
    let mut out = format!("<svg viewBox=\"0 0 920 {h:.0}\" width=\"100%\" role=\"img\">\n");
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
            "<text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">{src}</text>\n\
             <text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"middle\">{src}</text>",
            pad_l - 6.0,
            pad_t + cell * (src as f64 + 0.5) + 4.0,
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

fn convergence_svg(convergence: &[ConvergencePoint]) -> String {
    let pts: Vec<(f64, f64)> = convergence
        .iter()
        .map(|c| (c.iteration as f64, (1.0 + c.updates as f64).log10()))
        .collect();
    let peak = group_u64(convergence.iter().map(|c| c.updates).max().unwrap_or(0));
    let y_label = format!("log10(1 + updates), peak {peak} updates");
    line_chart(&pts, "iteration", &y_label, RANK_COLORS[0])
}

/// One small line chart per series name, rank tracks overlaid.
fn series_charts(series: &[SeriesSnapshot]) -> String {
    let mut names: Vec<&str> = series.iter().map(|s| s.name.as_str()).collect();
    names.dedup(); // series are sorted by (name, rank)
    let mut out = String::new();
    for name in names {
        let tracks: Vec<_> = series.iter().filter(|s| s.name == name).collect();
        let mut polys = String::new();
        let mut ranks = Vec::new();
        // Shared scales across the ranks of one series.
        let all: Vec<(f64, f64)> = tracks
            .iter()
            .flat_map(|s| s.points.iter().map(|p| (p.t_ns as f64 / 1e3, p.value)))
            .collect();
        let Some((sx, sy)) = scales(&all) else {
            continue;
        };
        for s in &tracks {
            let color = RANK_COLORS[s.rank as usize % RANK_COLORS.len()];
            let pts: Vec<(f64, f64)> = s
                .points
                .iter()
                .map(|p| (p.t_ns as f64 / 1e3, p.value))
                .collect();
            polys.push_str(&polyline(&pts, sx, sy, color));
            ranks.push((color, format!("rank {}", s.rank)));
        }
        let _ = write!(
            out,
            "<h2 style=\"margin-top:14px\">{}</h2>\n{}\n{}\n",
            esc(name),
            chart_frame(&polys, sx, sy),
            legend("x: virtual time (µs)", &ranks)
        );
    }
    out
}

/// Bar chart of the exact answered-latency histogram (latency in slots).
fn latency_hist_svg(s: &ServingSection) -> String {
    let tallest = s.latency_hist.iter().map(|&(_, c)| c).max().unwrap_or(1);
    let max_slots = s.latency_hist.iter().map(|&(b, _)| b).max().unwrap_or(1);
    let bar_w = ((CHART_W - CHART_PAD - 10.0) / (max_slots + 1) as f64).min(40.0);
    let bars: Vec<_> = s
        .latency_hist
        .iter()
        .map(|&(slots, count)| {
            let ms = slots as f64 * s.slot_ns as f64 / 1e6;
            let title = format!("{slots} slot(s): {} queries ({ms:.3} ms)", group_u64(count));
            (slots, count, title)
        })
        .collect();
    let legend = format!(
        "answered-query latency histogram (exact, bucketed by serving slot; tallest bar {} queries)",
        group_u64(tallest.max(1))
    );
    let hi = format!("{max_slots} slots");
    bars_svg(&bars, bar_w, RANK_COLORS[0], ("0 slots", &hi), &legend)
}

/// The filtered-query selectivity decile chart of the vector-DB layer.
fn selectivity_svg(v: &VdbSection) -> String {
    let bars: Vec<_> = v
        .selectivity_hist
        .iter()
        .map(|&(decile, count)| {
            let (lo, hi) = (decile * 10, (decile + 1) * 10);
            let title = format!("{lo}–{hi}% selective: {} queries", group_u64(count));
            (decile, count, title)
        })
        .collect();
    let bar_w = (CHART_W - CHART_PAD - 10.0) / 10.0;
    let legend = "filtered-query selectivity (fraction of the collection each query's mask \
                  admits, by decile)";
    bars_svg(&bars, bar_w, RANK_COLORS[2], ("0%", "100%"), legend)
}

/// Vertical bars on the chart frame: `(slot, count, title)` at
/// `CHART_PAD + slot × bar_w`, heights relative to the tallest, the `(low,
/// high)` axis ends under them and `legend` below.
fn bars_svg(
    bars: &[(u64, u64, String)],
    bar_w: f64,
    color: &str,
    (lo, hi): (&str, &str),
    legend: &str,
) -> String {
    let max_count = bars.iter().map(|b| b.1).max().unwrap_or(1).max(1);
    let band_h = CHART_H - 32.0;
    let mut out =
        format!("<svg viewBox=\"0 0 {CHART_W} {CHART_H}\" width=\"100%\" role=\"img\">\n");
    for (slot, count, title) in bars {
        let h = band_h * *count as f64 / max_count as f64;
        let _ = writeln!(
            out,
            "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{:.1}\" height=\"{:.1}\" fill=\"{color}\">\
             <title>{title}</title></rect>",
            CHART_PAD + *slot as f64 * bar_w,
            10.0 + band_h - h,
            (bar_w - 1.0).max(0.5),
            h.max(0.5),
        );
    }
    let _ = write!(
        out,
        "<text x=\"{CHART_PAD}\" y=\"{}\">{lo}</text>\
         <text x=\"{:.1}\" y=\"{}\" text-anchor=\"end\">{hi}</text>\n</svg>\n\
         <p class=\"legend\">{legend}</p>",
        CHART_H - 8.0,
        CHART_W - 10.0,
        CHART_H - 8.0,
    );
    out
}

/// Throughput-vs-p99 curve from an offered-load sweep. The bench serve
/// driver records one `sweep_qps_<i>` / `sweep_p99_ms_<i>` pair per load
/// point in `extra`; render when at least two complete pairs exist.
fn serving_sweep_chart(extra: &[(String, f64)]) -> Option<String> {
    let lookup = |key: String| extra.iter().find(|(k, _)| *k == key).map(|&(_, v)| v);
    let pair = |i| {
        Some((
            lookup(format!("sweep_qps_{i}"))?,
            lookup(format!("sweep_p99_ms_{i}"))?,
        ))
    };
    let pts: Vec<(f64, f64)> = (0..).map_while(pair).collect();
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
    let Some((sx, sy)) = scales(points) else {
        return "<p class=\"legend\">no data</p>".into();
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

// ---- formatting ----------------------------------------------------------

fn esc(s: &str) -> String {
    let s = s.replace('&', "&amp;").replace('<', "&lt;");
    s.replace('>', "&gt;").replace('"', "&quot;")
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

fn group_i64(v: i64) -> String {
    let sign = if v < 0 { "-" } else { "" };
    format!("{sign}{}", group_u64(v.unsigned_abs()))
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

/// A whole number grouped; below 0.1 three significant digits, so a small
/// time does not read `0.000`; otherwise three decimals.
fn trim_float(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        group_i64(v as i64)
    } else if v.abs() < 0.1 {
        let decimals = 2 - v.abs().log10().floor() as i64;
        format!("{v:.*}", decimals.min(12) as usize)
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical_path::PhaseAttribution;
    use crate::report::{Gate, RnnSection, TagReport};

    fn fixture(name: &str) -> RunReport {
        let path = format!("{}/../../tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
        RunReport::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    /// Every key anywhere in `v`, objects inside lists included.
    fn keys<'a>(v: &'a J, out: &mut Vec<&'a str>) {
        match v {
            J::Obj(fields) => fields.iter().for_each(|(k, x)| {
                out.push(k);
                keys(x, out);
            }),
            J::Arr(items) => items.iter().for_each(|x| keys(x, out)),
            _ => {}
        }
    }

    #[test]
    fn every_key_is_a_label_and_every_part_a_section() {
        let r = fixture("report_full.json");
        let (html, doc) = (dashboard_html(&r), r.to_json());
        let mut all = Vec::new();
        keys(&doc, &mut all);
        for key in all {
            let key = esc(key);
            let labels = [
                format!("<th>{key}</th>"),
                format!(">{key}</h2>"),
                format!(">{key}</h3>"),
            ];
            assert!(
                labels.iter().any(|l| html.contains(l)),
                "{key} has no label"
            );
        }
        let J::Obj(top) = &doc else { unreachable!() };
        let parts = top
            .iter()
            .filter(|(_, v)| !is_plain(v))
            .map(|(k, _)| k.clone());
        let marked = r.leaves().into_iter().filter(|l| l.gate == Gate::Section);
        let ids: Vec<String> = parts.chain(marked.map(|l| l.path)).collect();
        for id in ["rnn", "tags", "serving.tenants", "faults", "params"] {
            assert!(ids.iter().any(|i| i == id), "{id}");
        }
        for id in ids {
            assert!(
                html.contains(&format!("<section id=\"{id}\">")),
                "no section {id}"
            );
        }
        // A part only some run kinds produce is absent from the page with it.
        let minimal = dashboard_html(&fixture("report_minimal.json"));
        for id in [
            "matrix",
            "serving",
            "critical_path",
            "rnn",
            "vdb",
            "faults",
            "phases",
        ] {
            assert!(!minimal.contains(&format!("id=\"{id}\"")), "{id}");
        }
    }

    #[test]
    fn dashboard_is_self_contained_and_escapes_report_strings() {
        let mut r = fixture("report_full.json");
        r.param("input", "preset:deep1b <n=600>");
        r.serving.as_mut().unwrap().tenants[1].name = "free<x>".into();
        let html = dashboard_html(&r);
        assert!(html.starts_with("<!DOCTYPE html>"));
        for needle in ["http://", "https://", "<script", "src=", "@import", "url("] {
            assert!(!html.contains(needle), "found {needle:?}");
        }
        assert!(html.contains("preset:deep1b &lt;n=600&gt;") && !html.contains("<n=600>"));
        assert!(html.contains("free&lt;x&gt;") && !html.contains("free<x>"));
        assert!(html.contains("a &quot;quoted&quot; \\ value"));
    }

    #[test]
    fn long_lists_are_capped_with_a_legend() {
        let mut r = RunReport::new("t");
        r.tags = vec![TagReport::default(); MAX_ROWS + 5];
        r.rnn = Some(RnnSection {
            reverse_added: vec![3; MAX_ROWS + 2],
            ..Default::default()
        });
        let html = dashboard_html(&r);
        assert_eq!(html.matches("<tr><td>0</td>").count(), MAX_ROWS);
        assert!(html.contains("showing 40 of 45 (all of them are in the JSON report)"));
        assert!(html.contains("3 3 … showing 40 of 42"));
    }

    #[test]
    fn heatmap_has_a_cell_per_rank_pair() {
        let html = dashboard_html(&fixture("report_full.json"));
        assert_eq!(html.matches("rank 1 → rank 0").count(), 1);
        assert_eq!(html.matches("→ rank").count(), 4);
    }

    #[test]
    fn lane_segments_and_slack_bars_carry_their_attribution() {
        let mut r = RunReport::new("t");
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
        assert!(html.contains("phase 0: retransmit 5.000 ms · critical rank 0"));
        assert!(html.contains("collectives: 400.000 ms"));
        assert!(html.contains("rank 1: 30.000 ms slack · critical in 0 phase(s)"));
        assert!(html.contains("1.0000 s critical path, 1 phases"));
        assert!(html.contains("<section id=\"critical_path.rank_slack_ns\">"));
    }

    #[test]
    fn waterfall_segments_are_the_exact_stage_means() {
        let html = dashboard_html(&fixture("report_full.json"));
        assert!(html.contains("batch_wait: mean 0.667 slots, max 2 slots"));
        assert!(html.contains("search: mean 1.000 slots, max 1 slots"));
        assert!(html.contains("mean end-to-end 1.933 slots"));
        assert!(
            !html.contains("admission: mean"),
            "a zero stage draws no segment"
        );
    }

    #[test]
    fn sweep_chart_needs_two_complete_pairs() {
        let mut r = RunReport::new("t");
        r.metric("sweep_qps_0", 100.0);
        r.metric("sweep_p99_ms_0", 1.5);
        let legend = "p99 latency of answered queries (ms)";
        assert!(!dashboard_html(&r).contains(legend));
        r.metric("sweep_qps_1", 200.0);
        r.metric("sweep_p99_ms_1", 4.0);
        assert!(dashboard_html(&r).contains(legend));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(group_u64(1_234_567), "1,234,567");
        assert_eq!(group_i64(-1_234), "-1,234");
        assert_eq!(trim_float(273_637.0), "273,637");
        assert_eq!(trim_float(0.25), "0.250");
        assert_eq!(trim_float(0.010_43), "0.0104");
        assert_eq!(trim_float(-0.000_123_4), "-0.000123");
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2_048), "2.00 KiB");
        assert_eq!(heat_color(0.0), "#f7fbff");
        assert_eq!(heat_color(1.0), "#08306b");
    }
}

//! The perf-regression gate: a committed trajectory of benchmark
//! records plus the check that fails CI when throughput drops.
//!
//! `bench/history.jsonl` holds one [`BenchRecord`] per line, appended
//! by `bench_record` each time the workloads are re-measured on the
//! reference host. [`check`] compares a fresh measurement against the
//! last committed record and fails when any tracked throughput metric
//! falls more than the tolerance (default 10%) below it — an absolute
//! gate, not a trend fit, so one bad commit cannot ratchet the
//! baseline down. [`render_dashboard`] turns the history into a
//! static, dependency-free HTML page with an inline-SVG trajectory
//! chart and the raw records as a table.

use std::fmt::Write as _;

use turnroute_experiment::json::{self, escape, Value};

/// Record layout version; bump when fields change meaning.
pub const RECORD_SCHEMA: u64 = 1;

/// The gate's default tolerance: fail below 90% of the last record.
pub const DEFAULT_TOLERANCE: f64 = 0.10;

/// One measured point on the perf trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Record layout version ([`RECORD_SCHEMA`]).
    pub schema: u64,
    /// Unix seconds when the measurement ran.
    pub recorded_at_unix: u64,
    /// Hardware cores of the measuring host — context for absolute
    /// numbers; the gate only compares like-for-like trajectories.
    pub host_cores: u64,
    /// Engine cycles/sec, west-first/transpose, route table on.
    pub engine_west_first_cps: f64,
    /// Engine cycles/sec, xy/transpose, route table on.
    pub engine_xy_cps: f64,
    /// 64x64-mesh cycles/sec, serial engine (one shard). `0.0` in
    /// records written before the workload existed.
    pub engine_mesh64_serial_cps: f64,
    /// 64x64-mesh cycles/sec, cycle-barrier sharded arbitration at one
    /// shard per core. `0.0` in records written before the workload
    /// existed; the gate skips metrics with no prior measurement.
    pub engine_sharded_cps: f64,
    /// Engine cycles/sec on the 16x16 workload injected through the
    /// bursty MMPP arrival process (mmpp:96,288). `0.0` in records
    /// written before the workload existed; the gate skips metrics
    /// with no prior measurement.
    pub engine_mmpp_cps: f64,
    /// Virtual-channel engine cycles/sec: mad-y/transpose on the 16x16
    /// mesh, one sustained and one saturated load timed together.
    /// `0.0` in records written before the workload existed; the gate
    /// skips metrics with no prior measurement.
    pub engine_vc_mady_cps: f64,
    /// mesh64 serial time / sharded time.
    pub sharded_speedup: f64,
    /// Turn-prohibition synthesis: candidates evaluated per second on
    /// the 16-node dragonfly workload, one worker. `0.0` in records
    /// written before the workload existed; the gate skips metrics
    /// with no prior measurement.
    pub synth_candidates_per_sec: f64,
    /// Sweep-grid cells per serial second.
    pub sweep_cells_per_sec: f64,
    /// Serial wall time of the full sweep grid, seconds.
    pub sweep_serial_secs: f64,
    /// 8-thread wall time of the full sweep grid, seconds.
    pub sweep_threads8_secs: f64,
    /// serial / 8-thread.
    pub sweep_speedup_8_threads: f64,
    /// Free-form context (host, commit, why re-measured).
    pub note: String,
}

/// A gated metric: its name plus the extractor reading it off a record.
type GatedMetric = (&'static str, fn(&BenchRecord) -> f64);

/// The gate's tracked metrics: `(name, extractor)` for every metric
/// where *lower is a regression*.
const GATED_METRICS: &[GatedMetric] = &[
    ("engine_west_first_cps", |r| r.engine_west_first_cps),
    ("engine_xy_cps", |r| r.engine_xy_cps),
    ("engine_sharded_cps", |r| r.engine_sharded_cps),
    ("engine_mmpp_cps", |r| r.engine_mmpp_cps),
    ("engine_vc_mady_cps", |r| r.engine_vc_mady_cps),
    ("sweep_cells_per_sec", |r| r.sweep_cells_per_sec),
    ("synth_candidates_per_sec", |r| r.synth_candidates_per_sec),
];

fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        let mut s = format!("{v:.4}");
        while s.ends_with('0') {
            s.pop();
        }
        if s.ends_with('.') {
            s.push('0');
        }
        s
    }
}

impl BenchRecord {
    /// Renders the record as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"schema\":{},\"recorded_at_unix\":{},\"host_cores\":{},\
             \"engine_west_first_cps\":{},\"engine_xy_cps\":{},\
             \"engine_mesh64_serial_cps\":{},\"engine_sharded_cps\":{},\
             \"engine_mmpp_cps\":{},\"engine_vc_mady_cps\":{},\
             \"sharded_speedup\":{},\"synth_candidates_per_sec\":{},\
             \"sweep_cells_per_sec\":{},\"sweep_serial_secs\":{},\
             \"sweep_threads8_secs\":{},\"sweep_speedup_8_threads\":{},\
             \"note\":{}}}",
            self.schema,
            self.recorded_at_unix,
            self.host_cores,
            num(self.engine_west_first_cps),
            num(self.engine_xy_cps),
            num(self.engine_mesh64_serial_cps),
            num(self.engine_sharded_cps),
            num(self.engine_mmpp_cps),
            num(self.engine_vc_mady_cps),
            num(self.sharded_speedup),
            num(self.synth_candidates_per_sec),
            num(self.sweep_cells_per_sec),
            num(self.sweep_serial_secs),
            num(self.sweep_threads8_secs),
            num(self.sweep_speedup_8_threads),
            escape(&self.note),
        )
    }

    /// Parses one history line.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, a missing field, or an unknown schema.
    pub fn from_json_line(line: &str) -> Result<Self, String> {
        let doc = json::parse(line).map_err(|e| format!("bad history line: {e}"))?;
        let u = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("history record lacks '{key}'"))
        };
        let f = |key: &str| -> Result<f64, String> {
            doc.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("history record lacks '{key}'"))
        };
        // Metrics added after the first records were committed: absent
        // means "not measured yet" (0.0), which the gate skips.
        let f_opt = |key: &str| -> f64 { doc.get(key).and_then(Value::as_f64).unwrap_or(0.0) };
        let schema = u("schema")?;
        if schema != RECORD_SCHEMA {
            return Err(format!(
                "history record schema {schema} unsupported (expected {RECORD_SCHEMA})"
            ));
        }
        Ok(BenchRecord {
            schema,
            recorded_at_unix: u("recorded_at_unix")?,
            host_cores: u("host_cores")?,
            engine_west_first_cps: f("engine_west_first_cps")?,
            engine_xy_cps: f("engine_xy_cps")?,
            engine_mesh64_serial_cps: f_opt("engine_mesh64_serial_cps"),
            engine_sharded_cps: f_opt("engine_sharded_cps"),
            engine_mmpp_cps: f_opt("engine_mmpp_cps"),
            engine_vc_mady_cps: f_opt("engine_vc_mady_cps"),
            sharded_speedup: f_opt("sharded_speedup"),
            synth_candidates_per_sec: f_opt("synth_candidates_per_sec"),
            sweep_cells_per_sec: f("sweep_cells_per_sec")?,
            sweep_serial_secs: f("sweep_serial_secs")?,
            sweep_threads8_secs: f("sweep_threads8_secs")?,
            sweep_speedup_8_threads: f("sweep_speedup_8_threads")?,
            note: doc
                .get("note")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_owned(),
        })
    }
}

/// Parses a whole `history.jsonl` (blank lines skipped).
///
/// # Errors
///
/// Fails on the first unparseable line, with its line number.
pub fn parse_history(text: &str) -> Result<Vec<BenchRecord>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| BenchRecord::from_json_line(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Compares `current` against `last`; returns the list of violated
/// metrics (empty = pass). A metric fails when it drops below
/// `last * (1 - tolerance)`; improvements never fail.
pub fn check(last: &BenchRecord, current: &BenchRecord, tolerance: f64) -> Vec<String> {
    let mut violations = Vec::new();
    for (name, get) in GATED_METRICS {
        let was = get(last);
        let now = get(current);
        if was <= 0.0 {
            // The last record predates this metric (or never measured
            // it); there is no baseline to regress against.
            continue;
        }
        let floor = was * (1.0 - tolerance);
        if now < floor {
            violations.push(format!(
                "{name} regressed {:.1}%: {} -> {} (floor {} at {:.0}% tolerance)",
                (1.0 - now / was) * 100.0,
                num(was),
                num(now),
                num(floor),
                tolerance * 100.0,
            ));
        }
    }
    violations
}

/// `YYYY-MM-DD` for a unix timestamp (proleptic Gregorian, UTC).
fn date_of(unix_secs: u64) -> String {
    // Howard Hinnant's civil-from-days algorithm.
    let days = (unix_secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// One chart series: label plus per-record values.
struct Series<'a> {
    label: &'a str,
    css_var: &'a str,
    values: Vec<f64>,
}

/// Renders the static trajectory dashboard: one indexed line chart
/// (every series as % of its first record, so one axis serves all
/// the metrics) plus the raw records as a table. A series whose first
/// record predates its metric (value 0) is left off the chart — it has
/// no base to index against — but still shows in the table.
/// Self-contained HTML — inline SVG and CSS, no scripts, light and
/// dark via `prefers-color-scheme`.
pub fn render_dashboard(history: &[BenchRecord]) -> String {
    let mut series = vec![
        Series {
            label: "engine west-first (cycles/s)",
            css_var: "--s1",
            values: history.iter().map(|r| r.engine_west_first_cps).collect(),
        },
        Series {
            label: "engine xy (cycles/s)",
            css_var: "--s2",
            values: history.iter().map(|r| r.engine_xy_cps).collect(),
        },
        Series {
            label: "sweep grid (cells/s)",
            css_var: "--s3",
            values: history.iter().map(|r| r.sweep_cells_per_sec).collect(),
        },
        Series {
            label: "engine sharded 64x64 (cycles/s)",
            css_var: "--s4",
            values: history.iter().map(|r| r.engine_sharded_cps).collect(),
        },
        Series {
            label: "synth (candidates/s)",
            css_var: "--s5",
            values: history.iter().map(|r| r.synth_candidates_per_sec).collect(),
        },
        Series {
            label: "engine mmpp (cycles/s)",
            css_var: "--s6",
            values: history.iter().map(|r| r.engine_mmpp_cps).collect(),
        },
    ];
    series.retain(|s| s.values.first().copied().unwrap_or(0.0) > 0.0);

    let mut out = String::new();
    out.push_str(DASHBOARD_HEAD);
    let _ = writeln!(
        out,
        "<p class=\"sub\">{} record(s) · tracked metrics indexed to the first record = 100% \
         · gate fails CI below 90% of the last record</p>",
        history.len()
    );
    out.push_str(&render_chart(history, &series));
    out.push_str(&render_table(history));
    out.push_str("</main></body></html>\n");
    out
}

/// Chart geometry: outer size and the plot margins.
const W: f64 = 880.0;
const H: f64 = 360.0;
const ML: f64 = 56.0;
const MR: f64 = 200.0; // room for direct labels at line ends
const MT: f64 = 18.0;
const MB: f64 = 40.0;

fn render_chart(history: &[BenchRecord], series: &[Series<'_>]) -> String {
    if history.is_empty() {
        return "<p class=\"sub\">No records yet — run <code>scripts/bench.sh</code> \
                to record the first point.</p>\n"
            .to_owned();
    }

    // Index every series to its first value = 100%.
    let indexed: Vec<Vec<f64>> = series
        .iter()
        .map(|s| {
            let base = s.values.first().copied().unwrap_or(1.0);
            s.values
                .iter()
                .map(|&v| if base > 0.0 { v / base * 100.0 } else { 100.0 })
                .collect()
        })
        .collect();
    let lo = indexed
        .iter()
        .flatten()
        .copied()
        .fold(f64::INFINITY, f64::min)
        .min(95.0);
    let hi = indexed
        .iter()
        .flatten()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max)
        .max(105.0);
    let pad = (hi - lo) * 0.08;
    let (lo, hi) = (lo - pad, hi + pad);

    let n = history.len();
    let x = |i: usize| -> f64 {
        if n == 1 {
            ML + (W - ML - MR) / 2.0
        } else {
            ML + (W - ML - MR) * i as f64 / (n - 1) as f64
        }
    };
    let y = |v: f64| -> f64 { MT + (H - MT - MB) * (1.0 - (v - lo) / (hi - lo)) };

    let mut svg = String::new();
    let _ = writeln!(
        svg,
        "<figure><figcaption>Throughput trajectory (higher is better)</figcaption>\n\
         <svg viewBox=\"0 0 {W} {H}\" role=\"img\" \
         aria-label=\"Benchmark throughput trajectory, indexed to the first record\">"
    );

    // Horizontal gridlines + axis labels at ~5 round ticks.
    let step = ((hi - lo) / 5.0).max(1.0).round();
    let mut tick = (lo / step).ceil() * step;
    while tick <= hi {
        let ty = y(tick);
        let _ = writeln!(
            svg,
            "<line class=\"grid\" x1=\"{ML}\" y1=\"{ty:.1}\" x2=\"{:.1}\" y2=\"{ty:.1}\"/>\
             <text class=\"tick\" x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">{tick:.0}%</text>",
            W - MR,
            ML - 8.0,
            ty + 4.0,
        );
        tick += step;
    }
    // X labels: first, last, and middle record dates.
    let mut label_at: Vec<usize> = vec![0];
    if n > 2 {
        label_at.push(n / 2);
    }
    if n > 1 {
        label_at.push(n - 1);
    }
    for &i in &label_at {
        let _ = writeln!(
            svg,
            "<text class=\"tick\" x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"middle\">{}</text>",
            x(i),
            H - MB + 24.0,
            date_of(history[i].recorded_at_unix),
        );
    }

    // Lines, then markers (with a surface ring), then direct labels.
    for (s, vals) in series.iter().zip(&indexed) {
        if n > 1 {
            let points: Vec<String> = vals
                .iter()
                .enumerate()
                .map(|(i, &v)| format!("{:.1},{:.1}", x(i), y(v)))
                .collect();
            let _ = writeln!(
                svg,
                "<polyline class=\"line\" style=\"stroke:var({})\" points=\"{}\"/>",
                s.css_var,
                points.join(" ")
            );
        }
        for (i, &v) in vals.iter().enumerate() {
            let _ = writeln!(
                svg,
                "<circle class=\"marker\" style=\"fill:var({})\" cx=\"{:.1}\" cy=\"{:.1}\" r=\"4\">\
                 <title>{} · {}: {} ({v:.1}%)</title></circle>",
                s.css_var,
                x(i),
                y(v),
                date_of(history[i].recorded_at_unix),
                html_escape(s.label),
                num(s.values[i]),
            );
        }
        let last = vals[n - 1];
        let _ = writeln!(
            svg,
            "<text class=\"dlabel\" x=\"{:.1}\" y=\"{:.1}\">{}</text>",
            x(n - 1) + 10.0,
            y(last) + 4.0,
            html_escape(s.label),
        );
    }
    svg.push_str("</svg></figure>\n");

    // Legend (color is never the only identity: direct labels above,
    // table below).
    svg.push_str("<ul class=\"legend\">");
    for s in series {
        let _ = write!(
            svg,
            "<li><span class=\"swatch\" style=\"background:var({})\"></span>{}</li>",
            s.css_var,
            html_escape(s.label)
        );
    }
    svg.push_str("</ul>\n");
    svg
}

fn render_table(history: &[BenchRecord]) -> String {
    let mut t = String::from(
        "<h2>Records</h2>\n<table>\n<thead><tr><th>#</th><th>date</th><th>cores</th>\
         <th>engine west-first (cycles/s)</th><th>engine xy (cycles/s)</th>\
         <th>sharded 64x64 (cycles/s)</th><th>shard speedup</th>\
         <th>mmpp (cycles/s)</th><th>vc mad-y (cycles/s)</th>\
         <th>synth (cand/s)</th>\
         <th>sweep (cells/s)</th><th>sweep serial (s)</th><th>8-thread (s)</th>\
         <th>speedup ×8</th><th>note</th></tr></thead>\n<tbody>\n",
    );
    // Pre-sharding records carry 0 for the sharded metrics: show a dash
    // rather than a number that looks like a measurement.
    let or_dash = |v: f64, scale: f64| {
        if v > 0.0 {
            num((v * scale).round() / scale)
        } else {
            "—".to_owned()
        }
    };
    for (i, r) in history.iter().enumerate() {
        let _ = writeln!(
            t,
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{}</td></tr>",
            i + 1,
            date_of(r.recorded_at_unix),
            r.host_cores,
            num(r.engine_west_first_cps.round()),
            num(r.engine_xy_cps.round()),
            or_dash(r.engine_sharded_cps, 1.0),
            or_dash(r.sharded_speedup, 1e3),
            or_dash(r.engine_mmpp_cps, 1.0),
            or_dash(r.engine_vc_mady_cps, 1.0),
            or_dash(r.synth_candidates_per_sec, 10.0),
            num((r.sweep_cells_per_sec * 10.0).round() / 10.0),
            num((r.sweep_serial_secs * 1e4).round() / 1e4),
            num((r.sweep_threads8_secs * 1e4).round() / 1e4),
            num((r.sweep_speedup_8_threads * 1e3).round() / 1e3),
            html_escape(&r.note),
        );
    }
    t.push_str("</tbody>\n</table>\n");
    t
}

/// Document head: layout, the validated categorical palette (slots
/// 1–4) in light and dark steps, recessive grid/ticks, and mark specs
/// (2px lines, 8px markers with a 2px surface ring).
const DASHBOARD_HEAD: &str = r#"<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>turnroute bench trajectory</title>
<style>
:root {
  --surface: #ffffff;
  --ink: #1f2328;
  --ink-muted: #59626b;
  --grid: #e4e7eb;
  --s1: #2a78d6; /* blue */
  --s2: #eb6834; /* orange */
  --s3: #1baf7a; /* aqua-green */
  --s4: #8a56d6; /* violet */
  --s5: #c2417e; /* magenta */
  --s6: #8c7a1c; /* olive */
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #15181b;
    --ink: #e6e9ec;
    --ink-muted: #9aa4ad;
    --grid: #2b3137;
    --s1: #3987e5;
    --s2: #d95926;
    --s3: #199e70;
    --s4: #9a6ae0;
    --s5: #d05a8f;
    --s6: #b7a33c;
  }
}
body {
  margin: 0;
  background: var(--surface);
  color: var(--ink);
  font: 15px/1.5 system-ui, sans-serif;
}
main { max-width: 960px; margin: 0 auto; padding: 24px 16px 48px; }
h1 { font-size: 1.3rem; margin: 0 0 4px; }
h2 { font-size: 1.05rem; margin: 28px 0 8px; }
.sub { color: var(--ink-muted); margin: 0 0 16px; }
figure { margin: 0; }
figcaption { color: var(--ink-muted); font-size: 0.85rem; margin-bottom: 6px; }
svg { width: 100%; height: auto; }
.grid { stroke: var(--grid); stroke-width: 1; }
.tick, .dlabel { fill: var(--ink-muted); font: 12px system-ui, sans-serif; }
.dlabel { fill: var(--ink); }
.line { fill: none; stroke-width: 2; }
.marker { stroke: var(--surface); stroke-width: 2; }
.legend { list-style: none; display: flex; gap: 18px; padding: 0; margin: 8px 0 0; }
.legend li { display: flex; align-items: center; gap: 6px; color: var(--ink); font-size: 0.85rem; }
.swatch { width: 12px; height: 12px; border-radius: 3px; display: inline-block; }
table { border-collapse: collapse; width: 100%; font-size: 0.85rem; }
th, td { text-align: right; padding: 5px 8px; border-bottom: 1px solid var(--grid); }
th:first-child, td:first-child, th:last-child, td:last-child { text-align: left; }
th { color: var(--ink-muted); font-weight: 600; }
code { background: var(--grid); padding: 1px 4px; border-radius: 3px; }
</style>
</head>
<body>
<main>
<h1>turnroute bench trajectory</h1>
"#;

#[cfg(test)]
mod tests {
    use super::*;

    fn record(wf: f64, xy: f64, cells: f64) -> BenchRecord {
        BenchRecord {
            schema: RECORD_SCHEMA,
            recorded_at_unix: 1_754_700_000,
            host_cores: 1,
            engine_west_first_cps: wf,
            engine_xy_cps: xy,
            engine_mesh64_serial_cps: wf / 16.0,
            engine_sharded_cps: wf / 4.0,
            engine_mmpp_cps: wf / 2.0,
            engine_vc_mady_cps: wf / 8.0,
            sharded_speedup: 4.0,
            synth_candidates_per_sec: cells * 2.0,
            sweep_cells_per_sec: cells,
            sweep_serial_secs: 0.62,
            sweep_threads8_secs: 0.93,
            sweep_speedup_8_threads: 0.667,
            note: "unit test".to_owned(),
        }
    }

    #[test]
    fn records_round_trip_through_jsonl() {
        let r = record(250_000.0, 300_000.5, 77.42);
        let line = r.to_json_line();
        assert!(!line.contains('\n'), "one record per line");
        let back = BenchRecord::from_json_line(&line).unwrap();
        assert_eq!(back, r);

        let history = format!("{line}\n\n{line}\n");
        assert_eq!(parse_history(&history).unwrap().len(), 2);
    }

    #[test]
    fn unknown_schema_and_missing_fields_are_rejected() {
        let future =
            record(1.0, 1.0, 1.0)
                .to_json_line()
                .replacen("\"schema\":1", "\"schema\":9", 1);
        assert!(BenchRecord::from_json_line(&future)
            .unwrap_err()
            .contains("schema 9"));
        assert!(BenchRecord::from_json_line("{\"schema\":1}")
            .unwrap_err()
            .contains("lacks"));
    }

    #[test]
    fn check_passes_flat_and_improved_runs() {
        let last = record(100_000.0, 120_000.0, 80.0);
        assert!(check(&last, &last, DEFAULT_TOLERANCE).is_empty());
        let faster = record(130_000.0, 150_000.0, 95.0);
        assert!(check(&last, &faster, DEFAULT_TOLERANCE).is_empty());
        // A dip inside the tolerance also passes.
        let wobble = record(92_000.0, 111_000.0, 73.0);
        assert!(check(&last, &wobble, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn check_fails_a_synthetic_regression_beyond_tolerance() {
        let last = record(100_000.0, 120_000.0, 80.0);
        // One metric 15% down: exactly the synthetic case the gate
        // must catch. (record() derives the sharded, mmpp and vc metrics
        // from the west-first one; pin them so only one metric moves.)
        let mut regressed = record(85_000.0, 121_000.0, 80.0);
        regressed.engine_sharded_cps = last.engine_sharded_cps;
        regressed.engine_mmpp_cps = last.engine_mmpp_cps;
        regressed.engine_vc_mady_cps = last.engine_vc_mady_cps;
        let violations = check(&last, &regressed, DEFAULT_TOLERANCE);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("engine_west_first_cps"));
        assert!(violations[0].contains("15.0%"));
        // All seven down hard: all seven reported.
        let collapsed = record(50_000.0, 60_000.0, 40.0);
        assert_eq!(check(&last, &collapsed, DEFAULT_TOLERANCE).len(), 7);
    }

    #[test]
    fn pre_sharding_records_parse_and_are_not_gated() {
        // A history line written before the sharded workload existed:
        // no mesh64/sharded fields at all.
        let old = "{\"schema\":1,\"recorded_at_unix\":1754700000,\"host_cores\":1,\
                   \"engine_west_first_cps\":100000,\"engine_xy_cps\":120000,\
                   \"sweep_cells_per_sec\":80,\"sweep_serial_secs\":0.62,\
                   \"sweep_threads8_secs\":0.93,\"sweep_speedup_8_threads\":0.667,\
                   \"note\":\"pre-sharding\"}";
        let last = BenchRecord::from_json_line(old).unwrap();
        assert_eq!(last.engine_sharded_cps, 0.0);
        assert_eq!(last.engine_mesh64_serial_cps, 0.0);
        assert_eq!(last.engine_mmpp_cps, 0.0);
        assert_eq!(last.engine_vc_mady_cps, 0.0);
        // The gate has no sharded baseline to compare against, so a
        // fresh record with any sharded figure passes that metric.
        let current = record(100_000.0, 120_000.0, 80.0);
        assert!(check(&last, &current, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn dashboard_renders_chart_legend_and_table() {
        let history = vec![
            record(100_000.0, 120_000.0, 80.0),
            record(110_000.0, 118_000.0, 85.0),
            record(125_000.0, 130_000.0, 90.0),
        ];
        let html = render_dashboard(&history);
        assert!(html.contains("<svg"));
        assert!(
            html.contains("polyline"),
            "multi-record history draws lines"
        );
        assert!(html.contains("prefers-color-scheme: dark"));
        assert!(html.contains("engine west-first"));
        assert!(html.contains("class=\"legend\""));
        // Table view with one row per record.
        assert_eq!(html.matches("<tr><td>").count(), 3);
        assert!(html.contains(&date_of(1_754_700_000)));
    }

    #[test]
    fn dashboard_handles_empty_and_single_record_histories() {
        let empty = render_dashboard(&[]);
        assert!(empty.contains("No records yet"));
        let single = render_dashboard(&[record(1.0, 2.0, 3.0)]);
        assert!(single.contains("<circle"));
        assert!(!single.contains("polyline"));
    }

    #[test]
    fn dates_convert_correctly() {
        assert_eq!(date_of(0), "1970-01-01");
        assert_eq!(date_of(86_400), "1970-01-02");
        assert_eq!(date_of(1_754_700_000), "2025-08-09");
    }
}

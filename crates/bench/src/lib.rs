//! Shared harness utilities for the workspace's executables and bench
//! drivers: a tiny CLI parser, the observability outputs, aligned-table
//! printing, and CSV output.
//!
//! The paper's evaluation is one driver, `paper`, with one section per
//! table or figure; it writes its CSVs under `--out` (default `results/`).
//! Run e.g.:
//!
//! ```text
//! cargo run --release -p bench --bin paper -- --section fig4
//! ```

#![forbid(unsafe_code)]

use obs::{RunReport, Tracer};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::fmt::Display;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Minimal `--key value` / `--flag` argument parser. A token that is
/// neither a `--key` nor a key's value is a positional argument, wherever
/// it stands among the flags.
#[derive(Debug, Clone)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
    positionals: Vec<String>,
    /// Every key a lookup has asked for, given or not: what
    /// [`Args::finish`] holds the command line against.
    read: RefCell<BTreeSet<String>>,
}

impl Args {
    /// Parse `std::env::args()`.
    pub fn parse() -> Self {
        Self::from_tokens(std::env::args().skip(1))
    }

    /// Parse an explicit token stream (testable).
    pub fn from_tokens(tokens: impl IntoIterator<Item = String>) -> Self {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut positionals = Vec::new();
        let toks: Vec<String> = tokens.into_iter().collect();
        let mut i = 0;
        while i < toks.len() {
            let t = &toks[i];
            if let Some(key) = t.strip_prefix("--") {
                if i + 1 < toks.len() && !toks[i + 1].starts_with("--") {
                    values.insert(key.to_owned(), toks[i + 1].clone());
                    i += 2;
                } else {
                    flags.push(key.to_owned());
                    i += 1;
                }
            } else {
                positionals.push(t.clone());
                i += 1;
            }
        }
        Args {
            values,
            flags,
            positionals,
            read: RefCell::default(),
        }
    }

    /// The positional arguments, in command-line order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Typed lookup with default. A value that does not parse as `T`, or
    /// a typed key given without a value, is a usage error: one line on
    /// stderr and exit code 2 — never a silent fall-back to the default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.opt(key).unwrap_or(default)
    }

    /// Typed lookup without a default: `None` when the key was not given;
    /// unparseable and missing values exit like [`Args::get`].
    pub fn opt<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.try_opt(key).unwrap_or_else(|msg| die(&msg))
    }

    fn try_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.read.borrow_mut().insert(key.to_owned());
        match self.values.get(key) {
            Some(v) => match v.parse() {
                Ok(t) => Ok(Some(t)),
                Err(_) => Err(format!("--{key}: cannot parse {v:?}")),
            },
            None if self.flags.iter().any(|f| f == key) => Err(format!("--{key}: missing value")),
            None => Ok(None),
        }
    }

    /// Boolean flag presence; a switch given a value (`--unoptimized yes`)
    /// exits like [`Args::get`]'s usage errors.
    pub fn flag(&self, key: &str) -> bool {
        self.try_flag(key).unwrap_or_else(|msg| die(&msg))
    }

    fn try_flag(&self, key: &str) -> Result<bool, String> {
        self.read.borrow_mut().insert(key.to_owned());
        match self.values.get(key) {
            Some(v) => Err(format!("--{key} takes no value (got {v:?})")),
            None => Ok(self.flags.iter().any(|f| f == key)),
        }
    }

    /// Call once every flag the program understands has been looked up,
    /// and before it writes anything: a `--key` on the command line that no
    /// lookup asked for is a usage error (`error: unknown flag --foo`, exit
    /// code 2) instead of a feature that silently stays off.
    pub fn finish(&self) {
        if let Some(key) = self.first_unread() {
            die(&format!("unknown flag --{key}"));
        }
    }

    /// The alphabetically first given key no lookup has asked for.
    fn first_unread(&self) -> Option<&str> {
        let read = self.read.borrow();
        self.values
            .keys()
            .chain(&self.flags)
            .filter(|key| !read.contains(*key))
            .min()
            .map(String::as_str)
    }

    /// Output directory for CSVs (`--out`, default `results/`).
    pub fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.get::<String>("out", "results".into()))
    }
}

/// The observability outputs every executable and bench driver accepts
/// (`--trace-out`, `--report-out`, `--dashboard-out`; empty = not asked
/// for), the tracer a run needs to produce them, and the one writer of
/// those files and of their "written to" lines. Each file is written as
/// its document is emitted, through one buffered writer.
#[derive(Debug, Clone, Default)]
pub struct ObsOuts {
    /// Chrome-trace / Perfetto span timeline destination.
    pub trace: String,
    /// Unified JSON run-report destination.
    pub report: String,
    /// Self-contained HTML dashboard destination.
    pub dashboard: String,
}

impl ObsOuts {
    /// Read the observability flags from parsed CLI arguments.
    pub fn parse(args: &Args) -> ObsOuts {
        ObsOuts {
            trace: args.get("trace-out", String::new()),
            report: args.get("report-out", String::new()),
            dashboard: args.get("dashboard-out", String::new()),
        }
    }

    /// Whether a `RunReport` must be assembled (report or dashboard).
    fn wants_report(&self) -> bool {
        !self.report.is_empty() || !self.dashboard.is_empty()
    }

    /// The tracer of an `n_ranks`-track run: `None` when no output was
    /// asked for, so an unobserved run pays nothing, and without span rings
    /// unless a trace was asked for — a report reads only the tracer's
    /// histograms and gauge series.
    pub fn tracer(&self, n_ranks: usize) -> Option<Arc<Tracer>> {
        if !self.trace.is_empty() {
            Some(Arc::new(Tracer::new(n_ranks)))
        } else {
            self.wants_report()
                .then(|| Arc::new(Tracer::with_capacity(n_ranks, 0)))
        }
    }

    /// Write every output that was asked for: the trace if the run had a
    /// `tracer`, and the report and dashboard of `report()` — with the
    /// tracer's histograms and gauge series folded in — which is only
    /// called when one of the two is wanted. `Err` is the one-line reason
    /// the first failing file gave.
    pub fn write(
        &self,
        tracer: Option<&Tracer>,
        report: impl FnOnce() -> RunReport,
    ) -> Result<(), String> {
        if let Some(t) = tracer {
            let dropped = match t.dropped_events() {
                0 => " (0 spans dropped)".to_string(),
                n => format!(" ({n} spans dropped: the trace is incomplete)"),
            };
            emit(&self.trace, "trace", &dropped, |w| {
                obs::chrome::write_chrome_trace(t, w)
            })?;
        }
        if self.wants_report() {
            let mut rr = report();
            if let Some(t) = tracer {
                rr.add_histograms(&t.hist_snapshots());
                rr.series = t.series_snapshot();
            }
            self.write_report(&rr)?;
            self.write_dashboard(&rr)?;
        }
        Ok(())
    }

    /// The `--report-out` half of [`ObsOuts::write`].
    pub fn write_report(&self, report: &RunReport) -> Result<(), String> {
        emit(&self.report, "run report", "", |w| {
            write!(w, "{:#}", report.to_json())
        })
    }

    /// The `--dashboard-out` half of [`ObsOuts::write`].
    pub fn write_dashboard(&self, report: &RunReport) -> Result<(), String> {
        emit(&self.dashboard, "dashboard", "", |w| {
            w.write_all(obs::dashboard::dashboard_html(report).as_bytes())
        })
    }
}

/// Write one output file, if its path was given, and say so on stdout.
fn emit(
    path: &str,
    what: &str,
    note: &str,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> Result<(), String> {
    if path.is_empty() {
        return Ok(());
    }
    let written = File::create(path).and_then(|file| {
        let mut w = BufWriter::new(file);
        write(&mut w)?;
        w.flush()
    });
    written.map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("{what} written to {path}{note}");
    Ok(())
}

/// Write a sweep driver's outputs. `--report-out` exists to be a committed
/// baseline, so it gets the report's [`obs::RunReport::summary`] (no
/// per-event lists); `--dashboard-out` renders the full in-memory report.
pub fn write_baseline_outputs(outs: &ObsOuts, report: &RunReport) {
    outs.write_report(&report.summary())
        .and_then(|()| outs.write_dashboard(report))
        .unwrap_or_else(|e| die(&e));
}

/// Abort with a one-line `error: ...` message and exit code 2 (the
/// command-line convention of every executable in the workspace).
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Unwrap, or exit 2 with the error as the one `error:` line.
pub fn or_die<T, E: Display>(result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| die(&e.to_string()))
}

/// Counts no library type owns (`--ranks`, `--pool`, `--queries`,
/// `dnnd-vdb --dim`): each must be positive. Every other domain is the
/// library's, whose `validate` or bound function the executables forward
/// with [`or_die`].
pub fn require_at_least_1(flag: &str, value: usize) {
    if value == 0 {
        die(&format!("--{flag} must be at least 1 (got 0)"));
    }
}

/// A printable/CSV-able table of rows.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (displayed values).
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Render an aligned text table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        println!("\n== {} ==", self.title);
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
            }
            println!("{}", s.trim_end());
        };
        line(&self.headers);
        line(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<String>>(),
        );
        for row in &self.rows {
            line(row);
        }
    }

    /// Write as CSV into `dir/<name>.csv`.
    pub fn write_csv(&self, dir: &Path, name: &str) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        fs::write(&path, out)?;
        Ok(path)
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Format a ratio as a percentage.
pub fn pct(num: f64, den: f64) -> String {
    if den == 0.0 {
        "n/a".into()
    } else {
        format!("{:.1}%", 100.0 * num / den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::from_tokens(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_key_values_and_flags() {
        let a = args("x --n 500 y --full --seed 9 z");
        assert_eq!(a.positionals(), ["x", "y", "z"]);
        assert_eq!(a.get("n", 0usize), 500);
        assert_eq!(a.get("seed", 0u64), 9);
        assert!(a.flag("full"));
        assert!(!a.flag("missing"));
        assert_eq!(a.get("absent", 7i32), 7);
    }

    #[test]
    fn flag_at_end_without_value() {
        let a = args("--verbose");
        assert!(a.flag("verbose"));
    }

    #[test]
    fn a_switch_given_a_value_is_an_error() {
        let a = args("--unoptimized yes --store S");
        assert_eq!(
            a.try_flag("unoptimized"),
            Err("--unoptimized takes no value (got \"yes\")".into())
        );
        assert_eq!(
            a.try_flag("store"),
            Err("--store takes no value (got \"S\")".into())
        );
        assert_eq!(a.try_flag("absent"), Ok(false));
    }

    #[test]
    fn malformed_or_missing_value_is_an_error_not_the_default() {
        let a = args("--n 10k --seed 0x2a --k");
        assert_eq!(
            a.try_opt::<usize>("n"),
            Err("--n: cannot parse \"10k\"".into())
        );
        assert_eq!(
            a.try_opt::<u64>("seed"),
            Err("--seed: cannot parse \"0x2a\"".into())
        );
        assert_eq!(a.try_opt::<usize>("k"), Err("--k: missing value".into()));
        assert_eq!(a.try_opt::<String>("n"), Ok(Some("10k".into())));
        assert_eq!(a.try_opt::<usize>("absent"), Ok(None));
    }

    #[test]
    fn unread_keys_are_reported_until_something_looks_them_up() {
        let a = args("--n 5 --typo 3 --dry --also");
        assert_eq!(a.first_unread(), Some("also"));
        assert_eq!(a.get("n", 0usize), 5);
        assert!(a.flag("also"));
        assert_eq!(a.first_unread(), Some("dry"));
        // A lookup counts whether or not the key was given.
        assert!(!a.flag("absent"));
        assert!(a.flag("dry"));
        assert_eq!(a.first_unread(), Some("typo"));
        assert_eq!(a.opt::<u32>("typo"), Some(3));
        assert_eq!(a.first_unread(), None);
    }

    #[test]
    fn table_roundtrip_to_csv() {
        let dir = std::env::temp_dir().join(format!(
            "bench-table-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&[&1, &"x"]);
        t.row(&[&2, &"y"]);
        assert_eq!(t.len(), 2);
        let path = t.write_csv(&dir, "demo").unwrap();
        let text = fs::read_to_string(path).unwrap();
        assert_eq!(text, "a,b\n1,x\n2,y\n");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn wrong_arity_row_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&[&1]);
    }

    #[test]
    fn format_helpers() {
        assert_eq!(pct(1.0, 2.0), "50.0%");
        assert_eq!(pct(1.0, 0.0), "n/a");
    }
}

//! The crate's one printer and one report schema: figure series as
//! aligned text tables, and the `--json <path>` document every
//! `BENCH_*.json` is written through.

use std::path::PathBuf;

use mpf_sim::figures::Series;

use crate::measure::Budget;

/// One figure: its series and, for measured ones, each point's
/// interquartile range `(q1, q3)` — `spread[s][p]` beside
/// `series[s].points[p]`; empty for a deterministic (simulated) figure.
#[derive(Debug, Clone, Default)]
pub struct Figure {
    /// Printed as `# title`.
    pub title: String,
    /// The curves; a point's `y` is the median of its runs.
    pub series: Vec<Series>,
    /// Quartiles per series per point, or empty.
    pub spread: Vec<Vec<(f64, f64)>>,
}

impl Figure {
    /// A figure without spread: deterministic, or not yet measured.
    pub fn plain(title: &str, series: Vec<Series>) -> Figure {
        Figure {
            title: title.to_string(),
            series,
            spread: Vec::new(),
        }
    }

    /// Prints the figure as an aligned table, one column per series; a
    /// measured point shows half its interquartile range beside its median:
    ///
    /// ```text
    /// # Figure 4 (fcfs): throughput vs receivers [native host]
    /// x               16 byte messages    1024 byte messages
    /// 1                    9391873 ±4%        467526186 ±2%
    /// ```
    pub fn print(&self) {
        println!("# {}", self.title);
        if self.series.is_empty() {
            println!("(no data)");
            return;
        }
        let mut header = format!("{:<10}", "x");
        for s in &self.series {
            header.push_str(&format!("{:>22}", s.label));
        }
        println!("{header}");
        for (r, &(x, _)) in self.series[0].points.iter().enumerate() {
            let mut line = format!("{:<10}", trim_float(x));
            for (s, series) in self.series.iter().enumerate() {
                let y = series.points.get(r).map_or(f64::NAN, |p| p.1);
                let mut cell = trim_float(y);
                if let Some(&(q1, q3)) = self.spread.get(s).and_then(|iqr| iqr.get(r)) {
                    cell.push_str(&format!(" ±{:.0}%", (q3 - q1) / y * 50.0));
                }
                line.push_str(&format!("{cell:>22}"));
            }
            println!("{line}");
        }
        println!();
    }
}

/// Formats a number compactly: integers without decimals, small values
/// with three significant decimals.
pub fn trim_float(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else if v.abs() >= 100.0 || (v.fract() == 0.0 && v.abs() < 1e15) {
        format!("{}", v.round() as i64)
    } else {
        format!("{v:.3}")
    }
}

/// Parses the common `--sim` / `--native` / `--both` flags; defaults to
/// sim-only (fast, reproduces the paper's shapes deterministically).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    /// Run the Balance 21000 simulation.
    pub sim: bool,
    /// Run the native (thread-backed) measurement.
    pub native: bool,
}

impl Mode {
    /// Parses a flag list.
    pub fn parse(args: &[String]) -> Self {
        let native = args.iter().any(|a| a == "--native" || a == "--both");
        let sim = args.iter().any(|a| a == "--sim" || a == "--both") || !native;
        Self { sim, native }
    }
}

/// The flag [`JsonReport::from_args`] looks for.
pub const JSON_FLAG: &str = "--json";

/// Accumulates every figure rendered during one run and writes them as a
/// single JSON document (hand-rolled — the workspace is dependency-free).
///
/// ```text
/// {"meta":{"host":"...","nproc":2,"revision":"...","runs":7,"window_ms":100},
///  "figures":[{"title":"...","series":[{"label":"...","points":[[16,1.5e6],...],
///                                       "spread":[[1.4e6,1.6e6],...]}]}],
///  "extra":{"latency_ns":{...}}}
/// ```
#[derive(Debug)]
pub struct JsonReport {
    path: PathBuf,
    budget: Option<Budget>,
    figures: Vec<String>,
    extra: Vec<(String, String)>,
}

impl JsonReport {
    /// Parses `--json <path>` from the process arguments; `None` when the
    /// flag is absent (text output only).
    pub fn from_args() -> Option<Self> {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let i = args.iter().position(|a| a == JSON_FLAG)?;
        let path = args.get(i + 1)?;
        if path.starts_with('-') {
            return None;
        }
        Some(Self::at(path))
    }

    /// Targets an explicit path — for binaries whose contract is "always
    /// write a report here" rather than an optional `--json` flag.
    pub fn at(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            budget: None,
            figures: Vec::new(),
            extra: Vec::new(),
        }
    }

    /// Records the budget the figures were measured under (`meta.runs`,
    /// `meta.window_ms`); a report of one unrepeated run leaves it unset.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = Some(budget);
    }

    /// Records one figure without spread.
    pub fn add(&mut self, title: &str, series: &[Series]) {
        self.add_figure(&Figure::plain(title, series.to_vec()));
    }

    /// Records one figure, with its quartiles when it has them.
    pub fn add_figure(&mut self, fig: &Figure) {
        let pairs = |pts: &[(f64, f64)]| {
            join(
                pts.iter()
                    .map(|(a, b)| format!("[{},{}]", json_num(*a), json_num(*b))),
            )
        };
        let curves = fig.series.iter().enumerate().map(|(i, s)| {
            let points = format!(
                "{{\"label\":{},\"points\":[{}]",
                json_str(&s.label),
                pairs(&s.points)
            );
            match fig.spread.get(i) {
                Some(iqr) => format!("{points},\"spread\":[{}]}}", pairs(iqr)),
                None => points + "}",
            }
        });
        let title = json_str(&fig.title);
        self.figures.push(format!(
            "{{\"title\":{title},\"series\":[{}]}}",
            join(curves)
        ));
    }

    /// Attaches an arbitrary pre-rendered JSON value under a top-level
    /// `extra` key (e.g. latency percentiles).
    pub fn add_extra(&mut self, key: &str, raw_json: String) {
        self.extra.push((key.to_string(), raw_json));
    }

    /// Writes the document; returns the path written.
    pub fn write(self) -> std::io::Result<PathBuf> {
        let extras = join(
            self.extra
                .iter()
                .map(|(k, v)| format!("{}:{v}", json_str(k))),
        );
        let (runs, window) = self.budget.map_or((1, "null".to_string()), |b| {
            (b.runs, b.window.as_millis().to_string())
        });
        let doc = format!(
            "{{\"meta\":{{\"host\":{},\"nproc\":{},\"revision\":{},\"runs\":{runs},\
             \"window_ms\":{window}}},\"figures\":[{}],\"extra\":{{{extras}}}}}\n",
            json_str(&host()),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            json_str(&revision()),
            self.figures.join(",")
        );
        std::fs::write(&self.path, doc)?;
        Ok(self.path)
    }
}

/// Comma-separated, as JSON arrays and objects want their members.
fn join(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(",")
}

/// Host name and CPU model of the measuring machine.
fn host() -> String {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpuinfo = read("/proc/cpuinfo");
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown cpu", |m| m.trim_start_matches([' ', '\t', ':']));
    format!("{} ({cpu})", read("/proc/sys/kernel/hostname").trim())
}

/// The checked-out commit, read from the nearest `.git` above the working
/// directory (`"unknown"` outside a checkout).  A record made in a dirty
/// tree names the commit it was made on top of.
fn revision() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let found = cwd.ancestors().find_map(|dir| {
        let git = dir.join(".git");
        let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
        let Some(reference) = head.trim().strip_prefix("ref: ") else {
            return Some(head);
        };
        std::fs::read_to_string(git.join(reference))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                let line = packed.lines().find_map(|l| l.strip_suffix(reference));
                line.map(str::to_string)
            })
    });
    found.map_or("unknown".to_string(), |hash| hash.trim().to_string())
}

/// JSON number: finite values as-is, NaN/inf as null (JSON has neither).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// JSON string escape.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_renders_valid_document() {
        let mut r = JsonReport::at(
            std::env::temp_dir().join(format!("bench-json-{}.json", std::process::id())),
        );
        r.add(
            "fig \"3\"",
            &[Series {
                label: "a\nb".into(),
                points: vec![(16.0, 1.5e6), (64.0, f64::NAN)],
            }],
        );
        r.add_extra("latency_ns", "{\"p50\":120}".into());
        let path = r.write().unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(doc.contains("\"fig \\\"3\\\"\""));
        assert!(doc.contains("[16,1500000]"));
        assert!(doc.contains("[64,null]"));
        assert!(doc.contains("\"latency_ns\":{\"p50\":120}"));
        // Balanced braces/brackets — cheap structural sanity without a parser.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                doc.matches(open).count(),
                doc.matches(close).count(),
                "unbalanced {open}{close} in {doc}"
            );
        }
    }

    #[test]
    fn trim_float_formats() {
        assert_eq!(trim_float(25000.4), "25000");
        assert_eq!(trim_float(1.2345), "1.234");
        assert_eq!(trim_float(4.0), "4");
        assert_eq!(trim_float(f64::NAN), "-");
    }

    #[test]
    fn mode_defaults_to_sim() {
        let m = Mode::parse(&[]);
        assert!(m.sim && !m.native);
    }

    #[test]
    fn mode_flags() {
        let native = Mode::parse(&["--native".into()]);
        assert!(!native.sim && native.native);
        let both = Mode::parse(&["--both".into()]);
        assert!(both.sim && both.native);
    }

    #[test]
    fn print_series_smoke() {
        // Just exercise the formatting path.
        let mut fig = Figure {
            title: "test".into(),
            series: vec![Series {
                label: "a".into(),
                points: vec![(1.0, 10.0), (2.0, 20.0)],
            }],
            spread: vec![vec![(9.0, 11.0)]],
        };
        fig.print();
        fig.series.clear();
        fig.print();
    }
}

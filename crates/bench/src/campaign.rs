//! The one campaign harness. A campaign (`crate::campaigns::*`) is a table
//! of cells, a function that runs one cell at one worker count and returns
//! what it observed, and a list of cross-cell gates; everything else every
//! campaign needs lives here exactly once:
//!
//! * [`Record`] — an ordered key → value map that both prints (one console
//!   line) and serialises (JSON), so a field cannot be shown but not saved;
//! * the report: one schema for every `BENCH_<name>.json`, in which the
//!   simulated observations (`sim`, reproducible to the digit) and the host
//!   measurements (`host`, wall clock) of a cell never share an object;
//! * [`drive`] — the sweep / `--smoke` driver: every cell under a wall-clock
//!   watchdog, re-run at each of its worker counts with trace and `sim`
//!   equality, gates evaluated, and under `--smoke` the fresh `sim` of each
//!   cell compared field for field with the committed report (the engine's
//!   event counts in `host` may fall there, not rise), whose every cell must
//!   in turn still be a row of the table;
//! * host time: [`sample`] (a warm-up call, then one timed call per sample,
//!   any setup outside the timed region) and [`summary`] (min, upper
//!   median, mean), which every `wall-clock` cell reports through;
//! * what the cells share: [`Totals`] (every fault, fabric and link counter
//!   of a world or summed over shards), [`streams`] (paced writer/reader
//!   pairs whose reader is the online exactly-once FIFO oracle), [`cable`],
//!   [`nodes_of`] and the indexed payload.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::{Duration, Instant};

use desim::trace::json_str;
use desim::{FaultSchedule, LinkFaults, LinkStats, SimDuration};
use vorx::hpcnet::{self, ClusterId, Fabric, NodeAddr, Payload, Topology};
use vorx::{channel, invariants, FaultStats, VCtx, VorxShardedSim, World};

/// Schema tag of every report this harness writes.
pub const SCHEMA: &str = "vorx-campaign/1";

// ---------------------------------------------------------------- records

/// One value of a [`Record`].
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer (printed exactly, also above 2^53).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float; always written with a `.` or exponent so it parses back as one.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
    /// Absent (`null`).
    Null,
    /// Ordered list.
    List(Vec<Value>),
    /// Nested record.
    Rec(Record),
}

macro_rules! value_from {
    ($($t:ty: $x:ident => $e:expr),*) => {$(
        impl From<$t> for Value {
            fn from($x: $t) -> Value {
                $e
            }
        }
    )*};
}
value_from!(u64: x => Value::U64(x), u32: x => Value::U64(x.into()), usize: x => Value::U64(x as u64),
            i64: x => Value::I64(x), f64: x => Value::F64(x), bool: x => Value::Bool(x),
            &str: x => Value::Str(x.into()), String: x => Value::Str(x), Record: x => Value::Rec(x));
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(o: Option<T>) -> Value {
        o.map_or(Value::Null, Into::into)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::List(v.into_iter().map(Into::into).collect())
    }
}

/// An ordered key → [`Value`] map: the only thing a campaign hands back,
/// and the only thing the console and the JSON file are written from.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Record(Vec<(String, Value)>);

impl Record {
    /// An empty record.
    pub fn new() -> Self {
        Record::default()
    }

    /// Append a field (insertion order is output order; keys are unique).
    pub fn with(mut self, key: &str, v: impl Into<Value>) -> Self {
        assert!(self.get(key).is_none(), "duplicate record key {key}");
        self.0.push((key.into(), v.into()));
        self
    }

    /// Append every field of `other`.
    pub(crate) fn and(self, other: Record) -> Self {
        other.0.into_iter().fold(self, |r, (k, v)| r.with(&k, v))
    }

    /// The fields, in order.
    pub fn fields(&self) -> &[(String, Value)] {
        &self.0
    }

    /// Look a field up.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// An integer field; panics when absent or not one (gates read cells
    /// they themselves wrote).
    pub fn u64(&self, key: &str) -> u64 {
        match self.get(key) {
            Some(Value::U64(x)) => *x,
            other => panic!("record field {key}: expected an integer, found {other:?}"),
        }
    }

    /// A numeric field as a float.
    pub fn f64(&self, key: &str) -> f64 {
        match self.get(key) {
            Some(Value::F64(x)) => *x,
            Some(Value::U64(x)) => *x as f64,
            other => panic!("record field {key}: expected a number, found {other:?}"),
        }
    }

    /// A string field; panics when absent or not one.
    pub fn str(&self, key: &str) -> &str {
        match self.get(key) {
            Some(Value::Str(s)) => s,
            other => panic!("record field {key}: expected a string, found {other:?}"),
        }
    }

    /// A nested-record field (empty when absent).
    pub fn rec(&self, key: &str) -> &Record {
        static EMPTY: Record = Record(Vec::new());
        match self.get(key) {
            Some(Value::Rec(r)) => r,
            _ => &EMPTY,
        }
    }

    /// A list field (empty when absent).
    pub fn list(&self, key: &str) -> &[Value] {
        match self.get(key) {
            Some(Value::List(l)) => l,
            _ => &[],
        }
    }

    /// The records of a list field.
    pub fn recs(&self, key: &str) -> impl Iterator<Item = &Record> {
        self.list(key).iter().filter_map(|v| match v {
            Value::Rec(r) => Some(r),
            _ => None,
        })
    }

    /// The record as one line of JSON.
    pub fn json(&self) -> String {
        self.json_at(0, 0)
    }

    fn json_at(&self, expand: usize, depth: usize) -> String {
        let field = |(k, v): &(String, Value)| json_str(k) + ": " + &v.json(expand, depth + 1);
        container(self.0.iter().map(field).collect(), true, expand, depth)
    }

    /// The record as one console line: `key=value key=value …`.
    pub fn line(&self) -> String {
        let field = |(k, v): &(String, Value)| format!("{k}={}", v.text());
        self.0.iter().map(field).collect::<Vec<_>>().join(" ")
    }
}

impl Value {
    /// Console form: strings bare, `null` as `-`, containers bracketed.
    pub fn text(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            Value::Null => "-".into(),
            Value::List(l) => {
                let items: Vec<String> = l.iter().map(Value::text).collect();
                format!("[{}]", items.join(","))
            }
            Value::Rec(r) => format!("{{{}}}", r.line()),
            scalar => scalar.json(0, 0),
        }
    }

    /// JSON form. Containers nested shallower than `expand` levels get one
    /// element per line; deeper ones are written inline.
    fn json(&self, expand: usize, depth: usize) -> String {
        match self {
            Value::U64(x) => x.to_string(),
            Value::I64(x) => x.to_string(),
            Value::F64(x) if x.is_finite() => format!("{x:?}"),
            Value::F64(_) | Value::Null => "null".into(),
            Value::Bool(b) => b.to_string(),
            Value::Str(s) => json_str(s),
            Value::List(l) => {
                let items = l.iter().map(|v| v.json(expand, depth + 1)).collect();
                container(items, false, expand, depth)
            }
            Value::Rec(r) => r.json_at(expand, depth),
        }
    }
}

/// A JSON object or array of the already rendered `items`, broken one per
/// line above `expand` levels of nesting and inline below.
fn container(items: Vec<String>, object: bool, expand: usize, depth: usize) -> String {
    let (open, close, pad) = if object {
        ("{", "}", " ")
    } else {
        ("[", "]", "")
    };
    if items.is_empty() {
        format!("{open}{close}")
    } else if depth < expand {
        let (inner, outer) = ("  ".repeat(depth + 1), "  ".repeat(depth));
        let sep = format!(",\n{inner}");
        format!("{open}\n{inner}{}\n{outer}{close}", items.join(&sep))
    } else {
        format!("{open}{pad}{}{pad}{close}", items.join(", "))
    }
}

/// Parse JSON text into a [`Value`]. Numbers with a `.` or an exponent
/// become `F64`, other negative ones `I64`, the rest `U64` — the inverse of
/// the writer, so a report reads back equal to what was written.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    match p.peek() {
        None => Ok(v),
        Some(_) => Err(p.err("trailing text")),
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("json: {what} at byte {}", self.i)
    }

    /// The next byte after any whitespace, not consumed.
    fn peek(&mut self) -> Option<u8> {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
        self.s.get(self.i).copied()
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                let close = open + 2; // ASCII: `{`→`}`, `[`→`]`
                let (mut rec, mut list) = (Record::new(), Vec::new());
                self.i += 1;
                while self.peek() != Some(close) {
                    if open == b'{' {
                        let key = self.string()?;
                        if self.peek() != Some(b':') {
                            return Err(self.err("expected ':'"));
                        }
                        self.i += 1;
                        rec.0.push((key, self.value()?));
                    } else {
                        list.push(self.value()?);
                    }
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(c) if c == close => {}
                        _ => return Err(self.err("expected ',' or a closing bracket")),
                    }
                }
                self.i += 1;
                Ok(if open == b'{' {
                    Value::Rec(rec)
                } else {
                    Value::List(list)
                })
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(_) => {
                let start = self.i;
                let literal = |c: &u8| c.is_ascii_alphanumeric() || b"+-.".contains(c);
                while self.s.get(self.i).is_some_and(literal) {
                    self.i += 1;
                }
                let num = match std::str::from_utf8(&self.s[start..self.i]).unwrap_or("") {
                    "true" => Some(Value::Bool(true)),
                    "false" => Some(Value::Bool(false)),
                    "null" => Some(Value::Null),
                    t if t.contains(['.', 'e', 'E']) => t.parse().ok().map(Value::F64),
                    t if t.starts_with('-') => t.parse().ok().map(Value::I64),
                    t => t.parse().ok().map(Value::U64),
                };
                num.ok_or_else(|| self.err("bad literal"))
            }
            None => Err(self.err("unexpected end")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a string"));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            let c = *self.s.get(self.i).ok_or_else(|| self.err("open string"))?;
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|_| self.err("bad utf-8")),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or_else(|| self.err("open escape"))?;
                    self.i += 1;
                    let ch = match e {
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4);
                            self.i += 4;
                            hex.and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("bad \\u escape"))?
                        }
                        other => other as char, // `\"`, `\\`, `\/`
                    };
                    out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                }
                c => out.push(c),
            }
        }
    }
}

// ---------------------------------------------------------------- reports

/// The nearest ancestor of the current directory holding a `Cargo.lock`
/// (binaries may be run from the package directory), or the current
/// directory when there is none. Reports land here.
pub(crate) fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().expect("cwd");
    let mut dir = cwd.as_path();
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir.to_path_buf();
        }
        match dir.parent() {
            Some(p) => dir = p,
            None => return cwd,
        }
    }
}

/// Where campaign `name`'s report lives.
pub(crate) fn report_path(name: &str) -> PathBuf {
    workspace_root().join(format!("BENCH_{name}.json"))
}

/// First line of `cmd`'s output, or `unknown` (no toolchain, no checkout).
fn tool_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .current_dir(workspace_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// An empty report for `campaign`: the schema's head, stamped with the host
/// it was taken on. Cells and gates are appended by [`drive`].
pub(crate) fn new_report(campaign: &str, note: &str, workload: Record) -> Record {
    let host = Record::new()
        .with("host_cpus", desim::host_cpus())
        .with("rustc", tool_line("rustc", &["--version"]))
        .with(
            "git_rev",
            tool_line("git", &["describe", "--always", "--dirty", "--abbrev=12"]),
        );
    Record::new()
        .with("schema", SCHEMA)
        .with("campaign", campaign)
        .with("note", note)
        .with("host", host)
        .with("workload", workload)
}

/// One cell of a report. `sim` holds only what the simulation determines;
/// `host` only what the machine running it does.
pub fn cell_report(
    key: Record,
    sim: Record,
    host: Record,
    workers_identical: Option<bool>,
    violations: &[&str],
) -> Record {
    Record::new()
        .with("key", key)
        .with("sim", sim)
        .with("host", host)
        .with("workers_identical", workers_identical)
        .with("violations", violations.to_vec())
}

/// A whole report as the text of its file: the head and each cell's parts
/// one per line, everything deeper inline.
pub fn report_text(report: &Record) -> String {
    report.json_at(3, 0) + "\n"
}

/// Finish `head` with its cells and gates and write it as
/// `BENCH_<campaign>.json`.
pub(crate) fn write_report(head: Record, cells: Vec<Record>, gates: Vec<Record>) -> PathBuf {
    let report = head.with("cells", cells).with("gates", gates);
    let path = report_path(report.str("campaign"));
    std::fs::write(&path, report_text(&report))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    path
}

/// The committed report of campaign `name`, parsed.
pub fn read_report(name: &str) -> Result<Record, String> {
    let path = report_path(name);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    match parse(&text)? {
        Value::Rec(r) if r.get("schema") == Some(&Value::Str(SCHEMA.into())) => Ok(r),
        _ => Err(format!("{}: not a {SCHEMA} report", path.display())),
    }
}

/// The cells of a parsed report.
pub fn cells_of(report: &Record) -> impl Iterator<Item = &Record> {
    report.recs("cells")
}

/// The cell of `cells` whose key has every `(name, value)` in `want`.
pub fn find<'a>(cells: &'a [Record], want: &[(&str, Value)]) -> Option<&'a Record> {
    cells
        .iter()
        .find(|c| want.iter().all(|(k, v)| c.rec("key").get(k) == Some(v)))
}

/// Fields of a cell's `host` runs that the engine counts, not the machine:
/// the same on every host, but no simulated result either, so a change that
/// only spares the engine work (a spurious wake dropped) lowers them. The
/// smoke comparison lets them fall, and reports it, but not rise.
const ENGINE_COUNTS: [&str; 2] = ["events", "events_per_shard"];

/// The smoke comparison, in both directions: every freshly run cell must
/// exist in the committed report under the same key, with every field of its
/// `sim` equal there and no engine count (`ENGINE_COUNTS`) of a `host` run
/// above it; and every committed cell must still be a row of the campaign's
/// cell table (`table`: the key of every row, heavy ones too), so that
/// deleting or re-keying a row cannot drop a recorded number silently. Other
/// `host` fields are not looked at. Returns one message per difference, each
/// naming the campaign, the cell key and the field; an engine count that
/// fell is printed, not returned.
pub fn compare_sim(
    campaign: &str,
    table: &[Record],
    fresh: &[Record],
    committed: &[Record],
) -> Vec<String> {
    let mut diffs = Vec::new();
    for cell in fresh {
        let at = format!("{campaign} cell {{{}}}", cell.rec("key").line());
        let Some(old) = committed.iter().find(|c| c.rec("key") == cell.rec("key")) else {
            diffs.push(format!("{at}: not in the committed report"));
            continue;
        };
        for (k, v) in cell.rec("sim").fields() {
            let was = old.rec("sim").get(k);
            if was != Some(v) {
                let was = was.map_or("nothing".into(), Value::text);
                diffs.push(format!("{at} field {k}: ran {}, committed {was}", v.text()));
            }
        }
        for (run, host) in cell.rec("host").fields() {
            let Value::Rec(host) = host else { continue };
            for (k, v) in host.fields() {
                if !ENGINE_COUNTS.contains(&k.as_str()) {
                    continue;
                }
                let was = old.rec("host").rec(run).get(k);
                let field = format!("{at} field host.{run}.{k}: ran {}", v.text());
                let was_text = was.map_or("nothing".into(), Value::text);
                match was.and_then(|was| fell(v, was)) {
                    Some(true) => println!("{field}, committed {was_text}: fell"),
                    Some(false) => {}
                    None => diffs.push(format!("{field}, committed {was_text}")),
                }
            }
        }
    }
    for old in committed.iter().filter(|c| !table.contains(c.rec("key"))) {
        let key = old.rec("key").line();
        diffs.push(format!(
            "{campaign} cell {{{key}}}: committed, but no row of the cell table has this key"
        ));
    }
    diffs
}

/// Whether count `now` fell from `was` (`Some(false)`: equal), or `None`
/// when it rose or the two do not compare: a list compares entry by entry,
/// and falls when one entry falls and none rises.
fn fell(now: &Value, was: &Value) -> Option<bool> {
    match (now, was) {
        (Value::U64(now), Value::U64(was)) => (now <= was).then_some(now < was),
        (Value::List(now), Value::List(was)) if now.len() == was.len() => now
            .iter()
            .zip(was)
            .try_fold(false, |any, (n, w)| Some(any | fell(n, w)?)),
        _ => None,
    }
}

// ----------------------------------------------------------------- driver

/// What one run of one cell at one worker count observed.
#[derive(Default)]
pub struct Run {
    /// Simulated observations: identical on every host, at every worker
    /// count, on every run.
    pub(crate) sim: Record,
    /// Host measurements (wall clock, engine scheduling counters).
    pub(crate) host: Record,
    /// The merged trace as JSON, where the cell records one.
    pub(crate) trace: Option<String>,
    /// Named oracles this run violated.
    pub(crate) violations: Vec<&'static str>,
}

impl Run {
    /// A run that observed `sim` and violated `violations`; no host
    /// measurements, no trace.
    pub(crate) fn new(sim: Record, violations: Vec<&'static str>) -> Run {
        Run {
            sim,
            violations,
            ..Run::default()
        }
    }

    /// With host measurements.
    pub(crate) fn host(self, host: Record) -> Run {
        Run { host, ..self }
    }

    /// With the merged trace.
    pub(crate) fn trace(mut self, trace: String) -> Run {
        self.trace = Some(trace);
        self
    }
}

/// One row of a campaign's cell table.
pub struct Cell {
    /// The cell's parameters: what identifies it in the report.
    pub key: Record,
    /// Too slow for CI, or a wall clock it would only add noise to: `--smoke`
    /// skips it.
    pub(crate) heavy: bool,
    /// Worker counts to run at, in order; 0 is the sequential engine. The
    /// first run is the cell's record; the rest must match its `sim` and
    /// trace.
    pub(crate) workers: &'static [usize],
    /// Build the world, run it, report (argument: the worker count).
    pub(crate) run: Box<dyn Fn(usize) -> Run>,
}

impl Cell {
    /// A table row.
    pub(crate) fn new(
        key: Record,
        heavy: bool,
        workers: &'static [usize],
        run: impl Fn(usize) -> Run + 'static,
    ) -> Cell {
        let run = Box::new(run);
        Cell {
            key,
            heavy,
            workers,
            run,
        }
    }
}

/// A cross-cell acceptance gate.
pub struct Gate {
    /// What the gate demands, e.g. `innet >= 3x tree at fan-in >= 512`.
    pub name: &'static str,
    /// Evaluate over the cell reports of this run: whether it holds and the
    /// measured figure, or `None` when the cells it reads were not run
    /// (heavy ones under `--smoke`).
    pub check: fn(&[Record]) -> Option<(bool, String)>,
}

/// A campaign: data and `fn` pointers, nothing else.
pub struct Campaign {
    /// Name: the CLI argument and the `BENCH_<name>.json` stem.
    pub name: &'static str,
    /// One-line description, written into the report.
    pub(crate) note: &'static str,
    /// Wall-clock bound per cell, seconds: under `--smoke`, in a full sweep.
    pub(crate) watchdog_s: (u64, u64),
    /// State dump for a hung cell, run by the watchdog before it aborts.
    pub(crate) on_expiry: Option<fn()>,
    /// The workload constants, written into the report.
    pub(crate) workload: &'static [(&'static str, u64)],
    /// The cell table.
    pub cells: fn() -> Vec<Cell>,
    /// The cross-cell gates.
    pub gates: &'static [Gate],
}

/// Run `cell` at each of its worker counts and fold the runs into one cell
/// report: `sim` from the first, `host` per worker count (`seq` for the
/// sequential engine), and the `worker-determinism` oracle violated if any
/// later run's `sim` or trace differs.
fn run_cell(cell: &Cell) -> Record {
    let mut runs: Vec<Run> = cell.workers.iter().map(|&w| (cell.run)(w)).collect();
    let mut host = Record::new();
    for (&w, run) in cell.workers.iter().zip(&mut runs) {
        let label = if w == 0 {
            "seq".into()
        } else {
            format!("w{w}")
        };
        host = host.with(&label, std::mem::take(&mut run.host));
    }
    let first = runs.remove(0);
    let same = |r: &Run| r.sim == first.sim && r.trace == first.trace;
    let identical = (!runs.is_empty()).then(|| runs.iter().all(same));
    let mut violations = first.violations.clone();
    if identical == Some(false) {
        violations.push("worker-determinism");
    }
    cell_report(cell.key.clone(), first.sim, host, identical, &violations)
}

/// Run campaign `c`: the whole sweep (and write its report), or under
/// `smoke` every cell not marked heavy (and compare each `sim` with the
/// committed report instead). Returns what went wrong, one line each:
/// violated oracles, failed gates, smoke differences. Empty means green.
pub fn drive(c: &Campaign, smoke: bool) -> Vec<String> {
    let t0 = Instant::now();
    let bound = if smoke {
        c.watchdog_s.0
    } else {
        c.watchdog_s.1
    };
    let mut failures = Vec::new();
    let mut cells = Vec::new();
    let table = (c.cells)();
    for cell in table.iter().filter(|cell| !(smoke && cell.heavy)) {
        let r = with_watchdog(c.name, bound, c.on_expiry, || run_cell(cell));
        let bad = !r.list("violations").is_empty();
        if !smoke || bad {
            let (sim, host) = (r.rec("sim").line(), r.rec("host").line());
            println!("{} {{{}}}: {sim} | {host}", c.name, r.rec("key").line());
        }
        if bad {
            let names = Value::List(r.list("violations").to_vec()).text();
            failures.push(format!(
                "{} cell {{{}}}: violations {names}",
                c.name,
                r.rec("key").line()
            ));
        }
        cells.push(r);
    }
    let mut gates = Vec::new();
    for g in c.gates {
        let Some((ok, detail)) = (g.check)(&cells) else {
            continue;
        };
        println!(
            "{} gate [{}] {}: {detail}",
            c.name,
            g.name,
            if ok { "ok" } else { "FAILED" }
        );
        if !ok {
            failures.push(format!("{} gate [{}]: {detail}", c.name, g.name));
        }
        let gate = Record::new().with("name", g.name).with("ok", ok);
        gates.push(gate.with("detail", detail.as_str()));
    }
    let (n, n_gates) = (cells.len(), gates.len());
    if smoke {
        match read_report(c.name) {
            Ok(committed) => {
                let old: Vec<Record> = cells_of(&committed).cloned().collect();
                let keys: Vec<Record> = table.iter().map(|cell| cell.key.clone()).collect();
                failures.extend(compare_sim(c.name, &keys, &cells, &old));
            }
            Err(e) => failures.push(format!("{}: {e}", c.name)),
        }
    } else {
        let workload = c
            .workload
            .iter()
            .fold(Record::new(), |r, (k, v)| r.with(k, *v));
        let head = new_report(c.name, c.note, workload);
        println!("wrote {}", write_report(head, cells, gates).display());
    }
    println!(
        "{} {} {}: {n} cells, {} gates, {} failures, {:.1} s",
        c.name,
        if smoke { "smoke" } else { "sweep" },
        if failures.is_empty() { "OK" } else { "FAILED" },
        n_gates,
        failures.len(),
        t0.elapsed().as_secs_f64(),
    );
    failures
}

/// `n` host-time samples of `routine`, ns, after one warm-up call that is not
/// counted. Each sample times one call on a fresh input from `setup`, which
/// runs outside the timed region; what the routine returns is dropped inside
/// it, as the input it consumed is.
pub fn sample<I, O>(
    n: usize,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> O,
) -> Vec<u64> {
    std::hint::black_box(routine(setup()));
    let timed = |_| {
        let input = setup();
        let t0 = Instant::now();
        std::hint::black_box(routine(input));
        t0.elapsed().as_nanos() as u64
    };
    (0..n).map(timed).collect()
}

/// Host-time samples summarised, ns: the least, the upper median
/// (`sorted[n / 2]`) and the mean. Panics on no samples.
pub fn summary(samples_ns: &[u64]) -> Record {
    let mut s = samples_ns.to_vec();
    s.sort_unstable();
    let mean = s.iter().sum::<u64>() as f64 / s.len() as f64;
    Record::new()
        .with("min_ns", s[0])
        .with("median_ns", s[s.len() / 2])
        .with("mean_ns", mean)
}

/// Run `f` with a wall-clock watchdog: if it has not returned after `secs`,
/// say so, run `on_expiry` (a state dump, for campaigns that have one) and
/// abort loudly instead of hanging CI. This is the "run-to-idle terminates"
/// gate in executable form.
// The watchdog is a host timer beside the run, not a simulated process.
#[allow(clippy::disallowed_methods)]
pub(crate) fn with_watchdog<T>(
    campaign: &'static str,
    secs: u64,
    on_expiry: Option<fn()>,
    f: impl FnOnce() -> T,
) -> T {
    let (done, wait) = std::sync::mpsc::channel::<()>();
    std::thread::spawn(move || {
        // Dropping `done` disconnects the channel: the run returned.
        if wait.recv_timeout(Duration::from_secs(secs)) == Err(RecvTimeoutError::Timeout) {
            eprintln!("{campaign} campaign: watchdog expired after {secs}s — the run hung");
            if let Some(dump) = on_expiry {
                dump();
            }
            std::process::abort();
        }
    });
    let r = f();
    drop(done);
    r
}

// ------------------------------------------------------ what cells share

/// Append `$s`'s fields to `$rec` under their own names (prefixed), by a
/// destructuring that names every field: a counter added to the struct does
/// not compile here until it is listed — and then it is printed *and* saved.
macro_rules! counters {
    ($rec:ident, $prefix:literal, $s:expr, $ty:path: $($f:ident)*) => {
        let $ty { $($f,)* } = $s;
        $( $rec = $rec.with(concat!($prefix, stringify!($f)), *$f); )*
    };
}

/// `LinkStats` as record fields, with the mean the struct derives.
fn link_record(mut r: Record, s: &LinkStats) -> Record {
    counters!(r, "link_", s, LinkStats: dropped corrupted delayed down_drops downs shed flaps
              lat_min_ns lat_max_ns lat_sum_ns lat_count);
    r.with("link_lat_mean_ns", s.lat_mean_ns())
}

/// Every counter a world keeps, for one world or summed over the shards of
/// one machine: recovery statistics, fabric statistics, per-link fault
/// statistics (also merged into one), and the two occupancy high-water
/// marks (maxima, not sums).
#[derive(Default)]
pub struct Totals {
    /// Recovery counters.
    pub(crate) faults: FaultStats,
    /// Fabric scalar counters.
    pub(crate) net: hpcnet::Stats,
    /// Per-link fault counters, links that recorded anything only.
    pub(crate) links: BTreeMap<u32, LinkStats>,
    /// Largest port-link occupancy high-water mark, slots.
    pub(crate) depth_hwm: usize,
    /// Largest per-switch sheddable-byte high-water mark.
    pub(crate) bytes_hwm: u64,
}

impl Totals {
    /// Fold one world in.
    pub(crate) fn add(&mut self, w: &World) {
        self.faults += &w.faults.stats;
        self.net.merge_counters(&w.net.stats);
        for (l, s) in w.link_fault_stats() {
            self.links.entry(*l).or_default().merge(s);
        }
        self.depth_hwm = self.depth_hwm.max(w.net.max_port_link_depth_hwm());
        self.bytes_hwm = self.bytes_hwm.max(w.net.max_cluster_data_bytes_hwm());
    }

    /// The totals of one sequential world.
    pub(crate) fn of(w: &World) -> Totals {
        let mut t = Totals::default();
        t.add(w);
        t
    }

    /// The totals of a sharded machine, one shard lock at a time.
    pub(crate) fn over_shards(v: &VorxShardedSim) -> Totals {
        let mut t = Totals::default();
        for k in 0..v.n_shards() {
            t.add(&v.world(k));
        }
        t
    }

    /// All links merged into one: counts summed, latency min/mean/max over
    /// every delivered frame.
    pub(crate) fn all_links(&self) -> LinkStats {
        let mut all = LinkStats::default();
        self.links.values().for_each(|s| all.merge(s));
        all
    }

    /// Every counter as record fields.
    pub(crate) fn record(&self) -> Record {
        let mut r = Record::new();
        counters!(r, "", &self.faults, FaultStats: retransmits dups_suppressed corrupted_rx busy_sent
                  peer_down_events crashes restarts probes_sent partitions heals mgr_failovers
                  overload_rideouts table_rejects coll_retries);
        counters!(r, "", &self.net, hpcnet::Stats: frames_delivered payload_bytes_delivered
                  frames_sent frames_dropped frames_corrupted frames_rerouted frames_shed
                  frames_combined comb_flushes);
        link_record(r, &self.all_links())
            .with("depth_hwm", self.depth_hwm)
            .with("bytes_hwm", self.bytes_hwm)
    }

    /// One record per link that recorded anything, in link-id order.
    pub(crate) fn link_rows(&self) -> Vec<Record> {
        let active = self
            .links
            .iter()
            .filter(|(_, s)| **s != LinkStats::default());
        active
            .map(|(l, s)| link_record(Record::new().with("link", *l), s))
            .collect()
    }
}

/// What a machine's nodes own at quiescence, from its inspected parts
/// ([`invariants::inspect_shards`]): the most rows one node holds over every
/// world table, the rows all nodes hold, and the nodes owning nothing.
pub(crate) fn rows_record(parts: &[invariants::Part]) -> Record {
    let rows = || parts.iter().flat_map(|p| &p.busy).map(|&(_, r)| r);
    Record::new()
        .with("rows_max_node", rows().max().unwrap_or(0))
        .with("rows_total", rows().sum::<usize>())
        .with("idle_nodes", parts.iter().map(|p| p.idle).sum::<usize>())
}

/// Endpoints of cluster `c`, in address order.
pub fn nodes_of(t: &Topology, c: u32) -> Vec<NodeAddr> {
    t.endpoints()
        .filter(|&n| t.cluster_of(n) == ClusterId(c))
        .collect()
}

/// Both directed link ids of the cluster cable `a`–`b`. Link numbering is a
/// pure function of the topology, so `f` may be a throwaway probe fabric.
pub fn cable(f: &Fabric, (a, b): (u32, u32)) -> [u32; 2] {
    let dir = |x, y| f.cluster_link(ClusterId(x), ClusterId(y)).expect("wired").0;
    [dir(a, b), dir(b, a)]
}

/// A `len`-byte payload carrying its stream index in the first four bytes.
pub(crate) fn msg_payload(idx: u32, len: usize) -> Payload {
    let mut buf = vec![0u8; len];
    buf[..4].copy_from_slice(&idx.to_le_bytes());
    Payload::copy_from(&buf)
}

/// Recover the stream index from a [`msg_payload`].
pub(crate) fn index_of(p: &Payload) -> u32 {
    let b = p.bytes().expect("data payload");
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// A schedule seeded with `seed` that drops `loss` of the frames on every
/// link.
pub(crate) fn lossy(seed: u64, loss: f64) -> FaultSchedule {
    let s = FaultSchedule::new(seed);
    if loss > 0.0 {
        s.all_links(LinkFaults::loss(loss))
    } else {
        s
    }
}

/// How a sequential one-stream cell ends: the `msgs` indexed messages must
/// have reached the reader whole and in order (`got`), nothing may be left
/// parked (`idle`), and the world must pass the quiescence oracles. Returns
/// the verdict with every counter of the world as the start of the cell's
/// `sim` record, and the violations by name.
pub(crate) fn stream_verdict(
    w: &World,
    idle: &desim::IdleReport,
    got: &[u32],
    msgs: u32,
) -> (Record, Vec<&'static str>) {
    // A leaked waiter fails the cell; say which process it was.
    for (pid, name) in &idle.parked {
        eprintln!("parked: {pid:?} {name}");
    }
    let whole = got.iter().copied().eq(0..msgs);
    let leaked = idle.parked.len();
    let mut violations = vorx::invariants::check(w, 0);
    if !whole {
        violations.push("incomplete-stream");
    }
    if leaked > 0 {
        violations.push("leaked-waiters");
    }
    let totals = Totals::of(w);
    let sim = Record::new()
        .with("completed", whole && leaked == 0)
        .with("delivered", got.len())
        .with("leaked_waiters", leaked)
        .and(totals.record())
        .with("links", totals.link_rows());
    (sim, violations)
}

/// What the processes of [`streams`] (and any the caller adds beside them)
/// count as they go.
pub struct Streams {
    /// Messages delivered, all streams.
    pub(crate) delivered: Arc<AtomicU32>,
    /// Processes that ran to completion.
    pub(crate) done: Arc<AtomicU32>,
    /// Processes that must; callers add their own to it.
    pub(crate) expected_done: u32,
    fifo_ok: Arc<AtomicBool>,
}

/// Spawn one paced writer/reader pair per `(writer node, reader node, name)`
/// on `v`: the writer sleeps `pace_ns` before each of its `msgs` indexed
/// messages of `base_len` bytes (times the fault schedule's burst
/// amplification at that instant — a pure function of sim time); the reader
/// is the online oracle, checking every delivery for exactly-once FIFO
/// order the moment it lands.
pub fn streams(
    v: &VorxShardedSim,
    pairs: Vec<(NodeAddr, NodeAddr, String)>,
    msgs: u32,
    pace_ns: u64,
    base_len: u32,
) -> Streams {
    let s = Streams {
        delivered: Arc::default(),
        done: Arc::default(),
        expected_done: 2 * pairs.len() as u32,
        fifo_ok: Arc::new(AtomicBool::new(true)),
    };
    for (wn, rn, name) in pairs {
        let rname = name.clone();
        let (f_ok, del) = (Arc::clone(&s.fifo_ok), Arc::clone(&s.delivered));
        let (d1, d2) = (Arc::clone(&s.done), Arc::clone(&s.done));
        v.spawn_at(wn, format!("n{}:w:{name}", wn.0), move |ctx: VCtx| {
            let ch = channel::open(&ctx, wn, &name);
            for i in 0..msgs {
                ctx.sleep(SimDuration::from_ns(pace_ns));
                let amp = ctx.with(|w, s| w.faults.schedule.amplification(s.now().as_ns()));
                ch.write(&ctx, msg_payload(i, (base_len * amp.max(1)) as usize))
                    .expect("writer failed");
            }
            d1.fetch_add(1, Ordering::Relaxed);
        });
        v.spawn_at(rn, format!("n{}:r:{rname}", rn.0), move |ctx: VCtx| {
            let ch = channel::open(&ctx, rn, &rname);
            for expect in 0..msgs {
                let i = index_of(&ch.read(&ctx).expect("reader failed"));
                if i != expect {
                    f_ok.store(false, Ordering::Relaxed);
                }
                del.fetch_add(1, Ordering::Relaxed);
            }
            d2.fetch_add(1, Ordering::Relaxed);
        });
    }
    s
}

impl Streams {
    /// Messages delivered so far.
    pub(crate) fn delivered(&self) -> u32 {
        self.delivered.load(Ordering::Relaxed)
    }

    /// `fifo` (a stream delivered a message out of order, twice or not at
    /// all) and `stuck-process` (one never ran to completion), as far as
    /// they are violated.
    pub(crate) fn violations(&self) -> Vec<&'static str> {
        let mut v = Vec::new();
        if !self.fifo_ok.load(Ordering::Relaxed) {
            v.push("fifo");
        }
        if self.done.load(Ordering::Relaxed) != self.expected_done {
            v.push("stuck-process");
        }
        v
    }
}

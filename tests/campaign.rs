//! The campaign harness's record type and smoke comparison
//! (`vorx_bench::campaign`): what a report file can hold, that it reads back
//! as written, what `campaign --smoke` does and does not fail on, and how a
//! `wall-clock` cell samples and summarises host time. Then
//! the `paper` campaign's committed report: its published figures are the
//! constants, its gates hold and can fail, and EXPERIMENTS.md quotes it.

use std::time::Duration;

use vorx_bench::campaign::{
    cell_report, cells_of, compare_sim, find, parse, read_report, report_text, sample, summary,
    Record, Value, SCHEMA,
};
use vorx_bench::campaigns::paper::{self, TABLE1_BUFS, TABLE1_PAPER, TABLE2_PAPER, TABLE_SIZES};

#[test]
fn record_keeps_insertion_order_in_both_outputs() {
    let r = Record::new().with("zeta", 1u64).with("alpha", true);
    let r = r.with("mid", Value::Null).with("neg", -3i64);
    assert_eq!(
        r.json(),
        r#"{ "zeta": 1, "alpha": true, "mid": null, "neg": -3 }"#
    );
    assert_eq!(r.line(), "zeta=1 alpha=true mid=- neg=-3");
    assert_eq!(parse(&r.json()), Ok(Value::Rec(r)));
}

#[test]
fn strings_are_escaped_once_and_read_back() {
    let s = "a \"quoted\" back\\slash\nnew\tline \u{1} é";
    let r = Record::new().with("s", s);
    assert_eq!(
        r.json(),
        r#"{ "s": "a \"quoted\" back\\slash\nnew\tline \u0001 é" }"#
    );
    assert_eq!(parse(&r.json()), Ok(Value::Rec(r)));
}

#[test]
fn nested_lists_and_records_round_trip() {
    let inner = Record::new().with("link", 3u32).with("lat", vec![1u64, 2]);
    let r = Record::new()
        .with("rows", vec![inner.clone(), inner])
        .with("grid", vec![vec![1u64], vec![]])
        .with("f", 0.5);
    assert_eq!(
        r.json(),
        r#"{ "rows": [{ "link": 3, "lat": [1, 2] }, { "link": 3, "lat": [1, 2] }], "grid": [[1], []], "f": 0.5 }"#
    );
    assert_eq!(
        r.line(),
        "rows=[{link=3 lat=[1,2]},{link=3 lat=[1,2]}] grid=[[1],[]] f=0.5"
    );
    assert_eq!(parse(&r.json()), Ok(Value::Rec(r)));
}

#[test]
fn u64_above_2_pow_53_prints_exactly_and_floats_stay_floats() {
    let big = (1u64 << 53) + 1;
    let r = Record::new().with("big", big).with("max", u64::MAX);
    let r = r.with("whole", 523.0).with("tiny", 1e-9);
    assert_eq!(
        r.json(),
        r#"{ "big": 9007199254740993, "max": 18446744073709551615, "whole": 523.0, "tiny": 1e-9 }"#
    );
    assert_eq!(parse(&r.json()), Ok(Value::Rec(r)));
}

fn cell(seed: u64, elapsed: u64, wall: f64) -> Record {
    cell_report(
        Record::new().with("loss", 0.05).with("seed", seed),
        Record::new().with("elapsed_ns", elapsed).with("ok", true),
        Record::new().with("seq", Record::new().with("wall_s", wall)),
        None,
        &[],
    )
}

#[test]
fn smoke_comparison_reads_sim_only_and_names_what_moved() {
    let committed = [cell(1, 100, 0.5), cell(2, 200, 0.5)];
    let table: Vec<Record> = (1..=3)
        .map(|s| cell(s, 0, 0.0).rec("key").clone())
        .collect();
    // Equal sim passes, whatever the host object says.
    let same = [cell(1, 100, 9.9), cell(2, 200, 0.1)];
    assert_eq!(
        compare_sim("faults", &table, &same, &committed),
        Vec::<String>::new()
    );
    // One changed field fails, naming campaign, cell key and field.
    let moved = [cell(1, 100, 0.5), cell(2, 201, 0.5)];
    let diffs = compare_sim("faults", &table, &moved, &committed);
    assert_eq!(diffs.len(), 1, "{diffs:?}");
    for part in ["faults", "loss=0.05 seed=2", "elapsed_ns", "201", "200"] {
        assert!(diffs[0].contains(part), "{part} not in {:?}", diffs[0]);
    }
    // A cell the committed report lacks fails; one it has beyond those run
    // (a heavy cell under `--smoke`) does not.
    let extra = [cell(1, 100, 0.5), cell(2, 200, 0.5), cell(3, 300, 0.5)];
    let diffs = compare_sim("faults", &table, &extra, &committed);
    assert!(diffs.len() == 1 && diffs[0].contains("seed=3"), "{diffs:?}");
    assert!(compare_sim("faults", &table, &committed[..1], &committed).is_empty());
}

#[test]
fn smoke_comparison_fails_for_a_committed_cell_the_table_dropped() {
    // Row 2 was deleted from the cell table (or re-keyed): nothing run
    // differs from the committed report, and the recorded number is gone.
    let committed = [cell(1, 100, 0.5), cell(2, 200, 0.5)];
    let table = [cell(1, 0, 0.0).rec("key").clone()];
    let diffs = compare_sim("faults", &table, &committed[..1], &committed);
    assert_eq!(diffs.len(), 1, "{diffs:?}");
    for part in ["faults", "loss=0.05 seed=2", "no row of the cell table"] {
        assert!(diffs[0].contains(part), "{part} not in {:?}", diffs[0]);
    }
}

#[test]
fn a_report_file_expands_three_levels_and_parses_back() {
    let head = Record::new().with("schema", SCHEMA).with("campaign", "t");
    let report = head.with("cells", vec![cell(1, 100, 0.5)]);
    let text = report_text(&report);
    assert!(text.contains("\n      \"sim\": { \"elapsed_ns\": 100, \"ok\": true },\n"));
    assert_eq!(parse(&text), Ok(Value::Rec(report)));
}

#[test]
fn a_damaged_report_is_an_error_not_a_panic() {
    for bad in [
        "",
        "{",
        "{ \"a\" 1 }",
        "{ \"a\": 1,, }",
        "[1, 2",
        "{ \"a\": 1 } x",
        "{ \"a\": \"open }",
        "{ \"a\": \"bad \\u12\" }",
        "{ \"a\": 1.2.3 }",
        "{ \"a\": -x }",
        "{ \"a\": 99999999999999999999999 }",
    ] {
        assert!(parse(bad).is_err(), "{bad:?} parsed");
    }
}

// -------------------------------------------------------------- host time

#[test]
fn summary_is_min_upper_median_and_mean() {
    let odd = summary(&[50, 10, 30]);
    assert_eq!(
        odd.json(),
        r#"{ "min_ns": 10, "median_ns": 30, "mean_ns": 30.0 }"#
    );
    // An even count takes the upper of the two middle samples.
    let even = summary(&[40, 10, 30, 20]);
    assert_eq!(
        even.json(),
        r#"{ "min_ns": 10, "median_ns": 30, "mean_ns": 25.0 }"#
    );
    let one = summary(&[7]);
    assert_eq!((one.u64("min_ns"), one.u64("median_ns")), (7, 7));
}

#[test]
fn sampling_drops_the_warm_up_call_and_times_only_the_routine() {
    let (mut setups, mut calls) = (0, 0);
    let samples = sample(
        5,
        || {
            setups += 1;
            // Untimed: a slow setup must not show in any sample.
            std::thread::sleep(Duration::from_millis(100));
        },
        |()| {
            calls += 1;
            // Only the first call, the warm-up, is slow.
            if calls == 1 {
                std::thread::sleep(Duration::from_millis(100));
            }
        },
    );
    assert_eq!((setups, calls, samples.len()), (6, 6, 5));
    assert!(
        samples.iter().all(|&ns| ns < 50_000_000),
        "a sample holds the warm-up or the setup: {samples:?}"
    );
}

// ------------------------------------------------------ the paper campaign

/// The cells of the committed `BENCH_paper.json`.
fn paper_cells() -> (Record, Vec<Record>) {
    let report = read_report("paper").expect("committed paper report");
    let cells = cells_of(&report).cloned().collect();
    (report, cells)
}

#[test]
fn paper_figures_are_the_published_tables() {
    let (_, cells) = paper_cells();
    let paper = |claim: &str, row: String| {
        let key = [("claim", claim.into()), ("row", row.as_str().into())];
        let cell = find(&cells, &key).unwrap_or_else(|| panic!("no {row}"));
        cell.rec("sim").f64("paper")
    };
    for (r, bufs) in TABLE1_BUFS.into_iter().enumerate() {
        for (c, len) in TABLE_SIZES.into_iter().enumerate() {
            let row = format!("{bufs}-buffer window, {len} B");
            assert_eq!(paper("T1", row), TABLE1_PAPER[r][c], "{bufs} x {len}");
        }
    }
    for (c, len) in TABLE_SIZES.into_iter().enumerate() {
        assert_eq!(paper("T2", format!("{len} B")), TABLE2_PAPER[c], "{len}");
    }
    // Table 1 x 28, Table 2 x 4, 1027 kB/s, 12 s and 2 s, 3.2 MB/s and
    // 30 fps, 60 us, 80 us.
    let published = cells.iter().filter(|c| c.rec("sim").get("paper").is_some());
    assert_eq!(published.count(), 39);
    // The committed cells are the table's rows, in its order.
    let table: Vec<Record> = (paper::CAMPAIGN.cells)()
        .into_iter()
        .map(|c| c.key)
        .collect();
    let committed: Vec<Record> = cells.iter().map(|c| c.rec("key").clone()).collect();
    assert_eq!(committed, table);
}

/// `cells` with `field` of cell `{claim, row}` set to `v`.
fn doctored(cells: &[Record], claim: &str, row: &str, field: &str, v: Value) -> Vec<Record> {
    let key = Record::new().with("claim", claim).with("row", row);
    let doctor = |c: &Record| {
        if *c.rec("key") != key {
            return c.clone();
        }
        assert!(c.rec("sim").get(field).is_some(), "{row} has no {field}");
        let set = |r: Record, (k, old): &(String, Value)| {
            r.with(k, if k == field { v.clone() } else { old.clone() })
        };
        let sim = c.rec("sim").fields().iter().fold(Record::new(), set);
        cell_report(key.clone(), sim, Record::new(), None, &[])
    };
    let out: Vec<Record> = cells.iter().map(doctor).collect();
    assert_ne!(out, cells, "no cell {claim} / {row}");
    out
}

#[test]
fn paper_gates_hold_on_the_committed_cells_and_each_can_fail() {
    let (report, cells) = paper_cells();
    // Perturbations, one or more per gate: gate (its index), claim, row,
    // field, value. Where a gate demands several things of a claim, each
    // doctoring breaks one of them and leaves the others true.
    const F1_ROW: &str = "spanning application, 2 workstations + 8 nodes";
    const LOCKED_OUT: &str = "busy-retry, 11 senders x 20 x 1024 B";
    const SHARED: &str = "one node shared with another user";
    let doctorings: [(usize, &str, &str, &str, Value); 21] = [
        (0, "T1", "4-buffer window, 1024 B", "ours", 4000.0.into()),
        (1, "T1", "4-buffer window, 1024 B", "ours", 4000.0.into()),
        (2, "T1+T2", "100 msgs/cell", "mean_err_pct", 9.6.into()),
        (3, "T1", "2-buffer window, 64 B", "ours", 400.0.into()),
        (3, "T1", "64-buffer window, 256 B", "ours", 450.0.into()),
        (4, "E-SPICE", "raw 64 B one-way", "ours", 70.0.into()),
        (5, "F1", F1_ROW, "items", 159u64.into()),
        (6, "E-SNET", LOCKED_OUT, "completed", true.into()),
        (
            7,
            "E-DL",
            "shared stub + tree, 70 nodes",
            "ours",
            3.0.into(),
        ),
        (8, "E-OPEN", "64 nodes, 64 opens", "ours", 2.0.into()),
        (
            8,
            "E-OPEN",
            "4 nodes, 4 opens",
            "centralized_ms",
            0.5.into(),
        ),
        (
            8,
            "E-OPEN",
            "4 nodes, 4 opens",
            "managers_used",
            1u64.into(),
        ),
        (9, "E-FFT", "64x64 on 32 nodes", "verified", false.into()),
        (10, "E-CTX", "coroutines (CEMU style)", "ours", 50.0.into()),
        (
            10,
            "E-CTX",
            "subprocesses + semaphores",
            "ours",
            150.0.into(),
        ),
        (11, "ABL", "free context switches", "ours", 230.0.into()),
        (
            12,
            "E-ALLOC",
            "VORX explicit allocation",
            "ours",
            1u64.into(),
        ),
        (13, "E-SHARE", "exclusive nodes", "skew_ms", 0.5.into()),
        (13, "E-SHARE", SHARED, "ours", 9.0.into()),
        (
            14,
            "E-RAPPORT",
            "5 conferees, 15 fps video",
            "deadline_misses",
            1u64.into(),
        ),
        (
            15,
            "E-SCALE",
            "1024 endpoints, 256 x 4",
            "max_us",
            40.0.into(),
        ),
    ];
    let gates = paper::CAMPAIGN.gates;
    let committed: Vec<&Record> = report.recs("gates").collect();
    for (i, gate) in gates.iter().enumerate() {
        // Untouched, the gate holds, and the report records this verdict.
        let (ok, detail) = (gate.check)(&cells).expect("every paper cell is light");
        assert!(ok, "[{}] fails on the committed cells: {detail}", gate.name);
        let recorded = Record::new().with("name", gate.name).with("ok", true);
        assert_eq!(*committed[i], recorded.with("detail", detail.as_str()));
        assert!(
            doctorings.iter().any(|d| d.0 == i),
            "[{}] is never doctored",
            gate.name
        );
    }
    for (i, claim, row, field, v) in doctorings {
        // Doctored, the gate fails and says where.
        let name = gates[i].name;
        assert!(
            name.split(':').next().unwrap().contains(claim),
            "[{name}] is not about {claim}"
        );
        let cells = doctored(&cells, claim, row, field, v);
        let (ok, detail) = (gates[i].check)(&cells).expect("every paper cell is light");
        assert!(!ok, "[{name}] holds with {row} {field} doctored");
        assert!(detail.contains(row), "[{name}]: {row} not in {detail:?}");
    }
}

/// A number of the report as EXPERIMENTS.md shows it.
fn shown(v: &Value) -> String {
    match v {
        Value::F64(x) if x.abs() >= 100.0 => format!("{x:.1}"),
        Value::F64(x) if x.abs() >= 1.0 => format!("{x:.2}"),
        Value::F64(x) => format!("{x:.3}"),
        Value::List(l) => {
            let items: Vec<String> = l.iter().map(shown).collect();
            format!("[{}]", items.join(","))
        }
        other => other.text(),
    }
}

/// The paper half of EXPERIMENTS.md, rendered from the committed report:
/// one row per cell — claim, row, the paper's figure, ours, the error, what
/// the run also observed — then the gates (how many hold, each one that does
/// not by name) and the mean and worst |error| of the Table 1 and 2 rows.
fn experiments_table(report: &Record) -> String {
    let mut out = String::from(
        "| claim | row | paper | ours | error | also observed |\n|---|---|---:|---:|---:|---|\n",
    );
    let mut table_errs = Vec::new();
    for cell in cells_of(report) {
        let (key, sim) = (cell.rec("key"), cell.rec("sim"));
        let (claim, row, unit) = (key.str("claim"), key.str("row"), sim.str("unit"));
        let with_unit = |k| {
            sim.get(k)
                .map_or("—".into(), |v| format!("{} {unit}", shown(v)))
        };
        let error = match (sim.get("err_pct"), sim.get("mean_err_pct")) {
            (Some(Value::F64(e)), _) => format!("{e:+.1} %"),
            (_, Some(Value::F64(e))) => format!("mean {e:.4} %"),
            _ => "—".into(),
        };
        if ["T1", "T2"].contains(&claim) {
            table_errs.push((sim.f64("err_pct").abs(), format!("{claim} {row}")));
        }
        let shown_apart = ["unit", "paper", "ours", "err_pct", "mean_err_pct"];
        let also = sim.fields().iter();
        let also = also.filter(|(k, _)| !shown_apart.contains(&k.as_str()));
        let also: Vec<String> = also.map(|(k, v)| format!("{k}={}", shown(v))).collect();
        out += &format!(
            "| {claim} | {row} | {} | {} | {error} | {} |\n",
            with_unit("paper"),
            with_unit("ours"),
            also.join(" "),
        );
    }
    let failed = |g: &&Record| g.get("ok") != Some(&Value::Bool(true));
    let failed: Vec<&str> = report
        .recs("gates")
        .filter(failed)
        .map(|g| g.str("name"))
        .collect();
    let mean = table_errs.iter().map(|e| e.0).sum::<f64>() / table_errs.len() as f64;
    let (worst, at) = table_errs
        .iter()
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .expect("Table 1");
    out += &format!(
        "\n{} gates, {} FAILED{}. Tables 1 + 2, {} cells: mean |error| {mean:.4} %, worst {worst:.1} % at {at}.\n",
        report.list("gates").len(),
        failed.len(),
        failed.iter().map(|name| format!(" [{name}]")).collect::<String>(),
        table_errs.len(),
    );
    out
}

#[test]
fn experiments_md_quotes_bench_paper_json() {
    const BEGIN: &str = "<!-- BENCH_paper.json, rendered by tests/campaign.rs: begin -->\n";
    const END: &str = "<!-- BENCH_paper.json: end -->\n";
    let (report, _) = paper_cells();
    let want = experiments_table(&report);
    let md = std::fs::read_to_string("EXPERIMENTS.md").expect("EXPERIMENTS.md");
    let quoted = md
        .split_once(BEGIN)
        .and_then(|(_, rest)| rest.split_once(END));
    let quoted = quoted.map(|(block, _)| block).unwrap_or_default();
    assert!(
        quoted == want,
        "EXPERIMENTS.md does not quote BENCH_paper.json; between\n{BEGIN}and\n{END}paste:\n\n{want}"
    );
}

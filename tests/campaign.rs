//! The campaign harness's record type and smoke comparison
//! (`vorx_bench::campaign`): what a report file can hold, that it reads back
//! as written, and what `campaign --smoke` does and does not fail on.

use vorx_bench::campaign::{cell_report, compare_sim, parse, report_text, Record, Value, SCHEMA};

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
    // Equal sim passes, whatever the host object says.
    let same = [cell(1, 100, 9.9), cell(2, 200, 0.1)];
    assert_eq!(
        compare_sim("faults", &same, &committed),
        Vec::<String>::new()
    );
    // One changed field fails, naming campaign, cell key and field.
    let moved = [cell(1, 100, 0.5), cell(2, 201, 0.5)];
    let diffs = compare_sim("faults", &moved, &committed);
    assert_eq!(diffs.len(), 1, "{diffs:?}");
    for part in ["faults", "loss=0.05 seed=2", "elapsed_ns", "201", "200"] {
        assert!(diffs[0].contains(part), "{part} not in {:?}", diffs[0]);
    }
    // A cell the committed report lacks fails; one it has beyond those run
    // (a heavy cell under `--smoke`) does not.
    let extra = [cell(1, 100, 0.5), cell(2, 200, 0.5), cell(3, 300, 0.5)];
    let diffs = compare_sim("faults", &extra, &committed);
    assert!(diffs.len() == 1 && diffs[0].contains("seed=3"), "{diffs:?}");
    assert!(compare_sim("faults", &committed[..1], &committed).is_empty());
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

//! Allocation accounting on [`Trace::merge`]: the merge moves events and
//! splices whole runs — it must not clone event vectors. Budget: one
//! allocation for the output vector (sized up front) plus one for the
//! per-part iterator table; a single non-empty input passes through with
//! zero allocations.

use desim::{SimTime, Trace};

#[path = "common/alloc_meter.rs"]
mod alloc_meter;

/// A shard-shaped trace: long runs of local activity, timestamps striped so
/// traces interleave at the merge points.
fn shard_trace(shard: u64, runs: u64, run_len: u64) -> Trace<u64> {
    let mut t = Trace::new();
    for r in 0..runs {
        for i in 0..run_len {
            // Run r of shard s occupies [r * 1000 + s * 100, ... + run_len).
            t.record(SimTime::from_ns(r * 1000 + shard * 100 + i), shard);
        }
    }
    t
}

#[test]
fn merging_one_trace_allocates_nothing() {
    let traces = vec![shard_trace(0, 4, 64)];
    let len = traces[0].len();
    let before = alloc_meter::calls();
    let merged = Trace::merge(traces);
    let after = alloc_meter::calls();
    assert_eq!(merged.len(), len);
    assert_eq!(
        after - before,
        0,
        "single-trace merge must return the input vector as-is"
    );
}

#[test]
fn merge_allocates_a_constant_number_of_vectors() {
    let traces: Vec<Trace<u64>> = (0..8).map(|s| shard_trace(s, 16, 32)).collect();
    let total: usize = traces.iter().map(Trace::len).sum();
    let event_bytes = (total * std::mem::size_of::<(SimTime, u64)>()) as u64;

    let allocs_before = alloc_meter::calls();
    let bytes_before = alloc_meter::bytes();
    let merged = Trace::merge(traces);
    let allocs = alloc_meter::calls() - allocs_before;
    let bytes = alloc_meter::bytes() - bytes_before;

    assert_eq!(merged.len(), total);
    assert!(
        allocs <= 2,
        "merge of 8 traces made {allocs} allocations; budget is 2 \
         (output vector + iterator table)"
    );
    assert!(
        bytes <= event_bytes + 1024,
        "merge allocated {bytes} bytes for {event_bytes} bytes of events; \
         it must not clone event vectors"
    );

    // And the result is still globally time-ordered (the splice fast path
    // must not reorder).
    let mut last = SimTime::ZERO;
    for (t, _) in merged.iter() {
        assert!(t >= last, "merged trace out of order");
        last = t;
    }
}

//! Never-panic properties of the history ledger parser: arbitrary bytes
//! and every truncation of a valid line either parse or are skipped
//! and counted, and every non-blank line is one or the other. Older
//! rows that carry keys the schema no longer writes still parse.

use proptest::prelude::*;
use tsv3d_bench::history::{parse_ledger, HistoryRecord};

/// A valid ledger line with every optional field present.
fn valid_line(median_ns: f64, threads: u64) -> String {
    HistoryRecord {
        kind: "bench".to_string(),
        case: "anneal_quick_3x3".to_string(),
        git_rev: "abc1234".to_string(),
        unix_time_s: 1_754_400_000,
        median_ns,
        p95_ns: Some(median_ns * 1.25),
        alloc_bytes_per_iter: Some(4096.0),
        threads,
        available_parallelism: Some(2),
    }
    .to_json_line()
}

#[test]
fn an_experiment_run_row_with_its_wall_time_still_parses() {
    // Verbatim, as experiment binaries appended it: the total wall time
    // is a key the schema no longer writes.
    let line = "{\"schema\":\"tsv3d-history/v1\",\"kind\":\"run\",\
                \"case\":\"fig3_gaussian\",\"git_rev\":\"c26e2ca\",\
                \"unix_time_s\":1754400000,\"median_ns\":2500000000,\
                \"wall_s\":2.5,\"threads\":1,\"available_parallelism\":2}";
    let ledger = parse_ledger(line);
    assert_eq!((ledger.records.len(), ledger.skipped), (1, 0));
    assert_eq!(ledger.records[0].kind, "run");
    assert_eq!(ledger.records[0].median_ns, 2.5e9);
}

proptest! {
    #[test]
    fn arbitrary_bytes_are_parsed_or_counted(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let ledger = parse_ledger(&String::from_utf8_lossy(&bytes));
        prop_assert_eq!(ledger.lines, ledger.records.len() + ledger.skipped);
        for record in &ledger.records {
            prop_assert!(record.median_ns.is_finite());
        }
    }

    #[test]
    fn corrupted_lines_are_parsed_or_counted(
        at in 0usize..1000,
        byte in any::<u8>(),
        median in 1.0f64..1e9,
    ) {
        let mut bytes = valid_line(median, 4).into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        let ledger = parse_ledger(&String::from_utf8_lossy(&bytes));
        prop_assert_eq!(ledger.lines, ledger.records.len() + ledger.skipped);
    }

    #[test]
    fn truncated_lines_are_skipped_and_counted(
        median in 1.0f64..1e9,
        threads in 1u64..64,
        cut in 0usize..1000,
        repeat in 1usize..4,
    ) {
        let line = valid_line(median.round(), threads);
        let cut = cut % (line.len() + 1);
        let text = format!("{}\n{}", format!("{line}\n").repeat(repeat), &line[..cut]);
        let ledger = parse_ledger(&text);
        prop_assert_eq!(ledger.lines, ledger.records.len() + ledger.skipped);
        // Only the whole line parses; any strict prefix is malformed.
        let whole = usize::from(cut == line.len());
        prop_assert_eq!(ledger.records.len(), repeat + whole);
        prop_assert_eq!(ledger.skipped, usize::from(cut > 0) - whole);
        prop_assert_eq!(ledger.records[0].threads, threads);
    }
}

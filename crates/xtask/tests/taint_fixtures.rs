//! End-to-end tests of the workspace taint pass against the mini
//! workspaces under `tests/fixtures/taint/` (each case directory is a
//! self-contained root with its own `crates/` tree; the files are
//! data, not compile targets).
//!
//! The headline case, `known_flow`, is the acceptance criterion for
//! the v2 analysis: peer bytes read in `app::serve` cross a crate
//! boundary into `codec::decode_header`, whose indexing and
//! `.unwrap()` panic on short input. A per-file scan of the entry
//! point finds nothing — the sink file was never in any configured
//! path list — while the call-graph pass reports the sink with a
//! root→sink flow trace.

use std::path::{Path, PathBuf};
use xtask::config::{self, Config};
use xtask::rules::Finding;

fn case_root(case: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/taint").join(case)
}

/// The workspace-pass config: R1 at deny level, no configured paths —
/// everything reported comes from the call-graph derivation.
fn r1_cfg() -> Config {
    config::parse("[rules.r1-panic-freedom]\nlevel = \"deny\"\n").expect("config parses")
}

fn live(findings: &[Finding]) -> Vec<&Finding> {
    findings.iter().filter(|f| f.is_live()).collect()
}

#[test]
fn cross_crate_flow_is_found_with_a_trace() {
    let report = xtask::run(&case_root("known_flow"), &r1_cfg(), false).unwrap();
    assert!(report.failed, "{:?}", report.findings);
    let live = live(&report.findings);
    assert!(!live.is_empty());
    assert!(live.iter().all(|f| f.rule == "r1-panic-freedom"), "{live:?}");
    // Every sink sits in the codec crate, not the entry-point file.
    assert!(
        live.iter().all(|f| f.file == "crates/codec/src/lib.rs"),
        "{live:?}"
    );
    let unwrap = live
        .iter()
        .find(|f| f.message.contains(".unwrap()"))
        .expect("peer-reachable unwrap is reported");
    // The flow trace walks root → sink across the crate boundary.
    assert!(unwrap.trace.len() >= 2, "{:?}", unwrap.trace);
    assert!(
        unwrap.trace[0].contains("serve") && unwrap.trace[0].contains("read_exact"),
        "{:?}",
        unwrap.trace
    );
    assert!(
        unwrap.trace.last().unwrap().contains("decode_header"),
        "{:?}",
        unwrap.trace
    );
    // Findings carry stable IDs and positions.
    assert!(live.iter().all(|f| f.id.starts_with("S2L-") && f.col > 0));
}

/// The acceptance check for v2: the old per-file token scan of the
/// entry-point file reports nothing (it holds no panic token), so a
/// path-scoped config that lists only the transport file misses the
/// flow entirely. The workspace pass above catches it.
#[test]
fn per_file_scan_of_the_entry_point_misses_the_cross_crate_flow() {
    let entry = case_root("known_flow").join("crates/app/src/lib.rs");
    let text = std::fs::read_to_string(entry).unwrap();
    let scanned = xtask::lexer::scan(&text);
    let mut findings = Vec::new();
    xtask::rules::run_rule(
        "r1-panic-freedom",
        "crates/app/src/lib.rs",
        &scanned,
        &mut findings,
    );
    assert!(
        findings.is_empty(),
        "per-file scan should see nothing here: {findings:?}"
    );
}

#[test]
fn cross_module_helper_flow_is_found() {
    let report = xtask::run(&case_root("cross_module"), &r1_cfg(), false).unwrap();
    assert!(report.failed, "{:?}", report.findings);
    let live = live(&report.findings);
    assert!(
        live.iter().any(|f| f.file == "crates/app2/src/frame.rs"
            && f.message.contains("slice index computed from peer input")
            && f.message.contains("payload_at")),
        "{live:?}"
    );
    let fdg = live.iter().find(|f| f.message.contains("payload_at")).unwrap();
    assert!(fdg.trace.iter().any(|s| s.contains("serve")), "{:?}", fdg.trace);
}

/// The shape of `s2_runtime::codec`: every hop from the socket read to
/// the allocation is trait dispatch. The uncapped generic `Vec<T>`
/// decoder draws the alloc finding with the full flow; its capped twin
/// — and the real codec, reached the same way — do not.
#[test]
fn generic_codec_alloc_is_found_through_trait_dispatch() {
    let report = xtask::run(&case_root("generic_codec"), &r1_cfg(), false).unwrap();
    assert!(report.failed, "{:?}", report.findings);
    let live = live(&report.findings);
    assert_eq!(live.len(), 1, "{live:?}");
    let f = live[0];
    assert_eq!(f.file, "crates/loose/src/lib.rs");
    assert!(
        f.rule == "r1-panic-freedom" && f.message.contains("with_capacity sized by peer-controlled"),
        "{f:?}"
    );
    assert!(
        f.trace[0].contains("recv") && f.trace.iter().any(|s| s.contains("from_bytes")),
        "{:?}",
        f.trace
    );

    // The real one: the taint pass reaches the crate's one
    // `with_capacity(cap(n))` and finds nothing to report there.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = xtask::index::build(&root).unwrap();
    let analysis = xtask::taint::analyze(&ws);
    let take_seq = ws
        .fns
        .iter()
        .position(|f| f.name == "take_seq" && f.impl_type.as_deref() == Some("Wire"))
        .expect("s2_runtime::codec::Wire::take_seq is indexed");
    assert!(analysis.active.contains(&take_seq), "peer bytes must reach take_seq");
    let codec_file = ws.fns[take_seq].file;
    assert!(
        analysis.findings.iter().all(|f| f.file != codec_file),
        "{:?}",
        analysis.findings
    );
}

#[test]
fn validated_flow_stays_clean() {
    let report = xtask::run(&case_root("validation_killed"), &r1_cfg(), false).unwrap();
    assert!(!report.failed, "{:?}", report.findings);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn justified_pragma_suppresses_a_taint_finding_but_reports_it() {
    let report = xtask::run(&case_root("pragma_suppressed"), &r1_cfg(), false).unwrap();
    assert!(!report.failed, "{:?}", report.findings);
    let suppressed: Vec<&Finding> = report
        .findings
        .iter()
        .filter(|f| f.rule == "r1-panic-freedom" && !f.is_live())
        .collect();
    assert_eq!(suppressed.len(), 1, "{:?}", report.findings);
    assert!(suppressed[0]
        .suppressed_by
        .as_deref()
        .unwrap()
        .contains("four-byte stack array"));
}

#[test]
fn clean_corpus_produces_no_findings() {
    let report = xtask::run(&case_root("known_clean"), &r1_cfg(), false).unwrap();
    assert!(!report.failed, "{:?}", report.findings);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn json_output_carries_the_flow_trace() {
    let report = xtask::run(&case_root("known_flow"), &r1_cfg(), false).unwrap();
    let json = xtask::render_json(&report);
    assert!(json.contains("\"trace\":[\""), "{json}");
    assert!(json.contains("serve"), "{json}");
    assert!(json.contains("decode_header"), "{json}");
}

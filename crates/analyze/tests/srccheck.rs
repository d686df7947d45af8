//! Integration tests for the `rbcheck` engine: each seeded fixture under
//! `tests/fixtures/` trips exactly the intended rule, the clean fixture
//! trips nothing, and the seeded drift tree fails `run_check` end to end
//! the same way the CI `static-check` job requires.

use rb_analyze::check::{apply_conformance_allow, diff_file, lint_file, ConformanceAllow};
use rb_analyze::{run_check, scan_source, CheckConfig, CheckKind};
use rb_proto::ProtocolSpec;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// The spec the conformance fixtures are diffed against.
const FIX_SPEC: ProtocolSpec = ProtocolSpec {
    actor: "fixture",
    sends: &["Ctl::ProbeReply"],
    handles: &["Ctl::Probe", "Ctl::Stop"],
    requests: &[],
};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Diff one fixture against [`FIX_SPEC`] and assert every finding is of
/// the one expected kind (at least one finding required).
fn assert_only(name: &str, expected: CheckKind) {
    let facts = scan_source(&fixture(name));
    let findings = diff_file(name, &facts, &[&FIX_SPEC]);
    assert!(
        !findings.is_empty(),
        "{name}: expected {expected:?} findings"
    );
    for f in &findings {
        assert_eq!(
            f.kind,
            expected,
            "{name}: unexpected finding {}",
            f.render()
        );
    }
}

#[test]
fn clean_fixture_has_zero_findings() {
    let facts = scan_source(&fixture("clean.rs"));
    let findings = diff_file("clean.rs", &facts, &[&FIX_SPEC]);
    assert!(
        findings.is_empty(),
        "clean fixture flagged:\n{}",
        findings
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn undeclared_send_is_caught() {
    assert_only("undeclared_send.rs", CheckKind::UndeclaredSend);
}

#[test]
fn phantom_send_is_caught() {
    assert_only("phantom_send.rs", CheckKind::PhantomSend);
}

#[test]
fn dropped_match_arm_is_caught() {
    assert_only("dropped_arm.rs", CheckKind::DroppedHandler);
}

#[test]
fn undeclared_handle_is_caught() {
    assert_only("undeclared_handle.rs", CheckKind::UndeclaredHandle);
}

#[test]
fn std_hash_is_caught_in_hot_path_crates_only() {
    let facts = scan_source(&fixture("std_hash.rs"));
    let hot = lint_file("crates/broker/src/fixture.rs", &facts);
    assert!(!hot.is_empty());
    assert!(hot.iter().all(|f| f.kind == CheckKind::StdHashInHotPath));
    // The same source in a non-hot-path crate is fine.
    assert!(lint_file("crates/obs/src/fixture.rs", &facts).is_empty());
}

#[test]
fn wallclock_is_caught_in_sim_crates_only() {
    let facts = scan_source(&fixture("wallclock.rs"));
    let sim = lint_file("crates/workloads/src/fixture.rs", &facts);
    assert!(!sim.is_empty());
    assert!(sim.iter().all(|f| f.kind == CheckKind::WallClockInSim));
    assert!(lint_file("crates/bench/src/fixture.rs", &facts).is_empty());
}

#[test]
fn println_is_caught_in_library_code() {
    let facts = scan_source(&fixture("println_fixture.rs"));
    let findings = lint_file("crates/obs/src/fixture.rs", &facts);
    assert!(!findings.is_empty());
    assert!(findings.iter().all(|f| f.kind == CheckKind::PrintlnInLib));
}

#[test]
fn shared_state_is_caught_in_behavior_crates_only() {
    let facts = scan_source(&fixture("shared_state.rs"));
    let behavior = lint_file("crates/parsys/src/fixture.rs", &facts);
    assert!(behavior
        .iter()
        .all(|f| f.kind == CheckKind::SharedStateInBehavior));
    let lines: Vec<u32> = behavior.iter().map(|f| f.line).collect();
    assert_eq!(lines, [5, 6, 9, 10, 11]);
    assert!(lint_file("crates/workloads/src/fixture.rs", &facts).is_empty());
}

#[test]
fn stale_allowlist_entry_is_reported() {
    // An allow entry for a scanned file that suppresses nothing must
    // surface as stale rather than rot silently.
    let allow = [ConformanceAllow {
        file: "clean.rs",
        kind: CheckKind::UndeclaredSend,
        variant: "Ctl::GrowHint",
        why: "fixture: intentionally useless entry",
    }];
    let scanned: BTreeSet<String> = ["clean.rs".to_string()].into_iter().collect();
    let out = apply_conformance_allow(Vec::new(), &allow, &scanned);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].kind, CheckKind::StaleAllow);
    // The same entry against an unscanned file stays silent (the fixture
    // tree simply doesn't contain it).
    let out = apply_conformance_allow(Vec::new(), &allow, &BTreeSet::new());
    assert!(out.is_empty());
}

/// The end-to-end check the CI `static-check` job replicates with
/// `rbcheck --root tests/fixtures/drift_tree --allow-missing`: the seeded
/// tree must fail, with every seeded rule represented.
#[test]
fn drift_tree_fails_with_all_seeded_rules() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/drift_tree");
    let mut cfg = CheckConfig::new(root);
    cfg.allow_missing = true;
    let findings = run_check(&cfg).expect("scan succeeds");
    let kinds: BTreeSet<CheckKind> = findings.iter().map(|f| f.kind).collect();
    for expected in [
        CheckKind::UndeclaredSend,
        CheckKind::PhantomSend,
        CheckKind::UndeclaredHandle,
        CheckKind::DroppedHandler,
        CheckKind::StdHashInHotPath,
        CheckKind::WallClockInSim,
        CheckKind::PrintlnInLib,
        CheckKind::SharedStateInBehavior,
    ] {
        assert!(
            kinds.contains(&expected),
            "drift tree missing {expected:?}; got:\n{}",
            findings
                .iter()
                .map(|f| f.render())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

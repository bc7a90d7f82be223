//! Golden tests: each fixture mini-crate under `tests/fixtures/` is
//! linted with its own `lint.toml` and the rendered report must match
//! the checked-in `expected.txt` byte for byte.
//!
//! The fixtures prove both directions of every rule family: the
//! `*_bad` crates show the rules *fire* on violating code (with the
//! exact messages, line numbers, and taint-chain notes pinned), and
//! `clean` shows they stay *quiet* on well-behaved code.
#![forbid(unsafe_code)]

use std::path::PathBuf;

use pisa_lint::{parse_config, run_lint, LevelOverrides};

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Lints one fixture with `--deny all` semantics and compares the
/// rustc-style rendering against its golden file.
fn check_fixture(name: &str) {
    let root = fixture_root(name);
    let cfg_src = std::fs::read_to_string(root.join("lint.toml"))
        .unwrap_or_else(|e| panic!("fixture {name}: read lint.toml: {e}"));
    let cfg = parse_config(&cfg_src).unwrap_or_else(|e| panic!("fixture {name}: parse: {e}"));
    let levels = LevelOverrides {
        deny: vec!["all".to_string()],
        warn: Vec::new(),
    };
    let report = run_lint(&root, &cfg, &levels);
    let rendered = report.render_text();
    let expected = std::fs::read_to_string(root.join("expected.txt"))
        .unwrap_or_else(|e| panic!("fixture {name}: read expected.txt: {e}"));
    assert_eq!(
        rendered, expected,
        "fixture {name}: report drifted from golden expected.txt\n\
         --- got ---\n{rendered}\n--- want ---\n{expected}"
    );
}

#[test]
fn secret_bad_fires_all_hygiene_rules() {
    check_fixture("secret_bad");
}

#[test]
fn panic_bad_fires_all_panic_rules() {
    check_fixture("panic_bad");
}

#[test]
fn branch_bad_fires_taint_tracking() {
    check_fixture("branch_bad");
}

#[test]
fn convention_bad_fires_convention_rules() {
    check_fixture("convention_bad");
}

#[test]
fn lock_bad_fires_inversion_and_poisoning() {
    check_fixture("lock_bad");
}

#[test]
fn blocking_bad_fires_direct_and_interprocedural() {
    check_fixture("blocking_bad");
}

#[test]
fn flow_bad_fires_laundered_taint() {
    check_fixture("flow_bad");
}

#[test]
fn dead_api_bad_fires_on_uncalled_public_fns() {
    check_fixture("dead_api_bad");
}

/// Functions that only tests reach are listed with their callers, not
/// reported; on a single-crate layout the rule does not run at all.
#[test]
fn dead_api_lists_test_only_fns_with_their_callers() {
    let root = fixture_root("dead_api_bad");
    let cfg = parse_config(&std::fs::read_to_string(root.join("lint.toml")).unwrap()).unwrap();
    let report = run_lint(&root, &cfg, &LevelOverrides::default());
    let listed: Vec<(&str, Vec<&str>)> = report
        .test_only
        .as_ref()
        .expect("dead-api runs on a workspace layout")
        .iter()
        .map(|t| {
            (
                t.name.as_str(),
                t.callers.iter().map(String::as_str).collect(),
            )
        })
        .collect();
    assert_eq!(
        listed,
        vec![
            ("only_in_macro_test", vec!["crates/app/tests/it.rs:3"]),
            ("only_unit_tested", vec!["crates/app/src/lib.rs::unit"]),
            ("decode", vec!["crates/app/tests/it.rs::decodes"]),
        ]
    );
    let clean = fixture_root("clean");
    let cfg = parse_config(&std::fs::read_to_string(clean.join("lint.toml")).unwrap()).unwrap();
    assert!(run_lint(&clean, &cfg, &LevelOverrides::default())
        .test_only
        .is_none());
}

/// Reports are byte-stable: two runs over the same tree render
/// identical text and JSON, regardless of directory-walk or hash-map
/// iteration order inside the engine.
#[test]
fn reports_are_deterministic_across_runs() {
    for name in ["lock_bad", "blocking_bad", "flow_bad", "secret_bad"] {
        let root = fixture_root(name);
        let cfg = parse_config(&std::fs::read_to_string(root.join("lint.toml")).unwrap()).unwrap();
        let levels = LevelOverrides {
            deny: vec!["all".to_string()],
            warn: Vec::new(),
        };
        let a = run_lint(&root, &cfg, &levels);
        let b = run_lint(&root, &cfg, &levels);
        assert_eq!(
            a.render_text(),
            b.render_text(),
            "fixture {name}: text rendering drifted between identical runs"
        );
        assert_eq!(
            a.render_json(),
            b.render_json(),
            "fixture {name}: JSON rendering drifted between identical runs"
        );
    }
}

#[test]
fn clean_fixture_is_quiet() {
    check_fixture("clean");
    // Belt and braces: the clean fixture must have zero findings, not
    // merely match a golden that happens to contain findings.
    let root = fixture_root("clean");
    let cfg = parse_config(&std::fs::read_to_string(root.join("lint.toml")).unwrap()).unwrap();
    let report = run_lint(&root, &cfg, &LevelOverrides::default());
    assert_eq!(report.deny_count(), 0);
    assert_eq!(report.warn_count(), 0);
    assert_eq!(report.allowed_count(), 0);
}

/// `--warn` downgrades findings without hiding them; `--deny` wins
/// when both name a rule.
#[test]
fn warn_override_downgrades_without_hiding() {
    let root = fixture_root("convention_bad");
    let cfg = parse_config(&std::fs::read_to_string(root.join("lint.toml")).unwrap()).unwrap();
    let levels = LevelOverrides {
        deny: Vec::new(),
        warn: vec!["all".to_string()],
    };
    let report = run_lint(&root, &cfg, &levels);
    assert_eq!(
        report.deny_count(),
        0,
        "warn-all must leave no deny findings"
    );
    assert_eq!(
        report.warn_count(),
        4,
        "all four findings survive as warnings"
    );

    let levels = LevelOverrides {
        deny: vec!["conventions".to_string()],
        warn: vec!["all".to_string()],
    };
    let report = run_lint(&root, &cfg, &levels);
    assert_eq!(report.deny_count(), 4, "--deny re-upgrades past --warn all");
}

/// The allowed finding in `panic_bad` (a justified inline allow) is
/// visible in the JSON report even though the text rendering hides it.
#[test]
fn panic_bad_allowed_finding_survives_in_json() {
    let root = fixture_root("panic_bad");
    let cfg = parse_config(&std::fs::read_to_string(root.join("lint.toml")).unwrap()).unwrap();
    let report = run_lint(&root, &cfg, &LevelOverrides::default());
    assert_eq!(report.allowed_count(), 1);
    let json = report.render_json();
    assert!(
        json.contains("\"allowed\":1"),
        "JSON must count the suppressed finding: {json}"
    );
    assert!(
        json.contains("v is a header field checked < 16"),
        "JSON must carry the allow reason: {json}"
    );
}

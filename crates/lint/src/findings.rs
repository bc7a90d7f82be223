//! Finding and report types, with rustc-style text rendering and a JSON
//! report built on `pisa-obs`'s JSON writer.

use std::fmt::Write as _;

use pisa_obs::json::Value;

use crate::rules::dead_api::TestOnly;

/// All rule families, in the order they run.
pub const RULES: [&str; 9] = [
    "secret-hygiene",
    "panic-freedom",
    "secret-branching",
    "conventions",
    "lock-discipline",
    "blocking-call",
    "secret-flow",
    "dead-allow",
    "dead-api",
];

/// Severity a finding is reported at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Reported but does not fail the run.
    Warn,
    /// Fails the run (non-zero exit).
    Deny,
}

/// One diagnostic produced by a rule.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule family name (one of [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Main message.
    pub message: String,
    /// Supporting notes (e.g. the taint chain), printed as `note:` lines.
    pub notes: Vec<String>,
    /// Severity after applying CLI overrides.
    pub level: Level,
    /// If suppressed by an allowlist entry, the recorded reason.
    pub allowed: Option<String>,
}

/// The result of a full lint run.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Files that failed to parse (path, error) — reported as warnings.
    pub parse_failures: Vec<(String, String)>,
    /// Public fns that only tests call; `None` when the dead-api rule
    /// did not run (a single-crate layout).
    pub test_only: Option<Vec<TestOnly>>,
}

impl Report {
    /// Active (non-suppressed) findings at deny level.
    pub fn deny_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.allowed.is_none() && f.level == Level::Deny)
            .count()
    }

    /// Active (non-suppressed) findings at warn level.
    pub fn warn_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.allowed.is_none() && f.level == Level::Warn)
            .count()
    }

    /// Number of findings suppressed by allowlists.
    pub fn allowed_count(&self) -> usize {
        self.findings.iter().filter(|f| f.allowed.is_some()).count()
    }

    /// Renders rustc-style diagnostics followed by a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            if f.allowed.is_some() {
                continue;
            }
            let head = match f.level {
                Level::Deny => "error",
                Level::Warn => "warning",
            };
            let _ = writeln!(out, "{head}[{}]: {}", f.rule, f.message);
            let _ = writeln!(out, "  --> {}:{}", f.file, f.line);
            for n in &f.notes {
                let _ = writeln!(out, "  note: {n}");
            }
        }
        for (file, err) in &self.parse_failures {
            let _ = writeln!(out, "warning[parse]: could not parse {file}: {err}");
        }
        let _ = writeln!(
            out,
            "pisa-lint: {} file(s) scanned, {} error(s), {} warning(s), {} allowed",
            self.files_scanned,
            self.deny_count(),
            self.warn_count(),
            self.allowed_count(),
        );
        out
    }

    /// Renders the full report (including suppressed findings) as JSON.
    pub fn render_json(&self) -> String {
        let text = |s: &str| Value::Str(s.to_string());
        let texts = |v: &[String]| Value::Arr(v.iter().map(|s| text(s)).collect());
        let num = |n: usize| Value::from_u64(n as u64);
        let findings = self.findings.iter().map(|f| {
            let level = match f.level {
                Level::Deny => "deny",
                Level::Warn => "warn",
            };
            Value::object(vec![
                ("rule", text(f.rule)),
                ("file", text(&f.file)),
                ("line", Value::from_u64(f.line.into())),
                ("level", text(level)),
                ("message", text(&f.message)),
                ("notes", texts(&f.notes)),
                ("allowed", f.allowed.as_deref().map_or(Value::Null, text)),
            ])
        });
        let test_only = self.test_only.as_ref().map_or(Value::Null, |fns| {
            let fns = fns.iter().map(|t| {
                Value::object(vec![
                    ("fn", text(&t.name)),
                    ("file", text(&t.file)),
                    ("line", Value::from_u64(t.line.into())),
                    ("callers", texts(&t.callers)),
                ])
            });
            Value::Arr(fns.collect())
        });
        let mut out = Value::object(vec![
            ("files_scanned", num(self.files_scanned)),
            ("errors", num(self.deny_count())),
            ("warnings", num(self.warn_count())),
            ("allowed", num(self.allowed_count())),
            ("findings", Value::Arr(findings.collect())),
            ("test_only", test_only),
        ])
        .to_json();
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            findings: vec![
                Finding {
                    rule: "panic-freedom",
                    file: "crates/core/src/wire.rs".into(),
                    line: 10,
                    message: "`.unwrap()` in message-handling path".into(),
                    notes: vec!["convert to a ProtocolError variant".into()],
                    level: Level::Deny,
                    allowed: None,
                },
                Finding {
                    rule: "conventions",
                    file: "crates/cli/src/main.rs".into(),
                    line: 1,
                    message: "missing #![forbid(unsafe_code)]".into(),
                    notes: vec![],
                    level: Level::Deny,
                    allowed: Some("legacy \"quoted\" reason".into()),
                },
            ],
            files_scanned: 2,
            parse_failures: vec![],
            test_only: None,
        }
    }

    #[test]
    fn text_hides_allowed_and_counts() {
        let r = sample();
        let text = r.render_text();
        assert!(text.contains("error[panic-freedom]"));
        assert!(!text.contains("conventions"));
        assert!(text.contains("1 error(s), 0 warning(s), 1 allowed"));
    }

    #[test]
    fn json_includes_allowed_and_escapes() {
        let r = sample();
        let json = r.render_json();
        assert!(json.contains("\"rule\":\"conventions\""));
        assert!(json.contains("legacy \\\"quoted\\\" reason"));
        assert!(json.contains("\"allowed\":null"));
        let parsed = Value::parse(&json).unwrap();
        assert_eq!(parsed.get("allowed").and_then(Value::as_u64), Some(1));
        assert_eq!(parsed.get("test_only"), Some(&Value::Null));
    }
}

//! `lint.toml` parsing and serialization.
//!
//! The build environment is offline, so this is a hand-rolled parser for
//! the small TOML subset the lint configuration needs: `[section]`
//! tables, `[[allow]]` array-of-tables, string values, and (possibly
//! multi-line) arrays of strings. Unknown keys are rejected so typos in
//! the config fail loudly instead of silently disabling a rule.

use std::fmt::Write as _;

/// One file-level suppression from the `[[allow]]` array. A non-empty
/// `reason` is mandatory — unexplained allowlist entries defeat the
/// point of the gate.
#[derive(Debug, Clone, Eq)]
pub struct AllowEntry {
    /// Rule name the entry suppresses, or `"all"`.
    pub rule: String,
    /// Workspace-relative path prefix the entry applies to.
    pub file: String,
    /// Human explanation (mandatory).
    pub reason: String,
    /// 1-based line of the `[[allow]]` header in `lint.toml` (0 for
    /// programmatically-built configs; excluded from equality so the
    /// serialize round-trip stays exact).
    pub line: u32,
}

impl PartialEq for AllowEntry {
    fn eq(&self, other: &Self) -> bool {
        self.rule == other.rule && self.file == other.file && self.reason == other.reason
    }
}

/// Parsed lint configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Config {
    /// Type names treated as secret even without a `pisa_secret` marker.
    pub secret_types: Vec<String>,
    /// Secret types exempt from the zeroize-on-drop requirement (e.g.
    /// `Copy` enums that cannot implement `Drop`).
    pub zeroize_exempt: Vec<String>,
    /// Path prefixes where the panic-freedom rule applies.
    pub panic_paths: Vec<String>,
    /// Path prefixes where the secret-branching rule applies.
    pub branching_paths: Vec<String>,
    /// Path prefixes where the lock-discipline and blocking-call rules
    /// apply (the threaded service surface).
    pub locks_paths: Vec<String>,
    /// Extra taint seeds as `"fn_name.param_name"` pairs.
    pub branching_secret_params: Vec<String>,
    /// Crate path prefixes allowed to use `#![deny(unsafe_code)]` plus
    /// scoped `#[allow(unsafe_code)]` instead of a blanket forbid.
    pub unsafe_exempt: Vec<String>,
    /// Crate path prefixes where `println!`-family output is expected.
    pub print_exempt: Vec<String>,
    /// File-level suppressions.
    pub allows: Vec<AllowEntry>,
}

/// Parses the TOML subset described in the module docs.
pub fn parse_config(src: &str) -> Result<Config, String> {
    let mut cfg = Config::default();
    let mut section = String::new();

    // Pre-pass: join multi-line arrays into single logical lines.
    let lines = join_multiline_arrays(src)?;

    for (lineno, line) in lines {
        let line = strip_comment(&line);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("[[") {
            let name = rest
                .strip_suffix("]]")
                .ok_or_else(|| format!("line {lineno}: malformed table header"))?
                .trim();
            if name != "allow" {
                return Err(format!("line {lineno}: unknown array-of-tables [[{name}]]"));
            }
            cfg.allows.push(AllowEntry {
                rule: String::new(),
                file: String::new(),
                reason: String::new(),
                line: lineno as u32,
            });
            section = "allow".to_string();
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or_else(|| format!("line {lineno}: malformed section header"))?
                .trim();
            section = name.to_string();
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
        let key = key.trim();
        let value = value.trim();
        match (section.as_str(), key) {
            ("secret", "types") => cfg.secret_types = parse_array(value, lineno)?,
            ("secret", "zeroize_exempt") => cfg.zeroize_exempt = parse_array(value, lineno)?,
            ("panic", "paths") => cfg.panic_paths = parse_array(value, lineno)?,
            ("branching", "paths") => cfg.branching_paths = parse_array(value, lineno)?,
            ("branching", "secret_params") => {
                cfg.branching_secret_params = parse_array(value, lineno)?
            }
            ("locks", "paths") => cfg.locks_paths = parse_array(value, lineno)?,
            ("conventions", "unsafe_exempt") => cfg.unsafe_exempt = parse_array(value, lineno)?,
            ("conventions", "print_exempt") => cfg.print_exempt = parse_array(value, lineno)?,
            ("allow", "rule") => last_allow(&mut cfg, lineno)?.rule = parse_string(value, lineno)?,
            ("allow", "file") => last_allow(&mut cfg, lineno)?.file = parse_string(value, lineno)?,
            ("allow", "reason") => {
                last_allow(&mut cfg, lineno)?.reason = parse_string(value, lineno)?
            }
            (s, k) => return Err(format!("line {lineno}: unknown key `{k}` in section [{s}]")),
        }
    }

    for (i, a) in cfg.allows.iter().enumerate() {
        if a.rule.is_empty() || a.file.is_empty() {
            return Err(format!("[[allow]] entry #{} missing rule or file", i + 1));
        }
        if a.reason.trim().is_empty() {
            return Err(format!(
                "[[allow]] entry for {} ({}) has no reason — a reason is mandatory",
                a.file, a.rule
            ));
        }
    }
    Ok(cfg)
}

/// Serializes a [`Config`] back to TOML. `parse_config(&serialize(&c))`
/// reproduces `c` exactly (the round-trip test relies on this).
pub fn serialize_config(cfg: &Config) -> String {
    let mut out = String::new();
    let arr = |items: &[String]| {
        let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
        format!("[{}]", quoted.join(", "))
    };
    let _ = writeln!(out, "[secret]");
    let _ = writeln!(out, "types = {}", arr(&cfg.secret_types));
    let _ = writeln!(out, "zeroize_exempt = {}", arr(&cfg.zeroize_exempt));
    let _ = writeln!(out, "\n[panic]");
    let _ = writeln!(out, "paths = {}", arr(&cfg.panic_paths));
    let _ = writeln!(out, "\n[branching]");
    let _ = writeln!(out, "paths = {}", arr(&cfg.branching_paths));
    let _ = writeln!(out, "secret_params = {}", arr(&cfg.branching_secret_params));
    let _ = writeln!(out, "\n[locks]");
    let _ = writeln!(out, "paths = {}", arr(&cfg.locks_paths));
    let _ = writeln!(out, "\n[conventions]");
    let _ = writeln!(out, "unsafe_exempt = {}", arr(&cfg.unsafe_exempt));
    let _ = writeln!(out, "print_exempt = {}", arr(&cfg.print_exempt));
    for a in &cfg.allows {
        let _ = writeln!(out, "\n[[allow]]");
        let _ = writeln!(out, "rule = \"{}\"", a.rule);
        let _ = writeln!(out, "file = \"{}\"", a.file);
        let _ = writeln!(out, "reason = \"{}\"", a.reason);
    }
    out
}

fn last_allow(cfg: &mut Config, lineno: usize) -> Result<&mut AllowEntry, String> {
    cfg.allows
        .last_mut()
        .ok_or_else(|| format!("line {lineno}: key outside any [[allow]] table"))
}

/// Strips a trailing `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> String {
    let mut out = String::new();
    let mut in_str = false;
    let mut prev = '\0';
    for c in line.chars() {
        if c == '"' && prev != '\\' {
            in_str = !in_str;
        }
        if c == '#' && !in_str {
            break;
        }
        out.push(c);
        prev = c;
    }
    out
}

/// Joins lines so every logical line has balanced `[` / `]` outside of
/// strings. Returns (first-physical-line-number, joined-text) pairs.
fn join_multiline_arrays(src: &str) -> Result<Vec<(usize, String)>, String> {
    let mut out: Vec<(usize, String)> = Vec::new();
    let mut buf = String::new();
    let mut start = 0usize;
    let mut depth = 0i32;
    for (i, raw) in src.lines().enumerate() {
        let line = strip_comment(raw);
        if buf.is_empty() {
            start = i + 1;
        } else {
            buf.push(' ');
        }
        buf.push_str(line.trim());
        let mut in_str = false;
        let mut prev = '\0';
        for c in line.chars() {
            match c {
                '"' if prev != '\\' => in_str = !in_str,
                '[' if !in_str => depth += 1,
                ']' if !in_str => depth -= 1,
                _ => {}
            }
            prev = c;
        }
        // Section headers like [secret] balance within the line, so only
        // value arrays can leave depth positive here.
        if depth <= 0 {
            if !buf.trim().is_empty() {
                out.push((start, std::mem::take(&mut buf)));
            } else {
                buf.clear();
            }
            depth = 0;
        }
    }
    if depth > 0 {
        return Err(format!("line {start}: unterminated array"));
    }
    if !buf.trim().is_empty() {
        out.push((start, buf));
    }
    Ok(out)
}

fn parse_string(value: &str, lineno: usize) -> Result<String, String> {
    let v = value.trim();
    v.strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(|s| s.to_string())
        .ok_or_else(|| format!("line {lineno}: expected a double-quoted string, got `{v}`"))
}

fn parse_array(value: &str, lineno: usize) -> Result<Vec<String>, String> {
    let v = value.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("line {lineno}: expected an array, got `{v}`"))?;
    let mut out = Vec::new();
    for part in split_top_level(inner) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(parse_string(part, lineno)?);
    }
    Ok(out)
}

/// Splits on commas outside of strings.
fn split_top_level(s: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    let mut prev = '\0';
    for c in s.chars() {
        match c {
            '"' if prev != '\\' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => parts.push(std::mem::take(&mut cur)),
            _ => cur.push(c),
        }
        prev = c;
    }
    parts.push(cur);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# secret-hygiene configuration
[secret]
types = ["PaillierSecretKey", "RsaKeyPair"]
zeroize_exempt = ["SignFlip"]

[panic]
paths = [
    "crates/core/src/wire.rs",   # frame decode
    "crates/crypto/src",
]

[branching]
paths = ["crates/crypto/src"]
secret_params = ["pow.exp"]

[locks]
paths = ["crates/net/src"]

[conventions]
unsafe_exempt = ["crates/bigint"]
print_exempt = ["crates/cli"]

[[allow]]
rule = "panic-freedom"
file = "crates/core/src/protocol.rs"
reason = "reference path kept panicking by design"
"#;

    #[test]
    fn parses_sample() {
        let cfg = parse_config(SAMPLE).unwrap();
        assert_eq!(cfg.secret_types.len(), 2);
        assert_eq!(cfg.panic_paths.len(), 2);
        assert_eq!(cfg.panic_paths[1], "crates/crypto/src");
        assert_eq!(cfg.locks_paths, vec!["crates/net/src"]);
        assert_eq!(cfg.allows.len(), 1);
        assert_eq!(cfg.allows[0].rule, "panic-freedom");
        assert!(cfg.allows[0].line > 0);
    }

    #[test]
    fn reason_is_mandatory() {
        let bad = "[[allow]]\nrule = \"x\"\nfile = \"y\"\n";
        let err = parse_config(bad).unwrap_err();
        assert!(err.contains("reason"), "{err}");
    }

    #[test]
    fn unknown_key_rejected() {
        let bad = "[secret]\ntypos = [\"x\"]\n";
        assert!(parse_config(bad).is_err());
    }

    #[test]
    fn round_trip() {
        let cfg = parse_config(SAMPLE).unwrap();
        let re = parse_config(&serialize_config(&cfg)).unwrap();
        assert_eq!(cfg, re);
    }
}

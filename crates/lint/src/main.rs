//! CLI entry point: `pisa-lint [--root DIR] [--config FILE]
//! [--deny RULES] [--warn RULES] [--json FILE] [--quiet]`.
//!
//! `RULES` is a comma-separated list of rule names or `all`. All rules
//! default to deny; `--warn` downgrades, `--deny` re-upgrades. Exits
//! non-zero when any non-suppressed deny-level finding remains.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use pisa_lint::{parse_config, run_lint, Config, LevelOverrides, RULES};

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("pisa-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let mut root: Option<PathBuf> = None;
    let mut config_path: Option<PathBuf> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut levels = LevelOverrides::default();
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = Some(PathBuf::from(need(&mut args, "--root")?)),
            "--config" => config_path = Some(PathBuf::from(need(&mut args, "--config")?)),
            "--json" => json_path = Some(PathBuf::from(need(&mut args, "--json")?)),
            "--deny" => levels
                .deny
                .extend(parse_rules(&need(&mut args, "--deny")?)?),
            "--warn" => levels
                .warn
                .extend(parse_rules(&need(&mut args, "--warn")?)?),
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }

    let root = match root {
        Some(r) => r,
        None => find_workspace_root()?,
    };
    let config_path = config_path.unwrap_or_else(|| root.join("lint.toml"));
    let cfg: Config = if config_path.exists() {
        let text = std::fs::read_to_string(&config_path)
            .map_err(|e| format!("reading {}: {e}", config_path.display()))?;
        parse_config(&text).map_err(|e| format!("{}: {e}", config_path.display()))?
    } else {
        return Err(format!(
            "no lint.toml found at {} (pass --config)",
            config_path.display()
        ));
    };

    let report = run_lint(&root, &cfg, &levels);

    if let Some(path) = json_path {
        std::fs::write(&path, report.render_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    if !quiet {
        print!("{}", report.render_text());
    }
    Ok(if report.deny_count() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

const USAGE: &str = "\
usage: pisa-lint [options]
  --root DIR     workspace root (default: nearest ancestor with lint.toml)
  --config FILE  lint config (default: <root>/lint.toml)
  --deny RULES   comma-separated rules (or `all`) to fail the run on
  --warn RULES   comma-separated rules (or `all`) to report without failing
  --json FILE    also write a JSON report
  --quiet        suppress text output (exit code only)

rules: secret-hygiene, panic-freedom, secret-branching, conventions,
       lock-discipline, blocking-call, secret-flow, dead-allow, dead-api";

fn need(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_rules(list: &str) -> Result<Vec<String>, String> {
    list.split(',')
        .map(|r| {
            let r = r.trim();
            if r == "all" || RULES.contains(&r) {
                Ok(r.to_string())
            } else {
                Err(format!("unknown rule `{r}` (see --help)"))
            }
        })
        .collect()
}

/// Walks up from the current directory to the nearest `lint.toml`.
fn find_workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        if dir.join("lint.toml").exists() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err("no lint.toml in any ancestor directory (pass --root)".to_string());
        }
    }
}

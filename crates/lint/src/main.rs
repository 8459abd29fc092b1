//! The `pwnd-lint` binary: lint the workspace, print findings, gate CI.
//!
//! ```text
//! cargo run -p pwnd-lint --            # report findings, exit 0
//! cargo run -p pwnd-lint -- --deny     # exit 1 if any finding (CI gate)
//! cargo run -p pwnd-lint -- --json     # machine-readable report
//! cargo run -p pwnd-lint -- --rule hash-order --rule wall-clock
//! cargo run -p pwnd-lint -- --list-rules
//! ```

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
pwnd-lint: workspace determinism & invariant linter

USAGE:
    pwnd-lint [OPTIONS]

OPTIONS:
    --deny            exit 1 when any finding survives suppression (CI gate)
    --json            emit the report as JSON
    --root DIR        lint the workspace rooted at DIR (default: discovered
                      from the current directory)
    --rule ID         check only this rule (repeatable)
    --list-rules      print every rule id and its contract, then exit
    -h, --help        show this help

Suppress a finding at its site, with a mandatory reason:
    // lint:allow(rule-id): why this is safe
A trailing comment applies to its own line; a comment on its own line
applies to the next line. Unknown rules and missing reasons are
`bad-allow` findings; directives that suppress nothing are
`unused-allow`.
";

struct Args {
    deny: bool,
    json: bool,
    root: Option<PathBuf>,
    rules: BTreeSet<String>,
    list_rules: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        deny: false,
        json: false,
        root: None,
        rules: BTreeSet::new(),
        list_rules: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny" => args.deny = true,
            "--json" => args.json = true,
            "--list-rules" => args.list_rules = true,
            "--root" => {
                let d = it.next().ok_or("--root needs a directory")?;
                args.root = Some(PathBuf::from(d));
            }
            "--rule" => {
                let r = it.next().ok_or("--rule needs a rule id")?;
                if !pwnd_lint::rules::is_known_rule(&r) {
                    return Err(format!("unknown rule `{r}` (see --list-rules)"));
                }
                args.rules.insert(r);
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pwnd-lint: {e}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list_rules {
        for r in pwnd_lint::ALL_RULES {
            println!(
                "{:<13} {}",
                r.id,
                r.summary.split_whitespace().collect::<Vec<_>>().join(" ")
            );
        }
        return ExitCode::SUCCESS;
    }
    let root = match args.root.clone().or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| pwnd_lint::find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("pwnd-lint: no workspace root found (pass --root DIR)");
            return ExitCode::from(2);
        }
    };
    let only = (!args.rules.is_empty()).then_some(&args.rules);
    let report = match pwnd_lint::lint_workspace(&root, only) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pwnd-lint: scan failed under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if args.json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render());
    }
    if args.deny && !report.findings.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

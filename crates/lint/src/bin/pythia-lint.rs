//! Static certification CLI.
//!
//! Usage:
//!
//! ```text
//! pythia-lint --all-schemes [--json]
//! pythia-lint <module.pir> [--scheme cpa|pythia|dfi] [--json]
//! ```
//!
//! `--all-schemes` instruments every suite benchmark (16 SPEC-like
//! modules + nginx) under CPA, Pythia and DFI and lints each variant;
//! with a `.pir` file the module is parsed, verified, instrumented and
//! linted instead. Exit status is 0 only when every report is clean —
//! `scripts/check.sh` uses this as the certification gate.

use pythia_ir::{parser, verify};
use pythia_lint::{lint_module, LintReport};
use pythia_passes::Scheme;
use pythia_workloads::{generate, nginx_module, SPEC_PROFILES};

const INSTRUMENTED: [Scheme; 3] = [Scheme::Cpa, Scheme::Pythia, Scheme::Dfi];

fn main() {
    if let Err(e) = pythia_analysis::CtxPolicy::from_env() {
        eprintln!("pythia-lint: {e}");
        std::process::exit(2);
    }
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    if let Some(i) = args.iter().position(|a| a == "--json") {
        json = true;
        args.remove(i);
    }
    let mut schemes: Vec<Scheme> = INSTRUMENTED.to_vec();
    if let Some(i) = args.iter().position(|a| a == "--scheme") {
        if i + 1 >= args.len() {
            eprintln!("--scheme needs one of: cpa, pythia, dfi");
            std::process::exit(2);
        }
        let name = args.remove(i + 1);
        args.remove(i);
        let Some(s) = INSTRUMENTED.iter().find(|s| s.name() == name) else {
            eprintln!("unknown scheme `{name}`; expected cpa, pythia or dfi");
            std::process::exit(2);
        };
        schemes = vec![*s];
    }
    let mut all = false;
    if let Some(i) = args.iter().position(|a| a == "--all-schemes") {
        all = true;
        args.remove(i);
    }

    let reports: Vec<LintReport> = if all {
        if !args.is_empty() {
            eprintln!("--all-schemes takes no module arguments");
            std::process::exit(2);
        }
        let mut reports = Vec::new();
        for p in &SPEC_PROFILES {
            reports.extend(lint_module(&generate(p), &schemes));
        }
        reports.extend(lint_module(&nginx_module(4), &schemes));
        reports
    } else {
        let [path] = args.as_slice() else {
            eprintln!("usage: pythia-lint --all-schemes [--json]");
            eprintln!("       pythia-lint <module.pir> [--scheme cpa|pythia|dfi] [--json]");
            std::process::exit(2);
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            }
        };
        let module = match parser::parse_module(&text) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("parse error in {path}: {e}");
                std::process::exit(2);
            }
        };
        if let Err(errs) = verify::verify_module(&module) {
            for e in &errs {
                eprintln!("verify error: {e}");
            }
            std::process::exit(2);
        }
        lint_module(&module, &schemes)
    };

    let dirty = reports.iter().filter(|r| !r.is_clean()).count();
    if json {
        let mut out = String::from("[");
        for (i, r) in reports.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&r.to_json());
        }
        out.push(']');
        println!("{out}");
    } else {
        for r in &reports {
            print!("{}", r.render());
        }
        let total_checks: usize = reports.iter().map(|r| r.checks).sum();
        println!(
            "{} report(s), {} obligation(s) checked, {} with violations",
            reports.len(),
            total_checks,
            dirty
        );
    }
    std::process::exit(if dirty == 0 { 0 } else { 1 });
}

//! Regenerate the paper's tables and figures (see DESIGN.md §4).
//!
//! Usage: `reproduce [--out <dir>] [--engine <legacy|block>]
//! [--tier <smoke|standard|ref>] [--only <name[,name...]>]
//! [--scenario server [--connections N] [--requests M] [--seed S]]
//! [--bench-json] [--lint] [--profile] [--smoke] [section...]`
//! where a section is one of `fig4a fig4b fig5a fig5b fig6a fig6b fig7a
//! fig7b dist precision policies dynpa heap campaign models nginx motiv
//! eq6 ablations profile` — or nothing for the full report.
//!
//! `--tier` selects the benchmark size tier (DESIGN.md §5g): `standard`
//! (default) is the historical suite size, `ref` scales every profile to
//! ~3× static / ~36× dynamic size (with the VM instruction budget scaled
//! to match), `smoke` shrinks them for quick health checks. The suite
//! runs through the streaming bounded-memory runner at every tier; the
//! report stays byte-identical across worker counts within a tier.
//!
//! `--only <name[,name...]>` restricts the suite to the named benchmarks
//! (partial SPEC names match; `nginx` selects the server workload) —
//! `scripts/check.sh` uses this for the fast ref-tier gate. Unknown
//! names are rejected before anything runs, with the valid list printed.
//!
//! `--scenario server` skips the suite and runs the event-loop
//! multi-tenant server workload instead (DESIGN.md §5i): one event loop
//! per protection scheme multiplexing `--connections` slots over
//! `--requests` requests each (defaults 64 and 250,000 — 1M simulated
//! requests across the 4 schemes), with attack payloads delivered at
//! swept offsets inside the canary re-randomization window. Writes
//! `BENCH_server.json` (byte-identical across runs and engines) into
//! `--out`/cwd, prints the detection-vs-offset table to stdout, and the
//! engine-dependent wall-clock requests/sec to stderr.
//!
//! `--bench-json` additionally writes `BENCH_suite.json` (into the
//! `--out` directory when given, else the working directory) with the
//! suite's total and per-phase wall-clock timings, the worker count, and
//! a per-benchmark `status` field (`ok` or the error variant), so harness
//! speed and health are comparable across changes. Worker count comes
//! from `PYTHIA_THREADS` (default: available parallelism).
//!
//! `--lint` (implies `--bench-json`) additionally records each
//! benchmark's static-certification status: `"lint": "certified"` plus
//! the number of protection obligations `pythia-lint` checked across the
//! benchmark's instrumented variants, `"violated"` when the lint gate
//! rejected a variant, or `"not-reached"` when an earlier error stopped
//! the benchmark before instrumentation.
//!
//! `--profile` (implies `--bench-json`) additionally embeds each `ok`
//! benchmark's execution profile in `BENCH_suite.json` (per-scheme PA
//! sign/auth/strip counters with the static-site cross-check, opcode
//! histograms, heap allocator stats, slice-memo hit rates — DESIGN.md
//! §5d) and renders the human-readable cost-attribution section to
//! `<out>/profile.md` (with `--out`) or after the report on stdout.
//! `report.md` itself stays byte-identical with or without the flag, so
//! determinism diffs keep working.
//!
//! `--smoke` evaluates only a tiny suite (lbm, mcf, a short nginx run)
//! and skips the sections that need the full suite — a CI-speed health
//! check, used by `scripts/check.sh`.
//!
//! `PYTHIA_CTX_POLICY` / `PYTHIA_CTX_BUDGET` select the context-sensitive
//! points-to policy and its node budget (README); an invalid value of
//! either exits 2 with the valid spellings before anything runs.
//!
//! `--engine <legacy|block>` selects the VM execution engine (default:
//! the block-cached engine, or whatever `PYTHIA_ENGINE` says; an unknown
//! spelling of either exits 2 naming the valid ones). Both
//! engines are observation-equivalent — `report.md` is byte-identical
//! either way; only the wall-clock numbers in `BENCH_suite.json` and
//! `profile.md` move. `scripts/check.sh` and `scripts/bench.sh` use
//! this to diff the engines against each other.
//!
//! A benchmark that fails to evaluate does not abort the run: it shows up
//! in the report's error section (and in `BENCH_suite.json` as its error
//! variant), the remaining benchmarks render normally, and the process
//! exits with status 1.

use pythia_bench::experiments as exp;

/// Pop `flag <value>` from the argument list; exits with usage errors on
/// a missing/bad value or when the flag appears without `--scenario`.
fn take_value(args: &mut Vec<String>, flag: &str, scenario_active: bool) -> Option<u64> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    }
    let v = args.remove(i + 1);
    args.remove(i);
    if !scenario_active {
        eprintln!("{flag} only applies with --scenario server");
        std::process::exit(2);
    }
    match v.parse::<u64>() {
        Ok(n) if n > 0 => Some(n),
        _ => {
            eprintln!("{flag}: bad value `{v}` (expected a positive integer)");
            std::process::exit(2);
        }
    }
}

/// Run `--scenario server`: write BENCH_server.json (deterministic,
/// engine-free), print the detection table to stdout and the
/// engine-dependent wall-clock throughput to stderr. Exit code 1 when
/// any event loop recorded an internal error.
fn run_server(spec: &pythia_bench::ServerScenarioSpec, out_dir: Option<&str>) -> i32 {
    let run = match pythia_bench::run_server_scenario(spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("reproduce: server scenario failed: {e}");
            return 1;
        }
    };
    let dir = out_dir.unwrap_or(".");
    std::fs::create_dir_all(dir).expect("create out dir");
    let path = std::path::Path::new(dir).join("BENCH_server.json");
    std::fs::write(&path, &run.json).expect("write BENCH_server.json");
    println!("{}", run.table);
    let engine = spec.engine.name();
    for r in &run.runs {
        eprintln!(
            "server[{engine}] {}: {:.0} wall req/s ({} requests, {:.2}s)",
            r.scheme.name(),
            r.stats.retired as f64 / r.wall_secs.max(1e-9),
            r.stats.retired,
            r.wall_secs
        );
    }
    eprintln!(
        "wrote {} ({} requests total, {:.2}s)",
        path.display(),
        run.total_requests,
        run.wall_secs
    );
    if run.internal_errors > 0 {
        eprintln!(
            "reproduce: server scenario recorded {} internal errors",
            run.internal_errors
        );
        return 1;
    }
    0
}

fn main() {
    // A typo'd context policy, budget or engine must not silently run
    // the default: reject it before anything runs.
    let env_errors = [
        pythia_analysis::CtxPolicy::from_env().err(),
        pythia_vm::Engine::try_from_env().err(),
    ];
    if let Some(e) = env_errors.into_iter().flatten().next() {
        eprintln!("reproduce: {e}");
        std::process::exit(2);
    }
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--out <dir>` writes the report to <dir>/report.md instead of stdout.
    let mut out_dir: Option<String> = None;
    if let Some(i) = args.iter().position(|a| a == "--out") {
        if i + 1 >= args.len() {
            eprintln!("--out needs a directory");
            std::process::exit(2);
        }
        out_dir = Some(args.remove(i + 1));
        args.remove(i);
    }
    // `--engine` steers every VmConfig::default() the harness builds
    // (campaigns, adjudications, non-suite sections) via PYTHIA_ENGINE,
    // set before any evaluation starts (main is single-threaded here) —
    // and is *also* routed explicitly through the suite runner's
    // `VmConfig` so the smoke/suite path no longer depends on the
    // environment round-trip it used to silently bypass.
    let mut engine_override: Option<pythia_vm::Engine> = None;
    if let Some(i) = args.iter().position(|a| a == "--engine") {
        if i + 1 >= args.len() {
            eprintln!("--engine needs a value (legacy|block)");
            std::process::exit(2);
        }
        let engine = args.remove(i + 1);
        args.remove(i);
        match pythia_vm::Engine::parse(&engine) {
            Ok(e) => engine_override = Some(e),
            Err(e) => {
                eprintln!("reproduce: {e}");
                std::process::exit(2);
            }
        }
        std::env::set_var("PYTHIA_ENGINE", &engine);
    }
    let mut tier = pythia_workloads::SizeTier::Standard;
    if let Some(i) = args.iter().position(|a| a == "--tier") {
        if i + 1 >= args.len() {
            eprintln!("--tier needs a value (smoke|standard|ref)");
            std::process::exit(2);
        }
        let t = args.remove(i + 1);
        args.remove(i);
        match pythia_workloads::SizeTier::parse(&t) {
            Some(x) => tier = x,
            None => {
                eprintln!("unknown tier `{t}` (expected smoke|standard|ref)");
                std::process::exit(2);
            }
        }
    }
    let mut only: Option<Vec<String>> = None;
    if let Some(i) = args.iter().position(|a| a == "--only") {
        if i + 1 >= args.len() {
            eprintln!("--only needs a comma-separated benchmark list");
            std::process::exit(2);
        }
        let names = args.remove(i + 1);
        args.remove(i);
        let names: Vec<String> = names.split(',').map(str::to_owned).collect();
        // Reject unknown names up front, before any benchmark runs —
        // a typo'd --only must not burn a whole suite pass to report
        // one "unknown profile" row.
        if let Err(bad) = exp::validate_only_names(&names) {
            eprintln!(
                "unknown benchmark `{bad}` for --only (partial SPEC names match); valid names: {}",
                exp::valid_only_names().join(", ")
            );
            std::process::exit(2);
        }
        only = Some(names);
    }
    // `--scenario server [--connections N] [--requests M] [--seed S]`
    // runs the event-loop server scenario (DESIGN.md §5i) instead of the
    // suite: writes BENCH_server.json, prints the detection-vs-offset
    // table to stdout and per-engine wall throughput to stderr.
    let mut scenario: Option<String> = None;
    if let Some(i) = args.iter().position(|a| a == "--scenario") {
        if i + 1 >= args.len() {
            eprintln!("--scenario needs a name (server)");
            std::process::exit(2);
        }
        scenario = Some(args.remove(i + 1));
        args.remove(i);
    }
    let mut spec = pythia_bench::ServerScenarioSpec::default();
    if let Some(v) = take_value(&mut args, "--connections", scenario.is_some()) {
        spec.connections = v as usize;
    }
    if let Some(v) = take_value(&mut args, "--requests", scenario.is_some()) {
        spec.requests = v;
    }
    if let Some(v) = take_value(&mut args, "--seed", scenario.is_some()) {
        spec.seed = v;
    }
    if let Some(name) = &scenario {
        if name != "server" {
            eprintln!("unknown scenario `{name}` (expected: server)");
            std::process::exit(2);
        }
        if let Some(e) = engine_override {
            spec.engine = e;
        }
        std::process::exit(run_server(&spec, out_dir.as_deref()));
    }
    let mut bench_json = false;
    if let Some(i) = args.iter().position(|a| a == "--bench-json") {
        bench_json = true;
        args.remove(i);
    }
    let mut lint = false;
    if let Some(i) = args.iter().position(|a| a == "--lint") {
        lint = true;
        bench_json = true; // lint status lands in BENCH_suite.json
        args.remove(i);
    }
    let mut profile = false;
    if let Some(i) = args.iter().position(|a| a == "--profile") {
        profile = true;
        bench_json = true; // the profile schema lands in BENCH_suite.json
        args.remove(i);
    }
    let mut smoke = false;
    if let Some(i) = args.iter().position(|a| a == "--smoke") {
        smoke = true;
        args.remove(i);
    }

    // Experiments that need the evaluated suite share one run.
    let needs_suite = [
        "fig4a", "fig4b", "fig5a", "fig5b", "fig6a", "fig6b", "fig7a", "fig7b", "dist",
        "precision", "dynpa", "heap", "models", "profile",
    ];
    let run_suite_now =
        args.is_empty() || bench_json || args.iter().any(|a| needs_suite.contains(&a.as_str()));
    let run = if run_suite_now {
        // Streaming bounded-memory runner: each benchmark's JSON row and
        // profile sums are extracted as it completes; the entries kept
        // for the figures are slim digests.
        let spec = exp::SuiteSpec {
            smoke,
            tier,
            only: only.clone(),
            engine: engine_override,
            lint,
            profile,
        };
        let run = exp::run_suite_streamed(&spec);
        if bench_json {
            let dir = out_dir.clone().unwrap_or_else(|| ".".to_owned());
            std::fs::create_dir_all(&dir).expect("create out dir");
            let path = std::path::Path::new(&dir).join("BENCH_suite.json");
            std::fs::write(&path, &run.json).expect("write BENCH_suite.json");
            eprintln!(
                "wrote {} ({} tier, {} threads, {:.2}s total)",
                path.display(),
                run.tier.name(),
                run.timing.threads,
                run.timing.total_secs
            );
        }
        Some(run)
    } else {
        None
    };
    let suite = run.as_ref().map(|r| r.entries.clone());

    // One failed benchmark must not hide the others, but it must not
    // look like success either: report every failure on stderr and exit 1.
    let mut failed = false;
    if let Some(entries) = &suite {
        for entry in entries {
            if let Some(e) = entry.error() {
                eprintln!("reproduce: `{}` failed to evaluate: {e}", entry.name);
                failed = true;
            }
        }
    }

    if args.is_empty() {
        let entries = suite.as_ref().unwrap();
        let report = if smoke {
            // The full report's non-suite sections (campaign, ablations,
            // nginx sweep, ...) defeat the point of a smoke run; render
            // just the suite-backed health summary.
            let evals = exp::ok_evaluations(entries);
            let mut r = exp::errors_section(entries);
            if !r.is_empty() {
                r.push('\n');
            }
            r.push_str(&exp::fig4a(&evals));
            r
        } else {
            exp::render_all(entries)
        };
        // The profile section never joins report.md: report bytes are the
        // determinism surface that scripts/bench.sh diffs serial vs
        // parallel, and wall-clock seconds would break it. It was
        // accumulated during the streamed run — the stripped digest
        // entries no longer carry the profiles it renders from.
        let profile_report = profile.then(|| run.as_ref().unwrap().profile_md.clone());
        match out_dir {
            Some(dir) => {
                std::fs::create_dir_all(&dir).expect("create out dir");
                let path = std::path::Path::new(&dir).join("report.md");
                std::fs::write(&path, &report).expect("write report");
                eprintln!("wrote {}", path.display());
                if let Some(p) = &profile_report {
                    let path = std::path::Path::new(&dir).join("profile.md");
                    std::fs::write(&path, p).expect("write profile.md");
                    eprintln!("wrote {}", path.display());
                }
            }
            None => {
                println!("{report}");
                if let Some(p) = &profile_report {
                    println!("{p}");
                }
            }
        }
        std::process::exit(i32::from(failed));
    }
    let evals = suite.as_ref().map(|s| exp::ok_evaluations(s));
    for a in &args {
        let section = match a.as_str() {
            "fig4a" => exp::fig4a(evals.as_ref().unwrap()),
            "fig4b" => exp::fig4b(evals.as_ref().unwrap()),
            "fig5a" => exp::fig5a(evals.as_ref().unwrap()),
            "fig5b" => exp::fig5b(evals.as_ref().unwrap()),
            "fig6a" => exp::fig6a(evals.as_ref().unwrap()),
            "fig6b" => exp::fig6b(evals.as_ref().unwrap()),
            "fig7a" => exp::fig7a(evals.as_ref().unwrap()),
            "fig7b" => exp::fig7b(evals.as_ref().unwrap()),
            "dist" => exp::dist(evals.as_ref().unwrap()),
            "precision" => exp::precision(evals.as_ref().unwrap()),
            "policies" => exp::policies(),
            "dynpa" => exp::dynpa(evals.as_ref().unwrap()),
            "heap" => exp::heap(evals.as_ref().unwrap()),
            "models" => exp::models(evals.as_ref().unwrap()),
            "profile" => run.as_ref().unwrap().profile_md.clone(),
            "nginx" => exp::nginx(),
            "motiv" => exp::motiv(),
            "campaign" => exp::campaign(),
            "eq6" => exp::eq6(),
            "ablations" => exp::ablations(),
            other => {
                eprintln!("unknown section `{other}`");
                std::process::exit(2);
            }
        };
        println!("{section}");
    }
    std::process::exit(i32::from(failed));
}

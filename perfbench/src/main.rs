//! The repository benchmark: end-to-end and per-layer measurements of
//! the `report`, `server` and `ref` workloads.
//!
//! ```text
//! perfbench --workload <report|server|ref> --seed <n> --seconds <s> --trace <0|1> [--save <file>]
//! perfbench compare <parent.jsonl> <change.jsonl> [--benchmark <BENCHMARK.json>]
//! ```
//!
//! Untraced (`--trace 0`), a run sets the workload up several times,
//! repeats its measured step until `--seconds` have passed, checks every
//! iteration's output, and prints each end-to-end metric (median,
//! quartiles, sample count). Traced (`--trace 1`), it first makes the
//! same untraced iterations, then one traced iteration through the
//! stand-ins in `traced.rs`, checks that the traced counters equal the
//! untraced ones, and prints the per-layer metrics; the spans go to
//! `.perfbench-out/`. Either way the last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod compare;
mod json;
mod server;
mod stats;
mod trace;
mod traced;
mod workload;

use json::{num, quote};
use stats::{percentile, Summary};
use std::collections::BTreeMap;
use std::time::Instant;
use workload::{Iteration, Kind, Prepared};

const USAGE: &str = "usage: perfbench --workload <report|server|ref> --seed <n> --seconds <s> --trace <0|1> [--save <file>]\n       perfbench compare <parent.jsonl> <change.jsonl> [--benchmark <BENCHMARK.json>]";

/// An untraced run sets up in batches of at least `SETUP_REPS` set-ups
/// and `SETUP_BATCH_S` seconds: one batch before measuring and one after
/// every measured iteration, so its set-up samples span the same stretch
/// of time (and machine state) as its iterations; `setup_s` is their
/// median.
const SETUP_REPS: usize = 3;
const SETUP_BATCH_S: f64 = 0.1;
const SETUP_MAX_REPS: usize = 2000;
/// Requests the server's handler probe times.
const PROBE_REQUESTS: usize = 2000;
/// Share of the traced wall clock named spans must cover.
const MIN_COVERAGE: f64 = 0.95;

/// The end-to-end metrics every untraced run prints, in order: host
/// measurements first, then the deterministic model metrics.
const END_TO_END: [(&str, &str); 11] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("server_rps", "req/s"),
    ("peak_rss_mib", "MiB"),
    ("success_rate", "share"),
    ("cpa_overhead_pct", "%"),
    ("pythia_overhead_pct", "%"),
    ("dfi_overhead_pct", "%"),
    ("pythia_size_growth_pct", "%"),
    ("pa_reduction_x", "x"),
    ("pythia_detect_rate", "share"),
];

struct Opts {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    save: Option<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut map: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            k @ ("--workload" | "--seed" | "--seconds" | "--trace" | "--save") => k,
            other => return Err(format!("unknown argument `{other}`")),
        };
        let value = it.next().ok_or(format!("{key} needs a value"))?;
        map.insert(key, value);
    }
    let get = |k: &str| map.get(k).copied().ok_or(format!("{k} is required"));
    let kind = get("--workload")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_owned())?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Opts {
        kind: Kind::parse(kind).ok_or(format!("unknown workload `{kind}`"))?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed must be a non-negative integer".to_owned())?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not `{t}`")),
        },
        save: map.get("--save").map(|s| (*s).to_owned()),
    })
}

/// Pin the program's knobs: workers = available cores, default engine
/// and context policy whatever the caller's environment says. Runs
/// before any thread exists.
fn pin_environment() {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("PYTHIA_THREADS", threads.to_string());
    for var in ["PYTHIA_ENGINE", "PYTHIA_CTX_POLICY", "PYTHIA_CTX_BUDGET"] {
        std::env::remove_var(var);
    }
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Outcome {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn failed_setup(problem: String) -> Outcome {
        Outcome {
            problems: vec![problem],
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
        }
    }

    fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(m.name),
                    num(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One batch of set-ups, appending each set-up's seconds to `samples`;
/// returns the last set-up's inputs.
fn timed_setups(kind: Kind, samples: &mut Vec<f64>) -> Result<Prepared, String> {
    let started = Instant::now();
    let mut n = 0;
    loop {
        let t = Instant::now();
        let prep = workload::setup(kind);
        samples.push(t.elapsed().as_secs_f64());
        n += 1;
        let prep = prep.map_err(|e| format!("set-up failed: {e}"))?;
        if n >= SETUP_REPS
            && (started.elapsed().as_secs_f64() >= SETUP_BATCH_S || n >= SETUP_MAX_REPS)
        {
            return Ok(prep);
        }
    }
}

/// Repeat the untraced measured step until `seconds` have passed (at
/// least once), calling `between` after each iteration.
fn measure(opts: &Opts, prep: &Prepared, mut between: impl FnMut()) -> Vec<Iteration> {
    let start = Instant::now();
    let mut iters = Vec::new();
    loop {
        let round = iters.len() as u64;
        iters.push(workload::iterate(opts.kind, prep, opts.seed, round, false));
        between();
        if start.elapsed().as_secs_f64() >= opts.seconds {
            return iters;
        }
    }
}

/// Counters of `got` that differ from `want`, as messages.
fn counter_mismatches(
    what: &str,
    want: &BTreeMap<&'static str, String>,
    got: &BTreeMap<&'static str, String>,
) -> Vec<String> {
    let keys: std::collections::BTreeSet<&&str> = want.keys().chain(got.keys()).collect();
    keys.into_iter()
        .filter(|k| want.get(*k) != got.get(*k))
        .map(|k| {
            format!(
                "{what}: counter {k} is {} (expected {})",
                got.get(*k).map_or("missing", String::as_str),
                want.get(*k).map_or("missing", String::as_str)
            )
        })
        .collect()
}

/// Output checks and determinism across a run's iterations. An iteration
/// that fails a check counts every operation it attempted as failed.
fn account(iters: &[Iteration]) -> (Vec<String>, u64, u64) {
    let (mut problems, mut attempted, mut failed) = (Vec::new(), 0, 0);
    for (i, it) in iters.iter().enumerate() {
        let mut mine: Vec<String> = it
            .problems
            .iter()
            .map(|p| format!("iteration {i}: {p}"))
            .collect();
        if i > 0 {
            mine.extend(counter_mismatches(
                &format!("iteration {i} vs 0"),
                &iters[0].counters,
                &it.counters,
            ));
        }
        attempted += it.attempted;
        failed += if mine.is_empty() {
            it.failed
        } else {
            it.attempted.max(1)
        };
        problems.extend(mine);
    }
    (problems, attempted, failed)
}

fn summary_line(name: &str, unit: &str, values: &[f64]) -> String {
    match Summary::of(values) {
        Some(s) => format!(
            "  {name:<24} {:>14.4} {unit:<6} q1 {:.4}  q3 {:.4}  n={}",
            s.median, s.q1, s.q3, s.n
        ),
        None => format!("  {name:<24} no samples"),
    }
}

fn median_of(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

fn untraced_run(opts: &Opts) -> Outcome {
    let mut problems = Vec::new();
    let mut setup_s = Vec::new();
    let prep = match timed_setups(opts.kind, &mut setup_s) {
        Ok(p) => p,
        Err(e) => return Outcome::failed_setup(e),
    };
    let iters = measure(opts, &prep, || {
        if let Err(e) = timed_setups(opts.kind, &mut setup_s) {
            problems.push(e);
        }
    });
    let (mut found, attempted, failed) = account(&iters);
    problems.append(&mut found);

    let walls: Vec<f64> = iters.iter().map(|i| i.wall_s).collect();
    let rps: Vec<f64> = iters.iter().map(|i| i.server_rps).collect();
    let success = 1.0 - failed as f64 / attempted.max(1) as f64;
    let rss = peak_rss_mib();
    println!(
        "perfbench {}: seed {}, {} iterations, {} setups, {} threads",
        opts.kind.name(),
        opts.seed,
        iters.len(),
        setup_s.len(),
        std::env::var("PYTHIA_THREADS").unwrap_or_default()
    );
    let samples: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    println!("  wall_s samples: {}", samples.join(" "));
    println!("{}", summary_line("wall_s", "s", &walls));
    println!("{}", summary_line("setup_s", "s", &setup_s));
    println!("{}", summary_line("server_rps", "req/s", &rps));
    println!("{}", summary_line("peak_rss_mib", "MiB", &[rss]));
    println!("{}", summary_line("success_rate", "share", &[success]));
    if opts.kind == Kind::Server {
        for (i, scheme) in pythia_core::Scheme::ALL.iter().enumerate() {
            let per: Vec<f64> = iters
                .iter()
                .filter_map(|it| it.loops.get(i))
                .map(|l| l.stats.retired as f64 / l.wall_s)
                .collect();
            println!(
                "{}",
                summary_line(&format!("  {} req/s", scheme.name()), "req/s", &per)
            );
        }
    }
    let model = |name: &str| -> Vec<f64> {
        iters
            .iter()
            .map(|it| it.model.get(name).copied().unwrap_or(0.0))
            .collect()
    };
    let value = |name: &str| match name {
        "wall_s" => median_of(&walls),
        "setup_s" => median_of(&setup_s),
        "server_rps" => median_of(&rps),
        "peak_rss_mib" => rss,
        "success_rate" => success,
        _ => median_of(&model(name)),
    };
    println!("model metrics (simulated cycles and static counts; paper values beside them):");
    for (name, unit) in &END_TO_END[5..] {
        let paper = workload::paper_value(name).map_or(String::new(), |p| format!("  (paper {p})"));
        println!("{}{paper}", summary_line(name, unit, &model(name)));
    }
    println!("  the VM cost model is otherwise unvalidated: no reference measurement backs these numbers");
    let metrics = END_TO_END
        .iter()
        .map(|&(n, u)| metric(n, value(n), u))
        .collect();
    print_checks(&problems, iters.len());
    Outcome {
        problems,
        attempted,
        failed,
        metrics,
    }
}

fn print_checks(problems: &[String], iterations: usize) {
    if problems.is_empty() {
        println!("checks: outputs as expected and deterministic counters identical across {iterations} iterations");
    } else {
        println!("checks FAILED:");
        for p in problems {
            println!("  {p}");
        }
    }
}

fn traced_run(opts: &Opts) -> Outcome {
    let mut problems = Vec::new();
    let prep = match workload::setup(opts.kind) {
        Ok(p) => p,
        Err(e) => return Outcome::failed_setup(format!("set-up failed: {e}")),
    };
    let iters = measure(opts, &prep, || ());
    let (mut found, mut attempted, mut failed) = account(&iters);
    problems.append(&mut found);
    let untraced_wall = median_of(&iters.iter().map(|i| i.wall_s).collect::<Vec<_>>());

    trace::take();
    let traced_prep = if opts.kind == Kind::Server {
        match trace::span("bench.setup", server::setup_traced) {
            Ok(s) => Prepared::Server(s),
            Err(e) => {
                problems.push(format!("traced set-up failed: {e}"));
                prep
            }
        }
    } else {
        prep
    };
    let w0 = trace::now();
    let it = workload::iterate(opts.kind, &traced_prep, opts.seed, 0, true);
    let w1 = trace::now();
    attempted += it.attempted;
    failed += if it.problems.is_empty() {
        it.failed
    } else {
        it.attempted.max(1)
    };
    problems.extend(it.problems.iter().map(|p| format!("traced iteration: {p}")));
    problems.extend(counter_mismatches(
        "traced vs untraced",
        &iters[0].counters,
        &it.counters,
    ));
    if let Some(p) = workload::legacy_engine_violation() {
        problems.push(p);
    }
    let probe = match &traced_prep {
        Prepared::Server(setup) => match server::handler_probe(setup, PROBE_REQUESTS, opts.seed) {
            Ok(p) => Some(p),
            Err(e) => {
                problems.push(format!("handler probe failed: {e}"));
                None
            }
        },
        Prepared::Suite => None,
    };
    let (spans, counts) = trace::take();
    let out_dir = std::path::Path::new(".perfbench-out");
    let path = out_dir.join(format!("trace-{}-seed{}.json", opts.kind.name(), opts.seed));
    if let Err(e) = std::fs::create_dir_all(out_dir)
        .and_then(|_| std::fs::write(&path, trace::to_json(&spans, &counts)))
    {
        problems.push(format!("writing {}: {e}", path.display()));
    }

    let metrics = per_layer(
        &spans,
        &counts,
        &it,
        (w0, w1),
        untraced_wall,
        probe.as_ref(),
    );
    let unattributed = metrics
        .iter()
        .find(|m| m.name == "bench.unattributed_share")
        .map_or(1.0, |m| m.value);
    if unattributed > 1.0 - MIN_COVERAGE {
        problems.push(format!(
            "named spans cover only {:.1}% of the traced wall clock (need {:.0}%)",
            100.0 * (1.0 - unattributed),
            100.0 * MIN_COVERAGE
        ));
    }
    println!(
        "perfbench {} traced: seed {}, traced wall {:.3} s vs untraced median {:.3} s over {} iterations (tracing overhead {:+.3} s); spans: {}",
        opts.kind.name(),
        opts.seed,
        it.wall_s,
        untraced_wall,
        iters.len(),
        it.wall_s - untraced_wall,
        path.display()
    );
    for m in &metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    print_checks(&problems, iters.len());
    Outcome {
        problems,
        attempted,
        failed,
        metrics,
    }
}

/// The crates (and the `pa` layer inside `vm`) whose busy and self time
/// the traced run reports.
const LAYERS: [(&str, &str, &str); 9] = [
    ("workloads", "workloads.busy_s", "workloads.self_s"),
    ("ir", "ir.busy_s", "ir.self_s"),
    ("analysis", "analysis.busy_s", "analysis.self_s"),
    ("passes", "passes.busy_s", "passes.self_s"),
    ("lint", "lint.busy_s", "lint.self_s"),
    ("vm", "vm.busy_s", "vm.self_s"),
    ("pa", "pa.busy_s", "pa.self_s"),
    ("core", "core.busy_s", "core.self_s"),
    ("bench", "bench.busy_s", "bench.self_s"),
];

fn per_layer(
    spans: &[trace::Span],
    counts: &BTreeMap<&'static str, u64>,
    it: &Iteration,
    (w0, w1): (f64, f64),
    untraced_wall: f64,
    probe: Option<&server::Probe>,
) -> Vec<Metric> {
    let b = trace::breakdown(spans);
    let s = |name: &str| b.by_name.get(name).copied().unwrap_or(0.0);
    let c = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    let loops = &it.loops;
    let lsum = |f: &dyn Fn(&pythia_workloads::ServerRunStats) -> u64| {
        loops.iter().map(|l| f(&l.stats)).sum::<u64>() as f64
    };
    let on_server = !loops.is_empty();
    // Inside the event loop every slice builds a VM, and every attack
    // builds two (the leak probe and the delivery).
    let (insts, cycles, builds, allocs, exec_s) = if on_server {
        let loop_s: f64 = ["vanilla", "cpa", "pythia", "dfi"]
            .iter()
            .map(|n| s(&format!("workloads.event_loop.{n}")))
            .sum();
        (
            lsum(&|st| st.insts),
            lsum(&|st| st.cycles),
            lsum(&|st| st.slices + 2 * st.attacks),
            lsum(&|st| st.arena_shared.allocs + st.arena_isolated.allocs),
            loop_s,
        )
    } else {
        (
            c("vm.insts"),
            c("vm.sim_cycles"),
            c("vm.builds"),
            c("heap.allocs"),
            s("vm.execute"),
        )
    };
    let retired = lsum(&|st| st.retired);
    let per_request = |v: f64| if retired > 0.0 { v / retired } else { 0.0 };
    let pct = |v: Option<&Vec<f64>>, p: f64| v.and_then(|v| percentile(v, p)).unwrap_or(0.0);
    let mut m = vec![
        metric("bench.suite_s", s("bench.suite"), "s"),
        metric("bench.policies_s", s("bench.policies"), "s"),
        metric("bench.nginx_s", s("bench.nginx"), "s"),
        metric("bench.campaign_s", s("bench.campaign"), "s"),
        metric("bench.eq6_s", s("bench.eq6"), "s"),
        metric("bench.ablations_s", s("bench.ablations"), "s"),
        metric("bench.motiv_s", s("bench.motiv"), "s"),
        metric("bench.render_s", s("bench.render"), "s"),
        metric(
            "bench.unattributed_share",
            trace::unattributed_share(spans, w0, w1),
            "share",
        ),
        metric("workloads.generate_s", s("workloads.generate"), "s"),
        metric("workloads.nginx_run_s", s("workloads.nginx_run"), "s"),
        metric(
            "workloads.event_loop.vanilla_s",
            s("workloads.event_loop.vanilla"),
            "s",
        ),
        metric(
            "workloads.event_loop.cpa_s",
            s("workloads.event_loop.cpa"),
            "s",
        ),
        metric(
            "workloads.event_loop.pythia_s",
            s("workloads.event_loop.pythia"),
            "s",
        ),
        metric(
            "workloads.event_loop.dfi_s",
            s("workloads.event_loop.dfi"),
            "s",
        ),
        metric("ir.verify_s", s("ir.verify"), "s"),
        metric("analysis.context_s", s("analysis.context"), "s"),
        metric("analysis.vuln_s", s("analysis.vuln"), "s"),
        metric("analysis.contexts", c("analysis.contexts"), "count"),
        metric("passes.prune_s", s("passes.prune"), "s"),
        metric(
            "passes.obligations_pruned",
            c("passes.obligations_pruned"),
            "count",
        ),
        metric("passes.instrument_s", s("passes.instrument"), "s"),
        metric("passes.pa_static", c("passes.pa_static"), "count"),
        metric("lint.certify_s", s("lint.certify"), "s"),
        metric("lint.checks", c("lint.checks"), "count"),
        metric("vm.decode_s", s("vm.decode"), "s"),
        metric("vm.build_s", s("vm.build"), "s"),
        metric("vm.builds", builds, "count"),
        metric("vm.execute_s", s("vm.execute"), "s"),
        metric("vm.insts", insts, "count"),
        metric("vm.sim_cycles", cycles, "count"),
        metric(
            "vm.minsts_per_s",
            if exec_s > 0.0 {
                insts / exec_s / 1e6
            } else {
                0.0
            },
            "Minsts/s",
        ),
        metric("heap.allocs", allocs, "count"),
        metric("pa.insts", c("pa.insts"), "count"),
        metric("core.campaign_s", s("core.campaign"), "s"),
        metric("core.campaign_runs", c("core.campaign_runs"), "count"),
        metric("pa.brute_s", s("pa.brute"), "s"),
        metric("server.slices", lsum(&|st| st.slices), "count"),
        metric(
            "server.slices_per_request",
            per_request(lsum(&|st| st.slices)),
            "ratio",
        ),
        metric("server.insts_per_request", per_request(insts), "count"),
        metric("server.attacks", lsum(&|st| st.attacks), "count"),
        metric(
            "vm.build_us.p50",
            pct(probe.map(|p| &p.build_us), 50.0),
            "us",
        ),
        metric(
            "vm.build_us.p99",
            pct(probe.map(|p| &p.build_us), 99.0),
            "us",
        ),
        metric(
            "vm.execute_us.p50",
            pct(probe.map(|p| &p.execute_us), 50.0),
            "us",
        ),
        metric(
            "vm.execute_us.p99",
            pct(probe.map(|p| &p.execute_us), 99.0),
            "us",
        ),
        metric(
            "vm.cache_sim_new_us",
            pct(probe.map(|p| &p.cache_sim_new_us), 50.0),
            "us",
        ),
    ];
    for (layer, busy, own) in LAYERS {
        m.push(metric(busy, b.busy.get(layer).copied().unwrap_or(0.0), "s"));
        m.push(metric(
            own,
            b.self_time.get(layer).copied().unwrap_or(0.0),
            "s",
        ));
    }
    m.push(metric("trace.wall_s", it.wall_s, "s"));
    m.push(metric("trace.overhead_s", it.wall_s - untraced_wall, "s"));
    m
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare::run(&args[1..]));
    }
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    pin_environment();
    let outcome = if opts.trace {
        traced_run(&opts)
    } else {
        untraced_run(&opts)
    };
    let line = outcome.json();
    if let Some(path) = &opts.save {
        let record = format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"result\": {line}}}\n",
            quote(opts.kind.name()),
            opts.seed,
            u8::from(opts.trace)
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| std::io::Write::write_all(&mut f, record.as_bytes()));
        if let Err(e) = appended {
            eprintln!("perfbench: cannot append to {path}: {e}");
        }
    }
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Value;

    fn declared(section: &str) -> Vec<(String, String)> {
        let bench =
            json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        bench
            .get(section)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .expect("string field")
                        .to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn end_to_end_metrics_match_the_benchmark_contract() {
        let ours: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(ours, declared("end_to_end"));
        let model: Vec<&str> = END_TO_END[5..].iter().map(|(n, _)| *n).collect();
        assert_eq!(model, workload::MODEL_METRICS);
    }

    #[test]
    fn per_layer_metrics_match_the_benchmark_contract() {
        let ours: Vec<(String, String)> = per_layer(
            &[],
            &BTreeMap::new(),
            &Iteration::default(),
            (0.0, 1.0),
            0.0,
            None,
        )
        .into_iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect();
        assert_eq!(ours, declared("per_layer"));
    }
}

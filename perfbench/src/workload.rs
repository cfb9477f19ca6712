//! The three workloads: one measured iteration each, untraced (through
//! the program's own entry points) or traced (through `traced.rs`), and
//! the output checks and deterministic counters of that iteration.

use crate::server::{self, LoopRun};
use crate::traced;
use pythia_bench::experiments::{self as exp, SuiteEntry, SuiteSpec};
use pythia_core::{BenchEvaluation, Scheme};
use pythia_workloads::{generate, nginx_module, SizeTier, SPEC_PROFILES};
use std::collections::BTreeMap;
use std::time::Instant;

/// The standard-tier `report.md` the repository must keep reproducing
/// byte for byte.
pub const EXPECTED_REPORT: &str = include_str!("../expected/report.md");
/// The ref-tier suite sections (`traced::suite_sections`).
pub const EXPECTED_REF: &str = include_str!("../expected/ref_suite.md");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Report,
    Server,
    Ref,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "report" => Some(Kind::Report),
            "server" => Some(Kind::Server),
            "ref" => Some(Kind::Ref),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Report => "report",
            Kind::Server => "server",
            Kind::Ref => "ref",
        }
    }

    fn tier(self) -> SizeTier {
        match self {
            Kind::Ref => SizeTier::Ref,
            _ => SizeTier::Standard,
        }
    }
}

/// Model metrics, in output order. Deterministic: a change that only
/// speeds the program up must not move any of them.
pub const MODEL_METRICS: [&str; 6] = [
    "cpa_overhead_pct",
    "pythia_overhead_pct",
    "dfi_overhead_pct",
    "pythia_size_growth_pct",
    "pa_reduction_x",
    "pythia_detect_rate",
];

/// The paper's value of a model metric, where it reports one.
pub fn paper_value(metric: &str) -> Option<&'static str> {
    match metric {
        "cpa_overhead_pct" => Some("47.88"),
        "pythia_overhead_pct" => Some("13.07"),
        "pythia_size_growth_pct" => Some("10.37"),
        "pa_reduction_x" => Some("4.25"),
        _ => None,
    }
}

/// One measured iteration of a workload.
#[derive(Default)]
pub struct Iteration {
    pub wall_s: f64,
    /// Requests retired per host second of this iteration.
    pub server_rps: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks.
    pub problems: Vec<String>,
    /// Deterministic counters, compared exactly across iterations and
    /// between the traced and untraced runs.
    pub counters: BTreeMap<&'static str, String>,
    pub model: BTreeMap<&'static str, f64>,
    /// The server's per-scheme loops (server workload only).
    pub loops: Vec<LoopRun>,
}

impl Iteration {
    fn record_model(&mut self, model: [f64; 6]) {
        for (name, v) in MODEL_METRICS.into_iter().zip(model) {
            self.model.insert(name, v);
            self.counters.insert(name, format!("{v:?}"));
        }
    }
}

/// Set-up: build the workload's inputs before the first measured step.
/// Report and ref generate and verify every suite module; the server
/// builds its module, analysis, certified variants and decode caches.
pub enum Prepared {
    Suite,
    Server(server::Setup),
}

pub fn setup(kind: Kind) -> Result<Prepared, String> {
    match kind {
        Kind::Server => server::setup()
            .map(Prepared::Server)
            .map_err(|e| e.to_string()),
        Kind::Report | Kind::Ref => {
            let tier = kind.tier();
            let mut modules: Vec<_> = SPEC_PROFILES
                .iter()
                .map(|p| generate(&p.at_tier(tier)))
                .collect();
            modules.push(nginx_module(tier.scale_volume(60)));
            for m in &modules {
                pythia_ir::verify::verify_module(m).map_err(|e| format!("{}: {e:?}", m.name))?;
            }
            Ok(Prepared::Suite)
        }
    }
}

/// Table rows in rendered report text, and how many of them hold an
/// `ERROR` cell. A table starts after its dashed rule and ends at the
/// next blank line.
pub fn table_rows(text: &str) -> (u64, u64) {
    let (mut rows, mut errors, mut in_table) = (0, 0, false);
    for line in text.lines() {
        if line.trim().is_empty() {
            in_table = false;
        } else if line.len() > 3 && line.chars().all(|c| c == '-') {
            in_table = true;
        } else if in_table {
            rows += 1;
            if line.contains("ERROR") {
                errors += 1;
            }
        }
    }
    (rows, errors)
}

/// Pythia's detected share of the attacks the report's campaign section
/// launched against it.
pub fn campaign_detect_rate(report: &str) -> Option<f64> {
    let section = report.split("## campaign").nth(1)?;
    let section = section.split("\n## ").next()?;
    let (mut attacks, mut detected) = (0u64, 0u64);
    for line in section.lines() {
        let cols: Vec<&str> = line.split_whitespace().collect();
        if cols.len() == 8 && cols[1] == "pythia" {
            attacks += cols[2].parse::<u64>().ok()?;
            detected += cols[3].parse::<u64>().ok()?;
        }
    }
    (attacks > 0).then(|| detected as f64 / attacks as f64)
}

fn mean(v: impl Iterator<Item = f64>) -> f64 {
    let (mut s, mut n) = (0.0, 0u32);
    for x in v {
        s += x;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        s / f64::from(n)
    }
}

/// Deterministic counters of an evaluated suite.
fn suite_counters(it: &mut Iteration, entries: &[SuiteEntry]) {
    let evs: Vec<&BenchEvaluation> = entries.iter().filter_map(SuiteEntry::evaluation).collect();
    let results = || evs.iter().flat_map(|e| e.results.iter());
    let sum =
        |f: &dyn Fn(&pythia_core::SchemeResult) -> u64| results().map(f).sum::<u64>().to_string();
    it.counters.insert("suite.ok", evs.len().to_string());
    it.counters
        .insert("vm.builds", results().count().to_string());
    it.counters.insert("vm.insts", sum(&|r| r.metrics.insts));
    it.counters
        .insert("vm.sim_cycles", sum(&|r| r.metrics.cycles()));
    it.counters.insert("pa.insts", sum(&|r| r.metrics.pa_insts));
    it.counters.insert(
        "heap.allocs",
        sum(&|r| r.metrics.heap_shared.allocs + r.metrics.heap_isolated.allocs),
    );
    it.counters
        .insert("lint.checks", sum(&|r| r.lint_checks as u64));
    it.counters.insert(
        "passes.pa_static",
        sum(&|r| {
            if r.scheme == Scheme::Vanilla {
                0
            } else {
                r.stats.pa_total() as u64
            }
        }),
    );
    it.counters.insert(
        "passes.obligations_pruned",
        evs.iter()
            .map(|e| e.analysis.obligations_pruned)
            .sum::<usize>()
            .to_string(),
    );
    it.counters.insert(
        "analysis.contexts",
        evs.iter()
            .map(|e| e.analysis.contexts)
            .sum::<usize>()
            .to_string(),
    );
}

/// Fig. 4a/4b/6b model metrics of an evaluated suite; the detection
/// rate is supplied by the caller.
fn suite_model(entries: &[SuiteEntry], detect_rate: f64) -> [f64; 6] {
    let evs = exp::ok_evaluations(entries);
    let pa = |s: Scheme| -> usize {
        evs.iter()
            .filter_map(|e| e.result(s))
            .map(|r| r.stats.pa_total())
            .sum()
    };
    [
        100.0 * mean(evs.iter().map(|e| e.overhead(Scheme::Cpa))),
        100.0 * mean(evs.iter().map(|e| e.overhead(Scheme::Pythia))),
        100.0 * mean(evs.iter().map(|e| e.overhead(Scheme::Dfi))),
        100.0 * mean(evs.iter().map(|e| e.binary_growth(Scheme::Pythia))),
        pa(Scheme::Cpa) as f64 / pa(Scheme::Pythia).max(1) as f64,
        detect_rate,
    ]
}

/// Requests served by every nginx run of one workload iteration: the
/// suite's nginx entry runs its module once per variant (vanilla + 3
/// schemes); the report's nginx section runs 12 workers per scheme at
/// three request counts.
fn nginx_requests(kind: Kind) -> u64 {
    let suite = 4 * kind.tier().scale_volume(60);
    match kind {
        Kind::Report => suite + 3 * 12 * (60 + 600 + 6000),
        _ => suite,
    }
}

/// One iteration of `kind`. `round` numbers the iterations of a run (it
/// rotates the server's scheme order together with `seed`).
pub fn iterate(kind: Kind, prep: &Prepared, seed: u64, round: u64, traced: bool) -> Iteration {
    match (kind, prep) {
        (Kind::Server, Prepared::Server(setup)) => server_iteration(setup, seed, round, traced),
        (Kind::Report, _) => report_iteration(traced),
        _ => ref_iteration(traced),
    }
}

fn check_text(it: &mut Iteration, what: &str, got: &str, expected: &str) {
    if got != expected {
        let line = got
            .lines()
            .zip(expected.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(expected.lines().count()));
        it.problems.push(format!(
            "{what} differs from the expected output (first difference at line {})",
            line + 1
        ));
    }
}

fn suite_accounting(it: &mut Iteration, entries: &[SuiteEntry], text: &str) {
    let (rows, error_rows) = table_rows(text);
    let errored = entries.iter().filter(|e| e.error().is_some()).count() as u64;
    it.attempted = entries.len() as u64 + rows;
    it.failed = errored + error_rows;
}

fn report_iteration(traced: bool) -> Iteration {
    let mut it = Iteration::default();
    let t = Instant::now();
    let (entries, text) = if traced {
        let cfg = exp::tier_vm_config(SizeTier::Standard);
        traced::report(exp::worker_count(), &cfg)
    } else {
        let run = exp::run_suite_streamed(&SuiteSpec::default());
        let text = exp::render_all(&run.entries);
        (run.entries, text)
    };
    it.wall_s = t.elapsed().as_secs_f64();
    it.server_rps = nginx_requests(Kind::Report) as f64 / it.wall_s;
    check_text(&mut it, "report.md", &text, EXPECTED_REPORT);
    suite_accounting(&mut it, &entries, &text);
    suite_counters(&mut it, &entries);
    let detect = campaign_detect_rate(&text).unwrap_or_else(|| {
        it.problems
            .push("report has no campaign rows for pythia".to_owned());
        0.0
    });
    it.record_model(suite_model(&entries, detect));
    it
}

fn ref_iteration(traced: bool) -> Iteration {
    let mut it = Iteration::default();
    let t = Instant::now();
    let entries = if traced {
        let cfg = exp::tier_vm_config(SizeTier::Ref);
        crate::trace::span("bench.suite", || {
            traced::suite(SizeTier::Ref, exp::worker_count(), &cfg)
        })
    } else {
        let spec = SuiteSpec {
            tier: SizeTier::Ref,
            ..SuiteSpec::default()
        };
        exp::run_suite_streamed(&spec).entries
    };
    let text = if traced {
        crate::trace::span("bench.render", || traced::suite_sections(&entries))
    } else {
        traced::suite_sections(&entries)
    };
    it.wall_s = t.elapsed().as_secs_f64();
    it.server_rps = nginx_requests(Kind::Ref) as f64 / it.wall_s;
    check_text(&mut it, "ref-tier suite sections", &text, EXPECTED_REF);
    suite_accounting(&mut it, &entries, &text);
    suite_counters(&mut it, &entries);
    // The ref suite runs no attacks: its detection figure is Pythia's
    // share of input-affected branches secured (Fig. 7b mean).
    let secured = mean(
        entries
            .iter()
            .filter_map(SuiteEntry::evaluation)
            .map(|e| e.analysis.pythia_secured),
    );
    it.record_model(suite_model(&entries, secured));
    it
}

fn server_iteration(setup: &server::Setup, seed: u64, round: u64, traced: bool) -> Iteration {
    let mut it = Iteration::default();
    let first = ((seed + round) % setup.variants.len() as u64) as usize;
    let t = Instant::now();
    let loops = match server::round(setup, first, traced) {
        Ok(l) => l,
        Err(e) => {
            it.wall_s = t.elapsed().as_secs_f64();
            it.attempted = 1;
            it.failed = 1;
            it.problems.push(format!("server scenario failed: {e}"));
            return it;
        }
    };
    it.wall_s = t.elapsed().as_secs_f64();
    let retired: u64 = loops.iter().map(|l| l.stats.retired).sum();
    let loop_wall: f64 = loops.iter().map(|l| l.wall_s).sum();
    it.server_rps = retired as f64 / loop_wall;
    it.problems.extend(server::window_model_violations(&loops));
    it.attempted = loops
        .iter()
        .map(|l| l.stats.admitted + l.stats.attacks)
        .sum();
    it.failed = loops.iter().map(|l| l.stats.internal_errors).sum();
    for l in &loops {
        let s = &l.stats;
        let offsets: Vec<String> = s
            .offsets
            .iter()
            .map(|o| format!("{}/{}", o.detected(), o.attacks))
            .collect();
        it.counters.insert(
            scheme_key(l.scheme),
            format!(
                "retired={} admitted={} slices={} insts={} cycles={} attacks={} offsets={} response_sum={}",
                s.retired,
                s.admitted,
                s.slices,
                s.insts,
                s.cycles,
                s.attacks,
                offsets.join(","),
                s.response_sum
            ),
        );
    }
    let sum = |f: &dyn Fn(&LoopRun) -> u64| loops.iter().map(f).sum::<u64>();
    it.counters
        .insert("server.slices", sum(&|l| l.stats.slices).to_string());
    it.counters
        .insert("vm.insts", sum(&|l| l.stats.insts).to_string());
    it.counters
        .insert("vm.sim_cycles", sum(&|l| l.stats.cycles).to_string());
    it.counters.insert(
        "lint.checks",
        setup
            .variants
            .iter()
            .map(|v| v.lint_checks)
            .sum::<usize>()
            .to_string(),
    );
    let by = |s: Scheme| loops.iter().find(|l| l.scheme == s).map(|l| &l.stats);
    let per_req = |s: Scheme| by(s).map_or(0.0, |st| st.cycles as f64 / st.retired.max(1) as f64);
    let overhead = |s: Scheme| 100.0 * (per_req(s) / per_req(Scheme::Vanilla) - 1.0);
    let module = |s: Scheme| {
        &setup
            .variants
            .iter()
            .find(|v| v.scheme == s)
            .expect("variant")
            .module
    };
    let pythia = by(Scheme::Pythia);
    it.record_model([
        overhead(Scheme::Cpa),
        overhead(Scheme::Pythia),
        overhead(Scheme::Dfi),
        100.0 * (module(Scheme::Pythia).num_insts() as f64 / setup.base_insts as f64 - 1.0),
        server::static_pa(module(Scheme::Cpa)) as f64
            / server::static_pa(module(Scheme::Pythia)).max(1) as f64,
        pythia.map_or(0.0, |s| {
            s.in_window_detections() as f64 / s.attacks.max(1) as f64
        }),
    ]);
    it.loops = loops;
    it
}

fn scheme_key(s: Scheme) -> &'static str {
    match s {
        Scheme::Vanilla => "server.vanilla",
        Scheme::Cpa => "server.cpa",
        Scheme::Pythia => "server.pythia",
        Scheme::Dfi => "server.dfi",
    }
}

/// The smoke suite's report under the legacy interpreter must equal the
/// block engine's: the legacy interpreter is the independent reference
/// for the engine every other measurement runs on.
pub fn legacy_engine_violation() -> Option<String> {
    let smoke = |engine| {
        let spec = SuiteSpec {
            smoke: true,
            engine: Some(engine),
            ..SuiteSpec::default()
        };
        let entries = exp::run_suite_streamed(&spec).entries;
        let mut r = exp::errors_section(&entries);
        if !r.is_empty() {
            r.push('\n');
        }
        r.push_str(&exp::fig4a(&exp::ok_evaluations(&entries)));
        r
    };
    let legacy = smoke(pythia_vm::Engine::Legacy);
    let block = smoke(pythia_vm::Engine::Block);
    (legacy != block)
        .then(|| "smoke report differs between the legacy and block engines".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_table_rows_and_error_rows() {
        let text = "## a\n\nx  y\n----\n1  2\n3  ERROR: boom\n\nnot a row\n## b\n\nh\n-----\nr\n";
        assert_eq!(table_rows(text), (3, 1));
    }

    #[test]
    fn expected_report_parses() {
        let (rows, errors) = table_rows(EXPECTED_REPORT);
        assert!(rows > 100, "{rows}");
        assert_eq!(errors, 0);
        let rate = campaign_detect_rate(EXPECTED_REPORT).expect("campaign rows");
        assert!((rate - 92.0 / 96.0).abs() < 1e-12, "{rate}");
    }
}

//! Traced stand-ins for the program's own code paths.
//!
//! Each function here repeats one path `reproduce` takes — `evaluate`,
//! the suite runner, `policies`, `nginx`, `motiv`, `run_campaign_with`,
//! `eq6`, `ablations` — call for call, with a span around every call
//! into a workspace crate's public functions. The untraced run calls the
//! program's real entry points instead; the traced report must come out
//! byte-identical to theirs and its deterministic counters must match,
//! so this copy cannot drift from the real code unnoticed.

use crate::trace::{count, current, span, with_parent};
use pythia_analysis::{
    CtxPolicy, InputChannels, SliceContext, VulnerabilityReport, CTX_NODE_BUDGET,
};
use pythia_bench::experiments::{self as exp, SuiteEntry, SCHEMES};
use pythia_bench::table::{frac, Table};
use pythia_core::{AnalysisSummary, BenchEvaluation, PythiaError, Scheme, SchemeResult, Timings};
use pythia_ir::{verify, Module};
use pythia_lint::lint_instrumented;
use pythia_pa::{brute_force_probability, expected_tries, PaContext, PacConfig};
use pythia_passes::{instrument_pythia_ablated, instrument_with, prune_obligations, PythiaConfig};
use pythia_vm::{
    AttackSpec, DecodedModule, DetectionMechanism, Engine, ExitReason, InputPlan, RunResult, Vm,
    VmConfig,
};
use pythia_workloads::{
    all_scenarios, extended_scenarios, generate, nginx_module, profile_by_name, run_workers,
    BenchProfile, Scenario, SizeTier, SPEC_PROFILES,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Seed of the suite's nginx entry (the suite runner's own constant).
const NGINX_SEED: u64 = 0x9137;

/// Build a VM and run `entry` in it, with one span for construction and
/// one for execution, counting what the run retired.
fn build_and_run<'m>(
    build: impl FnOnce() -> Vm<'m>,
    entry: &str,
    args: &[i64],
) -> Result<RunResult, PythiaError> {
    let mut vm = span("vm.build", build);
    count("vm.builds", 1);
    let r = span("vm.execute", || vm.run(entry, args))?;
    count("vm.insts", r.metrics.insts);
    count("vm.sim_cycles", r.metrics.cycles());
    count(
        "heap.allocs",
        r.metrics.heap_shared.allocs + r.metrics.heap_isolated.allocs,
    );
    count("pa.insts", r.metrics.pa_insts);
    Ok(r)
}

fn decode(module: &Module, engine: Engine) -> Arc<DecodedModule> {
    span("vm.decode", || {
        let decoded = Arc::new(DecodedModule::new(module));
        if engine == Engine::Block {
            decoded.decode_all(module);
        }
        decoded
    })
}

/// Analysis context, vulnerability report and pruned report of `m`.
fn analyze(m: &Module) -> (SliceContext<'_>, VulnerabilityReport, VulnerabilityReport) {
    let ctx = span("analysis.context", || SliceContext::new(m));
    let report = span("analysis.vuln", || VulnerabilityReport::analyze(&ctx));
    let pruned = span("passes.prune", || prune_obligations(&ctx, &report));
    (ctx, report, pruned)
}

/// `pythia_core::evaluate`, traced.
pub fn evaluate(
    module: &Module,
    schemes: &[Scheme],
    seed: u64,
    cfg: &VmConfig,
) -> Result<BenchEvaluation, PythiaError> {
    span("ir.verify", || verify::verify_module(module))?;
    let (ctx, report, pruned) = analyze(module);
    let channels = span("analysis.channels", || InputChannels::find(module));
    count("passes.obligations_pruned", pruned.pruned.total() as u64);
    count("analysis.contexts", pruned.pruned.contexts as u64);

    let mut analysis = AnalysisSummary {
        branches: report.num_branches(),
        unaffected: report.effect_fraction(pythia_analysis::IcEffect::Unaffected),
        direct: report.effect_fraction(pythia_analysis::IcEffect::Direct),
        indirect: report.effect_fraction(pythia_analysis::IcEffect::Indirect),
        pythia_secured: report.pythia_secured_fraction(),
        dfi_secured: report.dfi_secured_fraction(),
        ic_distance: report.mean_ic_distance(),
        dfi_distance: report.mean_dfi_distance(),
        pythia_distance: report.mean_pythia_distance(),
        cpa_value_fraction: report.cpa_value_fraction(),
        pythia_value_fraction: report.pythia_value_fraction(),
        slice_pointer_fraction: report.mean_slice_pointer_fraction(),
        ic_histogram: channels.histogram(),
        ic_total: channels.total(),
        stack_vulns: report.num_stack_vulns(),
        heap_vulns: report.heap_vulns.len(),
        insts: module.num_insts(),
        memo_hits: 0,
        memo_misses: 0,
        avg_points_to: ctx.points_to.avg_points_to_size(),
        field_objects: ctx.points_to.num_field_objects(),
        reach_objects: pruned.pruned.reachable_objects,
        reach_top: pruned.pruned.reach_top,
        proven_gep_stores: pruned.pruned.proven_gep_stores,
        obligations_pruned: pruned.pruned.total(),
        contexts: pruned.pruned.contexts,
        ctx_fallback: pruned.pruned.ctx_fallback,
        pythia_heap_pruned: pruned.pruned.pythia_heap_objects,
        dfi_pruned: pruned.pruned.dfi_objects,
        policy: pruned.pruned.policy,
        summaries: pruned.pruned.summaries,
        summary_reuse: pruned.pruned.summary_reuse,
        strong_updates: pruned.pruned.strong_updates,
    };

    let mut all = vec![Scheme::Vanilla];
    for s in schemes {
        if !all.contains(s) {
            all.push(*s);
        }
    }
    let (ctx, report, pruned) = (&ctx, &report, &pruned);
    let worker = |scheme: Scheme| -> Result<SchemeResult, PythiaError> {
        let unpruned_pa = span("passes.instrument", || {
            instrument_with(module, ctx, report, scheme)
        })
        .stats
        .pa_total();
        let inst = span("passes.instrument", || {
            instrument_with(module, ctx, pruned, scheme)
        });
        count("passes.pa_static", inst.stats.pa_total() as u64);
        let lint = span("lint.certify", || {
            lint_instrumented(module, ctx, pruned, &inst.module, scheme)
        });
        count("lint.checks", lint.checks as u64);
        if !lint.is_clean() {
            return Err(lint.into_setup_error());
        }
        let decoded = decode(&inst.module, cfg.engine);
        let r = build_and_run(
            || Vm::with_decoded(&inst.module, decoded, cfg.clone(), InputPlan::benign(seed)),
            "main",
            &[],
        )?;
        Ok(SchemeResult {
            scheme,
            stats: inst.stats,
            exit: r.exit,
            metrics: r.metrics,
            profile: r.profile,
            lint_checks: lint.checks,
            pa_static_unpruned: unpruned_pa,
        })
    };
    let worker = &worker;
    let isolated = |scheme: Scheme| {
        catch_unwind(AssertUnwindSafe(|| worker(scheme)))
            .unwrap_or_else(|p| Err(PythiaError::from_panic(p.as_ref())))
    };
    let serial = std::env::var("PYTHIA_THREADS").ok().as_deref() == Some("1");
    let outcomes: Vec<(Scheme, Result<SchemeResult, PythiaError>)> = if serial {
        all.into_iter().map(|s| (s, isolated(s))).collect()
    } else {
        let parent = current();
        std::thread::scope(|sc| {
            let handles: Vec<_> = all
                .into_iter()
                .map(|s| (s, sc.spawn(move || with_parent(parent, || isolated(s)))))
                .collect();
            handles
                .into_iter()
                .map(|(s, h)| {
                    let r = h
                        .join()
                        .unwrap_or_else(|p| Err(PythiaError::from_panic(p.as_ref())));
                    (s, r)
                })
                .collect()
        })
    };
    let mut results = Vec::with_capacity(outcomes.len());
    for (scheme, r) in outcomes {
        results.push(r.map_err(|e| e.with_function(format!("{}/{scheme:?}", module.name)))?);
    }
    let (memo_hits, memo_misses) = ctx.memo_stats();
    analysis.memo_hits = memo_hits;
    analysis.memo_misses = memo_misses;
    Ok(BenchEvaluation {
        name: module.name.clone(),
        analysis,
        results,
        timings: Timings::default(),
    })
}

enum Job {
    Profile(BenchProfile),
    Nginx { requests: u64 },
}

/// The suite runner at `tier` (all SPEC-like profiles plus nginx) on
/// `threads` workers, each job generating its module and evaluating it.
pub fn suite(tier: SizeTier, threads: usize, cfg: &VmConfig) -> Vec<SuiteEntry> {
    let mut jobs: Vec<Job> = SPEC_PROFILES
        .iter()
        .map(|p| Job::Profile(p.at_tier(tier)))
        .collect();
    jobs.push(Job::Nginx {
        requests: tier.scale_volume(60),
    });
    // Generation and evaluation both run panic-isolated, like the suite
    // runner's jobs: one failing benchmark becomes an error entry.
    let run = |job: &Job| -> SuiteEntry {
        let (name, seed) = match job {
            Job::Profile(p) => (p.name.to_owned(), p.seed),
            Job::Nginx { .. } => ("nginx".to_owned(), NGINX_SEED),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let m = span("workloads.generate", || match job {
                Job::Profile(p) => generate(p),
                Job::Nginx { requests } => nginx_module(*requests),
            });
            evaluate(&m, &SCHEMES, seed, cfg)
        }))
        .unwrap_or_else(|p| Err(PythiaError::from_panic(p.as_ref())));
        SuiteEntry { name, outcome }
    };
    let slots: Vec<Mutex<Option<SuiteEntry>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let parent = current();
    std::thread::scope(|s| {
        for _ in 0..threads.clamp(1, jobs.len()) {
            s.spawn(|| {
                with_parent(parent, || loop {
                    // A pure index dispenser: results travel through the
                    // slot mutexes and the scope join.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    *slots[i].lock().expect("suite slot poisoned") = Some(run(job));
                })
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("suite slot poisoned")
                .expect("every suite job ran")
        })
        .collect()
}

/// The report's suite-backed sections, in report order.
fn suite_sections_head(suite: &[BenchEvaluation]) -> Vec<String> {
    vec![
        exp::fig4a(suite),
        exp::fig4b(suite),
        exp::fig5a(suite),
        exp::fig5b(suite),
        exp::fig6a(suite),
        exp::fig6b(suite),
        exp::fig7a(suite),
        exp::fig7b(suite),
        exp::dist(suite),
        exp::precision(suite),
    ]
}

fn suite_sections_tail(suite: &[BenchEvaluation]) -> Vec<String> {
    vec![exp::dynpa(suite), exp::heap(suite), exp::models(suite)]
}

/// Every section that renders from the evaluated suite alone, in report
/// order — the output the `ref` workload checks.
pub fn suite_sections(entries: &[SuiteEntry]) -> String {
    let suite = exp::ok_evaluations(entries);
    let mut parts = vec![exp::errors_section(entries)];
    parts.extend(suite_sections_head(&suite));
    parts.extend(suite_sections_tail(&suite));
    parts.retain(|p| !p.is_empty());
    parts.join("\n")
}

/// `reproduce` with no arguments (suite + `render_all`), traced: one
/// `bench.*` span per report section.
pub fn report(threads: usize, cfg: &VmConfig) -> (Vec<SuiteEntry>, String) {
    let entries = span("bench.suite", || suite(SizeTier::Standard, threads, cfg));
    let suite = span("bench.render", || exp::ok_evaluations(&entries));
    let mut out = String::new();
    span("bench.render", || {
        let errors = exp::errors_section(&entries);
        if !errors.is_empty() {
            out.push_str(&errors);
            out.push('\n');
        }
        for s in suite_sections_head(&suite) {
            out.push_str(&s);
            out.push('\n');
        }
    });
    out.push_str(&span("bench.policies", policies));
    out.push('\n');
    span("bench.render", || {
        for s in suite_sections_tail(&suite) {
            out.push_str(&s);
            out.push('\n');
        }
    });
    out.push_str(&span("bench.nginx", nginx));
    out.push('\n');
    out.push_str(&span("bench.motiv", motiv));
    out.push('\n');
    out.push_str(&span("bench.campaign", campaign));
    out.push('\n');
    out.push_str(&span("bench.eq6", eq6));
    out.push('\n');
    out.push_str(&span("bench.ablations", ablations));
    (entries, out)
}

/// `experiments::policies`, traced.
pub fn policies() -> String {
    const POLICIES: [(CtxPolicy, &str); 4] = [
        (CtxPolicy::Insensitive, "insens"),
        (CtxPolicy::OneCfaClone, "1cfa"),
        (CtxPolicy::KCfa(2), "summary-2cfa"),
        (CtxPolicy::ObjSensitive, "objsens"),
    ];
    let mut cols = vec!["benchmark".to_owned()];
    for (_, label) in POLICIES {
        cols.push(format!("pruned@{label}"));
        cols.push(format!("ctxs@{label}"));
    }
    let mut t = Table::new(cols);
    let mut totals = [0usize; POLICIES.len()];
    let mut modules: Vec<(String, Module)> = SPEC_PROFILES
        .iter()
        .map(|p| {
            (
                p.name.to_owned(),
                span("workloads.generate", || generate(p)),
            )
        })
        .collect();
    modules.push((
        "nginx".to_owned(),
        span("workloads.generate", || nginx_module(20)),
    ));
    for (name, m) in &modules {
        let mut row = vec![name.clone()];
        for (i, (policy, _)) in POLICIES.iter().enumerate() {
            let ctx = span("analysis.context", || SliceContext::new(m));
            ctx.set_ctx_policy(*policy, CTX_NODE_BUDGET);
            let report = span("analysis.vuln", || VulnerabilityReport::analyze(&ctx));
            let pruned = span("passes.prune", || prune_obligations(&ctx, &report));
            totals[i] += pruned.pruned.total();
            row.push(pruned.pruned.total().to_string());
            row.push(pruned.pruned.contexts.to_string());
        }
        t.row(row);
    }
    let mut total_row = vec!["TOTAL".to_owned()];
    for n in totals {
        total_row.push(n.to_string());
        total_row.push(String::new());
    }
    t.row(total_row);
    format!(
        "## policies — obligations pruned per context policy (refinement chain: insens ≤ 1cfa ≤ summary-2cfa per row; objsens is an alternative context dimension, sound but not comparable; `summary-2cfa` is the default `PYTHIA_CTX_POLICY`; per-policy wall-clock lives in `scripts/bench.sh`'s trend line, keeping this table deterministic)\n\n{}",
        t.render()
    )
}

/// `experiments::nginx`, traced.
pub fn nginx() -> String {
    let mut t = Table::new(vec!["requests", "scheme", "throughput", "degradation"]);
    for requests in [60u64, 600, 6000] {
        let m = span("workloads.generate", || nginx_module(requests));
        let ctx = span("analysis.context", || SliceContext::new(&m));
        let report = span("analysis.vuln", || VulnerabilityReport::analyze(&ctx));
        let mut base = 0.0f64;
        for scheme in [Scheme::Vanilla, Scheme::Cpa, Scheme::Pythia] {
            let inst = span("passes.instrument", || {
                instrument_with(&m, &ctx, &report, scheme)
            });
            let run = match span("workloads.nginx_run", || {
                run_workers(&inst.module, 12, 0x9e)
            }) {
                Ok(run) => run,
                Err(e) => {
                    t.row(vec![
                        requests.to_string(),
                        scheme.name().to_owned(),
                        format!("ERROR: {e}"),
                        String::new(),
                    ]);
                    continue;
                }
            };
            let tp = run.throughput();
            if scheme == Scheme::Vanilla {
                base = tp;
            }
            let deg = if base > 0.0 { 1.0 - tp / base } else { 0.0 };
            t.row(vec![
                requests.to_string(),
                scheme.name().to_owned(),
                format!("{tp:.2}"),
                frac(deg),
            ]);
        }
    }
    format!(
        "## nginx — 12-worker throughput degradation (paper: CPA 49.13%, Pythia 20.15%)\n\n{}",
        t.render()
    )
}

/// `pythia_core::adjudicate`, traced: `(benign_ok, detected, bent,
/// attack_exit)`.
fn adjudicate(
    s: &Scenario,
    scheme: Scheme,
    cfg: &VmConfig,
) -> Result<(bool, Option<DetectionMechanism>, bool, ExitReason), PythiaError> {
    let (ctx, _report, pruned) = analyze(&s.module);
    let inst = span("passes.instrument", || {
        instrument_with(&s.module, &ctx, &pruned, scheme)
    });
    let benign = build_and_run(
        || Vm::new(&inst.module, cfg.clone(), s.benign.clone()),
        "main",
        &[],
    )
    .map_err(|e| e.with_function(s.name))?;
    let attack = build_and_run(
        || Vm::new(&inst.module, cfg.clone(), s.attack.clone()),
        "main",
        &[],
    )
    .map_err(|e| e.with_function(s.name))?;
    Ok((
        benign.exit == ExitReason::Returned(s.normal_return),
        attack.detected(),
        attack.exit == ExitReason::Returned(s.bent_return),
        attack.exit,
    ))
}

/// `experiments::motiv`, traced.
pub fn motiv() -> String {
    let cfg = VmConfig::default();
    let mut t = Table::new(vec!["scenario", "scheme", "benign", "attack-result"]);
    for s in span("workloads.generate", all_scenarios) {
        for scheme in [Scheme::Vanilla, Scheme::Cpa, Scheme::Pythia, Scheme::Dfi] {
            let (benign_ok, detected, bent, attack_exit) = match adjudicate(&s, scheme, &cfg) {
                Ok(o) => o,
                Err(e) => {
                    t.row(vec![
                        s.name.to_owned(),
                        scheme.name().to_owned(),
                        "ERROR".to_owned(),
                        e.to_string(),
                    ]);
                    continue;
                }
            };
            let verdict = if bent {
                "BENT (attack succeeded)".to_owned()
            } else if let Some(m) = detected {
                format!("DETECTED ({m:?})")
            } else {
                format!("{attack_exit:?}")
            };
            t.row(vec![
                s.name.to_owned(),
                scheme.name().to_owned(),
                if benign_ok { "ok" } else { "BROKEN" }.to_owned(),
                verdict,
            ]);
        }
    }
    format!(
        "## motiv — Listings 1-3 (paper: Pythia detects all three at the input channel)\n\n{}",
        t.render()
    )
}

/// `pythia_core::run_campaign` (analysis + `run_campaign_with`), traced:
/// `(attacks, outcome histogram)`.
fn run_campaign(
    module: &Module,
    scheme: Scheme,
    seed: u64,
    payload_len: usize,
    max_attacks: u64,
    cfg: &VmConfig,
) -> Result<(u64, BTreeMap<&'static str, u64>), PythiaError> {
    let (ctx, _report, pruned) = analyze(module);
    let inst = span("passes.instrument", || {
        instrument_with(module, &ctx, &pruned, scheme)
    });
    let decoded = decode(&inst.module, cfg.engine);
    let run = |plan: InputPlan| {
        count("core.campaign_runs", 1);
        build_and_run(
            || Vm::with_decoded(&inst.module, Arc::clone(&decoded), cfg.clone(), plan),
            "main",
            &[],
        )
        .map_err(|e| e.with_function(module.name.clone()))
    };
    let benign = run(InputPlan::benign(seed))?;
    let total_channels = benign.metrics.ic_writes;
    let step = (total_channels / max_attacks.max(1)).max(1);
    let mut outcomes: BTreeMap<&'static str, u64> = BTreeMap::new();
    let (mut attacks, mut target) = (0u64, 0u64);
    while target < total_channels && attacks < max_attacks {
        let r = run(InputPlan::with_attack(
            seed,
            AttackSpec::smash(target, payload_len),
        ))?;
        let label = match r.detected() {
            Some(DetectionMechanism::Canary) => "detected-canary",
            Some(DetectionMechanism::DataPac) => "detected-pac",
            Some(DetectionMechanism::Dfi) => "detected-dfi",
            None => match (&r.exit, &benign.exit) {
                (ExitReason::Trapped(_), _) => "crashed",
                (a, b) if a == b => "harmless",
                _ => "silently-bent",
            },
        };
        *outcomes.entry(label).or_insert(0) += 1;
        attacks += 1;
        target += step;
    }
    Ok((attacks, outcomes))
}

/// `experiments::campaign`, traced.
pub fn campaign() -> String {
    let cfg = VmConfig::default();
    let mut t = Table::new(vec![
        "benchmark",
        "scheme",
        "attacks",
        "detected",
        "silent-bend",
        "crashed",
        "harmless",
        "rate",
    ]);
    for name in ["505.mcf_r", "502.gcc_r", "510.parest_r"] {
        let p = profile_by_name(name).expect("profile");
        let m = span("workloads.generate", || generate(p));
        for scheme in [Scheme::Vanilla, Scheme::Cpa, Scheme::Pythia, Scheme::Dfi] {
            let r = span("core.campaign", || {
                run_campaign(&m, scheme, p.seed, 64, 32, &cfg)
            });
            let (attacks, outcomes) = match r {
                Ok(r) => r,
                Err(e) => {
                    let mut row = vec![
                        name.to_owned(),
                        scheme.name().to_owned(),
                        format!("ERROR: {e}"),
                    ];
                    row.extend(std::iter::repeat_n(String::new(), 5));
                    t.row(row);
                    continue;
                }
            };
            let n = |label: &str| outcomes.get(label).copied().unwrap_or(0);
            let detected = n("detected-canary") + n("detected-pac") + n("detected-dfi");
            let bent = n("silently-bent");
            let rate = if detected + bent == 0 {
                1.0
            } else {
                detected as f64 / (detected + bent) as f64
            };
            t.row(vec![
                name.to_owned(),
                scheme.name().to_owned(),
                attacks.to_string(),
                detected.to_string(),
                bent.to_string(),
                n("crashed").to_string(),
                n("harmless").to_string(),
                format!("{:.0}%", rate * 100.0),
            ]);
        }
    }
    format!(
        "## campaign — smash every sampled channel execution (threat model §2.5): detection rate of *effective* attacks

{}",
        t.render()
    )
}

/// `experiments::eq6`, traced.
pub fn eq6() -> String {
    let mut out = String::from("## eq6 — brute-forcing PA canaries (paper Eq. 6)\n\n");
    let (p1, tries, p10) = span("pa.brute", || {
        (
            brute_force_probability(1, 24),
            expected_tries(24),
            brute_force_probability(10, 24),
        )
    });
    out.push_str(&format!(
        "analytic, 24-bit PAC: P(forge one canary per attempt) = {p1:.3e} (paper: 1 in 16 million)\n"
    ));
    out.push_str(&format!(
        "analytic, expected attempts for one canary = {tries:.0} (paper: ~16.7 million)\n"
    ));
    out.push_str(&format!("analytic, k=10 canaries: P = {p10:.3e}\n\n"));
    let mut t = Table::new(vec![
        "pac-bits",
        "campaigns",
        "budget",
        "measured",
        "analytic",
    ]);
    let mut rng = SmallRng::seed_from_u64(0xEC6);
    for bits in [8u32, 12, 16] {
        let ctx = PaContext::from_seed(42).with_config(PacConfig {
            va_bits: 40,
            pac_bits: bits,
        });
        let budget = 2u64.pow(bits) / 4;
        let campaigns = 300u64;
        let rate = span("pa.brute", || {
            pythia_pa::brute::empirical_success_rate(&ctx, &mut rng, campaigns, budget)
        });
        let analytic = 1.0 - (1.0 - 1.0 / 2f64.powi(bits as i32)).powi(budget as i32);
        t.row(vec![
            bits.to_string(),
            campaigns.to_string(),
            budget.to_string(),
            format!("{rate:.3}"),
            format!("{analytic:.3}"),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// `experiments::ablations`, traced.
pub fn ablations() -> String {
    let cfg = VmConfig::default();
    let mut t = Table::new(vec!["ablation", "scenario", "attack result"]);
    let run_attack = |m: &Module, s: &Scenario| {
        let r = match build_and_run(|| Vm::new(m, cfg.clone(), s.attack.clone()), "main", &[]) {
            Ok(r) => r,
            Err(e) => return format!("ERROR: {e}"),
        };
        match r.detected() {
            Some(mech) => format!("DETECTED ({mech:?})"),
            None if r.exit.value() == Some(s.bent_return) => "BENT (attack succeeded)".to_owned(),
            None => format!("{:?}", r.exit),
        }
    };
    let scenarios = span("workloads.generate", all_scenarios);
    let extended = span("workloads.generate", extended_scenarios);
    let (listing1, heap, interproc) = (&scenarios[0], &extended[0], &extended[1]);
    let full = PythiaConfig::default();
    let cases: [(&str, &Scenario, PythiaConfig); 6] = [
        ("full pythia", listing1, full),
        (
            "no stack re-layout",
            listing1,
            PythiaConfig {
                relayout: false,
                ..full
            },
        ),
        (
            "no re-randomization",
            listing1,
            PythiaConfig {
                rerandomize: false,
                ..full
            },
        ),
        ("full pythia", heap, full),
        (
            "no heap sectioning",
            heap,
            PythiaConfig {
                heap_sectioning: false,
                ..full
            },
        ),
        (
            "no ret checks",
            interproc,
            PythiaConfig {
                ret_checks: false,
                ..full
            },
        ),
    ];
    for (name, scenario, config) in cases {
        let inst = span("passes.instrument", || {
            instrument_pythia_ablated(&scenario.module, config)
        });
        t.row(vec![
            name.to_owned(),
            scenario.name.to_owned(),
            run_attack(&inst.module, scenario),
        ]);
    }
    let m = span("workloads.generate", || generate(&SPEC_PROFILES[1]));
    let cpa = span("passes.instrument", || {
        pythia_core::instrument(&m, Scheme::Cpa)
    });
    let pyt = span("passes.instrument", || {
        pythia_core::instrument(&m, Scheme::Pythia)
    });
    format!(
        "## ablations — each Pythia ingredient removed in turn\n\n{}\nabl-refine: without IC refinement (CPA) gcc needs {} PA ops; refined Pythia needs {} (+{} canaries)\n",
        t.render(),
        cpa.stats.pa_total(),
        pyt.stats.pa_total(),
        pyt.stats.canaries,
    )
}

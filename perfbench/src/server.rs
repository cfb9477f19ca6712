//! The `server` workload: the event-loop server scenario with its four
//! schemes timed one at a time.
//!
//! `pythia_bench::run_server_scenario` runs the four loops on concurrent
//! threads, so on a small machine each per-scheme wall figure mostly
//! measures contention. This module builds the scenario's inputs (server
//! module, analysis, four certified variants, decode) ahead of the
//! measured step and then times each scheme's `run_event_loop` alone.

use crate::trace::{count, span};
use pythia_analysis::{SliceContext, VulnerabilityReport};
use pythia_core::{instrument_certified, PythiaError, Scheme};
use pythia_ir::{verify, Module};
use pythia_lint::lint_instrumented;
use pythia_passes::{instrument_with, prune_obligations};
use pythia_vm::{static_pa_counts, CacheSim, DecodedModule, Engine, InputPlan, Vm, VmConfig};
use pythia_workloads::{
    run_event_loop, server_module, EventLoopConfig, ServerRunStats, WINDOW_OFFSETS,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The scale `scripts/bench.sh` drives: 8 connections x 4000 requests
/// per scheme.
pub const CONNECTIONS: usize = 8;
pub const REQUESTS: u64 = 4000;
/// The scenario's default traffic seed, whose detection table is part of
/// the repository's output contract.
pub const TRAFFIC_SEED: u64 = 0x5EB0_517E;

pub struct Variant {
    pub scheme: Scheme,
    pub module: Module,
    pub decoded: Arc<DecodedModule>,
    pub lint_checks: usize,
}

pub struct Setup {
    pub base_insts: usize,
    pub variants: Vec<Variant>,
    pub cfg: EventLoopConfig,
}

fn loop_config() -> EventLoopConfig {
    EventLoopConfig::standard(CONNECTIONS, REQUESTS, TRAFFIC_SEED, Engine::from_env())
}

fn decoded(m: &Module, engine: Engine) -> Arc<DecodedModule> {
    let d = Arc::new(DecodedModule::new(m));
    if engine == Engine::Block {
        d.decode_all(m);
    }
    d
}

/// The scenario's set-up through the program's own entry points
/// (`instrument_certified`), untraced.
pub fn setup() -> Result<Setup, PythiaError> {
    let cfg = loop_config();
    let module = server_module();
    verify::verify_module(&module)?;
    let ctx = SliceContext::new(&module);
    let report = VulnerabilityReport::analyze(&ctx);
    let pruned = prune_obligations(&ctx, &report);
    let mut variants = Vec::new();
    for scheme in Scheme::ALL {
        let (m, lint_checks) = instrument_certified(&module, &ctx, &pruned, scheme)?;
        let decoded = decoded(&m, cfg.engine);
        variants.push(Variant {
            scheme,
            module: m,
            decoded,
            lint_checks,
        });
    }
    Ok(Setup {
        base_insts: module.num_insts(),
        variants,
        cfg,
    })
}

/// [`setup`], traced: `instrument_certified` split into its instrument
/// and lint calls.
pub fn setup_traced() -> Result<Setup, PythiaError> {
    let cfg = loop_config();
    let module = span("workloads.generate", server_module);
    span("ir.verify", || verify::verify_module(&module))?;
    let ctx = span("analysis.context", || SliceContext::new(&module));
    let report = span("analysis.vuln", || VulnerabilityReport::analyze(&ctx));
    let pruned = span("passes.prune", || prune_obligations(&ctx, &report));
    count("passes.obligations_pruned", pruned.pruned.total() as u64);
    count("analysis.contexts", pruned.pruned.contexts as u64);
    let mut variants = Vec::new();
    for scheme in Scheme::ALL {
        let inst = span("passes.instrument", || {
            instrument_with(&module, &ctx, &pruned, scheme)
        });
        count("passes.pa_static", inst.stats.pa_total() as u64);
        let lint = span("lint.certify", || {
            lint_instrumented(&module, &ctx, &pruned, &inst.module, scheme)
        });
        count("lint.checks", lint.checks as u64);
        if !lint.is_clean() {
            return Err(lint.into_setup_error());
        }
        let decoded = span("vm.decode", || decoded(&inst.module, cfg.engine));
        variants.push(Variant {
            scheme,
            module: inst.module,
            decoded,
            lint_checks: lint.checks,
        });
    }
    Ok(Setup {
        base_insts: module.num_insts(),
        variants,
        cfg,
    })
}

/// One scheme's loop: its counters and host seconds.
pub struct LoopRun {
    pub scheme: Scheme,
    pub stats: ServerRunStats,
    pub wall_s: f64,
}

fn loop_span(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::Vanilla => "workloads.event_loop.vanilla",
        Scheme::Cpa => "workloads.event_loop.cpa",
        Scheme::Pythia => "workloads.event_loop.pythia",
        Scheme::Dfi => "workloads.event_loop.dfi",
    }
}

/// Run every scheme's event loop, one at a time, starting at scheme
/// `first` (the order rotates with the benchmark seed so no scheme is
/// always timed on a cold or warm machine). Runs come back in
/// [`Scheme::ALL`] order.
pub fn round(setup: &Setup, first: usize, traced: bool) -> Result<Vec<LoopRun>, PythiaError> {
    let n = setup.variants.len();
    let mut runs: Vec<Option<LoopRun>> = (0..n).map(|_| None).collect();
    for k in 0..n {
        let i = (first + k) % n;
        let v = &setup.variants[i];
        let go = || run_event_loop(&v.module, Arc::clone(&v.decoded), &setup.cfg);
        let t = Instant::now();
        let stats = if traced {
            span(loop_span(v.scheme), go)
        } else {
            go()
        }
        .map_err(|e| e.with_function(format!("server-{}", v.scheme)))?;
        runs[i] = Some(LoopRun {
            scheme: v.scheme,
            stats,
            wall_s: t.elapsed().as_secs_f64(),
        });
    }
    Ok(runs
        .into_iter()
        .map(|r| r.expect("every scheme ran"))
        .collect())
}

/// Check the detection-vs-offset table against the re-randomisation
/// window model: vanilla detects nothing, CPA and DFI detect every
/// attack, and Pythia detects everything at offset 0, never rises with
/// the offset, and detects nothing from half an epoch on. Returns the
/// violations.
pub fn window_model_violations(runs: &[LoopRun]) -> Vec<String> {
    let mut bad = Vec::new();
    for r in runs {
        let name = r.scheme.name();
        if r.stats.internal_errors > 0 {
            bad.push(format!(
                "{name}: {} internal errors",
                r.stats.internal_errors
            ));
        }
        let mut prev_rate = f64::INFINITY;
        for (o, &(num, den, label)) in r.stats.offsets.iter().zip(&WINDOW_OFFSETS) {
            if o.attacks == 0 {
                bad.push(format!("{name} @ {label}: no attacks delivered"));
                continue;
            }
            let rate = o.rate();
            let ok = match r.scheme {
                Scheme::Vanilla => o.detected() == 0,
                Scheme::Cpa | Scheme::Dfi => o.detected() == o.attacks,
                Scheme::Pythia => {
                    (num != 0 || o.detected() == o.attacks)
                        && rate <= prev_rate
                        && (2 * num < den || o.detected() == 0)
                }
            };
            if !ok {
                bad.push(format!(
                    "{name} @ {label}: {}/{} detected breaks the window model",
                    o.detected(),
                    o.attacks
                ));
            }
            prev_rate = rate;
        }
    }
    bad
}

/// Static PA instructions (signs + authentications) in a module.
pub fn static_pa(m: &Module) -> u64 {
    let (signs, auths, _) = static_pa_counts(m);
    signs + auths
}

/// Per-request VM cost of the server handler, measured outside the
/// event loop: construction and execution timed separately, plus the
/// cache simulator's construction on its own. Microseconds.
pub struct Probe {
    pub build_us: Vec<f64>,
    pub execute_us: Vec<f64>,
    pub cache_sim_new_us: Vec<f64>,
}

pub fn handler_probe(setup: &Setup, requests: usize, seed: u64) -> Result<Probe, PythiaError> {
    let v = &setup.variants[0];
    let cfg = VmConfig {
        seed,
        max_insts: 10_000_000,
        max_call_depth: 64,
        enable_cache: true,
        trace_limit: 0,
        profile: false,
        engine: setup.cfg.engine,
        record_witness: false,
        inline_exec: true,
        ..VmConfig::default()
    };
    let mut probe = Probe {
        build_us: Vec::with_capacity(requests),
        execute_us: Vec::with_capacity(requests),
        cache_sim_new_us: Vec::with_capacity(requests),
    };
    for i in 0..requests {
        let (conn, req) = ((seed as i64 ^ i as i64) & 7, i as i64);
        let t = Instant::now();
        let mut vm = Vm::with_decoded(
            &v.module,
            Arc::clone(&v.decoded),
            cfg.clone(),
            InputPlan::benign(seed.wrapping_add(i as u64)),
        );
        probe.build_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let r = vm.run("handle_request", &[conn, req])?;
        probe.execute_us.push(t.elapsed().as_secs_f64() * 1e6);
        if r.exit.value().is_none() {
            return Err(PythiaError::internal(format!(
                "handler probe request {i} ended {:?}",
                r.exit
            )));
        }
        let t = Instant::now();
        black_box(CacheSim::m1_like());
        probe.cache_sim_new_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_workloads::OffsetStats;

    /// Loops whose per-offset detections are `detected[scheme][offset]`
    /// out of 10 attacks each.
    fn loops(detected: [[u64; 6]; 4]) -> Vec<LoopRun> {
        Scheme::ALL
            .iter()
            .zip(detected)
            .map(|(&scheme, row)| LoopRun {
                scheme,
                stats: ServerRunStats {
                    offsets: row
                        .iter()
                        .map(|&d| OffsetStats {
                            attacks: 10,
                            canary: d,
                            ..OffsetStats::default()
                        })
                        .collect(),
                    ..ServerRunStats::default()
                },
                wall_s: 1.0,
            })
            .collect()
    }

    const MODEL: [[u64; 6]; 4] = [[0; 6], [10; 6], [10, 9, 8, 3, 0, 0], [10; 6]];

    #[test]
    fn window_model_accepts_the_expected_curve() {
        assert!(window_model_violations(&loops(MODEL)).is_empty());
    }

    #[test]
    fn window_model_rejects_each_broken_property() {
        let broken = |scheme: usize, offset: usize, d: u64| {
            let mut t = MODEL;
            t[scheme][offset] = d;
            window_model_violations(&loops(t))
        };
        assert_eq!(broken(0, 3, 1).len(), 1, "vanilla detected an attack");
        assert_eq!(broken(1, 2, 9).len(), 1, "cpa missed an attack");
        assert_eq!(broken(3, 5, 0).len(), 1, "dfi missed attacks");
        assert_eq!(broken(2, 0, 9).len(), 1, "pythia missed at offset 0");
        assert_eq!(broken(2, 2, 10).len(), 1, "pythia rose with the offset");
        assert_eq!(
            broken(2, 4, 1).len(),
            1,
            "pythia detected past half an epoch"
        );
    }
}

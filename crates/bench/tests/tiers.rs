//! The ref-size tier and the streaming bounded-memory runner (DESIGN.md
//! §5g): scaling a profile up must stay a pure size change — reports
//! deterministic across worker counts, memory bounded by the worker
//! window, and the interval-analysis proof path actually exercised.

use pythia_bench::experiments as exp;
use pythia_core::{Engine, VmConfig};
use pythia_workloads::SizeTier;

const NAMES: [&str; 2] = ["519.lbm_r", "505.mcf_r"];

fn render(suite: &[pythia_core::BenchEvaluation]) -> String {
    let mut out = String::new();
    out.push_str(&exp::fig4a(suite));
    out.push_str(&exp::fig4b(suite));
    out.push_str(&exp::fig5a(suite));
    out.push_str(&exp::fig6a(suite));
    out.push_str(&exp::fig6b(suite));
    out.push_str(&exp::fig7a(suite));
    out.push_str(&exp::fig7b(suite));
    out.push_str(&exp::dist(suite));
    out
}

#[test]
fn ref_tier_report_is_byte_identical_across_worker_counts() {
    let cfg = exp::tier_vm_config(SizeTier::Ref);
    let serial = exp::ok_evaluations(&exp::run_profiles(&NAMES, SizeTier::Ref, 1, &cfg));
    let parallel = exp::ok_evaluations(&exp::run_profiles(&NAMES, SizeTier::Ref, 4, &cfg));
    assert_eq!(serial.len(), NAMES.len(), "every benchmark must evaluate");
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.name, b.name, "output order must be deterministic");
        assert_eq!(a.analysis, b.analysis, "{}: analysis summary differs", a.name);
        for (ra, rb) in a.results.iter().zip(&b.results) {
            assert_eq!(ra.stats, rb.stats, "{}: instrumentation differs", a.name);
            assert_eq!(ra.exit, rb.exit, "{}: exit differs", a.name);
            assert_eq!(ra.metrics, rb.metrics, "{}: metrics differ", a.name);
            assert_eq!(ra.profile, rb.profile, "{}: profile differs", a.name);
        }
    }
    assert_eq!(
        render(&serial),
        render(&parallel),
        "ref-tier report text must be byte-identical at 1 vs 4 workers"
    );
}

#[test]
fn ref_tier_peak_resident_memory_is_bounded() {
    // The ref tier triples the function count and extends the driver
    // loops; the VM's touched-page resident set must scale with that and
    // no worse. k = 8 gives the ~3× static growth (plus the walk arrays
    // the tier enables) generous page-granularity headroom while still
    // catching accidental suite-proportional blowup — e.g. a runner that
    // holds every evaluation live would multiply peak memory by the
    // 17-benchmark suite size, not by 8.
    const K: u64 = 8;
    let peak = |tier: SizeTier| -> u64 {
        let cfg = exp::tier_vm_config(tier);
        let evs = exp::ok_evaluations(&exp::run_profiles(
            &["519.lbm_r"],
            tier,
            1,
            &cfg,
        ));
        evs[0]
            .results
            .iter()
            .map(|r| r.profile.resident_bytes)
            .max()
            .unwrap_or(0)
    };
    let standard = peak(SizeTier::Standard);
    let reference = peak(SizeTier::Ref);
    assert!(standard > 0, "standard tier must touch memory");
    assert!(
        reference < K * standard,
        "ref-tier peak resident ({reference} B) must stay under {K}x standard ({standard} B)"
    );
}

#[test]
fn ref_tier_proves_geps_and_prunes_obligations() {
    // The tier's bounded-loop array walks exist to give the interval
    // analysis something to prove: a guarded, IC-tainted dynamic index
    // whose bounds check the analysis can discharge. At the standard tier
    // lbm has no such site; at ref it must prove at least one and the
    // instrumenter must prune the corresponding PA obligation.
    let cfg = exp::tier_vm_config(SizeTier::Ref);
    let evs = exp::ok_evaluations(&exp::run_profiles(
        &["519.lbm_r"],
        SizeTier::Ref,
        1,
        &cfg,
    ));
    let a = &evs[0].analysis;
    assert!(
        a.proven_gep_stores >= 1,
        "ref-tier lbm must prove at least one guarded gep store"
    );
    assert!(
        a.obligations_pruned >= 1,
        "a proven gep store must prune its PA obligation"
    );
}

#[test]
fn suite_spec_engine_override_reaches_the_smoke_path() {
    // Regression: the smoke runner and evaluate_modules used to hardcode
    // VmConfig::default(), so `reproduce --smoke --engine legacy` silently
    // ran whatever PYTHIA_ENGINE said. The override is pinned via
    // SuiteSpec/cfg.engine, never the environment (tests run
    // concurrently; env mutation races) — the default engine is Block,
    // so a Legacy override reaching BENCH_suite.json proves the plumbing.
    assert_eq!(VmConfig::default().engine, Engine::Block);
    let spec = exp::SuiteSpec {
        smoke: true,
        only: Some(vec!["519.lbm_r".to_owned()]),
        engine: Some(Engine::Legacy),
        ..Default::default()
    };
    let run = exp::run_suite_streamed(&spec);
    assert!(
        run.json.contains("\"engine\": \"legacy\""),
        "smoke run must report the overridden engine, got:\n{}",
        run.json
    );
    let default_spec = exp::SuiteSpec {
        smoke: true,
        only: Some(vec!["519.lbm_r".to_owned()]),
        ..Default::default()
    };
    let default_run = exp::run_suite_streamed(&default_spec);
    assert!(
        default_run.json.contains("\"engine\": \"block\""),
        "without an override the smoke run reports the default engine"
    );
}

#[test]
fn streaming_runner_respects_its_backpressure_window() {
    let spec = exp::SuiteSpec {
        smoke: true,
        ..Default::default()
    };
    let run = exp::run_suite_streamed(&spec);
    assert_eq!(run.stream.jobs, 3, "smoke suite is lbm + mcf + nginx");
    assert!(
        run.stream.peak_buffered <= run.stream.window,
        "reorder buffer ({}) exceeded the claim window ({})",
        run.stream.peak_buffered,
        run.stream.window
    );
    assert!(run.json.contains("\"runner\": \"streaming\""));
    assert!(run.json.contains("\"tier\": \"standard\""));
    // The streamed entries are digests: execution profiles were consumed
    // into the JSON rows and profile_md, then dropped.
    for ev in exp::ok_evaluations(&run.entries) {
        for r in &ev.results {
            assert_eq!(
                r.profile.total_ops(),
                0,
                "{}: streamed entries must carry stripped profiles",
                ev.name
            );
        }
    }
    assert!(run.json.contains("\"peak_resident_bytes\""));
    assert!(run.json.contains("\"analysis_share\""));
}

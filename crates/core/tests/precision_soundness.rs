//! Precision-stage soundness, suite-wide.
//!
//! Two properties guard the field-sensitive points-to upgrade and the
//! obligation pruning it feeds (DESIGN.md §5e):
//!
//! 1. **Refinement**: the field-sensitive relation is a refinement of the
//!    field-insensitive one — coarsening every field object to its root
//!    yields a subset of the insensitive points-to set, `may_alias` never
//!    gains pairs, and the DFI slice relation is byte-identical to a
//!    directly-computed field-insensitive solve (so DFI slices are
//!    unchanged by the upgrade).
//! 2. **Pruning soundness**: attacking pruned and unpruned builds of the
//!    same benchmark produces identical outcome histograms — dropping a
//!    statically-unreachable obligation never costs a detection.

use pythia_analysis::{
    CtxPolicy, PointsTo, Precision, SliceContext, SliceMode, SummaryPointsTo, VulnerabilityReport,
    CTX_NODE_BUDGET,
};
use pythia_core::{instrument_with, run_campaign_with, Scheme, VmConfig};
use pythia_ir::{Module, ValueId};
use pythia_passes::prune_obligations;
use pythia_workloads::{generate, nginx_module, profile_by_name, SPEC_PROFILES};

/// Every suite module: the 16 SPEC-like profiles plus a short nginx run.
fn suite_modules() -> Vec<Module> {
    let mut ms: Vec<Module> = SPEC_PROFILES.iter().map(generate).collect();
    ms.push(nginx_module(20));
    ms
}

#[test]
fn field_sensitive_is_a_refinement_of_field_insensitive() {
    for m in suite_modules() {
        let fs = PointsTo::analyze_with(&m, Precision::FieldSensitive);
        let fi = PointsTo::analyze_with(&m, Precision::FieldInsensitive);

        // Roots are interned identically; fields come strictly after.
        assert_eq!(
            fi.objects(),
            &fs.objects()[..fi.num_objects()],
            "{}: root object numbering diverged",
            m.name
        );
        assert_eq!(fi.num_field_objects(), 0, "{}: fi split a field", m.name);

        for fid in m.func_ids() {
            let f = m.func(fid);
            let mut sampled: Vec<ValueId> = Vec::new();
            for v in (0..f.num_values() as u32).map(ValueId) {
                let s = fs.points_to(fid, v);
                let i = fi.points_to(fid, v);
                // ⊤ can only shrink under refinement, never appear.
                assert!(
                    !s.unknown || i.unknown,
                    "{}: fn{} v{} is ⊤ only field-sensitively",
                    m.name,
                    fid.0,
                    v.0
                );
                if !i.unknown {
                    for &o in &s.objects {
                        assert!(
                            i.objects.contains(&fs.base_object(o)),
                            "{}: fn{} v{}: fs object {o} (root {}) missing from fi set",
                            m.name,
                            fid.0,
                            v.0,
                            fs.base_object(o)
                        );
                    }
                }
                if !s.is_empty() && sampled.len() < 40 {
                    sampled.push(v);
                }
            }
            // may_alias is monotone: refinement only removes pairs.
            for (ai, &a) in sampled.iter().enumerate() {
                for &b in &sampled[ai..] {
                    if fs.may_alias((fid, a), (fid, b)) {
                        assert!(
                            fi.may_alias((fid, a), (fid, b)),
                            "{}: fn{}: fs aliases v{} v{} but fi does not",
                            m.name,
                            fid.0,
                            a.0,
                            b.0
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn one_cfa_is_a_refinement_of_the_insensitive_relation() {
    for m in suite_modules() {
        let base = PointsTo::analyze_with(&m, Precision::FieldSensitive);
        let ctx1 = SummaryPointsTo::analyze(&m, &base, CtxPolicy::KCfa(1), CTX_NODE_BUDGET);
        assert!(
            !ctx1.is_fallback(),
            "{}: suite module exhausted the context-node budget",
            m.name
        );
        assert!(ctx1.stats().contexts > 0, "{}", m.name);
        for fid in m.func_ids() {
            let f = m.func(fid);
            let nctx = ctx1.num_contexts_of(fid);
            assert!(nctx >= 1, "{}: fn{} has no contexts", m.name, fid.0);
            for v in (0..f.num_values() as u32).map(ValueId) {
                let b = base.points_to(fid, v);
                // The union over contexts is ⊆ the insensitive set: the
                // 1-CFA solve replays the same per-function constraints
                // with sharper call linking (and strong-update kills), so
                // sets (and ⊤) only shrink.
                let proj = ctx1.projected(fid, v).expect("non-fallback projection");
                assert!(
                    !proj.unknown || b.unknown,
                    "{}: fn{} v{} is ⊤ only context-sensitively",
                    m.name,
                    fid.0,
                    v.0
                );
                for ci in 0..nctx {
                    let s = ctx1.points_to_in(fid, ci, v).expect("non-fallback set");
                    assert!(
                        !s.unknown || b.unknown,
                        "{}: fn{} ctx{} v{} is ⊤ only context-sensitively",
                        m.name,
                        fid.0,
                        ci,
                        v.0
                    );
                    if b.unknown {
                        continue;
                    }
                    for &o in &s.objects {
                        assert!(
                            proj.objects.contains(&o),
                            "{}: fn{} ctx{} v{}: object {o} missing from the projection",
                            m.name,
                            fid.0,
                            ci,
                            v.0
                        );
                        assert!(
                            b.objects.contains(&o),
                            "{}: fn{} ctx{} v{}: object {o} missing from the insensitive set",
                            m.name,
                            fid.0,
                            ci,
                            v.0
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn summary_two_cfa_refines_one_cfa_refines_insensitive() {
    // The full refinement chain for the summary solver, on every suite
    // module: each per-context set is ⊆ its function's projection, the
    // projection is ⊆ the 1-CFA projection (deeper chains only shrink
    // sets; both apply the same strong-update kills), and that in turn is ⊆ the
    // insensitive base relation. ⊤ is likewise monotone down the chain.
    for m in suite_modules() {
        let base = PointsTo::analyze_with(&m, Precision::FieldSensitive);
        let ctx1 = SummaryPointsTo::analyze(&m, &base, CtxPolicy::KCfa(1), CTX_NODE_BUDGET);
        let sum2 = SummaryPointsTo::analyze(&m, &base, CtxPolicy::KCfa(2), CTX_NODE_BUDGET);
        assert!(
            !sum2.is_fallback(),
            "{}: summary solver exhausted the context-node budget",
            m.name
        );
        assert!(
            sum2.summaries() > 0,
            "{}: summary solver built no summaries",
            m.name
        );
        for fid in m.func_ids() {
            let f = m.func(fid);
            let nctx = sum2.num_contexts_of(fid);
            assert!(nctx >= 1, "{}: fn{} has no summary contexts", m.name, fid.0);
            for v in (0..f.num_values() as u32).map(ValueId) {
                let b = base.points_to(fid, v);
                let p1 = ctx1.projected(fid, v).expect("non-fallback 1-CFA");
                let p2 = sum2.projected(fid, v).expect("non-fallback summary");
                assert!(
                    !p1.unknown || b.unknown,
                    "{}: fn{} v{} is ⊤ only under 1-CFA",
                    m.name,
                    fid.0,
                    v.0
                );
                assert!(
                    !p2.unknown || p1.unknown,
                    "{}: fn{} v{} is ⊤ only under summary 2-CFA",
                    m.name,
                    fid.0,
                    v.0
                );
                if !p1.unknown {
                    for &o in &p2.objects {
                        assert!(
                            p1.objects.contains(&o),
                            "{}: fn{} v{}: summary object {o} missing from 1-CFA",
                            m.name,
                            fid.0,
                            v.0
                        );
                    }
                }
                if !b.unknown {
                    for &o in &p1.objects {
                        assert!(
                            b.objects.contains(&o),
                            "{}: fn{} v{}: 1-CFA object {o} missing from insensitive",
                            m.name,
                            fid.0,
                            v.0
                        );
                    }
                }
                for ci in 0..nctx {
                    let s = sum2.points_to_in(fid, ci, v).expect("non-fallback set");
                    assert!(
                        !s.unknown || p2.unknown,
                        "{}: fn{} ctx{} v{} is ⊤ only per-context",
                        m.name,
                        fid.0,
                        ci,
                        v.0
                    );
                    if p2.unknown {
                        continue;
                    }
                    for &o in &s.objects {
                        assert!(
                            p2.objects.contains(&o),
                            "{}: fn{} ctx{} v{}: object {o} missing from the projection",
                            m.name,
                            fid.0,
                            ci,
                            v.0
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn dfi_slice_relation_is_the_field_insensitive_solve() {
    for m in suite_modules() {
        let ctx = SliceContext::new(&m);
        assert_eq!(
            ctx.relation(SliceMode::Pythia).precision(),
            Precision::FieldSensitive
        );
        let dfi = ctx.relation(SliceMode::Dfi);
        assert_eq!(dfi.precision(), Precision::FieldInsensitive);

        // Byte-identical to a direct field-insensitive solve: DFI slices
        // (a function of this relation plus unchanged def-use chains)
        // cannot have moved when the field-sensitive mode landed.
        let direct = PointsTo::analyze_with(&m, Precision::FieldInsensitive);
        assert_eq!(dfi.objects(), direct.objects(), "{}", m.name);
        for fid in m.func_ids() {
            for v in (0..m.func(fid).num_values() as u32).map(ValueId) {
                assert_eq!(
                    dfi.points_to(fid, v),
                    direct.points_to(fid, v),
                    "{}: fn{} v{}",
                    m.name,
                    fid.0,
                    v.0
                );
            }
        }
    }
}

#[test]
fn pruned_and_unpruned_campaigns_are_byte_identical() {
    let cfg = VmConfig::default();
    let mut strictly_reduced = 0usize;
    for name in ["505.mcf_r", "502.gcc_r", "520.omnetpp_r"] {
        let p = profile_by_name(name).expect("profile");
        let m = generate(p);
        let ctx = SliceContext::new(&m);
        let report = VulnerabilityReport::analyze(&ctx);
        let pruned = prune_obligations(&ctx, &report);
        assert!(
            pruned.pruned.total() > 0,
            "{name}: expected the precision stage to prune something"
        );
        // The 1-CFA upgrade must prune Pythia heap-section and DFI
        // obligations on these heap-bearing benchmarks — the outcome
        // histograms below prove those drops cost no detection.
        assert!(
            pruned.pruned.pythia_heap_objects > 0,
            "{name}: expected pruned Pythia heap obligations"
        );
        assert!(
            pruned.pruned.dfi_objects > 0,
            "{name}: expected pruned DFI obligations"
        );
        assert!(
            !pruned.pruned.ctx_fallback,
            "{name}: context solver fell back on a suite benchmark"
        );

        let unpruned_pa = instrument_with(&m, &ctx, &report, Scheme::Cpa)
            .stats
            .pa_total();
        let pruned_pa = instrument_with(&m, &ctx, &pruned, Scheme::Cpa)
            .stats
            .pa_total();
        assert!(pruned_pa <= unpruned_pa);
        if pruned_pa < unpruned_pa {
            strictly_reduced += 1;
        }

        for scheme in [Scheme::Cpa, Scheme::Pythia, Scheme::Dfi] {
            let before =
                run_campaign_with(&m, &ctx, &report, scheme, p.seed, 64, 12, &cfg).unwrap();
            let after =
                run_campaign_with(&m, &ctx, &pruned, scheme, p.seed, 64, 12, &cfg).unwrap();
            assert_eq!(before.attacks, after.attacks, "{name}/{scheme:?}");
            assert_eq!(
                before.outcomes, after.outcomes,
                "{name}/{scheme:?}: pruning changed an attack outcome"
            );
            if scheme == Scheme::Pythia {
                assert!(
                    after.detected() > 0,
                    "{name}: pruned pythia build detected nothing: {:?}",
                    after.outcomes
                );
            }
        }
    }
    assert_eq!(
        strictly_reduced, 3,
        "CPA static PA must strictly decrease on all three benchmarks"
    );
}

//! Context-policy solver benchmarks: the insensitive fallback and the
//! summary-based 2-CFA solver over the gcc profile and a short nginx
//! event-loop module.

use criterion::{criterion_group, criterion_main, Criterion};
use pythia_analysis::{CtxPolicy, PointsTo, SummaryPointsTo, CTX_NODE_BUDGET};
use pythia_workloads::{generate, nginx_module, profile_by_name};

fn bench_alias(c: &mut Criterion) {
    let modules = [
        ("gcc", generate(profile_by_name("gcc").unwrap())),
        ("nginx", nginx_module(20)),
    ];
    let policies = [
        ("insensitive", CtxPolicy::Insensitive),
        ("summary_2cfa", CtxPolicy::KCfa(2)),
    ];

    for (mname, m) in &modules {
        let base = PointsTo::analyze(m);
        for (pname, policy) in policies {
            c.bench_function(&format!("alias/{pname}_{mname}"), |b| {
                b.iter(|| {
                    std::hint::black_box(SummaryPointsTo::analyze(
                        m,
                        &base,
                        policy,
                        CTX_NODE_BUDGET,
                    ))
                })
            });
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_alias
}
criterion_main!(benches);

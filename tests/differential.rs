//! Differential property testing: for *random* valid programs with
//! buffers, channels and branches, every protection scheme must
//!
//! 1. produce verifiable IR,
//! 2. preserve benign behaviour exactly (same exit, same result), and
//! 3. never make the program slower than a sane bound (sanity, not perf).
//!
//! This is the strongest correctness net in the repository: it explores
//! program shapes no hand-written test covers.

use proptest::prelude::*;
use pythia::core::{instrument_with, PythiaError, Scheme};
use pythia::heap::SectionConfig;
use pythia::ir::{verify, CastKind, CmpPred, FunctionBuilder, Intrinsic, Module, Ty, ValueId};
use pythia::vm::{
    AttackSpec, DecodedModule, Engine, ExitReason, InputPlan, RunResult, Vm, VmConfig,
};
use pythia::workloads::{server_module, ADMIN_MAGIC};
use std::sync::Arc;

/// One step of the random program recipe.
#[derive(Debug, Clone)]
enum Step {
    /// `v = v * a + b`
    Arith(i64, i64),
    /// Allocate an i64 slot, store v, reload it.
    SlotRoundTrip,
    /// Allocate a buffer and read into it (fgets, bounded).
    GetBuf,
    /// memcpy an i64 staging slot into a fresh slot, branch on it.
    CopyBranch(i64),
    /// Diamond on `v % m > t`.
    Branch(i64, i64),
    /// Heap cell: malloc, store, load, free.
    HeapCell,
    /// scanf into a slot and mix it in.
    Scan,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1i64..9, 0i64..50).prop_map(|(a, b)| Step::Arith(a, b)),
        Just(Step::SlotRoundTrip),
        Just(Step::GetBuf),
        (1i64..99).prop_map(Step::CopyBranch),
        (2i64..9, 0i64..8).prop_map(|(m, t)| Step::Branch(m, t)),
        Just(Step::HeapCell),
        Just(Step::Scan),
    ]
}

/// Build a runnable module from a recipe. All allocas are hoisted to the
/// planning phase (entry block), mirroring how the real generator works.
fn build(steps: &[Step]) -> Module {
    let mut m = Module::new("differential");
    let fmt = m.add_str_global("fmt", "%d");
    let mut b = FunctionBuilder::new("main", vec![], Ty::I64);

    // Plan: pre-allocate slots per step.
    let mut slots: Vec<Vec<ValueId>> = Vec::with_capacity(steps.len());
    for s in steps {
        slots.push(match s {
            Step::SlotRoundTrip => vec![b.alloca(Ty::I64)],
            Step::GetBuf => vec![b.alloca(Ty::array(Ty::I8, 16))],
            Step::CopyBranch(_) => vec![b.alloca(Ty::I64), b.alloca(Ty::I64)],
            Step::Scan => vec![b.alloca(Ty::I64)],
            _ => vec![],
        });
    }

    let mut v = b.const_i64(1);
    for (j, s) in steps.iter().enumerate() {
        match s {
            Step::Arith(a, c) => {
                let ka = b.const_i64(*a);
                let kc = b.const_i64(*c);
                let t = b.mul(v, ka);
                v = b.add(t, kc);
            }
            Step::SlotRoundTrip => {
                let slot = slots[j][0];
                b.store(v, slot);
                v = b.load(slot);
            }
            Step::GetBuf => {
                let buf = slots[j][0];
                let lim = b.const_i64(15);
                b.call_intrinsic(Intrinsic::Fgets, vec![buf, lim], Ty::ptr(Ty::I8));
                let n = b.call_intrinsic(Intrinsic::Strlen, vec![buf], Ty::I64);
                v = b.add(v, n);
            }
            Step::CopyBranch(t) => {
                let (staging, dst) = (slots[j][0], slots[j][1]);
                b.store(v, staging);
                let eight = b.const_i64(8);
                b.call_intrinsic(
                    Intrinsic::Memcpy,
                    vec![dst, staging, eight],
                    Ty::ptr(Ty::I8),
                );
                let lv = b.load(dst);
                let hundred = b.const_i64(100);
                let r = b.bin(pythia::ir::BinOp::Srem, lv, hundred);
                let kt = b.const_i64(*t);
                let c = b.icmp(CmpPred::Sgt, r, kt);
                let (tb, eb, jb) = (
                    b.new_block(format!("t{j}")),
                    b.new_block(format!("e{j}")),
                    b.new_block(format!("j{j}")),
                );
                b.br(c, tb, eb);
                let one = b.const_i64(1);
                let two = b.const_i64(2);
                b.switch_to(tb);
                let x1 = b.add(v, one);
                b.jmp(jb);
                b.switch_to(eb);
                let x2 = b.add(v, two);
                b.jmp(jb);
                b.switch_to(jb);
                v = b.phi(vec![(tb, x1), (eb, x2)]);
            }
            Step::Branch(mdl, t) => {
                let km = b.const_i64(*mdl);
                let kt = b.const_i64(*t);
                let r = b.bin(pythia::ir::BinOp::Srem, v, km);
                let c = b.icmp(CmpPred::Sgt, r, kt);
                let (tb, eb, jb) = (
                    b.new_block(format!("bt{j}")),
                    b.new_block(format!("be{j}")),
                    b.new_block(format!("bj{j}")),
                );
                b.br(c, tb, eb);
                let three = b.const_i64(3);
                let five = b.const_i64(5);
                b.switch_to(tb);
                let x1 = b.add(v, three);
                b.jmp(jb);
                b.switch_to(eb);
                let x2 = b.add(v, five);
                b.jmp(jb);
                b.switch_to(jb);
                v = b.phi(vec![(tb, x1), (eb, x2)]);
            }
            Step::HeapCell => {
                let eight = b.const_i64(8);
                let h = b.call_intrinsic(Intrinsic::Malloc, vec![eight], Ty::ptr(Ty::I64));
                b.store(v, h);
                let lv = b.load(h);
                b.call_intrinsic(Intrinsic::Free, vec![h], Ty::Void);
                v = lv;
            }
            Step::Scan => {
                let slot = slots[j][0];
                let ga = b.global_addr(fmt, Ty::array(Ty::I8, 3));
                b.call_intrinsic(Intrinsic::Scanf, vec![ga, slot], Ty::I64);
                let sv = b.load(slot);
                v = b.add(v, sv);
            }
        }
    }
    b.ret(Some(v));
    m.add_function(b.finish());
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn schemes_preserve_random_program_behaviour(
        steps in proptest::collection::vec(step_strategy(), 1..14),
        seed in 0u64..1000,
    ) {
        let m = build(&steps);
        prop_assert!(verify::verify_module(&m).is_ok(), "generated module invalid");

        let ctx = pythia::analysis::SliceContext::new(&m);
        let report = pythia::analysis::VulnerabilityReport::analyze(&ctx);

        let run = |m: &Module| {
            let mut vm = Vm::new(m, VmConfig::default(), InputPlan::benign(seed));
            vm.run("main", &[]).expect("verified module must run")
        };
        let vanilla = run(&m);
        prop_assert!(
            matches!(vanilla.exit, ExitReason::Returned(_)),
            "vanilla must complete: {:?}", vanilla.exit
        );

        for scheme in [Scheme::Cpa, Scheme::Pythia, Scheme::Dfi] {
            let inst = instrument_with(&m, &ctx, &report, scheme);
            if let Err(errs) = verify::verify_module(&inst.module) {
                prop_assert!(false, "{scheme}: invalid IR: {:?}", &errs[..errs.len().min(2)]);
            }
            let r = run(&inst.module);
            prop_assert_eq!(
                r.exit, vanilla.exit,
                "{} changed the program result (steps: {:?})", scheme, steps
            );
            // Instrumentation can only add work.
            prop_assert!(r.metrics.cycles_mc >= vanilla.metrics.cycles_mc);
        }
    }
}

/// The Pythia-instrumented server module plus a `fault` entry that
/// loads through a null-page pointer.
fn reset_module() -> Module {
    let mut m = server_module();
    let mut b = FunctionBuilder::new("fault", vec![], Ty::I64);
    let k = b.const_i64(8);
    let p = b.cast(CastKind::IntToPtr, k, Ty::ptr(Ty::I64));
    let v = b.load(p);
    b.ret(Some(v));
    m.add_function(b.finish());
    verify::verify_module(&m).expect("valid IR");
    let ctx = pythia::analysis::SliceContext::new(&m);
    let report = pythia::analysis::VulnerabilityReport::analyze(&ctx);
    instrument_with(&m, &ctx, &report, Scheme::Pythia).module
}

/// Everything a run shows: its result, and the VM state the caller can
/// read afterwards.
fn observe(vm: &mut Vm<'_>, entry: &str, args: &[i64]) -> String {
    let r: Result<RunResult, PythiaError> = vm.run(entry, args);
    format!(
        "{:?}\nresident {}\nwitness {:?}\ntrace {:?}",
        r.map(|r| (r.exit, r.metrics, r.profile)),
        vm.memory().resident_bytes(),
        vm.witness(),
        vm.trace()
    )
}

/// One VM, `reset` between runs that end every way a run can (return,
/// budget cut mid-call, canary detection, memory fault, setup error),
/// must show exactly what a freshly built VM shows for each run, under
/// both engines.
#[test]
fn a_reset_vm_runs_exactly_like_a_fresh_one() {
    let m = reset_module();
    let request = [3i64, 5];
    let server = |seed: u64| VmConfig {
        seed,
        max_call_depth: 64,
        inline_exec: true,
        ..VmConfig::default()
    };

    // The overflow payload, as the server scenario's injector splices it:
    // junk from the request buffer up to `role`, then the admin magic.
    let mut probe = Vm::new(
        &m,
        VmConfig {
            record_witness: true,
            ..server(1)
        },
        InputPlan::benign(7),
    );
    probe.run("handle_request", &request).unwrap();
    let w = probe.witness();
    let at = |n: u64| w.ic_writes.iter().find(|e| e.0 == n).unwrap().1;
    let (role, reqbuf) = (at(0), at(1));
    let mut payload = vec![0x41u8; (role - reqbuf + 8) as usize];
    let tail = payload.len() - 8;
    payload[tail..].copy_from_slice(&ADMIN_MAGIC.to_le_bytes());
    let attack = InputPlan::with_attack(
        7,
        AttackSpec {
            ic_execution: 1,
            payload,
        },
    );
    let bad_heap = SectionConfig {
        base: u64::MAX - 0xf,
        ..SectionConfig::default()
    };

    #[allow(clippy::type_complexity)]
    let runs: Vec<(&str, &[i64], VmConfig, InputPlan, &str)> = vec![
        (
            "handle_request",
            &request[..],
            server(1),
            InputPlan::benign(7),
            "Ok((Returned(",
        ),
        (
            "main",
            &[],
            VmConfig {
                max_insts: 300,
                ..server(1)
            },
            InputPlan::benign(7),
            "Ok((Trapped(InstBudgetExhausted)",
        ),
        (
            "handle_request",
            &request[..],
            server(1),
            attack,
            "Ok((Trapped(PacAuthFailure { key: Ga })",
        ),
        (
            "fault",
            &[],
            server(1),
            InputPlan::benign(7),
            "Ok((Trapped(MemoryFault {",
        ),
        (
            "main",
            &[],
            VmConfig {
                record_witness: true,
                trace_limit: 64,
                ..server(99)
            },
            InputPlan::benign(8),
            "Ok((Returned(",
        ),
        (
            "main",
            &[],
            VmConfig {
                heap: bad_heap,
                ..server(1)
            },
            InputPlan::benign(7),
            "Err(",
        ),
        (
            "main",
            &[],
            server(2),
            InputPlan::benign(9),
            "Ok((Returned(",
        ),
    ];
    for engine in [Engine::Legacy, Engine::Block] {
        let decoded = Arc::new(DecodedModule::new(&m));
        let with = |cfg: &VmConfig| VmConfig {
            engine,
            ..cfg.clone()
        };
        let mut reused = Vm::with_decoded(
            &m,
            Arc::clone(&decoded),
            with(&server(0)),
            InputPlan::benign(0),
        );
        for (i, (entry, args, cfg, plan, expect)) in runs.iter().enumerate() {
            let mut fresh = Vm::with_decoded(&m, Arc::clone(&decoded), with(cfg), plan.clone());
            let want = observe(&mut fresh, entry, args);
            assert!(want.starts_with(expect), "run {i} ({engine:?}): {want}");
            reused.reset(with(cfg), plan.clone());
            let got = observe(&mut reused, entry, args);
            assert_eq!(got, want, "run {i} ({engine:?}): reset diverged from fresh");
        }
    }
}

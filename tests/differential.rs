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
    AttackSpec, Checkpoint, DecodedModule, Engine, ExitReason, InputPlan, RunMetrics, RunResult,
    Trap, Vm, VmConfig,
};
use pythia::workloads::{generate, profile_by_name, server_module, SizeTier, ADMIN_MAGIC};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
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

/// The server module plus two entries that load through a null-page
/// pointer: `fault` at once, `late_fault` after serving one request;
/// instrumented under `scheme`.
fn reset_module(scheme: Scheme) -> Module {
    let mut m = server_module();
    let handler = m.func_by_name("handle_request").unwrap();
    for late in [false, true] {
        let name = if late { "late_fault" } else { "fault" };
        let mut b = FunctionBuilder::new(name, vec![], Ty::I64);
        let k = b.const_i64(8);
        if late {
            b.call(handler, vec![k, k], Ty::I64);
        }
        let p = b.cast(CastKind::IntToPtr, k, Ty::ptr(Ty::I64));
        let v = b.load(p);
        b.ret(Some(v));
        m.add_function(b.finish());
    }
    verify::verify_module(&m).expect("valid IR");
    let ctx = pythia::analysis::SliceContext::new(&m);
    let report = pythia::analysis::VulnerabilityReport::analyze(&ctx);
    instrument_with(&m, &ctx, &report, scheme).module
}

/// The overflow of `handle_request(3, 5)`'s request buffer, as the
/// server scenario's injector splices it: junk from the buffer up to
/// `role`, then the admin magic (input seed 7).
fn overflow_plan(m: &Module) -> InputPlan {
    let mut probe = Vm::new(
        m,
        VmConfig {
            seed: 1,
            max_call_depth: 64,
            record_witness: true,
            ..VmConfig::default()
        },
        InputPlan::benign(7),
    );
    probe.run("handle_request", &[3, 5]).unwrap();
    let w = probe.witness();
    let at = |n: u64| w.ic_writes.iter().find(|e| e.0 == n).unwrap().1;
    let (role, reqbuf) = (at(0), at(1));
    let mut payload = vec![0x41u8; (role - reqbuf + 8) as usize];
    let tail = payload.len() - 8;
    payload[tail..].copy_from_slice(&ADMIN_MAGIC.to_le_bytes());
    InputPlan::with_attack(
        7,
        AttackSpec {
            ic_execution: 1,
            payload,
        },
    )
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
    let m = reset_module(Scheme::Pythia);
    let request = [3i64, 5];
    let server = |seed: u64| VmConfig {
        seed,
        max_call_depth: 64,
        ..VmConfig::default()
    };

    let attack = overflow_plan(&m);
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

/// The CPA server variant signs and authenticates on every use, so its
/// runs lean on the host buffers a reset keeps: the PAC memo (never
/// flushed) and the PA-site bitset (cleared). One VM reset through
/// changing seeds — each re-keying the PA context — and alternating
/// `run_sliced` with plain runs must match a fresh VM in every metric
/// (`pa_insts`, `pa_sites`, `cycles`) and every checkpoint, under both
/// engines: a reset leaves no checkpoint state behind.
#[test]
fn a_reset_cpa_vm_runs_exactly_like_a_fresh_one_across_seeds() {
    let m = reset_module(Scheme::Cpa);
    for engine in [Engine::Legacy, Engine::Block] {
        let decoded = Arc::new(DecodedModule::new(&m));
        let cfg = |seed: u64| VmConfig {
            seed,
            engine,
            max_call_depth: 64,
            ..VmConfig::default()
        };
        let mut reused = Vm::with_decoded(&m, Arc::clone(&decoded), cfg(0), InputPlan::benign(0));
        for (i, seed) in [1u64, 2, 1, 3, 3, 2, 1].into_iter().enumerate() {
            let request = [seed as i64, i as i64];
            let plan = InputPlan::benign(7 + seed);
            let sliced = i % 2 == 0;
            let run = |vm: &mut Vm<'_>| {
                let r = if sliced {
                    vm.run_sliced("handle_request", &request, 700)
                } else {
                    vm.run("handle_request", &request)
                };
                (r.unwrap(), vm.checkpoints().to_vec())
            };
            let mut fresh = Vm::with_decoded(&m, Arc::clone(&decoded), cfg(seed), plan.clone());
            let (want, want_cps) = run(&mut fresh);
            assert!(
                matches!(want.exit, ExitReason::Returned(_)),
                "run {i} ({engine:?}): {:?}",
                want.exit
            );
            assert!(want.metrics.pa_insts > 0 && want.metrics.pa_sites > 0);
            assert_eq!(sliced, !want_cps.is_empty(), "run {i} ({engine:?})");
            reused.reset(cfg(seed), plan);
            let (got, got_cps) = run(&mut reused);
            assert_eq!(
                (got.exit, got.metrics, &got.profile, got_cps),
                (want.exit, want.metrics, &want.profile, want_cps),
                "run {i} ({engine:?}): reset diverged from fresh"
            );
        }
    }
}

/// How a run ended, as a budget slice sees it: exit, every metric, and
/// the resident bytes the run leaves.
type SliceEnd = (ExitReason, RunMetrics, u64);

/// Under both engines, run `entry` once through `Vm::run_sliced` at
/// stride `slice` (the largest budget is `cfg.max_insts`), then a fresh
/// VM at every budget `k × slice` up to it. Each fresh run must end
/// exactly as checkpoint `k - 1` records, or — past the last checkpoint
/// — as the sliced run itself, and both engines must record the same
/// checkpoints and end. Returns them.
fn assert_sliced_matches_fresh(
    m: &Module,
    cfg: &VmConfig,
    plan: &InputPlan,
    (entry, args): (&str, &[i64]),
    slice: u64,
    what: &str,
) -> (Vec<Checkpoint>, SliceEnd) {
    let decoded = Arc::new(DecodedModule::new(m));
    let mut agreed: Option<(Vec<Checkpoint>, SliceEnd)> = None;
    for engine in [Engine::Legacy, Engine::Block] {
        let at = |max_insts| VmConfig {
            max_insts,
            engine,
            ..cfg.clone()
        };
        let mut sliced = Vm::with_decoded(m, Arc::clone(&decoded), at(cfg.max_insts), plan.clone());
        let r = sliced
            .run_sliced(entry, args, slice)
            .unwrap_or_else(|e| panic!("{what} {engine:?}: {e}"));
        let end = (r.exit, r.metrics, sliced.memory().resident_bytes());
        let cps = sliced.checkpoints().to_vec();
        for k in 1..=cfg.max_insts.div_ceil(slice) {
            let budget = (k * slice).min(cfg.max_insts);
            let mut fresh = Vm::with_decoded(m, Arc::clone(&decoded), at(budget), plan.clone());
            let r = fresh
                .run(entry, args)
                .unwrap_or_else(|e| panic!("{what} {engine:?}, budget {budget}: {e}"));
            let got = (r.exit, r.metrics, fresh.memory().resident_bytes());
            let want = match cps.get(k as usize - 1) {
                Some(c) => (
                    ExitReason::Trapped(Trap::InstBudgetExhausted),
                    c.metrics,
                    c.resident_bytes,
                ),
                None => end,
            };
            assert_eq!(
                got, want,
                "{what} {engine:?}: budget {budget} diverged from run_sliced"
            );
        }
        if let Some(legacy) = &agreed {
            assert_eq!(legacy, &(cps.clone(), end), "{what}: the engines disagree");
        }
        agreed = Some((cps, end));
    }
    agreed.unwrap()
}

/// The VM settings the server's event loop runs a request with.
fn request_cfg(seed: u64, max_insts: u64) -> VmConfig {
    VmConfig {
        seed,
        max_insts,
        max_call_depth: 64,
        profile: false,
        ..VmConfig::default()
    }
}

/// One sliced server request equals a restart at every cumulative
/// budget: every scheme variant, both engines, random requests, seeds
/// and strides.
#[test]
fn run_sliced_matches_a_fresh_run_at_every_budget_on_the_server() {
    let m = server_module();
    let ctx = pythia::analysis::SliceContext::new(&m);
    let report = pythia::analysis::VulnerabilityReport::analyze(&ctx);
    let variants: Vec<(Scheme, Module)> = Scheme::ALL
        .iter()
        .map(|&s| (s, instrument_with(&m, &ctx, &report, s).module))
        .collect();
    let mut rng = SmallRng::seed_from_u64(0x51_1CE5);
    let (mut checkpoints, mut multi, mut trapped) = (0, 0, 0);
    for draw in 0..32 {
        let conn = rng.gen_range(0..64i64);
        let req = rng.gen_range(0..4096i64);
        let seed = rng.gen::<u64>();
        let slice = rng.gen_range(250..1600u64);
        for (scheme, vm_module) in &variants {
            let (cps, end) = assert_sliced_matches_fresh(
                vm_module,
                &request_cfg(seed, 12 * slice),
                &InputPlan::benign(seed ^ 0x5EED),
                ("handle_request", &[conn, req]),
                slice,
                &format!("draw {draw} {scheme} (conn {conn}, req {req}, slice {slice})"),
            );
            checkpoints += cps.len();
            multi += usize::from(cps.len() > 1);
            trapped += usize::from(end.0 == ExitReason::Trapped(Trap::InstBudgetExhausted));
        }
    }
    // The draws must exercise what slicing is about: many boundaries,
    // requests that span several, and requests cut off at the top.
    assert!(
        checkpoints > 250 && multi > 50,
        "{checkpoints} checkpoints, {multi} multi"
    );
    assert!(trapped > 0, "no request ran out of its largest budget");
}

/// A generated suite module at a stride of 37 instructions, so
/// boundaries land all over the run: inside callees and right after phi
/// prologues (which meter without a budget check, so a boundary they
/// jump over stops the next checked instruction).
#[test]
fn run_sliced_matches_a_fresh_run_at_a_small_stride_on_a_suite_module() {
    let profile = profile_by_name("mcf").unwrap().at_tier(SizeTier::Smoke);
    let m = generate(&profile);
    let cfg = VmConfig {
        max_insts: 37 * 80,
        profile: false,
        ..VmConfig::default()
    };
    let plan = InputPlan::benign(3);
    let (cps, _) = assert_sliced_matches_fresh(&m, &cfg, &plan, ("main", &[]), 37, "mcf");
    assert!(cps.len() >= 40, "{} checkpoints", cps.len());
    let overrun = cps.iter().zip(1..).any(|(c, k)| c.metrics.insts > 37 * k);
    assert!(overrun, "no boundary fell inside a phi prologue");
}

/// Runs that end in a trap other than the budget after crossing some
/// boundaries: a memory fault, and a Pythia canary detection.
#[test]
fn run_sliced_matches_a_fresh_run_when_the_run_faults_after_checkpoints() {
    let m = reset_module(Scheme::Pythia);
    let plan = InputPlan::benign(7);
    let (cps, end) = assert_sliced_matches_fresh(
        &m,
        &request_cfg(5, 300 * 40),
        &plan,
        ("late_fault", &[]),
        300,
        "late_fault",
    );
    assert!(cps.len() >= 3, "{} checkpoints", cps.len());
    assert!(
        matches!(end.0, ExitReason::Trapped(Trap::MemoryFault { .. })),
        "{:?}",
        end.0
    );

    // The canary check right after the overflowing read stops the run
    // early: a finer stride.
    let plan = overflow_plan(&m);
    let request = ("handle_request", &[3i64, 5][..]);
    let (cps, end) =
        assert_sliced_matches_fresh(&m, &request_cfg(5, 7 * 20), &plan, request, 7, "canary");
    assert!(cps.len() >= 3, "{} checkpoints", cps.len());
    assert!(
        matches!(end.0, ExitReason::Trapped(Trap::PacAuthFailure { .. })),
        "{:?}",
        end.0
    );
}

/// The server module plus a call-heavy set of entries, instrumented
/// under Pythia:
///
/// - `rec(n)` recurses directly `n` deep (`n + 1` frames);
/// - `even`/`odd` recurse mutually, `apply(f, x)` calls `f` indirectly,
///   and `tour()` runs all three;
/// - `quit()` calls `exit(7)` three frames down;
/// - `deep_fault()` loads through a null-page pointer three frames down;
/// - `deep_request(conn, req)` serves `handle_request` two frames down;
/// - `bad_indirect()` hands `apply` a pointer that is no function.
fn frames_module() -> Module {
    let mut m = server_module();
    let handler = m.func_by_name("handle_request").unwrap();
    let base = m.functions().len() as u32;
    let (rec, even, odd, apply) = (
        pythia::ir::FuncId(base),
        pythia::ir::FuncId(base + 1),
        pythia::ir::FuncId(base + 2),
        pythia::ir::FuncId(base + 3),
    );

    let mut b = FunctionBuilder::new("rec", vec![Ty::I64], Ty::I64);
    let n = b.func().arg(0);
    let slot = b.alloca(Ty::I64);
    b.store(n, slot);
    let zero = b.const_i64(0);
    let done = b.icmp(CmpPred::Sle, n, zero);
    let (leaf, step) = (b.new_block("leaf"), b.new_block("step"));
    b.br(done, leaf, step);
    b.switch_to(leaf);
    b.ret(Some(zero));
    b.switch_to(step);
    let one = b.const_i64(1);
    let down = b.sub(n, one);
    let r = b.call(rec, vec![down], Ty::I64);
    let back = b.load(slot);
    let r = b.add(r, back);
    let r = b.sub(r, down);
    b.ret(Some(r));
    assert_eq!(m.add_function(b.finish()), rec);

    for (name, other, at_zero) in [("even", odd, 1), ("odd", even, 0)] {
        let mut b = FunctionBuilder::new(name, vec![Ty::I64], Ty::I64);
        let n = b.func().arg(0);
        let zero = b.const_i64(0);
        let done = b.icmp(CmpPred::Eq, n, zero);
        let (leaf, step) = (b.new_block("leaf"), b.new_block("step"));
        b.br(done, leaf, step);
        b.switch_to(leaf);
        let k = b.const_i64(at_zero);
        b.ret(Some(k));
        b.switch_to(step);
        let one = b.const_i64(1);
        let down = b.sub(n, one);
        let r = b.call(other, vec![down], Ty::I64);
        b.ret(Some(r));
        m.add_function(b.finish());
    }

    let mut b = FunctionBuilder::new("apply", vec![Ty::I64, Ty::I64], Ty::I64);
    let (f, x) = (b.func().arg(0), b.func().arg(1));
    let fp = b.cast(CastKind::IntToPtr, f, Ty::ptr(Ty::I8));
    let r = b.call_indirect(fp, vec![x], Ty::I64);
    let one = b.const_i64(1);
    let r = b.add(r, one);
    b.ret(Some(r));
    assert_eq!(m.add_function(b.finish()), apply);

    let mut b = FunctionBuilder::new("tour", vec![], Ty::I64);
    let six = b.const_i64(6);
    let a = b.call(rec, vec![six], Ty::I64);
    let seven = b.const_i64(7);
    let e = b.call(even, vec![seven], Ty::I64);
    let mut sum = b.add(a, e);
    for (target, arg) in [(rec, 5), (odd, 9)] {
        let fp = b.func_addr(target);
        let f = b.cast(CastKind::PtrToInt, fp, Ty::I64);
        let x = b.const_i64(arg);
        let r = b.call(apply, vec![f, x], Ty::I64);
        let ten = b.const_i64(10);
        sum = b.mul(sum, ten);
        sum = b.add(sum, r);
    }
    b.ret(Some(sum));
    m.add_function(b.finish());

    let mut b = FunctionBuilder::new("bad_indirect", vec![], Ty::I64);
    let (bogus, one) = (b.const_i64(0x4008), b.const_i64(1));
    let r = b.call(apply, vec![bogus, one], Ty::I64);
    b.ret(Some(r));
    m.add_function(b.finish());

    // Three-frame chains under `quit`, `deep_fault` and `deep_request`:
    // the innermost function ends the run or serves the request.
    for name in ["quit", "deep_fault", "deep_request"] {
        let mut b = FunctionBuilder::new(format!("{name}_2"), vec![Ty::I64, Ty::I64], Ty::I64);
        let (c, q) = (b.func().arg(0), b.func().arg(1));
        match name {
            "quit" => {
                let code = b.const_i64(7);
                b.call_intrinsic(Intrinsic::Exit, vec![code], Ty::Void);
                let k = b.const_i64(99);
                b.ret(Some(k));
            }
            "deep_fault" => {
                let k = b.const_i64(8);
                let p = b.cast(CastKind::IntToPtr, k, Ty::ptr(Ty::I64));
                let v = b.load(p);
                b.ret(Some(v));
            }
            _ => {
                let r = b.call(handler, vec![c, q], Ty::I64);
                b.ret(Some(r));
            }
        }
        let mut callee = m.add_function(b.finish());
        for depth in [1, 0] {
            let fname = if depth == 0 {
                name.to_owned()
            } else {
                format!("{name}_{depth}")
            };
            let mut b = FunctionBuilder::new(fname, vec![Ty::I64, Ty::I64], Ty::I64);
            let (c, q) = (b.func().arg(0), b.func().arg(1));
            let r = b.call(callee, vec![c, q], Ty::I64);
            b.ret(Some(r));
            callee = m.add_function(b.finish());
        }
    }
    verify::verify_module(&m).expect("valid IR");
    let ctx = pythia::analysis::SliceContext::new(&m);
    let report = pythia::analysis::VulnerabilityReport::analyze(&ctx);
    instrument_with(&m, &ctx, &report, Scheme::Pythia).module
}

/// Direct, mutual and indirect recursion up to the default depth limit,
/// `exit` and traps raised frames below the entry: both engines show the
/// same result, metrics, profile, 64-event trace, witness and resident
/// bytes, and a VM reset between the runs shows what a fresh one does.
#[test]
fn the_frame_stack_runs_alike_under_both_engines_and_after_reset() {
    let m = frames_module();
    let cfg = |engine| VmConfig {
        engine,
        trace_limit: 64,
        record_witness: true,
        ..VmConfig::default()
    };
    assert_eq!(cfg(Engine::Block).max_call_depth, 400);
    // Every way a stack of frames can end: a return, the depth limit,
    // `exit`, a fault, a canary detection and a bad indirect call.
    let runs: Vec<(&str, Vec<i64>, InputPlan, &str)> = vec![
        ("tour", vec![], InputPlan::benign(7), "Ok((Returned("),
        ("rec", vec![399], InputPlan::benign(7), "Ok((Returned(399)"),
        (
            "rec",
            vec![400],
            InputPlan::benign(7),
            "Ok((Trapped(CallDepthExceeded)",
        ),
        ("quit", vec![0, 0], InputPlan::benign(7), "Ok((Exited(7)"),
        (
            "deep_fault",
            vec![0, 0],
            InputPlan::benign(7),
            "Ok((Trapped(MemoryFault {",
        ),
        (
            "deep_request",
            vec![3, 5],
            overflow_plan(&m),
            "Ok((Trapped(PacAuthFailure { key: Ga })",
        ),
        (
            "deep_request",
            vec![3, 5],
            InputPlan::benign(7),
            "Ok((Returned(",
        ),
        (
            "bad_indirect",
            vec![],
            InputPlan::benign(7),
            "Ok((Trapped(BadIndirectCall)",
        ),
    ];
    let mut seen: Vec<String> = Vec::new();
    for engine in [Engine::Legacy, Engine::Block] {
        let decoded = Arc::new(DecodedModule::new(&m));
        let mut reused =
            Vm::with_decoded(&m, Arc::clone(&decoded), cfg(engine), InputPlan::benign(0));
        for (i, (entry, args, plan, expect)) in runs.iter().enumerate() {
            let mut fresh = Vm::with_decoded(&m, Arc::clone(&decoded), cfg(engine), plan.clone());
            let want = observe(&mut fresh, entry, args);
            assert!(want.starts_with(expect), "{entry} ({engine:?}): {want}");
            reused.reset(cfg(engine), plan.clone());
            let got = observe(&mut reused, entry, args);
            assert_eq!(got, want, "{entry} ({engine:?}): reset diverged from fresh");
            match seen.get(i) {
                Some(legacy) => assert_eq!(&want, legacy, "{entry}: the engines disagree"),
                None => seen.push(want),
            }
        }
    }
}

/// `run_sliced` at strides small enough that boundaries land on `call`
/// and `ret` ops, across recursion, `exit` and a fault in a callee: every
/// budget's fresh run ends as its checkpoint says, under both engines.
#[test]
fn run_sliced_matches_a_fresh_run_on_call_and_ret_boundaries() {
    let m = frames_module();
    let plan = InputPlan::benign(7);
    let mut stopped_on: Vec<&str> = Vec::new();
    for (entry, args, stride) in [
        ("tour", &[][..], 3u64),
        ("rec", &[12][..], 5),
        ("quit", &[0, 0][..], 1),
        ("deep_fault", &[0, 0][..], 1),
    ] {
        let cfg = VmConfig {
            max_insts: stride * 120,
            profile: false,
            ..VmConfig::default()
        };
        let (cps, end) = assert_sliced_matches_fresh(&m, &cfg, &plan, (entry, args), stride, entry);
        assert!(cps.len() >= 2, "{entry}: {} checkpoints", cps.len());
        assert_ne!(
            end.0,
            ExitReason::Trapped(Trap::InstBudgetExhausted),
            "{entry}"
        );
        // These functions have no phis, so the instruction a budget of
        // `k × stride` stops before is trace event `k × stride`.
        let mut traced = Vm::new(
            &m,
            VmConfig {
                trace_limit: cfg.max_insts,
                ..cfg.clone()
            },
            plan.clone(),
        );
        traced.run(entry, args).unwrap();
        let trace = traced.trace();
        for k in 1..=cps.len() as u64 {
            stopped_on.push(trace[(k * stride) as usize].mnemonic);
        }
    }
    for op in ["call", "ret"] {
        assert!(
            stopped_on.contains(&op),
            "no boundary on a {op}: {stopped_on:?}"
        );
    }
}

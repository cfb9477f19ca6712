//! The execute tier of the block-cached engine: a tight dispatch loop
//! over [`DecodedBlock`](crate::decode::DecodedBlock) op buffers.
//!
//! Observation preservation relative to `Vm::exec_blocks` (the legacy
//! per-instruction interpreter) is the contract here: identical metering
//! order (budget check → instruction count → trace event → base charge →
//! profile), identical trap points and error payloads, identical memory /
//! cache / shadow / PA side-effect order. Anything the legacy interpreter
//! can observe, this tier reproduces bit for bit; the differential tests
//! (`tests/determinism.rs`, `core/tests/profile_invariants.rs`) and the
//! `scripts/check.sh` engine gate hold it to that.

use crate::decode::{wrap_val, DecodedCallee, DecodedModule, OpKind, PhiPrologue, MN_PHI};
use crate::vm::{eval_bin, Halt, Trap, Vm};
use pythia_ir::{BlockId, FuncId, PythiaError};
use std::sync::Arc;

/// Read one pre-resolved operand: an unconditional indexed load
/// (constants are pre-stored into their slots at frame setup).
#[inline(always)]
fn read(values: &[i64], o: u32) -> i64 {
    values[o as usize]
}

/// One simulated call frame of the block engine: its function, where
/// its values (`vbase..` in the value stack) and stack objects (`sbase..`)
/// live, the caller's slot for its return value, and where it executes:
/// op `pc` of `head`'s superblock (0 enters `head` afresh, phis and all),
/// in block `cur`, entered from `prev`.
#[derive(Clone, Copy)]
struct CallFrame {
    fid: FuncId,
    vbase: usize,
    sbase: u64,
    ret: u32,
    head: BlockId,
    cur: BlockId,
    prev: Option<BlockId>,
    pc: usize,
}

impl<'m> Vm<'m> {
    /// Block-engine run of `fid`: a loop over explicit frames, so a
    /// simulated call costs no host stack. Mirrors `exec_function` side
    /// effect by side effect.
    pub(crate) fn exec_block(&mut self, fid: FuncId, args: &[i64]) -> Result<i64, Halt> {
        let dm = Arc::clone(&self.decoded);
        let mut stack = std::mem::take(&mut self.value_stack);
        let result = self.run_frames(&dm, &mut stack, fid, args);
        // A trap, an error or `exit` ends the run with frames still live;
        // nothing reads their state afterwards (`Vm::reset` rebuilds it).
        stack.clear();
        self.value_stack = stack;
        result
    }

    /// Enter `fid` as frame number `depth`: the legacy `exec_function`
    /// checks and stack frame, then value slots on top of `stack`, zeroed
    /// with the constants stored. The caller writes the arguments.
    fn push_frame(
        &mut self,
        dm: &DecodedModule,
        stack: &mut Vec<i64>,
        depth: usize,
        fid: FuncId,
        ret: u32,
    ) -> Result<CallFrame, Halt> {
        let df = &dm.funcs[fid.0 as usize];
        let sbase = self.enter_frame(depth, &df.layout)?;
        let vbase = stack.len();
        stack.resize(vbase + df.num_values, 0);
        for &(slot, c) in df.consts.iter() {
            stack[vbase + slot as usize] = c;
        }
        Ok(CallFrame {
            fid,
            vbase,
            sbase,
            ret,
            head: BlockId(0),
            cur: BlockId(0),
            prev: None,
            pc: 0,
        })
    }

    /// Run one phi prologue. Metering per phi matches the legacy phase-1
    /// loop: instruction count + copy charge + profile, no budget check,
    /// no trace event; sources all read before any destination is written.
    fn run_prologue(
        &mut self,
        p: &PhiPrologue,
        values: &mut [i64],
        fname: &str,
    ) -> Result<(), Halt> {
        match p {
            PhiPrologue::Copies(copies) => {
                if copies.is_empty() {
                    return Ok(());
                }
                let mut scratch = std::mem::take(&mut self.scratch);
                scratch.clear();
                for (_, src) in copies.iter() {
                    scratch.push(read(values, *src));
                }
                let n = copies.len() as u64;
                self.metrics.insts += n;
                self.charge(self.cfg.cost.copy * n);
                self.op_counts[MN_PHI] += n;
                for ((dst, _), v) in copies.iter().zip(scratch.iter()) {
                    values[*dst as usize] = *v;
                }
                self.scratch = scratch;
                Ok(())
            }
            PhiPrologue::Error {
                prior,
                iv,
                in_entry,
            } => {
                // The legacy loop meters each phi before examining the
                // next, so `prior` phis are fully metered (and no frame
                // slot is written) before the setup error surfaces.
                let n = u64::from(*prior);
                self.metrics.insts += n;
                self.charge(self.cfg.cost.copy * n);
                self.op_counts[MN_PHI] += n;
                let msg = if *in_entry {
                    "phi in entry block (module not verified?)"
                } else {
                    "phi does not cover predecessor (module not verified?)"
                };
                Err(PythiaError::setup(msg)
                    .with_function(fname)
                    .with_instruction(iv.0)
                    .into())
            }
        }
    }

    /// The dispatch loop over the running frame `fr`; `frames` holds its
    /// callers, parked at the op after their call. A call parks `fr` and
    /// enters the callee; a return resumes the caller, or ends the run
    /// from the entry frame.
    #[allow(clippy::too_many_lines)]
    fn run_frames(
        &mut self,
        dm: &DecodedModule,
        stack: &mut Vec<i64>,
        fid: FuncId,
        args: &[i64],
    ) -> Result<i64, Halt> {
        let m = self.module;
        let mut frames: Vec<CallFrame> = Vec::new();
        let mut fr = self.push_frame(dm, stack, 0, fid, 0)?;
        let mut df = &dm.funcs[fid.0 as usize];
        for (p, &a) in stack[fr.vbase..][..df.num_params].iter_mut().zip(args) {
            *p = a;
        }
        let mut values = &mut stack[fr.vbase..];
        let mut trace_on = self.trace_on;
        'blocks: loop {
            let db = dm.block(m, fr.fid, fr.head);
            let start = std::mem::take(&mut fr.pc);
            if start == 0 {
                fr.cur = fr.head;
                match fr.prev {
                    None => self.run_prologue(&db.entry, values, &df.name)?,
                    Some(p) => {
                        // `prev` always comes from an executed terminator
                        // in a real predecessor, so the lookup only misses
                        // when the block has no phis (empty prologue).
                        if let Some((_, pl)) = db.prologues.iter().find(|(b, _)| *b == p.0) {
                            self.run_prologue(pl, values, &df.name)?;
                        }
                    }
                }
            }

            // Instruction count and base-cost charge are accumulated in
            // registers (`k`, `cyc`) and flushed to `self.metrics` at
            // every point something else could observe or extend them:
            // phi prologues and calls (which add instructions of their
            // own — callee budget checks must see an exact count), and
            // every exit from the op loop. Both counters are pure sums
            // that nothing reads in between, so deferring the adds is
            // observation-preserving; `remaining` carries the budget
            // check as a register compare (`k >= remaining` fires at
            // exactly the instruction the legacy per-op check stops on,
            // including budgets already overrun by unchecked phi
            // metering, where `remaining` is 0).
            let mut k: u64 = 0;
            let mut cyc: u64 = 0;
            let mut remaining = self.budget_left();
            macro_rules! flush {
                () => {
                    self.metrics.insts += k;
                    self.metrics.cycles_mc += cyc;
                    #[allow(unused_assignments)]
                    {
                        k = 0;
                        cyc = 0;
                    }
                };
            }
            // `?` with the pending counters flushed first.
            macro_rules! try_f {
                ($e:expr) => {
                    match $e {
                        Ok(v) => v,
                        Err(e) => {
                            flush!();
                            return Err(e.into());
                        }
                    }
                };
            }
            // The budget check before an instruction: a register compare
            // until the next budget stop, then the shared
            // `Vm::check_budget` on exact counters, which traps or — in a
            // `run_sliced` run — records the checkpoint(s) and moves the
            // stop on.
            macro_rules! budget {
                () => {
                    if k >= remaining {
                        flush!();
                        self.check_budget(self.metrics.insts + 1)?;
                        #[allow(unused_assignments)]
                        {
                            remaining = self.budget_left();
                        }
                    }
                };
            }
            // Standard metering in legacy order (budget check →
            // instruction count → trace event → base charge → profile),
            // expanded at the top of every instruction arm so the loop
            // dispatches each op exactly once. `Enter` (a superblock
            // boundary, not an instruction) is the only unmetered arm.
            macro_rules! meter {
                ($op:expr) => {
                    budget!();
                    k += 1;
                    if trace_on {
                        self.push_trace(fr.fid, $op.iv, crate::decode::MNEMONICS[$op.mn as usize]);
                        #[allow(unused_assignments)]
                        {
                            trace_on = self.trace_on;
                        }
                    }
                    cyc += self.cost_tbl[$op.mn as usize];
                    self.op_counts[$op.mn as usize] += 1;
                };
            }
            for (i, op) in db.ops.iter().enumerate().skip(start) {
                match &op.kind {
                    OpKind::Enter {
                        pred,
                        block: b,
                        prologue,
                    } => {
                        fr.prev = Some(*pred);
                        fr.cur = *b;
                        // A phi-less boundary does nothing at all — no
                        // metering, no flush, the accumulators keep
                        // rolling through the chained block.
                        if let PhiPrologue::Copies(c) = &**prologue {
                            if c.is_empty() {
                                continue;
                            }
                        }
                        flush!();
                        self.run_prologue(prologue, values, &df.name)?;
                        remaining = self.budget_left();
                        continue;
                    }
                    OpKind::NotInst => {
                        budget!();
                        k += 1;
                        flush!();
                        return Err(PythiaError::internal("block member is not an instruction")
                            .with_function(df.name.clone())
                            .with_instruction(op.iv.0)
                            .into());
                    }
                    OpKind::Alloca { off } => {
                        meter!(op);
                        values[op.iv.0 as usize] = fr.sbase.saturating_add(*off) as i64;
                    }
                    OpKind::AllocaMissing => {
                        meter!(op);
                        flush!();
                        return Err(PythiaError::internal("alloca missing from frame layout")
                            .with_function(df.name.clone())
                            .with_instruction(op.iv.0)
                            .into());
                    }
                    OpKind::Load { ptr, size } => {
                        meter!(op);
                        let addr = read(values, *ptr) as u64;
                        values[op.iv.0 as usize] = try_f!(self.mem_read(addr, u64::from(*size)));
                    }
                    OpKind::Store { ptr, value, size } => {
                        meter!(op);
                        let addr = read(values, *ptr) as u64;
                        let v = read(values, *value);
                        try_f!(self.mem_write(addr, u64::from(*size), v));
                    }
                    OpKind::Gep { base, index, scale } => {
                        meter!(op);
                        let b = read(values, *base);
                        let i = read(values, *index);
                        values[op.iv.0 as usize] = b.wrapping_add(i.wrapping_mul(*scale));
                    }
                    OpKind::FieldAddr { base, off } => {
                        meter!(op);
                        let b = read(values, *base) as u64;
                        values[op.iv.0 as usize] = b.wrapping_add(*off) as i64;
                    }
                    OpKind::Bin { op: bop, wrap, lhs, rhs } => {
                        meter!(op);
                        let a = read(values, *lhs);
                        let b = read(values, *rhs);
                        let raw = try_f!(eval_bin(*bop, a, b).ok_or(Trap::DivByZero));
                        values[op.iv.0 as usize] = wrap_val(*wrap, raw);
                    }
                    OpKind::Icmp { pred, lhs, rhs } => {
                        meter!(op);
                        let a = read(values, *lhs);
                        let b = read(values, *rhs);
                        values[op.iv.0 as usize] = i64::from(pred.eval(a, b));
                    }
                    OpKind::Cast { value, wrap } => {
                        meter!(op);
                        let v = read(values, *value);
                        values[op.iv.0 as usize] = wrap_val(*wrap, v);
                    }
                    OpKind::Select {
                        cond,
                        on_true,
                        on_false,
                    } => {
                        meter!(op);
                        let c = read(values, *cond);
                        values[op.iv.0 as usize] = if c != 0 {
                            read(values, *on_true)
                        } else {
                            read(values, *on_false)
                        };
                    }
                    OpKind::LatePhi { incomings } => {
                        meter!(op);
                        let pred = try_f!(fr.prev.ok_or_else(|| {
                            PythiaError::setup("phi in entry block (module not verified?)")
                                .with_function(df.name.clone())
                                .with_instruction(op.iv.0)
                        }));
                        if let Some((_, src)) = incomings.iter().find(|(b, _)| *b == pred) {
                            values[op.iv.0 as usize] = read(values, *src);
                        }
                    }
                    OpKind::PacSign {
                        value,
                        key,
                        modifier,
                    } => {
                        meter!(op);
                        let v = read(values, *value) as u64;
                        let md = read(values, *modifier) as u64;
                        values[op.iv.0 as usize] = self.pa_sign(fr.fid, op.iv, *key, v, md) as i64;
                    }
                    OpKind::PacAuth {
                        value,
                        key,
                        modifier,
                    } => {
                        meter!(op);
                        let v = read(values, *value) as u64;
                        let md = read(values, *modifier) as u64;
                        values[op.iv.0 as usize] =
                            try_f!(self.pa_auth(fr.fid, op.iv, *key, v, md)) as i64;
                    }
                    OpKind::PacStrip { value } => {
                        meter!(op);
                        let v = read(values, *value) as u64;
                        values[op.iv.0 as usize] = self.pa_strip(fr.fid, op.iv, v) as i64;
                    }
                    OpKind::SetDef { ptr, def_id } => {
                        meter!(op);
                        self.metrics.dfi_insts += 1;
                        if self.cfg.profile {
                            self.profile.shadow.setdefs += 1;
                        }
                        let addr = read(values, *ptr) as u64;
                        self.shadow.insert(addr >> 3, *def_id);
                    }
                    OpKind::ChkDef { ptr, allowed } => {
                        meter!(op);
                        self.metrics.dfi_insts += 1;
                        if self.cfg.profile {
                            self.profile.shadow.chkdefs += 1;
                        }
                        let addr = read(values, *ptr) as u64;
                        if let Some(&found) = self.shadow.get(&(addr >> 3)) {
                            if !allowed.contains(&found) {
                                flush!();
                                return Err(Trap::DfiViolation { found }.into());
                            }
                        }
                    }
                    OpKind::Call(call) => {
                        meter!(op);
                        self.metrics.calls += 1;
                        // Callees check the budget and meter instructions
                        // themselves: hand them an exact count.
                        flush!();
                        let target = match &call.callee {
                            DecodedCallee::Func(target) => *target,
                            DecodedCallee::Intrinsic(intr) => {
                                // Intrinsics never re-enter the engine, so
                                // one scratch serves every call.
                                let mut argv = std::mem::take(&mut self.scratch);
                                argv.clear();
                                argv.extend(call.args.iter().map(|&a| read(values, a)));
                                let r = self.exec_intrinsic(fr.fid, op.iv, *intr, &argv);
                                self.scratch = argv;
                                values[op.iv.0 as usize] = r?;
                                // `exit` ends the whole run.
                                if self.halted.is_some() {
                                    return Ok(0);
                                }
                                remaining = self.budget_left();
                                continue;
                            }
                            DecodedCallee::Indirect(v) => {
                                self.indirect_target(read(values, *v) as u64)?
                            }
                        };
                        frames.push(CallFrame { pc: i + 1, ..fr });
                        let caller = fr.vbase;
                        fr = self.push_frame(dm, stack, frames.len(), target, op.iv.0)?;
                        df = &dm.funcs[target.0 as usize];
                        for (j, &a) in call.args.iter().enumerate().take(df.num_params) {
                            stack[fr.vbase + j] = stack[caller + a as usize];
                        }
                        values = &mut stack[fr.vbase..];
                        continue 'blocks;
                    }
                    OpKind::Br {
                        cond,
                        then_bb,
                        else_bb,
                    } => {
                        meter!(op);
                        self.metrics.branches += 1;
                        let c = read(values, *cond);
                        fr.prev = Some(fr.cur);
                        fr.head = if c != 0 { *then_bb } else { *else_bb };
                        flush!();
                        continue 'blocks;
                    }
                    OpKind::Jmp { target, chained } => {
                        meter!(op);
                        if *chained {
                            // The next op is the target's Enter marker.
                            continue;
                        }
                        fr.prev = Some(fr.cur);
                        fr.head = *target;
                        flush!();
                        continue 'blocks;
                    }
                    OpKind::Ret { value } => {
                        meter!(op);
                        flush!();
                        let v = read(values, *value);
                        self.leave_frame(&df.layout, fr.sbase);
                        stack.truncate(fr.vbase);
                        let Some(caller) = frames.pop() else {
                            return Ok(v);
                        };
                        stack[caller.vbase + fr.ret as usize] = v;
                        fr = caller;
                        df = &dm.funcs[fr.fid.0 as usize];
                        values = &mut stack[fr.vbase..];
                        continue 'blocks;
                    }
                    OpKind::Unreachable => {
                        meter!(op);
                        flush!();
                        return Err(Trap::Abort.into());
                    }
                }
            }
            // Falling off a block without a terminator is a verifier
            // error; treat as abort to stay safe (legacy behaviour).
            flush!();
            return Err(Trap::Abort.into());
        }
    }
}

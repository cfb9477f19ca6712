//! # pythia-vm — the executable machine under the paper's evaluation
//!
//! The paper measures Pythia on Apple-M1 hardware; this crate is the
//! workspace's substitute (DESIGN.md §2): an interpreter for PIR with
//!
//! - sparse 40-bit [`memory`] where buffer overflows physically corrupt
//!   adjacent bytes,
//! - a two-level LRU [`cache`] simulator,
//! - a millicycle [`cost`] model (PA ops ≈ 4 cycles, DFI checks are
//!   software-priced, heap-sectioning setup ≈ 23/126 ns),
//! - the attacker model of §2.5 in [`input`] (a designated input-channel
//!   execution delivers an attacker-length payload),
//! - and the interpreter itself in [`vm`], which implements the PA,
//!   canary, and DFI runtime semantics and meters every instruction.
//!
//! # Examples
//!
//! ```
//! use pythia_ir::{FunctionBuilder, Module, Ty};
//! use pythia_vm::{InputPlan, Vm, VmConfig, ExitReason};
//!
//! let mut m = Module::new("demo");
//! let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
//! let x = b.const_i64(21);
//! let y = b.add(x, x);
//! b.ret(Some(y));
//! m.add_function(b.finish());
//!
//! let mut vm = Vm::new(&m, VmConfig::default(), InputPlan::benign(1));
//! let result = vm.run("main", &[]).unwrap();
//! assert_eq!(result.exit, ExitReason::Returned(42));
//! assert!(result.metrics.insts > 0);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod cost;
pub mod decode;
mod engine;
pub mod input;
pub mod memory;
pub mod profile;
pub mod vm;

pub use cache::{CacheOutcome, CacheSim, CacheStats};
pub use cost::{CostModel, MILLI};
pub use decode::{DecodedModule, FrameLayout};
pub use input::{AttackSpec, InputPlan, IntOrPayload, MAX_BENIGN_STRING};
pub use memory::{layout, Memory, MemoryError, MemoryFault, NULL_GUARD, PAGE_SIZE, VA_BITS};
pub use profile::{static_pa_counts, PaProfile, Profile, ShadowProfile};
pub use vm::{
    Checkpoint, DetectionMechanism, Engine, ExitReason, RunMetrics, RunResult, TraceEvent, Trap,
    Vm, VmConfig, Witness,
};

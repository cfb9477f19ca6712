//! # pythia-pa — software ARM Pointer Authentication
//!
//! The Pythia paper relies on ARMv8.3-A Pointer Authentication hardware
//! (paper §2.3). This crate is the workspace's substitute substrate
//! (DESIGN.md §2): a QARMA-inspired tweakable cipher ([`cipher`]), the PAC
//! bit-field geometry and per-process key state ([`pac`]), an exact memo
//! of the cipher that makes repeated PA instructions cheap on the host
//! ([`memo`]), and the brute-force security model of §4.4/Eq. 6
//! ([`brute`]).
//!
//! # Examples
//!
//! ```
//! use pythia_pa::{PaContext, PaKey};
//!
//! let ctx = PaContext::from_seed(1);
//! let secret = 0xC0FFEEu64;
//! let slot_addr = 0x7fff_0040u64; // modifier: where the value lives
//!
//! let signed = ctx.sign(PaKey::Da, secret, slot_addr);
//! assert_eq!(ctx.auth(PaKey::Da, signed, slot_addr).unwrap(), secret);
//!
//! // An attacker overwriting the slot with raw bytes fails authentication.
//! assert!(ctx.auth(PaKey::Da, 0xBAD, slot_addr).is_err());
//! ```

#![warn(missing_docs)]

pub mod brute;
pub mod cipher;
pub mod memo;
pub mod pac;

pub use brute::{brute_force_probability, expected_tries, simulate_brute_force, BruteForceOutcome};
pub use cipher::Key128;
pub use memo::PacMemo;
pub use pac::{AuthError, PaContext, PacConfig};
pub use pythia_ir::PaKey;

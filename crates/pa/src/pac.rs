//! PAC packing and the per-process PA context (key registers).
//!
//! Modern 64-bit machines do not use the full virtual address width; ARM PA
//! stores a *Pointer Authentication Code* in the unused top bits (paper
//! §2.3). The workspace-wide machine model uses a 40-bit VA space, leaving
//! 24 bits of PAC — the width the paper's Eq. 6 assumes for Linux.

use crate::cipher::{self, Key128};
use crate::memo::PacMemo;
use pythia_ir::PaKey;
use rand::Rng;
use std::fmt;

/// Geometry of the PAC field inside a 64-bit value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacConfig {
    /// Virtual-address bits actually used by pointers (low bits).
    pub va_bits: u32,
    /// PAC width in bits (stored at `64 - pac_bits ..`).
    pub pac_bits: u32,
}

impl PacConfig {
    /// The paper's configuration: 40-bit VA, 24-bit PAC.
    pub const PAPER: PacConfig = PacConfig {
        va_bits: 40,
        pac_bits: 24,
    };

    /// Mask selecting the raw (addressable) bits.
    pub fn va_mask(self) -> u64 {
        (1u64 << self.va_bits) - 1
    }

    /// Mask selecting the PAC field.
    pub fn pac_mask(self) -> u64 {
        !0u64 << (64 - self.pac_bits)
    }

    /// Insert `pac` into the top bits of `raw`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `raw` fits in the VA bits and `pac` in the PAC
    /// bits.
    pub fn pack(self, raw: u64, pac: u64) -> u64 {
        debug_assert_eq!(raw & !self.va_mask(), 0, "value exceeds VA width");
        debug_assert!(pac < (1 << self.pac_bits));
        raw | (pac << (64 - self.pac_bits))
    }

    /// Split a signed value into `(raw, pac)`.
    pub fn unpack(self, value: u64) -> (u64, u64) {
        (value & self.va_mask(), value >> (64 - self.pac_bits))
    }

    /// Remove any PAC bits (the `xpac` instruction).
    pub fn strip(self, value: u64) -> u64 {
        value & self.va_mask()
    }
}

impl Default for PacConfig {
    fn default() -> Self {
        PacConfig::PAPER
    }
}

/// Authentication failure: the PAC did not match.
///
/// On real hardware the `aut*` instruction poisons the pointer so the next
/// dereference faults; our VM turns this error into an immediate trap,
/// which is behaviourally equivalent for the paper's detection claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthError {
    /// The key that was used.
    pub key: PaKey,
    /// The (stripped) value whose PAC mismatched.
    pub value: u64,
    /// The expected PAC.
    pub expected: u64,
    /// The PAC found in the top bits.
    pub found: u64,
}

impl fmt::Display for AuthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PAC authentication failure ({} key): value {:#x}, expected PAC {:#x}, found {:#x}",
            self.key.mnemonic(),
            self.value,
            self.expected,
            self.found
        )
    }
}

impl std::error::Error for AuthError {}

/// The per-process PA state: one 128-bit key per key register, plus the
/// PAC geometry.
#[derive(Debug, Clone)]
pub struct PaContext {
    keys: [Key128; 5],
    config: PacConfig,
}

fn key_index(key: PaKey) -> usize {
    match key {
        PaKey::Ia => 0,
        PaKey::Ib => 1,
        PaKey::Da => 2,
        PaKey::Db => 3,
        PaKey::Ga => 4,
    }
}

impl PaContext {
    /// Fresh random keys (what the kernel does at `exec`).
    pub fn random(rng: &mut impl Rng) -> Self {
        let mut keys = [Key128::new(0, 0); 5];
        for k in &mut keys {
            *k = Key128::new(rng.gen(), rng.gen());
        }
        PaContext {
            keys,
            config: PacConfig::default(),
        }
    }

    /// Deterministic keys for reproducible experiments.
    pub fn from_seed(seed: u64) -> Self {
        let mut keys = [Key128::new(0, 0); 5];
        for (i, k) in keys.iter_mut().enumerate() {
            *k = Key128::from_seed(seed.wrapping_add(i as u64 * 0x1000));
        }
        PaContext {
            keys,
            config: PacConfig::default(),
        }
    }

    /// Override the PAC geometry.
    pub fn with_config(mut self, config: PacConfig) -> Self {
        self.config = config;
        self
    }

    /// The PAC geometry in use.
    pub fn config(&self) -> PacConfig {
        self.config
    }

    /// Compute the PAC for `(value, modifier)` under `key`.
    pub fn compute_pac(&self, key: PaKey, value: u64, modifier: u64) -> u64 {
        cipher::mac(
            self.keys[key_index(key)],
            modifier,
            value & self.config.va_mask(),
            self.config.pac_bits,
        )
    }

    /// Sign: place the PAC into the top bits (the `pac*` instructions).
    ///
    /// Any existing PAC/top bits are cleared first, matching hardware
    /// behaviour for canonical pointers.
    pub fn sign(&self, key: PaKey, value: u64, modifier: u64) -> u64 {
        self.sign_by(value, |raw| self.compute_pac(key, raw, modifier))
    }

    /// [`PaContext::sign`], with the cipher answered from `memo` where it
    /// can be. The result is identical (see [`PacMemo`]).
    pub fn sign_memo(&self, key: PaKey, value: u64, modifier: u64, memo: &mut PacMemo) -> u64 {
        self.sign_by(value, |raw| self.memo_pac(key, raw, modifier, memo))
    }

    /// Authenticate: verify the PAC and return the stripped value
    /// (the `aut*` instructions).
    ///
    /// # Errors
    ///
    /// Returns [`AuthError`] when the PAC does not match — e.g. after an
    /// attacker overwrote the signed slot with raw bytes.
    pub fn auth(&self, key: PaKey, value: u64, modifier: u64) -> Result<u64, AuthError> {
        self.auth_by(key, value, |raw| self.compute_pac(key, raw, modifier))
    }

    /// [`PaContext::auth`], with the cipher answered from `memo` where it
    /// can be. The verdict and error payload are identical (see
    /// [`PacMemo`]).
    ///
    /// # Errors
    ///
    /// Exactly when [`PaContext::auth`] errs.
    pub fn auth_memo(
        &self,
        key: PaKey,
        value: u64,
        modifier: u64,
        memo: &mut PacMemo,
    ) -> Result<u64, AuthError> {
        self.auth_by(key, value, |raw| self.memo_pac(key, raw, modifier, memo))
    }

    /// [`PaContext::compute_pac`] of an already stripped `raw`, through
    /// `memo`.
    #[inline]
    fn memo_pac(&self, key: PaKey, raw: u64, modifier: u64, memo: &mut PacMemo) -> u64 {
        let folded = memo.fold(self.keys[key_index(key)], modifier, raw);
        cipher::truncate(folded, self.config.pac_bits)
    }

    #[inline]
    fn sign_by(&self, value: u64, pac: impl FnOnce(u64) -> u64) -> u64 {
        let raw = self.config.strip(value);
        self.config.pack(raw, pac(raw))
    }

    #[inline]
    fn auth_by(
        &self,
        key: PaKey,
        value: u64,
        pac: impl FnOnce(u64) -> u64,
    ) -> Result<u64, AuthError> {
        let (raw, found) = self.config.unpack(value);
        let expected = pac(raw);
        if expected == found {
            Ok(raw)
        } else {
            Err(AuthError {
                key,
                value: raw,
                expected,
                found,
            })
        }
    }

    /// Strip without authenticating (the `xpac` instruction).
    pub fn strip(&self, value: u64) -> u64 {
        self.config.strip(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> PaContext {
        PaContext::from_seed(1)
    }

    #[test]
    fn sign_then_auth_round_trips() {
        let c = ctx();
        for v in [0u64, 1, 0xdead_beef, (1 << 40) - 1] {
            let signed = c.sign(PaKey::Da, v, 0x7fff_0010);
            assert_eq!(c.auth(PaKey::Da, signed, 0x7fff_0010).unwrap(), v);
        }
    }

    #[test]
    fn auth_with_wrong_modifier_fails() {
        let c = ctx();
        let signed = c.sign(PaKey::Da, 42, 100);
        assert!(c.auth(PaKey::Da, signed, 101).is_err());
    }

    #[test]
    fn auth_with_wrong_key_fails() {
        let c = ctx();
        let signed = c.sign(PaKey::Da, 42, 100);
        assert!(c.auth(PaKey::Db, signed, 100).is_err());
    }

    #[test]
    fn tampered_value_fails_auth() {
        let c = ctx();
        let signed = c.sign(PaKey::Ga, 42, 7);
        // attacker overwrote the slot with a raw value (no/garbage PAC)
        let tampered = (signed & c.config().pac_mask()) | 43;
        let err = c.auth(PaKey::Ga, tampered, 7).unwrap_err();
        assert_eq!(err.value, 43);
        assert_ne!(err.expected, err.found);
    }

    #[test]
    fn plain_value_without_pac_fails_with_high_probability() {
        // A raw (unsigned) nonzero value has PAC field 0; the expected PAC is
        // essentially never 0.
        let c = ctx();
        let mut failures = 0;
        for v in 1..200u64 {
            if c.auth(PaKey::Da, v, 0x1000).is_err() {
                failures += 1;
            }
        }
        assert!(failures >= 198, "only {failures}/199 tampered loads caught");
    }

    #[test]
    fn strip_removes_pac() {
        let c = ctx();
        let signed = c.sign(PaKey::Ia, 0x1234, 0);
        assert_ne!(signed, 0x1234);
        assert_eq!(c.strip(signed), 0x1234);
    }

    #[test]
    fn pack_unpack_round_trip() {
        let cfg = PacConfig::PAPER;
        let (raw, pac) = cfg.unpack(cfg.pack(0xabc, 0xdef));
        assert_eq!(raw, 0xabc);
        assert_eq!(pac, 0xdef);
        assert_eq!(cfg.va_mask().count_ones(), 40);
        assert_eq!(cfg.pac_mask().count_ones(), 24);
    }

    #[test]
    fn different_seeds_different_keys() {
        let a = PaContext::from_seed(1).sign(PaKey::Da, 5, 5);
        let b = PaContext::from_seed(2).sign(PaKey::Da, 5, 5);
        assert_ne!(a, b);
    }
}

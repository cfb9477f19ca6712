//! A direct-mapped memo of the PAC cipher.
//!
//! Hardware `pac*`/`aut*` instructions cost a few cycles; the software
//! cipher ([`crate::cipher`]) costs ten ARX rounds on the host. PA-heavy
//! programs sign and authenticate the same few `(value, modifier)` pairs
//! over and over (CPA signs every protected value on store and
//! authenticates it on the next load), so the VM answers most PA
//! instructions from this memo instead of re-running the cipher.
//!
//! The memo is **exact**: every slot holds a true `(key, modifier, raw)
//! → fold` pair of [`cipher::fold`], tagged with the full 128-bit key, so
//! a lookup returns exactly what the cipher would compute under any key.
//! Re-keying (a new process, a new re-randomisation epoch) therefore needs
//! no invalidation, and a value signed under an old key can never hit an
//! entry of the new one. Slots store the fold before truncation, so one
//! memo serves every [`crate::PacConfig`] width.

use crate::cipher::{self, Key128};

/// log2 of the slot count.
const SLOT_BITS: u32 = 10;

/// One memoised cipher evaluation, tagged with all of its inputs.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: Key128,
    modifier: u64,
    raw: u64,
    folded: u64,
}

impl Slot {
    fn compute(key: Key128, modifier: u64, raw: u64) -> Self {
        Slot {
            key,
            modifier,
            raw,
            folded: cipher::fold(key, modifier, raw),
        }
    }
}

/// Direct-mapped memo of [`cipher::fold`] (see the module docs).
///
/// `PacMemo::default()` holds no slots and allocates nothing; the table
/// (1024 slots, 40 KiB) is allocated by the first lookup, so a memo that
/// is never used — or a placeholder left by `std::mem::take` — is free.
#[derive(Debug, Clone, Default)]
pub struct PacMemo {
    slots: Vec<Slot>,
    hits: u64,
    misses: u64,
}

/// The slot `(key, modifier, raw)` maps to. `key.hi` is left out so
/// that keys differing only there collide (which the tag must catch).
#[inline]
fn slot_index(key: Key128, modifier: u64, raw: u64) -> usize {
    let h = (raw ^ modifier.rotate_left(29) ^ key.lo).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (h >> (64 - SLOT_BITS)) as usize
}

impl PacMemo {
    /// Number of slots once allocated.
    pub const SLOTS: usize = 1 << SLOT_BITS;

    /// [`cipher::fold`]`(key, modifier, raw)`, answered from the memo
    /// when the slot holds exactly these inputs.
    #[inline]
    pub fn fold(&mut self, key: Key128, modifier: u64, raw: u64) -> u64 {
        if self.slots.is_empty() {
            // Every slot starts as a true evaluation, so the tag compare
            // below never needs a separate "valid" bit.
            self.slots = vec![Slot::compute(Key128::new(0, 0), 0, 0); Self::SLOTS];
        }
        let slot = &mut self.slots[slot_index(key, modifier, raw)];
        if slot.key == key && slot.modifier == modifier && slot.raw == raw {
            self.hits += 1;
        } else {
            self.misses += 1;
            *slot = Slot::compute(key, modifier, raw);
        }
        slot.folded
    }

    /// Lookups answered from the memo.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that ran the cipher.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PaContext, PacConfig};
    use pythia_ir::PaKey;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Signing and authenticating through `memo` must agree with the
    /// direct context on the signed value and on the auth verdict
    /// (including the error payload).
    fn check(ctx: &PaContext, memo: &mut PacMemo, key: PaKey, value: u64, modifier: u64) {
        let signed = ctx.sign(key, value, modifier);
        assert_eq!(ctx.sign_memo(key, value, modifier, memo), signed);
        assert_eq!(
            ctx.auth_memo(key, signed, modifier, memo),
            ctx.auth(key, signed, modifier)
        );
        let tampered = signed ^ (1u64 << 63);
        assert_eq!(
            ctx.auth_memo(key, tampered, modifier, memo),
            ctx.auth(key, tampered, modifier)
        );
    }

    #[test]
    fn default_allocates_nothing() {
        let memo = PacMemo::default();
        assert!(memo.slots.is_empty());
        assert_eq!((memo.hits(), memo.misses()), (0, 0));
    }

    #[test]
    fn random_keys_modifiers_and_values_match_the_direct_context() {
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        let mut memo = PacMemo::default();
        for _ in 0..64 {
            let ctx = PaContext::from_seed(rng.gen());
            for _ in 0..64 {
                let key = PaKey::ALL[rng.gen_range(0..PaKey::ALL.len())];
                // A small modifier/value pool so that lookups also hit.
                let modifier = rng.gen::<u64>() % 8;
                let value = if rng.gen::<bool>() {
                    rng.gen::<u64>()
                } else {
                    rng.gen::<u64>() % 16
                };
                check(&ctx, &mut memo, key, value, modifier);
            }
        }
        assert!(memo.hits() > 0 && memo.misses() > 0);
    }

    #[test]
    fn alternating_same_slot_collisions_stay_exact() {
        let key = Key128::from_seed(3);
        let mut rng = SmallRng::seed_from_u64(17);
        let (m0, r0) = (rng.gen::<u64>(), rng.gen::<u64>());
        let target = slot_index(key, m0, r0);
        let mut rivals = Vec::new();
        while rivals.len() < 3 {
            let (m, r) = (rng.gen::<u64>(), rng.gen::<u64>());
            if slot_index(key, m, r) == target {
                rivals.push((m, r));
            }
        }
        let mut memo = PacMemo::default();
        for round in 0..4 {
            for &(m, r) in std::iter::once(&(m0, r0)).chain(&rivals) {
                assert_eq!(memo.fold(key, m, r), cipher::fold(key, m, r), "round {round}");
            }
        }
        // Each lookup evicts the previous occupant: nothing ever hits.
        assert_eq!(memo.hits(), 0);
        assert_eq!(memo.misses(), 16);
    }

    #[test]
    fn the_same_inputs_under_another_key_miss() {
        // Equal `lo` halves put both keys on the same slot, so only the
        // full-key tag tells them apart.
        let a = Key128::new(0x1111, 0xaaaa);
        let b = Key128::new(0x1111, 0xbbbb);
        let mut memo = PacMemo::default();
        assert_eq!(memo.fold(a, 7, 42), cipher::fold(a, 7, 42));
        assert_eq!(memo.fold(a, 7, 42), cipher::fold(a, 7, 42));
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
        assert_eq!(memo.fold(b, 7, 42), cipher::fold(b, 7, 42));
        assert_eq!((memo.hits(), memo.misses()), (1, 2));
        assert_ne!(cipher::fold(a, 7, 42), cipher::fold(b, 7, 42));
    }

    #[test]
    fn a_stale_key_signature_fails_on_a_warm_memo() {
        let old = PaContext::from_seed(1);
        let new = PaContext::from_seed(2);
        let mut memo = PacMemo::default();
        let stale = old.sign_memo(PaKey::Ga, 0x40, 0x7fff_0010, &mut memo);
        // Warm the memo with the new key's entry for the same slot value.
        new.sign_memo(PaKey::Ga, 0x40, 0x7fff_0010, &mut memo);
        assert!(new.auth_memo(PaKey::Ga, stale, 0x7fff_0010, &mut memo).is_err());
        assert_eq!(
            old.auth_memo(PaKey::Ga, stale, 0x7fff_0010, &mut memo),
            Ok(0x40)
        );
    }

    #[test]
    fn tampered_pac_bits_fail_on_a_warm_entry() {
        let ctx = PaContext::from_seed(9);
        let mut memo = PacMemo::default();
        let signed = ctx.sign_memo(PaKey::Da, 0xdead, 64, &mut memo);
        assert_eq!(ctx.auth_memo(PaKey::Da, signed, 64, &mut memo), Ok(0xdead));
        let hits = memo.hits();
        for bit in 40..64 {
            let tampered = signed ^ (1u64 << bit);
            let got = ctx.auth_memo(PaKey::Da, tampered, 64, &mut memo);
            assert!(got.is_err(), "flipped PAC bit {bit} authenticated");
            assert_eq!(got, ctx.auth(PaKey::Da, tampered, 64));
        }
        // Every tampered auth was answered from the warm entry.
        assert_eq!(memo.hits(), hits + 24);
    }

    #[test]
    fn non_default_geometry_stays_exact() {
        let cfg = PacConfig {
            va_bits: 48,
            pac_bits: 16,
        };
        let ctx = PaContext::from_seed(5).with_config(cfg);
        let mut rng = SmallRng::seed_from_u64(23);
        let mut memo = PacMemo::default();
        for _ in 0..2000 {
            let key = PaKey::ALL[rng.gen_range(0..PaKey::ALL.len())];
            let value = (rng.gen::<u64>() % 64) | ((rng.gen::<u64>() % 4) << 45);
            check(&ctx, &mut memo, key, value, rng.gen::<u64>() % 4);
        }
        assert!(memo.hits() > memo.misses());
    }
}

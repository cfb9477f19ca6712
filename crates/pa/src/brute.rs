//! Brute-force analysis of PAC canaries (paper §4.4, Eq. 6).
//!
//! Pythia re-randomizes canaries on every function entry and before each
//! input channel, so each guess is independent: guessing is a geometric
//! random variable with success probability `p = 2^-pac_bits`. This module
//! provides both the analytic quantities the paper derives and a
//! Monte-Carlo harness that plays the actual guessing game against a
//! [`PaContext`], used by the `eq6` experiment.

use crate::pac::PaContext;
use pythia_ir::PaKey;
use rand::Rng;

/// Probability a single guess forges one canary with a `pac_bits`-bit PAC.
pub fn single_guess_probability(pac_bits: u32) -> f64 {
    1.0 / 2f64.powi(pac_bits as i32)
}

/// Paper Eq. 6: probability that *some* one of `k` canaries is forged
/// within `n` independent attempts (union bound, as the paper computes it:
/// `k * p` per attempt series; for small `p` the geometric series collapses
/// to `≈ k / 2^bits`).
pub fn brute_force_probability(k_canaries: u64, pac_bits: u32) -> f64 {
    (k_canaries as f64) * single_guess_probability(pac_bits)
}

/// Expected number of attempts to forge one canary: `E[X] = 1/p = 2^bits`.
pub fn expected_tries(pac_bits: u32) -> f64 {
    2f64.powi(pac_bits as i32)
}

/// Outcome of one Monte-Carlo brute-force campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BruteForceOutcome {
    /// Number of guesses made (including the successful one, if any).
    pub tries: u64,
    /// Whether a forgery landed within the attempt budget.
    pub success: bool,
}

/// Play the guessing game: the attacker repeatedly overwrites a signed
/// canary slot with a guessed 64-bit value; each wrong guess "crashes the
/// program", which re-randomizes the canary (fresh value, fresh modifier
/// never revealed to the attacker).
///
/// `max_tries` bounds the campaign. Use a reduced `pac_bits` context for
/// tractable experiments; the analytic formulas extrapolate to 24 bits.
pub fn simulate_brute_force(
    ctx: &PaContext,
    rng: &mut impl Rng,
    max_tries: u64,
) -> BruteForceOutcome {
    let pac_bits = ctx.config().pac_bits;
    let va_mask = ctx.config().va_mask();
    for t in 1..=max_tries {
        // Program (re)starts: fresh canary value at a fresh stack slot.
        // The overwrite below replaces the signed canary entirely, so it
        // is never signed here; its value is still drawn to keep the
        // random stream (and every published try count) unchanged.
        let _canary_value: u64 = rng.gen::<u64>() & va_mask;
        let modifier: u64 = rng.gen::<u64>() & va_mask;
        // Attacker overwrites with a guess. The attacker knows neither the
        // key nor the current canary; the best strategy is a uniform guess
        // of the PAC field over an arbitrary payload value.
        let guess_payload: u64 = rng.gen::<u64>() & va_mask;
        let guess_pac: u64 = rng.gen::<u64>() & ((1 << pac_bits) - 1);
        let forged = ctx.config().pack(guess_payload, guess_pac);
        if ctx.auth(PaKey::Ga, forged, modifier).is_ok() {
            return BruteForceOutcome {
                tries: t,
                success: true,
            };
        }
    }
    BruteForceOutcome {
        tries: max_tries,
        success: false,
    }
}

/// Run `campaigns` campaigns and return the empirical success rate for a
/// fixed per-campaign budget of `tries_per_campaign`.
pub fn empirical_success_rate(
    ctx: &PaContext,
    rng: &mut impl Rng,
    campaigns: u64,
    tries_per_campaign: u64,
) -> f64 {
    let mut successes = 0u64;
    for _ in 0..campaigns {
        if simulate_brute_force(ctx, rng, tries_per_campaign).success {
            successes += 1;
        }
    }
    successes as f64 / campaigns as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pac::PacConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn analytic_values_match_paper() {
        // "1 in 16 million chance" for one canary at 24 bits.
        let p = brute_force_probability(1, 24);
        assert!((p - 1.0 / 16_777_216.0).abs() < 1e-12);
        // E[X] = 2^24 ≈ 16.7 million tries.
        assert_eq!(expected_tries(24), 16_777_216.0);
        // k canaries scale linearly.
        assert!((brute_force_probability(10, 24) / p - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empirical_rate_tracks_analytic_at_reduced_width() {
        // 8-bit PAC => p = 1/256 per try; with a budget of 64 tries the
        // success probability is 1-(1-p)^64 ≈ 0.22.
        let ctx = PaContext::from_seed(9).with_config(PacConfig {
            va_bits: 40,
            pac_bits: 8,
        });
        let mut rng = SmallRng::seed_from_u64(7);
        let rate = empirical_success_rate(&ctx, &mut rng, 400, 64);
        let p = 1.0 - (1.0 - 1.0 / 256.0f64).powi(64);
        assert!(
            (rate - p).abs() < 0.08,
            "empirical {rate} too far from analytic {p}"
        );
    }

    #[test]
    fn campaign_reports_try_count() {
        let ctx = PaContext::from_seed(3).with_config(PacConfig {
            va_bits: 40,
            pac_bits: 4,
        });
        let mut rng = SmallRng::seed_from_u64(11);
        let out = simulate_brute_force(&ctx, &mut rng, 10_000);
        assert!(out.success);
        assert!(out.tries >= 1);
    }

    #[test]
    fn hopeless_at_full_width_within_small_budget() {
        let ctx = PaContext::from_seed(5); // 24-bit PAC
        let mut rng = SmallRng::seed_from_u64(13);
        let out = simulate_brute_force(&ctx, &mut rng, 200);
        assert!(!out.success, "a 24-bit PAC fell to 200 guesses");
    }
}

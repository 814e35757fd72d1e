//! AFL-style hang-budget calibration.
//!
//! AFL does not run with a fixed execution timeout: during seed
//! calibration it measures each seed's execution time and sets the
//! campaign timeout to a multiple of the observed cost (clamped to sane
//! bounds). The deterministic interpreter's analogue of time is the
//! *step count* — one step per executed block — so calibration here
//! observes the step counts of the seed executions and derives a step
//! budget: `p99 × multiplier`, clamped to `[floor, ceiling]`.
//!
//! The percentile is the nearest-rank p99, not the mean: a skewed seed
//! corpus (many short seeds, one legitimately long one) drags the mean
//! far below its own longest member, and a mean-derived budget can then
//! misclassify healthy seeds as hangs from the first post-calibration
//! exec. The p99 tracks the top of the observed distribution instead;
//! for fewer than 100 observations it degrades to the maximum — with no
//! tail to measure, calibration stays generous rather than guessing one.
//! The derived budget is never zero, even with a zero floor and all-zero
//! observations (a zero budget would declare every execution a hang).
//!
//! The executor caps an installed budget at the configured
//! `ExecConfig::max_steps` (`Executor::set_step_budget`), so a calibrated
//! budget is never looser than it; below it, the budget turns "runaway
//! but not planted-hang" inputs into [`bigmap_target::ExecOutcome::Hang`]
//! early instead of burning a million steps each. Executions cut off by the
//! calibrated budget (rather than the configured one) are counted under
//! [`crate::telemetry::TelemetryEvent::HangBudgetExceeded`].

/// Policy for deriving a step budget from observed seed step counts.
///
/// The defaults mirror AFL's `EXEC_TM_ROUND` spirit: 5× the observed
/// p99, never below 1 000 steps (so trivially small seeds don't starve
/// mutants that legitimately run longer), never above the interpreter's
/// own default ceiling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HangBudget {
    /// Budget = p99 observed steps × this factor.
    pub multiplier: f64,
    /// Lower clamp on the derived budget (steps).
    pub floor: u64,
    /// Upper clamp on the derived budget (steps).
    pub ceiling: u64,
}

impl Default for HangBudget {
    fn default() -> Self {
        HangBudget {
            multiplier: 5.0,
            floor: 1_000,
            ceiling: 1_000_000,
        }
    }
}

impl HangBudget {
    /// Derives the step budget from the observed per-seed step counts.
    ///
    /// Returns `None` when there are no observations (an empty seed set
    /// leaves the configured `max_steps` in force — there is nothing to
    /// calibrate against).
    pub fn derive(&self, observed_steps: &[u64]) -> Option<u64> {
        if observed_steps.is_empty() {
            return None;
        }
        let mut sorted = observed_steps.to_vec();
        sorted.sort_unstable();
        // Nearest-rank p99 in integer math: rank = ⌈0.99·n⌉, 1-based.
        // n = 1 gives rank 1 (the sole observation); any n < 100 gives
        // rank n (the maximum).
        let rank = (sorted.len() * 99).div_ceil(100).max(1);
        let p99 = sorted[rank - 1];
        let scaled = (p99 as f64 * self.multiplier).ceil();
        // f64→u64 saturates NaN/negatives to 0 and overlarge to MAX;
        // the clamp below brings either pathological edge back in range.
        let budget = if scaled.is_finite() && scaled >= 0.0 {
            scaled.min(u64::MAX as f64) as u64
        } else {
            self.ceiling
        };
        // A floor of at least 1: a zero budget (zero floor and all-zero
        // observations) would turn every execution into a hang.
        let floor = self.floor.max(1);
        Some(budget.clamp(floor, self.ceiling.max(floor)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_observations_leave_budget_unset() {
        assert_eq!(HangBudget::default().derive(&[]), None);
    }

    #[test]
    fn budget_is_p99_times_multiplier() {
        let policy = HangBudget {
            multiplier: 3.0,
            floor: 0,
            ceiling: u64::MAX,
        };
        // n = 3 < 100: the p99 is the maximum observation (300).
        assert_eq!(policy.derive(&[100, 200, 300]), Some(900));
        // n = 200: rank ⌈0.99·200⌉ = 198 → the 198th smallest of
        // 1..=200 is 198.
        let observed: Vec<u64> = (1..=200).collect();
        assert_eq!(policy.derive(&observed), Some(594));
    }

    #[test]
    fn single_observation_calibrates_to_itself() {
        let policy = HangBudget {
            multiplier: 1.0,
            floor: 0,
            ceiling: u64::MAX,
        };
        assert_eq!(policy.derive(&[7]), Some(7));
    }

    #[test]
    fn small_samples_use_the_maximum() {
        let policy = HangBudget {
            multiplier: 1.0,
            floor: 0,
            ceiling: u64::MAX,
        };
        for n in [2usize, 10, 50, 99] {
            let observed: Vec<u64> = (1..=n as u64).collect();
            assert_eq!(policy.derive(&observed), Some(n as u64), "n = {n}");
        }
        // A skewed corpus: one long seed among many short ones must not
        // be calibrated out of its own budget (the mean-based bug).
        let mut skewed = vec![10u64; 98];
        skewed.push(100_000);
        assert_eq!(policy.derive(&skewed), Some(100_000));
    }

    #[test]
    fn all_equal_observations_do_not_panic() {
        let policy = HangBudget {
            multiplier: 5.0,
            floor: 0,
            ceiling: u64::MAX,
        };
        assert_eq!(policy.derive(&[42; 150]), Some(210));
    }

    #[test]
    fn zero_observations_never_yield_zero_budget() {
        let policy = HangBudget {
            multiplier: 5.0,
            floor: 0,
            ceiling: u64::MAX,
        };
        // All-zero step counts with a zero floor: the budget still must
        // not be zero, or every subsequent exec would read as a hang.
        assert_eq!(policy.derive(&[0, 0, 0]), Some(1));
    }

    #[test]
    fn floor_and_ceiling_clamp() {
        let policy = HangBudget {
            multiplier: 5.0,
            floor: 1_000,
            ceiling: 2_000,
        };
        assert_eq!(policy.derive(&[10]), Some(1_000), "floor applies");
        assert_eq!(policy.derive(&[10_000]), Some(2_000), "ceiling applies");
    }

    #[test]
    fn fractional_budgets_round_up() {
        let policy = HangBudget {
            multiplier: 0.5,
            floor: 0,
            ceiling: u64::MAX,
        };
        // p99 of [3] is 3; 3 × 0.5 = 1.5 → ceil to 2.
        assert_eq!(policy.derive(&[3]), Some(2));
    }

    #[test]
    fn default_policy_is_sane() {
        let policy = HangBudget::default();
        // A typical benchmark seed runs a few hundred blocks.
        let budget = policy.derive(&[400, 600]).unwrap();
        assert_eq!(budget, 3_000);
        assert!(budget >= policy.floor && budget <= policy.ceiling);
    }

    #[test]
    fn inverted_clamp_bounds_do_not_panic() {
        let policy = HangBudget {
            multiplier: 1.0,
            floor: 5_000,
            ceiling: 10, // ceiling below floor: floor wins
        };
        assert_eq!(policy.derive(&[100]), Some(5_000));
    }
}

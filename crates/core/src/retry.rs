//! Retry budgets for the read path.
//!
//! The pre-policy read loop retried a fixed 3 times with no backoff.
//! [`RetryPolicy`] makes both knobs explicit: a capped exponential
//! backoff **priced on the simulated clock** (added to the read's
//! modelled latency, never slept), and a per-read deadline budget that
//! stops retrying once the accumulated backoff would blow it.
//!
//! The default policy reproduces the historical behaviour exactly —
//! three attempts, zero backoff, no deadline — so a node built from
//! `AgarSettings::paper_default` stays byte-identical to pre-policy
//! builds (the repo-wide "disabled ⇒ byte-identical" convention).

use std::time::Duration;

/// Retry budget for one read: attempt cap, capped exponential backoff,
/// and a per-read deadline on total backoff spent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per read (re-plans after region failures and
    /// restarts after version races both count, except a race with a
    /// chunk newer than the read's manifest: that restart follows a
    /// completed write and is free). Must be ≥ 1; the historical loop
    /// used 3.
    pub max_attempts: u32,
    /// Backoff charged before the first retry; doubles per retry.
    /// `Duration::ZERO` (the default) charges nothing.
    pub base_backoff: Duration,
    /// Ceiling on a single retry's backoff. `Duration::ZERO` with a
    /// non-zero base means "uncapped".
    pub max_backoff: Duration,
    /// Per-read budget: once the accumulated backoff reaches this,
    /// no further retries are attempted. `Duration::ZERO` disables
    /// the budget.
    pub deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            deadline: Duration::ZERO,
        }
    }
}

impl RetryPolicy {
    /// The backoff to charge before retry number `attempt` (1-based:
    /// the first retry is attempt 1): `base · 2^(attempt-1)`, capped
    /// at [`RetryPolicy::max_backoff`] when that is non-zero.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let doublings = attempt.saturating_sub(1).min(20);
        let raw = self.base_backoff.saturating_mul(1u32 << doublings);
        if self.max_backoff.is_zero() {
            raw
        } else {
            raw.min(self.max_backoff)
        }
    }

    /// Whether another attempt is allowed after `attempts` tries with
    /// `spent` backoff already charged to this read.
    pub fn allows_retry(&self, attempts: u32, spent: Duration) -> bool {
        if attempts >= self.max_attempts.max(1) {
            return false;
        }
        self.deadline.is_zero() || spent < self.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_matches_the_historical_loop() {
        let policy = RetryPolicy::default();
        assert!(policy.allows_retry(1, Duration::ZERO));
        assert!(policy.allows_retry(2, Duration::ZERO));
        assert!(!policy.allows_retry(3, Duration::ZERO));
        assert_eq!(policy.backoff_for(1), Duration::ZERO);
        assert_eq!(policy.backoff_for(7), Duration::ZERO);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(35),
            deadline: Duration::ZERO,
        };
        assert_eq!(policy.backoff_for(1), Duration::from_millis(10));
        assert_eq!(policy.backoff_for(2), Duration::from_millis(20));
        assert_eq!(policy.backoff_for(3), Duration::from_millis(35));
        assert_eq!(policy.backoff_for(8), Duration::from_millis(35));
    }

    #[test]
    fn deadline_budget_stops_retries() {
        let policy = RetryPolicy {
            max_attempts: 100,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::ZERO,
            deadline: Duration::from_millis(25),
        };
        assert!(policy.allows_retry(1, Duration::from_millis(10)));
        assert!(!policy.allows_retry(2, Duration::from_millis(30)));
    }

    #[test]
    fn zero_attempt_floor_still_allows_one_attempt() {
        let policy = RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        };
        assert!(!policy.allows_retry(1, Duration::ZERO));
    }
}

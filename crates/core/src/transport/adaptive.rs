//! The transport's feedback controllers: the AIMD in-flight window of
//! every lane and the shed-aware retry budget of the client.
//!
//! A fixed window is the wrong shape under a flash crowd: sized for the
//! steady state, it either starves the uplink when the channel is
//! healthy or floods it when the server sheds, and an unconditional
//! retry ladder burns uplink slots exactly when the admission edge is
//! refusing work. [`AdaptivePolicy`] drives both from **the virtual clock
//! and the keyed event schedule only**, so every trajectory remains a
//! pure function of `(seed, request ids, enqueue order)`:
//!
//! * **AIMD windows.** Each lane starts at
//!   [`AdaptivePolicy::window_start`]. A completion that arrives `Ok`
//!   with end-to-end virtual latency at or under
//!   [`AdaptivePolicy::latency_target_ms`] grows the lane's window
//!   additively (+1). A `TimedOut` completion, or a shed at the lane's
//!   admission edge, shrinks it multiplicatively
//!   (`window × shrink_num / shrink_den`). The window is always clamped
//!   to `[window_min, window_max]`. Because growth/shrink decisions fire
//!   inside the `(completion time, ticket)`-ordered event loop, the whole
//!   trajectory is invariant to poll granularity, worker-thread count and
//!   backend shard layout.
//! * **Retry budgets.** A [`RetryBudget`] token bucket pays for the
//!   ladder: every re-submission (pruned retry or degraded attempt)
//!   debits one token; an empty bucket denies the retry and the ladder
//!   resolves `failed` with
//!   [`RequestOutcome::retries_denied`](crate::service::RequestOutcome)
//!   counted exactly once. The bucket refills per whole virtual interval,
//!   and observed `Shed` replies cancel refill tokens one-for-one — the
//!   budget *tightens under shed pressure*, backing the client off
//!   exactly when the admission edge signals overload.
//!
//! [`AdaptivePolicy::clamped`] pins the band to one window and fills the
//! bucket beyond reach: a fixed window and a ladder that is never denied.

/// Knobs of the window controller and the retry budget — the `control`
/// of a [`TransportPolicy`](crate::transport::TransportPolicy).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptivePolicy {
    /// Lower clamp of every lane's in-flight window (≥ 1).
    pub window_min: usize,
    /// Initial per-lane window, clamped into `[window_min, window_max]`.
    pub window_start: usize,
    /// Upper clamp of every lane's in-flight window.
    pub window_max: usize,
    /// Additive growth fires only for `Ok` completions whose end-to-end
    /// virtual latency (enqueue → completion) is at or under this target.
    pub latency_target_ms: f64,
    /// Multiplicative-decrease numerator: on shed/timeout the lane window
    /// becomes `max(window_min, window × shrink_num / shrink_den)`.
    pub shrink_num: u32,
    /// Multiplicative-decrease denominator (≥ 1, and > `shrink_num` for a
    /// genuine decrease).
    pub shrink_den: u32,
    /// Initial retry-budget tokens.
    pub retry_tokens: u64,
    /// Retry-budget capacity (the bucket never holds more).
    pub retry_cap: u64,
    /// Tokens granted per whole virtual refill interval — minus one per
    /// `Shed` observed during that interval (floored at zero).
    pub retry_refill: u64,
    /// Virtual refill interval, milliseconds.
    pub retry_interval_ms: f64,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy {
            window_min: 1,
            window_start: 4,
            window_max: 32,
            latency_target_ms: 250.0,
            shrink_num: 1,
            shrink_den: 2,
            retry_tokens: 16,
            retry_cap: 32,
            retry_refill: 8,
            retry_interval_ms: 100.0,
        }
    }
}

impl AdaptivePolicy {
    /// A controller pinned to a fixed window with a budget that never runs
    /// dry: `min = start = max = window`, and `u64::MAX` tokens, no refill
    /// needed.
    pub fn clamped(window: usize) -> Self {
        AdaptivePolicy {
            window_min: window,
            window_start: window,
            window_max: window,
            retry_tokens: u64::MAX,
            retry_cap: u64::MAX,
            retry_refill: 0,
            ..AdaptivePolicy::default()
        }
    }

    /// The initial per-lane window (start clamped into the band).
    pub(crate) fn start_window(&self) -> usize {
        self.window_start.clamp(self.window_min, self.window_max)
    }

    /// Additive increase, clamped at `window_max`.
    pub(crate) fn grown(&self, window: usize) -> usize {
        (window + 1).min(self.window_max)
    }

    /// Multiplicative decrease, clamped at `window_min`. Integer
    /// arithmetic keeps the trajectory exactly reproducible.
    pub(crate) fn shrunk(&self, window: usize) -> usize {
        let den = self.shrink_den.max(1) as usize;
        (window * self.shrink_num as usize / den).max(self.window_min)
    }
}

/// A shed-aware token-bucket retry budget on the virtual clock.
///
/// Tokens are debited one per re-submission ([`try_debit`]) and granted
/// [`AdaptivePolicy::retry_refill`] per whole elapsed virtual interval
/// ([`advance_to`]) — except that every `Shed` observed since the last
/// refill ([`note_shed`]) cancels one grant token, so sustained shed
/// pressure starves the bucket and the ladder stops feeding the overload.
/// Token counts are unsigned by construction: the budget can reach zero
/// but never go negative.
///
/// [`try_debit`]: RetryBudget::try_debit
/// [`advance_to`]: RetryBudget::advance_to
/// [`note_shed`]: RetryBudget::note_shed
#[derive(Clone, Debug, PartialEq)]
pub struct RetryBudget {
    tokens: u64,
    cap: u64,
    refill: u64,
    interval_ms: f64,
    /// Start of the current (not yet granted) refill interval.
    anchor_ms: f64,
    /// Sheds observed since the last grant; each cancels one refill token.
    shed_pressure: u64,
    /// Retries refused because the bucket was empty.
    denied: u64,
}

impl RetryBudget {
    /// The bucket described by `policy`, anchored at virtual time zero.
    pub fn from_policy(policy: &AdaptivePolicy) -> Self {
        RetryBudget {
            tokens: policy.retry_tokens.min(policy.retry_cap),
            cap: policy.retry_cap,
            refill: policy.retry_refill,
            interval_ms: policy.retry_interval_ms,
            anchor_ms: 0.0,
            shed_pressure: 0,
            denied: 0,
        }
    }

    /// Tokens currently available.
    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    /// Retries refused so far (lifetime).
    pub fn denied(&self) -> u64 {
        self.denied
    }

    /// Grants refills for every whole virtual interval elapsed up to
    /// `now_ms`. The first pending interval pays the accumulated shed
    /// pressure; later (pressure-free) intervals grant in one saturating
    /// step, so the walk is O(1) regardless of the gap.
    pub fn advance_to(&mut self, now_ms: f64) {
        if self.interval_ms <= 0.0 || !self.interval_ms.is_finite() {
            return;
        }
        if !now_ms.is_finite() || now_ms < self.anchor_ms + self.interval_ms {
            return;
        }
        let intervals = ((now_ms - self.anchor_ms) / self.interval_ms).floor();
        let k = if intervals >= u64::MAX as f64 {
            u64::MAX
        } else {
            intervals as u64
        };
        self.anchor_ms += intervals * self.interval_ms;
        // First interval: refill minus the shed pressure seen before it.
        let first = self.refill.saturating_sub(self.shed_pressure);
        self.shed_pressure = 0;
        self.tokens = self.tokens.saturating_add(first).min(self.cap);
        // Remaining intervals carry no pressure: grant saturates at cap.
        if k > 1 && self.refill > 0 {
            let rest = (k - 1).saturating_mul(self.refill);
            self.tokens = self.tokens.saturating_add(rest).min(self.cap);
        }
    }

    /// Records one observed `Shed` reply: the next refill grants one
    /// token fewer (floored at zero).
    pub fn note_shed(&mut self) {
        self.shed_pressure = self.shed_pressure.saturating_add(1);
    }

    /// Takes one token for a re-submission. Returns `false` — and counts
    /// the denial — when the bucket is empty.
    pub fn try_debit(&mut self) -> bool {
        if self.tokens > 0 {
            self.tokens -= 1;
            true
        } else {
            self.denied += 1;
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_a_sane_aimd_band() {
        let p = AdaptivePolicy::default();
        assert!(p.window_min >= 1);
        assert!(p.window_min <= p.window_start && p.window_start <= p.window_max);
        assert!(p.shrink_num < p.shrink_den);
        assert_eq!(p.start_window(), p.window_start);
    }

    #[test]
    fn grow_and_shrink_stay_clamped() {
        let p = AdaptivePolicy {
            window_min: 2,
            window_start: 3,
            window_max: 5,
            ..AdaptivePolicy::default()
        };
        assert_eq!(p.grown(5), 5, "growth clamps at window_max");
        assert_eq!(p.grown(3), 4);
        assert_eq!(p.shrunk(5), 2, "5/2 = 2 at the floor");
        assert_eq!(p.shrunk(2), 2, "shrink clamps at window_min");
    }

    #[test]
    fn clamped_policy_pins_the_window_and_never_denies() {
        let p = AdaptivePolicy::clamped(4);
        assert_eq!(p.start_window(), 4);
        assert_eq!(p.grown(4), 4);
        assert_eq!(p.shrunk(4), 4);
        let mut b = RetryBudget::from_policy(&p);
        for _ in 0..10_000 {
            assert!(b.try_debit());
        }
        assert_eq!(b.denied(), 0);
    }

    #[test]
    fn bucket_refills_per_whole_interval_and_caps() {
        let p = AdaptivePolicy {
            retry_tokens: 0,
            retry_cap: 10,
            retry_refill: 4,
            retry_interval_ms: 100.0,
            ..AdaptivePolicy::default()
        };
        let mut b = RetryBudget::from_policy(&p);
        assert!(!b.try_debit(), "empty bucket denies");
        assert_eq!(b.denied(), 1);
        b.advance_to(99.9);
        assert_eq!(b.tokens(), 0, "no whole interval elapsed");
        b.advance_to(100.0);
        assert_eq!(b.tokens(), 4, "one interval grants one refill");
        b.advance_to(1e6);
        assert_eq!(b.tokens(), 10, "grants saturate at the cap");
    }

    #[test]
    fn shed_pressure_cancels_refill_tokens() {
        let p = AdaptivePolicy {
            retry_tokens: 0,
            retry_cap: 100,
            retry_refill: 3,
            retry_interval_ms: 100.0,
            ..AdaptivePolicy::default()
        };
        let mut b = RetryBudget::from_policy(&p);
        b.note_shed();
        b.note_shed();
        b.advance_to(100.0);
        assert_eq!(b.tokens(), 1, "2 sheds cancel 2 of the 3 refill tokens");
        // Pressure beyond the refill floors the grant at zero and does
        // not carry over once granted.
        b.note_shed();
        b.note_shed();
        b.note_shed();
        b.note_shed();
        b.advance_to(200.0);
        assert_eq!(b.tokens(), 1, "4 sheds floor the grant at zero");
        b.advance_to(300.0);
        assert_eq!(b.tokens(), 4, "pressure is consumed by its interval");
    }

    #[test]
    fn advance_is_order_of_one_for_huge_gaps() {
        let p = AdaptivePolicy {
            retry_tokens: 0,
            retry_cap: 7,
            retry_refill: 1,
            retry_interval_ms: 0.001,
            ..AdaptivePolicy::default()
        };
        let mut b = RetryBudget::from_policy(&p);
        b.advance_to(1e15); // ~1e18 intervals: must not loop
        assert_eq!(b.tokens(), 7);
    }
}

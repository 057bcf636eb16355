//! Per-tenant token-bucket rate limiting with an explicit clock.
//!
//! Admission control guards the *update* path: reads are served from
//! immutable snapshots at zero locks and admit unconditionally, but every
//! admitted update claims space in a bounded queue and writer time, so a
//! single hot tenant can starve the fleet. The gate answers one question —
//! "may this tenant spend `cost` updates right now?" — in O(1) under one
//! short lock.
//!
//! Two design rules keep the gate honest:
//!
//! - **The clock is an argument.** Every transition takes `now_nanos`
//!   explicitly; the state machine never reads time itself. Real callers
//!   pass [`pref_sync::time::monotonic_nanos`]; tests and the model checker
//!   pass literals, which makes every refill schedule — including clock
//!   stalls — a deterministic, explorable input rather than a flake source.
//! - **Memory is bounded by construction.** Tenants hash into a fixed slot
//!   table ([`TokenBucketConfig::slots`]); colliding tenants *share* a
//!   budget rather than growing the table. Under adversarial tenant-id
//!   churn the gate stays O(slots) forever — collisions make the gate
//!   slightly stricter, never unbounded.

use pref_sync::{LockRank, Mutex};

/// Gate parameters. Rates are in updates (cost units) per second.
#[derive(Debug, Clone)]
pub struct TokenBucketConfig {
    /// Sustained per-tenant budget, tokens per second.
    pub rate_per_sec: u64,
    /// Burst ceiling: a bucket never holds more than this many tokens.
    pub burst: u64,
    /// Slot-table size; tenants hash here and collisions share a budget.
    pub slots: usize,
}

impl Default for TokenBucketConfig {
    fn default() -> Self {
        Self {
            rate_per_sec: 10_000,
            burst: 20_000,
            slots: 1024,
        }
    }
}

/// One tenant-slot's bucket. Token balances are held in *nano-tokens*
/// (1 token = 10⁹ nano-tokens) so refill arithmetic is exact integer math:
/// `rate_per_sec` tokens/s × `delta` ns = `rate_per_sec × delta`
/// nano-tokens, no division until the admit comparison.
#[derive(Debug, Clone, Copy)]
struct Slot {
    nano_tokens: u64,
    last_refill_nanos: u64,
}

/// What the gate decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitDecision {
    /// The cost was debited; proceed to the queue.
    Admit,
    /// The tenant's bucket cannot cover the cost; nothing was debited.
    RateLimited,
}

/// The admission gate: a fixed table of token buckets behind one lock.
#[derive(Debug)]
pub struct AdmissionGate {
    slots: Mutex<Vec<Slot>>,
    rate_per_sec: u64,
    burst_nano: u64,
}

const NANOS_PER_TOKEN: u64 = 1_000_000_000;

impl AdmissionGate {
    /// Builds the gate; buckets start full (a fresh tenant gets its burst).
    pub fn new(config: &TokenBucketConfig) -> Self {
        let slots = config.slots.max(1);
        let burst_nano = config.burst.saturating_mul(NANOS_PER_TOKEN);
        Self {
            slots: Mutex::new(
                vec![
                    Slot {
                        nano_tokens: burst_nano,
                        last_refill_nanos: 0,
                    };
                    slots
                ],
                LockRank::AdmissionSlots,
            ),
            rate_per_sec: config.rate_per_sec,
            burst_nano,
        }
    }

    /// Admits or rejects spending `cost` tokens for `tenant` at time
    /// `now_nanos`. Refill happens lazily here: the slot earns
    /// `rate × elapsed` nano-tokens (clamped to the burst ceiling), then
    /// the cost either fits and is debited, or the slot is left untouched.
    /// A `now_nanos` earlier than the slot's last refill (clock handed in
    /// out of order by racing callers) earns zero — never a negative —
    /// refill.
    pub fn admit(&self, tenant: u64, cost: u64, now_nanos: u64) -> AdmitDecision {
        let mut slots = self.slots.lock();
        let at = slot_of(tenant, slots.len());
        let slot = &mut slots[at];
        let elapsed = now_nanos.saturating_sub(slot.last_refill_nanos);
        if elapsed > 0 {
            let earned = (self.rate_per_sec as u128).saturating_mul(elapsed as u128);
            let refilled = (slot.nano_tokens as u128).saturating_add(earned);
            slot.nano_tokens = refilled.min(self.burst_nano as u128) as u64;
            slot.last_refill_nanos = now_nanos;
        }
        let cost_nano = cost.saturating_mul(NANOS_PER_TOKEN);
        if slot.nano_tokens >= cost_nano {
            slot.nano_tokens -= cost_nano;
            AdmitDecision::Admit
        } else {
            AdmitDecision::RateLimited
        }
    }
}

/// Tenant → slot: splitmix64 finalizer then a widening-multiply range
/// reduction — the same unbiased map the service uses for shard routing.
fn slot_of(tenant: u64, slots: usize) -> usize {
    let mut x = tenant.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    ((x as u128 * slots as u128) >> 64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(rate: u64, burst: u64) -> AdmissionGate {
        AdmissionGate::new(&TokenBucketConfig {
            rate_per_sec: rate,
            burst,
            slots: 8,
        })
    }

    #[test]
    fn a_fresh_tenant_spends_its_burst_then_is_limited() {
        let gate = gate(1, 3);
        for _ in 0..3 {
            assert_eq!(gate.admit(7, 1, 0), AdmitDecision::Admit);
        }
        assert_eq!(gate.admit(7, 1, 0), AdmitDecision::RateLimited);
    }

    #[test]
    fn refill_is_exact_at_the_token_boundary() {
        let gate = gate(2, 10);
        // drain the burst
        assert_eq!(gate.admit(1, 10, 0), AdmitDecision::Admit);
        // 2 tokens/s: 499_999_999 ns earns strictly less than one token
        assert_eq!(gate.admit(1, 1, 499_999_999), AdmitDecision::RateLimited);
        // ...and the 500_000_000th nanosecond completes it
        assert_eq!(gate.admit(1, 1, 500_000_000), AdmitDecision::Admit);
    }

    #[test]
    fn refill_clamps_at_the_burst_ceiling() {
        let gate = gate(1_000, 5);
        assert_eq!(gate.admit(3, 5, 0), AdmitDecision::Admit);
        // an hour of idle earns far more than 5 tokens — but holds only 5
        let hour = 3_600_000_000_000;
        assert_eq!(gate.admit(3, 5, hour), AdmitDecision::Admit);
        assert_eq!(gate.admit(3, 1, hour), AdmitDecision::RateLimited);
    }

    #[test]
    fn a_rejected_admit_debits_nothing() {
        let gate = gate(1, 4);
        assert_eq!(gate.admit(9, 10, 0), AdmitDecision::RateLimited);
        // the full burst is still there
        assert_eq!(gate.admit(9, 4, 0), AdmitDecision::Admit);
    }

    #[test]
    fn a_stalled_or_rewound_clock_earns_zero_not_negative_refill() {
        let gate = gate(1_000_000, 10);
        assert_eq!(gate.admit(2, 10, 1_000_000), AdmitDecision::Admit);
        // same instant, and an *earlier* instant: no tokens back
        assert_eq!(gate.admit(2, 1, 1_000_000), AdmitDecision::RateLimited);
        assert_eq!(gate.admit(2, 1, 999_999), AdmitDecision::RateLimited);
    }

    #[test]
    fn colliding_tenants_share_one_budget() {
        // slots = 1 forces every tenant into the same bucket
        let gate = AdmissionGate::new(&TokenBucketConfig {
            rate_per_sec: 1,
            burst: 2,
            slots: 1,
        });
        assert_eq!(gate.admit(1, 1, 0), AdmitDecision::Admit);
        assert_eq!(gate.admit(2, 1, 0), AdmitDecision::Admit);
        assert_eq!(gate.admit(3, 1, 0), AdmitDecision::RateLimited);
    }

    #[test]
    fn huge_costs_and_rates_do_not_overflow() {
        let gate = gate(u64::MAX, u64::MAX);
        // burst_nano saturates; a u64::MAX cost also saturates to the same
        // ceiling, so the comparison stays meaningful instead of wrapping
        assert_eq!(gate.admit(5, u64::MAX, u64::MAX), AdmitDecision::Admit);
    }

    #[test]
    fn slot_map_covers_the_table_without_bias_spikes() {
        let slots = 8;
        let mut counts = vec![0u32; slots];
        for tenant in 0..8_000u64 {
            counts[slot_of(tenant, slots)] += 1;
        }
        let share = 8_000 / slots as u32;
        for (slot, &count) in counts.iter().enumerate() {
            assert!(
                (count as i64 - share as i64).unsigned_abs() < share as u64 / 10,
                "slot {slot}: {count} of expected ~{share}"
            );
        }
    }
}

//! Per-tenant fair-share admission control in front of the shed queues.
//!
//! The bounded queues protect the workers, but they are shared: one
//! greedy client fills them and every tenant's requests shed with equal
//! probability. Admission control moves the shed decision *before* the
//! queue and makes it per-tenant: the server's total admitted rate is a
//! configured budget, divided equally among the tenants seen so far, and
//! each tenant draws from its own token account. A tenant driving 4× its
//! fair share is shed down to its budget; a tenant inside its share never
//! pays for the overload next door.
//!
//! ## Accounting model
//!
//! Classic token bucket with a deficit-style carry, one bucket per
//! tenant:
//!
//! * tokens accrue at `total_rps / n_tenants` per second (the fair
//!   share), capped at `burst_secs` worth of share — short bursts inside
//!   the budget are admitted, sustained overload is not;
//! * admitting a request consumes one token; a tenant whose bucket is
//!   empty is shed and the rejection is billed to *that* tenant's `shed`
//!   counter (responses echo the tenant id, so attribution survives the
//!   wire);
//! * tenants register lazily on first request; the fair share shrinks as
//!   newcomers appear, which is the same contract the cluster layer uses
//!   for elastic membership — capacity re-divides, nobody renegotiates.
//!
//! The clock is passed in ([`Admission::try_admit_at`]) rather than read
//! inside, so the fairness proptests drive a virtual clock and the
//! accounting is exactly reproducible; the serving hot path uses
//! [`Admission::try_admit`] which stamps `Instant::now()`.
//!
//! The whole structure sits behind one mutex. That is deliberate: the
//! lock is only taken when admission is enabled (multi-tenant deployments
//! cap `total_rps` far below the single-tenant hot-path ceiling), and the
//! critical section is a map probe plus a handful of float ops.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Admission-control configuration.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Total admitted requests per second, shared fairly across tenants.
    /// `0` disables admission control entirely (no lock on the hot path).
    pub total_rps: u64,
    /// Bucket depth, in seconds of fair share: a tenant may burst
    /// `fair_share × burst_secs` requests above its steady rate before
    /// shedding starts. Values well under a second keep the fairness
    /// window tight.
    pub burst_secs: f64,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            total_rps: 0,
            burst_secs: 0.25,
        }
    }
}

/// Per-tenant admission totals, exported into the serve report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Requests that passed admission (they may still shed on queue-full).
    pub admitted: u64,
    /// Requests shed at admission because the tenant's bucket was empty.
    pub shed: u64,
}

struct Bucket {
    tokens: f64,
    last: Instant,
    admitted: u64,
    shed: u64,
}

/// The per-tenant token accountant. See the module docs for the model.
pub struct Admission {
    cfg: AdmissionConfig,
    buckets: Mutex<BTreeMap<u32, Bucket>>,
}

impl Admission {
    /// An accountant enforcing `cfg`. Callers should skip construction
    /// entirely when `cfg.total_rps == 0`.
    #[must_use]
    pub fn new(cfg: AdmissionConfig) -> Admission {
        Admission {
            cfg,
            buckets: Mutex::new(BTreeMap::new()),
        }
    }

    /// Charge one request to `tenant` at the current wall clock.
    pub fn try_admit(&self, tenant: u32) -> bool {
        self.try_admit_at(tenant, Instant::now())
    }

    /// Charge one request to `tenant` as of `now`.
    ///
    /// `now` must be monotone per tenant (earlier stamps refill nothing;
    /// they never panic). Returns whether the request is admitted.
    pub fn try_admit_at(&self, tenant: u32, now: Instant) -> bool {
        let mut buckets = self.buckets.lock().expect("admission poisoned");
        if let std::collections::btree_map::Entry::Vacant(slot) = buckets.entry(tenant) {
            // Register the newcomer first so its opening burst is computed
            // at the post-registration (smaller) fair share.
            slot.insert(Bucket {
                tokens: 0.0,
                last: now,
                admitted: 0,
                shed: 0,
            });
            let burst = self.burst(buckets.len());
            buckets.get_mut(&tenant).expect("just inserted").tokens = burst;
        }
        let n = buckets.len();
        let fair = self.fair_share(n);
        let burst = self.burst(n);
        let b = buckets.get_mut(&tenant).expect("registered above");
        let dt = now.saturating_duration_since(b.last).as_secs_f64();
        b.last = now;
        b.tokens = (b.tokens + fair * dt).min(burst);
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            b.admitted += 1;
            true
        } else {
            b.shed += 1;
            false
        }
    }

    /// The per-tenant refill rate given `n` registered tenants.
    fn fair_share(&self, n: usize) -> f64 {
        self.cfg.total_rps as f64 / n.max(1) as f64
    }

    /// Bucket depth given `n` registered tenants: at least one token, so
    /// a tenant's very first request is always admissible.
    fn burst(&self, n: usize) -> f64 {
        (self.fair_share(n) * self.cfg.burst_secs).max(1.0)
    }

    /// Per-tenant totals so far, in tenant order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(u32, TenantCounters)> {
        self.buckets
            .lock()
            .expect("admission poisoned")
            .iter()
            .map(|(t, b)| {
                (
                    *t,
                    TenantCounters {
                        admitted: b.admitted,
                        shed: b.shed,
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(base: Instant, micros: u64) -> Instant {
        base + Duration::from_micros(micros)
    }

    #[test]
    fn single_tenant_is_capped_at_total_rate() {
        let adm = Admission::new(AdmissionConfig {
            total_rps: 1000,
            burst_secs: 0.01, // 10-token burst
        });
        let base = Instant::now();
        // Drive 4× the budget for one simulated second.
        let mut admitted = 0u64;
        for i in 0..4000u64 {
            if adm.try_admit_at(0, at(base, i * 250)) {
                admitted += 1;
            }
        }
        // Budget (1000) plus the opening burst (10), within rounding.
        assert!((1000..=1012).contains(&admitted), "admitted {admitted}");
        let snap = adm.snapshot();
        assert_eq!(snap[0].0, 0);
        assert_eq!(snap[0].1.admitted, admitted);
        assert_eq!(snap[0].1.shed, 4000 - admitted);
    }

    #[test]
    fn well_behaved_tenants_are_unaffected_by_an_overloader() {
        // 4 tenants, 4000 rps total → 1000 rps fair share. Tenant 0 drives
        // 4× its share; tenants 1–3 stay at 80% of theirs.
        let adm = Admission::new(AdmissionConfig {
            total_rps: 4000,
            burst_secs: 0.05,
        });
        let base = Instant::now();
        let mut shed = [0u64; 4];
        // One simulated second in 1 ms steps: tenant 0 sends 4/ms, others
        // 0.8/ms (4 every 5 ms).
        for ms in 0..1000u64 {
            for _ in 0..4 {
                if !adm.try_admit_at(0, at(base, ms * 1000)) {
                    shed[0] += 1;
                }
            }
            for t in 1..4u32 {
                if ms % 5 != 0 {
                    // 4 of every 5 ticks → 800 requests over the second.
                    if !adm.try_admit_at(t, at(base, ms * 1000)) {
                        shed[t as usize] += 1;
                    }
                }
            }
        }
        assert!(shed[0] >= 2800, "overloader shed only {}", shed[0]);
        for (t, &s) in shed.iter().enumerate().skip(1) {
            assert_eq!(s, 0, "tenant {t} shed {s}");
        }
    }

    #[test]
    fn fair_share_shrinks_as_tenants_register() {
        let adm = Admission::new(AdmissionConfig {
            total_rps: 100,
            burst_secs: 1.0,
        });
        let base = Instant::now();
        assert!(adm.try_admit_at(0, base));
        // Second tenant's opening burst reflects a 50 rps share, not 100.
        assert!(adm.try_admit_at(1, base));
        let snap = adm.snapshot();
        assert_eq!(snap.len(), 2);
    }

    #[test]
    fn non_monotone_clock_never_refills_backwards() {
        let adm = Admission::new(AdmissionConfig {
            total_rps: 10,
            burst_secs: 0.1, // burst of 1 token
        });
        let base = Instant::now();
        assert!(adm.try_admit_at(0, at(base, 1000)));
        // An earlier stamp must not mint tokens (or panic).
        assert!(!adm.try_admit_at(0, at(base, 0)));
    }
}

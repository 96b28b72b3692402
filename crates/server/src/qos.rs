//! Per-principal admission control for the statement executors.
//!
//! The paper's threat model (Section 2) is mutually distrustful principals
//! sharing one database; this module adds the *availability* half of that
//! isolation: a principal over its in-flight or requests-per-second quota is
//! refused with `QUOTA_EXCEEDED` before its statement touches the executor
//! pool, and the reactor's drain loop consults [`QosGate::drain_quantum`] so
//! a heavy principal yields the executor to its neighbors after a bounded
//! number of statements (deficit-round-robin by connection).
//!
//! The gate is hot-reloadable: `Reconfigure` swaps the [`QosConfig`] under a
//! lock that admission reads briefly, so new limits apply from the next
//! statement without dropping a single connection.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex as StdMutex};
use std::time::Instant;

use ifdb::{ExecutionConstraints, IfdbError, IfdbResult, PrincipalQuota, QosConfig};
use parking_lot::RwLock;

/// Statements a connection may drain per executor turn, multiplied by the
/// principal's scheduling weight. Weight 0 means unlimited.
const SCHED_QUANTUM: usize = 4;

/// Per-principal runtime accounting.
struct PrincipalUsage {
    /// Statements of this principal currently executing (across all of its
    /// connections).
    in_flight: u32,
    /// Token bucket for the requests-per-second quota. Refilled lazily on
    /// admission; burst capacity is one second's worth of tokens.
    tokens: f64,
    last_refill: Instant,
}

ifdb_storage::counters! {
    /// A snapshot of the gate's counters (the `qos` metrics group).
    pub(crate) struct QosStats;
    struct QosCounters: Relaxed {
        /// Statements admitted past the gate.
        admitted,
        /// Admitted statements that finished (success or error).
        completed,
        /// Statements refused because the principal's in-flight quota was full.
        refused_in_flight,
        /// Statements refused because the principal's rate quota was empty.
        refused_rate,
        /// Successful `Reconfigure` requests applied.
        reconfigures,
        /// Times the drain loop preempted a connection at its quantum.
        sched_yields,
    }
    read {
        /// Statements executing right now (admissions − completions).
        in_flight,
    }
}

/// Admission gate + counters. One per server, shared by every connection.
pub(crate) struct QosGate {
    config: RwLock<Arc<QosConfig>>,
    usage: StdMutex<HashMap<u64, PrincipalUsage>>,
    pub(crate) counters: QosCounters,
}

impl QosGate {
    pub(crate) fn new(config: QosConfig) -> Self {
        QosGate {
            config: RwLock::new(Arc::new(config)),
            usage: StdMutex::new(HashMap::new()),
            counters: QosCounters::default(),
        }
    }

    pub(crate) fn stats(&self) -> QosStats {
        let s = self.counters.load();
        QosStats {
            in_flight: s.admitted.saturating_sub(s.completed),
            ..s
        }
    }

    /// The per-statement execution constraints in force right now.
    pub(crate) fn constraints(&self) -> ExecutionConstraints {
        self.config.read().constraints
    }

    /// Atomically replaces the configuration. Statements already admitted
    /// (or already executing under an armed budget) finish under the old
    /// limits; the next admission on every connection sees the new ones.
    pub(crate) fn reconfigure(&self, config: QosConfig) {
        *self.config.write() = Arc::new(config);
        self.counters.reconfigures.fetch_add(1, Ordering::Relaxed);
    }

    fn quota_for(&self, principal: u64) -> PrincipalQuota {
        self.config.read().quota_for(principal)
    }

    /// Admits one statement for `principal` or refuses with
    /// [`IfdbError::QuotaExceeded`]. The returned guard releases the
    /// in-flight slot on drop, so every exit path (including a panic caught
    /// by the executor) completes the accounting.
    pub(crate) fn admit(&self, principal: u64) -> IfdbResult<AdmitGuard<'_>> {
        let quota = self.quota_for(principal);
        let mut usage = self.usage.lock().expect("qos usage lock");
        let now = Instant::now();
        let u = usage.entry(principal).or_insert_with(|| PrincipalUsage {
            in_flight: 0,
            tokens: quota.max_requests_per_sec as f64,
            last_refill: now,
        });
        if quota.max_in_flight > 0 && u.in_flight >= quota.max_in_flight {
            drop(usage);
            self.counters
                .refused_in_flight
                .fetch_add(1, Ordering::Relaxed);
            return Err(IfdbError::QuotaExceeded {
                detail: format!(
                    "principal {principal} is at its in-flight statement quota ({})",
                    quota.max_in_flight
                ),
            });
        }
        if quota.max_requests_per_sec > 0 {
            let rate = quota.max_requests_per_sec as f64;
            let elapsed = now.duration_since(u.last_refill).as_secs_f64();
            u.tokens = (u.tokens + elapsed * rate).min(rate);
            u.last_refill = now;
            if u.tokens < 1.0 {
                drop(usage);
                self.counters.refused_rate.fetch_add(1, Ordering::Relaxed);
                return Err(IfdbError::QuotaExceeded {
                    detail: format!(
                        "principal {principal} is over its request rate quota ({}/s)",
                        quota.max_requests_per_sec
                    ),
                });
            }
            u.tokens -= 1.0;
        }
        u.in_flight += 1;
        drop(usage);
        self.counters.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(AdmitGuard {
            gate: self,
            principal,
        })
    }

    /// Statements of `principal` executing right now.
    #[cfg(test)]
    pub(crate) fn in_flight_of(&self, principal: u64) -> u32 {
        self.usage
            .lock()
            .expect("qos usage lock")
            .get(&principal)
            .map(|u| u.in_flight)
            .unwrap_or(0)
    }

    /// How many statements a connection of `principal` may drain in one
    /// executor turn before yielding the executor to other ready
    /// connections. With no QoS policy at all (the default config) the
    /// quantum is unlimited — an unconfigured server keeps the zero-overhead
    /// drain loop; weight 0 likewise never yields on count.
    pub(crate) fn drain_quantum(&self, principal: u64) -> usize {
        let config = self.config.read();
        if **config == QosConfig::default() {
            return usize::MAX;
        }
        match config.quota_for(principal).weight {
            0 => usize::MAX,
            w => (w as usize).saturating_mul(SCHED_QUANTUM),
        }
    }

    fn complete(&self, principal: u64) {
        let mut usage = self.usage.lock().expect("qos usage lock");
        if let Some(u) = usage.get_mut(&principal) {
            u.in_flight = u.in_flight.saturating_sub(1);
            // Drop idle, full-bucket entries so the map stays bounded by the
            // number of *active* principals, not every principal ever seen.
            if u.in_flight == 0 {
                let quota = self.quota_for(principal);
                if quota.max_requests_per_sec == 0
                    || u.tokens >= quota.max_requests_per_sec as f64 - 0.5
                {
                    usage.remove(&principal);
                }
            }
        }
        drop(usage);
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
    }
}

/// An admitted statement's in-flight slot; released on drop.
pub(crate) struct AdmitGuard<'a> {
    gate: &'a QosGate,
    principal: u64,
}

impl std::fmt::Debug for AdmitGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmitGuard")
            .field("principal", &self.principal)
            .finish()
    }
}

impl Drop for AdmitGuard<'_> {
    fn drop(&mut self) {
        self.gate.complete(self.principal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifdb::PrincipalQuota;

    fn gate_with(quota: PrincipalQuota) -> QosGate {
        QosGate::new(QosConfig {
            constraints: ExecutionConstraints::unlimited(),
            default_quota: quota,
            overrides: Vec::new(),
        })
    }

    #[test]
    fn unlimited_quota_admits_everything() {
        let gate = gate_with(PrincipalQuota::unlimited());
        let guards: Vec<_> = (0..100).map(|_| gate.admit(7).unwrap()).collect();
        assert_eq!(gate.in_flight_of(7), 100);
        drop(guards);
        assert_eq!(gate.in_flight_of(7), 0);
        assert_eq!(gate.stats().in_flight, 0);
    }

    #[test]
    fn in_flight_quota_refuses_at_cap_and_releases() {
        let gate = gate_with(PrincipalQuota::unlimited().with_max_in_flight(2));
        let a = gate.admit(1).unwrap();
        let _b = gate.admit(1).unwrap();
        let refused = gate.admit(1).unwrap_err();
        assert!(matches!(refused, IfdbError::QuotaExceeded { .. }));
        // A different principal is unaffected — quotas isolate neighbors.
        let _c = gate.admit(2).unwrap();
        drop(a);
        let _d = gate.admit(1).unwrap();
        assert_eq!(gate.stats().refused_in_flight, 1);
    }

    #[test]
    fn rate_quota_consumes_tokens() {
        let gate = gate_with(PrincipalQuota::unlimited().with_max_rps(3));
        for _ in 0..3 {
            drop(gate.admit(1).unwrap());
        }
        assert!(gate.admit(1).is_err());
        assert_eq!(gate.stats().refused_rate, 1);
    }

    #[test]
    fn reconfigure_applies_to_next_admission() {
        let gate = gate_with(PrincipalQuota::unlimited());
        let held = gate.admit(1).unwrap();
        gate.reconfigure(QosConfig {
            constraints: ExecutionConstraints::unlimited().with_max_rows(10),
            default_quota: PrincipalQuota::unlimited().with_max_in_flight(1),
            overrides: Vec::new(),
        });
        // The held statement keeps running; the next one sees the new cap.
        assert!(gate.admit(1).is_err());
        drop(held);
        drop(gate.admit(1).unwrap());
        assert_eq!(gate.constraints().max_rows_scanned, Some(10));
    }

    proptest::proptest! {
        /// The accounting identity the gate lives by: at every point of any
        /// admit/release/reconfigure interleaving, admissions − completions
        /// equals the number of live guards, globally and per principal —
        /// a refusal never leaks a slot and a reconfigure never unbalances
        /// the books.
        #[test]
        fn quota_accounting_balances_under_random_schedules(
            ops in proptest::collection::vec(0u64..9, 1..200),
            cap in 0u32..4,
        ) {
            let gate = gate_with(PrincipalQuota::unlimited().with_max_in_flight(cap));
            let mut live: Vec<(u64, AdmitGuard)> = Vec::new();
            for op in ops {
                // Each drawn op packs (principal 0..3, action 0..3).
                let (principal, action) = (op % 3, op / 3);
                match action {
                    0 => match gate.admit(principal) {
                        Ok(guard) => live.push((principal, guard)),
                        Err(e) => {
                            proptest::prop_assert!(
                                matches!(e, IfdbError::QuotaExceeded { .. })
                            );
                        }
                    },
                    1 => {
                        if let Some(i) = live.iter().position(|(p, _)| *p == principal) {
                            live.remove(i);
                        }
                    }
                    _ => {
                        // Hot-reload mid-schedule: new cap, same books.
                        let new_cap = (principal % 4) as u32;
                        gate.reconfigure(QosConfig {
                            constraints: ExecutionConstraints::unlimited(),
                            default_quota: PrincipalQuota::unlimited()
                                .with_max_in_flight(new_cap),
                            overrides: Vec::new(),
                        });
                    }
                }
                proptest::prop_assert_eq!(gate.stats().in_flight, live.len() as u64);
                for p in 0..3u64 {
                    let expect = live.iter().filter(|(q, _)| *q == p).count() as u32;
                    proptest::prop_assert_eq!(gate.in_flight_of(p), expect);
                }
            }
            drop(live);
            proptest::prop_assert_eq!(gate.stats().in_flight, 0);
            let stats = gate.stats();
            proptest::prop_assert_eq!(stats.admitted, stats.completed);
        }
    }

    #[test]
    fn drain_quantum_scales_with_weight() {
        let gate = QosGate::new(QosConfig {
            constraints: ExecutionConstraints::unlimited(),
            default_quota: PrincipalQuota::unlimited().with_weight(1),
            overrides: vec![(9, PrincipalQuota::unlimited().with_weight(3))],
        });
        assert_eq!(gate.drain_quantum(1), SCHED_QUANTUM);
        assert_eq!(gate.drain_quantum(9), 3 * SCHED_QUANTUM);
        // No policy at all: the drain loop stays quantum-free.
        let unlimited = QosGate::new(QosConfig::default());
        assert_eq!(unlimited.drain_quantum(1), usize::MAX);
    }
}

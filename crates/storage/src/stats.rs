//! Engine-wide statistics, and the [`counters!`](crate::counters) macro
//! every counter group in the workspace is declared with.

use serde::{Deserialize, Serialize};

/// Declares a group of counters once and generates every surface of it.
///
/// From one list of `/// doc` + `name` entries this generates the typed
/// snapshot (`pub u64` fields, with the given name, attributes and docs),
/// the `pub(crate)` block of one `AtomicU64` per counter (with `Default`)
/// that the owner embeds and increments by name, the block's `load()` into
/// a snapshot with the declared memory ordering, and the snapshot's
/// `counters()`: its `(name, value)` pairs in declaration order, which is
/// what the `Stats` metrics tree serves. Entries under `read` are snapshot
/// fields owned elsewhere (a cache size, another subsystem's count):
/// `load()` leaves them 0 for the owner's `stats()` to fill. A group of
/// only `read` entries has no block.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])* $vis:vis struct $snap:ident;
        $(#[$block_meta:meta])* struct $block:ident: $ordering:ident {
            $( $(#[$doc:meta])* $counter:ident, )*
        }
        $( read { $( $(#[$read_doc:meta])* $read:ident, )* } )?
    ) => {
        $crate::counters! {
            $(#[$meta])* $vis struct $snap;
            read { $( $(#[$doc])* $counter, )* $($( $(#[$read_doc])* $read, )*)? }
        }

        $(#[$block_meta])*
        #[derive(Default)]
        pub(crate) struct $block {
            $( $(#[$doc])* pub(crate) $counter: ::std::sync::atomic::AtomicU64, )*
        }

        impl $block {
            /// Loads every counter into a snapshot; `read` fields are 0.
            pub(crate) fn load(&self) -> $snap {
                use ::std::sync::atomic::Ordering::$ordering;
                $snap { $( $counter: self.$counter.load($ordering), )* $($( $read: 0, )*)? }
            }
        }
    };
    (
        $(#[$meta:meta])* $vis:vis struct $snap:ident;
        read { $( $(#[$doc:meta])* $field:ident, )* }
    ) => {
        $(#[$meta])*
        $vis struct $snap {
            $( $(#[$doc])* pub $field: u64, )*
        }

        impl $snap {
            /// Every field as a `(name, value)` pair, in declaration order.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$( (::std::stringify!($field), self.$field), )*].into_iter()
            }
        }
    };
}

crate::counters! {
    /// A snapshot of the storage engine's counters, combined across subsystems.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    pub struct EngineStats;
    /// The engine's own counters; [`crate::engine::StorageEngine::stats`]
    /// reads the rest from the buffer pool, transaction manager, log, page
    /// stores and audit chain.
    struct EngineCounters: Relaxed {
        /// Tuple versions inserted.
        tuples_inserted,
        /// Tuple versions deleted or superseded.
        tuples_deleted,
        /// Tuple versions examined by scans.
        tuples_scanned,
        /// Full-table visible scans started (`scan_visible` calls).
        full_table_scans,
        /// Index point lookups served.
        index_point_lookups,
        /// Index range and prefix scans served.
        index_range_scans,
        /// Log records replayed when this engine was opened from an existing
        /// directory ([`crate::engine::StorageEngine::open`]); zero for a fresh
        /// engine.
        recovery_replayed_records,
        /// Checkpoints taken (log rewrites that compacted history into a
        /// snapshot image).
        checkpoints,
        /// Checkpoint requests that found transactions active and were deferred
        /// to the next quiescent point
        /// ([`crate::engine::StorageEngine::checkpoint_soon`]).
        checkpoints_deferred,
        /// Vacuum passes run (manual or via the periodic
        /// [`crate::wal::DurabilityConfig::with_vacuum_every`] policy).
        vacuums,
        /// Log records applied from a primary's replication stream
        /// ([`crate::engine::StorageEngine::apply_replicated`]); zero unless
        /// this engine is a replica.
        replica_records_applied,
    }
    read {
        /// Buffer pool hits.
        buffer_hits,
        /// Buffer pool misses (physical page reads).
        buffer_misses,
        /// Dirty pages written back.
        writebacks,
        /// Pages evicted from the pool.
        evictions,
        /// Transactions started.
        txns_started,
        /// Bytes appended to the write-ahead log.
        wal_bytes,
        /// `fsync` calls issued by the write-ahead log. Under group commit this
        /// grows much more slowly than `txns_started`.
        wal_fsyncs,
        /// Commits whose durability was provided by another committer's fsync
        /// (group-commit followers).
        commits_batched,
        /// Physical page reads performed by page stores.
        store_reads,
        /// Physical page writes performed by page stores.
        store_writes,
        /// Links in the tamper-evident audit chain held by this engine
        /// (appended live, recovered, or replicated — see [`crate::audit`]).
        audit_records,
    }
}

impl EngineStats {
    /// Buffer hit ratio in `[0, 1]`; 1.0 when there has been no traffic.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.buffer_hits + self.buffer_misses;
        if total == 0 {
            1.0
        } else {
            self.buffer_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_handles_zero_traffic() {
        assert_eq!(EngineStats::default().hit_ratio(), 1.0);
        let s = EngineStats {
            buffer_hits: 3,
            buffer_misses: 1,
            ..Default::default()
        };
        assert!((s.hit_ratio() - 0.75).abs() < 1e-9);
    }
}

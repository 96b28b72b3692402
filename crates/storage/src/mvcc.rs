//! Multi-version concurrency control with snapshot isolation.
//!
//! The transaction manager hands out monotonically increasing transaction
//! ids, tracks commit/abort status, and builds snapshots. A snapshot captures
//! the set of transactions that were in flight when it was taken; a tuple
//! version is visible to the snapshot iff its creating transaction committed
//! before the snapshot and its deleting transaction (if any) did not.
//!
//! This is the same MVCC structure that made the IFDB changes easy in
//! PostgreSQL (Section 7.1): the visibility check is the single place where
//! irrelevant versions are skipped, so it is also where the `ifdb` crate
//! hooks in the Query-by-Label filtering.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use crate::error::{StorageError, StorageResult};
use crate::tuple::TupleHeader;

/// Transaction identifier. Ids increase monotonically; id 0 is reserved as
/// "bootstrap" and is always treated as committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TxnId(pub u64);

/// The reserved bootstrap transaction used for data loaded outside any
/// explicit transaction (e.g. benchmark loaders).
pub const BOOTSTRAP_TXN: TxnId = TxnId(0);

/// Base of the id range used for *local* transactions on a read replica.
/// Transactions replicated from a primary keep their primary-assigned ids
/// (small, monotonic from 1); a replica's own read transactions allocate
/// from this disjoint high range so the two can never collide no matter how
/// far the primary's id space grows.
pub const REPLICA_LOCAL_TXN_BASE: u64 = 1 << 62;

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// Lifecycle state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxnStatus {
    /// Still running.
    InProgress,
    /// Committed; its effects are durable and visible to later snapshots.
    Committed,
    /// Aborted; its effects must be ignored.
    Aborted,
}

/// A snapshot of transaction state, defining tuple visibility.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Snapshot {
    /// The transaction this snapshot belongs to (its own writes are visible).
    pub txn: TxnId,
    /// Every id `>= horizon` was not yet started when the snapshot was taken.
    pub horizon: TxnId,
    /// Transactions that were in progress when the snapshot was taken.
    pub active: HashSet<TxnId>,
    /// The commit counter at snapshot time: only transactions whose commit
    /// stamp is below this are visible. The id-based `horizon`/`active`
    /// tests cannot fence transactions whose ids lie outside the local
    /// allocation order — on a read replica, transactions stream in with
    /// the *primary's* (small) ids and commit whenever their `Commit`
    /// record applies, so without the commit floor a commit applied
    /// mid-scan would become visible part-way through and tear the read.
    pub commit_floor: u64,
}

impl Snapshot {
    /// Returns `true` if the effects of `other` (with the given status and
    /// commit stamp) are visible to this snapshot.
    pub fn sees(&self, other: TxnId, status: TxnStatus, commit_stamp: u64) -> bool {
        if other == self.txn {
            return true;
        }
        if other == BOOTSTRAP_TXN {
            return true;
        }
        if other >= self.horizon {
            return false;
        }
        if self.active.contains(&other) {
            return false;
        }
        status == TxnStatus::Committed && commit_stamp < self.commit_floor
    }
}

/// Transaction table: status map plus the set of transactions currently
/// mid-commit. Both live under one lock so the active→committing transition
/// of [`TransactionManager::begin_commit`] is atomic.
#[derive(Debug)]
struct TxnTable {
    status: HashMap<TxnId, TxnStatus>,
    /// `next_commit_stamp` as of each in-progress transaction's begin: the
    /// earliest commit floor any snapshot that transaction takes can carry.
    /// Vacuum reclaims a deleted version only when the deleter's commit
    /// stamp is below every active transaction's begin floor.
    begin_floors: HashMap<TxnId, u64>,
    /// Transactions whose commit record is being written: still `InProgress`
    /// for visibility (the record may not be durable yet), but claimed — no
    /// second commit and no abort may race with the record hitting the
    /// device.
    committing: HashSet<TxnId>,
    /// Commit-order stamps: assigned from `next_commit_stamp` under this
    /// lock the moment a transaction becomes `Committed`, so stamp order is
    /// exactly commit-visibility order. Transactions recovered as committed
    /// have no entry and report stamp 0 — before every snapshot of this
    /// incarnation.
    commit_stamps: HashMap<TxnId, u64>,
    /// The next commit stamp; also the `commit_floor` handed to snapshots.
    next_commit_stamp: u64,
    /// Two-phase-commit participants that voted yes: global transaction id →
    /// local transaction. A prepared transaction stays `InProgress` for
    /// visibility and keeps its `committing` claim (no local commit or abort
    /// may race the coordinator's decision); only
    /// [`TransactionManager::finish_prepared`] resolves it.
    prepared: HashMap<u64, TxnId>,
    /// Outcomes of resolved 2PC transactions (gid → committed?). Kept so a
    /// coordinator recovering another participant's in-doubt transaction can
    /// ask this node what was decided (the recovery protocol commits an
    /// in-doubt gid iff some participant knows it committed, else presumes
    /// abort). Bounded by the log: reconstructed from Prepare/Decide records
    /// at replay, forgotten at a checkpoint.
    decided: HashMap<u64, bool>,
}

impl Default for TxnTable {
    fn default() -> Self {
        TxnTable {
            status: HashMap::new(),
            begin_floors: HashMap::new(),
            committing: HashSet::new(),
            commit_stamps: HashMap::new(),
            next_commit_stamp: 1,
            prepared: HashMap::new(),
            decided: HashMap::new(),
        }
    }
}

impl TxnTable {
    fn stamp_commit(&mut self, txn: TxnId) {
        let stamp = self.next_commit_stamp;
        self.next_commit_stamp += 1;
        self.commit_stamps.insert(txn, stamp);
    }
}

/// The transaction manager: id allocation, status tracking, snapshots.
#[derive(Debug)]
pub struct TransactionManager {
    next_id: AtomicU64,
    table: RwLock<TxnTable>,
    /// In-progress transactions, maintained alongside the status map so that
    /// [`TransactionManager::active_count`] is O(1) — it runs on every
    /// commit under a periodic-checkpoint policy.
    active: AtomicU64,
}

impl Default for TransactionManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TransactionManager {
    /// Creates a manager with no transactions.
    pub fn new() -> Self {
        TransactionManager {
            next_id: AtomicU64::new(1),
            table: RwLock::new(TxnTable::default()),
            active: AtomicU64::new(0),
        }
    }

    /// Starts a transaction, returning its id.
    pub fn begin(&self) -> TxnId {
        let id = TxnId(self.next_id.fetch_add(1, Ordering::SeqCst));
        let mut table = self.table.write();
        table.status.insert(id, TxnStatus::InProgress);
        let floor = table.next_commit_stamp;
        table.begin_floors.insert(id, floor);
        self.active.fetch_add(1, Ordering::SeqCst);
        id
    }

    /// Commits a transaction.
    pub fn commit(&self, txn: TxnId) -> StorageResult<()> {
        self.finish(txn, TxnStatus::Committed)
    }

    /// Aborts a transaction.
    pub fn abort(&self, txn: TxnId) -> StorageResult<()> {
        self.finish(txn, TxnStatus::Aborted)
    }

    /// Atomically claims an in-progress transaction for commit. Between this
    /// call and [`TransactionManager::finish_commit`] the transaction stays
    /// `InProgress` for visibility (its commit record may not be durable
    /// yet), but no concurrent `commit`, `abort`, or second `begin_commit`
    /// can succeed — so two racing committers cannot both write a durable
    /// commit record with only one of them winning the in-memory transition.
    pub fn begin_commit(&self, txn: TxnId) -> StorageResult<()> {
        let mut table = self.table.write();
        if table.status.get(&txn) != Some(&TxnStatus::InProgress) || !table.committing.insert(txn) {
            return Err(StorageError::InvalidTransaction(txn.0));
        }
        Ok(())
    }

    /// Releases a claim taken by [`TransactionManager::begin_commit`]
    /// without committing (the commit record could not be written); the
    /// transaction is in progress again.
    pub fn cancel_commit(&self, txn: TxnId) {
        self.table.write().committing.remove(&txn);
    }

    /// Completes a commit claimed by [`TransactionManager::begin_commit`]:
    /// the transaction becomes `Committed` and visible to new snapshots.
    pub fn finish_commit(&self, txn: TxnId) -> StorageResult<()> {
        let mut table = self.table.write();
        if !table.committing.remove(&txn) {
            return Err(StorageError::InvalidTransaction(txn.0));
        }
        table.status.insert(txn, TxnStatus::Committed);
        table.stamp_commit(txn);
        table.begin_floors.remove(&txn);
        self.active.fetch_sub(1, Ordering::SeqCst);
        Ok(())
    }

    /// Converts a commit claim taken by [`TransactionManager::begin_commit`]
    /// into a prepared (in-doubt) state under `gid`. The transaction keeps
    /// its claim — local `commit`/`abort` keep failing — and stays
    /// `InProgress` for visibility until [`TransactionManager::finish_prepared`]
    /// applies the coordinator's decision. Fails if `gid` is already in use.
    pub fn mark_prepared(&self, txn: TxnId, gid: u64) -> StorageResult<()> {
        let mut table = self.table.write();
        if !table.committing.contains(&txn) {
            return Err(StorageError::InvalidTransaction(txn.0));
        }
        if table.prepared.contains_key(&gid) {
            return Err(StorageError::InvalidTransaction(txn.0));
        }
        table.prepared.insert(gid, txn);
        Ok(())
    }

    /// The local transaction prepared under `gid`, if any.
    pub fn prepared_txn(&self, gid: u64) -> Option<TxnId> {
        self.table.read().prepared.get(&gid).copied()
    }

    /// Every prepared (in-doubt) transaction as `(gid, txn)` pairs, in
    /// ascending gid order. Used by promotion to carry the in-doubt set
    /// into the new primary's checkpoint image.
    pub fn prepared_entries(&self) -> Vec<(u64, TxnId)> {
        let mut entries: Vec<(u64, TxnId)> = self
            .table
            .read()
            .prepared
            .iter()
            .map(|(g, t)| (*g, *t))
            .collect();
        entries.sort_unstable();
        entries
    }

    /// Registers a prepare replicated from the primary's stream: the
    /// transaction (already `InProgress` via
    /// [`TransactionManager::begin_replicated`]) becomes in-doubt under
    /// `gid`, so a replica promoted to primary can resolve it. Unlike
    /// [`TransactionManager::mark_prepared`] there is no local commit claim
    /// to convert. Idempotent.
    pub fn mark_prepared_replicated(&self, txn: TxnId, gid: u64) {
        let mut table = self.table.write();
        table.prepared.insert(gid, txn);
        if let std::collections::hash_map::Entry::Vacant(e) = table.status.entry(txn) {
            // A checkpoint image can deliver the Prepare without a Begin.
            e.insert(TxnStatus::InProgress);
            let floor = table.next_commit_stamp;
            table.begin_floors.insert(txn, floor);
            self.active.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Replica-side settlement of a replicated `Decide`: forgets the
    /// prepared entry for `txn` and records the outcome under its gid (the
    /// status flip itself is [`TransactionManager::commit_replicated`] /
    /// `abort_replicated`, exactly as for a plain commit).
    pub fn settle_prepared_replicated(&self, txn: TxnId, commit: bool) {
        let mut table = self.table.write();
        let gid = table
            .prepared
            .iter()
            .find_map(|(g, t)| (*t == txn).then_some(*g));
        if let Some(gid) = gid {
            table.prepared.remove(&gid);
            table.decided.insert(gid, commit);
        }
    }

    /// Global transaction ids currently prepared and awaiting a decision,
    /// in ascending order.
    pub fn in_doubt(&self) -> Vec<u64> {
        let mut gids: Vec<u64> = self.table.read().prepared.keys().copied().collect();
        gids.sort_unstable();
        gids
    }

    /// Applies the coordinator's decision to the transaction prepared under
    /// `gid`, committing or aborting it. Returns the resolved local
    /// transaction, or `None` if no transaction is prepared under `gid`
    /// (already decided — the decision is idempotent).
    pub fn finish_prepared(&self, gid: u64, commit: bool) -> Option<TxnId> {
        let mut table = self.table.write();
        let txn = table.prepared.remove(&gid)?;
        table.committing.remove(&txn);
        if commit {
            table.status.insert(txn, TxnStatus::Committed);
            table.stamp_commit(txn);
        } else {
            table.status.insert(txn, TxnStatus::Aborted);
        }
        table.begin_floors.remove(&txn);
        table.decided.insert(gid, commit);
        self.active.fetch_sub(1, Ordering::SeqCst);
        Some(txn)
    }

    /// What this node knows about global transaction `gid`:
    /// `Some(true)`/`Some(false)` when a decision was applied here, `None`
    /// when the gid is unknown or still in-doubt. The coordinator recovery
    /// protocol commits an in-doubt gid iff some participant answers
    /// `Some(true)`, and otherwise presumes abort.
    pub fn outcome(&self, gid: u64) -> Option<bool> {
        self.table.read().decided.get(&gid).copied()
    }

    /// Re-registers decisions recovered from the log (gid → committed?), so
    /// post-crash outcome queries keep answering.
    pub fn recover_decided(&self, decided: impl IntoIterator<Item = (u64, bool)>) {
        let mut table = self.table.write();
        table.decided.extend(decided);
    }

    /// Re-registers transactions recovered in-doubt from the log: each is
    /// `InProgress` (its effects stay invisible), holds a commit claim, and
    /// awaits the coordinator's decision under its global id.
    pub fn recover_prepared(&self, prepared: impl IntoIterator<Item = (u64, TxnId)>) {
        let mut table = self.table.write();
        for (gid, txn) in prepared {
            if table.prepared.insert(gid, txn).is_none() {
                table.status.insert(txn, TxnStatus::InProgress);
                let floor = table.next_commit_stamp;
                table.begin_floors.insert(txn, floor);
                table.committing.insert(txn);
                self.active.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    fn finish(&self, txn: TxnId, to: TxnStatus) -> StorageResult<()> {
        let mut table = self.table.write();
        if table.committing.contains(&txn) {
            // A committer owns this transaction until its commit record is
            // settled; nobody else may finish it meanwhile.
            return Err(StorageError::InvalidTransaction(txn.0));
        }
        match table.status.get(&txn) {
            Some(TxnStatus::InProgress) => {
                table.status.insert(txn, to);
                if to == TxnStatus::Committed {
                    table.stamp_commit(txn);
                }
                table.begin_floors.remove(&txn);
                self.active.fetch_sub(1, Ordering::SeqCst);
                Ok(())
            }
            _ => Err(StorageError::InvalidTransaction(txn.0)),
        }
    }

    /// The status of a transaction. The bootstrap transaction is always
    /// committed; unknown ids report as aborted (their effects are ignored).
    pub fn status(&self, txn: TxnId) -> TxnStatus {
        if txn == BOOTSTRAP_TXN {
            return TxnStatus::Committed;
        }
        self.table
            .read()
            .status
            .get(&txn)
            .copied()
            .unwrap_or(TxnStatus::Aborted)
    }

    /// The status of a transaction together with its commit stamp (0 when
    /// not committed, or committed before this incarnation — i.e. before
    /// every snapshot's commit floor).
    pub fn commit_info(&self, txn: TxnId) -> (TxnStatus, u64) {
        if txn == BOOTSTRAP_TXN {
            return (TxnStatus::Committed, 0);
        }
        let table = self.table.read();
        let status = table
            .status
            .get(&txn)
            .copied()
            .unwrap_or(TxnStatus::Aborted);
        let stamp = table.commit_stamps.get(&txn).copied().unwrap_or(0);
        (status, stamp)
    }

    /// Returns `true` if the transaction is currently in progress.
    pub fn is_active(&self, txn: TxnId) -> bool {
        self.status(txn) == TxnStatus::InProgress
    }

    /// Takes a snapshot on behalf of `txn`.
    pub fn snapshot(&self, txn: TxnId) -> Snapshot {
        let table = self.table.read();
        let horizon = TxnId(self.next_id.load(Ordering::SeqCst));
        let active = table
            .status
            .iter()
            .filter(|(id, s)| **s == TxnStatus::InProgress && **id != txn)
            .map(|(id, _)| *id)
            .collect();
        Snapshot {
            txn,
            horizon,
            active,
            commit_floor: table.next_commit_stamp,
        }
    }

    /// Decides whether a tuple version is visible to `snapshot`.
    ///
    /// A version is visible iff its inserting transaction is visible and its
    /// deleting transaction (if any) is not.
    pub fn is_visible(&self, snapshot: &Snapshot, header: &TupleHeader) -> bool {
        let (xmin_status, xmin_stamp) = self.commit_info(header.xmin);
        if !snapshot.sees(header.xmin, xmin_status, xmin_stamp) {
            return false;
        }
        match header.xmax {
            None => true,
            Some(xmax) => {
                let (status, stamp) = self.commit_info(xmax);
                !snapshot.sees(xmax, status, stamp)
            }
        }
    }

    /// Returns `true` if a version whose `xmax` is set can be physically
    /// removed: the deleter committed and no active transaction might still
    /// need the old version. Used by vacuum.
    pub fn is_dead_for_all(&self, header: &TupleHeader) -> bool {
        let Some(xmax) = header.xmax else {
            return false;
        };
        let table = self.table.read();
        if table.status.get(&xmax).copied() != Some(TxnStatus::Committed) && xmax != BOOTSTRAP_TXN {
            return false;
        }
        // The deleter must have committed before every active transaction
        // *began* (commit stamp below every begin floor): only then can no
        // current — or future — snapshot of an active transaction still see
        // the old version. Comparing transaction ids instead would be
        // wrong: a lower id only means an earlier begin, and a reader that
        // began while the deleter was still in progress must keep seeing
        // the pre-delete version for its whole lifetime.
        let stamp = table.commit_stamps.get(&xmax).copied().unwrap_or(0);
        match table.begin_floors.values().copied().min() {
            None => true,
            Some(min_floor) => stamp < min_floor,
        }
    }

    /// Number of transactions ever started.
    pub fn started_count(&self) -> u64 {
        self.next_id.load(Ordering::SeqCst) - 1
    }

    /// Number of transactions currently in progress. O(1).
    pub fn active_count(&self) -> u64 {
        self.active.load(Ordering::SeqCst)
    }

    /// Registers a transaction replicated from a primary as in progress.
    /// Unlike [`TransactionManager::begin`], the id is the primary's — the
    /// local allocator is untouched (replica-local transactions live in the
    /// disjoint [`REPLICA_LOCAL_TXN_BASE`] range). Idempotent.
    pub fn begin_replicated(&self, txn: TxnId) {
        if txn == BOOTSTRAP_TXN {
            return;
        }
        let mut table = self.table.write();
        if table.status.insert(txn, TxnStatus::InProgress).is_none() {
            let floor = table.next_commit_stamp;
            table.begin_floors.insert(txn, floor);
            self.active.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Marks a replicated transaction committed, making its tuple versions
    /// visible to new replica snapshots. Tolerates a missing `Begin` (e.g. a
    /// checkpoint image raced the stream): the status is installed either
    /// way.
    pub fn commit_replicated(&self, txn: TxnId) {
        self.finish_replicated(txn, TxnStatus::Committed)
    }

    /// Marks a replicated transaction aborted. Also overrides an earlier
    /// replicated commit, mirroring the replay rule that a superseding
    /// `Abort` record wins.
    pub fn abort_replicated(&self, txn: TxnId) {
        self.finish_replicated(txn, TxnStatus::Aborted)
    }

    fn finish_replicated(&self, txn: TxnId, to: TxnStatus) {
        if txn == BOOTSTRAP_TXN {
            return;
        }
        let mut table = self.table.write();
        if table.status.insert(txn, to) == Some(TxnStatus::InProgress) {
            self.active.fetch_sub(1, Ordering::SeqCst);
        }
        if to == TxnStatus::Committed {
            // The stamp makes the commit visible only to snapshots taken
            // from here on — a replica read mid-scan keeps its consistent
            // view even as the stream applies commits under it.
            table.stamp_commit(txn);
        } else {
            // Abort overriding an earlier replicated commit: withdraw the
            // stamp with the status.
            table.commit_stamps.remove(&txn);
        }
        table.begin_floors.remove(&txn);
    }

    /// Aborts every replicated transaction that is still in progress and
    /// *not* prepared, returning how many there were. Called at promotion:
    /// the old primary's stream is dead, so a streamed `Begin` whose
    /// outcome never arrived can never resolve on this timeline — exactly
    /// like in-flight work at a crash, it aborts. Prepared (in-doubt)
    /// transactions are exempt: the successor resolves those through the
    /// coordinator's decision. Replica-local transactions (ids in the
    /// reserved high range) are untouched — those drain on their own.
    ///
    /// If the promotion that requested this ultimately fails and the node
    /// resumes applying from a live primary, a later streamed `Commit`
    /// simply overrides the abort (superseding stream records win), so the
    /// node still converges to the primary's truth.
    pub fn abort_orphaned_replicated(&self) -> u64 {
        let mut table = self.table.write();
        let prepared: std::collections::HashSet<TxnId> = table.prepared.values().copied().collect();
        let orphans: Vec<TxnId> = table
            .status
            .iter()
            .filter(|(id, s)| {
                id.0 < REPLICA_LOCAL_TXN_BASE
                    && **s == TxnStatus::InProgress
                    && !prepared.contains(id)
            })
            .map(|(id, _)| *id)
            .collect();
        for txn in &orphans {
            table.status.insert(*txn, TxnStatus::Aborted);
            table.committing.remove(txn);
            table.begin_floors.remove(txn);
            table.commit_stamps.remove(txn);
        }
        self.active
            .fetch_sub(orphans.len() as u64, Ordering::SeqCst);
        orphans.len() as u64
    }

    /// Moves local id allocation to at least `base`. Called once when an
    /// engine is put into replica mode, with [`REPLICA_LOCAL_TXN_BASE`], so
    /// replica-local read transactions can never collide with ids arriving
    /// on the replication stream.
    pub fn reserve_local_ids(&self, base: u64) {
        self.next_id.fetch_max(base, Ordering::SeqCst);
    }

    /// Moves local id allocation back into the primary range, just above
    /// every replicated id this node has seen. Called when a replica is
    /// promoted: its writes stream to peer replicas, which reserve the
    /// [`REPLICA_LOCAL_TXN_BASE`] range for their own reads. A successor
    /// writing from that range would collide with a peer's local
    /// transactions and land at or above its snapshot horizon, leaving
    /// applied commits invisible there.
    pub(crate) fn resume_primary_ids(&self) {
        let table = self.table.read();
        let max_seen = table
            .status
            .keys()
            .map(|id| id.0)
            .filter(|id| *id < REPLICA_LOCAL_TXN_BASE)
            .max()
            .unwrap_or(BOOTSTRAP_TXN.0);
        self.next_id.store(max_seen + 1, Ordering::SeqCst);
    }

    /// Discards every transaction's status (replica reset before a fresh
    /// bootstrap). The id allocator is left alone so snapshots handed out
    /// before the reset stay internally consistent.
    pub fn clear_for_reset(&self) {
        let mut table = self.table.write();
        // Only *replicated* statuses are discarded. Replica-local read
        // transactions (ids in the reserved high range) survive the reset:
        // a client holding one open across a stream reset must still be
        // able to commit it.
        let cleared_active = table
            .status
            .iter()
            .filter(|(id, s)| id.0 < REPLICA_LOCAL_TXN_BASE && **s == TxnStatus::InProgress)
            .count() as u64;
        table.status.retain(|id, _| id.0 >= REPLICA_LOCAL_TXN_BASE);
        table.committing.retain(|id| id.0 >= REPLICA_LOCAL_TXN_BASE);
        // Replicated in-doubt entries are rebuilt from the fresh image's
        // Prepare records (local prepares never happen on a replica).
        table
            .prepared
            .retain(|_, txn| txn.0 >= REPLICA_LOCAL_TXN_BASE);
        table
            .begin_floors
            .retain(|id, _| id.0 >= REPLICA_LOCAL_TXN_BASE);
        table
            .commit_stamps
            .retain(|id, _| id.0 >= REPLICA_LOCAL_TXN_BASE);
        self.active.fetch_sub(cleared_active, Ordering::SeqCst);
    }

    /// Restores transaction-manager state after WAL replay: every
    /// transaction in `committed` is registered as committed (so tuple
    /// versions carrying it as `xmin`/`xmax` resolve correctly), and the id
    /// allocator is advanced past `max_seen` so post-recovery transactions
    /// never collide with logged ones. Transactions seen in the log but not
    /// in `committed` need no entry: unknown ids report as aborted, which is
    /// exactly the fate of in-flight work at a crash.
    pub fn recover(&self, committed: impl IntoIterator<Item = TxnId>, max_seen: TxnId) {
        let mut table = self.table.write();
        for txn in committed {
            if txn != BOOTSTRAP_TXN {
                table.status.insert(txn, TxnStatus::Committed);
            }
        }
        self.next_id.fetch_max(max_seen.0 + 1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(xmin: TxnId, xmax: Option<TxnId>) -> TupleHeader {
        TupleHeader {
            xmin,
            xmax,
            label: vec![],
        }
    }

    #[test]
    fn committed_inserts_become_visible() {
        let mgr = TransactionManager::new();
        let writer = mgr.begin();
        let reader = mgr.begin();

        // Before the writer commits, its insert is invisible to the reader.
        let snap = mgr.snapshot(reader);
        assert!(!mgr.is_visible(&snap, &header(writer, None)));

        mgr.commit(writer).unwrap();
        // A snapshot taken while the writer was active still cannot see it
        // (snapshot isolation), but a fresh snapshot can.
        assert!(!mgr.is_visible(&snap, &header(writer, None)));
        let reader2 = mgr.begin();
        let snap2 = mgr.snapshot(reader2);
        assert!(mgr.is_visible(&snap2, &header(writer, None)));
    }

    #[test]
    fn own_writes_are_visible() {
        let mgr = TransactionManager::new();
        let t = mgr.begin();
        let snap = mgr.snapshot(t);
        assert!(mgr.is_visible(&snap, &header(t, None)));
        // A tuple the transaction itself deleted is no longer visible to it.
        assert!(!mgr.is_visible(&snap, &header(TxnId(0), Some(t))));
    }

    #[test]
    fn aborted_transactions_are_invisible() {
        let mgr = TransactionManager::new();
        let t = mgr.begin();
        mgr.abort(t).unwrap();
        let reader = mgr.begin();
        let snap = mgr.snapshot(reader);
        assert!(!mgr.is_visible(&snap, &header(t, None)));
        // A delete by an aborted transaction does not hide the tuple.
        assert!(mgr.is_visible(&snap, &header(TxnId(0), Some(t))));
    }

    #[test]
    fn deleted_tuples_visible_to_older_snapshots() {
        let mgr = TransactionManager::new();
        let reader = mgr.begin();
        let snap = mgr.snapshot(reader);
        let deleter = mgr.begin();
        mgr.commit(deleter).unwrap();
        // The delete committed after the reader's snapshot, so the reader
        // still sees the old version.
        assert!(mgr.is_visible(&snap, &header(TxnId(0), Some(deleter))));
        // A new snapshot does not.
        let reader2 = mgr.begin();
        let snap2 = mgr.snapshot(reader2);
        assert!(!mgr.is_visible(&snap2, &header(TxnId(0), Some(deleter))));
    }

    #[test]
    fn double_commit_rejected() {
        let mgr = TransactionManager::new();
        let t = mgr.begin();
        mgr.commit(t).unwrap();
        assert!(mgr.commit(t).is_err());
        assert!(mgr.abort(t).is_err());
        assert!(mgr.commit(TxnId(9999)).is_err());
    }

    #[test]
    fn begin_commit_claims_exclusively() {
        let mgr = TransactionManager::new();
        let t = mgr.begin();
        mgr.begin_commit(t).unwrap();
        // While claimed, the transaction is still invisible to new snapshots.
        let reader = mgr.begin();
        let snap = mgr.snapshot(reader);
        assert!(!mgr.is_visible(&snap, &header(t, None)));
        // A second committer, a direct commit, and an abort all lose.
        assert!(mgr.begin_commit(t).is_err());
        assert!(mgr.commit(t).is_err());
        assert!(mgr.abort(t).is_err());
        mgr.finish_commit(t).unwrap();
        assert_eq!(mgr.status(t), TxnStatus::Committed);
        // The claim is consumed: finishing twice fails.
        assert!(mgr.finish_commit(t).is_err());
        let snap2 = mgr.snapshot(mgr.begin());
        assert!(mgr.is_visible(&snap2, &header(t, None)));
    }

    #[test]
    fn cancel_commit_returns_txn_to_in_progress() {
        let mgr = TransactionManager::new();
        let t = mgr.begin();
        mgr.begin_commit(t).unwrap();
        mgr.cancel_commit(t);
        assert_eq!(mgr.status(t), TxnStatus::InProgress);
        assert!(mgr.finish_commit(t).is_err(), "claim was released");
        // The transaction can be claimed again, or aborted.
        mgr.begin_commit(t).unwrap();
        mgr.cancel_commit(t);
        mgr.abort(t).unwrap();
        assert!(mgr.begin_commit(t).is_err(), "aborted txn cannot commit");
    }

    #[test]
    fn reset_clears_replicated_but_keeps_local_txns() {
        let mgr = TransactionManager::new();
        mgr.reserve_local_ids(REPLICA_LOCAL_TXN_BASE);
        // A replicated stream's transactions...
        mgr.begin_replicated(TxnId(5));
        mgr.begin_replicated(TxnId(6));
        mgr.commit_replicated(TxnId(5));
        // ...and a replica-local read transaction open across the reset.
        let local = mgr.begin();
        assert!(local.0 >= REPLICA_LOCAL_TXN_BASE);
        assert_eq!(mgr.active_count(), 2);
        mgr.clear_for_reset();
        // Replicated statuses gone (unknown ⇒ aborted), local one intact.
        assert_eq!(mgr.status(TxnId(5)), TxnStatus::Aborted);
        assert_eq!(mgr.status(TxnId(6)), TxnStatus::Aborted);
        assert_eq!(mgr.status(local), TxnStatus::InProgress);
        assert_eq!(mgr.active_count(), 1);
        mgr.commit(local).unwrap();
        assert_eq!(mgr.status(local), TxnStatus::Committed);
        assert_eq!(mgr.active_count(), 0);
    }

    #[test]
    fn bootstrap_always_committed() {
        let mgr = TransactionManager::new();
        assert_eq!(mgr.status(BOOTSTRAP_TXN), TxnStatus::Committed);
        let r = mgr.begin();
        let snap = mgr.snapshot(r);
        assert!(mgr.is_visible(&snap, &header(BOOTSTRAP_TXN, None)));
    }

    #[test]
    fn replicated_commit_applied_mid_snapshot_stays_invisible() {
        // Regression: on a replica, transactions stream in with small
        // (primary) ids that the id-based horizon cannot fence. A commit
        // applied after a snapshot was taken must stay invisible to that
        // snapshot, or a single primary transaction could be read torn.
        let mgr = TransactionManager::new();
        mgr.reserve_local_ids(REPLICA_LOCAL_TXN_BASE);
        let reader = mgr.begin();
        let snap = mgr.snapshot(reader);
        // The stream now delivers Begin/Commit for primary txn 7.
        mgr.begin_replicated(TxnId(7));
        assert!(!mgr.is_visible(&snap, &header(TxnId(7), None)));
        mgr.commit_replicated(TxnId(7));
        assert!(
            !mgr.is_visible(&snap, &header(TxnId(7), None)),
            "commit applied mid-snapshot must not become visible"
        );
        // A fresh snapshot sees it.
        let snap2 = mgr.snapshot(mgr.begin());
        assert!(mgr.is_visible(&snap2, &header(TxnId(7), None)));
        // And a replicated delete applied mid-snapshot keeps the row
        // visible to the old snapshot.
        mgr.begin_replicated(TxnId(8));
        mgr.commit_replicated(TxnId(8));
        assert!(mgr.is_visible(&snap, &header(BOOTSTRAP_TXN, Some(TxnId(8)))));
        assert!(!mgr.is_visible(
            &mgr.snapshot(mgr.begin()),
            &header(BOOTSTRAP_TXN, Some(TxnId(8)))
        ));
    }

    #[test]
    fn vacuum_spares_versions_visible_to_overlapping_readers() {
        // Regression: a reader that began while the deleter was still in
        // progress must keep its pre-delete version — comparing transaction
        // ids (begin order) instead of commit stamps would reclaim it.
        let mgr = TransactionManager::new();
        let deleter = mgr.begin();
        let reader = mgr.begin(); // begins after the deleter, id is larger
        let snap = mgr.snapshot(reader);
        mgr.commit(deleter).unwrap();
        let h = header(BOOTSTRAP_TXN, Some(deleter));
        assert!(
            mgr.is_visible(&snap, &h),
            "reader's snapshot predates the delete commit"
        );
        assert!(
            !mgr.is_dead_for_all(&h),
            "version still needed by the overlapping reader"
        );
        mgr.commit(reader).unwrap();
        assert!(mgr.is_dead_for_all(&h), "reclaimable once the reader ends");
    }

    #[test]
    fn vacuum_eligibility() {
        let mgr = TransactionManager::new();
        let deleter = mgr.begin();
        let h = header(BOOTSTRAP_TXN, Some(deleter));
        assert!(!mgr.is_dead_for_all(&h), "deleter still in progress");
        mgr.commit(deleter).unwrap();
        assert!(mgr.is_dead_for_all(&h), "no active transactions remain");
        // A live tuple is never dead.
        assert!(!mgr.is_dead_for_all(&header(BOOTSTRAP_TXN, None)));
        // An older active transaction keeps the version alive.
        let _old = mgr.begin();
        let deleter2 = mgr.begin();
        mgr.commit(deleter2).unwrap();
        assert!(!mgr.is_dead_for_all(&header(BOOTSTRAP_TXN, Some(deleter2))));
    }
}

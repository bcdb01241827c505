//! A single data provider node.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use blobseer_types::{page_checksum, BlobError, PageId, ProviderId, Result};
use bytes::Bytes;
use parking_lot::RwLock;

use crate::store::PageStore;

/// One storage node: a page store plus request counters.
///
/// The counters let benches observe per-provider load imbalance — the
/// paper notes that "data access serialization is only necessary when
/// the same provider is contacted at the same time by different
/// clients" (§4.3), so skew here is the real engine's analogue of the
/// contention the simulator models with queues.
///
/// Every stored page carries a **checksum sidecar** entry
/// ([`blobseer_types::page_checksum`] of the payload, recorded at store
/// time) that is verified on every fetch. The checksum deliberately
/// lives *next to* the store, never inside the payload: stored `Bytes`
/// stay byte-identical (and pointer-identical, for the zero-copy write
/// path) to what the client handed over. A failed verification surfaces
/// as [`BlobError::PageCorrupt`] and bumps `corrupt_detected`; callers
/// treat it as a miss and fall through to the next replica.
pub struct DataProvider {
    id: ProviderId,
    store: Arc<dyn PageStore>,
    checksums: RwLock<HashMap<PageId, u64>>,
    available: AtomicBool,
    draining: AtomicBool,
    retired: AtomicBool,
    reads: AtomicU64,
    writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    scrub_passes: AtomicU64,
    pages_scrubbed: AtomicU64,
    bytes_scrubbed: AtomicU64,
    corrupt_detected: AtomicU64,
    pages_repaired: AtomicU64,
    bytes_repaired: AtomicU64,
}

impl DataProvider {
    /// Wrap a store as provider `id`.
    pub fn new(id: ProviderId, store: Arc<dyn PageStore>) -> Self {
        DataProvider {
            id,
            store,
            checksums: RwLock::new(HashMap::new()),
            available: AtomicBool::new(true),
            draining: AtomicBool::new(false),
            retired: AtomicBool::new(false),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            scrub_passes: AtomicU64::new(0),
            pages_scrubbed: AtomicU64::new(0),
            bytes_scrubbed: AtomicU64::new(0),
            corrupt_detected: AtomicU64::new(0),
            pages_repaired: AtomicU64::new(0),
            bytes_repaired: AtomicU64::new(0),
        }
    }

    /// This provider's id.
    pub fn id(&self) -> ProviderId {
        self.id
    }

    /// Failure injection: take the provider offline. Stored pages are
    /// retained (a crashed node, not a wiped one); every request fails
    /// with [`BlobError::ProviderUnavailable`] until [`Self::recover`].
    pub fn fail(&self) {
        self.available.store(false, Ordering::SeqCst);
    }

    /// Bring a failed provider back online.
    pub fn recover(&self) {
        self.available.store(true, Ordering::SeqCst);
    }

    /// `true` when the provider accepts requests.
    pub fn is_available(&self) -> bool {
        self.available.load(Ordering::SeqCst)
    }

    fn check_available(&self) -> Result<()> {
        if self.is_available() {
            Ok(())
        } else {
            Err(BlobError::ProviderUnavailable(self.id))
        }
    }

    /// Put the provider into **draining** (read-only) mode: fetches,
    /// scans and deletions keep working so its pages can be migrated
    /// off, but every new [`Self::store_page`] is refused with
    /// [`BlobError::ProviderUnavailable`] — the same typed error as a
    /// crash, so the write path's existing failover re-places the copy
    /// on a healthy provider without learning a new protocol.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Leave draining mode (a drain that aborted); the provider
    /// accepts stores again.
    pub fn end_drain(&self) {
        self.draining.store(false, Ordering::SeqCst);
    }

    /// `true` while the provider is draining (read-only).
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Permanently remove the provider from service after a successful
    /// drain. Retired providers stay registered as **tombstones** — the
    /// registry index anchors every replica-chain walk, so positions
    /// must never shift — but they are skipped by placement, replica
    /// chains and maintenance sweeps. Irreversible.
    pub fn retire(&self) {
        self.retired.store(true, Ordering::SeqCst);
        self.draining.store(false, Ordering::SeqCst);
    }

    /// `true` once the provider was retired by a completed drain.
    pub fn is_retired(&self) -> bool {
        self.retired.load(Ordering::SeqCst)
    }

    /// Store a page on this provider. The payload's checksum is
    /// recorded in the sidecar only after the store succeeded, so a
    /// failed store leaves no phantom expectation behind.
    pub fn store_page(&self, pid: PageId, data: Bytes) -> Result<()> {
        self.check_available()?;
        // Draining and retired providers are write-side unavailable
        // (reads keep flowing): refusing here is what guarantees the
        // drain's victim page set only ever shrinks.
        if self.is_draining() || self.is_retired() {
            return Err(BlobError::ProviderUnavailable(self.id));
        }
        let len = data.len() as u64;
        let sum = page_checksum(&data);
        self.store.store(pid, data)?;
        self.checksums.write().insert(pid, sum);
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(len, Ordering::Relaxed);
        Ok(())
    }

    /// Store a page copy on behalf of the replica repairer
    /// ([`Self::store_page`] plus the lifetime repair counters in
    /// [`ProviderStats`]). Also used to *replace* a copy that failed
    /// verification — the one legitimate overwrite of differing
    /// content, since the old bytes were provably not the page.
    pub fn store_repaired_page(&self, pid: PageId, data: Bytes) -> Result<()> {
        let len = data.len() as u64;
        self.store_page(pid, data)?;
        self.pages_repaired.fetch_add(1, Ordering::Relaxed);
        self.bytes_repaired.fetch_add(len, Ordering::Relaxed);
        Ok(())
    }

    /// Checksum-verify `page` against the sidecar entry for `pid`.
    ///
    /// A page with no sidecar entry (stored before this provider
    /// wrapped the backing store — e.g. a recovered [`crate::FilePageStore`]
    /// directory) cannot be judged; its current checksum is *adopted*
    /// so later rot is still caught.
    fn verify(&self, pid: PageId, page: &Bytes) -> Result<()> {
        let actual = page_checksum(page);
        match self.checksums.read().get(&pid).copied() {
            Some(expected) if expected == actual => return Ok(()),
            Some(_) => {
                self.corrupt_detected.fetch_add(1, Ordering::Relaxed);
                return Err(BlobError::PageCorrupt { pid, provider: self.id });
            }
            None => {}
        }
        self.checksums.write().insert(pid, actual);
        Ok(())
    }

    /// Fetch a whole page, checksum-verified.
    pub fn fetch_page(&self, pid: PageId) -> Result<Bytes> {
        self.check_available()?;
        let out =
            self.store.fetch(pid).map_err(|_| BlobError::PageMissing { pid, provider: self.id })?;
        self.verify(pid, &out)?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(out.len() as u64, Ordering::Relaxed);
        Ok(out)
    }

    /// Fetch part of a page, checksum-verified.
    ///
    /// Verification is whole-page by construction (the checksum covers
    /// the full payload), so this fetches the page and slices the range
    /// out of it — free for the in-memory store (`Bytes` windows share
    /// the allocation) and the price of integrity for file-backed ones.
    pub fn fetch_page_range(&self, pid: PageId, offset: u64, len: u64) -> Result<Bytes> {
        self.check_available()?;
        let page =
            self.store.fetch(pid).map_err(|_| BlobError::PageMissing { pid, provider: self.id })?;
        self.verify(pid, &page)?;
        let off = offset as usize;
        let end = off + len as usize;
        if end > page.len() {
            return Err(BlobError::Storage(format!(
                "range [{offset}, {end}) exceeds page of {} bytes",
                page.len()
            )));
        }
        let out = page.slice(off..end);
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(out.len() as u64, Ordering::Relaxed);
        Ok(out)
    }

    /// `true` when the page is stored here.
    pub fn has_page(&self, pid: PageId) -> bool {
        self.store.contains(pid)
    }

    /// Delete a page (garbage collection); returns the bytes freed, or
    /// `None` when the page was not stored here.
    pub fn delete_page(&self, pid: PageId) -> Result<Option<u64>> {
        self.check_available()?;
        self.delete_tracked(pid)
    }

    /// Delete from the store and drop the checksum sidecar entry with
    /// it — every deletion path (GC, scrub, repair trimming) funnels
    /// through here so the sidecar never outlives its page.
    fn delete_tracked(&self, pid: PageId) -> Result<Option<u64>> {
        let out = self.store.delete(pid)?;
        self.checksums.write().remove(&pid);
        Ok(out)
    }

    /// Enumerate the pages stored here as `(pid, payload bytes)` pairs
    /// (weakly consistent under concurrency; see [`PageStore::scan`]).
    /// Like every request, fails typed while the provider is offline.
    pub fn scan_pages(&self) -> Result<Vec<(PageId, u64)>> {
        self.check_available()?;
        self.store.scan()
    }

    /// The orphan-scrub hook: scan this provider's store and delete
    /// every page `condemned` says is dead. The predicate is consulted
    /// once per stored page; deletions racing concurrent writers are
    /// safe because pages are immutable and `condemned` is required
    /// (by the caller's mark/epoch protocol) to never condemn a page a
    /// live tree references. Returns this pass's outcome and bumps the
    /// provider's lifetime scrub counters ([`ProviderStats`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use blobseer_provider::{DataProvider, MemoryPageStore};
    /// use blobseer_types::{PageId, ProviderId};
    ///
    /// let p = DataProvider::new(ProviderId(0), Arc::new(MemoryPageStore::new()));
    /// p.store_page(PageId(1), bytes::Bytes::from_static(b"live"))?;
    /// p.store_page(PageId(2), bytes::Bytes::from_static(b"orphan"))?;
    /// let pass = p.scrub(&|pid| pid == PageId(2))?;
    /// assert_eq!((pass.pages_scanned, pass.pages_reclaimed, pass.bytes_reclaimed), (2, 1, 6));
    /// assert!(p.has_page(PageId(1)) && !p.has_page(PageId(2)));
    /// # Ok::<(), blobseer_types::BlobError>(())
    /// ```
    pub fn scrub(&self, condemned: &(dyn Fn(PageId) -> bool + Sync)) -> Result<ScrubPass> {
        self.check_available()?;
        let mut pass = ScrubPass::default();
        for (pid, _) in self.store.scan()? {
            pass.pages_scanned += 1;
            if !condemned(pid) {
                continue;
            }
            // The store's own accounting (delete returns the payload
            // length) is authoritative — the scanned length could be
            // stale if the page raced an overwrite-retry. A delete
            // *error* must not abort the pass: earlier deletions
            // already happened, and dropping them from the outcome
            // would corrupt every byte count downstream. Count the
            // failure and keep sweeping; the page is retried next
            // pass.
            match self.delete_tracked(pid) {
                Ok(Some(bytes)) => {
                    pass.pages_reclaimed += 1;
                    pass.bytes_reclaimed += bytes;
                }
                Ok(None) => {}
                Err(_) => pass.pages_failed += 1,
            }
        }
        self.scrub_passes.fetch_add(1, Ordering::Relaxed);
        self.pages_scrubbed.fetch_add(pass.pages_reclaimed, Ordering::Relaxed);
        self.bytes_scrubbed.fetch_add(pass.bytes_reclaimed, Ordering::Relaxed);
        Ok(pass)
    }

    /// Pages currently stored.
    pub fn page_count(&self) -> usize {
        self.store.page_count()
    }

    /// Payload bytes currently stored.
    pub fn stored_bytes(&self) -> u64 {
        self.store.stored_bytes()
    }

    /// Snapshot of access counters.
    pub fn stats(&self) -> ProviderStats {
        ProviderStats {
            id: self.id,
            pages: self.store.page_count(),
            stored_bytes: self.store.stored_bytes(),
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            scrub_passes: self.scrub_passes.load(Ordering::Relaxed),
            pages_scrubbed: self.pages_scrubbed.load(Ordering::Relaxed),
            bytes_scrubbed: self.bytes_scrubbed.load(Ordering::Relaxed),
            corrupt_detected: self.corrupt_detected.load(Ordering::Relaxed),
            pages_repaired: self.pages_repaired.load(Ordering::Relaxed),
            bytes_repaired: self.bytes_repaired.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for DataProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataProvider")
            .field("id", &self.id)
            .field("pages", &self.page_count())
            .finish()
    }
}

/// Point-in-time counters for one provider.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProviderStats {
    /// Provider id.
    pub id: ProviderId,
    /// Pages stored.
    pub pages: usize,
    /// Payload bytes stored.
    pub stored_bytes: u64,
    /// Lifetime page reads served.
    pub reads: u64,
    /// Lifetime page writes served.
    pub writes: u64,
    /// Lifetime bytes served to readers.
    pub bytes_read: u64,
    /// Lifetime bytes accepted from writers.
    pub bytes_written: u64,
    /// Lifetime orphan-scrub passes over this provider.
    pub scrub_passes: u64,
    /// Lifetime pages deleted by orphan scrubs.
    pub pages_scrubbed: u64,
    /// Lifetime payload bytes reclaimed by orphan scrubs.
    pub bytes_scrubbed: u64,
    /// Lifetime fetches that failed checksum verification here.
    pub corrupt_detected: u64,
    /// Lifetime page copies written onto this provider by the replica
    /// repairer (fills and corrupt-copy replacements).
    pub pages_repaired: u64,
    /// Lifetime payload bytes those repair writes carried.
    pub bytes_repaired: u64,
}

/// Outcome of one [`DataProvider::scrub`] pass over one provider.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubPass {
    /// Pages the pass inspected.
    pub pages_scanned: u64,
    /// Condemned pages actually deleted.
    pub pages_reclaimed: u64,
    /// Payload bytes those deletions freed.
    pub bytes_reclaimed: u64,
    /// Condemned pages whose delete *errored* (storage-level I/O
    /// failure, not "already gone"). They stay stored and are retried
    /// by the next pass; reclaimed counts above stay exact either way.
    pub pages_failed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::store::MemoryPageStore;

    fn provider() -> DataProvider {
        DataProvider::new(ProviderId(7), Arc::new(MemoryPageStore::new()))
    }

    #[test]
    fn store_fetch_roundtrip_with_stats() {
        let p = provider();
        p.store_page(PageId(1), Bytes::from_static(b"abcdef")).unwrap();
        assert_eq!(p.fetch_page(PageId(1)).unwrap(), Bytes::from_static(b"abcdef"));
        assert_eq!(p.fetch_page_range(PageId(1), 2, 3).unwrap(), Bytes::from_static(b"cde"));
        let s = p.stats();
        assert_eq!(s.id, ProviderId(7));
        assert_eq!(s.pages, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 2);
        assert_eq!(s.bytes_written, 6);
        assert_eq!(s.bytes_read, 9);
    }

    #[test]
    fn failed_requests_are_not_counted_as_served() {
        let plan = Arc::new(FaultPlan::new(Arc::new(MemoryPageStore::new())));
        let p = DataProvider::new(ProviderId(7), Arc::clone(&plan) as Arc<dyn PageStore>);
        p.store_page(PageId(1), Bytes::from_static(b"payload")).unwrap();
        p.fetch_page(PageId(1)).unwrap();
        let served = |p: &DataProvider| {
            let s = p.stats();
            (s.writes, s.bytes_written, s.reads, s.bytes_read)
        };
        let before = served(&p);
        assert_eq!(before, (1, 7, 1, 7));

        // A store the backing store refuses.
        plan.fail_next_stores(1);
        assert!(p.store_page(PageId(2), Bytes::from_static(b"lost")).is_err());
        assert_eq!(served(&p), before, "failed store");

        // A missing page.
        assert!(matches!(p.fetch_page(PageId(3)), Err(BlobError::PageMissing { .. })));
        assert!(matches!(p.fetch_page_range(PageId(3), 0, 1), Err(BlobError::PageMissing { .. })));
        assert_eq!(served(&p), before, "missing page");

        // A corrupted copy: counted as detected, not as served.
        assert!(plan.corrupt_stored_page(PageId(1)).unwrap());
        assert!(matches!(p.fetch_page(PageId(1)), Err(BlobError::PageCorrupt { .. })));
        assert!(matches!(p.fetch_page_range(PageId(1), 0, 3), Err(BlobError::PageCorrupt { .. })));
        assert_eq!(served(&p), before, "corrupt copy");
        assert_eq!(p.stats().corrupt_detected, 2);
    }

    #[test]
    fn missing_page_is_typed_error() {
        let p = provider();
        match p.fetch_page(PageId(99)) {
            Err(BlobError::PageMissing { pid, provider }) => {
                assert_eq!(pid, PageId(99));
                assert_eq!(provider, ProviderId(7));
            }
            other => panic!("expected PageMissing, got {other:?}"),
        }
        assert!(matches!(p.fetch_page_range(PageId(99), 0, 1), Err(BlobError::PageMissing { .. })));
    }

    #[test]
    fn has_page_reflects_store() {
        let p = provider();
        assert!(!p.has_page(PageId(5)));
        p.store_page(PageId(5), Bytes::from_static(b"x")).unwrap();
        assert!(p.has_page(PageId(5)));
    }

    #[test]
    fn scrub_deletes_condemned_pages_and_counts() {
        let p = provider();
        p.store_page(PageId(1), Bytes::from_static(b"live")).unwrap();
        p.store_page(PageId(2), Bytes::from_static(b"orphaned!")).unwrap();
        p.store_page(PageId(3), Bytes::from_static(b"dead")).unwrap();
        let mut scanned = p.scan_pages().unwrap();
        scanned.sort_unstable();
        assert_eq!(scanned, vec![(PageId(1), 4), (PageId(2), 9), (PageId(3), 4)]);

        let pass = p.scrub(&|pid| pid != PageId(1)).unwrap();
        assert_eq!(
            pass,
            ScrubPass {
                pages_scanned: 3,
                pages_reclaimed: 2,
                bytes_reclaimed: 13,
                pages_failed: 0
            }
        );
        assert!(p.has_page(PageId(1)));
        assert!(!p.has_page(PageId(2)));
        assert_eq!(p.stored_bytes(), 4);

        // A second pass finds nothing condemned; lifetime counters
        // accumulate across passes.
        let pass2 = p.scrub(&|pid| pid != PageId(1)).unwrap();
        assert_eq!(
            pass2,
            ScrubPass { pages_scanned: 1, pages_reclaimed: 0, bytes_reclaimed: 0, pages_failed: 0 }
        );
        let s = p.stats();
        assert_eq!(s.scrub_passes, 2);
        assert_eq!(s.pages_scrubbed, 2);
        assert_eq!(s.bytes_scrubbed, 13);
    }

    #[test]
    fn offline_provider_rejects_scan_and_scrub() {
        let p = provider();
        p.store_page(PageId(1), Bytes::from_static(b"kept")).unwrap();
        p.fail();
        assert!(matches!(p.scan_pages(), Err(BlobError::ProviderUnavailable(_))));
        assert!(matches!(p.scrub(&|_| true), Err(BlobError::ProviderUnavailable(_))));
        p.recover();
        // The failed pass did not count and the data survived.
        assert_eq!(p.stats().scrub_passes, 0);
        assert!(p.has_page(PageId(1)));
    }

    #[test]
    fn corrupt_copy_fails_typed_and_counts() {
        let store = Arc::new(MemoryPageStore::new());
        let p = DataProvider::new(ProviderId(7), Arc::clone(&store) as Arc<dyn PageStore>);
        p.store_page(PageId(1), Bytes::from_static(b"healthy payload")).unwrap();
        // Corrupt the stored copy *underneath* the provider, the way
        // bit rot would: the sidecar checksum still expects the
        // original bytes.
        store.store(PageId(1), Bytes::from_static(b"heolthy payload")).unwrap();
        match p.fetch_page(PageId(1)) {
            Err(BlobError::PageCorrupt { pid, provider }) => {
                assert_eq!(pid, PageId(1));
                assert_eq!(provider, ProviderId(7));
            }
            other => panic!("expected PageCorrupt, got {other:?}"),
        }
        assert!(matches!(p.fetch_page_range(PageId(1), 0, 4), Err(BlobError::PageCorrupt { .. })));
        assert_eq!(p.stats().corrupt_detected, 2);
        // Repair overwrites with verified bytes; fetches recover.
        p.store_repaired_page(PageId(1), Bytes::from_static(b"healthy payload")).unwrap();
        assert_eq!(p.fetch_page(PageId(1)).unwrap(), Bytes::from_static(b"healthy payload"));
        let s = p.stats();
        assert_eq!((s.pages_repaired, s.bytes_repaired), (1, 15));
    }

    #[test]
    fn preexisting_page_checksum_is_adopted_on_first_fetch() {
        let store = Arc::new(MemoryPageStore::new());
        store.store(PageId(3), Bytes::from_static(b"from before")).unwrap();
        let p = DataProvider::new(ProviderId(1), Arc::clone(&store) as Arc<dyn PageStore>);
        // No sidecar entry: unjudgeable, accepted and adopted …
        assert_eq!(p.fetch_page(PageId(3)).unwrap(), Bytes::from_static(b"from before"));
        // … after which rot *is* caught.
        store.store(PageId(3), Bytes::from_static(b"fron before")).unwrap();
        assert!(matches!(p.fetch_page(PageId(3)), Err(BlobError::PageCorrupt { .. })));
    }

    #[test]
    fn delete_clears_the_sidecar_entry() {
        let p = provider();
        p.store_page(PageId(4), Bytes::from_static(b"first life")).unwrap();
        assert_eq!(p.delete_page(PageId(4)).unwrap(), Some(10));
        // Re-storing different content under the same pid must not trip
        // a stale checksum (GC reuses nothing, but scrub + re-repair
        // can legitimately re-store).
        p.store_page(PageId(4), Bytes::from_static(b"second")).unwrap();
        assert_eq!(p.fetch_page(PageId(4)).unwrap(), Bytes::from_static(b"second"));
    }

    #[test]
    fn draining_provider_is_read_only() {
        let p = provider();
        p.store_page(PageId(1), Bytes::from_static(b"kept")).unwrap();
        p.begin_drain();
        assert!(p.is_draining() && p.is_available());
        // Writes refuse with the same typed error as a crash …
        assert!(matches!(
            p.store_page(PageId(2), Bytes::from_static(b"no")),
            Err(BlobError::ProviderUnavailable(ProviderId(7)))
        ));
        // … while the read/migrate side keeps working.
        assert_eq!(p.fetch_page(PageId(1)).unwrap(), Bytes::from_static(b"kept"));
        assert_eq!(p.scan_pages().unwrap(), vec![(PageId(1), 4)]);
        assert_eq!(p.delete_page(PageId(1)).unwrap(), Some(4));
        p.end_drain();
        assert!(!p.is_draining());
        p.store_page(PageId(2), Bytes::from_static(b"yes")).unwrap();
    }

    #[test]
    fn retired_provider_rejects_stores_for_good() {
        let p = provider();
        p.begin_drain();
        p.retire();
        assert!(p.is_retired() && !p.is_draining() && p.is_available());
        assert!(matches!(
            p.store_page(PageId(1), Bytes::from_static(b"no")),
            Err(BlobError::ProviderUnavailable(_))
        ));
    }

    #[test]
    fn failed_provider_rejects_requests_but_keeps_data() {
        let p = provider();
        p.store_page(PageId(1), Bytes::from_static(b"kept")).unwrap();
        p.fail();
        assert!(!p.is_available());
        assert!(matches!(
            p.store_page(PageId(2), Bytes::from_static(b"no")),
            Err(BlobError::ProviderUnavailable(ProviderId(7)))
        ));
        assert!(matches!(p.fetch_page(PageId(1)), Err(BlobError::ProviderUnavailable(_))));
        assert!(matches!(
            p.fetch_page_range(PageId(1), 0, 1),
            Err(BlobError::ProviderUnavailable(_))
        ));
        p.recover();
        assert_eq!(p.fetch_page(PageId(1)).unwrap(), Bytes::from_static(b"kept"));
    }
}

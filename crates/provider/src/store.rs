//! Page storage backends.

use std::collections::HashMap;
use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use blobseer_types::{BlobError, PageId, Result};
use bytes::Bytes;
use parking_lot::RwLock;

/// Backend storing immutable pages addressed by [`PageId`].
///
/// Pages are written once and never mutated (BlobSeer "generates
/// completely new pages when clients request data modifications",
/// paper §1), so implementations only need last-writer-wins semantics
/// on the rare retry path.
pub trait PageStore: Send + Sync {
    /// Store a page. Overwrites (identical) content on retries.
    fn store(&self, pid: PageId, data: Bytes) -> Result<()>;

    /// Fetch a whole page.
    fn fetch(&self, pid: PageId) -> Result<Bytes>;

    /// Fetch `len` bytes starting at `offset` within the page (paper
    /// §3.2: "the client may request only a part of the page").
    fn fetch_range(&self, pid: PageId, offset: u64, len: u64) -> Result<Bytes> {
        let page = self.fetch(pid)?;
        let off = offset as usize;
        let end = off + len as usize;
        if end > page.len() {
            return Err(BlobError::Storage(format!(
                "range [{offset}, {end}) exceeds page of {} bytes",
                page.len()
            )));
        }
        Ok(page.slice(off..end))
    }

    /// `true` if the page is stored here.
    fn contains(&self, pid: PageId) -> bool;

    /// Delete a page; returns the payload bytes freed, or `None` when
    /// the page was not stored here. (The garbage-collection hook.)
    fn delete(&self, pid: PageId) -> Result<Option<u64>>;

    /// Enumerate every stored page as `(pid, payload bytes)` pairs —
    /// the provider-side half of the orphan scrubber's sweep. The
    /// snapshot is **weakly consistent** under concurrency: pages
    /// stored or deleted while the scan runs may or may not appear,
    /// which is sufficient for mark-and-sweep (the scrubber's epoch cut
    /// exempts everything stored after its mark began, and deleting an
    /// already-deleted page is a no-op). A store that cannot enumerate
    /// at all (unreadable backing directory) must **error**, not
    /// return an empty list — "nothing stored" and "nothing visible"
    /// are different answers, and the scrubber reports them
    /// differently (clean sweep vs. skipped provider).
    fn scan(&self) -> Result<Vec<(PageId, u64)>>;

    /// Number of pages stored.
    fn page_count(&self) -> usize;

    /// Total payload bytes stored — the measure behind the paper's
    /// storage-efficiency claim (§4.3).
    fn stored_bytes(&self) -> u64;
}

const MEM_SHARDS: usize = 16;

/// Sharded in-memory page store.
pub struct MemoryPageStore {
    shards: Vec<RwLock<HashMap<PageId, Bytes>>>,
    bytes: AtomicU64,
}

impl MemoryPageStore {
    /// Empty store.
    pub fn new() -> Self {
        MemoryPageStore {
            shards: (0..MEM_SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            bytes: AtomicU64::new(0),
        }
    }

    #[inline]
    fn shard(&self, pid: PageId) -> &RwLock<HashMap<PageId, Bytes>> {
        // Low bits of the sequence part spread consecutive pages.
        &self.shards[(pid.raw() as usize) % MEM_SHARDS]
    }
}

impl Default for MemoryPageStore {
    fn default() -> Self {
        Self::new()
    }
}

impl PageStore for MemoryPageStore {
    fn store(&self, pid: PageId, data: Bytes) -> Result<()> {
        let mut shard = self.shard(pid).write();
        let added = data.len() as u64;
        if let Some(old) = shard.insert(pid, data) {
            self.bytes.fetch_sub(old.len() as u64, Ordering::Relaxed);
        }
        self.bytes.fetch_add(added, Ordering::Relaxed);
        Ok(())
    }

    fn fetch(&self, pid: PageId) -> Result<Bytes> {
        self.shard(pid)
            .read()
            .get(&pid)
            .cloned()
            .ok_or(BlobError::Storage(format!("{pid:?} not stored")))
    }

    fn contains(&self, pid: PageId) -> bool {
        self.shard(pid).read().contains_key(&pid)
    }

    fn delete(&self, pid: PageId) -> Result<Option<u64>> {
        let mut shard = self.shard(pid).write();
        if let Some(old) = shard.remove(&pid) {
            self.bytes.fetch_sub(old.len() as u64, Ordering::Relaxed);
            Ok(Some(old.len() as u64))
        } else {
            Ok(None)
        }
    }

    fn scan(&self) -> Result<Vec<(PageId, u64)>> {
        // Shard by shard under the shared guard: writers to other
        // shards proceed; the per-shard view is a consistent snapshot.
        let mut out = Vec::with_capacity(self.page_count());
        for shard in &self.shards {
            out.extend(shard.read().iter().map(|(&pid, data)| (pid, data.len() as u64)));
        }
        Ok(out)
    }

    fn page_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    fn stored_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// File-backed page store: one file per page under a directory.
///
/// Models a commodity provider persisting pages to local disk. Used by
/// the durability-oriented tests and available to library users; the
/// benches use [`MemoryPageStore`] to keep the measured path CPU-bound.
pub struct FilePageStore {
    dir: PathBuf,
    pages: AtomicU64,
    bytes: AtomicU64,
}

impl FilePageStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let store = FilePageStore { dir, pages: AtomicU64::new(0), bytes: AtomicU64::new(0) };
        // Recover counters from a pre-existing directory, counting the
        // same page files `scan` reports.
        for (_, len) in store.scan()? {
            store.pages.fetch_add(1, Ordering::Relaxed);
            store.bytes.fetch_add(len, Ordering::Relaxed);
        }
        Ok(store)
    }

    fn path_of(&self, pid: PageId) -> PathBuf {
        self.dir.join(format!("{:032x}.page", pid.raw()))
    }

    /// Inverse of [`FilePageStore::path_of`]: the pid encoded in a page
    /// file name, or `None` for foreign files in the directory.
    fn pid_of(name: &str) -> Option<PageId> {
        let hex = name.strip_suffix(".page")?;
        if hex.len() != 32 {
            return None;
        }
        u128::from_str_radix(hex, 16).ok().map(PageId)
    }
}

impl PageStore for FilePageStore {
    fn store(&self, pid: PageId, data: Bytes) -> Result<()> {
        let path = self.path_of(pid);
        let existed = path.exists();
        let old_len = if existed { fs::metadata(&path)?.len() } else { 0 };
        fs::write(&path, &data)?;
        if existed {
            self.bytes.fetch_sub(old_len, Ordering::Relaxed);
        } else {
            self.pages.fetch_add(1, Ordering::Relaxed);
        }
        self.bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn fetch(&self, pid: PageId) -> Result<Bytes> {
        match fs::read(self.path_of(pid)) {
            Ok(data) => Ok(Bytes::from(data)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(BlobError::Storage(format!("{pid:?} not stored")))
            }
            Err(e) => Err(e.into()),
        }
    }

    fn fetch_range(&self, pid: PageId, offset: u64, len: u64) -> Result<Bytes> {
        let mut f = match fs::File::open(self.path_of(pid)) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(BlobError::Storage(format!("{pid:?} not stored")))
            }
            Err(e) => return Err(e.into()),
        };
        f.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len as usize];
        f.read_exact(&mut buf).map_err(|e| {
            BlobError::Storage(format!("short read of {pid:?} at {offset}+{len}: {e}"))
        })?;
        Ok(Bytes::from(buf))
    }

    fn contains(&self, pid: PageId) -> bool {
        self.path_of(pid).exists()
    }

    fn delete(&self, pid: PageId) -> Result<Option<u64>> {
        let path = self.path_of(pid);
        match fs::metadata(&path) {
            Ok(meta) => {
                fs::remove_file(&path)?;
                self.pages.fetch_sub(1, Ordering::Relaxed);
                self.bytes.fetch_sub(meta.len(), Ordering::Relaxed);
                Ok(Some(meta.len()))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn scan(&self) -> Result<Vec<(PageId, u64)>> {
        // Directory listing. Foreign files — and files racing a
        // concurrent delete, whose metadata vanishes mid-walk — are
        // skipped (weak consistency is all sweep needs), but an
        // unreadable directory is a hard error: an empty answer would
        // make the scrubber report a clean sweep over pages it never
        // saw.
        let mut out = Vec::with_capacity(self.page_count());
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let Some(pid) = entry.file_name().to_str().and_then(Self::pid_of) else {
                continue;
            };
            if let Ok(meta) = entry.metadata() {
                if meta.is_file() {
                    out.push((pid, meta.len()));
                }
            }
        }
        Ok(out)
    }

    fn page_count(&self) -> usize {
        self.pages.load(Ordering::Relaxed) as usize
    }

    fn stored_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u128) -> PageId {
        PageId(n)
    }

    fn exercise_store(store: &dyn PageStore) {
        assert_eq!(store.page_count(), 0);
        store.store(pid(1), Bytes::from_static(b"hello world!")).unwrap();
        store.store(pid(2), Bytes::from_static(b"abcd")).unwrap();
        assert_eq!(store.page_count(), 2);
        assert_eq!(store.stored_bytes(), 16);
        assert_eq!(store.fetch(pid(1)).unwrap(), Bytes::from_static(b"hello world!"));
        let mut scanned = store.scan().unwrap();
        scanned.sort_unstable();
        assert_eq!(scanned, vec![(pid(1), 12), (pid(2), 4)]);
        assert_eq!(store.fetch_range(pid(1), 6, 5).unwrap(), Bytes::from_static(b"world"));
        assert!(store.contains(pid(2)));
        assert!(!store.contains(pid(3)));
        assert!(store.fetch(pid(3)).is_err());
        assert!(store.fetch_range(pid(2), 2, 10).is_err(), "over-long range");
        // Overwrite adjusts byte accounting.
        store.store(pid(2), Bytes::from_static(b"xy")).unwrap();
        assert_eq!(store.stored_bytes(), 14);
        assert_eq!(store.page_count(), 2);
        // Delete.
        assert_eq!(store.delete(pid(2)).unwrap(), Some(2));
        assert_eq!(store.delete(pid(2)).unwrap(), None);
        assert_eq!(store.page_count(), 1);
        assert_eq!(store.stored_bytes(), 12);
        assert_eq!(store.scan().unwrap(), vec![(pid(1), 12)]);
    }

    #[test]
    fn memory_store_contract() {
        exercise_store(&MemoryPageStore::new());
    }

    #[test]
    fn file_store_contract() {
        let dir = std::env::temp_dir().join(format!("blobseer-fps-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        exercise_store(&FilePageStore::open(&dir).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_store_recovers_counters() {
        let dir = std::env::temp_dir().join(format!("blobseer-fps-rec-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let s = FilePageStore::open(&dir).unwrap();
            s.store(pid(9), Bytes::from_static(b"persist")).unwrap();
        }
        let s2 = FilePageStore::open(&dir).unwrap();
        assert_eq!(s2.page_count(), 1);
        assert_eq!(s2.stored_bytes(), 7);
        assert_eq!(s2.fetch(pid(9)).unwrap(), Bytes::from_static(b"persist"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_store_reopen_ignores_foreign_files() {
        let dir = std::env::temp_dir().join(format!("blobseer-fps-foreign-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let s = FilePageStore::open(&dir).unwrap();
            s.store(pid(1), Bytes::from_static(b"page one")).unwrap();
            s.store(pid(2), Bytes::from_static(b"two")).unwrap();
        }
        fs::write(dir.join("notes.txt"), b"not a page at all").unwrap();
        let s = FilePageStore::open(&dir).unwrap();
        assert_eq!(s.page_count(), s.scan().unwrap().len());
        assert_eq!(s.page_count(), 2);
        assert_eq!(s.stored_bytes(), 11, "page bytes only");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_store_concurrent_writers() {
        let store = std::sync::Arc::new(MemoryPageStore::new());
        let mut handles = Vec::new();
        for t in 0..8u128 {
            let s = std::sync::Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u128 {
                    let id = pid(t * 1000 + i);
                    s.store(id, Bytes::from(vec![t as u8; 64])).unwrap();
                    assert_eq!(s.fetch(id).unwrap().len(), 64);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.page_count(), 4000);
        assert_eq!(store.stored_bytes(), 4000 * 64);
    }
}

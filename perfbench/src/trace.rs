//! Tracing for the traced run only: a counting global allocator, a
//! timing [`PageStore`] and in-memory spans.
//!
//! Nothing here changes the engine. The untraced run leaves allocation
//! counting and span recording switched off and builds its deployments
//! with the engine's own stores; the traced run switches them on and
//! wraps each data provider's [`MemoryPageStore`] in a [`TimingStore`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Instant;

use blobseer::{Bytes, MemoryPageStore, PageId, PageStore, Result};

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Allocations counted so far.
pub fn alloc_count() -> u64 {
    ALLOCS.load(Relaxed)
}

/// The system allocator, counting allocations while tracing is on.
pub struct CountingAlloc;

#[inline]
fn count_alloc() {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches
// only atomics and a const-initialised thread-local, which never
// allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Span names, in [`NAMES`] order. The prefix before the dot is the
/// layer (crate) name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    CoreAppend,
    CoreRead,
    CoreReadScatter,
    ProviderStore,
    ProviderFetch,
    ProviderFetchRange,
    VersionLatest,
}

const NAMES: [Name; 7] = [
    Name::CoreAppend,
    Name::CoreRead,
    Name::CoreReadScatter,
    Name::ProviderStore,
    Name::ProviderFetch,
    Name::ProviderFetchRange,
    Name::VersionLatest,
];

impl Name {
    /// `layer.operation`.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::CoreAppend => "core.append",
            Name::CoreRead => "core.read",
            Name::CoreReadScatter => "core.read_scatter",
            Name::ProviderStore => "provider.store",
            Name::ProviderFetch => "provider.fetch",
            Name::ProviderFetchRange => "provider.fetch_range",
            Name::VersionLatest => "version.latest",
        }
    }

    /// The layer the span belongs to.
    pub fn layer(self) -> &'static str {
        self.as_str().split('.').next().expect("names have a layer")
    }
}

/// Spans kept per run; later spans are counted as dropped.
const SPAN_CAPACITY: usize = 1 << 19;
/// Slot layout: parent + 1 (0 = none), name, start, end, thread.
const FIELDS: usize = 5;

struct SpanLog {
    epoch: Instant,
    slots: Box<[[AtomicU64; FIELDS]]>,
    next: AtomicUsize,
    dropped: AtomicU64,
}

static TRACING: AtomicBool = AtomicBool::new(false);
static LOG: OnceLock<SpanLog> = OnceLock::new();
static THREADS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    static THREAD: Cell<u64> = const { Cell::new(u64::MAX) };
}

fn log() -> &'static SpanLog {
    LOG.get_or_init(|| SpanLog {
        epoch: Instant::now(),
        slots: (0..SPAN_CAPACITY).map(|_| std::array::from_fn(|_| AtomicU64::new(0))).collect(),
        next: AtomicUsize::new(0),
        dropped: AtomicU64::new(0),
    })
}

/// Switch allocation counting and span recording on or off.
pub fn set_enabled(on: bool) {
    if on {
        log();
    }
    TRACING.store(on, Relaxed);
    COUNTING.store(on, Relaxed);
}

/// An open span; records its end and restores the parent when dropped.
pub struct Span {
    slot: usize,
    parent: u64,
}

/// Open a span on the calling thread, or `None` while tracing is off.
/// Its parent is the innermost span open on this thread, if any.
pub fn span(name: Name) -> Option<Span> {
    if !TRACING.load(Relaxed) {
        return None;
    }
    let log = log();
    let slot = log.next.fetch_add(1, Relaxed);
    if slot >= SPAN_CAPACITY {
        log.dropped.fetch_add(1, Relaxed);
        return None;
    }
    let parent = CURRENT.with(|c| c.replace(slot as u64 + 1));
    let thread = THREAD.with(|t| {
        if t.get() == u64::MAX {
            t.set(THREADS.fetch_add(1, Relaxed));
        }
        t.get()
    });
    let s = &log.slots[slot];
    s[0].store(parent, Relaxed);
    s[1].store(name as u64, Relaxed);
    s[2].store(log.epoch.elapsed().as_nanos() as u64, Relaxed);
    s[4].store(thread, Relaxed);
    Some(Span { slot, parent })
}

impl Drop for Span {
    fn drop(&mut self) {
        let log = log();
        log.slots[self.slot][3].store(log.epoch.elapsed().as_nanos() as u64, Relaxed);
        CURRENT.with(|c| c.set(self.parent));
    }
}

/// One finished span; `parent` is 0 when unknown (engine pool threads).
#[derive(Clone, Copy, Debug)]
pub struct SpanRec {
    pub parent: u64,
    pub name: Name,
    pub start: u64,
    pub end: u64,
    pub thread: u64,
}

/// Every recorded span (id = index + 1) and how many were dropped.
/// Call only after the traced phase's threads have been joined.
pub fn spans() -> (Vec<SpanRec>, u64) {
    let Some(log) = LOG.get() else { return (Vec::new(), 0) };
    let n = log.next.load(Relaxed).min(SPAN_CAPACITY);
    let recs = log.slots[..n]
        .iter()
        .map(|s| SpanRec {
            parent: s[0].load(Relaxed),
            name: NAMES[s[1].load(Relaxed) as usize],
            start: s[2].load(Relaxed),
            end: s[3].load(Relaxed).max(s[2].load(Relaxed)),
            thread: s[4].load(Relaxed),
        })
        .collect();
    (recs, log.dropped.load(Relaxed))
}

/// Per-name span totals and self times.
#[derive(Debug, Default)]
pub struct SpanReport {
    /// `(name, count, total ns, self ns)` per span name that occurred.
    /// A span's self time is its duration minus the part of it that its
    /// child spans cover.
    pub by_name: Vec<(Name, u64, u64, u64)>,
    /// Durations of `version.latest` spans, ns.
    pub latest_ns: Vec<u64>,
}

impl SpanReport {
    /// Summed self time of the spans named `names`, ns.
    pub fn self_ns(&self, names: &[Name]) -> u64 {
        self.by_name.iter().filter(|e| names.contains(&e.0)).map(|e| e.3).sum()
    }

    /// Summed span time per layer, in first-seen order.
    pub fn by_layer(&self) -> Vec<(&'static str, u64, u64)> {
        let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
        for e in &self.by_name {
            match out.iter_mut().find(|l| l.0 == e.0.layer()) {
                Some(l) => {
                    l.1 += e.1;
                    l.2 += e.2;
                }
                None => out.push((e.0.layer(), e.1, e.2)),
            }
        }
        out
    }
}

/// Summarise spans per name. Spans recorded on the engine's pool
/// threads have no known parent, so they count only in their own name's
/// total.
pub fn report(recs: &[SpanRec]) -> SpanReport {
    let mut child_ns = vec![0u64; recs.len()];
    for r in recs.iter().filter(|r| r.parent > 0) {
        // Children run on the parent's thread, one after another, so
        // their clipped durations do not overlap.
        let p = &recs[r.parent as usize - 1];
        child_ns[r.parent as usize - 1] += r.end.min(p.end).saturating_sub(r.start.max(p.start));
    }
    let mut by_name: Vec<(Name, u64, u64, u64)> = NAMES.iter().map(|&n| (n, 0, 0, 0)).collect();
    let mut latest_ns = Vec::new();
    for (r, c) in recs.iter().zip(&child_ns) {
        let dur = r.end - r.start;
        let e = &mut by_name[r.name as usize];
        e.1 += 1;
        e.2 += dur;
        e.3 += dur.saturating_sub(*c);
        if r.name == Name::VersionLatest {
            latest_ns.push(dur);
        }
    }
    by_name.retain(|e| e.1 > 0);
    SpanReport { by_name, latest_ns }
}

/// Write spans as tab-separated lines: id, parent, name, start, end,
/// thread (times in ns since the first span).
pub fn write_spans(path: &std::path::Path, recs: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\tthread")?;
    for (i, r) in recs.iter().enumerate() {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            i + 1,
            r.parent,
            r.name.as_str(),
            r.start,
            r.end,
            r.thread
        )?;
    }
    out.flush()
}

// ---------------------------------------------------------------------------
// Timing page store
// ---------------------------------------------------------------------------

static STORE_CALLS: AtomicU64 = AtomicU64::new(0);
static STORE_NS: AtomicU64 = AtomicU64::new(0);
static FETCH_CALLS: AtomicU64 = AtomicU64::new(0);
static FETCH_NS: AtomicU64 = AtomicU64::new(0);
static FETCH_BYTES: AtomicU64 = AtomicU64::new(0);

/// Totals over every [`TimingStore`] of the process.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreTotals {
    pub store_calls: u64,
    pub store_ns: u64,
    pub fetch_calls: u64,
    pub fetch_ns: u64,
    pub fetch_bytes: u64,
}

impl StoreTotals {
    fn zip(&self, o: &StoreTotals, f: fn(u64, u64) -> u64) -> StoreTotals {
        StoreTotals {
            store_calls: f(self.store_calls, o.store_calls),
            store_ns: f(self.store_ns, o.store_ns),
            fetch_calls: f(self.fetch_calls, o.fetch_calls),
            fetch_ns: f(self.fetch_ns, o.fetch_ns),
            fetch_bytes: f(self.fetch_bytes, o.fetch_bytes),
        }
    }

    /// `self - o`, field by field.
    pub fn minus(&self, o: &StoreTotals) -> StoreTotals {
        self.zip(o, |a, b| a - b)
    }

    /// `self + o`, field by field.
    pub fn plus(&self, o: &StoreTotals) -> StoreTotals {
        self.zip(o, |a, b| a + b)
    }
}

/// Current [`StoreTotals`].
pub fn store_totals() -> StoreTotals {
    StoreTotals {
        store_calls: STORE_CALLS.load(Relaxed),
        store_ns: STORE_NS.load(Relaxed),
        fetch_calls: FETCH_CALLS.load(Relaxed),
        fetch_ns: FETCH_NS.load(Relaxed),
        fetch_bytes: FETCH_BYTES.load(Relaxed),
    }
}

/// A [`MemoryPageStore`] that times every `store`, `fetch` and
/// `fetch_range` call and records a `provider.*` span around it.
#[derive(Default)]
pub struct TimingStore {
    inner: MemoryPageStore,
}

fn timed<T>(name: Name, calls: &AtomicU64, ns: &AtomicU64, f: impl FnOnce() -> T) -> T {
    let _span = span(name);
    let t0 = Instant::now();
    let out = f();
    ns.fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
    calls.fetch_add(1, Relaxed);
    out
}

impl PageStore for TimingStore {
    fn store(&self, pid: PageId, data: Bytes) -> Result<()> {
        timed(Name::ProviderStore, &STORE_CALLS, &STORE_NS, || self.inner.store(pid, data))
    }

    fn fetch(&self, pid: PageId) -> Result<Bytes> {
        let out = timed(Name::ProviderFetch, &FETCH_CALLS, &FETCH_NS, || self.inner.fetch(pid));
        FETCH_BYTES.fetch_add(out.as_ref().map_or(0, |b| b.len() as u64), Relaxed);
        out
    }

    fn fetch_range(&self, pid: PageId, offset: u64, len: u64) -> Result<Bytes> {
        let out = timed(Name::ProviderFetchRange, &FETCH_CALLS, &FETCH_NS, || {
            self.inner.fetch_range(pid, offset, len)
        });
        FETCH_BYTES.fetch_add(out.as_ref().map_or(0, |b| b.len() as u64), Relaxed);
        out
    }

    fn contains(&self, pid: PageId) -> bool {
        self.inner.contains(pid)
    }

    fn delete(&self, pid: PageId) -> Result<Option<u64>> {
        self.inner.delete(pid)
    }

    fn scan(&self) -> Result<Vec<(PageId, u64)>> {
        self.inner.scan()
    }

    fn page_count(&self) -> usize {
        self.inner.page_count()
    }

    fn stored_bytes(&self) -> u64 {
        self.inner.stored_bytes()
    }
}

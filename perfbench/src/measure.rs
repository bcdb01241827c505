//! Client-side measurement: per-operation samples, percentiles,
//! windowed rates, engine counters and host calibration.

use std::time::{Duration, Instant};

use blobseer::{BlobSeer, StoreStats};

use crate::trace;

/// Samples of one client thread in one round: each operation's latency
/// and the moment it completed, in nanoseconds (completion relative to
/// the round's timed-section start).
#[derive(Default)]
pub struct Samples {
    pub lat_ns: Vec<u64>,
    pub end_ns: Vec<u64>,
}

impl Samples {
    /// Record one operation that ran from `t0` to `t1`.
    pub fn record(&mut self, phase: Instant, t0: Instant, t1: Instant) {
        self.lat_ns.push((t1 - t0).as_nanos() as u64);
        self.end_ns.push((t1 - phase).as_nanos() as u64);
    }

    /// Append another thread's samples.
    pub fn merge(&mut self, other: Samples) {
        self.lat_ns.extend(other.lat_ns);
        self.end_ns.extend(other.end_ns);
    }
}

/// Nearest-rank percentile `q` (0..=1) of unsorted samples; 0 if empty.
pub fn percentile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Samples per group of [`grouped_p99`]: at least ten lie beyond its p99.
const P99_GROUP: usize = 1000;

/// p99 that a burst of host interference in a few rounds cannot move:
/// consecutive rounds are pooled into groups of at least [`P99_GROUP`]
/// samples (a short tail joins the last group), and the result is the
/// median of the groups' p99s. With fewer samples than two groups it is
/// the plain p99 of all of them.
pub fn grouped_p99(rounds: &[Vec<u64>]) -> u64 {
    let mut groups: Vec<Vec<u64>> = vec![Vec::new()];
    for r in rounds {
        if groups.last().expect("non-empty").len() >= P99_GROUP {
            groups.push(Vec::new());
        }
        groups.last_mut().expect("non-empty").extend_from_slice(r);
    }
    if groups.len() > 1 && groups.last().expect("non-empty").len() < P99_GROUP {
        let tail = groups.pop().expect("non-empty");
        groups.last_mut().expect("non-empty").extend(tail);
    }
    let p99s: Vec<f64> = groups.iter().map(|g| percentile(g, 0.99) as f64).collect();
    median(&p99s) as u64
}

/// Median of `values`; 0 if empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Completions per second in each full window of `window` after the
/// phase start, up to `span` (a trailing partial window is dropped).
pub fn window_rates(end_ns: &[u64], span: Duration, window: Duration) -> Vec<f64> {
    let w = window.as_nanos().max(1) as u64;
    let n = (span.as_nanos() as u64 / w).max(1) as usize;
    let mut counts = vec![0u64; n];
    for &e in end_ns {
        if let Some(c) = counts.get_mut((e / w) as usize) {
            *c += 1;
        }
    }
    counts.iter().map(|&c| c as f64 / window.as_secs_f64()).collect()
}

/// The guest kernel's CPU-time counters (first line of `/proc/stat`, in
/// clock ticks, all CPUs): time the hypervisor gave to other virtual
/// machines while a CPU of this one wanted to run ("steal"), and the sum
/// of all states. Zero where `/proc` is unavailable.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

/// Read the guest's CPU-time counters now.
pub fn cpu_ticks() -> CpuTicks {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> =
        stat.lines().next().and_then(|l| l.strip_prefix("cpu ")).map_or_else(Vec::new, |l| {
            l.split_whitespace().filter_map(|x| x.parse().ok()).collect()
        });
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    if fields.len() < 8 {
        return CpuTicks::default();
    }
    CpuTicks { steal: fields[7], total: fields[..8].iter().sum() }
}

/// Largest steal share a rate is corrected for; beyond it the guest ran
/// too little for the correction to mean anything.
const MAX_STEAL_SHARE: f64 = 0.5;
/// Fewest CPU ticks (0.1 s on two CPUs at 100 Hz) an interval must span
/// for its steal share to be measured; shorter intervals read 0.
const MIN_TICKS: u64 = 20;

impl CpuTicks {
    /// Share of all CPUs' time from `self` to the later `end` that was
    /// stolen, capped at [`MAX_STEAL_SHARE`]; 0 without counters or for
    /// an interval shorter than [`MIN_TICKS`].
    pub fn steal_share(&self, end: &CpuTicks) -> f64 {
        let total = end.total.saturating_sub(self.total);
        if total < MIN_TICKS {
            return 0.0;
        }
        (end.steal.saturating_sub(self.steal) as f64 / total as f64).min(MAX_STEAL_SHARE)
    }
}

/// `rate`, measured over a wall-clock interval of which `steal_share` of
/// the CPU time was stolen, per second of CPU time the guest was given:
/// the rate of a CPU-bound phase with the neighbours' share taken out.
pub fn guest_rate(rate: f64, steal_share: f64) -> f64 {
    rate / (1.0 - steal_share)
}

/// Seconds of CPU time the guest was given since `t` and `ticks` were
/// taken together: the wall-clock time with the stolen share taken out.
pub fn guest_secs_since(t: Instant, ticks: &CpuTicks) -> f64 {
    let wall = t.elapsed().as_secs_f64();
    wall * (1.0 - ticks.steal_share(&cpu_ticks()))
}

/// Engine and benchmark counters at one instant.
pub struct Counters {
    stats: StoreStats,
    allocs: u64,
    store: trace::StoreTotals,
}

/// Capture the counters of `store` and of the benchmark's tracing.
pub fn counters(store: &BlobSeer) -> Counters {
    Counters { stats: store.stats(), allocs: trace::alloc_count(), store: trace::store_totals() }
}

/// What one phase did, as the difference of two [`Counters`]; phases of
/// several deployments add up.
#[derive(Clone, Debug, Default)]
pub struct Delta {
    pub dht_gets: u64,
    pub dht_puts: u64,
    pub dht_waits: u64,
    pub io_jobs: u64,
    pub meta_nodes: u64,
    pub prov_reads: u64,
    pub prov_writes: u64,
    pub prov_bytes_written: u64,
    pub lockfree_reads: u64,
    pub writes_per_provider: Vec<u64>,
    pub allocs: u64,
    pub store: trace::StoreTotals,
}

impl Delta {
    /// The work done between `a` and `b` (same deployment).
    pub fn between(a: &Counters, b: &Counters) -> Delta {
        let (sa, sb) = (&a.stats, &b.stats);
        let sum = |s: &StoreStats, f: fn(&blobseer::ProviderStats) -> u64| {
            s.providers.iter().map(f).sum::<u64>()
        };
        Delta {
            dht_gets: sb.metadata.total_gets - sa.metadata.total_gets,
            dht_puts: sb.metadata.total_puts - sa.metadata.total_puts,
            dht_waits: sb.metadata.total_waits - sa.metadata.total_waits,
            io_jobs: sb.io_jobs_dispatched - sa.io_jobs_dispatched,
            meta_nodes: (sb.metadata_nodes - sa.metadata_nodes) as u64,
            prov_reads: sum(sb, |p| p.reads) - sum(sa, |p| p.reads),
            prov_writes: sum(sb, |p| p.writes) - sum(sa, |p| p.writes),
            prov_bytes_written: sum(sb, |p| p.bytes_written) - sum(sa, |p| p.bytes_written),
            lockfree_reads: sb.vm.lockfree_reads - sa.vm.lockfree_reads,
            writes_per_provider: sb
                .providers
                .iter()
                .zip(&sa.providers)
                .map(|(pb, pa)| pb.writes - pa.writes)
                .collect(),
            allocs: b.allocs - a.allocs,
            store: b.store.minus(&a.store),
        }
    }

    /// Accumulate another phase.
    pub fn add(&mut self, o: &Delta) {
        self.dht_gets += o.dht_gets;
        self.dht_puts += o.dht_puts;
        self.dht_waits += o.dht_waits;
        self.io_jobs += o.io_jobs;
        self.meta_nodes += o.meta_nodes;
        self.prov_reads += o.prov_reads;
        self.prov_writes += o.prov_writes;
        self.prov_bytes_written += o.prov_bytes_written;
        self.lockfree_reads += o.lockfree_reads;
        if self.writes_per_provider.len() < o.writes_per_provider.len() {
            self.writes_per_provider.resize(o.writes_per_provider.len(), 0);
        }
        for (s, x) in self.writes_per_provider.iter_mut().zip(&o.writes_per_provider) {
            *s += x;
        }
        self.allocs += o.allocs;
        self.store = self.store.plus(&o.store);
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host calibration taken with every result, so a host change can be
/// told apart from a regression. Never divided into other metrics.
#[derive(Clone, Copy, Debug)]
pub struct Host {
    pub cpus: usize,
    pub memcpy_mb_per_s: f64,
    pub page_checksum_mb_per_s: f64,
}

/// Rate in MB/s (10^6 bytes) of repeating `op` over 64 KiB for about
/// `budget`.
fn rate_64k(budget: Duration, mut op: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut n = 0u64;
    while t0.elapsed() < budget {
        for _ in 0..16 {
            op();
        }
        n += 16;
    }
    (n * 65536) as f64 / t0.elapsed().as_secs_f64() / 1e6
}

/// Measure the host: CPUs, 64 KiB memcpy rate and the engine's page
/// checksum rate on a 64 KiB page.
pub fn calibrate() -> Host {
    let src: Vec<u8> = (0..65536u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
    let mut dst = vec![0u8; 65536];
    let memcpy_mb_per_s = rate_64k(Duration::from_millis(60), || {
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
    });
    let page_checksum_mb_per_s = rate_64k(Duration::from_millis(120), || {
        std::hint::black_box(blobseer_types::page_checksum(std::hint::black_box(&src)));
    });
    Host {
        cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        memcpy_mb_per_s,
        page_checksum_mb_per_s,
    }
}

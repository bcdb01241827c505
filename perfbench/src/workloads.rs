//! The two closed-loop workloads.
//!
//! Each builds its deployments with the shipping `BlobSeer::builder()`
//! defaults plus only the settings it names, generates its payloads
//! before its timed section, and verifies every byte it reads back.
//!
//! A run is a sequence of rounds. Each round builds a fresh deployment,
//! sets it up, and runs a slice of the timed section on it, so set-up
//! time is sampled across the run, a burst of host interference touches
//! only some rounds, and memory stays bounded.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use blobseer::{
    Blob, BlobSeer, Builder, ByteRange, Bytes, PageStore, QosConfig, StoreConfig, TenantId,
    TenantQuota, Version,
};

use crate::measure::{
    counters, cpu_ticks, grouped_p99, guest_rate, guest_secs_since, median, percentile,
    window_rates, Delta, Samples,
};
use crate::payload::{check_block, generate, Rng, Tag, BLOCK};
use crate::trace::{span, Name, TimingStore};

const MIB: usize = 1 << 20;
/// Timed seconds per round of `pinned_read_4k`.
const ROUND_SECONDS: f64 = 2.0;
/// Throughput windows per round of `pinned_read_4k`.
const WINDOWS_PER_ROUND: u32 = 10;

/// How one workload run is set up.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seed: u64,
    /// Length of the timed section, summed over rounds.
    pub seconds: f64,
    /// Back each data provider with a [`TimingStore`].
    pub traced: bool,
}

/// One kind of operation (updates or reads) as the clients saw it, plus
/// the engine counters of the phases it ran in.
#[derive(Default)]
pub struct Side {
    /// Latencies per round, ns.
    pub rounds: Vec<Vec<u64>>,
    /// Throughput per window or round: MB/s for updates, ops/s for reads,
    /// per second of CPU time the guest was given.
    pub rates: Vec<f64>,
    /// The same throughputs per wall-clock second.
    pub wall_rates: Vec<f64>,
    /// Steal share of each timed phase.
    pub steal: Vec<f64>,
    pub ops: u64,
    /// User bytes written or read.
    pub bytes: u64,
    pub delta: Delta,
    /// The engine's own `stats_snapshot()` p50 per round, ns.
    pub engine_p50s: Vec<f64>,
}

impl Side {
    /// Add one round's samples and wall-clock rates. The phase, a
    /// CPU-bound closed loop, lost `steal` of its CPU time to other
    /// machines; the reported rates take it out.
    fn add_round(
        &mut self,
        samples: Samples,
        op_bytes: u64,
        rates: impl IntoIterator<Item = f64>,
        steal: f64,
    ) {
        self.ops += samples.lat_ns.len() as u64;
        self.bytes += samples.lat_ns.len() as u64 * op_bytes;
        self.rounds.push(samples.lat_ns);
        for r in rates {
            self.wall_rates.push(r);
            self.rates.push(guest_rate(r, steal));
        }
        self.steal.push(steal);
    }

    /// Median throughput over windows or rounds.
    pub fn rate(&self) -> f64 {
        median(&self.rates)
    }

    /// Median wall-clock throughput over windows or rounds.
    pub fn wall_rate(&self) -> f64 {
        median(&self.wall_rates)
    }

    pub fn p50_ns(&self) -> u64 {
        percentile(&self.rounds.concat(), 0.50)
    }

    pub fn p99_ns(&self) -> u64 {
        grouped_p99(&self.rounds)
    }

    pub fn engine_p50_ns(&self) -> u64 {
        median(&self.engine_p50s) as u64
    }
}

/// Engine-side readings of one round's deployment.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineView {
    pub prepare_p50_ns: u64,
    pub dht_wait_p99_ns: u64,
    pub dht_get_skew: f64,
    pub vm_aborted: u64,
    pub corrupt: u64,
    /// `(admitted, throttled, wait p99 ns)` of the writer's tenant.
    pub qos: Option<(u64, u64, u64)>,
}

impl EngineView {
    fn read(store: &BlobSeer, tenant: Option<TenantId>) -> EngineView {
        let (stats, snap) = (store.stats(), store.stats_snapshot());
        EngineView {
            prepare_p50_ns: snap.write_prepare.p50_ns,
            dht_wait_p99_ns: snap.dht_get_wait.p99_ns,
            dht_get_skew: stats.metadata.get_skew(),
            vm_aborted: stats.vm.aborted,
            corrupt: stats.providers.iter().map(|p| p.corrupt_detected).sum::<u64>()
                + snap.corrupt_pages_detected,
            qos: tenant.map(|t| {
                let q = store.tenant_qos_stats(t).expect("QoS is enabled for this workload");
                (q.admitted, q.throttled, q.wait.p99_ns)
            }),
        }
    }
}

/// Everything one workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub update: Side,
    pub read: Side,
    /// `Blob::latest()` calls made in the timed sections.
    pub latest_calls: u64,
    /// Footprint of the last round's deployment.
    pub physical_bytes: u64,
    pub user_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub views: Vec<EngineView>,
}

impl Outcome {
    /// The rounds' engine readings: medians of timings, sums of counts.
    pub fn engine(&self) -> EngineView {
        let med = |f: fn(&EngineView) -> f64| median(&self.views.iter().map(f).collect::<Vec<_>>());
        let qos: Vec<(u64, u64, u64)> = self.views.iter().filter_map(|v| v.qos).collect();
        EngineView {
            prepare_p50_ns: med(|v| v.prepare_p50_ns as f64) as u64,
            dht_wait_p99_ns: med(|v| v.dht_wait_p99_ns as f64) as u64,
            dht_get_skew: med(|v| v.dht_get_skew),
            vm_aborted: self.views.iter().map(|v| v.vm_aborted).sum(),
            corrupt: self.views.iter().map(|v| v.corrupt).sum(),
            qos: (!qos.is_empty()).then(|| {
                let waits: Vec<f64> = qos.iter().map(|q| q.2 as f64).collect();
                (
                    qos.iter().map(|q| q.0).sum(),
                    qos.iter().map(|q| q.1).sum(),
                    median(&waits) as u64,
                )
            }),
        }
    }

    /// Median steal share of the timed phases.
    pub fn steal_share(&self) -> f64 {
        let all: Vec<f64> = self.update.steal.iter().chain(&self.read.steal).copied().collect();
        median(&all)
    }

    /// Record the end of a round on `store`.
    fn end_round(&mut self, store: &BlobSeer, tenant: Option<TenantId>) {
        self.physical_bytes = store.stats().physical_bytes;
        self.views.push(EngineView::read(store, tenant));
    }
}

fn builder(plan: &Plan) -> Builder {
    let b = BlobSeer::builder();
    if !plan.traced {
        return b;
    }
    let n = StoreConfig::default().data_providers;
    b.page_stores((0..n).map(|_| Arc::new(TimingStore::default()) as Arc<dyn PageStore>).collect())
}

/// Rounds of about [`ROUND_SECONDS`] that fill `seconds` (at least one),
/// and the timed length of each.
fn timed_rounds(seconds: f64) -> (usize, Duration) {
    let n = ((seconds / ROUND_SECONDS).round() as usize).max(1);
    (n, Duration::from_secs_f64(seconds / n as f64))
}

/// If every block of `data` (starting at blob block `first_block`)
/// verifies, comes from one update and sits where `expect` says it
/// belongs, that update's `(client, seq)`.
fn verify(
    seed: u64,
    data: &[u8],
    first_block: u64,
    expect: impl Fn(Tag, u64) -> bool,
) -> Option<(u32, u32)> {
    let mut owner = None;
    for (i, b) in data.chunks(BLOCK).enumerate() {
        let tag = check_block(seed, b)?;
        let o = *owner.get_or_insert((tag.client, tag.seq));
        if !expect(tag, first_block + i as u64) || o != (tag.client, tag.seq) {
            return None;
        }
    }
    owner
}

/// Run `f(thread, start)` on `n` scoped threads, which call
/// `start.wait()` to begin together; results come back in thread order.
fn on_threads<T: Send>(n: usize, f: impl Fn(usize, &Barrier) -> T + Sync) -> Vec<T> {
    let (start, f) = (&Barrier::new(n), &f);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n).map(|t| s.spawn(move || f(t, start))).collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    })
}

// ---------------------------------------------------------------------------
// append_stream
// ---------------------------------------------------------------------------

const APPEND_CLIENTS: usize = 2;
/// Appends per client per round.
const APPENDS_PER_ROUND: usize = 64;

/// Payloads of the appending clients: client `c + 1` owns `per_client`
/// 1 MiB payloads, tagged with their sequence number and their block
/// index within the payload.
fn client_payloads(seed: u64, per_client: usize) -> Vec<Vec<Bytes>> {
    (1..=APPEND_CLIENTS as u32)
        .map(|c| (0..per_client as u32).map(|s| generate(seed, c, s, 0, MIB / BLOCK)).collect())
        .collect()
}

/// What a closed loop of appending clients did.
struct Appended {
    samples: Samples,
    newest: Version,
    failed: u64,
    took: Duration,
}

/// The Fig. 2(a) loop: [`APPEND_CLIENTS`] threads, released together,
/// each append its payloads to `blob` one after another.
fn append_clients(blob: &Blob, payloads: &[Vec<Bytes>]) -> Appended {
    let failed = AtomicU64::new(0);
    let phase = Instant::now();
    let parts = on_threads(APPEND_CLIENTS, |c, start| {
        let mut samples = Samples::default();
        let mut newest = Version(0);
        start.wait();
        for p in &payloads[c] {
            let t0 = Instant::now();
            let r = {
                let _s = span(Name::CoreAppend);
                blob.append_bytes(p.clone())
            };
            samples.record(phase, t0, Instant::now());
            match r {
                Ok(v) => newest = newest.max(v),
                Err(_) => _ = failed.fetch_add(1, Relaxed),
            }
        }
        (samples, newest)
    });
    let took = phase.elapsed();
    let mut out = Appended { samples: Samples::default(), newest: Version(0), failed: 0, took };
    for (s, v) in parts {
        out.samples.merge(s);
        out.newest = out.newest.max(v);
    }
    out.failed = failed.load(Relaxed);
    out
}

/// Fig. 2(a): two clients append 1 MiB payloads to one shared blob in a
/// closed loop. A round is 128 appends on a fresh deployment, followed
/// by a read-back of every appended MiB that checks each (client, seq)
/// landed exactly once; the read-back is the read side.
pub fn append_stream(plan: &Plan) -> Outcome {
    let payloads = client_payloads(plan.seed, APPENDS_PER_ROUND);
    let round_ops = (APPEND_CLIENTS * APPENDS_PER_ROUND) as u64;
    let round_bytes = round_ops * MIB as u64;
    let mut out = Outcome { user_bytes: round_bytes, ..Outcome::default() };
    let mut written = Duration::ZERO;
    while written < Duration::from_secs_f64(plan.seconds) || out.setup_s.is_empty() {
        let (t, setup) = (Instant::now(), cpu_ticks());
        let store = builder(plan).build().expect("default configuration is valid");
        let blob = store.create();
        out.setup_s.push(guest_secs_since(t, &setup));

        let before = counters(&store);
        let ticks = cpu_ticks();
        let a = append_clients(&blob, &payloads);
        let steal = ticks.steal_share(&cpu_ticks());
        written += a.took;
        let after = counters(&store);
        out.update.add_round(
            a.samples,
            MIB as u64,
            [round_bytes as f64 / a.took.as_secs_f64() / 1e6],
            steal,
        );
        out.update.delta.add(&Delta::between(&before, &after));
        out.attempted += round_ops;
        out.failed += a.failed;

        read_back(plan, &blob, a.newest, &mut out);
        out.read.delta.add(&Delta::between(&after, &counters(&store)));
        let snap = store.stats_snapshot();
        out.update.engine_p50s.push(snap.append.p50_ns as f64);
        out.read.engine_p50s.push(snap.read_scatter.p50_ns as f64);
        out.end_round(&store, None);
    }
    out
}

/// Once `newest` is published, read every 1 MiB segment of `blob` with
/// two threads, each read opening `latest()` (which must be `newest`)
/// and timed with it; verify each read's blocks, then check that each
/// appended (client, seq) appears exactly once.
fn read_back(plan: &Plan, blob: &Blob, newest: Version, out: &mut Outcome) {
    if blob.sync(newest).is_err() {
        out.attempted += 1;
        out.failed += 1;
        return;
    }
    let segments = APPEND_CLIENTS * APPENDS_PER_ROUND;
    let ticks = cpu_ticks();
    let phase = Instant::now();
    let parts = on_threads(APPEND_CLIENTS, |t, _| {
        let (mut samples, mut owners) = (Samples::default(), Vec::new());
        for k in (t..segments).step_by(APPEND_CLIENTS) {
            let t0 = Instant::now();
            let r = {
                let _s = span(Name::CoreReadScatter);
                let snap = {
                    let _v = span(Name::VersionLatest);
                    blob.latest()
                };
                snap.ok()
                    .filter(|s| s.version() == newest)
                    .and_then(|s| s.read_scatter(ByteRange::new((k * MIB) as u64, MIB as u64)).ok())
            };
            samples.record(phase, t0, Instant::now());
            owners.push(r.and_then(|sc| {
                let (mut at, mut owner) = (0u64, None);
                for seg in sc.iter() {
                    let o = verify(plan.seed, seg, at, |tag, b| tag.block == b)?;
                    if *owner.get_or_insert(o) != o {
                        return None;
                    }
                    at += (seg.len() / BLOCK) as u64;
                }
                owner.filter(|_| at == (MIB / BLOCK) as u64)
            }));
        }
        (samples, owners)
    });
    let took = phase.elapsed();
    let steal = ticks.steal_share(&cpu_ticks());
    let mut samples = Samples::default();
    let mut counts = vec![0u64; APPEND_CLIENTS * APPENDS_PER_ROUND];
    let mut failed = 0;
    for (s, owners) in parts {
        samples.merge(s);
        for owner in owners {
            match owner {
                Some((c, s))
                    if (1..=APPEND_CLIENTS as u32).contains(&c)
                        && (s as usize) < APPENDS_PER_ROUND =>
                {
                    counts[(c as usize - 1) * APPENDS_PER_ROUND + s as usize] += 1
                }
                _ => failed += 1,
            }
        }
    }
    // Each appended update must appear exactly once.
    failed += counts.iter().map(|&n| n.abs_diff(1)).sum::<u64>();
    out.attempted += segments as u64;
    out.failed += failed;
    out.latest_calls += segments as u64;
    out.read.add_round(samples, MIB as u64, [segments as f64 / took.as_secs_f64()], steal);
}

// ---------------------------------------------------------------------------
// pinned_read_4k
// ---------------------------------------------------------------------------

const PINNED_BLOB: usize = 256 * MIB;
const READ_4K: usize = 4096;
const READERS: usize = 2;
/// The tenant the `pinned_read_4k` ingest is admitted under.
const WRITER_TENANT: TenantId = TenantId(1);

/// Appends per client in the `pinned_read_4k` set-up.
const PINNED_APPENDS: usize = PINNED_BLOB / MIB / APPEND_CLIENTS;

/// Fig. 2(b)-shaped: set-up ingests a 256 MiB blob with the Fig. 2(a)
/// loop (two clients, 1 MiB appends, tagged tenant 1 with an unlimited
/// quota on a QoS-enabled deployment; the update side of this workload);
/// two readers then read 4 KiB at uniform random 4 KiB-aligned offsets
/// from one pinned snapshot. Reads are never admission-checked.
pub fn pinned_read_4k(plan: &Plan) -> Outcome {
    let payloads = client_payloads(plan.seed, PINNED_APPENDS);
    let mut out = Outcome { user_bytes: PINNED_BLOB as u64, ..Outcome::default() };
    let (rounds, slice) = timed_rounds(plan.seconds);
    for round in 0..rounds {
        let (t, setup) = (Instant::now(), cpu_ticks());
        let store = builder(plan)
            .qos(QosConfig::default().with_tenant(WRITER_TENANT.0, TenantQuota::unlimited()))
            .build()
            .expect("valid configuration");
        let blob = store.create();
        let before = counters(&store);
        let ticks = cpu_ticks();
        let a = append_clients(&blob.for_tenant(WRITER_TENANT), &payloads);
        let steal = ticks.steal_share(&cpu_ticks());
        let newest = a.newest;
        let synced = blob.sync(newest).is_ok();
        out.setup_s.push(guest_secs_since(t, &setup));
        out.attempted += (APPEND_CLIENTS * PINNED_APPENDS) as u64;
        out.failed += a.failed + u64::from(!synced);
        out.update.add_round(
            a.samples,
            MIB as u64,
            [PINNED_BLOB as f64 / a.took.as_secs_f64() / 1e6],
            steal,
        );
        out.update.delta.add(&Delta::between(&before, &counters(&store)));
        out.update.engine_p50s.push(store.stats_snapshot().append.p50_ns as f64);
        let Ok(snap) = blob.snapshot(newest) else {
            out.attempted += 1;
            out.failed += 1;
            continue;
        };

        let before = counters(&store);
        let failed = AtomicU64::new(0);
        let ticks = cpu_ticks();
        let phase = Instant::now();
        let parts = on_threads(READERS, |t, start| {
            let mut rng = Rng::new(plan.seed, (round * READERS + t) as u64);
            let mut samples = Samples::default();
            start.wait();
            loop {
                let block = rng.below((PINNED_BLOB / READ_4K) as u64);
                let t0 = Instant::now();
                let r = {
                    let _s = span(Name::CoreRead);
                    snap.read(ByteRange::new(block * READ_4K as u64, READ_4K as u64))
                };
                let t1 = Instant::now();
                samples.record(phase, t0, t1);
                // The append order is the version manager's, so a block
                // can only be checked for its place within its append.
                let ok = r.is_ok_and(|d| {
                    verify(plan.seed, &d, block, |tag, b| {
                        (1..=APPEND_CLIENTS as u32).contains(&tag.client)
                            && (tag.seq as usize) < PINNED_APPENDS
                            && tag.block == b % (MIB / BLOCK) as u64
                    })
                    .is_some()
                });
                if !ok {
                    failed.fetch_add(1, Relaxed);
                }
                if t1 - phase >= slice {
                    break samples;
                }
            }
        });
        let steal = ticks.steal_share(&cpu_ticks());
        let mut samples = Samples::default();
        parts.into_iter().for_each(|p| samples.merge(p));
        let rates = window_rates(&samples.end_ns, slice, slice / WINDOWS_PER_ROUND);
        out.attempted += samples.lat_ns.len() as u64;
        out.failed += failed.load(Relaxed);
        out.read.add_round(samples, READ_4K as u64, rates, steal);
        out.read.delta.add(&Delta::between(&before, &counters(&store)));
        out.read.engine_p50s.push(store.stats_snapshot().read.p50_ns as f64);
        out.end_round(&store, Some(WRITER_TENANT));
    }
    out
}

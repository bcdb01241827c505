//! Turning measurements into named metrics.

use crate::measure::{median, peak_rss_mb, percentile, Host};
use crate::trace::{Name, SpanReport};
use crate::workloads::Outcome;

/// One reported metric: name, value, unit and the sample count behind it.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

fn m(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric { name, value, unit, samples }
}

fn per(x: u64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        x as f64 / ops as f64
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let (u, r) = (&o.update, &o.read);
    vec![
        m("setup_s", median(&o.setup_s), "s", o.setup_s.len() as u64),
        m("update_mb_per_s", u.rate(), "MB/s", u.ops),
        m("update_p50_ms", u.p50_ns() as f64 / 1e6, "ms", u.ops),
        m("read_ops_per_s", r.rate(), "1/s", r.ops),
        m("read_p50_us", r.p50_ns() as f64 / 1e3, "us", r.ops),
        m("stored_bytes_per_user_byte", per(o.physical_bytes, o.user_bytes), "ratio", 1),
        m("peak_rss_mb", peak_rss_mb(), "MiB", 1),
    ]
}

/// Figures printed with every untraced run but not part of the
/// end-to-end set: the client-timed tails (reported among the traced
/// run's `core` metrics; on a shared virtual machine, time stolen by
/// neighbours moves them far more than any bound could absorb), the
/// throughputs per wall-clock second, and the steal share they were
/// corrected for.
pub fn extras(o: &Outcome) -> Vec<Metric> {
    let (u, r) = (&o.update, &o.read);
    vec![
        m("update_p99_ms", u.p99_ns() as f64 / 1e6, "ms", u.ops),
        m("read_p99_us", r.p99_ns() as f64 / 1e3, "us", r.ops),
        m("update_mb_per_wall_s", u.wall_rate(), "MB/s", u.ops),
        m("read_ops_per_wall_s", r.wall_rate(), "1/s", r.ops),
        m("steal_share", o.steal_share(), "ratio", (u.steal.len() + r.steal.len()) as u64),
    ]
}

/// Throughput the traced/untraced comparison uses: the workload's
/// primary operation (reads on `pinned_read_4k`, updates elsewhere).
fn primary_rate(workload: &str, o: &Outcome) -> f64 {
    if workload == "pinned_read_4k" {
        o.read.rate()
    } else {
        o.update.rate()
    }
}

/// The per-layer metrics of a traced run. `base` is the untraced phase
/// of the same run (engine counters and client timings), `traced` the
/// traced phase (allocations, timing store and spans).
pub fn per_layer(
    workload: &str,
    host: &Host,
    base: &Outcome,
    traced: &Outcome,
    spans: &SpanReport,
) -> Vec<Metric> {
    let (bu, br) = (&base.update, &base.read);
    let (tu, tr) = (&traced.update, &traced.read);
    let checksum_bps = host.page_checksum_mb_per_s * 1e6;
    let share = |bytes_per_op: f64, p50_ns: u64| {
        if p50_ns == 0 {
            0.0
        } else {
            bytes_per_op / checksum_bps / (p50_ns as f64 / 1e9)
        }
    };
    let writes = &bu.delta.writes_per_provider;
    let write_skew = {
        let total: u64 = writes.iter().sum();
        let max = writes.iter().copied().max().unwrap_or(0);
        if total == 0 {
            0.0
        } else {
            max as f64 / (total as f64 / writes.len() as f64)
        }
    };
    let (be, te) = (base.engine(), traced.engine());
    let qos = be.qos.unwrap_or_default();
    let latest = &spans.latest_ns;
    vec![
        m("types.page_checksum_mb_per_s", host.page_checksum_mb_per_s, "MB/s", 1),
        m(
            "types.checksum_share_read",
            share(per(tr.delta.store.fetch_bytes, tr.ops), br.p50_ns()),
            "ratio",
            br.ops,
        ),
        m(
            "types.checksum_share_update",
            share(per(bu.delta.prov_bytes_written, bu.ops), bu.p50_ns()),
            "ratio",
            bu.ops,
        ),
        m("provider.store_calls_per_update", per(bu.delta.prov_writes, bu.ops), "count", bu.ops),
        m("provider.store_us_per_update", per(tu.delta.store.store_ns, tu.ops) / 1e3, "us", tu.ops),
        m("provider.fetch_calls_per_read", per(br.delta.prov_reads, br.ops), "count", br.ops),
        m("provider.fetch_us_per_read", per(tr.delta.store.fetch_ns, tr.ops) / 1e3, "us", tr.ops),
        m(
            "provider.bytes_fetched_per_byte_read",
            per(tr.delta.store.fetch_bytes, tr.bytes),
            "ratio",
            tr.ops,
        ),
        m("provider.write_skew", write_skew, "ratio", bu.delta.prov_writes),
        m("provider.corrupt_detected", (be.corrupt + te.corrupt) as f64, "count", 1),
        m("dht.gets_per_read", per(br.delta.dht_gets, br.ops), "count", br.ops),
        m("dht.puts_per_update", per(bu.delta.dht_puts, bu.ops), "count", bu.ops),
        m("dht.waits_per_update", per(bu.delta.dht_waits, bu.ops), "count", bu.ops),
        m("dht.get_wait_p99_us", be.dht_wait_p99_ns as f64 / 1e3, "us", bu.delta.dht_waits),
        m("dht.get_skew", be.dht_get_skew, "ratio", br.delta.dht_gets),
        m("meta.nodes_per_update", per(bu.delta.meta_nodes, bu.ops), "count", bu.ops),
        m("meta.prepare_p50_us", be.prepare_p50_ns as f64 / 1e3, "us", bu.ops),
        m(
            "meta.finish_p50_us",
            (bu.p50_ns() as f64 - be.prepare_p50_ns as f64) / 1e3,
            "us",
            bu.ops,
        ),
        m("version.latest_p50_ns", percentile(latest, 0.50) as f64, "ns", latest.len() as u64),
        m("version.latest_p99_ns", percentile(latest, 0.99) as f64, "ns", latest.len() as u64),
        m(
            "version.lockfree_read_ratio",
            per(br.delta.lockfree_reads, base.latest_calls),
            "ratio",
            base.latest_calls,
        ),
        m("version.aborted", (be.vm_aborted + te.vm_aborted) as f64, "count", 1),
        m("rt.io_jobs_per_update", per(bu.delta.io_jobs, bu.ops), "count", bu.ops),
        m("qos.admitted", qos.0 as f64, "count", 1),
        m("qos.throttled", qos.1 as f64, "count", 1),
        m("qos.wait_p99_us", qos.2 as f64 / 1e3, "us", qos.0),
        m("core.update_p99_ms", bu.p99_ns() as f64 / 1e6, "ms", bu.ops),
        m("core.read_p99_us", br.p99_ns() as f64 / 1e3, "us", br.ops),
        m("core.allocs_per_update", per(tu.delta.allocs, tu.ops), "count", tu.ops),
        m("core.allocs_per_read", per(tr.delta.allocs, tr.ops), "count", tr.ops),
        m("core.engine_update_p50_ratio", per(bu.engine_p50_ns(), bu.p50_ns()), "ratio", bu.ops),
        m("core.engine_read_p50_ratio", per(br.engine_p50_ns(), br.p50_ns()), "ratio", br.ops),
        m(
            "core.self_us_per_update",
            per(spans.self_ns(&[Name::CoreAppend]), tu.ops) / 1e3,
            "us",
            tu.ops,
        ),
        m(
            "core.self_us_per_read",
            per(spans.self_ns(&[Name::CoreRead, Name::CoreReadScatter]), tr.ops) / 1e3,
            "us",
            tr.ops,
        ),
        m("host.cpus", host.cpus as f64, "count", 1),
        m("host.memcpy_mb_per_s", host.memcpy_mb_per_s, "MB/s", 1),
        m(
            "host.steal_share",
            base.steal_share(),
            "ratio",
            (bu.steal.len() + br.steal.len()) as u64,
        ),
        m(
            "trace.overhead_ratio",
            if primary_rate(workload, base) == 0.0 {
                0.0
            } else {
                primary_rate(workload, traced) / primary_rate(workload, base)
            },
            "ratio",
            1,
        ),
    ]
}

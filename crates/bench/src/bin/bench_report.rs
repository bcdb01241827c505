//! Emit a bench trajectory file.
//!
//! ```text
//! bench_report [--full] [--pr N] [--out PATH]
//! ```
//!
//! Runs the trajectory cases of `blobseer_bench::report` (the Figure
//! 2(a) append bench, the DHT read micro-bench, the handle and
//! fault-tolerance cases) and writes `BENCH_PR<N>.json` (`--pr` sets both the filename and
//! the JSON `"pr"` field in one place; `--out` overrides the path).
//! `--fast` (the default, kept as an explicit flag for CI readability)
//! finishes in seconds; `--full` uses larger sizes for manual runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use blobseer_bench::report::{
    degraded_read, dht_micro, elastic_rebalance, fig2a_append, json_latency, json_pair,
    json_single, latency_percentiles, multi_tenant_isolation, orphan_scrub, pipeline_unit_label,
    pipelined_append, qos_overhead_append, repair_replicas_cost, snapshot_pinned_read,
    writer_crash_recovery, DhtCase, ReportParams, CRASH_EVERY,
};

/// Counts every heap allocation in the process, so the report can state
/// allocs-per-append for the write path. Relaxed: exactness across threads is not required.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter has no effect on
// allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let mut pr: u32 = 14;
    let mut out: Option<String> = None;
    let mut params = ReportParams::fast();
    let mut mode = "fast";
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => {}
            "--full" => {
                params = ReportParams::full();
                mode = "full";
            }
            "--pr" => pr = args.next().expect("--pr needs a number").parse().expect("--pr number"),
            "--out" => out = Some(args.next().expect("--out needs a path")),
            other => {
                panic!("unknown argument {other:?} (expected --fast|--full|--pr N|--out PATH)")
            }
        }
    }
    let out = out.unwrap_or_else(|| format!("BENCH_PR{pr}.json"));
    let count_allocs = || ALLOCS.load(Ordering::Relaxed);

    eprintln!("# bench_report: fig2a append...");
    let append = fig2a_append(&params, Some(&count_allocs));
    eprintln!("# bench_report: dht read-heavy (baseline)...");
    let read_base = dht_micro(&params, false, DhtCase::ReadHeavy);
    eprintln!("# bench_report: dht read-heavy (optimized)...");
    let read_opt = dht_micro(&params, true, DhtCase::ReadHeavy);
    eprintln!("# bench_report: dht read-mostly (baseline)...");
    let mostly_base = dht_micro(&params, false, DhtCase::ReadMostly);
    eprintln!("# bench_report: dht read-mostly (optimized)...");
    let mostly_opt = dht_micro(&params, true, DhtCase::ReadMostly);
    eprintln!("# bench_report: dht hot-root (baseline)...");
    let hot_base = dht_micro(&params, false, DhtCase::HotRoot);
    eprintln!("# bench_report: dht hot-root (optimized)...");
    let hot_opt = dht_micro(&params, true, DhtCase::HotRoot);
    eprintln!("# bench_report: snapshot-pinned read (baseline: flat facade)...");
    let pinned_base = snapshot_pinned_read(&params, false);
    eprintln!("# bench_report: snapshot-pinned read (optimized: Snapshot)...");
    let pinned_opt = snapshot_pinned_read(&params, true);
    eprintln!("# bench_report: pipelined append (baseline: blocking)...");
    let pipe_base = pipelined_append(&params, false);
    eprintln!("# bench_report: pipelined append (optimized: depth-4 PendingWrite)...");
    let pipe_opt = pipelined_append(&params, true);
    eprintln!(
        "# bench_report: writer crash recovery (measured: 1-in-{CRASH_EVERY} writers die)..."
    );
    let crash_opt = writer_crash_recovery(&params);
    eprintln!("# bench_report: orphan scrub (crash-ingest, then mark-and-sweep)...");
    let (scrub_ingest, scrub) = orphan_scrub(&params);
    eprintln!("# bench_report: degraded read (baseline: healthy deployment)...");
    let degraded_base = degraded_read(&params, false);
    eprintln!("# bench_report: degraded read (measured: one provider dead)...");
    let degraded_meas = degraded_read(&params, true);
    eprintln!("# bench_report: repair_replicas (degraded ingest, then re-replication)...");
    let repair = repair_replicas_cost(&params);
    eprintln!("# bench_report: elastic rebalance (ingest under joins + concurrent drain)...");
    let elastic = elastic_rebalance(&params);
    eprintln!("# bench_report: qos overhead (baseline: qos subsystem off)...");
    let qos_off = qos_overhead_append(&params, false);
    eprintln!("# bench_report: qos overhead (optimized: qos on, unlimited quotas)...");
    let qos_on = qos_overhead_append(&params, true);
    eprintln!("# bench_report: multi-tenant isolation (solo / shared / shared+qos)...");
    let isolation = multi_tenant_isolation(&params);
    eprintln!("# bench_report: latency percentiles (mixed instrumented workload)...");
    let tails = latency_percentiles(&params);

    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    let methodology = format!(
        "Best-of-{reps} wall time per case, fixed sizes and LCG op streams. fig2a_append: \
         single client, {unit_mib} MiB appends to {total_mib} MiB at 64 KiB pages, 16 in-memory \
         providers, 4 io threads, via append_bytes on a prebuilt buffer; one side only, the \
         shipping write path (refcounted Bytes::slice carving + one range job per io thread), \
         recorded under 'optimized' for comparability with earlier files; allocs counted by a \
         process-global counting allocator around the winning rep's timed section (store \
         construction excluded). dht_micro: {threads} threads x {iters} ops on a \
         16-bucket DHT over 4096 keys (read_heavy: 80% get / 20% put; read_mostly: 97% get / \
         3% put; hot_root: all threads get one key); baseline = seed Mutex+Condvar bucket, \
         optimized = RwLock read path with per-key waiter-gated notify. On a single-core host \
         the DHT gain comes from uncontended puts skipping the condvar; multi-core hosts \
         additionally overlap readers on the shared guard. snapshot_pinned_read: {threads} \
         reader threads x {reads} total {read_kib} KiB sub-page reads (LCG offsets) of one \
         hot published {total_mib} MiB snapshot into reusable buffers; baseline = flat \
         read_into (per call, per thread: blob-registry read lock + blob-state mutex + \
         lineage clone), optimized = version-pinned Snapshot (VM consulted once at \
         construction, readers share the cached view). pipelined_append: \
         {total_mib} MiB in {pipe_kib} KiB appends; baseline = blocking append_bytes, \
         optimized = append_pipelined with a depth-{depth} in-flight window (single-core \
         hosts understate the overlap: caller and completion stages time-slice one core). \
         writer_crash_recovery: the same depth-{depth} pipelined ingest, but the 'optimized' \
         side kills every {crash_every}th writer right after version assignment and recovers \
         through the production path (lease expiry + sweep aborts the hole, later versions \
         publish over it); baseline = the pipelined_append optimized run (the identical \
         failure-free ingest, measured once, not re-run); ops/bytes count \
         survivors only, so the ratio prices a 1-in-{crash_every} writer-death rate per byte \
         of useful published data (expected slightly below 1.0 - recovery overhead, not a \
         speedup). orphan_scrub: the same crashy ingest via the CrashyIngest driver \
         ({total_mib} MiB in {pipe_kib} KiB chunks, depth {depth}, every {crash_every}th \
         writer dies at a rotating CrashPoint and is lease-swept), then one scrub_orphans \
         pass; reported as absolute leak/reclaim numbers plus timings, not a ratio — the \
         claims measured are completeness (leaked_bytes_after_scrub must be 0; the run \
         asserts it and verifies content byte-for-byte) and cost (scrub_elapsed_s vs \
         ingest_elapsed_s: the background-maintenance tax of reclaiming a \
         1-in-{crash_every} death rate's garbage). degraded_read: {deg_reads} single-threaded \
         {read_kib} KiB sub-page reads (LCG offsets) of one hot {total_mib} MiB snapshot on a \
         16-provider replication-2 deployment; baseline = healthy, measured = one provider \
         offline, so every read of a page it was primary for pays one failed fetch before the \
         deterministic chain fallback serves it from the replica. On in-memory providers the \
         detour is an immediate typed error, so the ratio sits at ~1.0 (the case exists to \
         keep it there); a networked deployment pays a connect timeout in the same spot, \
         which is what blobseer_sim's degraded_read_experiment prices. \
         repair_replicas: the fig2a volume appended with one of 16 providers dead the whole \
         run (write-path failover re-places its copies; every append succeeds), provider \
         recovered, then one repair_replicas pass; reported as absolute numbers plus timings — \
         the claims measured are convergence (a second pass must be a no-op; the run asserts \
         it) and cost (repair_to_ingest, plus the re-replication rate in MB/s). \
         elastic_rebalance: {total_mib} MiB streamed in {pipe_kib} KiB depth-{depth} \
         pipelined appends onto a 16-provider replication-2 deployment while the membership \
         churns — two providers join at one third of the run and provider 0 starts draining \
         at two thirds, concurrent with the live writers; the run self-verifies (content \
         byte-identical, victim retired and physically empty, one rebalance pass converges \
         and a second is a no-op — all asserted) and reports absolute numbers plus timings: \
         drain_to_ingest (drain seconds vs. the overlapped ingest) and the migration rate \
         in MB/s. qos_overhead_append: the fig2a append workload without the QoS \
         subsystem (baseline) vs with Builder::qos on all-unlimited quotas (optimized - a \
         shared deployment throttling nobody: one registry lookup, one counter bump and the \
         dispatch-ticket indirection per update); the ratio prices the admission tax and must \
         stay >= 0.95. multi_tenant_isolation: quiet tenant appends {iso_ops} x \
         {iso_kib} KiB blocking, each timed individually, while a noisy tenant floods \
         depth-4 pipelined {pipe_kib} KiB appends from a second thread (capped at 512 ops): \
         solo, shared with QoS off, and shared with QoS capping the noisy tenant at \
         50 MB/s sustained (refusals back off 1 ms and retry); reported as quiet \
         p50/p99 per scenario plus p99-vs-solo ratios. On a single-core host the flood also \
         taxes the quiet thread through CPU time-slicing, which no admission control can \
         remove; the deterministic 2x isolation bound is asserted by blobseer_sim's \
         qos_isolation_experiment, and this case records what a real host shows. \
         percentiles: lifetime tail digests from stats_snapshot() after \
         a mixed instrumented workload ({total_mib} MiB appended half blocking / half \
         depth-{depth} pipelined in {pipe_kib} KiB chunks, then {pct_reads} pinned \
         {read_kib} KiB reads and 64 scatter reads); values are nanosecond bucket edges of \
         a base-2 log-linear histogram (relative error <= 1/128) — compare shapes across \
         runs, not absolute values across hosts. Ratios are the comparable quantity \
         across hosts.",
        pct_reads = params.pinned_reads / 10,
        deg_reads = params.pinned_reads / 20,
        reps = params.reps,
        unit_mib = params.append_unit >> 20,
        total_mib = params.append_total >> 20,
        threads = params.dht_threads,
        iters = params.dht_iters_per_thread,
        reads = params.pinned_reads,
        read_kib = params.pinned_read_bytes >> 10,
        pipe_kib = params.pipeline_unit >> 10,
        depth = params.pipeline_depth,
        crash_every = CRASH_EVERY,
        iso_ops = isolation.quiet_ops,
        iso_kib = isolation.quiet_unit >> 10,
    );
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"pr\": {pr},\n"));
    json.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    json.push_str(&format!(
        "  \"host\": {{ \"available_parallelism\": {cpus}, \"os\": \"{}\" }},\n",
        std::env::consts::OS
    ));
    json.push_str(&format!("  \"methodology\": \"{methodology}\",\n"));
    json.push_str(&format!(
        "  \"fig2a_append_64k\": {{\n{}\n  }},\n",
        json_single("    ", "append of 1 MiB", &append)
    ));
    json.push_str(&format!(
        "  \"dht_micro_read_heavy\": {{\n{}\n  }},\n",
        json_pair("    ", "kv op", &read_base, &read_opt)
    ));
    json.push_str(&format!(
        "  \"dht_micro_read_mostly\": {{\n{}\n  }},\n",
        json_pair("    ", "kv op", &mostly_base, &mostly_opt)
    ));
    json.push_str(&format!(
        "  \"dht_micro_hot_root\": {{\n{}\n  }},\n",
        json_pair("    ", "kv op", &hot_base, &hot_opt)
    ));
    json.push_str(&format!(
        "  \"snapshot_pinned_read\": {{\n{}\n  }},\n",
        json_pair(
            "    ",
            &format!("{} KiB sub-page read", params.pinned_read_bytes >> 10),
            &pinned_base,
            &pinned_opt
        )
    ));
    json.push_str(&format!(
        "  \"pipelined_append\": {{\n{}\n  }},\n",
        json_pair("    ", &pipeline_unit_label(&params), &pipe_base, &pipe_opt)
    ));
    json.push_str(&format!(
        "  \"writer_crash_recovery\": {{\n{}\n  }},\n",
        // Baseline: the pipelined_append optimized run — byte-identical
        // failure-free ingest, measured once above.
        json_pair("    ", &pipeline_unit_label(&params), &pipe_opt, &crash_opt)
    ));
    json.push_str(&format!(
        "  \"orphan_scrub\": {{\n    \
           \"unit\": \"{unit}\",\n    \
           \"ingest\": {{ \"appends\": {appends}, \"crashed_writers\": {crashed}, \
             \"surviving_bytes\": {survived}, \"elapsed_s\": {ingest_s:.4} }},\n    \
           \"leak\": {{ \"stored_bytes_before_scrub\": {before}, \"leaked_pages\": {lpages}, \
             \"leaked_bytes\": {lbytes}, \"stored_bytes_after_scrub\": {after}, \
             \"leaked_bytes_after_scrub\": {lafter} }},\n    \
           \"scrub\": {{ \"elapsed_s\": {scrub_s:.4}, \"pages_marked\": {marked}, \
             \"pages_scanned\": {scanned}, \"reclaim_mb_per_s\": {reclaim_rate:.1}, \
             \"scrub_to_ingest\": {tax:.4} }}\n  }},\n",
        unit = pipeline_unit_label(&params),
        appends = scrub_ingest.appends,
        crashed = scrub_ingest.crashed,
        survived = scrub_ingest.bytes,
        ingest_s = scrub.ingest_elapsed.as_secs_f64(),
        before = scrub.stored_bytes_before,
        lpages = scrub.leaked_pages_before,
        lbytes = scrub.leaked_bytes_before,
        after = scrub.stored_bytes_after,
        lafter = scrub.leaked_bytes_after,
        scrub_s = scrub.scrub_elapsed.as_secs_f64(),
        marked = scrub.pages_marked,
        scanned = scrub.pages_scanned,
        reclaim_rate =
            scrub.leaked_bytes_before as f64 / 1e6 / scrub.scrub_elapsed.as_secs_f64().max(1e-9),
        tax = scrub.scrub_elapsed.as_secs_f64() / scrub.ingest_elapsed.as_secs_f64().max(1e-9),
    ));
    json.push_str(&format!(
        "  \"degraded_read\": {{\n{}\n  }},\n",
        // "optimized" = the degraded deployment: the ratio prices the
        // read-side cost of one dead provider (expected <= 1.0).
        json_pair(
            "    ",
            &format!("{} KiB sub-page read", params.pinned_read_bytes >> 10),
            &degraded_base,
            &degraded_meas
        )
    ));
    json.push_str(&format!(
        "  \"repair_replicas\": {{\n    \
           \"unit\": \"append of {unit_mib} MiB, one of 16 providers dead\",\n    \
           \"degraded_ingest\": {{ \"appends\": {appends}, \"bytes\": {ibytes}, \
             \"failovers\": {failovers}, \"elapsed_s\": {ingest_s:.4} }},\n    \
           \"repair\": {{ \"elapsed_s\": {repair_s:.4}, \"pages_examined\": {examined}, \
             \"copies_verified\": {verified}, \"copies_repaired\": {repaired}, \
             \"bytes_copied\": {rbytes}, \"strays_trimmed\": {strays}, \
             \"rereplication_mb_per_s\": {rate:.1}, \"repair_to_ingest\": {tax:.4} }}\n  }},\n",
        unit_mib = params.append_unit >> 20,
        appends = repair.appends,
        ibytes = repair.ingest_bytes,
        failovers = repair.failovers,
        ingest_s = repair.ingest_elapsed.as_secs_f64(),
        repair_s = repair.repair_elapsed.as_secs_f64(),
        examined = repair.report.pages_examined,
        verified = repair.report.copies_verified,
        repaired = repair.report.copies_repaired,
        rbytes = repair.report.bytes_copied,
        strays = repair.report.strays_trimmed,
        rate =
            repair.report.bytes_copied as f64 / 1e6 / repair.repair_elapsed.as_secs_f64().max(1e-9),
        tax = repair.repair_elapsed.as_secs_f64() / repair.ingest_elapsed.as_secs_f64().max(1e-9),
    ));
    json.push_str(&format!(
        "  \"elastic_rebalance\": {{\n    \
           \"unit\": \"{unit}, two joins + one concurrent drain\",\n    \
           \"ingest\": {{ \"appends\": {appends}, \"bytes\": {ibytes}, \
             \"joined\": {joined}, \"elapsed_s\": {ingest_s:.4} }},\n    \
           \"drain\": {{ \"elapsed_s\": {drain_s:.4}, \"pages_evacuated\": {evac}, \
             \"bytes_evacuated\": {ebytes}, \"copies_filled\": {filled}, \
             \"bytes_copied\": {cbytes}, \"rounds\": {rounds}, \
             \"migration_mb_per_s\": {rate:.1}, \"drain_to_ingest\": {tax:.4} }},\n    \
           \"rebalance\": {{ \"elapsed_s\": {reb_s:.4}, \"copies_moved\": {reb_copies} }}\n  }},\n",
        unit = pipeline_unit_label(&params),
        appends = elastic.appends,
        ibytes = elastic.ingest_bytes,
        joined = elastic.joined,
        ingest_s = elastic.ingest_elapsed.as_secs_f64(),
        drain_s = elastic.drain_elapsed.as_secs_f64(),
        evac = elastic.drain.pages_evacuated,
        ebytes = elastic.drain.bytes_evacuated,
        filled = elastic.drain.copies_filled,
        cbytes = elastic.drain.bytes_copied,
        rounds = elastic.drain.rounds,
        rate = elastic.drain.bytes_evacuated as f64
            / 1e6
            / elastic.drain_elapsed.as_secs_f64().max(1e-9),
        tax = elastic.drain_elapsed.as_secs_f64() / elastic.ingest_elapsed.as_secs_f64().max(1e-9),
        reb_s = elastic.rebalance_elapsed.as_secs_f64(),
        reb_copies = elastic.rebalance_copies,
    ));
    json.push_str(&format!(
        "  \"qos_overhead_append\": {{\n{}\n  }},\n",
        // "optimized" = QoS enabled on unlimited quotas (the shared-
        // deployment shape): the ratio prices the admission tax and
        // must stay >= 0.95.
        json_pair("    ", "append of 1 MiB", &qos_off, &qos_on)
    ));
    json.push_str(&format!(
        "  \"multi_tenant_isolation\": {{\n    \
           \"unit\": \"{iso_kib} KiB quiet append, noisy flood of {pipe_kib} KiB pipelined appends\",\n    \
           \"quiet_ops\": {ops},\n    \
           \"solo\": {{ \"p50_us\": {solo_p50:.1}, \"p99_us\": {solo_p99:.1} }},\n    \
           \"shared_qos_off\": {{ \"p50_us\": {fifo_p50:.1}, \"p99_us\": {fifo_p99:.1}, \
             \"noisy_appends\": {fifo_noisy} }},\n    \
           \"shared_qos_on\": {{ \"p50_us\": {qos_p50:.1}, \"p99_us\": {qos_p99:.1}, \
             \"noisy_appends\": {qos_noisy}, \"noisy_throttled\": {throttled} }},\n    \
           \"quiet_p99_vs_solo\": {{ \"qos_off\": {fifo_ratio:.3}, \"qos_on\": {qos_ratio:.3} }}\n  }},\n",
        iso_kib = isolation.quiet_unit >> 10,
        pipe_kib = params.pipeline_unit >> 10,
        ops = isolation.quiet_ops,
        solo_p50 = isolation.solo_p50.as_secs_f64() * 1e6,
        solo_p99 = isolation.solo_p99.as_secs_f64() * 1e6,
        fifo_p50 = isolation.fifo_p50.as_secs_f64() * 1e6,
        fifo_p99 = isolation.fifo_p99.as_secs_f64() * 1e6,
        fifo_noisy = isolation.fifo_noisy_appends,
        qos_p50 = isolation.qos_p50.as_secs_f64() * 1e6,
        qos_p99 = isolation.qos_p99.as_secs_f64() * 1e6,
        qos_noisy = isolation.qos_noisy_appends,
        throttled = isolation.qos_noisy_throttled,
        fifo_ratio = isolation.fifo_p99.as_secs_f64() / isolation.solo_p99.as_secs_f64().max(1e-12),
        qos_ratio = isolation.qos_p99.as_secs_f64() / isolation.solo_p99.as_secs_f64().max(1e-12),
    ));
    json.push_str(&format!(
        "  \"percentiles\": {{\n    \
           \"unit\": \"nanoseconds, lifetime nearest-rank bucket edges (error <= 1/128)\",\n    \
           {},\n    {},\n    {},\n    {},\n    {}\n  }}\n}}\n",
        json_latency("append", &tails.append),
        json_latency("read", &tails.read),
        json_latency("read_scatter", &tails.read_scatter),
        json_latency("write_prepare", &tails.write_prepare),
        json_latency("dht_get_wait", &tails.dht_get_wait),
    ));

    std::fs::write(&out, &json).expect("write report");
    print!("{json}");
    eprintln!("# wrote {out}");
}

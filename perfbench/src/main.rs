//! The repository benchmark: two closed-loop workloads against the
//! BlobSeer engine, reporting end-to-end metrics from an untraced run
//! or per-layer metrics from a traced one.
//!
//! ```text
//! perfbench --workload <append_stream|pinned_read_4k>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines go to standard output first; the last line is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! See `README.md` next to this package for workloads and metrics.

mod measure;
mod payload;
mod report;
mod trace;
mod workloads;

use std::process::ExitCode;

use report::Metric;
use workloads::{Outcome, Plan};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

const WORKLOADS: [&str; 2] = ["append_stream", "pinned_read_4k"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad("expected append_stream or pinned_read_4k"));
                }
                workload = Some(value.clone())
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn run(workload: &str, plan: &Plan) -> Outcome {
    match workload {
        "append_stream" => workloads::append_stream(plan),
        "pinned_read_4k" => workloads::pinned_read_4k(plan),
        _ => unreachable!("validated by parse_args"),
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn print_metrics(metrics: &[Metric]) {
    for x in metrics {
        println!("metric {:<38} {:>14.4} {:<6} (n={})", x.name, finite(x.value), x.unit, x.samples);
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", x.name, finite(x.value), x.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = measure::calibrate();
    println!(
        "host cpus={} memcpy_mb_per_s={:.0} page_checksum_mb_per_s={:.0}",
        host.cpus, host.memcpy_mb_per_s, host.page_checksum_mb_per_s
    );
    println!(
        "workload {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let (metrics, attempted, failed) = if args.trace {
        // Untraced then traced phase, each half the run.
        let half = args.seconds / 2.0;
        let base = run(&args.workload, &Plan { seed: args.seed, seconds: half, traced: false });
        trace::set_enabled(true);
        let traced = run(&args.workload, &Plan { seed: args.seed, seconds: half, traced: true });
        trace::set_enabled(false);
        let (recs, dropped) = trace::spans();
        let spans = trace::report(&recs);
        for (layer, count, ns) in spans.by_layer() {
            println!("span-layer {layer:<10} spans={count:<9} total_ms={:.3}", ns as f64 / 1e6);
        }
        for (name, count, ns, self_ns) in &spans.by_name {
            println!(
                "span {:<22} spans={count:<9} total_ms={:.3} self_ms={:.3}",
                name.as_str(),
                *ns as f64 / 1e6,
                *self_ns as f64 / 1e6
            );
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}.tsv", args.workload));
        match trace::write_spans(&path, &recs) {
            Ok(()) => {
                println!("spans written={} dropped={dropped} file={}", recs.len(), path.display())
            }
            Err(e) => println!("spans not written ({e}); dropped={dropped}"),
        }
        let metrics = report::per_layer(&args.workload, &host, &base, &traced, &spans);
        (metrics, base.attempted + traced.attempted, base.failed + traced.failed)
    } else {
        let plan = Plan { seed: args.seed, seconds: args.seconds, traced: false };
        let out = run(&args.workload, &plan);
        print_metrics(&report::extras(&out));
        (report::end_to_end(&out), out.attempted, out.failed)
    };
    print_metrics(&metrics);
    let ratio = if attempted == 0 { 0.0 } else { failed as f64 / attempted as f64 };
    println!("metric {:<38} {:>14.4} {:<6} (n={attempted})", "failed_ops_ratio", ratio, "ratio");
    let correct = failed == 0 && attempted > 0;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! Simulated BlobSeer protocol pipelines (the paper's §5 experiments).
//!
//! This crate reruns the paper's two evaluation workloads on the
//! [`blobseer_simnet`] cluster model:
//!
//! * [`append_experiment`] — Figure 2(a): a single client repeatedly
//!   appends to a growing blob; per-append bandwidth is recorded
//!   against the blob's page count;
//! * [`read_experiment`] — Figure 2(b): N concurrent readers fetch
//!   disjoint 64 MiB chunks of a large blob; the average per-reader
//!   bandwidth is recorded against N;
//! * [`pipelined_append_experiment`] — the Figure 4/5 overlap
//!   scenario: a client keeps `depth` appends in flight (the engine's
//!   `append_pipelined`), overlapping data transfers with metadata
//!   work of lower versions;
//! * [`crash_writer_experiment`] — beyond the paper (which defers
//!   client failures to future work): one of the pipelined writers
//!   dies right after registering a version, wedging publication until
//!   the engine's writer lease expires and the version manager skips
//!   the hole. Measures the stall and the recovery.
//! * [`scrub_experiment`] — the other half of running versioned
//!   storage as a long-lived service: the cost of the provider-side
//!   orphan mark-and-sweep (PR 5) over the end state of a
//!   crash-injected ingest, priced against the ingest itself.
//! * [`degraded_read_experiment`] — Figure 2(b) under provider
//!   failure (PR 7): dead data providers redirect their pages to live
//!   replica-chain members, and the concurrent-reader bandwidth is
//!   priced against the healthy baseline — the degraded-mode tax.
//! * [`qos_isolation_experiment`] — the multi-tenant scenario (PR 8):
//!   a noisy tenant floods a shared ingest with 10× a quiet tenant's
//!   traffic; quiet-tenant p99 is measured solo, shared-FIFO, and
//!   shared with `blobseer_qos` token-bucket admission + DRR drain —
//!   the isolation the QoS subsystem buys.
//!
//! Crucially, the *costs* fed into the simulator come from the real
//! implementation, not from formulas baked into the benchmark:
//!
//! * the number and position of metadata tree nodes touched by an
//!   update or a read come from [`blobseer_meta::plan`] — the exact
//!   planner the real engine executes, which is where the power-of-two
//!   bandwidth steps of Figure 2(a) originate;
//! * page→provider placement replays the engine's round-robin
//!   allocation, and tree-node→metadata-provider placement uses the
//!   real DHT hash ([`blobseer_dht::static_bucket`]), so simulated
//!   hotspots (every reader hits the same root bucket) are the real
//!   ones.
//!
//! Calibration constants live in [`SimParams`]; see that type and
//! EXPERIMENTS.md for the mapping to the paper's testbed.

mod append;
mod cluster;
mod degraded;
mod failure;
mod params;
mod qos;
mod read;
mod scrub;

pub use append::{append_experiment, pipelined_append_experiment, AppendPoint, PipelinedSummary};
pub use cluster::Cluster;
pub use degraded::{degraded_read_experiment, DegradedReadSummary};
pub use failure::{crash_writer_experiment, CrashRecoverySummary};
pub use params::SimParams;
pub use qos::{qos_isolation_experiment, QosIsolationSummary};
pub use read::{read_experiment, ReadSummary};
pub use scrub::{scrub_experiment, ScrubSimSummary};

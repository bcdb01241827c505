//! Data providers and the provider manager.
//!
//! Paper §3.1: *data providers* "physically store the pages generated by
//! WRITE and APPEND"; the *provider manager* "keeps information about
//! the available storage space \[and\] decides which providers should be
//! used to store the generated pages according to a strategy aiming at
//! ensuring an even distribution of pages among providers".
//!
//! This crate supplies:
//!
//! * [`PageStore`] — the storage backend trait, with a sharded
//!   in-memory implementation ([`MemoryPageStore`]) and a file-backed
//!   one ([`FilePageStore`]);
//! * [`DataProvider`] — one storage node: a store plus access counters;
//! * [`ProviderManager`] — the provider registry and round-robin
//!   page-to-provider placement (§4.3 notes that the placement strategy
//!   "plays a central role in minimizing ... conflicts that lead to
//!   serialization"; rotation spreads each update's pages over distinct
//!   providers);
//! * [`FaultPlan`] — composable fault injection (offline, one-shot and
//!   probabilistic I/O errors, latency, bit-flip corruption) wrapping
//!   any store, so provider failure is a first-class, testable event.
//!
//! Every [`DataProvider`] checksums stored pages (a sidecar, verified
//! on fetch) and exposes corruption/repair counters; see the type docs.

mod fault;
mod manager;
mod provider;
mod store;

pub use fault::FaultPlan;
pub use manager::{MembershipCounts, ProviderManager};
pub use provider::{DataProvider, ProviderStats, ScrubPass};
pub use store::{FilePageStore, MemoryPageStore, PageStore};

//! # agar-store — the geo-distributed erasure-coded object store
//!
//! The substrate under Agar (Halalai et al., ICDCS 2017, Figure 1): an
//! S3-like object store spanning several regions, where each object is
//! Reed-Solomon-encoded into `k + m` chunks distributed round-robin, one
//! bucket per region. This crate provides:
//!
//! - [`Bucket`] — a region's durable chunk store with failure injection;
//! - [`PlacementPolicy`] / [`RoundRobin`] — the paper's chunk layout;
//! - [`ObjectManifest`] — per-object metadata (size, version, locations);
//! - [`Backend`] — the multi-region store: encode-and-place writes,
//!   latency-sampled chunk fetches (single or region-batched, one
//!   priced round trip per region), region failure injection;
//! - [`plan_backend_fetch`] / [`plan_backend_fetch_with_estimates`] —
//!   which `k` chunks a read fetches, and from which regions. The
//!   cache-less "Backend" baseline reader built on them is
//!   `agar::BackendOnlyClient`.
//!
//! # Examples
//!
//! ```
//! use agar_ec::{CodingParams, ObjectId};
//! use agar_net::presets::{aws_six_regions, FRANKFURT, SYDNEY};
//! use agar_store::{plan_backend_fetch, populate, regions_by_latency, Backend, RoundRobin};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! let preset = aws_six_regions();
//! let backend = Backend::new(
//!     preset.topology,
//!     Arc::new(preset.latency),
//!     CodingParams::paper_default(),
//!     Box::new(RoundRobin),
//! )?;
//! let mut rng = StdRng::seed_from_u64(0);
//! populate(&backend, 10, 9_000, &mut rng)?;
//!
//! // A read from Frankfurt fetches the k = 9 nearest chunks and skips
//! // the m = 3 furthest, which are Sydney's and one of Tokyo's.
//! let order = regions_by_latency(&backend, FRANKFURT);
//! let plan = plan_backend_fetch(&backend, ObjectId::new(3), &order, &[])?;
//! assert_eq!(plan.len(), 9);
//! assert!(plan.iter().all(|&(_, region)| region != SYDNEY));
//! # Ok::<(), agar_store::StoreError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod bucket;
pub mod error;
pub mod manifest;
pub mod placement;
pub mod plan;

pub use backend::{expected_payload, populate, Backend, BatchFetchOutcome, ChunkFetch};
pub use bucket::{Bucket, StoredChunk};
pub use error::StoreError;
pub use manifest::ObjectManifest;
pub use placement::{PlacementPolicy, RotatedRoundRobin, RoundRobin};
pub use plan::{
    plan_backend_fetch, plan_backend_fetch_with_estimates, regions_by_latency, ChunkCandidate,
};

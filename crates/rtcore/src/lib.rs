//! `rtcore` — a software simulator of an OptiX / OWL style ray-tracing stack.
//!
//! The RT-DBSCAN paper offloads the expensive parts of DBSCAN's fixed-radius
//! neighbour searches to the ray-tracing (RT) cores of an NVIDIA RTX GPU via
//! the OptiX 7 Wrapper Library (OWL).  This crate reproduces that substrate in
//! portable Rust so the algorithm — and the baselines it is compared against —
//! can be studied, tested and benchmarked without RT hardware:
//!
//! * [`geometry`] — 3-D vectors, points, axis-aligned bounding boxes, rays,
//!   sphere primitives and Morton codes.
//! * [`bvh`] — bounding-volume-hierarchy builders (LBVH via Morton codes,
//!   binned SAH) plus the primitive-compaction pass the RT device path
//!   uses.
//! * [`traversal`] — counted BVH traversal: the binary single-ray oracle
//!   and the wide (BVH4) single-ray and ray-packet engines, with the
//!   early-termination hook the OptiX pipeline exposes.
//! * [`hardware`] — the device cost model.  All work performed by the
//!   traversal engine and builders is counted, and a [`hardware::DeviceModel`]
//!   converts those counts into simulated execution time for an RT-core
//!   device (RTX-2060-like) or a shader-core-only device, together with a
//!   simulated device-memory budget.
//! * [`fault`] — the robustness substrate: deterministic failpoints
//!   (`fault-inject` feature), query deadlines and cooperative
//!   cancellation, memory budgets with graceful degradation, and bounded
//!   retry policies.
//! * [`index`] — the pluggable neighbour-search backend layer: the
//!   [`index::NeighborIndex`] trait with binary-BVH, wide-batched (BVH4),
//!   uniform-grid and brute-force implementations, all answering the same
//!   fixed-radius queries through one object-safe surface.
//!
//! The crate has no knowledge of DBSCAN; clustering lives in the `rtdbscan`
//! crate which drives this one.
//!
//! # Quick example
//!
//! ```
//! use rtcore::geometry::Point3;
//! use rtcore::hardware::WorkCounters;
//! use rtcore::index::{IndexKind, NeighborIndexBuilder};
//!
//! let pts = vec![
//!     Point3::new(0.0, 0.0, 0.0),
//!     Point3::new(0.5, 0.0, 0.0),
//!     Point3::new(10.0, 0.0, 0.0),
//! ];
//! let index = NeighborIndexBuilder::new(IndexKind::BinaryBvh)
//!     .build(&pts, 1.0)
//!     .unwrap();
//! let mut counters = WorkCounters::ZERO;
//! let n = index.neighbors_of(pts[0], 1.0, Some(0), &mut counters);
//! assert_eq!(n, vec![1]); // point 2 is too far, self is excluded
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod bvh;
pub mod error;
pub mod fault;
pub mod geometry;
pub mod hardware;
pub mod index;
pub mod simd;
pub mod telemetry;
pub mod traversal;

pub use error::{Error, Result};

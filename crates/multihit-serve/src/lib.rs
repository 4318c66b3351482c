//! Batched classification serving over discovered hit-combo panels.
//!
//! The paper's end product is a classifier — h-hit gene panels separating
//! tumor from normal samples — and the roadmap's north star is serving
//! that classifier under heavy traffic. This crate is the serving layer:
//!
//! * [`registry`] — compiled panels loaded from results TSVs, published
//!   in immutable generations behind [`registry::SharedRegistry`], a
//!   hand-rolled epoch-based arc-swap that hot-swaps the live model set
//!   without dropping traffic.
//! * [`protocol`] — flat JSON-lines [`protocol::Request`] /
//!   [`protocol::Response`], sharing the observability stream's codec.
//! * [`frame`] — the length-prefixed binary wire protocol: packed
//!   bit-signatures travel verbatim and decode straight into batch slots.
//! * [`poll`] — readiness poller (raw epoll on Linux) behind the reactor.
//! * [`queue`] — hand-built bounded MPMC [`queue::BoundedQueue`] with
//!   explicit `QueueFull` rejection (backpressure by shedding, never by
//!   unbounded buffering).
//! * [`admission`] — per-tenant fair-share token accounting in front of
//!   the queues: an overloaded tenant is shed at its budget while every
//!   other tenant keeps its full goodput.
//! * [`publish`] — the discover→serve control plane: ship a results
//!   snapshot to a live server and arc-swap it in as a new generation.
//! * [`cache`] — per-shard [`cache::LruCache`] keyed by registry
//!   generation and the sample's packed bit-signature.
//! * [`server`] — the sharded worker pool: requests coalesce into
//!   `BitMatrix` batches scored by the `multihit-core` AND+popcount
//!   kernels, bit-identical to scalar classification. Each worker keeps
//!   a fixed-size latency histogram and hands it back when it is joined.
//! * [`tcp`] — event-loop front end: one reactor thread multiplexes
//!   1k+ non-blocking connections over both wire protocols.
//! * [`loadgen`] — load generator checking the CI gate's
//!   lost/divergent/shed invariants, in-process and over TCP.

pub mod admission;
pub mod cache;
pub mod frame;
mod latency;
pub mod loadgen;
pub mod poll;
pub mod protocol;
pub mod publish;
pub mod queue;
pub mod registry;
pub mod server;
pub mod tcp;

pub use admission::{Admission, AdmissionConfig, TenantCounters};
pub use protocol::{Request, Response, Status};
pub use registry::{ModelRegistry, Panel, RegistryReader, SharedRegistry, VersionedRegistry};
pub use server::{InProcClient, Reply, ReplyWindow, ResponseSink, ServeConfig, Server};

//! Continuous-batching ragged inference serving on top of the CoRa
//! compiled encoder tier.
//!
//! # Architecture
//!
//! ```text
//!  arrivals ──► RequestQueue ──► BatchPolicy ──► ragged microbatch
//!  (Source)      (validated        (fill / deadline    │
//!                 FIFO)             / affinity)        ▼
//!                                              SessionPool ──► engine
//!                                              (shape-keyed       (compiled
//!                                               LRU, autotuned)    encoder)
//! ```
//!
//! Requests — `(id, embedding rows, arrival time)` — are admitted into
//! a validated FIFO ([`RequestQueue`]). A [`BatchPolicy`] decides when
//! to dispatch (batch full, front request at its deadline, or source
//! drained) and which waiting requests to pack into the next *ragged*
//! microbatch — sequences of unequal length share one batch with no
//! padding, which is the point of serving on a ragged compiler. A
//! [`SessionPool`] caches compiled layers plus their prepared state
//! (preludes, safety proofs, arena) per batch shape, consulting the
//! encoder autotuner's schedule cache on every miss.
//!
//! The scheduler is written against the [`Clock`]/[`Source`] traits, so
//! the whole server runs under a deterministic discrete-event simulator
//! ([`Server::run_sim`]: virtual time, seeded traces, zero real
//! threads, byte-stable event logs — what the test suite and the CI
//! determinism gate drive) or under real threads against the wall
//! clock ([`Server::run_threaded`], what `perf_ledger` times).

#![forbid(unsafe_code)]

pub mod clock;
pub mod policy;
pub mod pool;
pub mod queue;
pub mod request;
pub mod server;
pub mod trace;

pub use clock::{ChannelSource, Clock, Source, SystemClock, TraceSource, VirtualClock};
pub use policy::BatchPolicy;
pub use pool::{PoolStats, PooledSession, SessionPool};
pub use queue::{AdmitError, RequestQueue};
pub use request::{pack_ragged, requests_from_padded, unpack_rows, Request};
pub use server::{BatchRecord, Completion, Server, ServerConfig, ServiceModel, SimReport};
pub use trace::{generate, Arrival, TraceConfig};

//! # rap-serve — multi-tenant streaming scan service
//!
//! The paper's fabric (§3.3) is built for always-on streaming
//! inspection: ping-pong bank input pages feed per-array FIFOs, and
//! match reports ride output FIFOs back to the host over interrupts.
//! This crate puts a service on top of the reproduction's modeled
//! fabric: a sharded, thread-per-shard scan plane plus a software
//! control plane that admits, schedules, and demultiplexes many
//! concurrent tenant streams.
//!
//! The design follows the software–hardware split end to end:
//!
//! - **Registration** builds the tenant's solo plan through the
//!   pipeline (compile → analyze → map → verify → bound), warm-started
//!   from the in-memory caches and the persistent tiered store — a known
//!   pattern set performs zero compile-stage work — and certifies it
//!   against its shard's residents (`Pipeline::certify`).
//! - **Placement** lands each tenant on the least-loaded shard; the
//!   shard's residents share one co-residency certificate
//!   ([`rap_admit::ComposedPlan`]), re-certified from their solo plans
//!   on every join and leave. No composed plan is built.
//! - **Streaming** feeds each accepted byte once through the session's
//!   own resumable bank run over its verified solo plan — the arrays the
//!   composition certificate proves identical to the tenant's slot range
//!   — never through another tenant's arrays or traffic.
//! - **Backpressure** budgets come from certified quantities (the bank
//!   ping-pong input window and `rap-bound`'s B003 worst-case bank
//!   output-record occupancy), scaled by [`ServeConfig::queue_pages`] —
//!   not from ad-hoc constants.
//! - **Telemetry** is the ops surface: `rap_serve_*` counters, gauges,
//!   and latency histograms land in the shared registry and export
//!   through the existing Prometheus/JSONL paths.
//!
//! Producers are either in-process ([`Server::register`] →
//! [`Session`]) or remote over a framed `std::net` TCP protocol
//! ([`Server::listen`] + [`Client`]); no async runtime is involved.
//!
//! ```
//! use rap_pipeline::{BenchConfig, PatternSet, Pipeline};
//! use rap_serve::{ServeConfig, Server};
//!
//! let server = Server::new(Pipeline::new(BenchConfig::default()), ServeConfig::default());
//! let patterns = PatternSet::parse(&["abc".to_string()]).unwrap();
//! let session = server.register("tenant-a", &patterns).unwrap();
//! session.send(b"xxabcxx").unwrap();
//! session.finish();
//! let events = session.drain();
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].end, 5);
//! ```

mod config;
mod metrics;
mod net;
mod rules;
mod server;
mod session;

pub use config::ServeConfig;
pub use metrics::ServeMetrics;
pub use net::{
    Client, RegisterReply, OP_ACCEPTED, OP_ACK, OP_BYE, OP_CHUNK, OP_EVENTS, OP_FINISH,
    OP_REGISTER, OP_REJECTED, OP_SWAP,
};
pub use rules::{Report, Rule};
pub use server::{ServeError, Server};
pub use session::{SendOutcome, Session, SessionStats};

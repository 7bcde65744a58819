//! `cad-serve` — a concurrent HTTP detection service over the CAD
//! streaming detector.
//!
//! Zero-dependency (std + workspace crates), hand-rolled HTTP/1.1 on
//! `std::net` via the shared [`cad_obs::http`] plumbing. The service
//! turns [`cad_core::OnlineCad`] into a long-lived network resource:
//!
//! * [`session`] — detection sessions (one `OnlineCad` stream each) in
//!   a sharded registry with per-session serialization, a live-session
//!   cap, idle-TTL eviction, and optional per-session push rate
//!   limiting;
//! * [`journal`] — the serve-layer semantics over the [`cad_journal`]
//!   write-ahead log (`--journal-dir`): spec/delta/checkpoint payload
//!   codecs and the boot-time replay that rebuilds every session
//!   bit-identically after a crash;
//! * [`router`] — endpoint semantics: create sessions from a JSON spec,
//!   push snapshots (JSON edge lists or binary `.cadpack` edge deltas),
//!   query status, delete, `/healthz`, `/metrics`, and the
//!   `POST /v1/shutdown` drain trigger;
//! * [`snapshot`] — the one-pass JSON snapshot decoder the snapshot
//!   endpoint and `cad watch` share;
//! * [`server`] — the threads: one accept loop feeding a **bounded**
//!   queue (overflow is shed as `503` + `Retry-After`, counted in
//!   `serve.rejected_backpressure`), a fixed worker pool running
//!   keep-alive connection loops, an idle-session sweeper, and a
//!   graceful drain that finishes in-flight work before joining.
//!
//! The correctness anchor: a session created with a fixed `delta`
//! produces, per pushed snapshot, *bit-identical* anomaly sets and
//! scores to running `cad detect` over the same sequence — serving is
//! a transport, never a different algorithm.

#![warn(missing_docs)]

pub mod journal;
pub mod router;
pub mod server;
pub mod session;
pub mod snapshot;

pub use journal::{recover_all, replay, spec_to_json, RecoveredSession};
pub use router::{graph_error_code, route, Response, RouterCtx, DELTA_CONTENT_TYPE};
pub use server::{AccessLog, ServeConfig, Server, Shutdown};
pub use session::{parse_spec, Session, SessionMap, SessionSpec, TokenBucket};
pub use snapshot::{decode_snapshot, SnapshotError};

//! # doduo-served
//!
//! The online annotation daemon: an always-on HTTP/1.1 server over the
//! batched annotation engine, turning `doduo-serve`'s offline throughput
//! into low-latency live serving — the ROADMAP's production north star.
//!
//! The scaling idea is **dynamic micro-batching**: concurrent single-table
//! requests from independent connections are coalesced in a bounded queue
//! and flushed into one packed forward pass on a
//! *token-budget-or-deadline* policy (flush at N tokens / M sequences, or
//! when the oldest request has waited T ms — whichever comes first). Under
//! load the daemon serves batched-GEMM throughput; an isolated request
//! pays at most T extra milliseconds. Responses are bit-identical to
//! offline [`Annotator::annotate`](doduo_core::Annotator) — batching
//! changes scheduling, never numbers — and the JSON encoder uses
//! shortest-round-trip float formatting, so "bit-identical" is observable
//! as *byte*-identical response bodies.
//!
//! Connections are served by an **epoll reactor**: one thread owns the
//! listener and every parked keep-alive connection, drives per-connection
//! state machines off readiness events, and submits `/v1/annotate` work
//! to the batching queue itself (an `eventfd` wakes it when the dispatcher
//! has a response ready); the one request that may block, a `/v1/model`
//! upload, goes to a loader thread. `POST /v1/annotate_stream` adds a
//! streaming multi-table mode — a chunked upload of table objects answered
//! by a chunked NDJSON stream of per-table results, each emitted as its
//! micro-batch flushes and each byte-identical to the single-table
//! `/v1/annotate` response — served full duplex on the same reactor, as
//! one more connection state.
//!
//! Everything is hand-rolled on `std` (TCP, HTTP, JSON, threads): the
//! workspace is offline-only by policy, and the daemon inherits that.
//!
//! * [`json`] — JSON value parser + the wire codecs (tables in,
//!   annotations out) + the incremental stream splitter.
//! * [`http`] — minimal HTTP/1.1 request/response with chunked framing
//!   (one sans-IO grammar, one response renderer), the unified error
//!   envelope, plus a tiny blocking client for tests and load benches.
//! * [`handler`] — the transport-independent request / response types.
//! * [`reactor`] — the epoll event loop: the connection state machine
//!   (streams included), timer heap, eventfd completion routing, and the
//!   TCP admission control. It is the workspace's one HTTP server:
//!   `doduo-balance`'s front is a second [`reactor::Driver`] on it.
//! * [`queue`] — the deterministic batching core and its `Condvar` wrapper.
//! * [`lifecycle`] — the versioned live model: atomic blue/green hot-swap
//!   (`POST /v1/model`, the only way a model reaches a running daemon)
//!   and per-response `x-model-version` attribution. A replica holds its
//!   model and nothing else.
//! * [`stats`] — latency percentiles and aggregate counters (`/v1/stats`).
//! * [`server`] — reactor wiring, routes, dispatcher, model loader, the
//!   socket-free stream session, graceful shutdown.
//! * [`bootstrap`] — the deterministic synthetic serving world shared by
//!   the daemon's `--synthetic` mode, the `serve_load` bench, and CI.
//! * [`validate`] — the online == offline equivalence check and the
//!   response decoder the repro harness scores served checkpoints with.
//! * [`chaos`] — seeded fault injection (`--chaos`) for testing the
//!   replicated-serving failure paths in `doduo-balance`.
//! * [`cli`] — the `doduo-served` command line as a library function, so
//!   the balancer can embed a replica daemon in a child process.
//!
//! Endpoints are mounted under `/v1` (`POST /v1/annotate`, `POST
//! /v1/annotate_stream`, `POST /v1/model` (hot-swap upload), `GET
//! /v1/healthz` (liveness), `GET /v1/readyz` (readiness), `GET /v1/stats`,
//! `POST /v1/shutdown`); any other path answers `404`.
#![warn(missing_docs)]

pub mod bootstrap;
pub mod chaos;
pub mod cli;
pub mod handler;
pub mod http;
pub mod json;
pub mod lifecycle;
pub mod queue;
pub mod reactor;
pub mod server;
pub mod stats;
pub mod validate;

pub use handler::{HttpRequest, HttpResponse};
pub use lifecycle::{Lifecycle, VersionedEngine};
pub use queue::{BatchPolicy, Batcher, FlushReason, PushRejected, SharedBatcher};
pub use server::{ServeConfig, Server, ServerHandle};
pub use stats::{percentiles, Percentiles, ServerStats};

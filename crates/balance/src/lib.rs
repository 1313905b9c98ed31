//! Fault-tolerant replicated serving for the DODUO daemon.
//!
//! `doduo-balance` turns one `doduo-served` daemon into a shared-nothing
//! replica set behind a single address:
//!
//! * [`supervisor`] — spawns N replica children (same checkpoint, port 0,
//!   addresses discovered via `--port-file`), admits each only after its
//!   `/readyz` probe passes and the committed fleet model — which its
//!   [`Registry`] owns — is installed on it, restarts crashed ones under a
//!   rate-limited restart budget with exponential backoff, and escalates a
//!   replica that exhausts the budget to permanent failure.
//! * [`proxy`] — an HTTP/1.1 keep-alive front, a second driver on the
//!   daemon's epoll reactor (`doduo_served::reactor`), that forwards each
//!   request to a ready replica on a forwarder thread and fails over on
//!   connect errors, first-byte timeouts, and complete `5xx`s — but never
//!   once response bytes have flowed (mid-response failures abort with
//!   `502` after exactly one dispatch). Overload sheds with
//!   `503 + Retry-After`; a parked client costs no thread. Replica links
//!   are pooled `doduo_served::http::Client`s, the workspace's one HTTP
//!   client, which classifies a failure before or after the first
//!   response byte. A `POST /v1/model` upload is a fleet fan-out, all
//!   ready replicas or none.
//! * [`backoff`] — capped exponential backoff with seeded jitter, shared by
//!   request retries and replica restarts.
//!
//! Because `/annotate` is deterministic and side-effect-free, failover is
//! invisible: a retried request yields the same bytes any healthy replica
//! would have produced, preserving the daemon's byte-identity contract
//! end to end.
//!
//! The binary doubles as the replica launcher: `doduo-balance replica
//! <args…>` runs the full `doduo-served` CLI in-process, so supervised
//! deployments (and tests) need only one executable.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backoff;
pub mod proxy;
pub mod supervisor;

pub use backoff::Backoff;
pub use proxy::{BalanceConfig, BalanceHandle, Balancer};
pub use supervisor::{Registry, ReplicaState, SupervisorConfig};

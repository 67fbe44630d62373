//! The GUPT network serve plane.
//!
//! The paper positions GUPT as a hosted service (§3.1): analysts submit
//! programs to a computation manager that owns the data, the privacy
//! budget and the sandbox. Everything below this crate enforces that
//! story in-process; this crate is the *front door* — a threaded TCP
//! server speaking a versioned, length-prefixed JSON protocol over the
//! admission-controlled [`gupt_core::QueryService`].
//!
//! Layout:
//!
//! - [`protocol`] — frame format, request/response schema, and the
//!   mapping from typed [`gupt_core::GuptError`]s to wire status codes
//!   (`503 overloaded` with a retry hint, `408 deadline_exceeded`,
//!   `429 quota_exhausted`, …).
//! - [`catalog`] — resolves wire program specs (`mean:0`,
//!   `histogram:2:10`, …) into sandboxed block programs with stable
//!   cache identities.
//! - [`server`] — the listener, worker pool and request dispatch.
//! - [`client`] — a blocking, pipelining-capable client plus request
//!   payload builders.
//! - [`json`] — the dependency-free JSON reader shared with the bench
//!   harness.
//!
//! Multi-tenancy: datasets register named *principals* with ε quotas
//! carved from the dataset ledger ([`gupt_core::principal`]); the wire
//! `principal` field attributes each query, quota refusals surface as
//! `429`, and — under the `pause_approval` policy — an operator
//! `continue` request resumes a paused principal.
//!
//! Ingest: protocol v2 adds an `append` op that grows a registered
//! dataset in place (delta-only flattening, chained registration
//! epoch), with optional per-principal attribution surfaced in the
//! `stats` response. v1 clients keep working — every v1 op is
//! unchanged — but `append` on a v1 request is refused with a version
//! hint.
//!
//! Streaming: protocol v3 adds `subscribe`/`poll` ops over the
//! runtime's continuous-query plane ([`gupt_core::stream`]). A
//! `subscribe` registers a windowed query (tumbling or sliding, keyed
//! by rows or append batches) and returns a subscription id; each
//! `poll` evaluates the next closed window, debiting its per-window ε
//! from the dataset ledger — attributed to the subscription's
//! principal — or replaying a previously answered window at zero ε.
//! The `stats` response gains the schema-v7 `stream` object. Older
//! clients keep working; `subscribe`/`poll` on a v1/v2 request are
//! refused with a version hint.
//!
//! DP-SQL: protocol v4 adds a `sql` op that ships one DP-SQL statement
//! (compiled server-side by [`gupt_sql`] onto the chamber pipeline)
//! with per-column value ranges and an optional minimum-frequency
//! threshold for `GROUP BY` release. Parse failures surface as
//! `422 parse_error` with `error.detail.line`/`column`; plan failures
//! as `424 plan_error`. Older clients keep working; `sql` on a
//! v1–v3 request is refused with a version hint.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod client;
pub mod json;
mod latency;
pub mod protocol;
pub mod server;

pub use client::{
    continue_payload, poll_payload, recover_payload, shutdown_payload, stats_payload,
    AppendPayload, QueryPayload, ServeClient, SqlPayload, SubscribePayload,
};
pub use protocol::{Status, MAX_FRAME_BYTES, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION};
pub use server::{GuptServer, ServeConfig, ServeStats, ServerHandle};

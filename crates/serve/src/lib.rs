//! # stsyn-serve — a multi-client synthesis job service
//!
//! The ROADMAP's north star is a serving system, not a one-shot CLI: this
//! crate turns the synthesizer into a long-running daemon that accepts
//! jobs from many clients, runs them on a worker pool, survives being
//! `SIGKILL`ed mid-job, and exposes live job control. It is **std-only**
//! (hand-rolled newline-delimited-JSON framing over
//! [`std::net::TcpListener`], in the spirit of the hand-rolled checkpoint
//! frame format) so the workspace still builds fully offline.
//!
//! ## Architecture
//!
//! ```text
//!  clients ──NDJSON/TCP──▶ acceptor ──▶ bounded priority queue ──▶ worker pool
//!                             │              (backpressure)          │ each job:
//!                             │                                      │  Budget +
//!                        job registry ◀───────── results ───────────┘  checkpoint dir
//!                             │
//!                     state dir (spec.json / ckpt/ / result.json)
//! ```
//!
//! * [`queue`] — the bounded priority queue: explicit `queue-full`
//!   rejection, never unbounded memory.
//! * [`server`] — the daemon: job registry, worker pool (one
//!   budget-guarded, checkpointed `stsyn_core::job::JobSpec::run` per
//!   worker), persistent state directory, restart recovery, and the
//!   `submit` / `status` / `result` / `cancel` / `ping` / `stats` /
//!   `shutdown` verbs.
//! * [`router`] — the fleet front door (`stsyn route`): consistent-hashes
//!   idempotency keys across N backend daemons, probes shard health,
//!   fails pending work over to surviving shards by resubmitting under
//!   the same idempotency key, and aggregates fleet-wide stats/metrics.
//! * [`client`] — a blocking client for the wire protocol, with capped
//!   exponential-backoff retry made safe by idempotent submission.
//! * [`wire`] — the job-specification encoding shared by both sides.
//! * [`chaos`] — a deterministic seeded chaos proxy for fault-injection
//!   tests (disconnects, torn frames, slow writes, stalled reads).
//! * [`json`] — the dependency-free JSON layer underneath it all.
//!
//! ## Durability contract
//!
//! Every accepted job is persisted **before** the daemon acknowledges it:
//! its `spec.json` is fsync'd and renamed into place, and the job's
//! directory entry and the rename are fsync'd in turn, so the ack holds
//! across an OS crash. Strong jobs checkpoint their progress through
//! `stsyn-core`'s write-ahead journal. Kill the daemon at any point and
//! the next start re-enqueues in-flight jobs, resuming them from their
//! journals to results byte-identical to uninterrupted runs (the
//! property the crash harness sweeps). The journal is a group commit: a
//! killed daemon loses no journal record, and an OS crash loses at most
//! the records since the last sync (at most a second of work, never a
//! checkpoint-shutdown cut), which the resumed job recomputes.
//! Cancellation is cooperative through the same
//! [`stsyn_symbolic::Budget`] flags the CLI uses, honored within one
//! budget tick-check interval.
//!
//! ## Self-healing
//!
//! The daemon is hardened against its own failure modes: socket
//! deadlines and a connection cap bound hostile or stalled clients, a
//! `catch_unwind` fence plus worker supervision survives panicking jobs,
//! and a durable attempts ledger quarantines poison jobs instead of
//! retrying them forever. The client heals transient faults with
//! jittered exponential backoff; idempotency keys make those retries
//! exactly-once. See `DESIGN.md`'s "Fault model & self-healing" section.

#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod json;
pub mod queue;
pub mod router;
pub mod server;
pub mod wire;

pub use chaos::{ChaosProxy, Direction, Fault, FaultPlan, LinkMode, LinkProxy, XorShift64};
pub use client::{Client, ClientError, RetryPolicy, WatchFrame};
pub use json::Json;
pub use queue::{PriorityQueue, PushError};
pub use router::{HashRing, Router, RouterConfig, RouterHandle, ShardHealth};
pub use server::{Server, ServerConfig, ServerHandle, ShutdownMode};
pub use wire::{ChaosJob, JobSource, SubmitSpec};

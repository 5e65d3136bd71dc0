//! # sweep
//!
//! Process-sharded and networked (benchmark × backend) sweeps.
//!
//! One scheduler ([`serve`]) runs every sweep.  A **one-shot sweep**
//! ([`sharded_spec_experiment`] / [`sharded_tool_comparison`], or the
//! `sweep` CLI) builds a private scheduler over worker OS processes (the
//! `sweep_worker` bin, or `SAN_WORKER=1` re-exec) or a TCP worker fleet,
//! and submits the matrix as one request; the **`sweep serve` daemon**
//! keeps one scheduler alive for many streaming clients.  Either way the
//! matrix is partitioned into shards ([`shard::plan_shards`]), shipped to
//! workers over a versioned line-oriented protocol ([`wire`]), re-queued
//! onto a fresh worker when one crashes or misbehaves (bounded by
//! [`SweepConfig::max_attempts`]), and merged one benchmark at a time
//! into the same `SpecRow`/`SpecExperiment` shapes the in-process sweep
//! produces.
//!
//! Because every per-backend run owns an isolated simulated address space,
//! sharding changes *where* a cell of the matrix executes but never *what*
//! it produces: `tests/sharded_sweep.rs` asserts merged sharded results are
//! byte-identical to both the thread-parallel and the sequential runs for
//! every backend in the registry.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backoff;
pub mod chaos;
pub mod check;
pub mod coordinator;
pub mod json;
pub mod net;
pub mod serve;
pub mod shard;
pub mod wire;
pub mod worker;

pub use backoff::Backoff;
pub use chaos::{Chaos, CHAOS_ENV};
pub use check::{diff_experiments, diff_reports};
pub use coordinator::{
    sharded_spec_experiment, sharded_tool_comparison, ShardStrategy, SweepConfig, SweepError,
    WorkerLaunch,
};
pub use net::{
    client_shutdown, client_stats, client_stats_with, client_sweep, client_sweep_with,
    token_from_env, ClientError, ClientOptions, TOKEN_ENV,
};
pub use shard::{merge_experiment, plan_shards, MergeError, Shard};
pub use wire::{ServiceStats, SweepRequest, WireError, HANDSHAKE, WIRE_VERSION};

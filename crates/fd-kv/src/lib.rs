//! # fd-kv — a durable replicated KV service on the consensus log
//!
//! The serving stack the paper's introduction motivates: each replica
//! runs the replicated log of
//! [`fd-consensus::multi`](fd_consensus::multi) — slot-multiplexed ◇C
//! consensus, each log slot deciding a batch of bit-packed KV commands
//! ([`command`]) — and plugs into it a per-replica durability module:
//! an append-only CRC-framed WAL ([`wal`]), periodic atomic snapshots
//! with log compaction ([`store`]), and crash-restart catch-up from a
//! peer's snapshot + log tail ([`replica`]).
//!
//! The [`scenario`] module registers the `kv` campaign scenario — an
//! open-loop, seed-deterministic client workload under generated
//! crash/restart + partition chaos plans — and [`mod@bench`] distills
//! commit latency (p50/p99/p99.9), failover blackout, and catch-up
//! replay volume per detector class — all in simulated time, hence
//! byte-reproducible — into `BENCH_kv.json` via `ecfd kv-bench`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bench;
pub mod command;
pub mod replica;
pub mod scenario;
pub mod store;
pub mod wal;

pub use bench::{kv_bench, standard_plan};
pub use command::{decode, encode, uid_of, KvOp, MAX_UID};
pub use replica::{Kv, KvConfig, KvMsg, KvReplica, KV_NS};
pub use scenario::{
    commit_latencies, generate_kv_chaos, generate_workload, kv_spec_of, KvRunSpec, KvScenario,
    KvWorkload, KV,
};
pub use store::KvStore;
pub use wal::WalRecord;

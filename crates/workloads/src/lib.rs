//! Workload generation and benchmark driving.
//!
//! Reimplements the two benchmark suites the paper evaluates with:
//!
//! * `dbbench` — LevelDB's `db_bench` operations (`fillseq`,
//!   `fillrandom`, `readseq`, `readrandom`);
//! * `ycsb` — the six YCSB workloads used in Exp#4 (Load, A, B, C, D, F)
//!   over the request distributions in `dist` (Uniform, Zipfian with
//!   α = 0.99, Latest, Sequential);
//! * `driver` — a multi-threaded runner measuring throughput over any
//!   [`cachekv_lsm::KvStore`].

mod dbbench;
mod dist;
mod driver;
mod keys;
mod ycsb;

pub use dbbench::DbBench;
pub use dist::{KeyDist, Latest, Uniform, Zipfian};

pub use driver::{fill, run_ops, run_ops_with_latency, run_ycsb, LatencyStats, Measurement};
pub use keys::{KeyGen, ValueGen};
pub use ycsb::YcsbWorkload;

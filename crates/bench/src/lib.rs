//! # tempest-bench
//!
//! Benchmark harnesses regenerating the paper's evaluation (§IV):
//!
//! | target | reproduces | run with |
//! |---|---|---|
//! | `table1` | Table I — optimal tile/block shapes after auto-tuning WTB | `cargo run -p tempest-bench --release --bin table1` |
//! | `figure9` | Fig. 9 — WTB speedup over spatial blocking, 3 models × SO {4,8,12} | `cargo run -p tempest-bench --release --bin figure9` |
//! | `figure10` | Fig. 10 — speedup vs number of sources (plane / dense layouts) | `cargo run -p tempest-bench --release --bin figure10` |
//! | `figure11` | Fig. 11 — cache-aware roofline for the acoustic kernel | `cargo run -p tempest-bench --release --bin figure11` |
//!
//! All binaries accept `--size N` (grid edge, default 256 — the paper used
//! 512³; pass `--size 512` for paper scale), `--nt N` (timesteps), and
//! `--fast` (small smoke-test configuration). Micro-benches live under
//! `benches/` on the in-repo [`microbench`] harness.

pub mod args;
pub mod microbench;
pub mod report;
pub mod roofline;
pub mod setup;
pub mod sweep;

//! End-to-end and per-layer benchmark of the Clockwork-RS simulator.
//!
//! The binary (`src/main.rs`) drives the public facade API; this library
//! holds the pieces it is built from, so the tests can reach them.

pub mod measure;
pub mod probe;
pub mod procfs;
pub mod stats;
pub mod tap;
pub mod timing;
pub mod workload;

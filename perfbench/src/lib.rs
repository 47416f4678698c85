//! The capnet benchmark: host cost per simulated second on four
//! workloads, per-layer counts from the timed runs, and a per-layer host
//! time breakdown from a traced rig built on the layers' public APIs.
//!
//! The binary (`src/main.rs`) orchestrates; this library holds the parts
//! worth testing on their own. See `README.md` in the package directory.

pub mod alloc_count;
pub mod calib;
pub mod derive;
pub mod metrics;
pub mod rig;
pub mod trace;
pub mod workload;

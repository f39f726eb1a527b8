//! NUMA topology modeling, thread placement, pinning, and NUMA-tagged arenas.
//!
//! This crate is the hardware substrate of the layered-skip-graph reproduction.
//! The paper ("Layering Data Structures over Skip Graphs for Increased NUMA
//! Locality", PODC 2019) was evaluated on a 2-socket, 96-hardware-thread Xeon
//! system with NUMA distances 10 (intra-node) / 21 (inter-node). This crate:
//!
//! * models such a machine as a [`Topology`] (sockets, cores, SMT siblings,
//!   and a distance matrix),
//! * detects the real topology from `/sys` on Linux and falls back to the
//!   paper's machine as a synthetic model when detection is unavailable,
//! * computes a distance-aware [`Placement`] of benchmark threads onto CPUs
//!   ("fill a socket before adding threads to another socket", and renumber
//!   threads so that id distance correlates with physical distance — the
//!   property the paper's membership vectors rely on),
//! * pins threads with `sched_setaffinity` ([`pin_to_cpu`]),
//! * provides a chunked, owner-tagged [`arena::Arena`] that mirrors the
//!   paper's `numa_alloc_local` chunks of 2^20 objects, and the chunk
//!   storage ([`arena::ChunkStorage`]) that puts chunks of 2 MiB or more
//!   on huge pages.
//!
//! # Example
//!
//! ```
//! use numa::{Topology, Placement};
//!
//! let topo = Topology::paper_machine();
//! assert_eq!(topo.num_nodes(), 2);
//! assert_eq!(topo.num_cpus(), 96);
//! assert_eq!(topo.distance(0, 1), 21);
//!
//! // Place 4 benchmark threads: all land on socket 0 (fill-first policy).
//! let placement = Placement::new(&topo, 4);
//! assert!(placement.iter().all(|a| a.numa_node == 0));
//! ```

pub mod arena;
mod pin;
mod placement;
mod topology;

pub use pin::{pin_current_thread, pin_to_cpu};
pub use placement::{Assignment, Placement};
pub use topology::{CpuDesc, Topology};

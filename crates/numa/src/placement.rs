//! Distance-aware placement of benchmark threads onto CPUs.
//!
//! The paper's methodology (Sec. 5):
//!
//! * "Threads are pinned to each CPU, and we fill a socket before adding
//!   threads to another socket."
//! * "We obtain data from /proc/cpuinfo on Linux, then renumber threads so
//!   the larger the absolute difference between thread identifiers 1..T, the
//!   larger the physical distance between their associated CPUs. We consider
//!   NUMA domains, core collocation, and hardware-thread collocation."
//!
//! [`Placement`] implements both: thread slot `i` is assigned the `i`-th CPU
//! in the order (node, core, smt) so that |i - j| correlates with the
//! physical distance between threads `i` and `j`, and a socket fills up
//! completely (all cores, then SMT siblings? no — core-major with its SMT
//! sibling adjacent would *interleave*; the paper fills sockets first and
//! considers hardware-thread collocation the *closest* relation, so slot
//! order is node-major, then core, then SMT sibling: threads 2k and 2k+1
//! share a core when SMT is present).

use crate::topology::{CpuDesc, Topology};

/// The CPU assignment of one benchmark thread slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Dense benchmark thread id (0-based).
    pub thread_id: usize,
    /// OS CPU to pin to.
    pub cpu_id: usize,
    /// NUMA node of that CPU.
    pub numa_node: usize,
    /// Physical core of that CPU.
    pub core_id: usize,
    /// SMT sibling index within the core.
    pub smt_id: usize,
}

/// A placement of `T` benchmark threads onto a topology.
///
/// Threads are ordered so that closer thread ids are physically closer
/// (SMT siblings adjacent, same-socket cores next, remote sockets last),
/// and sockets fill before spilling to the next one. When `T` exceeds the
/// number of CPUs the assignment wraps around (oversubscription), preserving
/// the ordering properties modulo the machine size.
#[derive(Debug, Clone)]
pub struct Placement {
    assignments: Vec<Assignment>,
}

impl Placement {
    /// Computes the placement of `threads` thread slots on `topo`.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(topo: &Topology, threads: usize) -> Self {
        assert!(threads > 0, "placement needs at least one thread");
        // Order the NUMA nodes themselves by distance: start at node 0 and
        // greedily append the nearest unvisited node, so that on machines
        // with more than two (non-uniformly distant) nodes, adjacent node
        // ranks are physically close — the property the membership vectors
        // encode. On two-node machines this is the identity.
        let n = topo.num_nodes();
        let mut order = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        let mut current = 0usize;
        visited[0] = true;
        order.push(0);
        while order.len() < n {
            let next = (0..n)
                .filter(|&c| !visited[c])
                .min_by_key(|&c| topo.distance(current, c))
                .expect("unvisited node");
            visited[next] = true;
            order.push(next);
            current = next;
        }
        let rank_of_node: Vec<usize> = {
            let mut r = vec![0; n];
            for (rank, &node) in order.iter().enumerate() {
                r[node] = rank;
            }
            r
        };
        let mut cpus: Vec<CpuDesc> = topo.cpus().to_vec();
        // Node-rank-major, then core, then SMT: SMT siblings are adjacent
        // slots, and a whole socket precedes the next one.
        cpus.sort_by_key(|c| (rank_of_node[c.numa_node], c.core_id, c.smt_id, c.cpu_id));
        let assignments = (0..threads)
            .map(|t| {
                let c = cpus[t % cpus.len()];
                Assignment {
                    thread_id: t,
                    cpu_id: c.cpu_id,
                    numa_node: c.numa_node,
                    core_id: c.core_id,
                    smt_id: c.smt_id,
                }
            })
            .collect();
        Self { assignments }
    }

    /// Number of thread slots.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// True if the placement has no slots (never happens via [`Placement::new`]).
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Assignment of a thread slot.
    ///
    /// # Panics
    ///
    /// Panics if `thread_id >= len()`.
    pub fn assignment(&self, thread_id: usize) -> Assignment {
        self.assignments[thread_id]
    }

    /// Iterates over all assignments in thread-id order.
    pub fn iter(&self) -> impl Iterator<Item = &Assignment> {
        self.assignments.iter()
    }

    /// The NUMA node of each thread slot, indexed by thread id. This is the
    /// vector the instrumentation uses to classify accesses as local/remote.
    pub fn numa_nodes(&self) -> Vec<usize> {
        self.assignments.iter().map(|a| a.numa_node).collect()
    }

    /// Number of NUMA nodes that actually host at least one thread slot.
    ///
    /// With few threads a multi-socket machine fills only its first
    /// socket(s); replica-per-socket layers size themselves off this
    /// (one replica per *populated* node) rather than the topology's node
    /// count, so an idle socket doesn't pay for a replica nobody reads.
    pub fn distinct_nodes(&self) -> usize {
        let mut nodes: Vec<usize> = self.assignments.iter().map(|a| a.numa_node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> Topology {
        Topology::paper_machine()
    }

    #[test]
    fn fills_socket_first() {
        let p = Placement::new(&paper(), 48);
        assert!(
            p.iter().all(|a| a.numa_node == 0),
            "48 threads fit socket 0"
        );
        let p = Placement::new(&paper(), 96);
        assert_eq!(p.iter().filter(|a| a.numa_node == 0).count(), 48);
        assert_eq!(p.iter().filter(|a| a.numa_node == 1).count(), 48);
        // The second socket starts exactly at slot 48.
        assert_eq!(p.assignment(47).numa_node, 0);
        assert_eq!(p.assignment(48).numa_node, 1);
    }

    #[test]
    fn smt_siblings_are_adjacent_slots() {
        let p = Placement::new(&paper(), 96);
        for k in 0..48 {
            let a = p.assignment(2 * k);
            let b = p.assignment(2 * k + 1);
            assert_eq!(a.core_id, b.core_id, "slots {} and {}", 2 * k, 2 * k + 1);
            assert_ne!(a.cpu_id, b.cpu_id);
        }
    }

    #[test]
    fn id_distance_tracks_physical_distance() {
        let p = Placement::new(&paper(), 96);
        // Same node for close ids, different node across the socket boundary.
        assert_eq!(p.assignment(0).numa_node, p.assignment(10).numa_node);
        assert_ne!(p.assignment(0).numa_node, p.assignment(95).numa_node);
    }

    #[test]
    fn oversubscription_wraps() {
        let p = Placement::new(&paper(), 200);
        assert_eq!(p.len(), 200);
        assert_eq!(p.assignment(0).cpu_id, p.assignment(96).cpu_id);
    }

    #[test]
    fn distinct_cpus_until_machine_full() {
        let p = Placement::new(&paper(), 96);
        let mut cpus: Vec<_> = p.iter().map(|a| a.cpu_id).collect();
        cpus.sort_unstable();
        cpus.dedup();
        assert_eq!(cpus.len(), 96);
    }

    #[test]
    fn numa_nodes_vector_matches_assignments() {
        let p = Placement::new(&paper(), 50);
        let nodes = p.numa_nodes();
        assert_eq!(nodes.len(), 50);
        for (i, &n) in nodes.iter().enumerate() {
            assert_eq!(n, p.assignment(i).numa_node);
        }
    }

    #[test]
    fn distinct_nodes_counts_populated_sockets_only() {
        // 48 threads fit socket 0 of the paper machine; 96 span both.
        assert_eq!(Placement::new(&paper(), 48).distinct_nodes(), 1);
        assert_eq!(Placement::new(&paper(), 96).distinct_nodes(), 2);
    }

    #[test]
    #[should_panic]
    fn zero_threads_panics() {
        let _ = Placement::new(&paper(), 0);
    }

    #[test]
    fn four_node_machines_order_by_distance() {
        // A 4-node machine where node 0's nearest neighbour is node 2,
        // node 2's nearest unvisited is node 3, then node 1: the greedy
        // node ordering must fill sockets in 0, 2, 3, 1 order.
        #[rustfmt::skip]
        let d = vec![
            10, 30, 12, 21,
            30, 10, 25, 16,
            12, 25, 10, 14,
            21, 16, 14, 10,
        ];
        let t = Topology::with_distances(4, 2, 1, d);
        let p = Placement::new(&t, 8);
        let order: Vec<usize> = (0..4).map(|i| p.assignment(i * 2).numa_node).collect();
        assert_eq!(order, vec![0, 2, 3, 1]);
        // And with uniform distances, identity order.
        let t = Topology::synthetic(4, 2, 1, 10, 21);
        let p = Placement::new(&t, 8);
        let order: Vec<usize> = (0..4).map(|i| p.assignment(i * 2).numa_node).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }
}

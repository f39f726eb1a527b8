//! NUMA topology description: CPUs, their socket/core/SMT coordinates, and
//! the inter-node distance matrix.

use std::fmt;
use std::fs;
use std::path::Path;

/// One logical CPU (hardware thread) and its position in the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpuDesc {
    /// OS CPU id (the id used with `sched_setaffinity`).
    pub cpu_id: usize,
    /// NUMA node (socket) the CPU belongs to.
    pub numa_node: usize,
    /// Physical core id within the machine (SMT siblings share it).
    pub core_id: usize,
    /// SMT sibling index within the core (0 for the first hyperthread).
    pub smt_id: usize,
}

/// A machine topology: a set of CPUs grouped into NUMA nodes plus a
/// node-to-node distance matrix (in the units reported by
/// `numactl --hardware`, where 10 means "local").
///
/// The evaluation machine of the paper is available as
/// [`Topology::paper_machine`]: 2 nodes x 24 cores x 2 SMT = 96 hardware
/// threads, distances 10 / 21.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    cpus: Vec<CpuDesc>,
    num_nodes: usize,
    /// Row-major `num_nodes x num_nodes` distance matrix.
    distances: Vec<u32>,
}

impl Topology {
    /// Builds a synthetic topology of `nodes` NUMA nodes, each with
    /// `cores_per_node` physical cores of `smt_per_core` hardware threads.
    ///
    /// CPU ids are assigned the way Linux enumerates most two-socket Xeons:
    /// first one hardware thread of every core across all sockets
    /// (node-major), then the SMT siblings in the same order.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn synthetic(
        nodes: usize,
        cores_per_node: usize,
        smt_per_core: usize,
        intra_distance: u32,
        inter_distance: u32,
    ) -> Self {
        assert!(nodes > 0 && cores_per_node > 0 && smt_per_core > 0);
        let total_cores = nodes * cores_per_node;
        let mut cpus = Vec::with_capacity(total_cores * smt_per_core);
        for smt in 0..smt_per_core {
            for node in 0..nodes {
                for core_in_node in 0..cores_per_node {
                    let core_id = node * cores_per_node + core_in_node;
                    cpus.push(CpuDesc {
                        cpu_id: smt * total_cores + core_id,
                        numa_node: node,
                        core_id,
                        smt_id: smt,
                    });
                }
            }
        }
        let mut distances = vec![inter_distance; nodes * nodes];
        for n in 0..nodes {
            distances[n * nodes + n] = intra_distance;
        }
        Self {
            cpus,
            num_nodes: nodes,
            distances,
        }
    }

    /// A synthetic topology with an explicit distance matrix (row-major,
    /// `nodes x nodes`), for modeling machines with non-uniform NUMA
    /// distances (e.g. 4-socket rings).
    ///
    /// # Panics
    ///
    /// Panics if `distances.len() != nodes * nodes` or any dimension is 0.
    pub fn with_distances(
        nodes: usize,
        cores_per_node: usize,
        smt_per_core: usize,
        distances: Vec<u32>,
    ) -> Self {
        assert_eq!(distances.len(), nodes * nodes, "distance matrix shape");
        let mut t = Self::synthetic(nodes, cores_per_node, smt_per_core, 10, 21);
        t.distances = distances;
        t
    }

    /// The machine used in the paper's evaluation: 2 Intel Xeon Platinum
    /// 8275CL sockets, 24 cores each, 2-way SMT (96 hardware threads), with
    /// `numactl --hardware` distances 10 (intra) and 21 (inter).
    pub fn paper_machine() -> Self {
        Self::synthetic(2, 24, 2, 10, 21)
    }

    /// Detects the topology of the current machine from
    /// `/sys/devices/system/{node,cpu}`. Returns `None` when the information
    /// is unavailable (non-Linux, containers without sysfs, ...).
    pub fn detect() -> Option<Self> {
        Self::detect_from(Path::new("/sys/devices/system"))
    }

    /// The topology used by benchmarks: the real machine when detectable and
    /// NUMA (more than one node), otherwise the paper's machine as a model.
    ///
    /// The paper's locality metrics (heatmaps, local/remote CAS counts) are
    /// manual instrumentation of thread-to-owner access patterns, so running
    /// them against the *modeled* machine preserves their meaning even when
    /// the host has a single NUMA node.
    pub fn detect_or_paper() -> Self {
        match Self::detect() {
            Some(t) if t.num_nodes() > 1 => t,
            _ => Self::paper_machine(),
        }
    }

    /// Parses a sysfs-like directory layout. Split out for testability.
    pub(crate) fn detect_from(sys: &Path) -> Option<Self> {
        let node_dir = sys.join("node");
        let mut nodes: Vec<usize> = fs::read_dir(&node_dir)
            .ok()?
            .filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                name.strip_prefix("node")?.parse::<usize>().ok()
            })
            .collect();
        if nodes.is_empty() {
            return None;
        }
        nodes.sort_unstable();
        let num_nodes = nodes.len();
        // Distance matrix: one row per node in `/sys/devices/system/node/nodeN/distance`.
        let mut distances = vec![10u32; num_nodes * num_nodes];
        for (row, &n) in nodes.iter().enumerate() {
            if let Ok(text) = fs::read_to_string(node_dir.join(format!("node{n}/distance"))) {
                for (col, tok) in text.split_whitespace().enumerate().take(num_nodes) {
                    if let Ok(d) = tok.parse::<u32>() {
                        distances[row * num_nodes + col] = d;
                    }
                }
            }
        }
        // CPUs per node from nodeN/cpulist.
        let mut cpus = Vec::new();
        for (node_idx, &n) in nodes.iter().enumerate() {
            let list = fs::read_to_string(node_dir.join(format!("node{n}/cpulist"))).ok()?;
            for cpu_id in parse_cpulist(&list) {
                let core_id =
                    fs::read_to_string(sys.join(format!("cpu/cpu{cpu_id}/topology/core_id")))
                        .ok()
                        .and_then(|s| s.trim().parse::<usize>().ok())
                        .unwrap_or(cpu_id);
                cpus.push(CpuDesc {
                    cpu_id,
                    numa_node: node_idx,
                    // Disambiguate same core_id across sockets.
                    core_id: node_idx << 16 | core_id,
                    smt_id: 0, // fixed up below
                });
            }
        }
        if cpus.is_empty() {
            return None;
        }
        cpus.sort_by_key(|c| (c.core_id, c.cpu_id));
        let mut prev_core = usize::MAX;
        let mut smt = 0;
        for c in &mut cpus {
            if c.core_id == prev_core {
                smt += 1;
            } else {
                smt = 0;
                prev_core = c.core_id;
            }
            c.smt_id = smt;
        }
        cpus.sort_by_key(|c| c.cpu_id);
        Some(Self {
            cpus,
            num_nodes,
            distances,
        })
    }

    /// Number of NUMA nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of logical CPUs (hardware threads).
    pub fn num_cpus(&self) -> usize {
        self.cpus.len()
    }

    /// All CPUs, ordered by OS CPU id.
    pub fn cpus(&self) -> &[CpuDesc] {
        &self.cpus
    }

    /// NUMA distance between two nodes, as reported by `numactl --hardware`
    /// (10 = local).
    ///
    /// # Panics
    ///
    /// Panics if either node index is out of range.
    pub fn distance(&self, a: usize, b: usize) -> u32 {
        assert!(
            a < self.num_nodes && b < self.num_nodes,
            "node out of range"
        );
        self.distances[a * self.num_nodes + b]
    }

    /// The NUMA node of an OS CPU id, if the CPU exists.
    pub fn node_of_cpu(&self, cpu_id: usize) -> Option<usize> {
        self.cpus
            .iter()
            .find(|c| c.cpu_id == cpu_id)
            .map(|c| c.numa_node)
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} NUMA node(s), {} CPU(s)",
            self.num_nodes,
            self.cpus.len()
        )
    }
}

/// Parses a Linux cpulist string such as `"0-3,8,10-11"`.
fn parse_cpulist(s: &str) -> Vec<usize> {
    let mut out = Vec::new();
    for part in s.trim().split(',') {
        if part.is_empty() {
            continue;
        }
        if let Some((a, b)) = part.split_once('-') {
            if let (Ok(a), Ok(b)) = (a.trim().parse::<usize>(), b.trim().parse::<usize>()) {
                out.extend(a..=b);
            }
        } else if let Ok(v) = part.trim().parse::<usize>() {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_dimensions() {
        let t = Topology::paper_machine();
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.num_cpus(), 96);
        assert_eq!(t.distance(0, 0), 10);
        assert_eq!(t.distance(1, 1), 10);
        assert_eq!(t.distance(0, 1), 21);
        assert_eq!(t.distance(1, 0), 21);
    }

    #[test]
    fn synthetic_cpu_enumeration_is_linux_like() {
        // On a 2x2x2 machine, cpu ids 0..4 are the first hyperthreads and
        // 4..8 their SMT siblings; node 0 owns {0,1,4,5}.
        let t = Topology::synthetic(2, 2, 2, 10, 21);
        assert_eq!(t.num_cpus(), 8);
        assert_eq!(t.node_of_cpu(0), Some(0));
        assert_eq!(t.node_of_cpu(1), Some(0));
        assert_eq!(t.node_of_cpu(2), Some(1));
        assert_eq!(t.node_of_cpu(4), Some(0));
        assert_eq!(t.node_of_cpu(6), Some(1));
        let c0 = t.cpus().iter().find(|c| c.cpu_id == 0).unwrap();
        let c4 = t.cpus().iter().find(|c| c.cpu_id == 4).unwrap();
        assert_eq!(c0.core_id, c4.core_id);
        assert_eq!(c0.smt_id, 0);
        assert_eq!(c4.smt_id, 1);
    }

    #[test]
    fn synthetic_smt_siblings_share_core() {
        let t = Topology::synthetic(2, 24, 2, 10, 21);
        for core in 0..48 {
            let siblings: Vec<_> = t.cpus().iter().filter(|c| c.core_id == core).collect();
            assert_eq!(siblings.len(), 2);
            assert_eq!(siblings[0].numa_node, siblings[1].numa_node);
        }
    }

    #[test]
    fn parse_cpulist_variants() {
        assert_eq!(parse_cpulist("0-3"), vec![0, 1, 2, 3]);
        assert_eq!(parse_cpulist("0,2,4"), vec![0, 2, 4]);
        assert_eq!(parse_cpulist("0-1,8-9\n"), vec![0, 1, 8, 9]);
        assert_eq!(parse_cpulist(""), Vec::<usize>::new());
        assert_eq!(parse_cpulist("5"), vec![5]);
    }

    #[test]
    fn detect_from_missing_dir_is_none() {
        assert!(Topology::detect_from(Path::new("/nonexistent-sys")).is_none());
    }

    #[test]
    fn detect_from_fake_sysfs() {
        let dir = std::env::temp_dir().join(format!("numa-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        for n in 0..2 {
            fs::create_dir_all(dir.join(format!("node/node{n}"))).unwrap();
        }
        fs::write(dir.join("node/node0/cpulist"), "0-1\n").unwrap();
        fs::write(dir.join("node/node1/cpulist"), "2-3\n").unwrap();
        fs::write(dir.join("node/node0/distance"), "10 21\n").unwrap();
        fs::write(dir.join("node/node1/distance"), "21 10\n").unwrap();
        for c in 0..4 {
            fs::create_dir_all(dir.join(format!("cpu/cpu{c}/topology"))).unwrap();
            fs::write(
                dir.join(format!("cpu/cpu{c}/topology/core_id")),
                format!("{}\n", c % 2),
            )
            .unwrap();
        }
        let t = Topology::detect_from(&dir).expect("detect");
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.num_cpus(), 4);
        assert_eq!(t.distance(0, 1), 21);
        assert_eq!(t.node_of_cpu(2), Some(1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn detect_or_paper_always_returns_something() {
        let t = Topology::detect_or_paper();
        assert!(t.num_cpus() > 0);
        assert!(t.num_nodes() >= 1);
    }
}

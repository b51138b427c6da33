//! Memory-controller interconnect graphs (paper Fig. 1 and Fig. 2).
//!
//! In UMA every socket reaches the single controller over its own
//! front-side bus (no controller-to-controller network). In NUMA the
//! controllers form a network; the number of hops a remote request crosses
//! determines its extra latency. The Intel NUMA machine has two directly
//! linked controllers (0 or 1 hop); the AMD machine has eight controllers
//! in a partial mesh with distances 0, 1 or 2 (§III-A: "three latencies of
//! accessing the memory — direct, one hop and two hops").

use crate::ids::McId;
use crate::machine::SpecError;

/// The flavour of memory architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterconnectKind {
    /// All sockets share one memory controller (Fig. 1a).
    Uma,
    /// Each socket owns local controller(s); remote access crosses the
    /// controller network (Fig. 1b).
    Numa,
}

/// The memory interconnect: architecture kind plus the hop-distance matrix
/// between memory controllers.
#[derive(Debug, Clone)]
pub struct Interconnect {
    kind: InterconnectKind,
    /// `hops[a][b]` = number of network hops between controllers a and b.
    hops: Vec<Vec<u32>>,
    /// Extra latency (cycles) per hop crossed by a remote request.
    hop_latency: u64,
    /// Fixed extra latency (cycles) for any remote (off-socket) request,
    /// independent of hop count (protocol/serialisation overhead).
    remote_base_latency: u64,
    /// Cycles a remote request occupies its inter-socket link per cache
    /// line (the QPI/HyperTransport *bandwidth* bound; 0 = unmodelled).
    link_transfer: u64,
}

impl Interconnect {
    /// A UMA interconnect: one controller, all access "local" to it
    /// (the per-socket bus latency is modelled by the machine simulator's
    /// bus component, not here).
    pub fn uma() -> Interconnect {
        Interconnect {
            kind: InterconnectKind::Uma,
            hops: vec![vec![0]],
            hop_latency: 0,
            remote_base_latency: 0,
            link_transfer: 0,
        }
    }

    /// A NUMA interconnect built from an undirected adjacency list over
    /// `n_mcs` controllers. Hop distances are all-pairs shortest paths.
    ///
    /// # Panics
    /// Panics if an edge references an out-of-range controller, if
    /// `n_mcs == 0`, or if the graph is disconnected (a controller that
    /// cannot be reached would make remote memory inaccessible). Use
    /// [`Interconnect::try_numa`] to get these as typed errors instead —
    /// the panicking form is for the static presets, where a violation is
    /// a bug, not data.
    pub fn numa(
        n_mcs: usize,
        edges: &[(usize, usize)],
        hop_latency: u64,
        remote_base_latency: u64,
    ) -> Interconnect {
        Self::try_numa(n_mcs, edges, hop_latency, remote_base_latency)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Interconnect::numa`] for specs built from
    /// untrusted input (config files, CLI flags).
    pub fn try_numa(
        n_mcs: usize,
        edges: &[(usize, usize)],
        hop_latency: u64,
        remote_base_latency: u64,
    ) -> Result<Interconnect, SpecError> {
        if n_mcs == 0 {
            return Err(SpecError::NoControllers);
        }
        let mut adj = vec![Vec::new(); n_mcs];
        for &(a, b) in edges {
            if a >= n_mcs || b >= n_mcs {
                return Err(SpecError::EdgeOutOfRange { a, b, n_mcs });
            }
            if a == b {
                return Err(SpecError::SelfLoop { mc: a });
            }
            adj[a].push(b);
            adj[b].push(a);
        }
        // BFS from each node.
        let mut hops = vec![vec![u32::MAX; n_mcs]; n_mcs];
        for (start, _) in adj.iter().enumerate() {
            let dist = &mut hops[start];
            dist[start] = 0;
            let mut frontier = vec![start];
            while let Some(u) = frontier.pop() {
                let next: Vec<usize> = adj[u]
                    .iter()
                    .copied()
                    .filter(|&v| dist[v] == u32::MAX)
                    .collect();
                for v in next {
                    dist[v] = dist[u] + 1;
                    frontier.insert(0, v); // queue semantics
                }
            }
            if dist.contains(&u32::MAX) {
                return Err(SpecError::Disconnected { from: start });
            }
        }
        Ok(Interconnect {
            kind: InterconnectKind::Numa,
            hops,
            hop_latency,
            remote_base_latency,
            link_transfer: 0,
        })
    }

    /// A NUMA interconnect from an explicit hop-distance matrix (e.g. read
    /// from a machine-description file), validated for consistency:
    /// square, symmetric, zero exactly on the diagonal, and obeying the
    /// triangle inequality — anything else cannot be the shortest-path
    /// metric of a physical controller network.
    pub fn numa_from_hops(
        hops: Vec<Vec<u32>>,
        hop_latency: u64,
        remote_base_latency: u64,
    ) -> Result<Interconnect, SpecError> {
        let ic = Interconnect {
            kind: InterconnectKind::Numa,
            hops,
            hop_latency,
            remote_base_latency,
            link_transfer: 0,
        };
        ic.check_hop_table()?;
        Ok(ic)
    }

    /// Checks the hop table for internal consistency (see
    /// [`Interconnect::numa_from_hops`]). Tables produced by the BFS
    /// constructors satisfy this by construction; specs assembled by hand
    /// or deserialised may not.
    pub fn check_hop_table(&self) -> Result<(), SpecError> {
        let n = self.hops.len();
        if n == 0 {
            return Err(SpecError::NoControllers);
        }
        for (a, row) in self.hops.iter().enumerate() {
            if row.len() != n {
                return Err(SpecError::AsymmetricHops { a, b: row.len() });
            }
            if row[a] != 0 {
                return Err(SpecError::NonZeroSelfDistance { mc: a });
            }
            for (b, &d) in row.iter().enumerate() {
                if b != a && d == 0 {
                    return Err(SpecError::ZeroDistance { a, b });
                }
                if self.hops[b][a] != d {
                    return Err(SpecError::AsymmetricHops { a, b });
                }
            }
        }
        for a in 0..n {
            for b in 0..n {
                for via in 0..n {
                    let through = self.hops[a][via].saturating_add(self.hops[via][b]);
                    if through < self.hops[a][b] {
                        return Err(SpecError::TriangleViolation { a, b, via });
                    }
                }
            }
        }
        Ok(())
    }

    /// Sets the per-line link occupancy (inter-socket bandwidth bound).
    pub fn with_link_transfer(mut self, cycles: u64) -> Interconnect {
        self.link_transfer = cycles;
        self
    }

    /// Cycles a remote line occupies its link (0 when unmodelled).
    #[inline]
    pub fn link_transfer(&self) -> u64 {
        self.link_transfer
    }

    /// Architecture kind.
    #[inline]
    pub fn kind(&self) -> InterconnectKind {
        self.kind
    }

    /// Number of memory controllers in the network.
    #[inline]
    pub fn n_mcs(&self) -> usize {
        self.hops.len()
    }

    /// Hop distance between two controllers.
    pub fn hops(&self, from: McId, to: McId) -> u32 {
        self.hops[from.index()][to.index()]
    }

    /// Extra request latency, in cycles, for a request that originates at a
    /// core whose local controller is `from` but is served by `to`.
    /// Zero for a local access.
    pub fn remote_penalty(&self, from: McId, to: McId) -> u64 {
        let h = self.hops(from, to) as u64;
        if h == 0 {
            0
        } else {
            self.remote_base_latency + h * self.hop_latency
        }
    }

    /// Maximum hop distance in the network (the network diameter).
    pub fn diameter(&self) -> u32 {
        self.hops
            .iter()
            .flat_map(|row| row.iter().copied())
            .max()
            .unwrap_or(0)
    }

    /// The distinct hop distances from `from` to every controller,
    /// ascending — e.g. `[0, 1, 2]` on the AMD machine. Used by the model's
    /// latency-weighted ρ (§IV: "ρ is a average weighted to the number of
    /// memory requests to each of the remote memories").
    pub fn distance_classes(&self, from: McId) -> Vec<u32> {
        let mut classes: Vec<u32> = self.hops[from.index()].clone();
        classes.sort_unstable();
        classes.dedup();
        classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uma_is_single_node() {
        let ic = Interconnect::uma();
        assert_eq!(ic.kind(), InterconnectKind::Uma);
        assert_eq!(ic.n_mcs(), 1);
        assert_eq!(ic.hops(McId(0), McId(0)), 0);
        assert_eq!(ic.remote_penalty(McId(0), McId(0)), 0);
        assert_eq!(ic.diameter(), 0);
    }

    #[test]
    fn two_node_link() {
        let ic = Interconnect::numa(2, &[(0, 1)], 60, 40);
        assert_eq!(ic.hops(McId(0), McId(1)), 1);
        assert_eq!(ic.remote_penalty(McId(0), McId(1)), 100);
        assert_eq!(ic.remote_penalty(McId(1), McId(1)), 0);
        assert_eq!(ic.diameter(), 1);
        assert_eq!(ic.distance_classes(McId(0)), vec![0, 1]);
    }

    #[test]
    fn bfs_shortest_paths_on_a_path_graph() {
        let ic = Interconnect::numa(4, &[(0, 1), (1, 2), (2, 3)], 10, 0);
        assert_eq!(ic.hops(McId(0), McId(3)), 3);
        assert_eq!(ic.hops(McId(3), McId(0)), 3, "symmetric");
        assert_eq!(ic.hops(McId(1), McId(3)), 2);
        assert_eq!(ic.remote_penalty(McId(0), McId(3)), 30);
        assert_eq!(ic.diameter(), 3);
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn disconnected_graph_rejected() {
        Interconnect::numa(3, &[(0, 1)], 10, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_rejected() {
        Interconnect::numa(2, &[(0, 2)], 10, 0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        Interconnect::numa(2, &[(1, 1)], 10, 0);
    }

    #[test]
    fn try_numa_reports_typed_errors() {
        assert_eq!(
            Interconnect::try_numa(0, &[], 1, 0).unwrap_err(),
            SpecError::NoControllers
        );
        assert_eq!(
            Interconnect::try_numa(2, &[(0, 2)], 1, 0).unwrap_err(),
            SpecError::EdgeOutOfRange {
                a: 0,
                b: 2,
                n_mcs: 2
            }
        );
        assert_eq!(
            Interconnect::try_numa(2, &[(1, 1)], 1, 0).unwrap_err(),
            SpecError::SelfLoop { mc: 1 }
        );
        assert_eq!(
            Interconnect::try_numa(3, &[(0, 1)], 1, 0).unwrap_err(),
            SpecError::Disconnected { from: 0 }
        );
    }

    #[test]
    fn hop_table_consistency_checked() {
        // A consistent 3-node path metric.
        let good = vec![vec![0, 1, 2], vec![1, 0, 1], vec![2, 1, 0]];
        let ic = Interconnect::numa_from_hops(good, 10, 5).unwrap();
        assert_eq!(ic.diameter(), 2);
        assert_eq!(ic.remote_penalty(McId(0), McId(2)), 25);

        // Asymmetric.
        let bad = vec![vec![0, 1], vec![2, 0]];
        assert_eq!(
            Interconnect::numa_from_hops(bad, 10, 5).unwrap_err(),
            SpecError::AsymmetricHops { a: 0, b: 1 }
        );
        // Non-zero diagonal.
        let bad = vec![vec![1, 1], vec![1, 0]];
        assert_eq!(
            Interconnect::numa_from_hops(bad, 10, 5).unwrap_err(),
            SpecError::NonZeroSelfDistance { mc: 0 }
        );
        // Zero distance between distinct controllers.
        let bad = vec![vec![0, 0], vec![0, 0]];
        assert_eq!(
            Interconnect::numa_from_hops(bad, 10, 5).unwrap_err(),
            SpecError::ZeroDistance { a: 0, b: 1 }
        );
        // Triangle violation: 0->2 direct is 5, but via 1 it is 2.
        let bad = vec![vec![0, 1, 5], vec![1, 0, 1], vec![5, 1, 0]];
        assert_eq!(
            Interconnect::numa_from_hops(bad, 10, 5).unwrap_err(),
            SpecError::TriangleViolation { a: 0, b: 2, via: 1 }
        );
        // BFS-built tables are consistent by construction.
        Interconnect::numa(4, &[(0, 1), (1, 2), (2, 3)], 10, 0)
            .check_hop_table()
            .unwrap();
    }

    #[test]
    fn distance_classes_sorted_unique() {
        // Star: node 0 at centre.
        let ic = Interconnect::numa(4, &[(0, 1), (0, 2), (0, 3)], 5, 0);
        assert_eq!(ic.distance_classes(McId(0)), vec![0, 1]);
        assert_eq!(ic.distance_classes(McId(1)), vec![0, 1, 2]);
    }
}

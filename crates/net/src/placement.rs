//! Node placement and spanning-tree construction.
//!
//! Following Section 5: "we start with a given rectangular space and a root
//! node, place a number of nodes randomly within the space, and then, while
//! adhering to mote radio distance limits, build a spanning tree over them
//! where each node is as few hops from the root as possible" — i.e. a BFS
//! (min-hop) tree over the radio-connectivity graph.

use crate::node::NodeId;
use crate::topology::{Topology, TopologyError};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt;

/// A point in the deployment field (meters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Position {
    pub x: f64,
    pub y: f64,
}

impl Position {
    /// Euclidean distance to `other`.
    pub fn distance(&self, other: &Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// A deployed network: positions plus the routing tree built over them.
#[derive(Debug, Clone)]
pub struct Network {
    pub topology: Topology,
    pub positions: Vec<Position>,
    /// Zone id per node for contention-zone layouts (`None` = background).
    pub zone: Vec<Option<usize>>,
}

impl Network {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.topology.len()
    }

    /// True when the network has no nodes (never for a built network).
    pub fn is_empty(&self) -> bool {
        self.topology.is_empty()
    }
}

/// Errors from network construction.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementError {
    /// The radio graph is disconnected even after the configured retries.
    Disconnected { attempts: usize },
    /// Invalid tree structure (should not happen for BFS construction).
    Topology(TopologyError),
    /// Parameters out of range (e.g. zero nodes).
    BadParameters(&'static str),
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::Disconnected { attempts } => {
                write!(f, "radio graph disconnected after {attempts} placement attempts")
            }
            PlacementError::Topology(e) => write!(f, "topology error: {e}"),
            PlacementError::BadParameters(s) => write!(f, "bad parameters: {s}"),
        }
    }
}

impl std::error::Error for PlacementError {}

/// Builds the min-hop (BFS) spanning tree over the unit-disk radio graph.
/// Node 0 is the root. Returns `None` when the graph is disconnected.
pub fn min_hop_tree(positions: &[Position], radio_range: f64) -> Option<Topology> {
    let n = positions.len();
    if n == 0 {
        return None;
    }
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    visited[0] = true;
    queue.push_back(0usize);
    let mut count = 1;
    while let Some(u) = queue.pop_front() {
        // Deterministic neighbor order: index order.
        for v in 0..n {
            if !visited[v] && positions[u].distance(&positions[v]) <= radio_range {
                visited[v] = true;
                parent[v] = Some(NodeId::from_index(u));
                queue.push_back(v);
                count += 1;
            }
        }
    }
    if count != n {
        return None;
    }
    Topology::from_parents(NodeId(0), parent).ok()
}

/// Contention-zone layout parameters (Figures 5–7 of the paper): zones are
/// "spaced evenly around its perimeter with the query root in the center".
#[derive(Debug, Clone)]
pub struct ZoneLayout {
    /// Number of contention zones.
    pub zones: usize,
    /// Nodes per zone (the paper uses `2k`).
    pub nodes_per_zone: usize,
    /// Radius of the cluster each zone's nodes are scattered in.
    pub zone_radius: f64,
}

/// Builder for random deployments.
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    n: usize,
    width: f64,
    height: f64,
    radio_range: f64,
    seed: u64,
    max_attempts: usize,
    zone_layout: Option<ZoneLayout>,
}

impl NetworkBuilder {
    /// `n` nodes (including the root) in a `width × height` field.
    pub fn new(n: usize, width: f64, height: f64, radio_range: f64) -> Self {
        NetworkBuilder {
            n,
            width,
            height,
            radio_range,
            seed: 0,
            max_attempts: 64,
            zone_layout: None,
        }
    }

    /// RNG seed (placements are fully deterministic given the seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// How many placements to try before giving up on connectivity.
    pub fn max_attempts(mut self, attempts: usize) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Adds contention zones around the perimeter (root in the center);
    /// `n` then counts only the background nodes.
    pub fn zones(mut self, layout: ZoneLayout) -> Self {
        self.zone_layout = Some(layout);
        self
    }

    /// Places nodes and builds the min-hop tree, retrying placement with
    /// fresh randomness until the radio graph is connected.
    pub fn build(&self) -> Result<Network, PlacementError> {
        if self.n == 0 {
            return Err(PlacementError::BadParameters("n must be positive"));
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        for attempt in 0..self.max_attempts {
            let _ = attempt;
            let (positions, zone) = self.place(&mut rng);
            if let Some(topology) = min_hop_tree(&positions, self.radio_range) {
                return Ok(Network { topology, positions, zone });
            }
        }
        Err(PlacementError::Disconnected { attempts: self.max_attempts })
    }

    fn place(&self, rng: &mut StdRng) -> (Vec<Position>, Vec<Option<usize>>) {
        let mut positions = Vec::new();
        let mut zone = Vec::new();

        match &self.zone_layout {
            None => {
                // Root in the middle of the field, the rest uniform.
                positions.push(Position { x: self.width / 2.0, y: self.height / 2.0 });
                zone.push(None);
                for _ in 1..self.n {
                    positions.push(Position {
                        x: rng.random_range(0.0..self.width),
                        y: rng.random_range(0.0..self.height),
                    });
                    zone.push(None);
                }
            }
            Some(layout) => {
                let cx = self.width / 2.0;
                let cy = self.height / 2.0;
                positions.push(Position { x: cx, y: cy });
                zone.push(None);
                // Background nodes fill the field so zones stay connected.
                for _ in 1..self.n {
                    positions.push(Position {
                        x: rng.random_range(0.0..self.width),
                        y: rng.random_range(0.0..self.height),
                    });
                    zone.push(None);
                }
                // Zones evenly spaced on an inscribed ellipse near the
                // perimeter.
                let rx = self.width * 0.42;
                let ry = self.height * 0.42;
                for z in 0..layout.zones {
                    let angle = std::f64::consts::TAU * z as f64 / layout.zones as f64;
                    let zx = cx + rx * angle.cos();
                    let zy = cy + ry * angle.sin();
                    for _ in 0..layout.nodes_per_zone {
                        let a = rng.random_range(0.0..std::f64::consts::TAU);
                        let r = layout.zone_radius * rng.random_range(0.0f64..1.0).sqrt();
                        positions.push(Position { x: zx + r * a.cos(), y: zy + r * a.sin() });
                        zone.push(Some(z));
                    }
                }
            }
        }
        (positions, zone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_connected_network_deterministically() {
        let a = NetworkBuilder::new(60, 100.0, 100.0, 20.0).seed(7).build().unwrap();
        let b = NetworkBuilder::new(60, 100.0, 100.0, 20.0).seed(7).build().unwrap();
        assert_eq!(a.len(), 60);
        assert_eq!(a.topology.root(), NodeId(0));
        for i in 0..a.len() {
            assert_eq!(a.positions[i], b.positions[i], "same seed must reproduce placement");
            assert_eq!(
                a.topology.parent(NodeId::from_index(i)),
                b.topology.parent(NodeId::from_index(i))
            );
        }
    }

    #[test]
    fn tree_respects_radio_range() {
        let net = NetworkBuilder::new(80, 100.0, 100.0, 18.0).seed(3).build().unwrap();
        for e in net.topology.edges() {
            let p = net.topology.parent(e).unwrap();
            let d = net.positions[e.index()].distance(&net.positions[p.index()]);
            assert!(d <= 18.0 + 1e-9, "edge {e} spans {d} > range");
        }
    }

    #[test]
    fn bfs_tree_is_min_hop() {
        // In a BFS tree, a child's depth is exactly its parent's + 1 and no
        // neighbor of a node can be more than one level shallower.
        let net = NetworkBuilder::new(50, 80.0, 80.0, 20.0).seed(11).build().unwrap();
        let t = &net.topology;
        for i in 0..net.len() {
            let u = NodeId::from_index(i);
            for j in 0..net.len() {
                let v = NodeId::from_index(j);
                if net.positions[i].distance(&net.positions[j]) <= 20.0 {
                    assert!(
                        t.depth(u) + 1 >= t.depth(v),
                        "neighbor {v} is ≥2 hops shallower than {u}: BFS violated"
                    );
                }
            }
        }
    }

    #[test]
    fn disconnected_when_range_too_small() {
        let err = NetworkBuilder::new(30, 1000.0, 1000.0, 1.0)
            .seed(5)
            .max_attempts(3)
            .build()
            .unwrap_err();
        assert!(matches!(err, PlacementError::Disconnected { attempts: 3 }));
    }

    #[test]
    fn zone_layout_tags_members() {
        let net = NetworkBuilder::new(40, 100.0, 100.0, 25.0)
            .seed(9)
            .zones(ZoneLayout { zones: 6, nodes_per_zone: 10, zone_radius: 5.0 })
            .build()
            .unwrap();
        assert_eq!(net.len(), 40 + 60);
        let zone_counts: Vec<usize> =
            (0..6).map(|z| net.zone.iter().filter(|&&q| q == Some(z)).count()).collect();
        assert_eq!(zone_counts, vec![10; 6]);
        assert_eq!(net.zone[0], None, "root is not in a zone");
        // Zone members are clustered: all within 2×radius of each other.
        for z in 0..6 {
            let members: Vec<usize> = (0..net.len()).filter(|&i| net.zone[i] == Some(z)).collect();
            for &a in &members {
                for &b in &members {
                    assert!(net.positions[a].distance(&net.positions[b]) <= 10.0 + 1e-9);
                }
            }
        }
    }

    #[test]
    fn rejects_empty() {
        assert!(NetworkBuilder::new(0, 10.0, 10.0, 5.0).build().is_err());
    }

    #[test]
    fn position_distance() {
        let a = Position { x: 0.0, y: 0.0 };
        let b = Position { x: 3.0, y: 4.0 };
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
    }
}

//! The routing spanning tree.
//!
//! Following Section 2 of the paper, the network is organized as a spanning
//! tree rooted at the query station. Every query plan is an assignment of
//! bandwidth to tree edges; an edge is identified by its child node.

use crate::node::NodeId;
use std::cmp::Reverse;
use std::fmt;

/// Errors detected while building a [`Topology`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The root node must have `parent == None`.
    RootHasParent(NodeId),
    /// A non-root node is missing a parent.
    MissingParent(NodeId),
    /// A parent index is out of range.
    ParentOutOfRange { node: NodeId, parent: NodeId },
    /// The parent pointers contain a cycle or a component detached from the
    /// root.
    NotATree,
    /// The node set is empty.
    Empty,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::RootHasParent(n) => write!(f, "root {n} has a parent"),
            TopologyError::MissingParent(n) => write!(f, "non-root node {n} has no parent"),
            TopologyError::ParentOutOfRange { node, parent } => {
                write!(f, "node {node} has out-of-range parent {parent}")
            }
            TopologyError::NotATree => write!(f, "parent pointers do not form a tree"),
            TopologyError::Empty => write!(f, "topology has no nodes"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Errors from [`Topology::repair`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairError {
    /// The root (query station) is in the dead set; there is nothing to
    /// re-parent onto, the deployment is lost.
    RootDead,
    /// A dead node id is outside the topology.
    NodeOutOfRange(NodeId),
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::RootDead => write!(f, "cannot repair: the root node is dead"),
            RepairError::NodeOutOfRange(n) => write!(f, "dead node {n} is out of range"),
        }
    }
}

impl std::error::Error for RepairError {}

/// Rooted spanning tree over `n` nodes with precomputed traversal orders
/// and subtree metadata.
///
/// ```
/// use prospector_net::{NodeId, Topology};
///
/// // 0 <- 1 <- 2 plus 0 <- 3
/// let t = Topology::from_parents(
///     NodeId(0),
///     vec![None, Some(NodeId(0)), Some(NodeId(1)), Some(NodeId(0))],
/// ).unwrap();
/// assert_eq!(t.subtree_size(NodeId(1)), 2);
/// assert_eq!(t.depth(NodeId(2)), 2);
/// assert_eq!(t.edges_to_root(NodeId(2)).count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    root: NodeId,
    parent: Vec<Option<NodeId>>,
    /// Children in CSR layout: node `i`'s children are
    /// `child_arena[child_off[i]..child_off[i+1]]`, in ascending child id.
    /// One arena allocation for the whole tree instead of a `Vec` per node
    /// — at 50k nodes the per-node-vec layout cost one heap allocation and
    /// one pointer chase per node on every traversal.
    child_arena: Vec<NodeId>,
    child_off: Vec<u32>,
    depth: Vec<u32>,
    /// Nodes in an order where every child precedes its parent.
    post_order: Vec<NodeId>,
    subtree_size: Vec<u32>,
}

impl Topology {
    /// Builds a topology from parent pointers. `parent[root] == None`,
    /// every other entry points at the node's parent.
    pub fn from_parents(root: NodeId, parent: Vec<Option<NodeId>>) -> Result<Self, TopologyError> {
        let n = parent.len();
        if n == 0 {
            return Err(TopologyError::Empty);
        }
        if parent[root.index()].is_some() {
            return Err(TopologyError::RootHasParent(root));
        }
        // Children in CSR form: count per parent, prefix-sum into offsets,
        // fill in ascending child id (the same per-parent order the old
        // per-node `Vec::push` loop produced, so traversal — and with it
        // every merge order and trace — is unchanged).
        let mut counts = vec![0u32; n];
        for (i, p) in parent.iter().enumerate() {
            let node = NodeId::from_index(i);
            match p {
                None if node != root => return Err(TopologyError::MissingParent(node)),
                None => {}
                Some(p) => {
                    if p.index() >= n {
                        return Err(TopologyError::ParentOutOfRange { node, parent: *p });
                    }
                    counts[p.index()] += 1;
                }
            }
        }
        let mut child_off = vec![0u32; n + 1];
        for i in 0..n {
            child_off[i + 1] = child_off[i] + counts[i];
        }
        let mut cursor = child_off[..n].to_vec();
        let mut child_arena = vec![NodeId(0); n - 1];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                child_arena[cursor[p.index()] as usize] = NodeId::from_index(i);
                cursor[p.index()] += 1;
            }
        }

        let mut topology = Topology {
            root,
            parent,
            child_arena,
            child_off,
            depth: vec![0; n],
            post_order: vec![root; n],
            subtree_size: vec![1; n],
        };
        if !topology.relevel() {
            return Err(TopologyError::NotATree);
        }
        for &u in &topology.post_order {
            if let Some(p) = topology.parent[u.index()] {
                topology.subtree_size[p.index()] += topology.subtree_size[u.index()];
            }
        }
        Ok(topology)
    }

    /// Derives depth and post order from the child lists with one BFS
    /// from the root, written back to front into `post_order`: the
    /// reverse of the level order, so every child precedes its parent.
    /// False when the BFS reaches fewer than all nodes (a cycle or a part
    /// detached from the root).
    fn relevel(&mut self) -> bool {
        let n = self.post_order.len();
        let mut tail = n - 1;
        self.post_order[tail] = self.root;
        self.depth[self.root.index()] = 0;
        let mut head = n;
        while head > tail {
            head -= 1;
            let u = self.post_order[head];
            let below = self.depth[u.index()] + 1;
            let (lo, hi) =
                (self.child_off[u.index()] as usize, self.child_off[u.index() + 1] as usize);
            for &c in &self.child_arena[lo..hi] {
                // Each non-root node is one parent's child, so at most
                // n − 1 are ever queued.
                tail -= 1;
                self.post_order[tail] = c;
                self.depth[c.index()] = below;
            }
        }
        tail == 0
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when the tree has no nodes (never true for a built topology).
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The root node (the query station).
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Parent of `n`, or `None` for the root.
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.parent[n.index()]
    }

    /// A copy of the full parent-pointer vector, e.g. as the starting point
    /// for building a modified tree.
    pub fn parent_vec(&self) -> Vec<Option<NodeId>> {
        self.parent.clone()
    }

    /// Children of `n` (a slice of the CSR arena, in ascending child id).
    pub fn children(&self, n: NodeId) -> &[NodeId] {
        let i = n.index();
        &self.child_arena[self.child_off[i] as usize..self.child_off[i + 1] as usize]
    }

    /// Number of tree edges between `n` and the root; this also equals the
    /// number of edges a value from `n` crosses to reach the query station.
    pub fn depth(&self, n: NodeId) -> u32 {
        self.depth[n.index()]
    }

    /// Height of the tree (max depth).
    pub fn height(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// True when `n` has no children.
    pub fn is_leaf(&self, n: NodeId) -> bool {
        self.child_off[n.index()] == self.child_off[n.index() + 1]
    }

    /// Nodes in post order (every child precedes its parent); collection
    /// phases traverse this order.
    pub fn post_order(&self) -> &[NodeId] {
        &self.post_order
    }

    /// Nodes in level (BFS) order; distribution phases traverse this order.
    pub fn level_order(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.post_order.iter().rev().copied()
    }

    /// Number of nodes in the subtree rooted at `n` (including `n`).
    pub fn subtree_size(&self, n: NodeId) -> usize {
        self.subtree_size[n.index()] as usize
    }

    /// Path of nodes from `n` to the root, inclusive on both ends.
    pub fn path_to_root(&self, n: NodeId) -> PathToRoot<'_> {
        PathToRoot { topo: self, cur: Some(n) }
    }

    /// Edges (identified by child node) crossed by a value travelling from
    /// `n` to the root: `n`, `parent(n)`, … down to the child of the root.
    pub fn edges_to_root(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.path_to_root(n).filter(move |&u| u != self.root)
    }

    /// All nodes of the subtree rooted at `n` (preorder).
    pub fn subtree(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.subtree_size(n));
        let mut stack = vec![n];
        while let Some(u) = stack.pop() {
            out.push(u);
            stack.extend_from_slice(self.children(u));
        }
        out
    }

    /// True when `anc` lies on the path from `node` to the root
    /// (`anc == node` counts).
    pub fn is_ancestor(&self, anc: NodeId, node: NodeId) -> bool {
        self.path_to_root(node).any(|u| u == anc)
    }

    /// Total number of edges (`len() - 1`).
    pub fn num_edges(&self) -> usize {
        self.len() - 1
    }

    /// Iterates over all edges, identified by their child node.
    pub fn edges(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len() as u32).map(NodeId).filter(move |&n| n != self.root)
    }

    /// The tree with permanently failed nodes repaired around (Section
    /// 4.4: permanent failures "require rebuilding the spanning tree"): a
    /// clone of this tree, repaired by [`Topology::repair_in_place`].
    pub fn repair(&self, dead: &[NodeId]) -> Result<Topology, RepairError> {
        let mut repaired = self.clone();
        repaired.repair_in_place(dead)?;
        Ok(repaired)
    }

    /// The check [`Topology::repair_in_place`] makes before it changes
    /// anything: [`RepairError::NodeOutOfRange`] for the first id outside
    /// the tree or [`RepairError::RootDead`] for the root (the query
    /// station is gone; no repair can reconnect the deployment),
    /// whichever comes first in `dead`.
    pub fn check_repair(&self, dead: &[NodeId]) -> Result<(), RepairError> {
        for &d in dead {
            if d.index() >= self.len() {
                return Err(RepairError::NodeOutOfRange(d));
            }
            if d == self.root {
                return Err(RepairError::RootDead);
            }
        }
        Ok(())
    }

    /// Repairs the tree around permanently failed nodes, in place.
    ///
    /// Every surviving node whose path to the root passes through a dead
    /// node is re-parented onto its nearest surviving ancestor, so whole
    /// orphaned subtrees re-attach in one step and all node ids are
    /// preserved. The dead nodes themselves are parked as inert leaves
    /// under the root — they keep their ids so plans, meters and sample
    /// windows stay index-compatible, but they have no children and it is
    /// the caller's job to keep them out of plans and answers. A repeated
    /// id dies once. The result equals [`Topology::from_parents`] over the
    /// repaired parents in every field.
    ///
    /// Fails as [`Topology::check_repair`] does, before changing
    /// anything. Otherwise the work is what the deaths touch, plus one
    /// BFS: the dead and their ancestors are collected once each (a node
    /// shared by several root paths is walked once, so a chain of deaths
    /// stays linear), sorted by depth; subtree sizes change only on those
    /// paths; only the dead, their old parents and the ancestors their
    /// children re-attach to get new child lists, spliced into the CSR
    /// arena with the unchanged runs between them moved once; and one BFS
    /// in the existing buffers re-derives depth and post order.
    pub fn repair_in_place(&mut self, dead: &[NodeId]) -> Result<(), RepairError> {
        self.check_repair(dead)?;
        let (n, root) = (self.len(), self.root);
        let mut is_dead = NodeMarks::new(n);
        let doomed: Vec<NodeId> = dead.iter().copied().filter(|&d| is_dead.insert(d)).collect();
        if doomed.is_empty() {
            return Ok(());
        }
        let parent_of =
            |t: &Topology, u: NodeId| t.parent[u.index()].expect("only the root has no parent");

        // The dead and every non-root node on their root paths, each
        // once: a walk stops where an earlier one passed. Deepest first,
        // so a node's children on the paths come before it.
        let mut on_paths = is_dead.clone();
        let mut paths = doomed.clone();
        for &d in &doomed {
            let mut u = parent_of(self, d);
            while u != root && on_paths.insert(u) {
                paths.push(u);
                u = parent_of(self, u);
            }
        }
        paths.sort_unstable_by_key(|u| Reverse(self.depth[u.index()]));

        // Parked dead nodes are leaves. A surviving node keeps its old
        // subtree less the dead in it: deepest first, each path node hands
        // its count of dead below (itself included) to its parent. Depth
        // holds the counts; the BFS below rewrites every depth.
        for &u in &paths {
            self.depth[u.index()] = 0;
        }
        for &d in &doomed {
            self.subtree_size[d.index()] = 1;
        }
        for &u in &paths {
            let dead = is_dead.contains(u);
            let below = self.depth[u.index()] + dead as u32;
            if !dead {
                self.subtree_size[u.index()] -= below;
            }
            let p = parent_of(self, u);
            if p != root {
                self.depth[p.index()] += below;
            }
        }

        // Child-list edits: a dead node with an alive parent other than
        // the root leaves that parent's list for the root's.
        let mut edited: Vec<NodeId> = Vec::new();
        let mut added: Vec<(NodeId, NodeId)> = Vec::new();
        for &d in &doomed {
            let p = parent_of(self, d);
            if p != root {
                edited.push(p);
                added.push((root, d));
            }
        }
        // Each dead node's nearest surviving ancestor replaces its parent,
        // shallowest first so a dead parent is already resolved.
        for &u in paths.iter().rev() {
            let p = parent_of(self, u);
            if is_dead.contains(u) && is_dead.contains(p) {
                self.parent[u.index()] = self.parent[p.index()];
            }
        }
        // Its surviving children move there; it keeps none.
        for &d in &doomed {
            let to = parent_of(self, d);
            let children = self.children(d);
            if !children.is_empty() {
                edited.push(d);
            }
            added.extend(children.iter().filter(|&&c| !is_dead.contains(c)).map(|&c| (to, c)));
        }
        edited.extend(added.iter().map(|&(p, _)| p));
        edited.sort_unstable();
        edited.dedup();
        added.sort_unstable();
        self.splice_children(&edited, &added, &is_dead);
        for &(p, c) in &added {
            self.parent[c.index()] = Some(p);
        }
        for &d in &doomed {
            self.parent[d.index()] = Some(root);
        }
        let reached = self.relevel();
        debug_assert!(reached, "re-parenting onto surviving ancestors preserves treeness");
        Ok(())
    }

    /// Rewrites the child lists of `edited` (ascending, distinct) in the
    /// CSR arena: a dead node's list empties; an alive node's list drops
    /// its dead children (the root keeps them: they park there) and
    /// gains its `added` children (sorted by parent, then child), in
    /// ascending id. The unchanged runs of the arena between edited
    /// lists each move once, and every offset after an edited list
    /// shifts by what the lists up to it gained or lost.
    fn splice_children(
        &mut self,
        edited: &[NodeId],
        added: &[(NodeId, NodeId)],
        is_dead: &NodeMarks,
    ) {
        let root = self.root;
        // The new lists back to back, and each one's end there.
        let mut lists: Vec<NodeId> = Vec::new();
        let mut ends: Vec<usize> = Vec::with_capacity(edited.len());
        let mut rest = added;
        for &e in edited {
            let start = lists.len();
            let gained = rest.iter().take_while(|&&(p, _)| p == e).count();
            if !is_dead.contains(e) {
                let kept = self.children(e).iter().filter(|&&c| e == root || !is_dead.contains(c));
                lists.extend(kept);
                lists.extend(rest[..gained].iter().map(|&(_, c)| c));
                // Two ascending runs: the stable sort merges them in one pass.
                lists[start..].sort();
            }
            rest = &rest[gained..];
            ends.push(lists.len());
        }

        // Old spans and the running shift after each edited list.
        let off = |i: usize| self.child_off[i] as usize;
        let arena_len = self.child_arena.len();
        let mut shift = 0isize;
        let mut spans: Vec<(usize, usize, isize)> = Vec::with_capacity(edited.len());
        for (j, &e) in edited.iter().enumerate() {
            let (lo, hi) = (off(e.index()), off(e.index() + 1));
            let len = ends[j] - if j == 0 { 0 } else { ends[j - 1] };
            shift += len as isize - (hi - lo) as isize;
            spans.push((lo, hi, shift));
        }
        debug_assert_eq!(shift, 0, "every non-root node keeps one parent");
        // The unchanged run after edited list j spans its old end to the
        // next edited list's old start. Leftward runs move front to back
        // and rightward ones back to front, so none overwrites a run still
        // to move.
        let runs: Vec<(usize, usize, isize)> = spans
            .iter()
            .enumerate()
            .map(|(j, &(_, hi, s))| (hi, spans.get(j + 1).map_or(arena_len, |next| next.0), s))
            .collect();
        let move_run = |arena: &mut Vec<NodeId>, &(lo, hi, s): &(usize, usize, isize)| {
            arena.copy_within(lo..hi, lo.wrapping_add_signed(s));
        };
        for run in runs.iter().filter(|r| r.2 < 0) {
            move_run(&mut self.child_arena, run);
        }
        for run in runs.iter().rev().filter(|r| r.2 > 0) {
            move_run(&mut self.child_arena, run);
        }
        let mut before = 0isize;
        for (j, &(lo, _, s)) in spans.iter().enumerate() {
            let from = if j == 0 { 0 } else { ends[j - 1] };
            let at = lo.wrapping_add_signed(before);
            self.child_arena[at..at + ends[j] - from].copy_from_slice(&lists[from..ends[j]]);
            before = s;
        }
        for (j, &e) in edited.iter().enumerate() {
            let upto = edited.get(j + 1).map_or(self.len(), |next| next.index());
            for o in &mut self.child_off[e.index() + 1..=upto] {
                *o = (*o as isize + spans[j].2) as u32;
            }
        }
    }
}

/// A set of node ids, one bit per node.
#[derive(Clone)]
struct NodeMarks(Vec<u64>);

impl NodeMarks {
    fn new(n: usize) -> Self {
        NodeMarks(vec![0; n.div_ceil(64)])
    }

    fn contains(&self, u: NodeId) -> bool {
        (self.0[u.index() >> 6] >> (u.index() & 63)) & 1 != 0
    }

    /// Adds `u`; false when it was already in.
    fn insert(&mut self, u: NodeId) -> bool {
        let (word, bit) = (&mut self.0[u.index() >> 6], 1u64 << (u.index() & 63));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }
}

/// Iterator for [`Topology::path_to_root`].
pub struct PathToRoot<'a> {
    topo: &'a Topology,
    cur: Option<NodeId>,
}

impl Iterator for PathToRoot<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.cur?;
        self.cur = self.topo.parent(cur);
        Some(cur)
    }
}

/// Builds a chain `0 ← 1 ← 2 ← …` rooted at node 0 (each node's parent is
/// its predecessor). Useful in tests.
pub fn chain(n: usize) -> Topology {
    let parent =
        (0..n).map(|i| if i == 0 { None } else { Some(NodeId::from_index(i - 1)) }).collect();
    Topology::from_parents(NodeId(0), parent).expect("chain is a valid tree")
}

/// Builds a star: node 0 is the root, all others are its children.
pub fn star(n: usize) -> Topology {
    let parent = (0..n).map(|i| if i == 0 { None } else { Some(NodeId(0)) }).collect();
    Topology::from_parents(NodeId(0), parent).expect("star is a valid tree")
}

/// Builds a complete `fanout`-ary tree of the given `depth` (depth 0 = just
/// the root). Node 0 is the root; children are allocated level by level.
pub fn balanced(fanout: usize, depth: usize) -> Topology {
    assert!(fanout >= 1);
    let mut parent: Vec<Option<NodeId>> = vec![None];
    let mut level: Vec<usize> = vec![0];
    for _ in 0..depth {
        let mut next = Vec::new();
        for &p in &level {
            for _ in 0..fanout {
                let id = parent.len();
                parent.push(Some(NodeId::from_index(p)));
                next.push(id);
            }
        }
        level = next;
    }
    Topology::from_parents(NodeId(0), parent).expect("balanced tree is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_shape() {
        let t = chain(4);
        assert_eq!(t.len(), 4);
        assert_eq!(t.root(), NodeId(0));
        assert_eq!(t.parent(NodeId(3)), Some(NodeId(2)));
        assert_eq!(t.depth(NodeId(3)), 3);
        assert_eq!(t.height(), 3);
        assert_eq!(t.subtree_size(NodeId(1)), 3);
        assert_eq!(t.num_edges(), 3);
        let path: Vec<_> = t.path_to_root(NodeId(3)).collect();
        assert_eq!(path, vec![NodeId(3), NodeId(2), NodeId(1), NodeId(0)]);
        let edges: Vec<_> = t.edges_to_root(NodeId(3)).collect();
        assert_eq!(edges, vec![NodeId(3), NodeId(2), NodeId(1)]);
    }

    #[test]
    fn star_shape() {
        let t = star(5);
        assert_eq!(t.children(NodeId(0)).len(), 4);
        assert!(t.is_leaf(NodeId(4)));
        assert!(!t.is_leaf(NodeId(0)));
        assert_eq!(t.height(), 1);
        assert_eq!(t.subtree_size(NodeId(0)), 5);
    }

    #[test]
    fn balanced_counts() {
        let t = balanced(2, 3);
        assert_eq!(t.len(), 1 + 2 + 4 + 8);
        assert_eq!(t.height(), 3);
        // all leaves at depth 3
        let leaves = (0..t.len()).filter(|&i| t.is_leaf(NodeId::from_index(i))).count();
        assert_eq!(leaves, 8);
    }

    #[test]
    fn post_order_children_before_parents() {
        let t = balanced(3, 2);
        let mut seen = vec![false; t.len()];
        for &u in t.post_order() {
            for &c in t.children(u) {
                assert!(seen[c.index()], "child {c} must precede parent {u}");
            }
            seen[u.index()] = true;
        }
    }

    #[test]
    fn subtree_contents() {
        let t = chain(5);
        let mut sub = t.subtree(NodeId(2));
        sub.sort();
        assert_eq!(sub, vec![NodeId(2), NodeId(3), NodeId(4)]);
    }

    #[test]
    fn is_ancestor_works() {
        let t = chain(4);
        assert!(t.is_ancestor(NodeId(1), NodeId(3)));
        assert!(t.is_ancestor(NodeId(3), NodeId(3)));
        assert!(!t.is_ancestor(NodeId(3), NodeId(1)));
    }

    #[test]
    fn rejects_cycle() {
        // 0 is root; 1 and 2 point at each other.
        let parent = vec![None, Some(NodeId(2)), Some(NodeId(1))];
        assert_eq!(Topology::from_parents(NodeId(0), parent).unwrap_err(), TopologyError::NotATree);
    }

    #[test]
    fn rejects_missing_parent() {
        let parent = vec![None, None];
        assert_eq!(
            Topology::from_parents(NodeId(0), parent).unwrap_err(),
            TopologyError::MissingParent(NodeId(1))
        );
    }

    #[test]
    fn rejects_root_with_parent() {
        let parent = vec![Some(NodeId(1)), None];
        assert_eq!(
            Topology::from_parents(NodeId(0), parent).unwrap_err(),
            TopologyError::RootHasParent(NodeId(0))
        );
    }

    #[test]
    fn rejects_out_of_range_parent() {
        let parent = vec![None, Some(NodeId(9))];
        assert!(matches!(
            Topology::from_parents(NodeId(0), parent),
            Err(TopologyError::ParentOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Topology::from_parents(NodeId(0), vec![]).unwrap_err(), TopologyError::Empty);
    }

    #[test]
    fn repair_leaf_death_parks_it_under_root() {
        let t = chain(4); // 0 <- 1 <- 2 <- 3
        let r = t.repair(&[NodeId(3)]).unwrap();
        assert_eq!(r.len(), 4, "node ids are preserved");
        assert_eq!(r.parent(NodeId(3)), Some(NodeId(0)), "dead leaf parked under root");
        assert!(r.is_leaf(NodeId(3)));
        // The surviving chain is untouched.
        assert_eq!(r.parent(NodeId(1)), Some(NodeId(0)));
        assert_eq!(r.parent(NodeId(2)), Some(NodeId(1)));
    }

    #[test]
    fn repair_interior_death_reattaches_deep_subtree() {
        // 0 <- 1 <- 2 <- 3 <- 4: killing 1 must lift 2 (and with it the
        // whole 2 <- 3 <- 4 chain) to the nearest surviving ancestor, 0.
        let t = chain(5);
        let r = t.repair(&[NodeId(1)]).unwrap();
        assert_eq!(r.parent(NodeId(2)), Some(NodeId(0)), "orphan re-parents past the dead node");
        assert_eq!(r.parent(NodeId(3)), Some(NodeId(2)), "deep subtree stays intact");
        assert_eq!(r.parent(NodeId(4)), Some(NodeId(3)));
        assert_eq!(r.depth(NodeId(4)), 3, "subtree is one hop shallower");
        assert!(r.is_leaf(NodeId(1)), "dead interior node keeps no children");
    }

    #[test]
    fn repair_consecutive_dead_ancestors_skips_both() {
        let t = chain(5);
        let r = t.repair(&[NodeId(1), NodeId(2)]).unwrap();
        assert_eq!(r.parent(NodeId(3)), Some(NodeId(0)), "climbs past both dead ancestors");
        assert_eq!(r.parent(NodeId(4)), Some(NodeId(3)));
    }

    #[test]
    fn repair_all_root_children_rehomes_every_subtree() {
        // Star-of-chains: 0 <- {1 <- 3, 2 <- 4}. Kill both of root's
        // children; the grandchildren must all re-attach directly to root.
        let t = Topology::from_parents(
            NodeId(0),
            vec![None, Some(NodeId(0)), Some(NodeId(0)), Some(NodeId(1)), Some(NodeId(2))],
        )
        .unwrap();
        let r = t.repair(&[NodeId(1), NodeId(2)]).unwrap();
        for g in [NodeId(3), NodeId(4)] {
            assert_eq!(r.parent(g), Some(NodeId(0)));
            assert_eq!(r.depth(g), 1);
        }
        assert_eq!(r.children(NodeId(0)).len(), 4, "dead nodes parked + survivors re-homed");
    }

    #[test]
    fn repair_rejects_dead_root() {
        let t = star(4);
        assert_eq!(t.repair(&[NodeId(0)]).unwrap_err(), RepairError::RootDead);
        // Even mixed in with valid deaths.
        assert_eq!(t.repair(&[NodeId(2), NodeId(0)]).unwrap_err(), RepairError::RootDead);
    }

    #[test]
    fn repair_rejects_out_of_range() {
        let t = star(4);
        assert_eq!(t.repair(&[NodeId(9)]).unwrap_err(), RepairError::NodeOutOfRange(NodeId(9)));
    }

    #[test]
    fn repair_with_no_deaths_is_identity() {
        let t = balanced(3, 2);
        let r = t.repair(&[]).unwrap();
        for e in t.edges() {
            assert_eq!(r.parent(e), t.parent(e));
        }
    }

    /// The old per-node ancestor climb, kept as the reference semantics
    /// for [`Topology::repair`]'s memoized resolution.
    fn repair_reference_climb(t: &Topology, dead: &[NodeId]) -> Vec<Option<NodeId>> {
        let mut is_dead = vec![false; t.len()];
        for &d in dead {
            is_dead[d.index()] = true;
        }
        let mut parent = t.parent_vec();
        for i in 0..t.len() {
            let node = NodeId::from_index(i);
            if node == t.root() {
                continue;
            }
            if is_dead[i] {
                parent[i] = Some(t.root());
                continue;
            }
            let mut p = t.parent(node).expect("non-root has a parent");
            while is_dead[p.index()] {
                p = t.parent(p).expect("root is alive");
            }
            parent[i] = Some(p);
        }
        parent
    }

    #[test]
    fn repair_chain_of_deaths_matches_reference_climb() {
        // A chain with long dead runs is the memoization's worst case:
        // every survivor's old parent sits deep inside a dead prefix. The
        // memoized repair must re-parent identically to the old climb.
        let n = 400;
        let t = chain(n);
        // Kill runs of 37 dead followed by 3 survivors, plus the whole
        // stretch right below the root.
        let dead: Vec<NodeId> =
            (1..n).filter(|&i| i < 60 || i % 40 < 37).map(NodeId::from_index).collect();
        let r = t.repair(&dead).unwrap();
        let expect = repair_reference_climb(&t, &dead);
        for (i, &want) in expect.iter().enumerate() {
            assert_eq!(r.parent(NodeId::from_index(i)), want, "node {i}");
        }
        // Also on a branchier shape with scattered deaths.
        let t = balanced(3, 5);
        let dead: Vec<NodeId> =
            (1..t.len()).filter(|&i| i % 3 == 1 || i % 7 == 0).map(NodeId::from_index).collect();
        let r = t.repair(&dead).unwrap();
        let expect = repair_reference_climb(&t, &dead);
        for (i, &want) in expect.iter().enumerate() {
            assert_eq!(r.parent(NodeId::from_index(i)), want, "balanced node {i}");
        }
    }

    #[test]
    fn repair_is_linear_on_a_chain_of_deaths() {
        // Regression for the O(n·depth) climb: with every interior node of
        // a 30k chain dead, the old code walked ~4.5e8 parent hops; the
        // memoized repair does one hop per node and finishes in
        // milliseconds. The generous ceiling only trips on the quadratic
        // behaviour, not on a slow CI host.
        let n = 30_000;
        let t = chain(n);
        let dead: Vec<NodeId> = (1..n - 1).map(NodeId::from_index).collect();
        let start = std::time::Instant::now();
        let r = t.repair(&dead).unwrap();
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "repair took {:?} on a chain of deaths — quadratic climb is back",
            start.elapsed()
        );
        assert_eq!(r.parent(NodeId::from_index(n - 1)), Some(NodeId(0)));
        assert_eq!(r.children(NodeId(0)).len(), n - 1);
        assert_eq!(r.depth(NodeId::from_index(n - 1)), 1);
    }

    /// Every field of two topologies, compared directly.
    fn assert_same_topology(got: &Topology, want: &Topology, what: &str) {
        assert_eq!(got.root, want.root, "{what}: root");
        assert_eq!(got.parent, want.parent, "{what}: parents");
        assert_eq!(got.child_off, want.child_off, "{what}: child offsets");
        assert_eq!(got.child_arena, want.child_arena, "{what}: child lists");
        assert_eq!(got.depth, want.depth, "{what}: depths");
        assert_eq!(got.post_order, want.post_order, "{what}: post order");
        assert_eq!(got.subtree_size, want.subtree_size, "{what}: subtree sizes");
    }

    /// A random tree of `n` nodes whose root and ids are shuffled, so
    /// ids say nothing about depth.
    fn random_tree(rng: &mut rand::rngs::StdRng, n: usize) -> Topology {
        use rand::RngExt;
        let mut label: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            label.swap(i, rng.random_range(0..=i));
        }
        let mut parent = vec![None; n];
        for i in 1..n {
            // Mostly recent parents: deep chains as well as bushy levels.
            let p = if rng.random_range(0..3) == 0 {
                rng.random_range(0..i)
            } else {
                i - 1 - rng.random_range(0..i.min(3))
            };
            parent[label[i]] = Some(NodeId::from_index(label[p]));
        }
        Topology::from_parents(NodeId::from_index(label[0]), parent)
            .expect("random parents form a tree")
    }

    /// One death wave on `t`: nothing, a chain of dead ancestors, dead
    /// leaves, dead root children or scattered ids, with repeats and
    /// ids that died in earlier waves.
    fn death_wave(rng: &mut rand::rngs::StdRng, t: &Topology, before: &[NodeId]) -> Vec<NodeId> {
        use rand::RngExt;
        let n = t.len();
        let non_root: Vec<NodeId> =
            (0..n).map(NodeId::from_index).filter(|&u| u != t.root()).collect();
        if non_root.is_empty() {
            return Vec::new();
        }
        let mut wave = Vec::new();
        match rng.random_range(0..5) {
            0 => {}
            1 => {
                let mut u = non_root[rng.random_range(0..non_root.len())];
                while u != t.root() {
                    if rng.random_range(0..5) != 0 {
                        wave.push(u);
                    }
                    u = t.parent(u).expect("non-root");
                }
            }
            2 => wave.extend(
                non_root.iter().copied().filter(|&u| t.is_leaf(u) && rng.random_range(0..3) == 0),
            ),
            3 => wave.extend(
                t.children(t.root()).iter().copied().filter(|_| rng.random_range(0..2) == 0),
            ),
            _ => wave.extend(
                (0..rng.random_range(1..=n)).map(|_| non_root[rng.random_range(0..non_root.len())]),
            ),
        }
        for _ in 0..rng.random_range(0..3) {
            if let Some(&again) = wave.get(rng.random_range(0..wave.len().max(1))) {
                wave.push(again);
            }
            if !before.is_empty() {
                wave.push(before[rng.random_range(0..before.len())]);
            }
        }
        wave
    }

    // Random trees over several death waves: the tree repaired in place
    // equals `from_parents` over the reference climb's parents in every
    // field, and so does `repair`'s clone.
    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn repair_in_place_matches_from_parents(
            n in 1usize..=120,
            waves in 1usize..=6,
            seed in 0u64..u64::MAX,
        ) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut t = random_tree(&mut rng, n);
            let mut dead_so_far: Vec<NodeId> = Vec::new();
            for w in 0..waves {
                let wave = death_wave(&mut rng, &t, &dead_so_far);
                let want = Topology::from_parents(t.root(), repair_reference_climb(&t, &wave))
                    .expect("the reference repair is a tree");
                let cloned = t.repair(&wave).expect("non-root deaths repair");
                t.repair_in_place(&wave).expect("non-root deaths repair");
                assert_same_topology(&t, &want, &format!("n {n}, wave {w}: in place"));
                assert_same_topology(&cloned, &want, &format!("n {n}, wave {w}: clone"));
                dead_so_far.extend(wave);
            }
        }
    }

    #[test]
    fn repair_in_place_checks_before_it_changes_anything() {
        let mut t = chain(5);
        let before = t.clone();
        assert_eq!(t.repair_in_place(&[NodeId(2), NodeId(0)]), Err(RepairError::RootDead));
        assert_eq!(
            t.repair_in_place(&[NodeId(3), NodeId(9)]),
            Err(RepairError::NodeOutOfRange(NodeId(9)))
        );
        assert_same_topology(&t, &before, "refused repairs");
    }

    #[test]
    fn level_order_is_reverse_post_order() {
        let t = balanced(2, 2);
        let lvl: Vec<_> = t.level_order().collect();
        assert_eq!(lvl[0], t.root());
        let mut rev = t.post_order().to_vec();
        rev.reverse();
        assert_eq!(lvl, rev);
    }
}

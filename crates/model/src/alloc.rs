//! The task-allocation algorithm (paper §4.3, Fig. 3) and baselines.
//!
//! The Resource Manager "uses the Breadth-First-Search (BFS) algorithm to
//! search for services (edges) connecting the initial and final requested
//! application states, prunes the possible solutions using the requested
//! QoS requirements `q` … among the allocations that satisfy the QoS
//! requirements, the algorithm returns the one that results to the maximum
//! fairness of the load distribution among the peers."
//!
//! This module implements that algorithm as a pure function over the
//! resource graph and the RM's peer view, plus:
//!
//! * an [`ExplorationMode`] knob: [`ExplorationMode::AllSimplePaths`]
//!   (default) enumerates every cycle-free path with QoS pruning, which is
//!   what maximising fairness *requires*; [`ExplorationMode::GlobalVisited`]
//!   is the literal reading of the Fig. 3 pseudocode, where a global
//!   visited set lets only the first BFS path reach each vertex — it
//!   under-explores and is kept as an ablation (experiment E3 compares
//!   them);
//! * the baseline allocators used in the evaluation
//!   ([`AllocatorKind::FirstFeasible`], [`AllocatorKind::Random`],
//!   [`AllocatorKind::LeastLoaded`], [`AllocatorKind::MinWork`]).
//!
//! # QoS feasibility of a path
//!
//! A candidate path `e_1 … e_k` is feasible for requirement set `q` iff
//!
//! 1. `k ≤ q.max_hops` (if bounded);
//! 2. for every peer `p` on the path, `p`'s available bandwidth covers the
//!    accumulated bandwidth cost of the path's hops on `p`, and — if
//!    `q.min_bandwidth_kbps` is set — also that floor;
//! 3. for every peer `p`, `p`'s available processing capacity covers the
//!    accumulated sustained work of the path's hops on `p` (the session
//!    must be sustainable);
//! 4. the estimated response time — per-hop setup computation at the
//!    peer's *currently available* speed plus a per-hop communication
//!    latency — fits within `q.deadline` ("it calculates which paths
//!    satisfy the deadline by utilizing the current load information").

use crate::peerview::{PeerInfo, PeerView};
use crate::qos::QosSpec;
use crate::resource_graph::{EdgeId, ResourceGraph, StateId};
use arm_util::{fairness_upper_bound, DetRng, FairnessTracker, NodeId, SimDuration};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// How the path space is explored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ExplorationMode {
    /// Enumerate all simple (cycle-free) paths, pruning by QoS. Required
    /// for a true fairness argmax. Default.
    #[default]
    AllSimplePaths,
    /// Literal Fig. 3 pseudocode: a global visited set — each vertex is
    /// expanded at most once, so only the first BFS path to the goal is
    /// scored. Cheaper, but under-explores. Kept as an ablation.
    GlobalVisited,
    /// Branch-and-bound: the frontier is ordered by an *admissible*
    /// fairness upper bound (the best Jain index any completion of the
    /// prefix could reach: [`arm_util::fairness_upper_bound`] over the
    /// peers its remaining hops can reach, at most one raised load per
    /// hop), and prefixes whose bound cannot beat the incumbent candidate
    /// — or from which no goal is reachable within the remaining hop
    /// budget — are pruned. A completed path is scored where it is
    /// generated: its exact index raises the incumbent at once and is its
    /// own priority, so it is dequeued (and counted) only while it can
    /// still win. Of sibling edges on equal-load peers with the same
    /// target and work, the subtree of a later, no faster one keeps only
    /// the completions the earlier one cannot stand in for (the symmetry
    /// rule, which carries tied domains where the bound prunes nothing).
    /// Answer-identical to [`ExplorationMode::AllSimplePaths`]
    /// for [`AllocatorKind::MaxFairness`] (same chosen path, fairness and
    /// estimate, bit for bit — see the property tests); other objectives
    /// need the full candidate set and silently fall back to exhaustive
    /// enumeration.
    BranchAndBound,
}

/// Which objective picks among feasible paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AllocatorKind {
    /// The paper's algorithm: maximise Jain's fairness index of the
    /// post-allocation load distribution.
    #[default]
    MaxFairness,
    /// First feasible path in BFS order (shortest-ish, load-agnostic).
    FirstFeasible,
    /// Uniformly random feasible path (needs an RNG).
    Random,
    /// Minimise the resulting maximum peer utilization (classic
    /// least-loaded / min-makespan greedy).
    LeastLoaded,
    /// Minimise total sustained work of the path (efficiency-greedy,
    /// ignores balance).
    MinWork,
}

/// Tuning parameters of the search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AllocParams {
    /// Estimated one-hop communication latency used in deadline pruning.
    pub hop_latency: SimDuration,
    /// Cap on the number of paths dequeued before the search gives up
    /// enumerating (guards against exponential blowup on dense graphs).
    /// The result is flagged `truncated` when the cap is hit.
    pub max_explored: usize,
    /// Path-space exploration mode.
    pub mode: ExplorationMode,
}

impl Default for AllocParams {
    fn default() -> Self {
        Self {
            hop_latency: SimDuration::from_millis(20),
            max_explored: 200_000,
            mode: ExplorationMode::AllSimplePaths,
        }
    }
}

/// Search-efficiency counters for one allocation run. Cheap to produce in
/// all modes; the pruning counters are only non-zero under
/// [`ExplorationMode::BranchAndBound`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocStats {
    /// Prefixes dequeued and expanded (or scored) by the search. Under
    /// [`ExplorationMode::BranchAndBound`] a completed path counts once,
    /// when it is dequeued to be kept as a candidate, which happens only if
    /// nothing scored since its generation beat it.
    pub explored_prefixes: u64,
    /// Prefixes discarded because their admissible fairness upper bound
    /// could not beat the incumbent candidate, including prefixes from
    /// which no goal is reachable within the remaining hop budget, and
    /// completed paths whose exact index could not. Each is counted once:
    /// where it is generated, or when it is dequeued after the incumbent
    /// rose past it.
    pub pruned_bound: u64,
    /// Children never generated because an earlier sibling edge on an
    /// equal-load peer beats, in the selection order, every completion
    /// below them that is still left to search (the symmetry rule,
    /// DESIGN.md §10).
    pub pruned_dominated: u64,
}

impl AllocStats {
    /// Accumulates another run's counters into this one.
    pub fn merge(&mut self, other: &AllocStats) {
        self.explored_prefixes = self
            .explored_prefixes
            .saturating_add(other.explored_prefixes);
        self.pruned_bound = self.pruned_bound.saturating_add(other.pruned_bound);
        self.pruned_dominated = self.pruned_dominated.saturating_add(other.pruned_dominated);
    }
}

/// A successful allocation: the chosen path and its predicted effects.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Allocation {
    /// The chosen resource-graph path (empty = the initial state already
    /// satisfies the request; a direct fetch).
    pub path: Vec<EdgeId>,
    /// Jain's fairness index of the domain load distribution *after*
    /// committing this path (`f_max` of Fig. 3).
    pub fairness: f64,
    /// Estimated response time (setup) of the path.
    pub est_response: SimDuration,
    /// Sustained work the path adds to each involved peer.
    pub load_deltas: Vec<(NodeId, f64)>,
    /// Number of candidate paths dequeued during the search.
    pub explored: usize,
    /// True if the exploration cap was hit (the argmax may be approximate).
    pub truncated: bool,
    /// Search-efficiency counters (explored/pruned prefix counts).
    pub stats: AllocStats,
}

/// Why allocation failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocError {
    /// The initial or goal state is not in the resource graph.
    UnknownState,
    /// No goal states were supplied.
    NoGoal,
    /// The domain has no peers.
    EmptyDomain,
    /// Paths exist but none satisfies the QoS requirements
    /// ("if no allocation that satisfies the given QoS exists, the
    /// algorithm reports that").
    NoFeasiblePath {
        /// How many candidate paths were examined.
        explored: usize,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::UnknownState => write!(f, "initial or goal state not in resource graph"),
            AllocError::NoGoal => write!(f, "no goal states supplied"),
            AllocError::EmptyDomain => write!(f, "domain has no peers"),
            AllocError::NoFeasiblePath { explored } => {
                write!(f, "no QoS-feasible path (explored {explored} candidates)")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// The allocator: parameters + objective.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FairnessAllocator {
    /// Search tuning.
    pub params: AllocParams,
    /// Selection objective.
    pub kind: AllocatorKind,
}

/// Sentinel index: "no parent" / "peer not in the domain view".
const NONE_IDX: u32 = u32::MAX;

/// Branch-and-bound pruning margin, in fairness units. The upper bound is
/// admissible over the reals; this margin absorbs floating-point slop in
/// both the bound and the candidate scores, so pruning can never discard a
/// candidate that exact selection would have chosen (DESIGN.md §10).
const PRUNE_MARGIN: f64 = 1e-9;

/// One node of the search's parent-pointer prefix tree. A prefix is the
/// edge chain from a node back to the root; each node stores the
/// accumulated (work, bandwidth) for *its own hop's peer*, so extending a
/// prefix is O(1) — nothing is cloned per enqueued child (the previous
/// implementation cloned three `Vec`s per child).
#[derive(Debug, Clone, Copy)]
struct PathNode {
    /// Arena index of the parent prefix; `NONE_IDX` on the root.
    parent: u32,
    /// The edge taken into this node (meaningless on the root).
    edge: EdgeId,
    /// Vertex this prefix ends at.
    vertex: StateId,
    /// Peer index (into the domain's sorted id list) of the edge's host;
    /// `NONE_IDX` on the root.
    peer_idx: u32,
    /// This path's accumulated work on that peer, including `edge`.
    work: f64,
    /// This path's accumulated bandwidth on that peer, kbps.
    bw: u32,
    /// Hop count.
    len: u32,
    /// Estimated response time so far, in seconds.
    est_secs: f64,
    /// Bitmap of visited vertices when the graph has ≤ 128 states
    /// (otherwise 0, and cycle checks walk the chain instead).
    visited: u128,
    /// Peers hosting a hop of the prefix, and those hosting two or more
    /// (kept only while the symmetry rule runs; 0 otherwise).
    peers: u128,
    twice: u128,
    /// Head of the prefix's list in `Symmetry::records`; `NONE_IDX` when
    /// it carries no residual constraint.
    rec: u32,
}

/// True when `v` already lies on the prefix ending at `node`.
fn on_path(arena: &[PathNode], mut node: u32, v: StateId) -> bool {
    while node != NONE_IDX {
        let Some(n) = arena.get(node as usize) else {
            return false;
        };
        if n.vertex == v {
            return true;
        }
        node = n.parent;
    }
    false
}

/// Materialises per-peer `(peer index, accumulated work, accumulated bw)`
/// triples in first-encounter order from the path start. This reproduces
/// exactly the order and arithmetic of accumulating hop by hop, so
/// fairness evaluations over the result are bit-identical to the old
/// per-child vector representation.
fn collect_profile(
    arena: &[PathNode],
    node: u32,
    chain: &mut Vec<u32>,
    out: &mut Vec<(usize, f64, u32)>,
) {
    chain.clear();
    out.clear();
    let mut cur = node;
    while cur != NONE_IDX {
        let Some(n) = arena.get(cur as usize) else {
            break;
        };
        if n.parent != NONE_IDX {
            chain.push(cur);
        }
        cur = n.parent;
    }
    for &ni in chain.iter().rev() {
        let Some(n) = arena.get(ni as usize) else {
            continue;
        };
        let pi = n.peer_idx as usize;
        if let Some(slot) = out.iter_mut().find(|(i, _, _)| *i == pi) {
            // A deeper node for the same peer carries the newer total.
            slot.1 = n.work;
            slot.2 = n.bw;
        } else {
            out.push((pi, n.work, n.bw));
        }
    }
}

/// Materialises the edge sequence of the prefix ending at `node`.
fn collect_path(arena: &[PathNode], node: u32, chain: &mut Vec<u32>) -> Vec<EdgeId> {
    chain.clear();
    let mut cur = node;
    while cur != NONE_IDX {
        let Some(n) = arena.get(cur as usize) else {
            break;
        };
        if n.parent != NONE_IDX {
            chain.push(cur);
        }
        cur = n.parent;
    }
    chain
        .iter()
        .rev()
        .filter_map(|&i| arena.get(i as usize).map(|n| n.edge))
        .collect()
}

/// Extends a materialised profile by one hop (same arithmetic as
/// [`accum_for_peer`] + the per-edge accumulation in the search loop).
fn apply_hop(profile: &mut Vec<(usize, f64, u32)>, pi: usize, work: f64, bw: u32) {
    if let Some(slot) = profile.iter_mut().find(|(i, _, _)| *i == pi) {
        slot.1 = work;
        slot.2 = bw;
    } else {
        profile.push((pi, work, bw));
    }
}

/// How many hops of at least `hop_latency_secs` each fit in `secs`; the +1
/// forgives floating-point edge cases (a loose cap stays admissible).
#[allow(
    clippy::cast_possible_truncation,
    reason = "float-to-int `as` saturates, and flooring the quotient is the point"
)]
fn hops_within(secs: f64, hop_latency_secs: f64) -> usize {
    ((secs / hop_latency_secs) as usize).saturating_add(1)
}

/// A live edge whose host is in the domain view, as the search reads it
/// of the graph.
#[derive(Clone, Copy)]
struct EdgeRow {
    edge: EdgeId,
    to: StateId,
    /// The host's index in the domain's sorted id list.
    host: u32,
    work: f64,
    bandwidth: u32,
    setup_work: f64,
}

/// What the search reads of a graph for one domain membership, kept by the
/// graph between calls ([`ResourceGraph`] drops it when a state or edge
/// changes; the view's ids are checked on every call): the live edges
/// whose host is in the view, grouped by source state in ascending id
/// order, and the [`Link`]s they form. Loads change on every call, so
/// nothing here depends on them.
pub(crate) struct SearchTables {
    /// The sorted domain ids the host indices refer to.
    ids: Vec<NodeId>,
    rows: Vec<EdgeRow>,
    /// `rows[first[v]..first[v + 1]]` leave state `v`.
    first: Vec<u32>,
    links: Vec<Link>,
}

impl SearchTables {
    fn new(gr: &ResourceGraph, ids: &[NodeId]) -> Self {
        // Ids are sorted; a domain's ids are often consecutive, so try the
        // id's offset from the first before searching.
        let first_id = ids.first().map_or(0, |id| id.raw());
        let index_of = |peer: NodeId| {
            let guess = peer.raw().wrapping_sub(first_id);
            match usize::try_from(guess)
                .ok()
                .filter(|&i| ids.get(i) == Some(&peer))
            {
                Some(i) => crate::idx_u32(i),
                None => ids.binary_search(&peer).map_or(NONE_IDX, crate::idx_u32),
            }
        };
        let by_id: Vec<(StateId, EdgeRow)> = gr
            .edges()
            .map(|edge| {
                let row = EdgeRow {
                    edge: edge.id,
                    to: edge.to,
                    host: index_of(edge.peer),
                    work: edge.cost.work_per_sec,
                    bandwidth: edge.cost.bandwidth_kbps,
                    setup_work: edge.cost.setup_work,
                };
                (edge.from, row)
            })
            .filter(|(_, row)| row.host != NONE_IDX) // the host left the view
            .collect();
        let mut rows = Vec::with_capacity(by_id.len());
        let mut first = Vec::with_capacity(gr.num_states().saturating_add(1));
        for v in (0..gr.num_states()).map(|v| StateId(crate::idx_u32(v))) {
            first.push(crate::idx_u32(rows.len()));
            rows.extend(
                by_id
                    .iter()
                    .filter(|(from, _)| *from == v)
                    .map(|&(_, row)| row),
            );
        }
        first.push(crate::idx_u32(rows.len()));
        let mut tables = Self {
            ids: ids.to_vec(),
            rows,
            first,
            links: Vec::new(),
        };
        tables.links = tables.fold_links();
        tables
    }

    /// The rows out of `v`.
    fn out(&self, v: StateId) -> &[EdgeRow] {
        let v = v.0 as usize;
        let lo = self.first.get(v).copied().unwrap_or(0);
        let hi = self.first.get(v.saturating_add(1)).copied().unwrap_or(0);
        self.rows.get(lo as usize..hi as usize).unwrap_or_default()
    }

    /// One [`Link`] per pair of states the rows join.
    fn fold_links(&self) -> Vec<Link> {
        let mut links: Vec<Link> = Vec::new();
        let states = self.first.len().saturating_sub(1);
        for from in (0..states).map(|v| StateId(crate::idx_u32(v))) {
            let start = links.len();
            for row in self.out(from) {
                let host = 1u128.checked_shl(row.host).unwrap_or(0);
                // A state links to a handful of others: a scan finds its own.
                let out = links.get_mut(start..).unwrap_or_default();
                match out.iter_mut().find(|link| link.to == row.to) {
                    Some(link) => {
                        link.work = link.work.max(row.work);
                        link.hosts |= host;
                    }
                    None => links.push(Link {
                        from,
                        to: row.to,
                        work: row.work,
                        hosts: host,
                    }),
                }
            }
        }
        links
    }
}

/// An [`EdgeRow`] with what depends on its host's view entry worked out
/// for this call.
#[derive(Clone, Copy)]
struct Hop {
    edge: EdgeId,
    to: StateId,
    host: u32,
    work: f64,
    bandwidth: u32,
    /// The host's `capacity − load + 1e-9`: the most work a path may put
    /// on it.
    headroom: f64,
    /// The host's bandwidth headroom, kbps.
    avail_bw: u32,
    /// Setup at the host's currently available speed, in seconds.
    setup: f64,
}

/// Every state's out-edges as [`Hop`]s, in [`SearchTables`] order, leaving
/// out each edge no path can take: the hop alone fails a CPU, bandwidth or
/// deadline check. A goal's list stays empty: no search extends a goal.
struct Hops {
    hops: Vec<Hop>,
    /// `hops[first[v]..first[v + 1]]` leave state `v`.
    first: Vec<u32>,
}

impl Hops {
    fn new(
        tables: &SearchTables,
        infos: &[PeerInfo],
        qos: &QosSpec,
        (deadline_secs, hop_latency_secs): (f64, f64),
        is_goal: impl Fn(StateId) -> bool,
    ) -> Self {
        let mut hops = Vec::with_capacity(tables.rows.len());
        let mut first = Vec::with_capacity(tables.first.len());
        for v in (0..tables.first.len().saturating_sub(1)).map(|v| StateId(crate::idx_u32(v))) {
            first.push(crate::idx_u32(hops.len()));
            let rows = if is_goal(v) { &[][..] } else { tables.out(v) };
            for row in rows {
                let Some(info) = infos.get(row.host as usize) else {
                    continue;
                };
                let hop = Hop {
                    edge: row.edge,
                    to: row.to,
                    host: row.host,
                    work: row.work,
                    bandwidth: row.bandwidth,
                    headroom: info.capacity - info.load + 1e-9,
                    avail_bw: info.available_bandwidth_kbps(),
                    setup: row.setup_work / info.available_capacity(),
                };
                // A path only adds to the hop's own demands and estimate,
                // and the user's bandwidth floor is the same for every
                // path.
                if hop.work > hop.headroom
                    || hop.bandwidth > hop.avail_bw
                    || qos.min_bandwidth_kbps > hop.avail_bw
                    || hop.setup + hop_latency_secs > deadline_secs
                {
                    continue;
                }
                hops.push(hop);
            }
        }
        first.push(crate::idx_u32(hops.len()));
        Self { hops, first }
    }

    /// The hops out of `v`.
    fn out(&self, v: StateId) -> &[Hop] {
        let v = v.0 as usize;
        let lo = self.first.get(v).copied().unwrap_or(0);
        let hi = self.first.get(v.saturating_add(1)).copied().unwrap_or(0);
        self.hops.get(lo as usize..hi as usize).unwrap_or_default()
    }
}

/// The edges from one state to another whose hosts are in the view, folded
/// into one: what the reach table and the `downstream` masks read of the
/// graph.
struct Link {
    from: StateId,
    to: StateId,
    /// The heaviest `work_per_sec` among the hops.
    work: f64,
    /// Their hosts as a peer bitmask (peers past 128 are left out; the
    /// symmetry rule is off there).
    hosts: u128,
}

/// Precomputed branch-and-bound state: per-(hops, vertex) remaining-work
/// budgets and the sorted base loads feeding the water-filling bound.
struct BnbCtx {
    /// `reach[h · num_states + v]`: maximum total work of any ≤`h`-hop
    /// walk from `v` to a goal (revisits allowed — a relaxation, so the
    /// budget is never an underestimate); `-∞` when no goal is reachable
    /// in `h` hops.
    reach: Vec<f64>,
    /// Total-hop cap: `min(num_states − 1, max_hops, ⌊deadline/hop⌋ + 1)`.
    h_cap: usize,
    num_states: usize,
    /// Base loads ascending (ties by peer index), paired with their peer
    /// index.
    sorted_base: Vec<(f64, u32)>,
    /// Per state: the peers hosting a link some completion from it can
    /// use — none out of a goal (the search never extends one), none into
    /// a state that reaches no goal within the hop cap. A goal's mask is 0.
    /// `None` above 128 peers.
    downstream: Option<Vec<u128>>,
    // Reusable scratch, so per-prefix bound evaluation allocates nothing.
    news: Vec<f64>,
    lowest: Vec<f64>,
}

impl BnbCtx {
    fn new(
        num_states: usize,
        links: &[Link],
        is_goal: impl Fn(StateId) -> bool,
        goals: &[StateId],
        qos: &QosSpec,
        hop_latency_secs: f64,
        loads: &[f64],
    ) -> Self {
        let deadline_secs = qos.deadline.as_secs_f64();
        // A simple path visits each vertex at most once.
        let mut h_cap = num_states.saturating_sub(1);
        if let Some(mh) = qos.max_hops {
            h_cap = h_cap.min(mh);
        }
        if hop_latency_secs > 0.0 {
            h_cap = h_cap.min(hops_within(deadline_secs, hop_latency_secs));
        }
        let cells = h_cap.saturating_add(1).saturating_mul(num_states);
        let mut reach = vec![f64::NEG_INFINITY; cells];
        for g in goals {
            if let Some(slot) = reach.get_mut(g.0 as usize) {
                *slot = 0.0;
            }
        }
        // Each row starts as the one before it and is relaxed over the
        // links once: of parallel edges only the heaviest can set a
        // maximum.
        let mut rows = reach.chunks_exact_mut(num_states.max(1));
        let mut prev = rows.next();
        for row in rows {
            let Some(last) = prev else {
                break;
            };
            row.copy_from_slice(last);
            for e in links {
                let r = last
                    .get(e.to.0 as usize)
                    .copied()
                    .unwrap_or(f64::NEG_INFINITY);
                if let Some(slot) = row.get_mut(e.from.0 as usize) {
                    let cand = e.work + r;
                    if r > f64::NEG_INFINITY && cand > *slot {
                        *slot = cand;
                    }
                }
            }
            prev = Some(row);
        }
        // Sorted as integers: the `total_cmp` order of the load, then the
        // index.
        let mut keys: Vec<u128> = (0u32..)
            .zip(loads)
            .map(|(i, &l)| u128::from(order_key(l)) << 64 | u128::from(i))
            .collect();
        keys.sort_unstable();
        let sorted_base: Vec<(f64, u32)> = keys.iter().map(|&k| unpack_key(k)).collect();
        let downstream = (loads.len() <= u128::BITS as usize).then(|| {
            // The links a completion can use, each seeding its source's
            // mask; then a fixpoint over the state graph (it may hold
            // cycles) through them.
            let completes = |v: StateId| {
                let cell = h_cap
                    .saturating_mul(num_states)
                    .saturating_add(v.0 as usize);
                reach.get(cell).is_some_and(|&r| r > f64::NEG_INFINITY)
            };
            let usable = |link: &&Link| !is_goal(link.from) && completes(link.to);
            let mut downstream = vec![0u128; num_states];
            for link in links.iter().filter(usable) {
                if let Some(mask) = downstream.get_mut(link.from.0 as usize) {
                    *mask |= link.hosts;
                }
            }
            let mut changed = true;
            while changed {
                changed = false;
                for link in links.iter().filter(usable) {
                    let below = downstream.get(link.to.0 as usize).copied().unwrap_or(0);
                    if let Some(mask) = downstream.get_mut(link.from.0 as usize) {
                        changed |= below & !*mask != 0;
                        *mask |= below;
                    }
                }
            }
            downstream
        });
        Self {
            reach,
            h_cap,
            num_states,
            sorted_base,
            downstream,
            news: Vec::new(),
            lowest: Vec::new(),
        }
    }

    /// `downstream` of `v` (empty above 128 peers).
    fn downstream(&self, v: StateId) -> u128 {
        self.downstream
            .as_ref()
            .and_then(|d| d.get(v.0 as usize))
            .copied()
            .unwrap_or(0)
    }

    /// `reach` for `h` hops from `v`.
    fn reach(&self, h: usize, v: StateId) -> f64 {
        let cell = h
            .saturating_mul(self.num_states)
            .saturating_add(v.0 as usize);
        self.reach.get(cell).copied().unwrap_or(f64::NEG_INFINITY)
    }

    /// Admissible fairness upper bound for a prefix at `vertex` with `len`
    /// hops used, estimate `est_secs`, and the per-peer load deltas in
    /// `profile`. Returns `NEG_INFINITY` when no completion exists at all
    /// (no goal reachable within the remaining hop budget).
    #[allow(
        clippy::too_many_arguments,
        reason = "the bound needs the full pruning context (deadline, latency, prefix profile); \
                  bundling into a struct would just rename the args"
    )]
    fn upper_bound(
        &mut self,
        tracker: &FairnessTracker,
        vertex: StateId,
        len: u32,
        est_secs: f64,
        deadline_secs: f64,
        hop_latency_secs: f64,
        profile: &[(usize, f64, u32)],
    ) -> f64 {
        // Remaining-hop budget: global cap minus hops used, the
        // simple-path limit on fresh vertices, and the latency the
        // remaining deadline can still absorb.
        let mut h_rem = self.h_cap.saturating_sub(len as usize);
        h_rem = h_rem.min(
            self.num_states
                .saturating_sub(len as usize)
                .saturating_sub(1),
        );
        // A slack of `h_rem` hop latencies or more cannot lower it (the
        // quotient is at least `h_rem − 1` whatever the rounding), so the
        // division is skipped.
        let slack = (deadline_secs - est_secs).max(0.0);
        if hop_latency_secs > 0.0 && slack < hop_latency_secs * h_rem as f64 {
            h_rem = h_rem.min(hops_within(slack, hop_latency_secs));
        }
        let budget = self.reach(h_rem, vertex);
        if budget == f64::NEG_INFINITY {
            return f64::NEG_INFINITY;
        }
        // Only peers some completion from `vertex` can use are raised.
        let hosts = self
            .downstream
            .as_ref()
            .map(|d| d.get(vertex.0 as usize).copied().unwrap_or(0));
        let raisable = |pi: usize| {
            hosts.is_none_or(|m| {
                u32::try_from(pi)
                    .ok()
                    .and_then(|pi| m.checked_shr(pi))
                    .is_some_and(|bit| bit & 1 == 1)
            })
        };
        // Fold the prefix deltas into the tracked Σl / Σl² …
        let loads = tracker.loads();
        let mut sum = tracker.total();
        let mut sum_sq = tracker.total_sq();
        self.news.clear();
        for &(i, w, _) in profile {
            let old = loads.get(i).copied().unwrap_or(0.0);
            let new = old + w;
            sum += new - old;
            sum_sq += new * new - old * old;
            if raisable(i) {
                self.news.push(new);
            }
        }
        // … and splice the changed loads into the presorted base order: the
        // bound reads at most `h_rem + 1` of the lowest loads, not all n
        // per prefix, since each hop left raises one load.
        self.news.sort_by(|a, b| a.total_cmp(b));
        let mut lowest = std::mem::take(&mut self.lowest);
        lowest.clear();
        let (mut base, mut news) = (self.sorted_base.iter(), self.news.iter());
        // A peer of the profile is superseded by its value in `news`.
        let mut next_base = || {
            base.find(|&&(_, pi)| {
                raisable(pi as usize) && !profile.iter().any(|&(i, _, _)| i == pi as usize)
            })
            .map(|&(v, _)| v)
        };
        let (mut b, mut n) = (next_base(), news.next().copied());
        while lowest.len() <= h_rem {
            match (b, n) {
                (Some(bv), Some(nv)) if bv < nv => {
                    lowest.push(bv);
                    b = next_base();
                }
                (_, Some(nv)) => {
                    lowest.push(nv);
                    n = news.next().copied();
                }
                (Some(bv), None) => {
                    lowest.push(bv);
                    b = next_base();
                }
                (None, None) => break,
            }
        }
        let bound = fairness_upper_bound(
            lowest.iter().copied(),
            loads.len(),
            sum,
            sum_sq,
            budget,
            h_rem,
        );
        self.lowest = lowest;
        bound
    }
}

/// Equal-load sibling dominance for the branch-and-bound search (DESIGN.md
/// §10). Peers whose loads are bitwise equal form a class. A feasible child
/// `e` (host `p`, target `t`) is dominated by an earlier feasible sibling
/// `e0` (host `p0`, a smaller id — `out_edges` ascends) when `p0 ≠ p` is in
/// `p`'s class, both go to `t`, their `work_per_sec` bits match, neither
/// host carries a hop of the prefix, and `e0`'s estimate is no worse. Then
/// any completion `P·e·X` whose suffix `X` neither reuses `p` nor touches
/// `p0` is strictly beaten by the feasible `P·e0·X`: the same Jain index bit
/// for bit, the same length, a smaller edge id. So `e`'s subtree keeps only
/// completions whose suffix reuses `p` or touches *every* dominating host —
/// a record `(p, S)` the child hands down to its descendants, and a prefix
/// is cut as soon as one of its records can no longer hold.
struct Symmetry {
    /// Class of each peer (the smallest index with the same load bits);
    /// `NONE_IDX` for a peer whose load no other peer shares.
    class: Vec<u32>,
    /// Feasible children of the prefix being expanded whose host is off
    /// the prefix and in a class: the stand-ins for later siblings, each
    /// linked to the one registered before it under the same `(to, class)`.
    stand_ins: Vec<StandIn>,
    /// Per `(to, class)` slot: the expansion it was last written in and the
    /// newest stand-in registered under it then. A slot from an earlier
    /// expansion reads as empty, so starting an expansion clears nothing.
    heads: Vec<(u32, u32)>,
    /// Number of the expansion in progress.
    expansion: u32,
    peers: usize,
    /// The residual constraints, each linked to the one recorded above it;
    /// a prefix's list starts at its [`PathNode::rec`].
    records: Vec<Record>,
}

/// What a later sibling must match to be dominated, and the host.
struct StandIn {
    work_bits: u64,
    est_secs: f64,
    host: u32,
    /// The previous stand-in under the same `(to, class)`, or `NONE_IDX`.
    next: u32,
    /// This stand-in and the ones its chain reaches, summed up.
    seen: Seen,
}

/// A chain of stand-ins in brief: their hosts, the range of their
/// estimates, and their work bits if they all share them.
struct Seen {
    hosts: u128,
    min_est: f64,
    max_est: f64,
    work_bits: Option<u64>,
}

/// The suffix below the child hosted by `host` must reuse it or touch every
/// peer of `dominators`.
struct Record {
    host: u32,
    dominators: u128,
    parent: u32,
}

impl Symmetry {
    /// `None` when no two peers share a load (the search then pays only
    /// the sort `bnb` already did) or when the domain is too large for the
    /// peer bitmask.
    fn new(bnb: &BnbCtx) -> Option<Self> {
        let peers = bnb.sorted_base.len();
        // No masks: too many peers for the bitmask.
        bnb.downstream.as_ref()?;
        // Sorted by (load, index), a run of equal load bits is a class and
        // its first member the smallest index.
        let same = |a: &(f64, u32), b: &(f64, u32)| a.0.to_bits() == b.0.to_bits();
        if !bnb
            .sorted_base
            .windows(2)
            .any(|w| matches!(w, [a, b] if same(a, b)))
        {
            return None;
        }
        let mut class = vec![NONE_IDX; peers];
        for tied in bnb.sorted_base.chunk_by(same).filter(|g| g.len() > 1) {
            let first = tied.first().map_or(NONE_IDX, |&(_, pi)| pi);
            for &(_, pi) in tied {
                if let Some(slot) = class.get_mut(pi as usize) {
                    *slot = first;
                }
            }
        }
        let slots = bnb.num_states.saturating_mul(peers);
        Some(Self {
            class,
            stand_ins: Vec::new(),
            heads: vec![(0, NONE_IDX); slots],
            expansion: 0,
            peers,
            records: Vec::new(),
        })
    }

    /// Starts the expansion of a new prefix: no child is a stand-in yet.
    fn begin_expansion(&mut self) {
        self.stand_ins.clear();
        self.expansion = self.expansion.wrapping_add(1);
    }

    /// The hosts of earlier feasible siblings that dominate the feasible
    /// child over `hop` with estimate `est_secs`, of a
    /// prefix whose hosts are `prefix`. Registers the child as a stand-in
    /// for the siblings after it.
    fn dominators(&mut self, hop: &Hop, est_secs: f64, prefix: u128) -> u128 {
        let pi = hop.host;
        let class = self.class.get(pi as usize).copied().unwrap_or(NONE_IDX);
        if class == NONE_IDX || prefix >> pi & 1 == 1 {
            return 0;
        }
        let slot = (hop.to.0 as usize)
            .saturating_mul(self.peers)
            .saturating_add(class as usize);
        let Some(head) = self.heads.get_mut(slot) else {
            return 0;
        };
        let first = if head.0 == self.expansion {
            head.1
        } else {
            NONE_IDX
        };
        *head = (self.expansion, crate::idx_u32(self.stand_ins.len()));
        let work_bits = hop.work.to_bits();
        let host = 1u128 << pi;
        let mut seen = Seen {
            hosts: host,
            min_est: est_secs,
            max_est: est_secs,
            work_bits: Some(work_bits),
        };
        let dominators = match self.stand_ins.get(first as usize) {
            None => 0,
            Some(last) => {
                let s = &last.seen;
                seen = Seen {
                    hosts: s.hosts | host,
                    min_est: s.min_est.min(est_secs),
                    max_est: s.max_est.max(est_secs),
                    work_bits: s.work_bits.filter(|&w| w == work_bits),
                };
                // With one work value in the chain, the estimates decide
                // alone: none is lower, or none is higher.
                match s.work_bits {
                    Some(w) if w == work_bits && s.max_est <= est_secs => s.hosts & !host,
                    Some(w) if w == work_bits && s.min_est > est_secs => 0,
                    _ => self.chain_dominators(first, work_bits, pi, est_secs),
                }
            }
        };
        self.stand_ins.push(StandIn {
            work_bits,
            est_secs,
            host: pi,
            next: first,
            seen,
        });
        dominators
    }

    /// [`Symmetry::dominators`] by a walk of the chain from `first`.
    fn chain_dominators(&self, first: u32, work_bits: u64, pi: u32, est_secs: f64) -> u128 {
        let mut dominators = 0u128;
        let mut cur = first;
        while let Some(s) = self.stand_ins.get(cur as usize) {
            let stands_in = (s.work_bits == work_bits) & (s.host != pi) & (s.est_secs <= est_secs);
            dominators |= u128::from(stands_in) << s.host;
            cur = s.next;
        }
        dominators
    }

    /// The record list of a child at a state whose `downstream` mask is
    /// `below`, hosted by `pi`, extending its parent's list `rec` by
    /// `(pi, dominators)` unless that is empty; `None` when some record can
    /// no longer hold there: its host carries one hop and no completion
    /// reaches it again, and some dominating host is off the path and out
    /// of reach. At a goal (an empty mask) that is exactly "every record
    /// holds".
    fn admit(
        &mut self,
        rec: u32,
        pi: u32,
        dominators: u128,
        (peers, twice): (u128, u128),
        below: u128,
    ) -> Option<u32> {
        let mut head = rec;
        if dominators != 0 {
            head = crate::idx_u32(self.records.len());
            self.records.push(Record {
                host: pi,
                dominators,
                parent: rec,
            });
        }
        let mut r = head;
        while let Some(record) = self.records.get(r as usize) {
            let reusable = (twice | below) >> record.host & 1 == 1;
            if !reusable && record.dominators & !peers & !below != 0 {
                if dominators != 0 {
                    self.records.pop();
                }
                return None;
            }
            r = record.parent;
        }
        Some(head)
    }
}

/// A branch-and-bound frontier entry packed into one integer: the
/// priority's `total_cmp` order in the high half, then the arena index
/// inverted, so the max-heap pops the highest priority first and, among
/// ties, the entry pushed first (arena indices grow with every push).
fn best_entry(priority: f64, node: u32) -> u128 {
    u128::from(order_key(priority)) << 64 | u128::from(!node)
}

/// The priority and arena index of a [`best_entry`].
fn unpack_entry(entry: u128) -> (u32, f64) {
    let (priority, node) = unpack_key(entry);
    (!node, priority)
}

/// `x`'s bits with the sign bit flipped if it is non-negative and every
/// bit flipped if not: unsigned order then matches `f64::total_cmp`.
fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The float in bits 64–127 of `key` (an [`order_key`]) and its low 32 bits.
#[allow(
    clippy::cast_possible_truncation,
    reason = "each part of the key is extracted on purpose"
)]
fn unpack_key(key: u128) -> (f64, u32) {
    let high = (key >> 64) as u64;
    let bits = if high >> 63 == 1 {
        high & !(1 << 63)
    } else {
        !high
    };
    (f64::from_bits(bits), key as u32)
}

/// The search frontier: FIFO for the (literal) BFS modes, a max-heap keyed
/// by the admissible fairness upper bound for BranchAndBound. Entries are
/// arena indices.
enum Frontier {
    Fifo(VecDeque<u32>),
    Best(std::collections::BinaryHeap<u128>),
}
impl Frontier {
    fn len(&self) -> usize {
        match self {
            Frontier::Fifo(q) => q.len(),
            Frontier::Best(h) => h.len(),
        }
    }
    fn pop(&mut self) -> Option<(u32, f64)> {
        match self {
            Frontier::Fifo(q) => q.pop_front().map(|n| (n, 0.0)),
            Frontier::Best(h) => h.pop().map(unpack_entry),
        }
    }
    fn push(&mut self, node: u32, priority: f64) {
        match self {
            Frontier::Fifo(q) => q.push_back(node),
            Frontier::Best(h) => h.push(best_entry(priority, node)),
        }
    }
}

/// A scored path that reached a goal, in candidate-discovery order.
struct Candidate {
    /// The arena node the path ends at.
    node: u32,
    fairness: f64,
    est_secs: f64,
    max_util: f64,
    total_work: f64,
}

/// True when the path ending at arena node `a` is shorter than the one at
/// `b`, or as long and lexicographically smaller — the tiebreak order, read
/// off the two chains without materialising either path.
fn path_before(arena: &[PathNode], a: u32, b: u32) -> bool {
    let len = |n: u32| arena.get(n as usize).map_or(0, |n| n.len);
    if len(a) != len(b) {
        return len(a) < len(b);
    }
    // Equal lengths reach the root together; the difference nearest the
    // root decides, and the chains share everything above where they meet.
    let (mut x, mut y) = (a, b);
    let mut before = false;
    while x != y {
        let (Some(nx), Some(ny)) = (arena.get(x as usize), arena.get(y as usize)) else {
            break;
        };
        if nx.edge != ny.edge {
            before = nx.edge < ny.edge;
        }
        (x, y) = (nx.parent, ny.parent);
    }
    before
}

/// The winner of a left fold over `candidates`: a later candidate displaces
/// the incumbent only when `better` than it.
fn argbest(candidates: &[Candidate], better: impl Fn(&Candidate, &Candidate) -> bool) -> usize {
    let mut iter = candidates.iter().enumerate();
    let Some((mut best, mut b)) = iter.next() else {
        return 0;
    };
    for (i, a) in iter {
        if better(a, b) {
            (best, b) = (i, a);
        }
    }
    best
}

/// Applies the per-objective selection rule to the candidate set and
/// builds the final [`Allocation`]. All tiebreaks are deterministic:
/// shorter path first, then lexicographically smaller edge sequence.
#[allow(
    clippy::too_many_arguments,
    reason = "the search's outputs: candidates, the arena and id list they index, and its counters"
)]
fn select_candidate(
    kind: AllocatorKind,
    rng: Option<&mut DetRng>,
    candidates: &[Candidate],
    arena: &[PathNode],
    ids: &[NodeId],
    explored: usize,
    truncated: bool,
    mut stats: AllocStats,
) -> Result<Allocation, AllocError> {
    if candidates.is_empty() {
        return Err(AllocError::NoFeasiblePath { explored });
    }
    let better_tiebreak = |a: &Candidate, b: &Candidate| path_before(arena, a.node, b.node);
    let chosen: usize = match kind {
        // Exact comparison (not epsilon-fuzzed): `total_cmp` is a total
        // order, so the winner is independent of candidate discovery
        // order — which is what lets BranchAndBound prune the frontier
        // without ever changing the answer.
        AllocatorKind::MaxFairness => {
            argbest(candidates, |a, b| match a.fairness.total_cmp(&b.fairness) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Equal => better_tiebreak(a, b),
                std::cmp::Ordering::Less => false,
            })
        }
        AllocatorKind::FirstFeasible => 0,
        AllocatorKind::Random => match rng {
            Some(rng) => rng.index(candidates.len()),
            // Graceful deterministic fallback instead of panicking:
            // without an RNG, "random" degrades to first-feasible.
            None => 0,
        },
        AllocatorKind::LeastLoaded => argbest(candidates, |a, b| {
            a.max_util < b.max_util - 1e-12
                || ((a.max_util - b.max_util).abs() <= 1e-12 && better_tiebreak(a, b))
        }),
        AllocatorKind::MinWork => argbest(candidates, |a, b| {
            a.total_work < b.total_work - 1e-12
                || ((a.total_work - b.total_work).abs() <= 1e-12 && better_tiebreak(a, b))
        }),
    };

    stats.explored_prefixes = explored as u64;
    let Some(c) = candidates.get(chosen) else {
        return Err(AllocError::NoFeasiblePath { explored });
    };
    let mut chain = Vec::new();
    let mut profile = Vec::new();
    collect_profile(arena, c.node, &mut chain, &mut profile);
    Ok(Allocation {
        path: collect_path(arena, c.node, &mut chain),
        fairness: c.fairness,
        est_response: SimDuration::from_secs_f64(c.est_secs),
        load_deltas: profile
            .iter()
            .filter_map(|&(i, w, _)| ids.get(i).map(|&n| (n, w)))
            .collect(),
        explored,
        truncated,
        stats,
    })
}

impl FairnessAllocator {
    /// Creates the paper's default allocator.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Creates an allocator with a specific objective.
    pub fn with_kind(kind: AllocatorKind) -> Self {
        Self {
            kind,
            ..Self::default()
        }
    }

    /// Runs the allocation algorithm.
    ///
    /// `rng` is only consulted by [`AllocatorKind::Random`]; pass `None`
    /// otherwise. See the module docs for the feasibility rules.
    pub fn allocate(
        &self,
        gr: &ResourceGraph,
        view: &PeerView,
        init: StateId,
        goals: &[StateId],
        qos: &QosSpec,
        rng: Option<&mut DetRng>,
    ) -> Result<Allocation, AllocError> {
        if goals.is_empty() {
            return Err(AllocError::NoGoal);
        }
        if view.is_empty() {
            return Err(AllocError::EmptyDomain);
        }
        if init.0 as usize >= gr.num_states()
            || goals.iter().any(|g| g.0 as usize >= gr.num_states())
        {
            return Err(AllocError::UnknownState);
        }

        // Branch-and-bound prunes against the *fairness* objective, so it
        // is only answer-preserving for MaxFairness; every other objective
        // needs the full candidate set and falls back to exhaustive
        // enumeration.
        let mode = if self.params.mode == ExplorationMode::BranchAndBound
            && self.kind != AllocatorKind::MaxFairness
        {
            ExplorationMode::AllSimplePaths
        } else {
            self.params.mode
        };

        // Node order for the fairness tracker (PeerView iterates sorted),
        // plus a dense copy of the per-peer info so the hot loop never
        // touches the BTreeMap.
        let (ids, infos): (Vec<NodeId>, Vec<PeerInfo>) =
            view.iter().map(|(n, i)| (*n, i.clone())).unzip();
        let tracker = FairnessTracker::from_loads(infos.iter().map(|i| i.load).collect());

        let deadline_secs = qos.deadline.as_secs_f64();
        let hop_latency_secs = self.params.hop_latency.as_secs_f64();

        let num_states = gr.num_states();
        // The visited bitmap only fits graphs with ≤ 128 states; beyond
        // that, cycle checks walk the parent chain.
        let use_bitmap = num_states <= 128;
        let mut goal_mask = 0u128;
        if use_bitmap {
            for g in goals {
                goal_mask |= 1u128 << g.0;
            }
        }
        let is_goal =
            |v: StateId| -> bool { use_bitmap && goal_mask >> v.0 & 1 == 1 || goals.contains(&v) };
        // The graph keeps its tables between calls; they are rebuilt when
        // the graph changed (it dropped them) or the domain's ids did.
        let mut kept = gr.search_tables();
        let built;
        let tables = match kept.as_deref_mut() {
            Some(slot) if slot.as_ref().is_some_and(|t| t.ids == ids) => slot.as_ref(),
            Some(slot) => Some(&*slot.insert(SearchTables::new(gr, &ids))),
            None => None,
        };
        let tables = match tables {
            Some(tables) => tables,
            None => {
                built = SearchTables::new(gr, &ids);
                &built
            }
        };
        let times = (deadline_secs, hop_latency_secs);
        let hops = Hops::new(tables, &infos, qos, times, is_goal);
        let mut bnb = if mode == ExplorationMode::BranchAndBound {
            Some(BnbCtx::new(
                num_states,
                &tables.links,
                is_goal,
                goals,
                qos,
                hop_latency_secs,
                tracker.loads(),
            ))
        } else {
            None
        };
        let mut symmetry = bnb.as_ref().and_then(Symmetry::new);
        let mut incumbent = f64::NEG_INFINITY;
        let mut stats = AllocStats::default();

        // Parent-pointer arena of search prefixes and reusable scratch.
        let mut arena: Vec<PathNode> = Vec::with_capacity(64);
        let mut chain: Vec<u32> = Vec::new();
        let mut parent_profile: Vec<(usize, f64, u32)> = Vec::new();
        let mut profile: Vec<(usize, f64, u32)> = Vec::new();
        let mut deltas: Vec<(usize, f64)> = Vec::new();

        let mut candidates: Vec<Candidate> = Vec::new();
        let mut explored = 0usize;
        let mut truncated = false;

        let mut queue = if mode == ExplorationMode::BranchAndBound {
            Frontier::Best(std::collections::BinaryHeap::with_capacity(64))
        } else {
            Frontier::Fifo(VecDeque::new())
        };
        arena.push(PathNode {
            parent: NONE_IDX,
            edge: EdgeId(0),
            vertex: init,
            peer_idx: NONE_IDX,
            work: 0.0,
            bw: 0,
            len: 0,
            est_secs: 0.0,
            visited: if use_bitmap { 1u128 << init.0 } else { 0 },
            peers: 0,
            twice: 0,
            rec: NONE_IDX,
        });
        queue.push(0, 1.0);
        let mut visited_global = if mode == ExplorationMode::GlobalVisited {
            vec![false; num_states]
        } else {
            Vec::new()
        };

        while let Some((ni, prio)) = queue.pop() {
            if explored >= self.params.max_explored {
                truncated = true;
                break;
            }
            // Re-check against the incumbent at dequeue: the bound was
            // computed at push time and the incumbent may have risen since.
            // The heap pops its highest priority first, so every entry
            // left is below the incumbent too: all are cut at once.
            if mode == ExplorationMode::BranchAndBound && prio < incumbent - PRUNE_MARGIN {
                let left = 1usize.saturating_add(queue.len());
                stats.pruned_bound = stats.pruned_bound.saturating_add(left as u64);
                break;
            }
            explored = explored.saturating_add(1);

            let Some(&node) = arena.get(ni as usize) else {
                continue;
            };

            if mode == ExplorationMode::GlobalVisited {
                if visited_global
                    .get(node.vertex.0 as usize)
                    .copied()
                    .unwrap_or(true)
                {
                    continue;
                }
                if let Some(flag) = visited_global.get_mut(node.vertex.0 as usize) {
                    *flag = true;
                }
            }

            if is_goal(node.vertex) {
                // Score the completed path.
                collect_profile(&arena, ni, &mut chain, &mut profile);
                deltas.clear();
                deltas.extend(profile.iter().map(|&(i, w, _)| (i, w)));
                let fairness = tracker.index_with(&deltas);
                let max_util = deltas
                    .iter()
                    .map(|&(i, w)| match infos.get(i) {
                        Some(info) if info.capacity > 0.0 => (info.load + w) / info.capacity,
                        _ => f64::INFINITY,
                    })
                    .fold(0.0f64, f64::max);
                let total_work: f64 = deltas.iter().map(|&(_, w)| w).sum();
                candidates.push(Candidate {
                    node: ni,
                    fairness,
                    est_secs: node.est_secs,
                    max_util,
                    total_work,
                });
                if fairness > incumbent {
                    incumbent = fairness;
                }
                if self.kind == AllocatorKind::FirstFeasible {
                    break; // first complete feasible path in BFS order
                }
                // A goal vertex may still have outgoing edges (another goal
                // further on is possible but pointless); stop extending.
                continue;
            }

            // Expand. Hop-count prune before generating children.
            if let Some(max_hops) = qos.max_hops {
                if node.len as usize >= max_hops {
                    continue;
                }
            }

            if let Some(sym) = symmetry.as_mut() {
                sym.begin_expansion();
            }
            // Every child extends the same prefix: materialise its profile
            // once.
            collect_profile(&arena, ni, &mut chain, &mut parent_profile);
            for hop in hops.out(node.vertex) {
                // Cycle check (simple paths): `to` must not be on the path
                // (the root vertex `init` is always on it).
                if mode == ExplorationMode::GlobalVisited {
                    if visited_global
                        .get(hop.to.0 as usize)
                        .copied()
                        .unwrap_or(true)
                    {
                        continue;
                    }
                } else {
                    let revisits = if use_bitmap {
                        node.visited >> hop.to.0 & 1 == 1
                    } else {
                        on_path(&arena, ni, hop.to)
                    };
                    if revisits {
                        continue;
                    }
                }

                let pi = hop.host;

                // Accumulate this path's demands on the host.
                let (prev_work, prev_bw) = parent_profile
                    .iter()
                    .find(|&&(i, _, _)| i == pi as usize)
                    .map_or((0.0, 0), |&(_, w, bw)| (w, bw));
                let new_work = prev_work + hop.work;
                let new_bw = prev_bw.saturating_add(hop.bandwidth);

                // (3) CPU sustainability.
                if new_work > hop.headroom {
                    continue;
                }
                // (2) bandwidth (the user's floor is checked per hop, once).
                if new_bw > hop.avail_bw {
                    continue;
                }
                // (4) deadline: setup at currently-available speed + hop latency.
                let est = node.est_secs + hop.setup + hop_latency_secs;
                if est > deadline_secs {
                    continue;
                }

                let (mut peers, mut twice, mut rec) = (0, 0, NONE_IDX);
                if let Some(sym) = symmetry.as_mut() {
                    let host = 1u128 << pi;
                    (peers, twice) = (node.peers | host, node.twice | node.peers & host);
                    let dominators = sym.dominators(hop, est, node.peers);
                    let below = bnb.as_ref().map_or(0, |ctx| ctx.downstream(hop.to));
                    let Some(head) = sym.admit(node.rec, pi, dominators, (peers, twice), below)
                    else {
                        stats.pruned_dominated = stats.pruned_dominated.saturating_add(1);
                        continue;
                    };
                    rec = head;
                }

                let child = PathNode {
                    parent: ni,
                    edge: hop.edge,
                    vertex: hop.to,
                    peer_idx: pi,
                    work: new_work,
                    bw: new_bw,
                    len: node.len.saturating_add(1),
                    est_secs: est,
                    visited: if use_bitmap {
                        node.visited | 1u128 << hop.to.0
                    } else {
                        0
                    },
                    peers,
                    twice,
                    rec,
                };

                let mut priority = 0.0;
                if let Some(ctx) = bnb.as_mut() {
                    profile.clone_from(&parent_profile);
                    apply_hop(&mut profile, pi as usize, new_work, new_bw);
                    let completes = is_goal(hop.to);
                    priority = if completes {
                        // A completed path is scored where it is made: its
                        // exact index is its bound, and it raises the
                        // incumbent at once, so its later siblings are cut
                        // before they are pushed. It is still pushed, and
                        // scored when popped, only while it can win.
                        deltas.clear();
                        deltas.extend(profile.iter().map(|&(i, w, _)| (i, w)));
                        tracker.index_with(&deltas)
                    } else {
                        ctx.upper_bound(
                            &tracker,
                            hop.to,
                            child.len,
                            est,
                            deadline_secs,
                            hop_latency_secs,
                            &profile,
                        )
                    };
                    if priority == f64::NEG_INFINITY || priority < incumbent - PRUNE_MARGIN {
                        stats.pruned_bound = stats.pruned_bound.saturating_add(1);
                        continue;
                    }
                    if completes && priority > incumbent {
                        incumbent = priority;
                    }
                }

                let idx = crate::idx_u32(arena.len());
                arena.push(child);
                queue.push(idx, priority);
            }
        }

        select_candidate(
            self.kind,
            rng,
            &candidates,
            &arena,
            &ids,
            explored,
            truncated,
            stats,
        )
    }
}

/// Runs the paper's default allocator (fairness argmax over all simple
/// QoS-feasible paths) — the free-function form of
/// [`FairnessAllocator::allocate`].
///
/// # Examples
///
/// ```
/// use arm_model::{allocate, MediaFormat, PeerInfo, PeerView, QosSpec, ResourceGraph};
/// use arm_util::{NodeId, SimDuration};
///
/// let (graph, _) = ResourceGraph::figure1();
/// let mut view = PeerView::new();
/// for p in 1..=5 {
///     view.upsert(NodeId::new(p), PeerInfo::idle(100.0, 10_000));
/// }
/// let init = graph.state_of(MediaFormat::paper_source()).unwrap();
/// let goal = graph.state_of(MediaFormat::paper_target()).unwrap();
/// let qos = QosSpec::with_deadline(SimDuration::from_secs(5));
/// let alloc = allocate(&graph, &view, init, &[goal], &qos).unwrap();
/// assert!(!alloc.path.is_empty());
/// assert!(alloc.fairness > 0.0 && alloc.fairness <= 1.0);
/// ```
pub fn allocate(
    gr: &ResourceGraph,
    view: &PeerView,
    init: StateId,
    goals: &[StateId],
    qos: &QosSpec,
) -> Result<Allocation, AllocError> {
    FairnessAllocator::paper().allocate(gr, view, init, goals, qos, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::MediaFormat;
    use crate::peerview::PeerInfo;
    use arm_util::fairness_index;

    /// The Fig. 1 graph with a fully idle, capable domain.
    fn setup() -> (ResourceGraph, Vec<EdgeId>, PeerView, StateId, StateId) {
        let (gr, e) = ResourceGraph::figure1();
        let mut view = PeerView::new();
        for p in 1..=5u64 {
            view.upsert(NodeId::new(p), PeerInfo::idle(100.0, 10_000));
        }
        let init = gr.state_of(MediaFormat::paper_source()).unwrap();
        let goal = gr.state_of(MediaFormat::paper_target()).unwrap();
        (gr, e, view, init, goal)
    }

    fn lenient_qos() -> QosSpec {
        QosSpec::with_deadline(SimDuration::from_secs(10))
    }

    #[test]
    fn finds_the_three_paper_paths() {
        let (gr, e, view, init, goal) = setup();
        // Collect all feasible candidates by running Random across seeds —
        // instead, verify via FirstFeasible+exploration count and the known
        // path set by checking each path is feasible under MaxFairness with
        // forced tie conditions. Simplest: enumerate with a tiny helper.
        let alloc = allocate(&gr, &view, init, &[goal], &lenient_qos()).unwrap();
        // All three candidate paths are {e1,e2}, {e1,e3}, {e1,e4,e5,e8}.
        let valid = [
            vec![e[0], e[1]],
            vec![e[0], e[2]],
            vec![e[0], e[3], e[4], e[7]],
        ];
        assert!(valid.contains(&alloc.path), "got {:?}", alloc.path);
        assert!(!alloc.truncated);
        assert!(alloc.explored > 0);
    }

    #[test]
    fn idle_domain_prefers_spreading() {
        // On an idle domain the 2-hop paths load 2 peers; fairness of the
        // chosen allocation must equal the best achievable.
        let (gr, _e, view, init, goal) = setup();
        let alloc = allocate(&gr, &view, init, &[goal], &lenient_qos()).unwrap();
        // Verify the reported fairness matches a direct computation.
        let mut loads = view.loads();
        let ids: Vec<NodeId> = view.ids().collect();
        for (peer, w) in &alloc.load_deltas {
            let i = ids.iter().position(|n| n == peer).unwrap();
            loads[i] += w;
        }
        assert!((alloc.fairness - fairness_index(&loads)).abs() < 1e-12);
    }

    #[test]
    fn maxfairness_beats_or_equals_first_feasible() {
        let (gr, _e, mut view, init, goal) = setup();
        // Pre-load peer 2 so the e1,e2 path becomes unattractive.
        view.get_mut(NodeId::new(2)).unwrap().load = 80.0;
        let fair = allocate(&gr, &view, init, &[goal], &lenient_qos()).unwrap();
        let first = FairnessAllocator::with_kind(AllocatorKind::FirstFeasible)
            .allocate(&gr, &view, init, &[goal], &lenient_qos(), None)
            .unwrap();
        assert!(fair.fairness >= first.fairness - 1e-12);
        // With peer 2 at load 80, the fairest option is the 4-hop path
        // (loads 8,82,0,5,3 → F≈0.2816, beating {e1,e3}'s F≈0.2719): the
        // allocator spreads work across more peers rather than merely
        // avoiding the hot one.
        assert_eq!(fair.path.len(), 4);
    }

    #[test]
    fn deadline_prunes_long_path() {
        let (gr, e, view, init, goal) = setup();
        // Per-hop latency 20ms. The 2-hop paths estimate at 75ms
        // (20+8·0.25/100 s, 20+6·0.25/100 s); the 4-hop path at 125ms.
        // An 80ms deadline admits only the 2-hop paths.
        let qos = QosSpec::with_deadline(SimDuration::from_millis(80));
        let alloc = allocate(&gr, &view, init, &[goal], &qos).unwrap();
        assert!(alloc.path.len() == 2, "got {:?}", alloc.path);
        // And an impossible deadline yields NoFeasiblePath.
        let qos = QosSpec::with_deadline(SimDuration::from_millis(1));
        let err = allocate(&gr, &view, init, &[goal], &qos).unwrap_err();
        assert!(matches!(err, AllocError::NoFeasiblePath { .. }));
        let _ = e;
    }

    #[test]
    fn max_hops_prunes() {
        let (gr, _e, mut view, init, goal) = setup();
        // Kill the short paths but keep the long one alive: e3's host
        // (peer 3) fully loaded; e2's host (peer 2) left just enough
        // headroom for e8 (work 2) but not e2 (work 6).
        view.get_mut(NodeId::new(2)).unwrap().load = 95.0;
        view.get_mut(NodeId::new(3)).unwrap().load = 99.9;
        let qos = lenient_qos().max_hops(2);
        let err = allocate(&gr, &view, init, &[goal], &qos).unwrap_err();
        assert!(matches!(err, AllocError::NoFeasiblePath { .. }));
        // Without the cap the 4-hop path is found.
        let alloc = allocate(&gr, &view, init, &[goal], &lenient_qos()).unwrap();
        assert_eq!(alloc.path.len(), 4);
    }

    #[test]
    fn cpu_saturation_excludes_peer() {
        let (gr, e, mut view, init, goal) = setup();
        // Saturate peer 1, which hosts the mandatory first hop e1.
        view.get_mut(NodeId::new(1)).unwrap().load = 100.0;
        let err = allocate(&gr, &view, init, &[goal], &lenient_qos()).unwrap_err();
        assert!(matches!(err, AllocError::NoFeasiblePath { .. }));
        let _ = e;
    }

    #[test]
    fn bandwidth_floor_excludes_thin_peers() {
        let (gr, _e, mut view, init, goal) = setup();
        // Peer 2's link too thin for the floor; peer 3 fine.
        view.get_mut(NodeId::new(2))
            .unwrap()
            .bandwidth_capacity_kbps = 100;
        let qos = lenient_qos().min_bandwidth(320);
        let alloc = allocate(&gr, &view, init, &[goal], &qos).unwrap();
        assert!(!alloc.load_deltas.iter().any(|(p, _)| *p == NodeId::new(2)));
    }

    #[test]
    fn init_equals_goal_is_empty_path() {
        let (gr, _e, view, init, _goal) = setup();
        let alloc = allocate(&gr, &view, init, &[init], &lenient_qos()).unwrap();
        assert!(alloc.path.is_empty());
        assert_eq!(alloc.est_response, SimDuration::ZERO);
        assert_eq!(alloc.fairness, 1.0); // idle domain stays perfectly fair
    }

    #[test]
    fn multiple_goals_any_accepted() {
        let (gr, e, view, init, goal) = setup();
        let v5 = gr.edge(e[4]).to; // intermediate 128kbps state
        let alloc = allocate(&gr, &view, init, &[goal, v5], &lenient_qos()).unwrap();
        // v5 is reachable in 3 hops, goal in 2; either acceptable, and the
        // allocator scores both. The chosen path must end at one of them.
        let last = *alloc.path.last().unwrap();
        let end = gr.edge(last).to;
        assert!(end == goal || end == v5);
    }

    #[test]
    fn error_cases() {
        let (gr, _e, view, init, goal) = setup();
        assert_eq!(
            allocate(&gr, &view, init, &[], &lenient_qos()).unwrap_err(),
            AllocError::NoGoal
        );
        assert_eq!(
            allocate(&gr, &PeerView::new(), init, &[goal], &lenient_qos()).unwrap_err(),
            AllocError::EmptyDomain
        );
        assert_eq!(
            allocate(&gr, &view, StateId(99), &[goal], &lenient_qos()).unwrap_err(),
            AllocError::UnknownState
        );
    }

    #[test]
    fn global_visited_underexplores() {
        let (gr, _e, mut view, init, goal) = setup();
        view.get_mut(NodeId::new(2)).unwrap().load = 80.0;
        let all = FairnessAllocator {
            params: AllocParams::default(),
            kind: AllocatorKind::MaxFairness,
        }
        .allocate(&gr, &view, init, &[goal], &lenient_qos(), None)
        .unwrap();
        let literal = FairnessAllocator {
            params: AllocParams {
                mode: ExplorationMode::GlobalVisited,
                ..AllocParams::default()
            },
            kind: AllocatorKind::MaxFairness,
        }
        .allocate(&gr, &view, init, &[goal], &lenient_qos(), None)
        .unwrap();
        // The literal mode sees fewer candidates and can't beat the full
        // enumeration.
        assert!(literal.explored <= all.explored);
        assert!(literal.fairness <= all.fairness + 1e-12);
    }

    #[test]
    fn random_allocator_is_feasible_and_deterministic_per_seed() {
        let (gr, _e, view, init, goal) = setup();
        let alloc1 = FairnessAllocator::with_kind(AllocatorKind::Random)
            .allocate(
                &gr,
                &view,
                init,
                &[goal],
                &lenient_qos(),
                Some(&mut DetRng::new(5)),
            )
            .unwrap();
        let alloc2 = FairnessAllocator::with_kind(AllocatorKind::Random)
            .allocate(
                &gr,
                &view,
                init,
                &[goal],
                &lenient_qos(),
                Some(&mut DetRng::new(5)),
            )
            .unwrap();
        assert_eq!(alloc1.path, alloc2.path);
    }

    #[test]
    fn least_loaded_minimises_max_util() {
        let (gr, _e, mut view, init, goal) = setup();
        view.get_mut(NodeId::new(2)).unwrap().load = 50.0;
        let alloc = FairnessAllocator::with_kind(AllocatorKind::LeastLoaded)
            .allocate(&gr, &view, init, &[goal], &lenient_qos(), None)
            .unwrap();
        // Avoids peer 2 (the loaded host of e2/e8): picks {e1,e3}.
        assert!(!alloc.load_deltas.iter().any(|(p, _)| *p == NodeId::new(2)));
    }

    #[test]
    fn min_work_picks_cheapest_path() {
        let (gr, e, view, init, goal) = setup();
        let alloc = FairnessAllocator::with_kind(AllocatorKind::MinWork)
            .allocate(&gr, &view, init, &[goal], &lenient_qos(), None)
            .unwrap();
        // Total work: e1+e2 = 14, e1+e3 = 14, long path = 18. Tiebreak
        // (lexicographic) picks {e1,e2}.
        assert_eq!(alloc.path, vec![e[0], e[1]]);
    }

    #[test]
    fn truncation_flag_when_cap_hit() {
        let (gr, _e, view, init, goal) = setup();
        let alloc = FairnessAllocator {
            params: AllocParams {
                max_explored: 2,
                ..AllocParams::default()
            },
            kind: AllocatorKind::MaxFairness,
        }
        .allocate(&gr, &view, init, &[goal], &lenient_qos(), None);
        // With only 2 dequeues the search may or may not reach a goal;
        // either way it must not panic, and if it succeeds it's truncated.
        if let Ok(a) = alloc {
            assert!(a.truncated);
        }
    }

    #[test]
    fn fairness_choice_matches_exhaustive_argmax() {
        // Cross-check the argmax against scoring every valid path by hand.
        let (gr, e, mut view, init, goal) = setup();
        view.get_mut(NodeId::new(3)).unwrap().load = 30.0;
        view.get_mut(NodeId::new(5)).unwrap().load = 10.0;
        let qos = lenient_qos();
        let alloc = allocate(&gr, &view, init, &[goal], &qos).unwrap();

        let ids: Vec<NodeId> = view.ids().collect();
        let paths = [
            vec![e[0], e[1]],
            vec![e[0], e[2]],
            vec![e[0], e[3], e[4], e[7]],
        ];
        let mut best = f64::MIN;
        for p in &paths {
            let mut loads = view.loads();
            for &eid in p {
                let edge = gr.edge(eid);
                let i = ids.iter().position(|n| *n == edge.peer).unwrap();
                loads[i] += edge.cost.work_per_sec;
            }
            best = best.max(fairness_index(&loads));
        }
        assert!((alloc.fairness - best).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::media::{Codec, MediaFormat, Resolution};
    use crate::peerview::PeerInfo;
    use crate::service::ServiceCost;
    use arm_util::{fairness_index, ServiceId};
    use proptest::prelude::*;

    /// Random layered DAG: `layers` layers of up to `width` states, edges
    /// between adjacent layers hosted on random peers. Each hop is offered
    /// by up to `duplicates` replicated service edges (on different — and
    /// sometimes the same — peers), so with `duplicates > 1` the search
    /// tree repeats states and ties must break identically in both modes.
    pub(super) fn random_graph(
        seed: u64,
        layers: usize,
        width: usize,
        peers: usize,
        edge_prob: f64,
        duplicates: usize,
    ) -> (ResourceGraph, PeerView, StateId, StateId) {
        let mut rng = DetRng::new(seed);
        let mut gr = ResourceGraph::new();
        let mut layer_states: Vec<Vec<StateId>> = Vec::new();
        let mut fmt_id = 0u32;
        let mut fresh_format = || {
            fmt_id += 1;
            MediaFormat::new(
                Codec::ALL[(fmt_id as usize) % Codec::ALL.len()],
                Resolution::new(100 + fmt_id as u16, 100),
                fmt_id,
            )
        };
        for li in 0..layers {
            let w = if li == 0 || li == layers - 1 {
                1
            } else {
                1 + rng.index(width)
            };
            layer_states.push((0..w).map(|_| gr.intern_state(fresh_format())).collect());
        }
        let mut svc = 0u64;
        for li in 0..layers - 1 {
            for &a in &layer_states[li] {
                for &b in &layer_states[li + 1] {
                    if rng.chance(edge_prob) || b == layer_states[li + 1][0] {
                        let copies = 1 + rng.index(duplicates.max(1));
                        let cost = ServiceCost {
                            work_per_sec: rng.uniform(1.0, 8.0),
                            setup_work: rng.uniform(0.5, 2.0),
                            bandwidth_kbps: 64,
                        };
                        for _ in 0..copies {
                            svc += 1;
                            gr.add_edge(
                                a,
                                b,
                                NodeId::new(rng.below(peers as u64)),
                                ServiceId::new(svc),
                                cost,
                            );
                        }
                    }
                }
            }
        }
        let mut view = PeerView::new();
        for p in 0..peers as u64 {
            let mut info = PeerInfo::idle(rng.uniform(50.0, 150.0), 100_000);
            info.load = rng.uniform(0.0, 40.0);
            view.upsert(NodeId::new(p), info);
        }
        (gr, view, layer_states[0][0], layer_states[layers - 1][0])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The paper's core guarantee: among all simple QoS-feasible paths,
        /// the returned one has maximal fairness. Verified against a
        /// brute-force DFS enumeration.
        #[test]
        fn maxfairness_is_argmax(seed in 0u64..500) {
            let (gr, view, init, goal) = random_graph(seed, 4, 3, 6, 0.7, 1);
            let qos = QosSpec::with_deadline(SimDuration::from_secs(30));
            let result = allocate(&gr, &view, init, &[goal], &qos);

            // Brute force: enumerate simple paths by DFS and re-check
            // feasibility + fairness independently.
            let ids: Vec<NodeId> = view.ids().collect();
            let mut best: Option<f64> = None;
            let mut stack = vec![(init, Vec::<EdgeId>::new())];
            while let Some((v, path)) = stack.pop() {
                if v == goal {
                    // feasibility: accumulate per-peer work/bw
                    let mut work: Vec<(NodeId, f64)> = Vec::new();
                    let mut est = 0.0;
                    let mut feasible = true;
                    for &eid in &path {
                        let e = gr.edge(eid);
                        let info = view.get(e.peer).unwrap();
                        let w = work.iter_mut().find(|(p, _)| *p == e.peer);
                        match w {
                            Some(entry) => entry.1 += e.cost.work_per_sec,
                            None => work.push((e.peer, e.cost.work_per_sec)),
                        }
                        let acc = work.iter().find(|(p, _)| *p == e.peer).unwrap().1;
                        if acc > info.capacity - info.load + 1e-9 {
                            feasible = false;
                            break;
                        }
                        est += e.cost.setup_work / info.available_capacity() + 0.020;
                        if est > qos.deadline.as_secs_f64() {
                            feasible = false;
                            break;
                        }
                    }
                    if feasible {
                        let mut loads = view.loads();
                        for (p, w) in &work {
                            let i = ids.iter().position(|n| n == p).unwrap();
                            loads[i] += w;
                        }
                        let f = fairness_index(&loads);
                        best = Some(best.map_or(f, |b: f64| b.max(f)));
                    }
                    continue;
                }
                for e in gr.out_edges(v) {
                    let revisit = e.to == init
                        || path.iter().any(|&pe| gr.edge(pe).to == e.to);
                    if revisit {
                        continue;
                    }
                    let mut np = path.clone();
                    np.push(e.id);
                    stack.push((e.to, np));
                }
            }

            match (result, best) {
                (Ok(a), Some(b)) => prop_assert!((a.fairness - b).abs() < 1e-9,
                    "allocator {} vs brute force {}", a.fairness, b),
                (Err(AllocError::NoFeasiblePath{..}), None) => {}
                (r, b) => prop_assert!(false, "disagree: {r:?} vs brute {b:?}"),
            }
        }

        /// Allocation never violates the CPU sustainability invariant.
        #[test]
        fn allocation_respects_capacity(seed in 0u64..500) {
            let (gr, view, init, goal) = random_graph(seed, 5, 3, 4, 0.6, 1);
            let qos = QosSpec::with_deadline(SimDuration::from_secs(30));
            if let Ok(a) = allocate(&gr, &view, init, &[goal], &qos) {
                for (peer, w) in &a.load_deltas {
                    let info = view.get(*peer).unwrap();
                    prop_assert!(info.load + w <= info.capacity + 1e-6);
                }
                // And the path is connected init -> goal.
                let mut v = init;
                for &eid in &a.path {
                    let e = gr.edge(eid);
                    prop_assert_eq!(e.from, v);
                    v = e.to;
                }
                prop_assert_eq!(v, goal);
            }
        }
    }
}

#[cfg(test)]
mod bnb_tests {
    use super::proptests::random_graph;
    use super::*;
    use proptest::prelude::*;

    fn alloc_with(mode: ExplorationMode, kind: AllocatorKind) -> FairnessAllocator {
        FairnessAllocator {
            params: AllocParams {
                mode,
                ..AllocParams::default()
            },
            kind,
        }
    }

    /// Bitwise equality of two allocation results (path, fairness,
    /// estimate and per-peer load deltas), the contract BranchAndBound
    /// guarantees.
    fn assert_identical(a: &Result<Allocation, AllocError>, b: &Result<Allocation, AllocError>) {
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.path, b.path, "paths differ");
                assert_eq!(
                    a.fairness.to_bits(),
                    b.fairness.to_bits(),
                    "fairness differs: {} vs {}",
                    a.fairness,
                    b.fairness
                );
                assert_eq!(a.est_response, b.est_response, "estimates differ");
                assert_eq!(a.load_deltas.len(), b.load_deltas.len());
                for (x, y) in a.load_deltas.iter().zip(&b.load_deltas) {
                    assert_eq!(x.0, y.0);
                    assert_eq!(x.1.to_bits(), y.1.to_bits(), "load delta differs");
                }
            }
            (Err(x), Err(y)) => {
                // Same failure class; explored counts legitimately differ.
                assert_eq!(
                    std::mem::discriminant(x),
                    std::mem::discriminant(y),
                    "error kinds differ: {x:?} vs {y:?}"
                );
            }
            (x, y) => panic!("results disagree: {x:?} vs {y:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The headline identity: branch-and-bound returns the *same*
        /// allocation as exhaustive enumeration — path, fairness, estimate
        /// and load deltas, bit for bit — while exploring fewer prefixes.
        #[test]
        fn bnb_identical_to_exhaustive(seed in 0u64..400) {
            let (gr, view, init, goal) = random_graph(seed, 5, 3, 6, 0.7, 2);
            let qos = QosSpec::with_deadline(SimDuration::from_secs(30));
            let full = alloc_with(ExplorationMode::AllSimplePaths, AllocatorKind::MaxFairness)
                .allocate(&gr, &view, init, &[goal], &qos, None);
            let bnb = alloc_with(ExplorationMode::BranchAndBound, AllocatorKind::MaxFairness)
                .allocate(&gr, &view, init, &[goal], &qos, None);
            assert_identical(&full, &bnb);
            if let (Ok(f), Ok(b)) = (&full, &bnb) {
                prop_assert!(
                    b.stats.explored_prefixes <= f.stats.explored_prefixes,
                    "bnb explored more ({}) than exhaustive ({})",
                    b.stats.explored_prefixes,
                    f.stats.explored_prefixes
                );
            }
        }

        /// BranchAndBound under a non-fairness objective silently falls
        /// back to exhaustive enumeration — never a wrong answer.
        #[test]
        fn bnb_fallback_for_other_objectives(seed in 0u64..150) {
            let (gr, view, init, goal) = random_graph(seed, 4, 3, 5, 0.7, 2);
            let qos = QosSpec::with_deadline(SimDuration::from_secs(30));
            for kind in [AllocatorKind::LeastLoaded, AllocatorKind::MinWork] {
                let full = alloc_with(ExplorationMode::AllSimplePaths, kind)
                    .allocate(&gr, &view, init, &[goal], &qos, None);
                let bnb = alloc_with(ExplorationMode::BranchAndBound, kind)
                    .allocate(&gr, &view, init, &[goal], &qos, None);
                assert_identical(&full, &bnb);
            }
        }
    }

    /// Layers of states (widths 1, 1–2, …, 1) over 10 peers, with several
    /// parallel edges per conversion. Homogeneous (`het == false`): four
    /// layers, 4–6 copies, every copy of a conversion at the same cost and
    /// on any peer. Heterogeneous: five layers, 2–5 copies, each drawing its
    /// `work_per_sec`, setup work and bandwidth from small sets, hosted on a
    /// window of five peers that shifts by three per layer — so some peers
    /// serve two layers (a path can reuse them) and some serve one (they
    /// are out of reach below it).
    fn tied_layers(rng: &mut DetRng, het: bool) -> (ResourceGraph, Vec<Vec<StateId>>) {
        use crate::media::{Codec, MediaFormat, Resolution};
        use crate::service::ServiceCost;
        use arm_util::ServiceId;
        let mut gr = ResourceGraph::new();
        let depth = if het { 5 } else { 4 };
        let mut fmt_id = 0u32;
        let layers: Vec<Vec<StateId>> = (0..depth)
            .map(|li| {
                let width = if li == 0 || li == depth - 1 {
                    1
                } else {
                    1 + rng.index(2)
                };
                (0..width)
                    .map(|_| {
                        fmt_id += 1;
                        let res = Resolution::new(100 + fmt_id as u16, 100);
                        gr.intern_state(MediaFormat::new(Codec::Mpeg4, res, fmt_id))
                    })
                    .collect()
            })
            .collect();
        let mut svc = 0u64;
        for (li, pair) in (0u64..).zip(layers.windows(2)) {
            for &a in &pair[0] {
                for &b in &pair[1] {
                    let mut cost = ServiceCost {
                        work_per_sec: rng.uniform(1.0, 8.0),
                        setup_work: rng.uniform(0.5, 2.0),
                        bandwidth_kbps: 64,
                    };
                    let copies = if het {
                        2 + rng.index(4)
                    } else {
                        4 + rng.index(3)
                    };
                    for _ in 0..copies {
                        let host = if het {
                            cost.work_per_sec = [2.0, 4.0, 6.0][rng.index(3)];
                            cost.setup_work = [0.5, 1.0, 2.0][rng.index(3)];
                            cost.bandwidth_kbps = [64, 128, 256][rng.index(3)];
                            (3 * li + rng.below(5)) % TIED_PEERS
                        } else {
                            rng.below(TIED_PEERS)
                        };
                        svc += 1;
                        gr.add_edge(a, b, NodeId::new(host), ServiceId::new(svc), cost);
                    }
                }
            }
        }
        (gr, layers)
    }

    const TIED_PEERS: u64 = 10;

    /// A layered graph over a *homogeneous* domain: one capacity and
    /// bandwidth, loads drawn from `1 + seed % 3` quantised levels (one
    /// level = all idle), and equal-cost parallel edges per conversion —
    /// the tied regime `random_graph` never produces (its capacities and
    /// loads are continuous draws), where the symmetry rule does the work.
    fn homogeneous_graph(seed: u64) -> (ResourceGraph, PeerView, StateId, StateId) {
        let mut rng = DetRng::new(seed);
        let (gr, layers) = tied_layers(&mut rng, false);
        let levels = 1 + (seed % 3) as usize;
        let view = (0..TIED_PEERS)
            .map(|p| {
                let mut info = PeerInfo::idle(100.0, 100_000);
                info.load = 15.0 * rng.index(levels) as f64;
                (NodeId::new(p), info)
            })
            .collect();
        (gr, view, layers[0][0], layers[3][0])
    }

    /// The identity `bnb_identical_to_exhaustive` checks, on the domains
    /// it cannot reach: peers that tie, where the symmetry rule skips
    /// whole subtrees.
    #[test]
    fn bnb_identical_on_homogeneous_ties() {
        let qos = QosSpec::with_deadline(SimDuration::from_secs(30));
        let mut skipped = 0;
        for seed in 0..400 {
            let (gr, view, init, goal) = homogeneous_graph(seed);
            let full = alloc_with(ExplorationMode::AllSimplePaths, AllocatorKind::MaxFairness)
                .allocate(&gr, &view, init, &[goal], &qos, None);
            let bnb = alloc_with(ExplorationMode::BranchAndBound, AllocatorKind::MaxFairness)
                .allocate(&gr, &view, init, &[goal], &qos, None);
            assert_identical(&full, &bnb);
            skipped += bnb.map_or(0, |b| b.stats.pruned_dominated);
        }
        assert!(skipped > 0, "the symmetry rule never fired");
    }

    /// Peers that tie on load but on nothing else: capacity, bandwidth
    /// capacity and bandwidth use drawn per peer from small sets, setup
    /// work and bandwidth per parallel edge, one or two goals on any layer
    /// past the first (so some goals have edges out), and deadlines from
    /// 0.1 s to 30 s, tight enough to bind on the slow peers.
    fn heterogeneous_tied_domain(
        seed: u64,
    ) -> (ResourceGraph, PeerView, StateId, Vec<StateId>, QosSpec) {
        let mut rng = DetRng::new(seed);
        let (gr, layers) = tied_layers(&mut rng, true);
        let levels = 1 + (seed % 4) as usize;
        let view = (0..TIED_PEERS)
            .map(|p| {
                let mut info = PeerInfo::idle(
                    [25.0, 50.0, 100.0][rng.index(3)],
                    [300, 1_000, 100_000][rng.index(3)],
                );
                info.bandwidth_used_kbps = [0, 128, 256][rng.index(3)];
                info.load = 8.0 * rng.index(levels) as f64;
                (NodeId::new(p), info)
            })
            .collect();
        let later: Vec<StateId> = layers.iter().skip(1).flatten().copied().collect();
        let goals = (0..1 + rng.index(2))
            .map(|_| later[rng.index(later.len())])
            .collect();
        let deadline = (rng.uniform(0.1f64.ln(), 30f64.ln())).exp();
        let qos = QosSpec::with_deadline(SimDuration::from_secs_f64(deadline));
        (gr, view, layers[0][0], goals, qos)
    }

    /// The identity again where the rule compares estimates and carries
    /// residual constraints: equal loads, everything else unequal.
    #[test]
    fn bnb_identical_on_heterogeneous_ties() {
        let mut skipped = 0;
        for seed in 0..2_000 {
            let (gr, view, init, goals, qos) = heterogeneous_tied_domain(seed);
            let full = alloc_with(ExplorationMode::AllSimplePaths, AllocatorKind::MaxFairness)
                .allocate(&gr, &view, init, &goals, &qos, None);
            let bnb = alloc_with(ExplorationMode::BranchAndBound, AllocatorKind::MaxFairness)
                .allocate(&gr, &view, init, &goals, &qos, None);
            assert_identical(&full, &bnb);
            skipped += bnb.map_or(0, |b| b.stats.pruned_dominated);
        }
        assert!(skipped > 0, "the symmetry rule never fired");
    }

    /// One conversion offered by every peer of `capacities`, all idle.
    fn one_hop_domain(capacities: &[f64]) -> Allocation {
        use crate::media::MediaFormat;
        use crate::service::ServiceCost;
        use arm_util::ServiceId;
        let mut gr = ResourceGraph::new();
        let init = gr.intern_state(MediaFormat::paper_source());
        let goal = gr.intern_state(MediaFormat::paper_target());
        let cost = ServiceCost {
            work_per_sec: 4.0,
            setup_work: 1.0,
            bandwidth_kbps: 64,
        };
        let mut view = PeerView::new();
        for (p, &capacity) in (1u64..).zip(capacities) {
            gr.add_edge(init, goal, NodeId::new(p), ServiceId::new(p), cost);
            view.upsert(NodeId::new(p), PeerInfo::idle(capacity, 10_000));
        }
        let qos = QosSpec::with_deadline(SimDuration::from_secs(30));
        alloc_with(ExplorationMode::BranchAndBound, AllocatorKind::MaxFairness)
            .allocate(&gr, &view, init, &[goal], &qos, None)
            .unwrap()
    }

    /// Equal load is enough to merge, but the stand-in must be no slower:
    /// idle peers of capacities 100 and 200 differ in estimate, and only
    /// the faster one may stand in for the other — when its id is smaller.
    #[test]
    fn unequal_capacity_peers_are_not_merged() {
        let twins = one_hop_domain(&[100.0, 100.0]);
        assert_eq!(twins.stats.pruned_dominated, 1);
        assert_eq!(twins.stats.explored_prefixes, 2);
        let slower_first = one_hop_domain(&[100.0, 200.0]);
        assert_eq!(slower_first.stats.pruned_dominated, 0);
        assert_eq!(slower_first.stats.explored_prefixes, 3);
        let faster_first = one_hop_domain(&[200.0, 100.0]);
        assert_eq!(faster_first.stats.pruned_dominated, 1);
        assert_eq!(faster_first.stats.explored_prefixes, 2);
    }

    /// The peer bitmask holds 128 peers; a larger domain searches every
    /// twin rather than growing a second representation.
    #[test]
    fn symmetry_is_off_above_128_peers() {
        assert_eq!(one_hop_domain(&[100.0; 128]).stats.pruned_dominated, 127);
        let large = one_hop_domain(&[100.0; 129]);
        assert_eq!(large.stats.pruned_dominated, 0);
        assert_eq!(large.stats.explored_prefixes, 130);
    }

    #[test]
    fn bnb_prunes_substantially_on_dense_graphs() {
        // A wide graph with replicated service edges: exhaustive
        // enumeration visits thousands of prefixes, the pruned search an
        // order of magnitude fewer.
        let (gr, view, init, goal) = random_graph(42, 6, 5, 12, 0.9, 3);
        let qos = QosSpec::with_deadline(SimDuration::from_secs(60));
        let full = alloc_with(ExplorationMode::AllSimplePaths, AllocatorKind::MaxFairness)
            .allocate(&gr, &view, init, &[goal], &qos, None)
            .unwrap();
        let bnb = alloc_with(ExplorationMode::BranchAndBound, AllocatorKind::MaxFairness)
            .allocate(&gr, &view, init, &[goal], &qos, None)
            .unwrap();
        assert_eq!(full.path, bnb.path);
        assert_eq!(full.fairness.to_bits(), bnb.fairness.to_bits());
        assert!(
            bnb.stats.explored_prefixes * 2 <= full.stats.explored_prefixes,
            "expected ≥2× reduction: bnb {} vs full {}",
            bnb.stats.explored_prefixes,
            full.stats.explored_prefixes
        );
        assert!(
            bnb.stats.pruned_bound > 0,
            "bound pruning never fired on a dense graph"
        );
    }

    #[test]
    fn random_without_rng_falls_back_deterministically() {
        let (gr, view, init, goal) = random_graph(7, 4, 3, 5, 0.8, 1);
        let qos = QosSpec::with_deadline(SimDuration::from_secs(30));
        let a = alloc_with(ExplorationMode::AllSimplePaths, AllocatorKind::Random)
            .allocate(&gr, &view, init, &[goal], &qos, None)
            .unwrap();
        let ff = alloc_with(
            ExplorationMode::AllSimplePaths,
            AllocatorKind::FirstFeasible,
        )
        .allocate(&gr, &view, init, &[goal], &qos, None)
        .unwrap();
        // No RNG: "random" degrades to the first feasible candidate, but
        // keeps scoring every candidate (explored counts differ).
        assert_eq!(a.path, ff.path);
    }

    /// A `random_graph` domain bent into one of the shapes where the
    /// search's entry, exit or cut-off moves: `0`, a goal one hop from
    /// `init` besides the longer paths; `1`, `init` itself a goal (a direct
    /// fetch); `2`, a `max_hops` cap of 1–3.
    fn edge_shape(
        seed: u64,
        shape: usize,
    ) -> (ResourceGraph, PeerView, StateId, Vec<StateId>, QosSpec) {
        use crate::service::ServiceCost;
        use arm_util::ServiceId;
        let (mut gr, view, init, goal) = random_graph(seed, 5, 3, 6, 0.7, 2);
        let mut qos = QosSpec::with_deadline(SimDuration::from_secs(30));
        let mut goals = vec![goal];
        let mut rng = DetRng::new(seed).stream("shape");
        match shape {
            0 => {
                let cost = ServiceCost {
                    work_per_sec: rng.uniform(1.0, 8.0),
                    setup_work: rng.uniform(0.5, 2.0),
                    bandwidth_kbps: 64,
                };
                let peer = NodeId::new(rng.below(6));
                gr.add_edge(init, goal, peer, ServiceId::new(10_000), cost);
            }
            1 => goals.push(init),
            _ => qos = qos.max_hops(1 + rng.index(3)),
        }
        (gr, view, init, goals, qos)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The identity on the edge shapes: branch-and-bound returns the
        /// exhaustive search's allocation bit for bit.
        #[test]
        fn bnb_identical_on_edge_shapes(seed in 0u64..400, shape in 0usize..3) {
            let (gr, view, init, goals, qos) = edge_shape(seed, shape);
            let full = alloc_with(ExplorationMode::AllSimplePaths, AllocatorKind::MaxFairness)
                .allocate(&gr, &view, init, &goals, &qos, None);
            let bnb = alloc_with(ExplorationMode::BranchAndBound, AllocatorKind::MaxFairness)
                .allocate(&gr, &view, init, &goals, &qos, None);
            assert_identical(&full, &bnb);
            if shape == 1 {
                prop_assert!(bnb.is_ok_and(|b| b.path.is_empty()), "a direct fetch wins");
            }
        }

        /// Where `max_explored` cuts the search short the answer may be a
        /// worse path, but it is a path the search scored: its fairness is
        /// its load deltas' index and no better than the full argmax. A run
        /// the cap did not cut returns the argmax itself.
        #[test]
        fn bnb_truncated_answers_are_scored_candidates(seed in 0u64..400, cap in 1usize..24) {
            let (gr, view, init, goal) = random_graph(seed, 5, 3, 6, 0.7, 2);
            let qos = QosSpec::with_deadline(SimDuration::from_secs(30));
            let full = alloc_with(ExplorationMode::AllSimplePaths, AllocatorKind::MaxFairness)
                .allocate(&gr, &view, init, &[goal], &qos, None);
            let mut capped = alloc_with(ExplorationMode::BranchAndBound, AllocatorKind::MaxFairness);
            capped.params.max_explored = cap;
            let bnb = capped.allocate(&gr, &view, init, &[goal], &qos, None);
            match (&full, &bnb) {
                (_, Ok(b)) if !b.truncated => assert_identical(&full, &bnb),
                (Ok(f), Ok(b)) => {
                    prop_assert!(b.explored <= cap);
                    let ids: Vec<NodeId> = view.ids().collect();
                    let tracker = FairnessTracker::from_loads(view.loads());
                    let deltas: Vec<(usize, f64)> = b
                        .load_deltas
                        .iter()
                        .map(|(n, w)| (ids.iter().position(|i| i == n).unwrap(), *w))
                        .collect();
                    prop_assert_eq!(tracker.index_with(&deltas).to_bits(), b.fairness.to_bits());
                    prop_assert!(b.fairness <= f.fairness);
                    let end = b.path.iter().fold(init, |v, &e| {
                        assert_eq!(gr.edge(e).from, v);
                        gr.edge(e).to
                    });
                    prop_assert_eq!(end, goal);
                }
                (_, Err(AllocError::NoFeasiblePath { explored })) => prop_assert!(*explored <= cap),
                (f, b) => prop_assert!(false, "{f:?} vs {b:?}"),
            }
        }
    }

    /// Every completion below a prefix, by brute force: the best exact Jain
    /// index of a feasible goal-reaching extension of the prefix ending at
    /// `node`, checking on the way down that the bound of every non-goal
    /// prefix is at least that of every completion below it.
    #[allow(
        clippy::too_many_arguments,
        reason = "the search state a brute force walks with"
    )]
    fn best_below(
        ctx: &mut BnbCtx,
        hops: &Hops,
        tracker: &FairnessTracker,
        qos: &QosSpec,
        goals: &[StateId],
        arena: &mut Vec<PathNode>,
        node: u32,
        checked: &mut usize,
    ) -> Option<f64> {
        let n = arena[node as usize];
        let (mut chain, mut profile) = (Vec::new(), Vec::new());
        collect_profile(arena, node, &mut chain, &mut profile);
        let deltas: Vec<(usize, f64)> = profile.iter().map(|&(i, w, _)| (i, w)).collect();
        if goals.contains(&n.vertex) {
            return Some(tracker.index_with(&deltas));
        }
        if qos.max_hops.is_some_and(|h| n.len as usize >= h) {
            return None;
        }
        let (deadline, hop_latency) = (qos.deadline.as_secs_f64(), 0.020);
        let mut best: Option<f64> = None;
        for hop in hops.out(n.vertex) {
            if n.visited >> hop.to.0 & 1 == 1 {
                continue;
            }
            let (w, bw) = profile
                .iter()
                .find(|&&(i, _, _)| i == hop.host as usize)
                .map_or((0.0, 0), |&(_, w, bw)| (w, bw));
            let (work, bw) = (w + hop.work, bw + hop.bandwidth);
            let est = n.est_secs + hop.setup + hop_latency;
            if work > hop.headroom || bw > hop.avail_bw || est > deadline {
                continue;
            }
            arena.push(PathNode {
                parent: node,
                edge: hop.edge,
                vertex: hop.to,
                peer_idx: hop.host,
                work,
                bw,
                len: n.len + 1,
                est_secs: est,
                visited: n.visited | 1u128 << hop.to.0,
                peers: 0,
                twice: 0,
                rec: NONE_IDX,
            });
            let child = (arena.len() - 1) as u32;
            let below = best_below(ctx, hops, tracker, qos, goals, arena, child, checked);
            if let Some(f) = below.filter(|_| !goals.contains(&hop.to)) {
                let mut child_profile = profile.clone();
                apply_hop(&mut child_profile, hop.host as usize, work, bw);
                let bound = ctx.upper_bound(
                    tracker,
                    hop.to,
                    n.len + 1,
                    est,
                    deadline,
                    hop_latency,
                    &child_profile,
                );
                assert!(
                    bound >= f - 1e-12,
                    "bound {bound} below a completion's index {f}"
                );
                *checked += 1;
            }
            best = match (best, below) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
        }
        best
    }

    /// The bound is admissible: on small random domains, tied and untied,
    /// no prefix's bound falls below the exact index of any completion of
    /// it (up to rounding far inside `PRUNE_MARGIN`).
    #[test]
    fn bound_is_at_least_every_completion() {
        let mut checked = 0;
        for seed in 0..300u64 {
            let (gr, view, init, goals, qos) = if seed % 2 == 0 {
                let (gr, view, init, goal) = random_graph(seed, 5, 3, 6, 0.7, 2);
                (
                    gr,
                    view,
                    init,
                    vec![goal],
                    QosSpec::with_deadline(SimDuration::from_secs(30)),
                )
            } else {
                heterogeneous_tied_domain(seed)
            };
            let (ids, infos): (Vec<NodeId>, Vec<PeerInfo>) =
                view.iter().map(|(n, i)| (*n, i.clone())).unzip();
            let tracker = FairnessTracker::from_loads(view.loads());
            let tables = SearchTables::new(&gr, &ids);
            let hop_latency = 0.020;
            let is_goal = |v: StateId| goals.contains(&v);
            let times = (qos.deadline.as_secs_f64(), hop_latency);
            let hops = Hops::new(&tables, &infos, &qos, times, is_goal);
            let mut ctx = BnbCtx::new(
                gr.num_states(),
                &tables.links,
                is_goal,
                &goals,
                &qos,
                hop_latency,
                tracker.loads(),
            );
            let mut arena = vec![PathNode {
                parent: NONE_IDX,
                edge: EdgeId(0),
                vertex: init,
                peer_idx: NONE_IDX,
                work: 0.0,
                bw: 0,
                len: 0,
                est_secs: 0.0,
                visited: 1u128 << init.0,
                peers: 0,
                twice: 0,
                rec: NONE_IDX,
            }];
            best_below(
                &mut ctx,
                &hops,
                &tracker,
                &qos,
                &goals,
                &mut arena,
                0,
                &mut checked,
            );
        }
        assert!(checked > 1_000, "only {checked} prefixes checked");
    }

    /// The graph keeps the search's tables between calls; every way a
    /// domain's graph or membership changes must reach the next answer.
    #[test]
    fn kept_tables_follow_graph_and_view_changes() {
        use crate::service::ServiceCost;
        use arm_util::ServiceId;
        let (mut gr, mut view, init, goal) = random_graph(11, 5, 3, 6, 0.8, 2);
        let qos = QosSpec::with_deadline(SimDuration::from_secs(30));
        let bnb = alloc_with(ExplorationMode::BranchAndBound, AllocatorKind::MaxFairness);
        let full = alloc_with(ExplorationMode::AllSimplePaths, AllocatorKind::MaxFairness);
        for step in 0..6 {
            match step {
                0 => {}
                // A new, light edge straight to the goal.
                1 => {
                    let cost = ServiceCost {
                        work_per_sec: 0.5,
                        setup_work: 0.1,
                        bandwidth_kbps: 64,
                    };
                    gr.add_edge(init, goal, NodeId::new(2), ServiceId::new(9_000), cost);
                }
                // The edge's host leaves the graph, then the view.
                2 => {
                    gr.remove_peer(NodeId::new(2));
                }
                3 => {
                    view.remove(NodeId::new(2));
                }
                // A new peer joins the view only.
                4 => view.upsert(NodeId::new(7), PeerInfo::idle(100.0, 100_000)),
                // One edge retired in place.
                _ => {
                    let e = gr.out_edges(init).map(|e| e.id).next().unwrap();
                    gr.edge_mut(e).alive = false;
                }
            }
            let fresh = gr.clone();
            let kept = bnb.allocate(&gr, &view, init, &[goal], &qos, None);
            let reference = full.allocate(&fresh, &view, init, &[goal], &qos, None);
            assert_identical(&reference, &kept);
        }
    }

    #[test]
    fn stats_roundtrip_and_merge() {
        let mut a = AllocStats {
            explored_prefixes: 3,
            pruned_bound: 2,
            pruned_dominated: 1,
        };
        a.merge(&AllocStats {
            explored_prefixes: 10,
            pruned_bound: 20,
            pruned_dominated: 30,
        });
        assert_eq!(a.explored_prefixes, 13);
        assert_eq!(a.pruned_bound, 22);
        assert_eq!(a.pruned_dominated, 31);
    }
}

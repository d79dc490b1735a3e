//! Resource Manager state: the information base of §3 plus the decision
//! procedures of §4.2–§4.5.
//!
//! [`RmState`] is data + pure helpers; the orchestration (which messages to
//! send when) lives in [`crate::peer::PeerNode`]. The split keeps each
//! piece independently testable.

use crate::config::ProtocolConfig;
use arm_model::alloc::{AllocError, Allocation, FairnessAllocator};
use arm_model::{
    MediaObject, PeerInfo, PeerView, ResourceGraph, ServiceGraph, ServiceSpec, TaskSpec,
};
use arm_profiler::LoadReport;
use arm_proto::{DomainSummary, RmCandidacy, RmSnapshot};
use arm_util::{BloomFilter, DetRng, DomainId, NodeId, SessionId, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// Per-RM cumulative allocator efficiency counters, surfaced through
/// telemetry as `alloc_*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocMetrics {
    /// Prefixes dequeued across all allocation runs.
    pub explored_prefixes: u64,
    /// Prefixes discarded by the branch-and-bound admissible bound.
    pub pruned_bound: u64,
    /// Children the search never generated because a sibling edge on an
    /// interchangeable (bitwise-equal, untouched) peer dominates them —
    /// the symmetry rule of DESIGN.md §10. Non-zero only while peers tie.
    pub pruned_dominated: u64,
    /// Always 0: the path cache it counted is gone. Retained only because
    /// `arm_bench` names the field in a struct literal.
    pub cache_hits: u64,
    /// Always 0; retained for the same reason as `cache_hits`.
    pub cache_misses: u64,
}

impl AllocMetrics {
    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &AllocMetrics) {
        self.explored_prefixes += other.explored_prefixes;
        self.pruned_bound += other.pruned_bound;
        self.pruned_dominated += other.pruned_dominated;
    }
}

/// A running (or composing) session tracked by the RM.
#[derive(Debug, Clone)]
pub struct SessionRec {
    /// The task this session serves.
    pub task: TaskSpec,
    /// The current service graph.
    pub graph: ServiceGraph,
    /// The peer holding the source object.
    pub source: NodeId,
    /// Hop indices still awaiting `ComposeAck`.
    pub pending_acks: BTreeSet<usize>,
    /// When composition completed end-to-end (stream started).
    pub composed_at: Option<SimTime>,
    /// When the allocation was made.
    pub allocated_at: SimTime,
    /// How many times the session has been repaired after failures.
    pub repairs: u32,
    /// Whether a terminal outcome has been reported for the task.
    pub outcome_reported: bool,
}

impl SessionRec {
    /// True once every hop acknowledged composition.
    pub fn fully_acked(&self) -> bool {
        self.pending_acks.is_empty()
    }
}

/// Liveness and candidacy metadata for a domain member.
#[derive(Debug, Clone)]
pub struct MemberMeta {
    /// The member's RM-candidacy credentials as declared at admission.
    pub candidacy: RmCandidacy,
    /// Last time the RM heard anything from this member.
    pub last_seen: SimTime,
    /// When the member was admitted; its effective uptime grows from the
    /// declared value while it stays connected.
    pub admitted_at: SimTime,
}

impl MemberMeta {
    /// The candidacy with uptime aged to `now` (uptime accrues while the
    /// member remains connected).
    pub fn candidacy_at(&self, now: SimTime) -> RmCandidacy {
        let mut c = self.candidacy.clone();
        c.uptime_secs += now.saturating_since(self.admitted_at).as_secs_f64();
        c
    }
}

/// The Resource Manager role state for one domain.
#[derive(Debug, Clone)]
pub struct RmState {
    /// The domain this RM leads.
    pub domain: DomainId,
    /// The RM's own node id.
    pub me: NodeId,
    /// Per-peer load/bandwidth view (§3.1 items 2–4). Includes the RM
    /// itself — the RM is "selected among regular peers" and also works.
    pub view: PeerView,
    /// The domain resource graph (§3.4).
    pub graph: ResourceGraph,
    /// Object directory: name → holders (§3.1 item 5).
    pub objects: BTreeMap<String, Vec<(NodeId, MediaObject)>>,
    /// Member liveness/candidacy metadata.
    pub members: BTreeMap<NodeId, MemberMeta>,
    /// The current backup RM (best-scored qualified candidate).
    pub backup: Option<NodeId>,
    /// Sessions in flight.
    pub sessions: BTreeMap<SessionId, SessionRec>,
    /// Other domains' RMs (§3.1: list of domains `D_k` with their `RM_k`).
    pub known_rms: BTreeMap<DomainId, NodeId>,
    /// Summaries of other domains, merged from gossip.
    pub summaries: BTreeMap<DomainId, DomainSummary>,
    /// Monotone version of this domain's inventory (bumped on join/leave/
    /// advertise; stamps summaries and snapshots).
    pub version: u64,
    /// Cumulative allocator efficiency counters (explored/pruned
    /// prefixes), exported through telemetry.
    pub alloc_metrics: AllocMetrics,
    next_session: u64,
}

impl RmState {
    /// Creates the RM state for a freshly founded domain containing only
    /// the RM itself.
    pub fn new(
        domain: DomainId,
        me: NodeId,
        my_info: PeerInfo,
        my_candidacy: RmCandidacy,
        now: SimTime,
    ) -> Self {
        let mut view = PeerView::new();
        view.upsert(me, my_info);
        let mut members = BTreeMap::new();
        members.insert(
            me,
            MemberMeta {
                candidacy: my_candidacy,
                last_seen: now,
                admitted_at: now,
            },
        );
        Self {
            domain,
            me,
            view,
            graph: ResourceGraph::new(),
            objects: BTreeMap::new(),
            members,
            backup: None,
            sessions: BTreeMap::new(),
            known_rms: BTreeMap::new(),
            summaries: BTreeMap::new(),
            version: 1,
            alloc_metrics: AllocMetrics::default(),
            next_session: 1,
        }
    }

    /// Reconstructs RM state from a backup snapshot — the §4.1 failover
    /// path. `me` (the promoting backup) replaces the dead RM.
    pub fn from_snapshot(snap: RmSnapshot, me: NodeId, now: SimTime) -> Self {
        let dead_rm = snap.rm;
        let mut state = Self::rebuild(snap, me, now);
        state.members.remove(&dead_rm); // the dead RM
        state.view.remove(dead_rm);
        state.graph.remove_peer(dead_rm);
        state
    }

    /// Reconstructs RM state from this node's *own* persisted snapshot —
    /// the crash-recovery path. Unlike [`RmState::from_snapshot`] (a
    /// backup replacing a dead RM), the snapshot's RM *is* `me`, so the
    /// node stays in its own view and resource graph, and the session-id
    /// counter resumes past every pre-crash session to keep ids unique.
    pub fn from_snapshot_resume(snap: RmSnapshot, me: NodeId, now: SimTime) -> Self {
        // Recover the low-bits counter from sessions this RM allocated
        // before the crash so new ids never collide with resumed ones.
        let counter_mask = (1u64 << 24) - 1;
        let next_session = snap
            .sessions
            .iter()
            .filter(|(id, _)| id.raw() >> 24 == me.raw())
            .map(|(id, _)| (id.raw() & counter_mask) + 1)
            .max()
            .unwrap_or(1);
        let mut state = Self::rebuild(snap, me, now);
        state.next_session = next_session;
        state
    }

    /// Shared snapshot-rehydration body for failover and self-recovery.
    fn rebuild(snap: RmSnapshot, me: NodeId, now: SimTime) -> Self {
        let mut members: BTreeMap<NodeId, MemberMeta> = snap
            .candidates
            .iter()
            .map(|c| {
                (
                    c.node,
                    MemberMeta {
                        candidacy: c.clone(),
                        last_seen: now,
                        admitted_at: now,
                    },
                )
            })
            .collect();
        // Every peer in the view is a member even if it never qualified as
        // a candidate; give those a stub candidacy.
        for (id, info) in snap.view.iter() {
            members.entry(*id).or_insert_with(|| MemberMeta {
                candidacy: RmCandidacy {
                    node: *id,
                    capacity: info.capacity,
                    bandwidth_kbps: info.bandwidth_capacity_kbps,
                    uptime_secs: 0.0,
                },
                last_seen: now,
                admitted_at: now,
            });
        }
        Self {
            domain: snap.domain,
            me,
            view: snap.view,
            graph: snap.resource_graph,
            // Snapshots do not carry the object directory; members rebuild
            // it by re-advertising when they adopt the new RM.
            objects: BTreeMap::new(),
            members,
            backup: None,
            sessions: snap
                .sessions
                .into_iter()
                .map(|(id, graph)| {
                    (
                        id,
                        SessionRec {
                            // The snapshot does not carry task specs; the
                            // receiver re-learns them lazily. Sessions keep
                            // streaming; repairs need the spec, so we
                            // synthesize a minimal one from the graph.
                            task: synthesize_task_from_graph(&graph),
                            source: graph.source,
                            graph,
                            pending_acks: BTreeSet::new(),
                            composed_at: Some(now),
                            allocated_at: now,
                            repairs: 0,
                            outcome_reported: true, // old RM already reported
                        },
                    )
                })
                .collect(),
            known_rms: BTreeMap::new(),
            summaries: BTreeMap::new(),
            version: snap.version + 1,
            alloc_metrics: AllocMetrics::default(),
            next_session: 1,
        }
    }

    /// Allocates the next session id, unique across RMs (high bits = RM
    /// node id).
    pub fn next_session_id(&mut self) -> SessionId {
        let id = SessionId::new((self.me.raw() << 24) | self.next_session);
        self.next_session += 1;
        id
    }

    /// Every member but this RM itself, in id order: who heartbeats and
    /// takeover announcements go to.
    pub(crate) fn other_members(&self) -> Vec<NodeId> {
        let me = self.me;
        self.members.keys().copied().filter(|m| *m != me).collect()
    }

    /// Number of processors in the domain (including the RM).
    pub fn domain_size(&self) -> usize {
        self.view.len()
    }

    /// Admits a member into the domain (§4.1 join accept).
    pub fn admit_member(&mut self, candidacy: RmCandidacy, now: SimTime) {
        let info = PeerInfo::idle(candidacy.capacity, candidacy.bandwidth_kbps);
        self.view.upsert(candidacy.node, info);
        self.members.insert(
            candidacy.node,
            MemberMeta {
                candidacy,
                last_seen: now,
                admitted_at: now,
            },
        );
        self.version += 1;
    }

    /// Registers a member's inventory (§3.1 items 5–6): objects go into
    /// the directory (and their formats become `G_r` states); services
    /// become `G_r` edges hosted on the member. Idempotent — members
    /// re-advertise whenever they adopt a new RM (failover, crash
    /// recovery), so a repeat advertisement must not duplicate edges.
    pub fn register_inventory(
        &mut self,
        node: NodeId,
        objects: &[MediaObject],
        services: &[ServiceSpec],
    ) {
        for o in objects {
            self.graph.intern_state(o.format);
            let holders = self.objects.entry(o.name.clone()).or_default();
            if !holders.iter().any(|(n, _)| *n == node) {
                holders.push((node, o.clone()));
            }
        }
        for s in services {
            let known = self
                .graph
                .edges()
                .any(|e| e.peer == node && e.service == s.id);
            if !known {
                self.graph
                    .add_service(s.input, s.output, node, s.id, s.cost);
            }
        }
        self.version += 1;
    }

    /// Removes a member (graceful leave or detected crash): drops it from
    /// the view, the directory and the resource graph, and returns the
    /// sessions whose service graphs used it and therefore need repair
    /// (§4.1: "the Resource Manager must then not only remove the vertex
    /// from the service graph, but also find a peer to substitute it").
    pub fn remove_member(&mut self, node: NodeId) -> Vec<SessionId> {
        self.view.remove(node);
        self.members.remove(&node);
        if self.backup == Some(node) {
            self.backup = None;
        }
        self.graph.remove_peer(node);
        for holders in self.objects.values_mut() {
            holders.retain(|(n, _)| *n != node);
        }
        self.objects.retain(|_, v| !v.is_empty());
        self.version += 1;
        self.sessions
            .iter()
            .filter(|(_, s)| {
                s.graph.uses_peer(node) || s.source == node || s.task.requester == node
            })
            .map(|(id, _)| *id)
            .collect()
    }

    /// Applies a profiler report to the view (§4.4 intra-domain feedback).
    /// Liveness is `touch`'s, which `on_msg` calls for every message.
    pub fn apply_report(&mut self, report: &LoadReport) {
        if let Some(info) = self.view.get_mut(report.node) {
            info.load = report.load;
            info.capacity = report.capacity;
            info.bandwidth_used_kbps = report.bandwidth_used_kbps;
            info.bandwidth_capacity_kbps = report.bandwidth_capacity_kbps;
        }
    }

    /// Marks a member as heard-from.
    pub fn touch(&mut self, node: NodeId, now: SimTime) {
        if let Some(meta) = self.members.get_mut(&node) {
            meta.last_seen = now;
        }
    }

    /// Members whose silence exceeds `timeout` (candidates for §4.1
    /// "sensing the withdrawn connection").
    pub fn silent_members(&self, now: SimTime, timeout: arm_util::SimDuration) -> Vec<NodeId> {
        self.members
            .iter()
            .filter(|(id, meta)| **id != self.me && now.saturating_since(meta.last_seen) > timeout)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Ranks RM candidates by score, best first (§4.1). The first peer in
    /// the list serves as backup RM.
    pub fn rank_candidates(&self, cfg: &ProtocolConfig, now: SimTime) -> Vec<RmCandidacy> {
        let mut c: Vec<RmCandidacy> = self
            .members
            .values()
            .map(|m| m.candidacy_at(now))
            .filter(|c| c.node != self.me && c.qualifies(&cfg.rm_requirements))
            .collect();
        c.sort_by(|a, b| b.score().total_cmp(&a.score()).then(a.node.cmp(&b.node)));
        c
    }

    /// Chooses (and records) the backup RM from the candidate ranking.
    pub fn choose_backup(&mut self, cfg: &ProtocolConfig, now: SimTime) -> Option<NodeId> {
        self.backup = self.rank_candidates(cfg, now).first().map(|c| c.node);
        self.backup
    }

    /// The domain-overload predicate of §4.5.
    pub fn overloaded(&self, cfg: &ProtocolConfig) -> bool {
        self.view.all_above(cfg.overload_threshold)
    }

    /// Looks up the best holder of an object by name: the least-utilized
    /// peer storing it.
    pub fn find_object(&self, name: &str) -> Option<(NodeId, &MediaObject)> {
        let holders = self.objects.get(name)?;
        holders
            .iter()
            .filter(|(n, _)| self.view.contains(*n))
            .min_by(|(a, _), (b, _)| {
                let ua = self.view.get(*a).map_or(f64::MAX, |i| i.utilization());
                let ub = self.view.get(*b).map_or(f64::MAX, |i| i.utilization());
                ua.total_cmp(&ub).then(a.cmp(b))
            })
            .map(|(n, o)| (*n, o))
    }

    /// Runs the Fig. 3 allocation for `task` against the current view
    /// using the configured objective. Returns the allocation plus the
    /// source peer holding the object.
    ///
    /// Takes `&mut self` to maintain the cumulative [`AllocMetrics`]; the
    /// view, graph and session table are never modified.
    pub fn allocate_task(
        &mut self,
        task: &TaskSpec,
        cfg: &ProtocolConfig,
        rng: &mut DetRng,
    ) -> Result<(Allocation, NodeId), AllocError> {
        self.allocate_task_with(task, cfg, cfg.allocator, rng)
    }

    /// [`RmState::allocate_task`] with an explicit objective — the
    /// adaptation loop always migrates toward fairness regardless of the
    /// admission-time allocator.
    pub fn allocate_task_with(
        &mut self,
        task: &TaskSpec,
        cfg: &ProtocolConfig,
        kind: arm_model::alloc::AllocatorKind,
        rng: &mut DetRng,
    ) -> Result<(Allocation, NodeId), AllocError> {
        let (source, object) = self
            .find_object(&task.name)
            .ok_or(AllocError::UnknownState)?;
        let init = self
            .graph
            .state_of(object.format)
            .ok_or(AllocError::UnknownState)?;
        // Direct fetch allowed when the stored format already satisfies.
        let mut goals: Vec<_> = task
            .acceptable_formats
            .iter()
            .filter_map(|f| self.graph.state_of(*f))
            .collect();
        if task.accepts(object.format) && !goals.contains(&init) {
            goals.push(init);
        }
        if goals.is_empty() {
            return Err(AllocError::NoFeasiblePath { explored: 0 });
        }
        let allocator = FairnessAllocator {
            params: cfg.alloc_params.clone(),
            kind,
        };
        let alloc =
            allocator.allocate(&self.graph, &self.view, init, &goals, &task.qos, Some(rng))?;
        self.alloc_metrics.explored_prefixes += alloc.stats.explored_prefixes;
        self.alloc_metrics.pruned_bound += alloc.stats.pruned_bound;
        self.alloc_metrics.pruned_dominated += alloc.stats.pruned_dominated;
        Ok((alloc, source))
    }

    /// Commits an allocation: updates the optimistic view, opens graph
    /// sessions, and records the session.
    pub fn commit_session(
        &mut self,
        session: SessionId,
        task: TaskSpec,
        alloc: &Allocation,
        source: NodeId,
        now: SimTime,
    ) -> &mut SessionRec {
        for (peer, w) in &alloc.load_deltas {
            self.view.add_load(*peer, *w);
        }
        for &eid in &alloc.path {
            let bw = self.graph.edge(eid).cost.bandwidth_kbps;
            let peer = self.graph.edge(eid).peer;
            self.view.add_bandwidth(peer, bw as i64);
        }
        self.graph.open_sessions(&alloc.path);
        let graph =
            ServiceGraph::from_path(task.id, source, task.requester, &self.graph, &alloc.path);
        let pending: BTreeSet<usize> = (0..graph.hops.len()).collect();
        let composed = pending.is_empty();
        let rec = SessionRec {
            task,
            graph,
            source,
            pending_acks: pending,
            composed_at: if composed { Some(now) } else { None },
            allocated_at: now,
            repairs: 0,
            outcome_reported: false,
        };
        match self.sessions.entry(session) {
            Entry::Occupied(mut o) => {
                o.insert(rec);
                o.into_mut()
            }
            Entry::Vacant(v) => v.insert(rec),
        }
    }

    /// Releases a session's resources from the optimistic view and the
    /// resource graph. Call before dropping or re-allocating it.
    pub fn release_session_resources(&mut self, session: SessionId) {
        let Some(rec) = self.sessions.get(&session) else {
            return;
        };
        let path = rec.graph.path();
        let loads = rec.graph.load_by_peer();
        for (peer, w) in loads {
            self.view.add_load(peer, -w);
        }
        for &eid in &path {
            let e = self.graph.edge(eid);
            let (peer, bw) = (e.peer, e.cost.bandwidth_kbps);
            self.view.add_bandwidth(peer, -(bw as i64));
        }
        self.graph.close_sessions(&path);
    }

    /// Builds this domain's gossip summary (§3.1: `SumO`, `SumS`).
    pub fn own_summary(&self) -> DomainSummary {
        let mut objects = BloomFilter::new(SUMMARY_BITS, SUMMARY_HASHES);
        for name in self.objects.keys() {
            objects.insert(name.as_bytes());
        }
        let mut services = BloomFilter::new(SUMMARY_BITS, SUMMARY_HASHES);
        for e in self.graph.edges() {
            let desc = service_descriptor(
                &self.graph.format(e.from).to_string(),
                &self.graph.format(e.to).to_string(),
            );
            services.insert(desc.as_bytes());
        }
        DomainSummary {
            domain: self.domain,
            rm: self.me,
            objects,
            services,
            mean_utilization: self.view.mean_utilization(),
            version: self.version,
        }
    }

    /// Merges a received summary if newer; learns the sending RM. Returns
    /// true if anything changed.
    pub fn merge_summary(&mut self, summary: DomainSummary) -> bool {
        if summary.domain == self.domain {
            return false; // our own domain: we are authoritative
        }
        self.known_rms.insert(summary.domain, summary.rm);
        match self.summaries.get(&summary.domain) {
            Some(existing) if existing.version >= summary.version => false,
            _ => {
                self.summaries.insert(summary.domain, summary);
                true
            }
        }
    }

    /// Picks the redirect target for a task this domain cannot serve
    /// (§4.5): a domain whose object summary claims the content, not yet
    /// tried, preferring the least utilized. Falls back to any untried
    /// known domain.
    pub fn pick_redirect(&self, task_name: &str, tried: &[DomainId]) -> Option<(DomainId, NodeId)> {
        let candidates: Vec<&DomainSummary> = self
            .summaries
            .values()
            .filter(|s| !tried.contains(&s.domain) && s.domain != self.domain)
            .collect();
        let with_object: Vec<&&DomainSummary> = candidates
            .iter()
            .filter(|s| s.objects.contains(task_name.as_bytes()))
            .collect();
        let pick = |set: &[&&DomainSummary]| -> Option<(DomainId, NodeId)> {
            set.iter()
                .min_by(|a, b| {
                    a.mean_utilization
                        .total_cmp(&b.mean_utilization)
                        .then(a.domain.cmp(&b.domain))
                })
                .map(|s| (s.domain, s.rm))
        };
        if let Some(hit) = pick(&with_object) {
            return Some(hit);
        }
        // No summary claims the object — try any untried RM we know.
        let all: Vec<&&DomainSummary> = candidates.iter().collect();
        pick(&all).or_else(|| {
            self.known_rms
                .iter()
                .find(|(d, _)| !tried.contains(d) && **d != self.domain)
                .map(|(d, n)| (*d, *n))
        })
    }

    /// Builds the backup snapshot (§4.1).
    pub fn snapshot(&self, cfg: &ProtocolConfig, now: SimTime) -> RmSnapshot {
        RmSnapshot {
            domain: self.domain,
            rm: self.me,
            view: self.view.clone(),
            resource_graph: self.graph.clone(),
            sessions: self
                .sessions
                .iter()
                .map(|(id, s)| (*id, s.graph.clone()))
                .collect(),
            candidates: self.rank_candidates(cfg, now),
            version: self.version,
        }
    }
}

/// Bloom filter bits and hash count of a gossip summary's `SumO` / `SumS`.
const SUMMARY_BITS: usize = 4096;
const SUMMARY_HASHES: u32 = 4;

/// Descriptor string for a service edge in the services Bloom summary.
pub fn service_descriptor(input: &str, output: &str) -> String {
    format!("svc:{input}>{output}")
}

/// Builds a minimal task spec from a service graph, used when a promoted
/// backup inherits sessions without their original specs.
fn synthesize_task_from_graph(graph: &ServiceGraph) -> TaskSpec {
    use arm_model::QosSpec;
    TaskSpec {
        id: graph.task,
        name: String::new(),
        requester: graph.receiver,
        initial_format: graph
            .hops
            .first()
            .map(|h| h.input)
            .unwrap_or_else(arm_model::MediaFormat::paper_source),
        acceptable_formats: graph.delivered_format().into_iter().collect(),
        qos: QosSpec::default(),
        submitted_at: SimTime::ZERO,
        session_secs: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm_model::{Codec, MediaFormat, QosSpec, Resolution};
    use arm_util::{ServiceId, SimDuration, TaskId};

    pub(super) fn candidacy(node: u64, cap: f64, bw: u32, up: f64) -> RmCandidacy {
        RmCandidacy {
            node: NodeId::new(node),
            capacity: cap,
            bandwidth_kbps: bw,
            uptime_secs: up,
        }
    }

    fn rm() -> RmState {
        RmState::new(
            DomainId::new(1),
            NodeId::new(0),
            PeerInfo::idle(100.0, 10_000),
            candidacy(0, 100.0, 10_000, 3600.0),
            SimTime::ZERO,
        )
    }

    pub(super) fn transcoder(id: u64, input: MediaFormat, output: MediaFormat) -> ServiceSpec {
        ServiceSpec::transcoder(ServiceId::new(id), input, output, 5.0)
    }

    pub(super) fn basic_task(id: u64, name: &str) -> TaskSpec {
        TaskSpec {
            id: TaskId::new(id),
            name: name.into(),
            requester: NodeId::new(9),
            initial_format: MediaFormat::paper_source(),
            acceptable_formats: vec![MediaFormat::paper_target()],
            qos: QosSpec::with_deadline(SimDuration::from_secs(10)),
            submitted_at: SimTime::ZERO,
            session_secs: 30.0,
        }
    }

    /// Builds an RM with 3 members, an object on peer 1 and a transcoder
    /// chain 1→2 able to serve `basic_task`.
    pub(super) fn populated_rm() -> RmState {
        let mut s = rm();
        s.admit_member(candidacy(1, 100.0, 10_000, 1000.0), SimTime::ZERO);
        s.admit_member(candidacy(2, 80.0, 8_000, 500.0), SimTime::ZERO);
        s.admit_member(candidacy(3, 30.0, 500, 10.0), SimTime::ZERO); // unqualified
        let obj = MediaObject::new(
            arm_util::ObjectId::new(1),
            "trailer",
            MediaFormat::paper_source(),
            120.0,
        );
        s.register_inventory(NodeId::new(1), &[obj], &[]);
        s.register_inventory(
            NodeId::new(1),
            &[],
            &[transcoder(
                1,
                MediaFormat::paper_source(),
                MediaFormat::new(Codec::Mpeg2, Resolution::VGA, 256),
            )],
        );
        s.register_inventory(
            NodeId::new(2),
            &[],
            &[transcoder(
                2,
                MediaFormat::new(Codec::Mpeg2, Resolution::VGA, 256),
                MediaFormat::paper_target(),
            )],
        );
        s
    }

    #[test]
    fn new_domain_contains_self() {
        let s = rm();
        assert_eq!(s.domain_size(), 1);
        assert!(s.view.contains(NodeId::new(0)));
        assert_eq!(s.version, 1);
    }

    #[test]
    fn admit_and_inventory() {
        let s = populated_rm();
        assert_eq!(s.domain_size(), 4);
        assert_eq!(s.graph.num_edges(), 2);
        assert!(s.objects.contains_key("trailer"));
        let (holder, obj) = s.find_object("trailer").unwrap();
        assert_eq!(holder, NodeId::new(1));
        assert_eq!(obj.format, MediaFormat::paper_source());
        assert!(s.find_object("missing").is_none());
    }

    #[test]
    fn duplicate_advertise_is_idempotent_for_objects() {
        let mut s = populated_rm();
        let obj = MediaObject::new(
            arm_util::ObjectId::new(1),
            "trailer",
            MediaFormat::paper_source(),
            120.0,
        );
        s.register_inventory(NodeId::new(1), &[obj], &[]);
        assert_eq!(s.objects["trailer"].len(), 1);
    }

    #[test]
    fn candidate_ranking_excludes_unqualified_and_self() {
        let s = populated_rm();
        let cfg = ProtocolConfig::default();
        let ranked = s.rank_candidates(&cfg, SimTime::ZERO);
        // Peer 3 fails requirements; self (0) excluded.
        let ids: Vec<u64> = ranked.iter().map(|c| c.node.raw()).collect();
        assert!(!ids.contains(&0));
        assert!(!ids.contains(&3));
        assert_eq!(ids.len(), 2);
        // Peer 1 outscores peer 2.
        assert_eq!(ids[0], 1);
    }

    #[test]
    fn choose_backup_picks_top_candidate() {
        let mut s = populated_rm();
        let cfg = ProtocolConfig::default();
        assert_eq!(s.choose_backup(&cfg, SimTime::ZERO), Some(NodeId::new(1)));
        assert_eq!(s.backup, Some(NodeId::new(1)));
    }

    #[test]
    fn allocate_and_commit_session() {
        let mut s = populated_rm();
        let cfg = ProtocolConfig::default();
        let task = basic_task(1, "trailer");
        let mut rng = DetRng::new(1);
        let (alloc, source) = s.allocate_task(&task, &cfg, &mut rng).unwrap();
        assert_eq!(source, NodeId::new(1));
        assert_eq!(alloc.path.len(), 2);
        let sid = s.next_session_id();
        s.commit_session(sid, task, &alloc, source, SimTime::from_secs(1));
        let rec = &s.sessions[&sid];
        assert_eq!(rec.pending_acks.len(), 2);
        assert!(!rec.fully_acked());
        // Optimistic view reflects the committed load.
        assert!(s.view.get(NodeId::new(1)).unwrap().load > 0.0);
        assert!(s.view.get(NodeId::new(2)).unwrap().load > 0.0);
        // Graph session counters bumped.
        assert!(s.graph.edges().any(|e| e.active_sessions == 1));
    }

    #[test]
    fn release_restores_view() {
        let mut s = populated_rm();
        let cfg = ProtocolConfig::default();
        let task = basic_task(1, "trailer");
        let mut rng = DetRng::new(1);
        let before = s.view.clone();
        let (alloc, source) = s.allocate_task(&task, &cfg, &mut rng).unwrap();
        let sid = s.next_session_id();
        s.commit_session(sid, task, &alloc, source, SimTime::ZERO);
        s.release_session_resources(sid);
        s.sessions.remove(&sid);
        for (id, info) in s.view.iter() {
            let orig = before.get(*id).unwrap();
            assert!(
                (info.load - orig.load).abs() < 1e-9,
                "load restored for {id}"
            );
            assert_eq!(info.bandwidth_used_kbps, orig.bandwidth_used_kbps);
        }
        assert!(s.graph.edges().all(|e| e.active_sessions == 0));
    }

    #[test]
    fn direct_fetch_when_format_acceptable() {
        let mut s = populated_rm();
        let cfg = ProtocolConfig::default();
        let mut task = basic_task(2, "trailer");
        task.acceptable_formats = vec![MediaFormat::paper_source()];
        let mut rng = DetRng::new(1);
        let (alloc, _) = s.allocate_task(&task, &cfg, &mut rng).unwrap();
        assert!(alloc.path.is_empty());
        let sid = s.next_session_id();
        s.commit_session(sid, task, &alloc, NodeId::new(1), SimTime::ZERO);
        assert!(s.sessions[&sid].fully_acked());
        assert!(s.sessions[&sid].composed_at.is_some());
    }

    #[test]
    fn unknown_object_fails_allocation() {
        let mut s = populated_rm();
        let cfg = ProtocolConfig::default();
        let task = basic_task(3, "nope");
        let mut rng = DetRng::new(1);
        assert!(matches!(
            s.allocate_task(&task, &cfg, &mut rng),
            Err(AllocError::UnknownState)
        ));
    }

    #[test]
    fn remove_member_repairs_and_cleans() {
        let mut s = populated_rm();
        let cfg = ProtocolConfig::default();
        let task = basic_task(1, "trailer");
        let mut rng = DetRng::new(1);
        let (alloc, source) = s.allocate_task(&task, &cfg, &mut rng).unwrap();
        let sid = s.next_session_id();
        s.commit_session(sid, task, &alloc, source, SimTime::ZERO);
        // Peer 2 hosts the second hop; removing it flags the session.
        let affected = s.remove_member(NodeId::new(2));
        assert_eq!(affected, vec![sid]);
        assert!(!s.view.contains(NodeId::new(2)));
        assert_eq!(s.graph.num_edges(), 1);
        // Removing the object holder also flags it (source loss) and
        // empties the directory.
        let affected = s.remove_member(NodeId::new(1));
        assert_eq!(affected, vec![sid]);
        assert!(s.find_object("trailer").is_none());
    }

    #[test]
    fn silent_member_detection() {
        let mut s = populated_rm();
        let timeout = SimDuration::from_secs(4);
        let t10 = SimTime::from_secs(10);
        assert_eq!(s.silent_members(t10, timeout).len(), 3); // all stale
        s.touch(NodeId::new(1), t10);
        s.apply_report(&LoadReport {
            node: NodeId::new(2),
            at: t10,
            load: 5.0,
            capacity: 80.0,
            bandwidth_used_kbps: 0,
            bandwidth_capacity_kbps: 8_000,
            queue_len: 0,
        });
        let silent = s.silent_members(t10, timeout);
        assert_eq!(silent, vec![NodeId::new(2), NodeId::new(3)]);
        // Report updated the view too.
        assert_eq!(s.view.get(NodeId::new(2)).unwrap().load, 5.0);
    }

    #[test]
    fn summary_and_redirect() {
        let mut s = populated_rm();
        let own = s.own_summary();
        assert!(own.objects.contains(b"trailer"));
        assert!(!own.objects.contains(b"nope"));
        assert_eq!(own.version, s.version);

        // Merge summaries of two other domains; one has the object.
        let mut sum_a = s.own_summary();
        sum_a.domain = DomainId::new(2);
        sum_a.rm = NodeId::new(50);
        sum_a.mean_utilization = 0.9;
        let mut sum_b = s.own_summary();
        sum_b.domain = DomainId::new(3);
        sum_b.rm = NodeId::new(60);
        sum_b.mean_utilization = 0.1;
        sum_b.objects.clear();
        assert!(s.merge_summary(sum_a.clone()));
        assert!(s.merge_summary(sum_b));
        // Domain 2 claims the object, so it wins despite higher load.
        assert_eq!(
            s.pick_redirect("trailer", &[]),
            Some((DomainId::new(2), NodeId::new(50)))
        );
        // Once tried, fall back to domain 3.
        assert_eq!(
            s.pick_redirect("trailer", &[DomainId::new(2)]),
            Some((DomainId::new(3), NodeId::new(60)))
        );
        // Stale re-merge rejected.
        assert!(!s.merge_summary(sum_a));
    }

    #[test]
    fn merge_own_domain_rejected() {
        let mut s = populated_rm();
        let own = s.own_summary();
        assert!(!s.merge_summary(own));
    }

    #[test]
    fn snapshot_failover_roundtrip() {
        let mut s = populated_rm();
        let cfg = ProtocolConfig::default();
        s.choose_backup(&cfg, SimTime::ZERO);
        let task = basic_task(1, "trailer");
        let mut rng = DetRng::new(1);
        let (alloc, source) = s.allocate_task(&task, &cfg, &mut rng).unwrap();
        let sid = s.next_session_id();
        s.commit_session(sid, task, &alloc, source, SimTime::ZERO);

        let snap = s.snapshot(&cfg, SimTime::ZERO);
        assert_eq!(snap.sessions.len(), 1);
        // Backup (peer 1) promotes.
        let promoted = RmState::from_snapshot(snap, NodeId::new(1), SimTime::from_secs(5));
        assert_eq!(promoted.me, NodeId::new(1));
        assert_eq!(promoted.domain, DomainId::new(1));
        // Old RM (0) is gone from the view.
        assert!(!promoted.view.contains(NodeId::new(0)));
        // The inherited session is retained.
        assert_eq!(promoted.sessions.len(), 1);
        assert!(promoted.version > s.version);
    }

    #[test]
    fn overload_predicate() {
        let mut s = populated_rm();
        let cfg = ProtocolConfig::default();
        assert!(!s.overloaded(&cfg));
        let ids: Vec<NodeId> = s.view.ids().collect();
        for id in ids {
            let info = s.view.get_mut(id).unwrap();
            info.load = info.capacity * 0.9;
        }
        assert!(s.overloaded(&cfg));
    }

    #[test]
    fn session_ids_unique_and_tagged() {
        let mut s = populated_rm();
        let a = s.next_session_id();
        let b = s.next_session_id();
        assert_ne!(a, b);
        assert_eq!(a.raw() >> 24, s.me.raw());
    }

    #[test]
    fn redirect_exhausts_tried_domains() {
        let mut s = populated_rm();
        let mut sum = s.own_summary();
        sum.domain = DomainId::new(2);
        sum.rm = NodeId::new(50);
        s.merge_summary(sum);
        assert!(s.pick_redirect("trailer", &[]).is_some());
        // Once the only other domain is tried, nothing is left.
        assert_eq!(s.pick_redirect("trailer", &[DomainId::new(2)]), None);
        // And a domain never redirects to itself.
        assert_eq!(
            s.pick_redirect("trailer", &[DomainId::new(2), s.domain]),
            None
        );
    }

    #[test]
    fn redirect_prefers_less_utilized_among_holders() {
        let mut s = populated_rm();
        let mut busy = s.own_summary();
        busy.domain = DomainId::new(2);
        busy.rm = NodeId::new(50);
        busy.mean_utilization = 0.9;
        let mut idle = s.own_summary();
        idle.domain = DomainId::new(3);
        idle.rm = NodeId::new(60);
        idle.mean_utilization = 0.05;
        s.merge_summary(busy);
        s.merge_summary(idle);
        // Both claim the object; the idle one wins.
        assert_eq!(
            s.pick_redirect("trailer", &[]),
            Some((DomainId::new(3), NodeId::new(60)))
        );
    }

    #[test]
    fn summary_version_tracks_inventory_changes() {
        let mut s = populated_rm();
        let v1 = s.own_summary().version;
        s.remove_member(NodeId::new(3));
        let v2 = s.own_summary().version;
        assert!(v2 > v1, "leave bumps the summary version");
        s.register_inventory(NodeId::new(2), &[], &[]);
        let v3 = s.own_summary().version;
        assert!(v3 > v2, "advertise bumps the summary version");
    }

    #[test]
    fn candidacy_uptime_ages_with_membership() {
        let mut s = rm();
        // A peer that joins with 30s of uptime does not qualify (<60s)...
        s.admit_member(candidacy(5, 100.0, 10_000, 30.0), SimTime::ZERO);
        let cfg = ProtocolConfig::default();
        assert!(s.rank_candidates(&cfg, SimTime::ZERO).is_empty());
        // ...but after 31s of membership it does.
        let later = SimTime::from_secs(31);
        let ranked = s.rank_candidates(&cfg, later);
        assert_eq!(ranked.len(), 1);
        assert!((ranked[0].uptime_secs - 61.0).abs() < 1e-9);
    }

    #[test]
    fn failover_synthesizes_tasks_for_inherited_sessions() {
        let mut s = populated_rm();
        let cfg = ProtocolConfig::default();
        let task = basic_task(1, "trailer");
        let mut rng = DetRng::new(1);
        let (alloc, source) = s.allocate_task(&task, &cfg, &mut rng).unwrap();
        let sid = s.next_session_id();
        s.commit_session(sid, task, &alloc, source, SimTime::ZERO);
        let snap = s.snapshot(&cfg, SimTime::ZERO);
        let promoted = RmState::from_snapshot(snap, NodeId::new(1), SimTime::from_secs(5));
        let rec = &promoted.sessions[&sid];
        // The synthesized spec keeps enough to repair: requester and the
        // format chain endpoints.
        assert_eq!(rec.task.id, arm_util::TaskId::new(1));
        assert_eq!(rec.task.requester, NodeId::new(9));
        assert!(rec.outcome_reported, "no double outcome after failover");
        assert_eq!(rec.graph.hops.len(), 2);
    }

    #[test]
    fn release_is_idempotent_for_unknown_session() {
        let mut s = populated_rm();
        let before = s.view.clone();
        s.release_session_resources(arm_util::SessionId::new(999));
        assert_eq!(s.view, before);
    }

    #[test]
    fn find_object_prefers_least_utilized_holder() {
        let mut s = populated_rm();
        // Replicate the object on peer 2, then load peer 1.
        let obj = MediaObject::new(
            arm_util::ObjectId::new(2),
            "trailer",
            MediaFormat::paper_source(),
            120.0,
        );
        s.register_inventory(NodeId::new(2), &[obj], &[]);
        s.view.get_mut(NodeId::new(1)).unwrap().load = 90.0;
        let (holder, _) = s.find_object("trailer").unwrap();
        assert_eq!(holder, NodeId::new(2));
    }
}

#[cfg(test)]
mod bnb_tests {
    use super::tests::{basic_task, candidacy, populated_rm, transcoder};
    use super::*;
    use arm_model::{Codec, ExplorationMode, MediaFormat, Resolution};

    fn assert_same_alloc(a: &(Allocation, NodeId), b: &(Allocation, NodeId)) {
        assert_eq!(a.0.path, b.0.path);
        assert_eq!(a.0.fairness.to_bits(), b.0.fairness.to_bits());
        assert_eq!(a.0.est_response, b.0.est_response);
        assert_eq!(a.0.load_deltas.len(), b.0.load_deltas.len());
        for (x, y) in a.0.load_deltas.iter().zip(&b.0.load_deltas) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.to_bits(), y.1.to_bits());
        }
        assert_eq!(a.1, b.1);
    }

    /// The default (branch-and-bound) search through the RM returns the
    /// exhaustive search's allocation bit for bit, on the fixture as built
    /// and after every topology or load mutation the RM can see.
    #[test]
    fn bnb_mode_through_rm_matches_exhaustive() {
        let cfg_bnb = ProtocolConfig::default();
        assert_eq!(cfg_bnb.alloc_params.mode, ExplorationMode::BranchAndBound);
        let mut cfg_full = cfg_bnb.clone();
        cfg_full.alloc_params.mode = ExplorationMode::AllSimplePaths;
        let task = basic_task(1, "trailer");
        let mid = MediaFormat::new(Codec::Mpeg2, Resolution::VGA, 256);
        let mut s = populated_rm();
        let mut committed = None;

        for step in 0u64..7 {
            match step {
                0 => {}
                // Add-edge: a parallel first hop on another peer.
                1 => s.register_inventory(
                    NodeId::new(2),
                    &[],
                    &[transcoder(100, MediaFormat::paper_source(), mid)],
                ),
                2 => s.view.add_load(NodeId::new(1), 7.5),
                // Add-peer, offering both hops.
                3 => {
                    s.admit_member(candidacy(4, 120.0, 9_000, 100.0), SimTime::ZERO);
                    s.register_inventory(
                        NodeId::new(4),
                        &[],
                        &[
                            transcoder(101, MediaFormat::paper_source(), mid),
                            transcoder(102, mid, MediaFormat::paper_target()),
                        ],
                    );
                }
                4 => {
                    let (alloc, source) = s
                        .allocate_task(&task, &cfg_bnb, &mut DetRng::new(99))
                        .unwrap();
                    let sid = s.next_session_id();
                    s.commit_session(sid, task.clone(), &alloc, source, SimTime::ZERO);
                    committed = Some(sid);
                }
                5 => {
                    s.remove_member(NodeId::new(2));
                }
                _ => {
                    let sid = committed.take().unwrap();
                    s.release_session_resources(sid);
                    s.sessions.remove(&sid);
                }
            }
            let full = s
                .clone()
                .allocate_task(&task, &cfg_full, &mut DetRng::new(step))
                .unwrap();
            let bnb = s
                .allocate_task(&task, &cfg_bnb, &mut DetRng::new(step))
                .unwrap();
            assert_same_alloc(&full, &bnb);
            assert!(bnb.0.stats.explored_prefixes <= full.0.stats.explored_prefixes);
        }
        assert!(s.alloc_metrics.explored_prefixes > 0);
    }
}

//! End-to-end protocol tests: full clusters of `PeerNode` state machines
//! driven by a minimal deterministic loopback driver.
//!
//! These exercise the complete paper workflows: overlay construction and
//! domain splitting (§4.1), failure detection and RM failover (§4.1),
//! end-to-end task allocation and composition (§4.3, Fig. 2), session
//! repair, gossip and inter-domain redirection (§4.4–§4.5).

use arm_core::{Action, Event, PeerNode, ProtocolConfig, Role, TimerKind};
use arm_des::Simulator;
use arm_model::task::TaskOutcome;
use arm_model::{Codec, MediaFormat, MediaObject, QosSpec, Resolution, ServiceSpec, TaskSpec};
use arm_proto::Message;
use arm_store::Intent;
use arm_util::{DomainId, NodeId, ObjectId, ServiceId, SimDuration, SimTime, TaskId};
use std::collections::{BTreeMap, BTreeSet};

/// A deterministic single-process cluster driver.
struct Cluster {
    sim: Simulator<(NodeId, Event)>,
    nodes: BTreeMap<NodeId, PeerNode>,
    alive: BTreeSet<NodeId>,
    latency: SimDuration,
    outcomes: Vec<(TaskId, TaskOutcome, SimTime)>,
    replies: Vec<(TaskId, bool, SimTime)>,
    promotions: Vec<(NodeId, DomainId, SimTime)>,
    repairs: Vec<(bool, SimTime)>,
    /// Every send, as `(at, from, to, kind)`.
    sent: Vec<(SimTime, NodeId, NodeId, &'static str)>,
    /// Every timer event a live node handled, as `(at, node)`.
    fired: Vec<(SimTime, NodeId)>,
    /// Each node's write-ahead intents, in order.
    intents: BTreeMap<NodeId, Vec<Intent>>,
}

impl Cluster {
    fn new() -> Self {
        Self {
            sim: Simulator::new(),
            nodes: BTreeMap::new(),
            alive: BTreeSet::new(),
            latency: SimDuration::from_millis(10),
            outcomes: Vec::new(),
            replies: Vec::new(),
            promotions: Vec::new(),
            repairs: Vec::new(),
            sent: Vec::new(),
            fired: Vec::new(),
            intents: BTreeMap::new(),
        }
    }

    fn add_node(
        &mut self,
        id: u64,
        objects: Vec<MediaObject>,
        services: Vec<ServiceSpec>,
        cfg: &ProtocolConfig,
    ) -> NodeId {
        self.add_node_with(id, 100.0, 10_000, objects, services, cfg)
    }

    fn add_node_with(
        &mut self,
        id: u64,
        capacity: f64,
        bandwidth_kbps: u32,
        objects: Vec<MediaObject>,
        services: Vec<ServiceSpec>,
        cfg: &ProtocolConfig,
    ) -> NodeId {
        let nid = NodeId::new(id);
        let node = PeerNode::new(
            nid,
            capacity,
            bandwidth_kbps,
            objects,
            services,
            cfg.clone(),
            42,
            SimTime::ZERO,
        );
        self.nodes.insert(nid, node);
        nid
    }

    fn start(&mut self, id: NodeId, bootstrap: Option<NodeId>, at: SimTime) {
        self.alive.insert(id);
        self.sim.schedule_at(at, (id, Event::Start { bootstrap }));
    }

    fn submit(&mut self, id: NodeId, task: TaskSpec, at: SimTime) {
        self.sim.schedule_at(at, (id, Event::SubmitTask(task)));
    }

    fn crash(&mut self, id: NodeId) {
        self.alive.remove(&id);
    }

    fn run_until(&mut self, t: SimTime) {
        while let Some(scheduled) = self.sim.step_until(t) {
            let now = scheduled.time;
            let (target, event) = scheduled.event;
            if !self.alive.contains(&target) {
                continue;
            }
            let Some(node) = self.nodes.get_mut(&target) else {
                continue;
            };
            if matches!(event, Event::Timer(_)) {
                self.fired.push((now, target));
            }
            let actions = node.on_event(now, event);
            // All sends of one handling batch share the node's outbound
            // trace context (see `PeerNode::out_ctx`).
            let ctx = node.out_ctx();
            for action in actions {
                match action {
                    Action::Send { to, msg } => {
                        self.sent.push((now, target, to, msg.kind()));
                        self.sim.schedule_at(
                            now + self.latency,
                            (
                                to,
                                Event::Msg {
                                    from: target,
                                    msg,
                                    ctx,
                                },
                            ),
                        );
                    }
                    Action::SetTimer { kind, after } => {
                        self.sim
                            .schedule_at(now + after, (target, Event::Timer(kind)));
                    }
                    Action::Outcome {
                        task, outcome, at, ..
                    } => {
                        self.outcomes.push((task, outcome, at));
                    }
                    Action::ReplyReceived {
                        task,
                        allocated,
                        at,
                    } => {
                        self.replies.push((task, allocated, at));
                    }
                    Action::Promoted { domain, at } => {
                        self.promotions.push((target, domain, at));
                    }
                    Action::SessionRepaired { ok, at, .. } => {
                        self.repairs.push((ok, at));
                    }
                    Action::SessionReassigned { .. } => {}
                    Action::Persist(intent) => {
                        self.intents.entry(target).or_default().push(intent);
                    }
                    Action::Trace(_) => {}
                }
            }
        }
    }

    fn node(&self, id: NodeId) -> &PeerNode {
        &self.nodes[&id]
    }

    /// When `from` sent `to` a message of `kind`.
    fn sends(&self, from: NodeId, to: NodeId, kind: &str) -> Vec<SimTime> {
        self.sent
            .iter()
            .filter(|s| (s.1, s.2, s.3) == (from, to, kind))
            .map(|s| s.0)
            .collect()
    }
}

fn intermediate_format() -> MediaFormat {
    MediaFormat::new(Codec::Mpeg2, Resolution::VGA, 256)
}

fn trailer_object() -> MediaObject {
    MediaObject::new(
        ObjectId::new(1),
        "trailer",
        MediaFormat::paper_source(),
        120.0,
    )
}

fn transcoder_a() -> ServiceSpec {
    ServiceSpec::transcoder(
        ServiceId::new(1),
        MediaFormat::paper_source(),
        intermediate_format(),
        5.0,
    )
}

fn transcoder_b() -> ServiceSpec {
    ServiceSpec::transcoder(
        ServiceId::new(2),
        intermediate_format(),
        MediaFormat::paper_target(),
        5.0,
    )
}

fn task(id: u64, session_secs: f64) -> TaskSpec {
    TaskSpec {
        id: TaskId::new(id),
        name: "trailer".into(),
        requester: NodeId::new(0), // overwritten at submission
        initial_format: MediaFormat::paper_source(),
        acceptable_formats: vec![MediaFormat::paper_target()],
        qos: QosSpec::with_deadline(SimDuration::from_secs(5)),
        submitted_at: SimTime::ZERO,
        session_secs,
    }
}

/// Founder + members with object and a two-stage transcoder chain.
fn media_cluster(cfg: &ProtocolConfig) -> (Cluster, Vec<NodeId>) {
    let mut c = Cluster::new();
    let founder = c.add_node(1, vec![], vec![], cfg);
    let source = c.add_node(2, vec![trailer_object()], vec![], cfg);
    let t_a = c.add_node(3, vec![], vec![transcoder_a()], cfg);
    let t_b = c.add_node(4, vec![], vec![transcoder_b()], cfg);
    let t_b2 = c.add_node(5, vec![], vec![transcoder_b()], cfg);
    let user = c.add_node(6, vec![], vec![], cfg);
    c.start(founder, None, SimTime::ZERO);
    for (i, n) in [source, t_a, t_b, t_b2, user].iter().enumerate() {
        c.start(*n, Some(founder), SimTime::from_millis(50 + i as u64 * 10));
    }
    (c, vec![founder, source, t_a, t_b, t_b2, user])
}

#[test]
fn overlay_forms_single_domain() {
    let cfg = ProtocolConfig::default();
    let (mut c, ids) = media_cluster(&cfg);
    c.run_until(SimTime::from_secs(2));
    let founder = ids[0];
    assert_eq!(c.node(founder).role(), Role::Rm);
    let rm_state = c.node(founder).rm_state().unwrap();
    assert_eq!(rm_state.domain_size(), 6);
    for &n in &ids[1..] {
        assert_eq!(c.node(n).role(), Role::Member, "{n} should be a member");
        assert_eq!(c.node(n).rm(), Some(founder));
        assert_eq!(c.node(n).domain(), c.node(founder).domain());
    }
    // Inventory registered: the object and 3 transcoder edges.
    assert!(rm_state.find_object("trailer").is_some());
    assert_eq!(rm_state.graph.num_edges(), 3);
}

#[test]
fn end_to_end_session_completes_on_time() {
    let cfg = ProtocolConfig::default();
    let (mut c, ids) = media_cluster(&cfg);
    let user = ids[5];
    c.submit(user, task(100, 3.0), SimTime::from_secs(1));
    c.run_until(SimTime::from_secs(3));

    // The requester got an affirmative reply.
    assert_eq!(c.replies.len(), 1);
    let (tid, allocated, at) = c.replies[0];
    assert_eq!(tid, TaskId::new(100));
    assert!(allocated);
    assert!(at > SimTime::from_secs(1));

    // The RM recorded an on-time completion.
    assert_eq!(c.outcomes.len(), 1);
    assert_eq!(c.outcomes[0].1, TaskOutcome::CompletedOnTime);

    // Two transcoders carry load during the stream.
    let loaded: Vec<NodeId> = ids
        .iter()
        .copied()
        .filter(|n| c.node(*n).load() > 0.0)
        .collect();
    assert_eq!(loaded.len(), 2, "exactly the two chosen hops carry load");

    // After the 3s session ends, load returns to zero everywhere.
    c.run_until(SimTime::from_secs(10));
    for &n in &ids {
        assert!(
            c.node(n).load() < 1e-9,
            "{n} still loaded after session end: {}",
            c.node(n).load()
        );
        assert_eq!(c.node(n).active_hops(), 0);
    }
    // And the RM's optimistic view has drained too.
    let rm_state = c.node(ids[0]).rm_state().unwrap();
    assert!(rm_state.sessions.is_empty());
    assert!(rm_state.view.loads().iter().all(|l| *l < 1e-9));
}

#[test]
fn fairness_allocator_spreads_parallel_sessions() {
    let cfg = ProtocolConfig::default();
    let (mut c, ids) = media_cluster(&cfg);
    let user = ids[5];
    // Two concurrent sessions: with two equivalent B-transcoders (peers 4
    // and 5), fairness-max allocation must use both.
    c.submit(user, task(101, 10.0), SimTime::from_secs(1));
    c.submit(user, task(102, 10.0), SimTime::from_millis(1500));
    c.run_until(SimTime::from_secs(4));
    assert!(c.node(ids[3]).load() > 0.0, "t_b used");
    assert!(c.node(ids[4]).load() > 0.0, "t_b2 used");
    assert_eq!(c.outcomes.len(), 2);
    assert!(c
        .outcomes
        .iter()
        .all(|(_, o, _)| *o == TaskOutcome::CompletedOnTime));
}

#[test]
fn crashed_member_is_detected_and_removed() {
    let cfg = ProtocolConfig::default();
    let (mut c, ids) = media_cluster(&cfg);
    c.run_until(SimTime::from_secs(2));
    assert_eq!(c.node(ids[0]).rm_state().unwrap().domain_size(), 6);
    // Lost past heartbeat_timeout of silence, at the RM's next tick.
    c.crash(ids[4]); // t_b2, idle — no session to repair
    let heard = *c.sends(ids[4], ids[0], "load_report").last().unwrap() + c.latency;
    c.run_until(heard + cfg.heartbeat_timeout);
    assert_eq!(c.node(ids[0]).rm_state().unwrap().domain_size(), 6);
    c.run_until(heard + cfg.heartbeat_timeout + cfg.heartbeat_period);
    let rm_state = c.node(ids[0]).rm_state().unwrap();
    assert_eq!(rm_state.domain_size(), 5);
    assert!(!rm_state.view.contains(ids[4]));
}

#[test]
fn members_reporting_every_heartbeat_period_send_no_heartbeat() {
    let cfg = ProtocolConfig::default();
    let (mut c, ids) = media_cluster(&cfg); // report_period == heartbeat_period
    c.run_until(SimTime::from_secs(11)); // ten member ticks
    let rm = ids[0];
    for &m in &ids[1..] {
        assert_eq!(c.sends(m, rm, "heartbeat"), vec![], "{m}");
        assert!(c.sends(m, rm, "load_report").len() >= 10, "{m}");
        assert!(c.sends(rm, m, "heartbeat").len() >= 10, "{m}");
    }
    let state = c.node(rm).rm_state().unwrap();
    let silent = state.silent_members(SimTime::from_secs(11), cfg.heartbeat_timeout);
    assert_eq!(silent, vec![]);
}

#[test]
fn members_with_a_long_report_period_heartbeat_on_quiet_ticks_only() {
    let cfg = ProtocolConfig {
        report_period: SimDuration::from_secs(5),
        ..ProtocolConfig::default()
    };
    let (mut c, ids) = media_cluster(&cfg);
    c.run_until(SimTime::from_secs(30));
    let rm = ids[0];
    for &m in &ids[1..] {
        let reports = c.sends(m, rm, "load_report");
        let beats = c.sends(m, rm, "heartbeat");
        // Of every five ticks, a report's own and the next are not quiet.
        assert!(beats.len() >= 15, "{m}: {beats:?}");
        for t in &beats {
            let last = reports.iter().filter(|r| *r < t).max();
            assert!(last.is_none_or(|r| t.saturating_since(*r) > cfg.heartbeat_period));
        }
    }
    assert_eq!(c.node(rm).rm_state().unwrap().domain_size(), 6);
}

#[test]
fn members_with_a_quarter_second_report_period_tick_four_times_a_second() {
    let cfg = ProtocolConfig {
        report_period: SimDuration::from_millis(250),
        ..ProtocolConfig::default()
    };
    let (mut c, ids) = media_cluster(&cfg);
    c.run_until(SimTime::from_secs(14));
    let rm = ids[0];
    for &m in &ids[1..] {
        // The member's chains start when it advertises on joining.
        let joined = c.sends(m, rm, "advertise")[0];
        let reports = c.sends(m, rm, "load_report");
        assert!(reports.len() >= 50, "{m}: {reports:?}");
        for (k, at) in (1..).zip(&reports) {
            assert_eq!(*at, joined + cfg.report_period * k, "{m}: report {k}");
        }
        // Past its join retry, a member's only timer is the liveness tick:
        // the heartbeat duty rides every fourth report's tick.
        let (from, to) = (
            joined + SimDuration::from_secs(3),
            joined + SimDuration::from_secs(13),
        );
        let ticks = c
            .fired
            .iter()
            .filter(|(at, n)| *n == m && *at > from && *at <= to);
        assert_eq!(ticks.count(), 40, "{m}");
    }
    assert_eq!(c.node(rm).rm_state().unwrap().domain_size(), 6);
}

#[test]
fn session_repaired_after_participant_crash() {
    let cfg = ProtocolConfig::default();
    let (mut c, ids) = media_cluster(&cfg);
    let user = ids[5];
    // Long session through one of the two B transcoders.
    c.submit(user, task(103, 60.0), SimTime::from_secs(1));
    c.run_until(SimTime::from_secs(3));
    // Find which B transcoder carries it and crash that one.
    let victim = if c.node(ids[3]).load() > 0.0 {
        ids[3]
    } else {
        ids[4]
    };
    let survivor = if victim == ids[3] { ids[4] } else { ids[3] };
    c.crash(victim);
    c.run_until(SimTime::from_secs(12));
    // Repair succeeded onto the surviving B transcoder.
    assert!(
        c.repairs.iter().any(|(ok, _)| *ok),
        "repair happened: {:?}",
        c.repairs
    );
    assert!(
        c.node(survivor).load() > 0.0,
        "survivor picked up the repaired session"
    );
}

#[test]
fn rm_failover_promotes_backup() {
    let cfg = ProtocolConfig::default();
    let (mut c, ids) = media_cluster(&cfg);
    // Members must age past the 60s uptime bar before any of them can be
    // chosen as backup; then a backup snapshot ships (backup_period 5s).
    c.run_until(SimTime::from_secs(70));
    let founder = ids[0];
    c.crash(founder);
    c.run_until(SimTime::from_secs(90));
    assert_eq!(
        c.promotions.len(),
        1,
        "exactly one promotion: {:?}",
        c.promotions
    );
    let (new_rm, domain, _) = c.promotions[0];
    assert_ne!(new_rm, founder);
    assert_eq!(Some(domain), c.node(new_rm).domain());
    assert_eq!(c.node(new_rm).role(), Role::Rm);
    // Every surviving member now follows the new RM.
    for &n in &ids[1..] {
        if n == new_rm {
            continue;
        }
        assert_eq!(c.node(n).rm(), Some(new_rm), "{n} follows the new RM");
        assert_eq!(c.node(n).role(), Role::Member);
    }
    // The new RM's view no longer contains the dead founder.
    assert!(!c.node(new_rm).rm_state().unwrap().view.contains(founder));
}

/// An RM that crashes mid-session recovers from its snapshot and log, and
/// aborts the session the snapshot did not hold: its participants end its
/// hops instead of running them (and carrying their load) for good.
#[test]
fn recovered_rm_ends_the_hops_of_the_sessions_it_aborts() {
    let cfg = ProtocolConfig::default();
    let (mut c, ids) = media_cluster(&cfg);
    let founder = ids[0];
    c.run_until(SimTime::from_secs(2));
    let snapshot = c
        .node(founder)
        .store_snapshot(SimTime::from_secs(2), 0, false, 0);
    let logged = c.intents[&founder].len();
    c.submit(ids[5], task(1, 600.0), SimTime::from_secs(2));
    c.run_until(SimTime::from_secs(3));
    let busy = |c: &Cluster| ids.iter().filter(|n| c.node(**n).active_hops() > 0).count();
    assert_eq!(busy(&c), 2, "both transcoders run a hop");

    c.crash(founder);
    let intents = c.intents[&founder][logged..].to_vec();
    c.add_node(1, vec![], vec![], &cfg);
    c.alive.insert(founder);
    let recover = Event::Recover {
        snapshot: Box::new(snapshot),
        intents,
    };
    c.sim.schedule_at(SimTime::from_secs(4), (founder, recover));
    c.run_until(SimTime::from_secs(5));
    assert_eq!(c.node(founder).role(), Role::Rm);
    assert_eq!(busy(&c), 0);
}

#[test]
fn domain_splits_when_full() {
    let cfg = ProtocolConfig {
        max_domain_size: 3,
        ..ProtocolConfig::default()
    };
    let mut c = Cluster::new();
    let founder = c.add_node(1, vec![], vec![], &cfg);
    c.start(founder, None, SimTime::ZERO);
    let mut nodes = vec![founder];
    for i in 2..=6u64 {
        let n = c.add_node(i, vec![], vec![], &cfg);
        // Stagger so each join completes before the next (uptime ≥60s
        // required to qualify as RM → first start everyone, wait, join).
        nodes.push(n);
    }
    // Members need uptime ≥ 60s to qualify as new RMs; the nodes'
    // started_at is 0, so join at t=70s once they would qualify.
    for (i, &n) in nodes[1..].iter().enumerate() {
        c.start(n, Some(founder), SimTime::from_secs(70 + i as u64));
    }
    c.run_until(SimTime::from_secs(120));

    // The founder's domain holds 3; the 4th joiner founded a new domain
    // and later joiners were absorbed there (or founded further domains).
    let rm_count = nodes
        .iter()
        .filter(|n| c.node(**n).role() == Role::Rm)
        .count();
    assert!(rm_count >= 2, "domain split produced a second RM");
    assert_eq!(
        c.node(founder).rm_state().unwrap().domain_size(),
        3,
        "founder domain capped at max_domain_size"
    );
    // All nodes ended up in some domain.
    for &n in &nodes {
        assert!(
            matches!(c.node(n).role(), Role::Rm | Role::Member),
            "{n} is placed"
        );
    }
    // The split RMs know each other.
    let rms: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|n| c.node(*n).role() == Role::Rm)
        .collect();
    let founder_known = &c.node(founder).rm_state().unwrap().known_rms;
    assert!(
        rms.iter()
            .filter(|r| **r != founder)
            .all(|r| founder_known.values().any(|v| v == r)),
        "founder knows the split RMs"
    );
}

#[test]
fn gossip_exchanges_summaries_and_redirect_finds_remote_object() {
    let cfg = ProtocolConfig {
        max_domain_size: 3,
        gossip_period: SimDuration::from_secs(2),
        ..ProtocolConfig::default()
    };
    let mut c = Cluster::new();
    // Domain A: founder 1 + user 2 + filler 3 (full at 3).
    let rm_a = c.add_node(1, vec![], vec![], &cfg);
    let user = c.add_node(2, vec![], vec![], &cfg);
    let filler = c.add_node(3, vec![], vec![], &cfg);
    // Node 4 will split off as RM of domain B; 5 and 6 carry the object
    // and transcoders and must land in B.
    let rm_b = c.add_node(4, vec![], vec![], &cfg);
    // Nodes 5 and 6 are deliberately *unqualified* for RM candidacy (low
    // bandwidth), so a full domain A redirects them to domain B instead of
    // splitting again (§4.1: "otherwise it redirects it to a Resource
    // Manager of another domain").
    let src_b = c.add_node_with(
        5,
        100.0,
        900,
        vec![trailer_object()],
        vec![transcoder_a()],
        &cfg,
    );
    let t_b = c.add_node_with(6, 100.0, 900, vec![], vec![transcoder_b()], &cfg);

    c.start(rm_a, None, SimTime::ZERO);
    c.start(user, Some(rm_a), SimTime::from_millis(100));
    c.start(filler, Some(rm_a), SimTime::from_millis(200));
    // rm_b joins once it qualifies (uptime 60s+) and the domain is full.
    c.start(rm_b, Some(rm_a), SimTime::from_secs(61));
    c.start(src_b, Some(rm_a), SimTime::from_secs(62)); // redirected to B
    c.start(t_b, Some(rm_a), SimTime::from_secs(63));
    c.run_until(SimTime::from_secs(80));

    assert_eq!(c.node(rm_b).role(), Role::Rm, "node 4 founded domain B");
    assert_eq!(c.node(src_b).rm(), Some(rm_b), "node 5 landed in domain B");
    assert_eq!(c.node(t_b).rm(), Some(rm_b), "node 6 landed in domain B");

    // Gossip has exchanged summaries by now (period 2s).
    let sum_a = &c.node(rm_a).rm_state().unwrap().summaries;
    assert!(
        sum_a.values().any(|s| s.objects.contains(b"trailer")),
        "domain A learned B's object summary"
    );

    // A user in domain A asks for the object that lives in domain B: the
    // query must be redirected and allocated remotely.
    c.submit(user, task(200, 3.0), SimTime::from_secs(81));
    c.run_until(SimTime::from_secs(90));
    assert_eq!(c.replies.len(), 1);
    assert!(
        c.replies[0].1,
        "redirected task was allocated: {:?}",
        c.outcomes
    );
    assert!(c
        .outcomes
        .iter()
        .any(|(t, o, _)| *t == TaskId::new(200) && o.is_completed()));
}

#[test]
fn graceful_leave_cleans_up_immediately() {
    let cfg = ProtocolConfig::default();
    let (mut c, ids) = media_cluster(&cfg);
    c.run_until(SimTime::from_secs(2));
    // Graceful leave of an idle member is processed on receipt, well
    // before any heartbeat timeout.
    let leaver = ids[4];
    c.sim.schedule_at(
        SimTime::from_millis(2100),
        (leaver, Event::Shutdown { graceful: true }),
    );
    c.run_until(SimTime::from_millis(2500));
    c.crash(leaver); // driver stops delivering to it
    let rm_state = c.node(ids[0]).rm_state().unwrap();
    assert_eq!(rm_state.domain_size(), 5);
    assert!(!rm_state.view.contains(leaver));
}

#[test]
fn rejected_when_no_object_anywhere() {
    let cfg = ProtocolConfig::default();
    let (mut c, ids) = media_cluster(&cfg);
    let user = ids[5];
    let mut t = task(300, 3.0);
    t.name = "does-not-exist".into();
    c.submit(user, t, SimTime::from_secs(1));
    c.run_until(SimTime::from_secs(3));
    assert_eq!(c.replies.len(), 1);
    assert!(!c.replies[0].1, "no allocation possible");
    assert!(c
        .outcomes
        .iter()
        .any(|(t, o, _)| *t == TaskId::new(300) && *o == TaskOutcome::Rejected));
}

#[test]
fn deterministic_replay() {
    // The same cluster twice must produce byte-identical telemetry.
    let run = || {
        let cfg = ProtocolConfig::default();
        let (mut c, ids) = media_cluster(&cfg);
        let user = ids[5];
        c.submit(user, task(400, 2.0), SimTime::from_secs(1));
        c.submit(user, task(401, 2.0), SimTime::from_millis(1200));
        c.run_until(SimTime::from_secs(8));
        (c.outcomes.clone(), c.replies.clone())
    };
    assert_eq!(run(), run());
}

#[test]
fn compose_message_carries_deadline_for_lls() {
    // White-box check of the Compose wiring: a composed hop's setup job is
    // scheduled under the task's absolute deadline (so LLS can order it).
    let cfg = ProtocolConfig::default();
    let (mut c, ids) = media_cluster(&cfg);
    let user = ids[5];
    c.submit(user, task(500, 2.0), SimTime::from_secs(1));
    // Run just past allocation: Compose messages are in flight or handled.
    c.run_until(SimTime::from_millis(1100));
    // At least one transcoder got a Compose and registered the hop.
    let hops: usize = ids.iter().map(|n| c.node(*n).active_hops()).sum();
    assert!(hops > 0, "composition reached participants");
    let _ = TimerKind::SchedPoll; // (documents the polling mechanism)
    let _ = Message::SessionEnd {
        session: arm_util::SessionId::new(0),
    };
}

#[test]
fn connection_budget_of_four_carries_two_sessions() {
    // The single A-transcoder (peer 3) serves both sessions: its connected
    // set is {RM, source, t_b, t_b2} = 4 peers. A budget of 4 suffices.
    let cfg = ProtocolConfig {
        max_connections: 4,
        ..ProtocolConfig::default()
    };
    let (mut c, ids) = media_cluster(&cfg);
    let user = ids[5];
    c.submit(user, task(600, 30.0), SimTime::from_secs(1));
    c.submit(user, task(601, 30.0), SimTime::from_secs(3));
    c.run_until(SimTime::from_secs(6));
    assert_eq!(
        c.outcomes
            .iter()
            .filter(|(_, o, _)| o.is_completed())
            .count(),
        2,
        "both sessions completed: {:?}",
        c.outcomes
    );
}

#[test]
fn connection_limit_nack_declines_second_session() {
    // With a budget of 3, the mandatory A-transcoder cannot accept a
    // second composition (it would need a 4th connection). The RM gets a
    // ComposeNack, retires the declined edge, and — with no alternative
    // A-transcoder — the repair fails and the task is reported Failed.
    let cfg = ProtocolConfig {
        max_connections: 3,
        ..ProtocolConfig::default()
    };
    let (mut c, ids) = media_cluster(&cfg);
    let user = ids[5];
    c.submit(user, task(600, 30.0), SimTime::from_secs(1));
    c.run_until(SimTime::from_secs(3));
    c.submit(user, task(601, 30.0), SimTime::from_secs(3));
    c.run_until(SimTime::from_secs(6));
    // First session streams; second was declined and failed repair.
    assert!(c
        .outcomes
        .iter()
        .any(|(t, o, _)| *t == TaskId::new(600) && o.is_completed()));
    assert!(c
        .outcomes
        .iter()
        .any(|(t, o, _)| *t == TaskId::new(601) && *o == TaskOutcome::Failed));
    // The repair machinery ran (and reported failure).
    assert!(c.repairs.iter().any(|(ok, _)| !ok));
}

#[test]
fn renegotiation_updates_session_qos() {
    let cfg = ProtocolConfig::default();
    let (mut c, ids) = media_cluster(&cfg);
    let user = ids[5];
    c.submit(user, task(700, 60.0), SimTime::from_secs(1));
    c.run_until(SimTime::from_secs(3));
    // Renegotiate: relax the deadline to 20s.
    c.sim.schedule_at(
        SimTime::from_secs(3),
        (
            user,
            Event::Renegotiate {
                task: TaskId::new(700),
                new_qos: QosSpec::with_deadline(SimDuration::from_secs(20)),
            },
        ),
    );
    c.run_until(SimTime::from_secs(5));
    let rm_state = c.node(ids[0]).rm_state().unwrap();
    let rec = rm_state
        .sessions
        .values()
        .find(|r| r.task.id == TaskId::new(700))
        .expect("session still running");
    assert_eq!(rec.task.qos.deadline, SimDuration::from_secs(20));
}

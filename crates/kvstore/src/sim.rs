//! `SimCluster`: the node state machines driven through the discrete-event
//! engine with `ef-netsim` delays.
//!
//! Where [`LocalCluster`](crate::LocalCluster) answers *what* the store
//! does, `SimCluster` answers *how long it takes*: every node-to-node
//! message pays the topology's latency and occupies the sender's uplink
//! for its serialization time. The dedup system uses it to validate its
//! analytic lookup-latency model, and the micro-benchmarks use it to
//! reproduce the paper's observation that remote hash lookups dominate
//! deduplication latency.

use crate::cache::{CacheStats, FingerprintCache};
use crate::cluster::ClusterConfig;
use crate::failure::HeartbeatDetector;
use crate::gray::{AdaptiveTimeouts, GrayFailureStats};
use crate::integrity::{checksum64, IntegrityStats};
use crate::msg::{ClientOp, Completion, Message, OpId, OpResult, Outbound};
use crate::node::NodeState;
use crate::retry::RetryPolicy;
use crate::ring::HashRing;
use crate::spool::{DisasterStats, SpoolClass, SpoolDest, UploadSpool};
use crate::storage::WriteAheadLog;
use crate::trust::{splitmix, ByzantineStats, TrustLedger};
use bytes::Bytes;
use ef_netsim::{Network, NodeId, SiteId};
use ef_simcore::{DetRng, SimDuration, SimTime, Simulator};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Spool-WAL snapshot cadence: fold retired entries away every this many
/// records so a long outage's spool footprint stays bounded by the
/// *pending* entries, not the full enqueue/retire history.
const SPOOL_SNAPSHOT_EVERY: u64 = 64;

/// A completed operation with its start/finish times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpLatency {
    /// The operation.
    pub op_id: OpId,
    /// Outcome.
    pub result: OpResult,
    /// Submission time.
    pub started: SimTime,
    /// Coordinator-side completion time.
    pub finished: SimTime,
}

impl OpLatency {
    /// The client-observed latency.
    pub fn latency(&self) -> ef_simcore::SimDuration {
        self.finished - self.started
    }
}

#[derive(Debug)]
enum Event {
    /// A client operation begins at its coordinator.
    Start { coordinator: NodeId, op: ClientOp },
    /// A message arrives at `to`. `crc` is the frame checksum stamped at
    /// the sender (damaged in flight by wire bit rot); the receiver
    /// verifies it against the message before accepting.
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: Message,
        crc: u64,
    },
    /// `node` broadcasts a heartbeat and re-arms its tick.
    HeartbeatTick { node: NodeId },
    /// A heartbeat from `from` arrives at `to`.
    HeartbeatArrive { from: NodeId, to: NodeId },
    /// Crash `node` (stops heartbeats, drops its messages).
    Crash { node: NodeId },
    /// Revive `node`.
    Revive { node: NodeId },
    /// Crash-stop `node`: its volatile state and in-flight ops are lost;
    /// only its write-ahead log (the "disk") survives.
    CrashStop { node: NodeId },
    /// Restart a crash-stopped `node`: recover from its WAL and rejoin.
    Restart { node: NodeId },
    /// `node` departs permanently: volatile state *and* disk are gone.
    Depart { node: NodeId },
    /// Run one anti-entropy round across all live replica pairs and
    /// re-arm the next tick.
    AntiEntropyTick,
    /// Run one background-scrub slice on every live node and re-arm the
    /// next tick.
    ScrubTick,
    /// Seeded at-rest bit rot strikes `node`: a handful of bit flips
    /// across its storage-engine values and durable WAL bytes (a parked
    /// disk rots too).
    StorageRot { node: NodeId, rot_seed: u64 },
    /// Retransmission timer for a coordinated op: retry its outstanding
    /// requests, or time the op out once the budget is spent.
    Rto { op_id: OpId, attempt: u32 },
    /// Hedge timer for a coordinated read-phase op: if still pending,
    /// fire one speculative probe at a backup replica.
    Hedge { op_id: OpId },
    /// A fail-slow node's stretched fsync completes: release the acks it
    /// was holding back.
    Flush {
        from: NodeId,
        outbound: Vec<Outbound>,
    },
    /// One bandwidth-capped drain round of the durable upload spools
    /// fires, then re-arms at the uplink's tick interval.
    SpoolDrainTick,
    /// Disaster: every node in `site` loses volatile state, disk *and*
    /// spool at once (the ring-outage window opens).
    RingWipe { site: SiteId },
    /// The ring-outage window closes: `site`'s nodes rejoin empty and
    /// mesh repair from neighbor rings begins.
    RingHeal { site: SiteId },
}

/// Counters from the crash-recovery pipeline: WAL replay, anti-entropy
/// repair, re-replication and dead-peer handling. All counters are
/// cumulative over the run and fully deterministic for a fixed seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// WAL records replayed across all node restarts.
    pub wal_records_replayed: u64,
    /// Node restarts completed (WAL recovered, rejoined the ring).
    pub restarts: u64,
    /// Anti-entropy rounds executed.
    pub antientropy_rounds: u64,
    /// Divergent Merkle buckets repaired.
    pub buckets_repaired: u64,
    /// Entries streamed by anti-entropy repair.
    pub entries_repaired: u64,
    /// Entries re-replicated to new owners after permanent departures.
    pub rereplicated_entries: u64,
    /// Hints dropped because their target permanently departed.
    pub hints_dropped: u64,
    /// Dead declarations across all observers (suspect → dead edges).
    pub dead_declared: u64,
    /// Torn WAL tails truncated during restarts (a partial final record
    /// — a mid-write crash — cut back to the last whole record).
    pub torn_tails_truncated: u64,
}

/// A ring member's lifecycle state. One table of these is the only
/// liveness truth the driver reads: [`SimCluster::retire`] is the one
/// way out of service and [`SimCluster::rejoin`] the one way back.
#[derive(Debug)]
enum Member {
    /// In service: answers ops, heartbeats, transmits.
    Up(NodeState),
    /// Transiently crashed (`Crash` … `Revive`): volatile state kept,
    /// but the node is silent and every frame to it is dropped.
    Silent(NodeState),
    /// Crash-stopped: only the write-ahead log (the "disk") survives,
    /// parked for a later restart.
    Stopped(WriteAheadLog),
    /// Inside a ring-outage window: volatile state, disk and spool are
    /// gone. `seq_floor` is the op-sequence watermark the node held when
    /// wiped — live, on its parked disk, or from an earlier wipe — so
    /// the rebuilt node never reissues an op id.
    Wiped { seq_floor: u64 },
    /// Permanently departed (a driver-confirmed decommission).
    Departed,
}

impl Member {
    fn state(&self) -> Option<&NodeState> {
        match self {
            Member::Up(state) | Member::Silent(state) => Some(state),
            Member::Stopped(_) | Member::Wiped { .. } | Member::Departed => None,
        }
    }

    fn state_mut(&mut self) -> Option<&mut NodeState> {
        match self {
            Member::Up(state) | Member::Silent(state) => Some(state),
            Member::Stopped(_) | Member::Wiped { .. } | Member::Departed => None,
        }
    }
}

/// What a member loses on its way out of service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loss {
    /// Crash-stop: volatile state only; disk and spool survive.
    Volatile,
    /// Ring wipe: disk and spool burn too; the op-sequence floor is kept.
    Site,
    /// Departure: everything, for good.
    Everything,
}

/// Gossip failure-detection settings (see
/// [`SimCluster::enable_heartbeats`]).
#[derive(Debug, Clone, Copy)]
struct Heartbeats {
    interval: SimDuration,
    /// Suspect timeout.
    timeout: SimDuration,
    /// Dead-timeout escalation, if enabled.
    dead_timeout: Option<SimDuration>,
}

/// A store cluster whose messages travel over a simulated network.
///
/// # Example
///
/// ```
/// use ef_kvstore::{ClusterConfig, SimCluster};
/// use ef_netsim::{Network, NetworkConfig, TopologyBuilder};
/// use ef_simcore::SimTime;
/// use bytes::Bytes;
///
/// let topo = TopologyBuilder::new().edge_site(3).build();
/// let net = Network::new(topo, NetworkConfig::paper_testbed());
/// let members = net.topology().edge_nodes();
/// let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
/// cluster.submit(SimTime::ZERO, members[0],
///     ef_kvstore::ClientOp::Put(Bytes::from_static(b"k"), Bytes::from_static(b"v")));
/// let latencies = cluster.run();
/// assert_eq!(latencies.len(), 1);
/// ```
#[derive(Debug)]
pub struct SimCluster {
    /// Every ring member's lifecycle state, in id order.
    members: BTreeMap<NodeId, Member>,
    pub(crate) network: Network,
    sim: Simulator<Event>,
    starts: HashMap<OpId, SimTime>,
    completed: Vec<OpLatency>,
    /// Gossip-style failure detection (None until enabled).
    heartbeats: Option<Heartbeats>,
    detectors: BTreeMap<NodeId, HeartbeatDetector>,
    /// Per-op timeout/retry (None = ops wait forever, the pre-chaos
    /// behaviour; auto-armed when the network carries a fault plan).
    retry_policy: Option<RetryPolicy>,
    rto_rng: Option<DetRng>,
    /// Ops submitted but not yet completed/timed out.
    inflight: usize,
    /// Timeouts, retries and degraded ops of retired coordinators (the
    /// getters add the live members' own counts).
    retired_timeouts: u64,
    retired_retries: u64,
    retired_degraded: u64,
    /// The cluster config (node recovery rebuilds state from it).
    pub(crate) config: ClusterConfig,
    /// The master ring: membership truth, updated on departures.
    pub(crate) ring: HashRing,
    /// Anti-entropy schedule: (interval, Merkle depth); None until
    /// enabled.
    pub(crate) antientropy: Option<(SimDuration, u32)>,
    /// Background-scrub schedule: (interval, per-node byte budget per
    /// round); None until enabled.
    scrub: Option<(SimDuration, u64)>,
    /// Per-node scrub resume cursors (None = start of key space).
    scrub_cursors: BTreeMap<NodeId, Option<Bytes>>,
    /// Driver-level integrity counters: frame rejections, scrub and
    /// repair work, recovery-lattice outcomes, plus counters folded in
    /// from crash-stopped and departed nodes.
    pub(crate) integrity_acc: IntegrityStats,
    /// Verification-failure strikes per node, feeding quarantine.
    verify_failures: BTreeMap<NodeId, u32>,
    /// Nodes quarantined for repeated verification failures: their
    /// heartbeats are suppressed so the ordinary suspect → dead
    /// machinery takes them out of service.
    quarantined: BTreeSet<NodeId>,
    /// Recovery-pipeline counters.
    pub(crate) recovery: RecoveryStats,
    /// When each node last restarted from its WAL.
    pub(crate) restarted_at: BTreeMap<NodeId, SimTime>,
    /// When a restarted node was first observed fully converged (its
    /// replica pairs all clean in an anti-entropy round).
    pub(crate) recovered_at: BTreeMap<NodeId, SimTime>,
    /// Synthetic op ids issued for submissions to dead coordinators.
    dead_submissions: u64,
    /// Per-coordinator fingerprint caches (None until enabled). A hit
    /// answers a check-and-insert locally as a duplicate; see
    /// [`FingerprintCache`] for the one-sided soundness argument.
    caches: Option<BTreeMap<NodeId, FingerprintCache>>,
    /// Keys of in-flight check-and-insert ops awaiting cache population.
    /// Keyed lookups only — never iterated, so the HashMap is safe.
    cache_keys: HashMap<OpId, Bytes>,
    /// Adaptive per-peer RTO estimators (None until enabled).
    adaptive: Option<AdaptiveTimeouts>,
    /// Hedged-read budget: max speculative probes per run (None = off).
    hedging: Option<u64>,
    /// Admission-control bound on a coordinator's pending ops (None =
    /// off).
    admission: Option<usize>,
    /// Uplink-backpressure threshold for background work (None = off).
    backpressure: Option<SimDuration>,
    /// Smoothed-RTT threshold marking a peer slow/gray (None = off).
    slow_watch: Option<SimDuration>,
    /// Currently slow-marked (observer, peer) edges.
    slow: BTreeSet<(NodeId, NodeId)>,
    /// Registered fail-slow storage stalls: (from, until, node, factor).
    stalls: Vec<(SimTime, SimTime, NodeId, f64)>,
    /// First-transmission stamps for in-flight (op, peer) request edges.
    /// Keyed lookups only — never iterated, so the HashMap is safe.
    sent_at: HashMap<(OpId, NodeId), SimTime>,
    /// Driver-level gray-failure counters (node-held hedge wins are
    /// folded in by `gray_stats`, or here when a node dies).
    gray_acc: GrayFailureStats,
    /// Durable WAL-backed upload spools, one per member (populated when
    /// a cloud uplink is enabled). A spool survives its node's
    /// crash-stop — it lives on the disk — but a ring wipe burns it.
    spools: BTreeMap<NodeId, UploadSpool>,
    /// Cloud uplink drain configuration (None until enabled).
    uplink: Option<CloudUplink>,
    /// Driver-side cloud catalog: payloads that completed the uplink
    /// trip. The erasure-coded cloud tier of the paper, modeled as the
    /// ground-truth durable copy.
    cloud_store: BTreeMap<Bytes, Bytes>,
    /// Registered cloud-outage windows (uplink unusable while open).
    cloud_outages: Vec<(SimTime, SimTime)>,
    /// Registered ring-outage windows: (from, until, site).
    ring_outages: Vec<(SimTime, SimTime, SiteId)>,
    /// When each wiped-then-healed node rejoined, for time-to-recovery
    /// accounting (entries persist to the end of the run).
    healed_at: BTreeMap<NodeId, SimTime>,
    /// Payloads of in-flight check-and-inserts awaiting a unique verdict
    /// (only tracked while an uplink is enabled). Keyed lookups only —
    /// never iterated, so the HashMap is safe.
    upload_payloads: HashMap<OpId, (Bytes, Bytes)>,
    /// Driver-level disaster counters (spool counters live in the spools
    /// themselves and are folded in by `disaster_stats`).
    disaster_acc: DisasterStats,
    /// Proof-of-possession challenge seed (None until
    /// [`SimCluster::enable_pop`]); restarted and healed nodes are
    /// re-armed from it.
    pub(crate) pop_seed: Option<u64>,
    /// Per-peer Byzantine strike ledger: provably-wrong possession
    /// proofs, poisoned repair bytes and summary equivocations accrue
    /// here until the liar crosses the quarantine threshold.
    trust: TrustLedger,
    /// Driver-level Byzantine counters (node-held counters are folded in
    /// by `byzantine_stats`, or here when a node dies).
    pub(crate) byz_acc: ByzantineStats,
    /// Ground-truth content digests of every payload a client submitted,
    /// recorded at `Event::Start` while PoP is armed: the content-address
    /// check applied to every peer-served repair/restore byte.
    content_digests: BTreeMap<Bytes, u64>,
    /// Which remote prover backed each cache-admitted duplicate verdict:
    /// prover → (coordinator, key) admissions. A later quarantine of the
    /// prover invalidates exactly these entries.
    cache_sources: BTreeMap<NodeId, Vec<(NodeId, Bytes)>>,
    /// Mesh-repair fetches awaiting verified bytes: (key, healing target)
    /// → surviving holders not yet tried. A poisoned response re-fetches
    /// from the next candidate (then the cloud catalog).
    pending_repairs: BTreeMap<(Bytes, NodeId), Vec<NodeId>>,
    /// Sequence number for fabricated hint-flood keys (deterministic,
    /// never collides with client fingerprints).
    flood_seq: u64,
}

/// Configuration of the durable-spool cloud uplink.
///
/// The cloud node is *not* a ring member: `CloudUpload` frames terminate
/// at the driver's catalog and are answered with a `CloudUploadAck` over
/// the same wire (real latency, loss and corruption both ways).
#[derive(Debug, Clone, Copy)]
pub struct CloudUplink {
    /// The cloud catalog node frames are addressed to.
    pub cloud: NodeId,
    /// Payload-byte cap per node per drain tick (the bandwidth cap).
    pub byte_cap: u64,
    /// Interval between drain rounds.
    pub tick: SimDuration,
}

impl SimCluster {
    /// Creates a simulated cluster of `members` over `network`.
    ///
    /// # Panics
    ///
    /// Panics when `members` is empty or a member is not in the network's
    /// topology.
    pub fn new(members: Vec<NodeId>, network: Network, config: ClusterConfig) -> Self {
        assert!(!members.is_empty(), "cluster needs at least one node");
        for m in &members {
            assert!(
                m.index() < network.topology().node_count(),
                "member {m} not in topology"
            );
        }
        let ring = HashRing::with_nodes(members.iter().copied(), config.vnodes);
        let members = members
            .into_iter()
            .map(|id| (id, Member::Up(NodeState::new(id, ring.clone(), &config))))
            .collect();
        // A faulty network without per-op timeouts would let any op whose
        // messages are all lost hang forever; arm a default policy seeded
        // from the plan so chaos runs stay deterministic out of the box.
        let retry_policy = network
            .fault_plan()
            .map(|plan| RetryPolicy::new(plan.seed()));
        let rto_rng = retry_policy
            .as_ref()
            .map(|p| DetRng::new(p.seed).substream("rto-jitter"));
        SimCluster {
            members,
            network,
            sim: Simulator::new(),
            starts: HashMap::new(),
            completed: Vec::new(),
            heartbeats: None,
            detectors: BTreeMap::new(),
            retry_policy,
            rto_rng,
            inflight: 0,
            retired_timeouts: 0,
            retired_retries: 0,
            retired_degraded: 0,
            config,
            ring,
            antientropy: None,
            scrub: None,
            scrub_cursors: BTreeMap::new(),
            integrity_acc: IntegrityStats::default(),
            verify_failures: BTreeMap::new(),
            quarantined: BTreeSet::new(),
            recovery: RecoveryStats::default(),
            restarted_at: BTreeMap::new(),
            recovered_at: BTreeMap::new(),
            dead_submissions: 0,
            caches: None,
            cache_keys: HashMap::new(),
            adaptive: None,
            hedging: None,
            admission: None,
            backpressure: None,
            slow_watch: None,
            slow: BTreeSet::new(),
            stalls: Vec::new(),
            sent_at: HashMap::new(),
            gray_acc: GrayFailureStats::default(),
            spools: BTreeMap::new(),
            uplink: None,
            cloud_store: BTreeMap::new(),
            cloud_outages: Vec::new(),
            ring_outages: Vec::new(),
            healed_at: BTreeMap::new(),
            upload_payloads: HashMap::new(),
            disaster_acc: DisasterStats::default(),
            pop_seed: None,
            trust: TrustLedger::new(),
            byz_acc: ByzantineStats::default(),
            content_digests: BTreeMap::new(),
            cache_sources: BTreeMap::new(),
            pending_repairs: BTreeMap::new(),
            flood_seq: 0,
        }
    }

    /// Enables the per-coordinator fingerprint cache: `shards` LRU shards
    /// of `per_shard_capacity` entries on every node. Call before
    /// submitting ops; cached and uncached runs stay op-id compatible.
    pub fn enable_fingerprint_cache(&mut self, shards: usize, per_shard_capacity: usize) {
        self.install_caches(|| FingerprintCache::new(shards, per_shard_capacity));
    }

    /// [`SimCluster::enable_fingerprint_cache`] with the second-sight
    /// admission policy: fingerprints enter a coordinator's cache only on
    /// their second sighting, so one-hit-wonder chunks never churn the
    /// LRU. Verdicts are unchanged either way — admission only moves the
    /// hit/miss split, never the soundness of a hit.
    pub fn enable_second_sight_cache(&mut self, shards: usize, per_shard_capacity: usize) {
        self.install_caches(|| {
            FingerprintCache::new(shards, per_shard_capacity).with_second_sight()
        });
    }

    /// Gives every member a fresh cache built by `make`.
    fn install_caches(&mut self, make: impl Fn() -> FingerprintCache) {
        self.caches = Some(self.members.keys().map(|&id| (id, make())).collect());
    }

    /// Aggregated fingerprint-cache counters across all coordinators
    /// (zeros when the cache was never enabled).
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        if let Some(caches) = &self.caches {
            for cache in caches.values() {
                total.absorb(&cache.stats());
            }
        }
        total
    }

    /// Sets (or replaces) the per-op timeout/retry policy. Affects ops
    /// submitted from now on; call before `submit`.
    ///
    /// # Panics
    ///
    /// Panics when the policy is invalid (see [`RetryPolicy::validate`]).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        policy.validate();
        self.rto_rng = Some(DetRng::new(policy.seed).substream("rto-jitter"));
        self.retry_policy = Some(policy);
    }

    /// The active timeout/retry policy, if any.
    pub fn retry_policy(&self) -> Option<&RetryPolicy> {
        self.retry_policy.as_ref()
    }

    /// Enables gossip-style failure detection: every node broadcasts a
    /// heartbeat each `interval`, suspects peers silent past `timeout`,
    /// marks them down (hinting writes), and revives them on the next
    /// heartbeat heard.
    ///
    /// Call before `run`; ticks start at time zero.
    ///
    /// # Panics
    ///
    /// Panics when `timeout <= interval` (a peer would flap every tick).
    pub fn enable_heartbeats(
        &mut self,
        interval: ef_simcore::SimDuration,
        timeout: ef_simcore::SimDuration,
    ) {
        self.enable_heartbeats_inner(interval, timeout, None);
    }

    /// Like [`SimCluster::enable_heartbeats`], but additionally escalates
    /// peers silent past `dead_timeout` to [`crate::Liveness::Dead`].
    /// A dead declaration only triggers ring
    /// surgery (re-replication, ring rebuild, detector unwatch) for
    /// nodes whose departure the driver confirmed via
    /// [`SimCluster::depart_at`] — the in-sim stand-in for an operator
    /// decommission decision. A merely crash-stopped node keeps its ring
    /// slot and revives through genuinely-later heartbeats after its
    /// restart.
    ///
    /// # Panics
    ///
    /// Panics unless `dead_timeout > timeout > interval`.
    pub fn enable_heartbeats_with_dead(
        &mut self,
        interval: SimDuration,
        timeout: SimDuration,
        dead_timeout: SimDuration,
    ) {
        assert!(
            dead_timeout > timeout,
            "dead timeout must exceed the suspect timeout"
        );
        self.enable_heartbeats_inner(interval, timeout, Some(dead_timeout));
    }

    fn enable_heartbeats_inner(
        &mut self,
        interval: SimDuration,
        timeout: SimDuration,
        dead_timeout: Option<SimDuration>,
    ) {
        assert!(timeout > interval, "timeout must exceed the interval");
        self.heartbeats = Some(Heartbeats {
            interval,
            timeout,
            dead_timeout,
        });
        let live: Vec<NodeId> = self.states().map(|(id, _)| id).collect();
        for me in live {
            self.arm_detector(me, SimTime::ZERO);
            self.sim
                .schedule_at(SimTime::ZERO, Event::HeartbeatTick { node: me });
        }
    }

    /// Gives `node` a fresh failure detector watching every other member
    /// that holds volatile state (no-op without heartbeats).
    fn arm_detector(&mut self, node: NodeId, now: SimTime) {
        let Some(hb) = self.heartbeats else {
            return;
        };
        let mut fd = match hb.dead_timeout {
            Some(dead) => HeartbeatDetector::with_dead_timeout(hb.timeout, dead),
            None => HeartbeatDetector::new(hb.timeout),
        };
        for (peer, _) in self.states().filter(|&(peer, _)| peer != node) {
            fd.watch(peer, now);
        }
        self.detectors.insert(node, fd);
    }

    /// Enables the scheduled anti-entropy repair: every `interval`, all
    /// live replica pairs exchange depth-`depth` Merkle trees over the
    /// simulated network (paying real transfer costs) and stream the
    /// entries of divergent buckets to each other.
    ///
    /// Call before `run`; the first round fires one `interval` from now.
    ///
    /// # Panics
    ///
    /// Panics when already enabled, `interval` is zero, or `depth > 20`.
    pub fn enable_anti_entropy(&mut self, interval: SimDuration, depth: u32) {
        assert!(self.antientropy.is_none(), "anti-entropy already enabled");
        assert!(!interval.is_zero(), "interval must be positive");
        assert!(depth <= 20, "Merkle depth {depth} > 20");
        self.antientropy = Some((interval, depth));
        self.sim.schedule_after(interval, Event::AntiEntropyTick);
    }

    /// Enables the background scrub: every `interval`, each live node
    /// verifies the checksums of the next `byte_budget` bytes of its key
    /// space. A corrupt entry is dropped and read-repaired from a live
    /// ring replica over the (faulty, billed) network; a replica whose
    /// own copies keep failing verification is quarantined. Entries with
    /// no healthy live replica are counted lost — the system layer may
    /// later reclassify them as recovered by cloud erasure decoding via
    /// [`SimCluster::note_cloud_decode`].
    ///
    /// Call before `run`; the first round fires one `interval` from now.
    ///
    /// # Panics
    ///
    /// Panics when already enabled, `interval` is zero, or `byte_budget`
    /// is zero.
    pub fn enable_scrub(&mut self, interval: SimDuration, byte_budget: u64) {
        assert!(self.scrub.is_none(), "scrub already enabled");
        assert!(!interval.is_zero(), "interval must be positive");
        assert!(byte_budget > 0, "byte budget must be positive");
        self.scrub = Some((interval, byte_budget));
        self.sim.schedule_after(interval, Event::ScrubTick);
    }

    /// Enables the durable upload spool and its cloud uplink: every
    /// unique check-and-insert verdict appends the chunk payload to the
    /// coordinator's WAL-backed spool (the client ack never waits on the
    /// cloud), and every `tick` each live node drains up to `byte_cap`
    /// payload bytes of spooled uploads to `cloud`, highest priority
    /// class first. An entry retires only when its `CloudUploadAck`
    /// returns clean — lost or corrupted frames are retransmitted on a
    /// later round, so drains are resumable across outages and crashes.
    ///
    /// `cloud` must be a node in the topology that is *not* a ring
    /// member (frames to it terminate at the driver's catalog).
    ///
    /// Call before `run`; the first drain round fires one `tick` from
    /// now.
    ///
    /// # Panics
    ///
    /// Panics when already enabled, `cloud` is a ring member or outside
    /// the topology, `byte_cap` is zero, or `tick` is zero.
    pub fn enable_cloud_uplink(&mut self, cloud: NodeId, byte_cap: u64, tick: SimDuration) {
        assert!(self.uplink.is_none(), "cloud uplink already enabled");
        assert!(
            cloud.index() < self.network.topology().node_count(),
            "cloud node {cloud} not in topology"
        );
        assert!(
            !self.members.contains_key(&cloud),
            "cloud node {cloud} must not be a ring member"
        );
        assert!(byte_cap > 0, "byte cap must be positive");
        assert!(!tick.is_zero(), "tick must be positive");
        self.uplink = Some(CloudUplink {
            cloud,
            byte_cap,
            tick,
        });
        for &id in self.members.keys() {
            self.spools
                .insert(id, UploadSpool::new(SPOOL_SNAPSHOT_EVERY));
        }
        self.sim.schedule_after(tick, Event::SpoolDrainTick);
    }

    /// Registers a cloud-outage window `[from, until)`: spool drains are
    /// suspended while it is open (uniques keep accumulating durably).
    /// The matching uplink blackout in the network fault plan is
    /// installed by [`ChaosScenario::fault_plan`](crate::ChaosScenario)
    /// — this call only drives the driver-side drain schedule.
    ///
    /// # Panics
    ///
    /// Panics when the window is empty.
    pub fn cloud_outage_at(&mut self, from: SimTime, until: SimTime) {
        assert!(until > from, "outage window must not be empty");
        self.disaster_acc.outage_windows += 1;
        self.cloud_outages.push((from, until));
    }

    /// Registers a ring disaster: at `from` every node in `site` loses
    /// volatile state, disk *and* spool; at `until` the site's nodes
    /// rejoin empty and are rebuilt by mesh repair from neighbor rings,
    /// falling back to the cloud catalog for chunks no neighbor holds.
    ///
    /// # Panics
    ///
    /// Panics when the window is empty.
    pub fn ring_outage_at(&mut self, from: SimTime, until: SimTime, site: SiteId) {
        assert!(until > from, "outage window must not be empty");
        self.ring_outages.push((from, until, site));
        self.sim.schedule_at(from, Event::RingWipe { site });
        self.sim.schedule_at(until, Event::RingHeal { site });
    }

    /// True while a registered cloud-outage window is open at `now`.
    fn cloud_out(&self, now: SimTime) -> bool {
        self.cloud_outages
            .iter()
            .any(|&(from, until)| now >= from && now < until)
    }

    /// Schedules a seeded at-rest bit-rot strike at `node` at `at`: a
    /// handful of bit flips across the node's storage-engine values and
    /// its durable WAL bytes. If the node is crash-stopped at that time,
    /// the rot lands on its parked disk instead.
    pub fn storage_rot_at(&mut self, at: SimTime, node: NodeId, rot_seed: u64) {
        self.sim
            .schedule_at(at, Event::StorageRot { node, rot_seed });
    }

    /// Registers a fail-slow storage stall at `node` over `[from, until)`:
    /// the node's fsyncs crawl by `stall_factor`, so its acks to replica
    /// writes and hint replays leave late and its scrub rounds cover
    /// proportionally fewer bytes. The node stays up and its data stays
    /// correct — the gray middle ground between healthy and crashed that
    /// binary failure detectors cannot see.
    ///
    /// # Panics
    ///
    /// Panics when `stall_factor < 1.0` or the window is empty.
    pub fn storage_stall_at(
        &mut self,
        from: SimTime,
        until: SimTime,
        node: NodeId,
        stall_factor: f64,
    ) {
        assert!(
            stall_factor >= 1.0,
            "stall factor {stall_factor} must be >= 1 (1 = healthy)"
        );
        assert!(until > from, "stall window must not be empty");
        self.stalls.push((from, until, node, stall_factor));
    }

    /// Enables adaptive per-peer retransmission timeouts: every ack
    /// feeds a Jacobson/Karels RTT estimator for its (coordinator, peer)
    /// edge, and retry timers use the worst outstanding peer's RTO
    /// (clamped to `[floor, ceiling]`) instead of the fixed policy
    /// delay. Call before submitting ops.
    ///
    /// # Panics
    ///
    /// Panics when `floor` is zero or `ceiling <= floor`.
    pub fn enable_adaptive_rto(&mut self, floor: SimDuration, ceiling: SimDuration) {
        self.adaptive = Some(AdaptiveTimeouts::new(floor, ceiling));
    }

    /// Enables hedged dedup lookups: a read-phase op still pending at
    /// half its retransmission delay fires one speculative probe at the
    /// next ring successor beyond the primary replica set, steering
    /// around slow-marked peers. At most `budget` hedges fire per run.
    /// Only a positive sighting ("I hold the key") completes an op
    /// early, so hedging preserves one-sided dedup soundness: it can
    /// never manufacture a false duplicate.
    ///
    /// # Panics
    ///
    /// Panics when `budget` is zero.
    pub fn enable_hedged_reads(&mut self, budget: u64) {
        assert!(budget > 0, "hedge budget must be positive");
        self.hedging = Some(budget);
    }

    /// Arms proof-of-possession dedup gating and the Byzantine defenses,
    /// with challenge derivation seeded by `seed`:
    ///
    /// * every remote positive dedup sighting (quorum reads and hedged
    ///   probes alike) must answer a salted-digest challenge over the
    ///   claimed chunk before it can complete a duplicate verdict — an
    ///   index-only liar cannot compute it;
    /// * every peer-served repair/restore byte (hint replays, mesh-repair
    ///   responses) is verified against the content digest the client's
    ///   original payload established; poisoned bytes are rejected and
    ///   re-fetched from the next-rarest holder or the cloud catalog;
    /// * provable lies accrue per-peer strikes in the [`TrustLedger`];
    ///   at [`TrustLedger::STRIKE_THRESHOLD`] the liar is quarantined
    ///   (heartbeats silenced, so the ordinary suspect → dead machinery
    ///   takes it out of service), its proven-possession grants are
    ///   revoked, and every fingerprint-cache entry its claims admitted
    ///   is invalidated.
    ///
    /// Silence is never a strike: timeouts, crashes and lost frames keep
    /// resolving exactly as without PoP, so a lossy link cannot condemn
    /// an honest peer. Call before submitting ops.
    pub fn enable_pop(&mut self, seed: u64) {
        self.pop_seed = Some(seed);
        for state in self.members.values_mut().filter_map(Member::state_mut) {
            state.arm_pop(seed);
        }
    }

    /// True when proof-of-possession gating is armed.
    pub fn pop_armed(&self) -> bool {
        self.pop_seed.is_some()
    }

    /// Byzantine-tolerance counters: challenges issued and their
    /// outcomes, poisoned bytes rejected, floods suppressed,
    /// equivocations detected, strikes, quarantines, cache
    /// invalidations and re-fetches. All zeros unless
    /// [`SimCluster::enable_pop`] armed the defenses.
    pub fn byzantine_stats(&self) -> ByzantineStats {
        let mut total = self.byz_acc;
        for (_, node) in self.states() {
            total.absorb(&node.byz_stats());
        }
        total
    }

    /// Strikes the trust ledger currently holds against `peer`.
    pub fn trust_strikes_of(&self, peer: NodeId) -> u32 {
        self.trust.strikes_of(peer)
    }

    /// Enables admission control: a coordinator with `max_pending` ops
    /// already in flight sheds new client ops as
    /// [`OpResult::Unavailable`] instead of queueing them behind work it
    /// cannot finish in time. Sheds still consume sequence numbers,
    /// keeping op ids identical with and without the limiter.
    ///
    /// # Panics
    ///
    /// Panics when `max_pending` is zero.
    pub fn enable_admission_control(&mut self, max_pending: usize) {
        assert!(max_pending > 0, "admission limit must be positive");
        self.admission = Some(max_pending);
    }

    /// Enables uplink backpressure for background work: an anti-entropy
    /// or scrub round scheduled while any live member's uplink is booked
    /// out for more than `threshold` yields its slot (and re-arms)
    /// rather than pile bulk transfers behind latency-critical dedup
    /// traffic.
    ///
    /// # Panics
    ///
    /// Panics when `threshold` is zero.
    pub fn enable_backpressure(&mut self, threshold: SimDuration) {
        assert!(
            !threshold.is_zero(),
            "backpressure threshold must be positive"
        );
        self.backpressure = Some(threshold);
    }

    /// Enables gray-peer ("slow") detection on top of the adaptive RTT
    /// estimators: a peer whose smoothed RTT exceeds `threshold` is
    /// marked [`crate::Liveness::Slow`] at its observer and avoided by
    /// hedges until its RTT recovers. Requires
    /// [`SimCluster::enable_adaptive_rto`] first.
    ///
    /// # Panics
    ///
    /// Panics when `threshold` is zero or adaptive RTO is not enabled.
    pub fn enable_slow_detection(&mut self, threshold: SimDuration) {
        assert!(!threshold.is_zero(), "slow threshold must be positive");
        assert!(
            self.adaptive.is_some(),
            "slow detection needs adaptive RTO (call enable_adaptive_rto first)"
        );
        self.slow_watch = Some(threshold);
    }

    /// Schedules a crash of `node` at `at` (requires heartbeats enabled
    /// for peers to *notice*; messages to a crashed node are dropped
    /// either way). The node keeps its volatile state — this models a
    /// network-level silence, not a process death; contrast
    /// [`SimCluster::crash_stop_at`].
    pub fn crash_at(&mut self, at: SimTime, node: NodeId) {
        self.sim.schedule_at(at, Event::Crash { node });
    }

    /// Schedules a revival of `node` at `at` (pairs with
    /// [`SimCluster::crash_at`] only — a crash-*stopped* node needs
    /// [`SimCluster::restart_at`]).
    pub fn revive_at(&mut self, at: SimTime, node: NodeId) {
        self.sim.schedule_at(at, Event::Revive { node });
    }

    /// Schedules a crash-stop of `node` at `at`: its volatile state
    /// (memtable index shard, pending ops, hints, suspicions) is
    /// dropped, in-flight ops it coordinates resolve as timed out, and
    /// only its write-ahead log survives for a later
    /// [`SimCluster::restart_at`].
    pub fn crash_stop_at(&mut self, at: SimTime, node: NodeId) {
        self.sim.schedule_at(at, Event::CrashStop { node });
    }

    /// Schedules a restart of a crash-stopped `node` at `at`: it
    /// recovers its shard from the WAL, rejoins with the current
    /// membership view, and catches up via peer hint replay and
    /// anti-entropy.
    pub fn restart_at(&mut self, at: SimTime, node: NodeId) {
        self.sim.schedule_at(at, Event::Restart { node });
    }

    /// Schedules the permanent departure of `node` at `at`: volatile
    /// state *and* disk are destroyed and the driver confirms the
    /// departure, so peers' dead declarations escalate into
    /// re-replication and a ring rebuild (requires
    /// [`SimCluster::enable_heartbeats_with_dead`]).
    pub fn depart_at(&mut self, at: SimTime, node: NodeId) {
        self.sim.schedule_at(at, Event::Depart { node });
    }

    /// Peers the given node currently suspects (after `run`).
    pub fn suspects_of(&self, node: NodeId) -> Vec<NodeId> {
        self.detectors
            .get(&node)
            .map(|d| d.suspects())
            .unwrap_or_default()
    }

    /// Peers the given node has declared dead (after `run`).
    pub fn dead_of(&self, node: NodeId) -> Vec<NodeId> {
        self.detectors
            .get(&node)
            .map(|d| d.dead_peers())
            .unwrap_or_default()
    }

    /// Schedules a client operation at `at` on `coordinator`.
    ///
    /// # Panics
    ///
    /// Panics when `at` is in the simulated past.
    pub fn submit(&mut self, at: SimTime, coordinator: NodeId, op: ClientOp) {
        self.inflight += 1;
        self.sim.schedule_at(at, Event::Start { coordinator, op });
    }

    /// Client operations submitted but not yet completed or timed out.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// Safety bound (simulated seconds past the current time) that
    /// [`SimCluster::run`] applies when heartbeats keep the event queue
    /// from ever draining.
    pub const RUN_SAFETY_DEADLINE_SECS: f64 = 3600.0;

    /// Runs the simulation until every submitted operation has resolved,
    /// returning all completions sorted by completion time.
    ///
    /// Without heartbeats this runs the event queue to quiescence (stale
    /// retry timers self-cancel, so the queue always drains). With
    /// heartbeats enabled the periodic ticks never drain; `run` then
    /// stops as soon as no client op is in flight, bounded by a safety
    /// deadline of [`SimCluster::RUN_SAFETY_DEADLINE_SECS`] simulated
    /// seconds past the current time. With a retry policy armed every op
    /// resolves long before that bound; it only guards against a
    /// misconfigured cluster whose ops can wait forever — prefer
    /// [`SimCluster::run_until`] for explicit horizons.
    pub fn run(&mut self) -> Vec<OpLatency> {
        if self.heartbeats.is_none()
            && self.antientropy.is_none()
            && self.scrub.is_none()
            && self.uplink.is_none()
        {
            return self.run_until(SimTime::MAX);
        }
        let deadline = self.sim.now() + SimDuration::from_secs_f64(Self::RUN_SAFETY_DEADLINE_SECS);
        while self.inflight > 0 && self.step_one(deadline) {}
        self.drain_completed()
    }

    /// Runs until the queue drains or the next event lies past
    /// `deadline`, returning completions so far sorted by completion
    /// time. The deadline is inclusive: events scheduled at exactly
    /// `deadline` still run; strictly later events stay queued for the
    /// next call.
    pub fn run_until(&mut self, deadline: SimTime) -> Vec<OpLatency> {
        while self.step_one(deadline) {}
        self.drain_completed()
    }

    fn drain_completed(&mut self) -> Vec<OpLatency> {
        let mut done = std::mem::take(&mut self.completed);
        done.sort_by_key(|l| (l.finished, l.op_id));
        done
    }

    /// Processes the next event if it lies at or before `deadline`.
    /// Returns false when the queue is empty or the next event is later.
    fn step_one(&mut self, deadline: SimTime) -> bool {
        let Some(t) = self.sim.peek_time() else {
            return false;
        };
        if t > deadline {
            return false;
        }
        {
            // simlint::allow(D003): peek_time just returned Some and we hold &mut self
            let ev = self.sim.step().expect("peeked event exists");
            let now = ev.time;
            match ev.payload {
                Event::Start { coordinator, op } => {
                    // Content-address ground truth: while PoP is armed,
                    // remember the digest of every payload a client
                    // submits. Peer-served repair bytes are later checked
                    // against it — the client-side anchor no Byzantine
                    // replica can forge.
                    if self.pop_seed.is_some() {
                        if let ClientOp::Put(key, value) | ClientOp::CheckAndInsert(key, value) =
                            &op
                        {
                            self.content_digests
                                .entry(key.clone())
                                .or_insert_with(|| checksum64(value));
                        }
                    }
                    let member = self.members.get_mut(&coordinator);
                    let up = matches!(member, Some(Member::Up(_)));
                    let Some(node) = member.and_then(Member::state_mut) else {
                        // The coordinator crash-stopped, was wiped or
                        // departed before this submission fired: the
                        // client sees an immediate unavailability.
                        // Synthesize an op id from the top of the
                        // sequence space, which live coordinators never
                        // issue.
                        self.dead_submissions += 1;
                        let op_id = OpId {
                            coordinator,
                            seq: u64::MAX - self.dead_submissions,
                        };
                        self.starts.insert(op_id, now);
                        self.record(
                            op_id,
                            OpResult::Unavailable {
                                acks: 0,
                                required: 0,
                            },
                            now,
                        );
                        return true;
                    };
                    // Admission control: a coordinator whose pending-op
                    // queue is already at the limit sheds the new op at
                    // the door instead of queueing it behind work it
                    // cannot finish in time. The shed still consumes a
                    // sequence number so limited and unlimited runs
                    // assign identical op ids. Client dedup ops are the
                    // highest-priority class — they shed only here, at
                    // the hard queue bound; background anti-entropy and
                    // scrub rounds yield first (see `backpressure_yield`).
                    if let Some(limit) = self.admission {
                        if node.pending_count() >= limit {
                            let op_id = node.next_op_id();
                            let required = self
                                .config
                                .consistency
                                .required(self.config.replication_factor);
                            self.gray_acc.sheds_critical += 1;
                            self.starts.insert(op_id, now);
                            self.record(op_id, OpResult::Unavailable { acks: 0, required }, now);
                            return true;
                        }
                    }
                    // Fingerprint-cache fast path: a coordinator that has
                    // already learned this fingerprint is durably indexed
                    // answers "duplicate" locally with no ring traffic. A
                    // crashed coordinator cannot answer clients, so it
                    // gets no fast path. The op still consumes a sequence
                    // number (`next_op_id`) so cached and uncached runs
                    // assign identical op ids.
                    let cache_key = match (&self.caches, &op) {
                        (Some(_), ClientOp::CheckAndInsert(key, _)) if up => Some(key.clone()),
                        _ => None,
                    };
                    if let Some(key) = &cache_key {
                        let hit = self
                            .caches
                            .as_mut()
                            .and_then(|caches| caches.get_mut(&coordinator))
                            .is_some_and(|cache| cache.contains(key));
                        if hit {
                            let op_id = node.next_op_id();
                            self.starts.insert(op_id, now);
                            self.record(
                                op_id,
                                OpResult::Dedup {
                                    unique: false,
                                    degraded: false,
                                },
                                now,
                            );
                            return true;
                        }
                    }
                    // Upload-spool capture: remember the payload of every
                    // check-and-insert begun while an uplink is enabled,
                    // so a unique verdict can be spooled for the cloud at
                    // completion time (see `record`). The early-return
                    // paths above never yield unique verdicts, so they
                    // need no entry.
                    let upload_payload = match (&self.uplink, &op) {
                        (Some(_), ClientOp::CheckAndInsert(key, value)) => {
                            Some((key.clone(), value.clone()))
                        }
                        _ => None,
                    };
                    let (op_id, outbound, completion) = node.begin(op);
                    self.starts.insert(op_id, now);
                    if let Some(payload) = upload_payload {
                        self.upload_payloads.insert(op_id, payload);
                    }
                    if let Some(key) = cache_key {
                        self.cache_keys.insert(op_id, key);
                    }
                    if let Some(c) = completion {
                        self.record(c.op_id, c.result, now);
                    }
                    // A crashed coordinator cannot transmit: its op sits
                    // pending until the retry timer resolves it.
                    if up {
                        self.dispatch(now, coordinator, outbound);
                    }
                    if self.retry_policy.is_some()
                        && self.state(coordinator).is_some_and(|n| n.is_pending(op_id))
                    {
                        self.arm_rto(op_id, 0);
                        // Hedged reads: arm one speculative backup probe
                        // at half the retransmission delay — late enough
                        // that a healthy replica has long since answered,
                        // early enough to beat the full RTO when the
                        // primary is gray. The timer self-cancels if the
                        // op completes first (`on_hedge` re-checks).
                        if let (Some(_), Some(policy)) = (self.hedging, self.retry_policy) {
                            let (base, _) = self.rto_base(op_id, 0, &policy);
                            let delay = self.hedge_delay(op_id, base);
                            self.sim.schedule_after(delay, Event::Hedge { op_id });
                        }
                    }
                    if self.admission.is_some() {
                        let depth = self
                            .state(coordinator)
                            .map_or(0, |n| n.pending_count() as u64);
                        self.gray_acc.queue_peak = self.gray_acc.queue_peak.max(depth);
                    }
                }
                Event::Deliver { from, to, msg, crc } => {
                    if self.members.contains_key(&to) && !self.is_up(to) {
                        return true; // dropped on the floor
                    }
                    if msg.frame_checksum() != crc {
                        // Wire rot damaged the frame in flight: the
                        // receiver's checksum verification rejects it —
                        // never a silent acceptance. Retries, hint
                        // replay, and anti-entropy absorb the loss.
                        self.integrity_acc.frames_rejected += 1;
                        return true;
                    }
                    // Disaster-protocol frames terminate at the driver:
                    // the cloud catalog is not a ring member, and a spool
                    // ack retires a durable entry rather than feeding a
                    // node state machine.
                    match &msg {
                        Message::CloudUpload { key, value } => {
                            self.cloud_ingest(now, from, key.clone(), value.clone());
                            return true;
                        }
                        Message::CloudUploadAck { key } => {
                            if let Some(spool) = self.spools.get_mut(&to) {
                                spool.retire_cloud(key);
                            }
                            return true;
                        }
                        _ => {}
                    }
                    // Content-address verification: with PoP armed, every
                    // peer-served repair/restore payload must match the
                    // digest the client's original upload established. A
                    // mismatch is a *provable* lie (honest replicas serve
                    // only verified reads of content-addressed chunks):
                    // the bytes are rejected before they can poison the
                    // receiver's store, the sender is struck, and a
                    // pending mesh repair re-fetches from the next
                    // holder. A key no client ever wrote is a fabricated
                    // flood hint and is suppressed the same way. CAI read
                    // responses are deliberately *not* driver-verified —
                    // defeating lookup lies is the PoP protocol's job.
                    if self.pop_seed.is_some() {
                        if let Message::HintReplay {
                            key,
                            value: Some(value),
                        } = &msg
                        {
                            let expected = self.content_digests.get(key).copied();
                            if expected != Some(checksum64(value)) {
                                self.byz_acc.poisoned_bytes_rejected += value.len() as u64;
                                if expected.is_none() {
                                    self.byz_acc.hint_floods_suppressed += 1;
                                }
                                let key = key.clone();
                                self.strike_peer(from);
                                self.refetch_repair(now, key, to);
                                return true;
                            }
                            // Verified bytes retire any pending re-fetch
                            // bookkeeping for this (key, target).
                            self.pending_repairs.remove(&(key.clone(), to));
                        }
                    }
                    // Time-to-recovery: a repair or hint payload landing
                    // on a node healed after a ring wipe advances the
                    // worst-case observed heal-to-delivery latency.
                    if matches!(msg, Message::HintReplay { .. }) {
                        if let Some(&healed) = self.healed_at.get(&to) {
                            let ns = now.saturating_since(healed).as_nanos();
                            self.disaster_acc.recovery_ns_max =
                                self.disaster_acc.recovery_ns_max.max(ns);
                        }
                    }
                    // Adaptive RTT sampling: an ack closes the timing
                    // loop opened when `dispatch` stamped the request's
                    // first transmission (Karn's rule — retransmits never
                    // restamp, so a retried op measures from its first
                    // send: a conservative over-estimate under loss).
                    if self.adaptive.is_some() {
                        let acked_op = match &msg {
                            Message::WriteAck { op_id, .. } | Message::ReadResp { op_id, .. } => {
                                Some(*op_id)
                            }
                            _ => None,
                        };
                        if let Some(op_id) = acked_op {
                            if let Some(t0) = self.sent_at.remove(&(op_id, from)) {
                                let sample = now.saturating_since(t0);
                                if let Some(adaptive) = self.adaptive.as_mut() {
                                    adaptive.observe(to, from, sample);
                                }
                                self.gray_acc.rtt_samples += 1;
                                self.note_slowness(to, from);
                            }
                        }
                    }
                    let stalled_write = matches!(
                        msg,
                        Message::ReplicaWrite { .. } | Message::HintReplay { .. }
                    );
                    let Some(node) = self.state_mut(to) else {
                        return true;
                    };
                    let (outbound, completions) = node.on_message(from, msg);
                    self.settle(now, to, completions);
                    let stall = if stalled_write {
                        self.stall_factor(to, now)
                    } else {
                        1.0
                    };
                    if stall > 1.0 && !outbound.is_empty() {
                        // Fail-slow storage: the replica's fsync crawls,
                        // so its acks leave only after the stretched
                        // flush. The write itself applies on arrival —
                        // only the acknowledgement is late, mirroring a
                        // disk that is slow, not wrong.
                        let penalty = SimDuration::from_nanos(
                            (Self::NOMINAL_FSYNC_NANOS as f64 * (stall - 1.0)).round() as u64,
                        );
                        self.sim
                            .schedule_after(penalty, Event::Flush { from: to, outbound });
                    } else {
                        self.dispatch(now, to, outbound);
                    }
                }
                Event::HeartbeatTick { node } => {
                    let Some(hb) = self.heartbeats else {
                        return true;
                    };
                    if self.is_departed(node) {
                        return true; // permanently gone: the chain dies
                    }
                    // A quarantined node is deliberately silenced: peers
                    // stop hearing it and the ordinary suspect → dead
                    // machinery takes it out of service.
                    if self.is_up(node) && !self.quarantined.contains(&node) {
                        // Broadcast liveness to every peer.
                        let peers: Vec<NodeId> = self
                            .states()
                            .map(|(id, _)| id)
                            .filter(|p| *p != node)
                            .collect();
                        for peer in peers {
                            // Heartbeats ride the same faulty links as
                            // data: loss or partition silences them, and
                            // a bit-rotted heartbeat fails its frame
                            // check at the receiver and is discarded.
                            let sent = self.network.send_framed(now, node, peer, 64);
                            debug_assert!(sent.is_ok(), "heartbeat peer missing uplink");
                            let Some(delivery) = sent.unwrap_or(None) else {
                                continue;
                            };
                            if delivery.corrupt {
                                self.integrity_acc.frames_rejected += 1;
                                continue;
                            }
                            self.sim.schedule_at(
                                delivery.arrival,
                                Event::HeartbeatArrive {
                                    from: node,
                                    to: peer,
                                },
                            );
                        }
                        // Byzantine hint flood: inside its window the
                        // compromised node sprays fabricated hint replays
                        // for chunks nobody ever wrote, riding the same
                        // billed links as honest repair traffic. With PoP
                        // armed the receivers' content-address check
                        // suppresses and strikes each one; without it the
                        // bogus keys pollute their indexes — the attack
                        // the defense exists for.
                        let floods = self
                            .network
                            .fault_plan()
                            .is_some_and(|plan| plan.hint_floods_at(node, now));
                        if floods {
                            let targets: Vec<NodeId> =
                                self.up_ids().filter(|p| *p != node).take(2).collect();
                            let mut bogus = Vec::new();
                            for target in targets {
                                self.flood_seq += 1;
                                let mut key = Vec::with_capacity(26);
                                key.extend_from_slice(b"byz-flood-");
                                key.extend_from_slice(&(node.0 as u64).to_le_bytes());
                                key.extend_from_slice(&self.flood_seq.to_le_bytes());
                                let value =
                                    Self::fabricated_bytes(self.flood_seq ^ (node.0 as u64), 64);
                                bogus.push(Outbound {
                                    to: target,
                                    msg: Message::HintReplay {
                                        key: Bytes::from(key),
                                        value: Some(value),
                                    },
                                });
                            }
                            self.dispatch(now, node, bogus);
                        }
                        // Sweep the local detector and apply transitions.
                        let transitions = self.detectors.get_mut(&node).map(|d| d.sweep(now));
                        if let Some(sweep) = transitions {
                            for down in sweep.newly_suspect {
                                let Some(state) = self.state_mut(node) else {
                                    break;
                                };
                                let completions = state.on_peer_failure(down);
                                self.settle(now, node, completions);
                            }
                            for dead in sweep.newly_dead {
                                self.on_dead_declared(now, node, dead);
                            }
                            for revived in sweep.revived {
                                let Some(state) = self.state_mut(node) else {
                                    break;
                                };
                                let outbound = state.mark_up(revived);
                                self.dispatch(now, node, outbound);
                            }
                        }
                    }
                    self.sim
                        .schedule_after(hb.interval, Event::HeartbeatTick { node });
                }
                Event::HeartbeatArrive { from, to } => {
                    if self.is_up(to) {
                        if let Some(fd) = self.detectors.get_mut(&to) {
                            fd.heartbeat(from, now);
                        }
                    }
                }
                Event::Crash { node } => self.silence(node, true),
                Event::Revive { node } => self.silence(node, false),
                Event::CrashStop { node } => {
                    self.retire(now, node, Loss::Volatile);
                }
                Event::Restart { node } => {
                    self.restart(now, node);
                }
                Event::Depart { node } => {
                    self.depart(now, node);
                }
                Event::AntiEntropyTick => {
                    if let Some((interval, depth)) = self.antientropy {
                        if self.backpressure_yield(now) {
                            self.gray_acc.sheds_background += 1;
                        } else {
                            self.anti_entropy_round(now, depth);
                        }
                        self.sim.schedule_after(interval, Event::AntiEntropyTick);
                    }
                }
                Event::ScrubTick => {
                    if let Some((interval, byte_budget)) = self.scrub {
                        if self.backpressure_yield(now) {
                            self.gray_acc.sheds_background += 1;
                        } else {
                            self.scrub_round(now, byte_budget);
                        }
                        self.sim.schedule_after(interval, Event::ScrubTick);
                    }
                }
                Event::StorageRot { node, rot_seed } => {
                    self.apply_storage_rot(node, rot_seed);
                }
                Event::Rto { op_id, attempt } => {
                    self.on_rto(now, op_id, attempt);
                }
                Event::Hedge { op_id } => {
                    self.on_hedge(now, op_id);
                }
                Event::Flush { from, outbound } => {
                    // A node that crash-stopped or departed between the
                    // stalled write and its flush completing never acks.
                    if self.is_up(from) {
                        self.dispatch(now, from, outbound);
                    }
                }
                Event::SpoolDrainTick => {
                    if let Some(uplink) = self.uplink {
                        self.spool_drain_round(now, uplink);
                        self.sim.schedule_after(uplink.tick, Event::SpoolDrainTick);
                    }
                }
                Event::RingWipe { site } => self.ring_wipe(now, site),
                Event::RingHeal { site } => self.ring_heal(now, site),
            }
        }
        true
    }

    /// Handles a retransmission timer firing for `op_id`.
    fn on_rto(&mut self, now: SimTime, op_id: OpId, attempt: u32) {
        let Some(policy) = self.retry_policy else {
            return;
        };
        let coordinator = op_id.coordinator;
        let coordinator_crashed = !self.is_up(coordinator);
        let Some(state) = self.state_mut(coordinator).filter(|n| n.is_pending(op_id)) else {
            return; // completed before the timer fired: stale RTO
        };
        if attempt < policy.max_retries && !coordinator_crashed {
            let outbound = state.retry_outstanding(op_id);
            self.dispatch(now, coordinator, outbound);
            self.arm_rto(op_id, attempt + 1);
            return;
        }
        // Budget spent (or the coordinator itself crashed — nobody is
        // left to retry): resolve the op one way or the other.
        let (outbound, completion) = state.timeout_op(op_id);
        match completion {
            Some(c) => self.record(c.op_id, c.result, now),
            None => {
                // A CheckAndInsert whose read phase timed out degraded
                // into a still-pending write phase ("assume unique"):
                // give the write its own fresh retry budget.
                if self.state(coordinator).is_some_and(|n| n.is_pending(op_id)) {
                    self.arm_rto(op_id, 0);
                }
            }
        }
        if !coordinator_crashed {
            self.dispatch(now, coordinator, outbound);
        }
    }

    /// Schedules the retransmission timer for `op_id`'s attempt
    /// `attempt`, with exponential backoff and seeded jitter. With
    /// adaptive RTO enabled the base tracks the measured per-peer RTT
    /// instead of the fixed policy delay; the jitter draw is taken either
    /// way, so adaptive and fixed runs consume identical randomness.
    fn arm_rto(&mut self, op_id: OpId, attempt: u32) {
        let Some(policy) = self.retry_policy else {
            return;
        };
        let (base, adapted) = self.rto_base(op_id, attempt, &policy);
        if adapted {
            self.gray_acc.rto_adaptations += 1;
        }
        let jitter = match (&mut self.rto_rng, policy.jitter_frac) {
            (Some(rng), frac) if frac > 0.0 => base * (frac * rng.unit()),
            _ => SimDuration::ZERO,
        };
        self.sim
            .schedule_after(base + jitter, Event::Rto { op_id, attempt });
    }

    /// The base retransmission delay for `op_id`'s attempt `attempt`:
    /// the per-peer adaptive RTO when the estimators hold samples for
    /// the op's outstanding peers (worst peer wins — the timer must
    /// outlast the slowest leg of the quorum), otherwise the fixed
    /// policy delay. Returns the base and whether it was adapted.
    fn rto_base(&self, op_id: OpId, attempt: u32, policy: &RetryPolicy) -> (SimDuration, bool) {
        if let Some(adaptive) = &self.adaptive {
            let coordinator = op_id.coordinator;
            let worst = self
                .state(coordinator)
                .map(|n| n.outstanding_peers(op_id))
                .unwrap_or_default()
                .into_iter()
                .filter_map(|peer| adaptive.rto_of(coordinator, peer))
                .max();
            if let Some(rto) = worst {
                // Back off like the fixed policy so a persistently
                // silent quorum still escalates, then re-clamp.
                let scaled = rto * policy.backoff.powi(attempt.min(16) as i32);
                let clamped = scaled.max(adaptive.floor()).min(adaptive.ceiling());
                return (clamped, true);
            }
        }
        (policy.delay(attempt), false)
    }

    /// Hedge delay for `op_id`: half the retransmission base normally,
    /// but when the coordinator already marks an outstanding peer slow
    /// the probe fires after only the adaptive floor. The base scales
    /// with the *slow* peer's inflated RTO — waiting half of that out
    /// would concede exactly the tail the hedge exists to cut, so a
    /// known-gray quorum is probed at the earliest plausible moment.
    fn hedge_delay(&self, op_id: OpId, base: SimDuration) -> SimDuration {
        let coordinator = op_id.coordinator;
        let gray_outstanding = self
            .state(coordinator)
            .map(|n| n.outstanding_peers(op_id))
            .unwrap_or_default()
            .into_iter()
            .any(|peer| self.slow.contains(&(coordinator, peer)));
        match (&self.adaptive, gray_outstanding) {
            (Some(adaptive), true) => adaptive.floor().min(base * 0.5),
            _ => base * 0.5,
        }
    }

    /// Handles a hedge timer firing for `op_id`: if the op is still
    /// pending its read phase and the cluster-wide hedge budget has
    /// room, fire one speculative backup probe, steering around peers
    /// the coordinator currently marks slow.
    fn on_hedge(&mut self, now: SimTime, op_id: OpId) {
        let Some(budget) = self.hedging else {
            return;
        };
        if self.gray_acc.hedges_fired >= budget {
            return;
        }
        let coordinator = op_id.coordinator;
        if !self.is_up(coordinator) {
            return;
        }
        let mut avoid: BTreeSet<NodeId> = self
            .slow
            .iter()
            .filter(|(obs, _)| *obs == coordinator)
            .map(|&(_, peer)| peer)
            .collect();
        // Trust-aware steering: a hedge is a leap of faith toward a
        // backup replica — never waste it on a quarantined liar, nor on
        // a peer already striking in the trust ledger (its next lie
        // would only cost a PoP round-trip to refute).
        avoid.extend(self.quarantined.iter().copied());
        avoid.extend(self.trust.striking_peers());
        let Some(ob) = self
            .state_mut(coordinator)
            .and_then(|n| n.hedge(op_id, &avoid))
        else {
            return;
        };
        self.gray_acc.hedges_fired += 1;
        self.dispatch(now, coordinator, vec![ob]);
    }

    /// Re-evaluates the slow-peer verdict for `(observer, peer)` after a
    /// fresh RTT sample: an estimator whose smoothed RTT sits above the
    /// configured threshold marks the peer gray — steering hedges away
    /// and overlaying [`crate::Liveness::Slow`] — and a recovered
    /// estimator clears the mark.
    fn note_slowness(&mut self, observer: NodeId, peer: NodeId) {
        let Some(threshold) = self.slow_watch else {
            return;
        };
        let srtt = self
            .adaptive
            .as_ref()
            .and_then(|a| a.srtt_of(observer, peer));
        if srtt.is_some_and(|s| s > threshold) {
            if self.slow.insert((observer, peer)) {
                self.gray_acc.slow_marks += 1;
                if let Some(fd) = self.detectors.get_mut(&observer) {
                    fd.mark_slow(peer);
                }
            }
        } else if self.slow.remove(&(observer, peer)) {
            if let Some(fd) = self.detectors.get_mut(&observer) {
                fd.clear_slow(peer);
            }
        }
    }

    /// True when uplink backpressure says background work should yield:
    /// some live member's uplink is booked solid for longer than the
    /// configured threshold, so an anti-entropy or scrub round would
    /// pile bulk transfers behind latency-critical dedup traffic.
    /// Background rounds are the first shed class; client ops shed only
    /// at the admission-control bound.
    fn backpressure_yield(&self, now: SimTime) -> bool {
        let Some(threshold) = self.backpressure else {
            return false;
        };
        self.up_ids()
            .any(|n| self.network.uplink_free_at(n).saturating_since(now) > threshold)
    }

    /// Nominal healthy fsync cost (nanoseconds) used to convert a
    /// fail-slow stall factor into an absolute ack delay: a factor-`f`
    /// stall stretches a flush from one nominal fsync to `f` of them,
    /// and the replica's ack waits out the difference.
    const NOMINAL_FSYNC_NANOS: u64 = 500_000;

    /// The strongest storage-stall factor covering `node` at `now`
    /// (1.0 = healthy).
    fn stall_factor(&self, node: NodeId, now: SimTime) -> f64 {
        let mut factor = 1.0f64;
        for &(from, until, n, f) in &self.stalls {
            if n == node && now >= from && now < until {
                factor = factor.max(f);
            }
        }
        factor
    }

    /// Runs one background-scrub round: every live node verifies the
    /// checksums of the next `byte_budget` bytes of its key space.
    /// Corrupt entries are dropped from the volatile engine (the WAL
    /// still holds the clean bytes) and read-repaired from a live ring
    /// replica.
    fn scrub_round(&mut self, now: SimTime, byte_budget: u64) {
        let scanned: Vec<NodeId> = self.up_ids().collect();
        for node in scanned {
            let cursor = self.scrub_cursors.get(&node).cloned().flatten();
            // Fail-slow storage stretches every read the scrubber makes:
            // a stalled node covers proportionally fewer bytes per round.
            let stall = self.stall_factor(node, now);
            let budget = if stall > 1.0 {
                ((byte_budget as f64 / stall).max(1.0)) as u64
            } else {
                byte_budget
            };
            let Some(state) = self.state(node) else {
                continue;
            };
            let chunk = state.storage().scrub(cursor.as_ref(), budget);
            self.scrub_cursors.insert(node, chunk.next_cursor.clone());
            self.integrity_acc.entries_scrubbed += chunk.entries;
            self.integrity_acc.scrub_bytes += chunk.bytes;
            for key in chunk.corrupt {
                self.integrity_acc.mismatches_found += 1;
                if let Some(state) = self.state_mut(node) {
                    // Drop the poison; the repair below (or hint replay /
                    // anti-entropy) restores a verified copy.
                    state.storage_mut().delete(key.clone());
                }
                self.read_repair(now, node, key);
            }
        }
    }

    /// Verification-failure strikes before a node is quarantined. High
    /// enough that one storage-rot strike (a handful of flips) does not
    /// by itself condemn a node.
    const QUARANTINE_STRIKES: u32 = 6;

    /// Read-repairs `key` at `node` after a checksum mismatch: ask each
    /// other live ring replica in turn (paying request network costs)
    /// for a verified copy, and stream the first healthy answer back as
    /// a hint replay — durably applied on arrival, and itself subject to
    /// wire faults (a lost repair is backfilled by anti-entropy).
    /// Replicas whose own copy is rotted accrue strikes toward
    /// quarantine. With no healthy live replica the record is lost at
    /// this layer.
    fn read_repair(&mut self, now: SimTime, node: NodeId, key: Bytes) {
        let replicas = self.ring.replicas(&key, self.config.replication_factor);
        for replica in replicas {
            if replica == node || !self.is_up(replica) || self.quarantined.contains(&replica) {
                continue;
            }
            // Charge the repair request to the scrubbing node's uplink; a
            // lost request just moves on to the next replica.
            let sent = self.network.send(now, node, replica, 48 + key.len() as u64);
            if !matches!(sent, Ok(Some(_))) {
                continue;
            }
            let Some(state) = self.state_mut(replica) else {
                continue;
            };
            match state.storage_mut().get_verified(&key) {
                Ok(Some(value)) => {
                    let out = vec![Outbound {
                        to: node,
                        msg: Message::HintReplay {
                            key: key.clone(),
                            value: Some(value),
                        },
                    }];
                    self.dispatch(now, replica, out);
                    self.integrity_acc.read_repairs += 1;
                    return;
                }
                Ok(None) => {} // the replica never held it
                Err(_) => {
                    // The replica's copy is rotted too: drop it, count
                    // it, and strike toward quarantine.
                    state.integrity_mut().mismatches_found += 1;
                    state.storage_mut().delete(key.clone());
                    self.note_verify_failure(replica);
                }
            }
        }
        // No live replica produced a healthy copy: lost at this layer
        // (the system layer may erasure-decode it from the cloud).
        self.integrity_acc.lost_records += 1;
    }

    /// Records a verification failure at `node`; past the strike
    /// threshold the node is quarantined.
    fn note_verify_failure(&mut self, node: NodeId) {
        let strikes = self.verify_failures.entry(node).or_insert(0);
        *strikes += 1;
        if *strikes >= Self::QUARANTINE_STRIKES && self.quarantined.insert(node) {
            self.integrity_acc.quarantines += 1;
        }
    }

    /// Applies a seeded storage-rot strike at `node`: a handful of bit
    /// flips, each choosing between the volatile engine's value blocks
    /// and the durable WAL bytes. A crash-stopped node's parked disk
    /// takes every flip on the WAL.
    fn apply_storage_rot(&mut self, node: NodeId, rot_seed: u64) {
        let mut rng = DetRng::new(rot_seed).substream("storage-rot");
        const FLIPS: usize = 3;
        for _ in 0..FLIPS {
            // Three draws per flip regardless of target, so the trace
            // shape is fixed.
            let target_wal = rng.unit() < 0.5;
            let byte = (rng.unit() * 65_536.0) as usize;
            let bit = (rng.unit() * 8.0) as usize;
            match self.members.get_mut(&node) {
                Some(Member::Up(state) | Member::Silent(state)) => {
                    if target_wal {
                        state.wal_mut().flip_bit(byte, bit);
                    } else {
                        state.storage_mut().corrupt_nth_value(byte, bit);
                    }
                }
                Some(Member::Stopped(wal)) => {
                    wal.flip_bit(byte, bit);
                }
                Some(Member::Wiped { .. } | Member::Departed) | None => {}
            }
        }
    }

    /// Moves a member holding volatile state to `Silent` (a transient
    /// crash) or back to `Up`. Every other state ignores it: a
    /// crash-stopped, wiped or departed node comes back only through
    /// [`SimCluster::rejoin`], never as a zombie heartbeat broadcaster.
    fn silence(&mut self, node: NodeId, silent: bool) {
        let Some(member) = self.members.get_mut(&node) else {
            return;
        };
        *member = match std::mem::replace(member, Member::Departed) {
            Member::Up(state) | Member::Silent(state) if silent => Member::Silent(state),
            Member::Up(state) | Member::Silent(state) => Member::Up(state),
            out @ (Member::Stopped(_) | Member::Wiped { .. } | Member::Departed) => out,
        };
    }

    /// Takes `node` out of service — the one exit for crash-stops, ring
    /// wipes and departures. The volatile state dies: the fingerprint
    /// cache is cleared (a restarted node re-learns from the ring instead
    /// of trusting pre-crash answers), the node's counters fold into the
    /// run totals, its in-flight coordinated ops resolve as timed out and
    /// its detector is dropped. `loss` decides what else goes: a
    /// crash-stop parks the disk; a wipe burns disk and spool but keeps
    /// the op-sequence floor; a departure keeps nothing.
    ///
    /// Returns false (and changes nothing) when `node` is not a member
    /// in a state `loss` applies to.
    fn retire(&mut self, now: SimTime, node: NodeId, loss: Loss) -> bool {
        let prior = match self.members.remove(&node) {
            Some(m @ (Member::Up(_) | Member::Silent(_))) => m,
            Some(m @ (Member::Stopped(_) | Member::Wiped { .. })) if loss != Loss::Volatile => m,
            Some(m @ (Member::Stopped(_) | Member::Wiped { .. } | Member::Departed)) => {
                self.members.insert(node, m);
                return false;
            }
            None => return false,
        };
        if let Some(cache) = self.caches.as_mut().and_then(|c| c.get_mut(&node)) {
            cache.clear();
        }
        let mut completions = Vec::new();
        let (disk, seq_floor) = match prior {
            Member::Up(state) | Member::Silent(state) => {
                self.integrity_acc.merge(&state.integrity());
                self.byz_acc.absorb(&state.byz_stats());
                self.gray_acc.hedges_won += state.hedges_won();
                self.retired_timeouts += state.timeouts();
                self.retired_retries += state.retries();
                self.retired_degraded += state.degraded_ops();
                let seq_floor = state.seq_watermark();
                let (wal, lost) = state.crash();
                completions = lost;
                (Some(wal), seq_floor)
            }
            Member::Stopped(wal) => {
                let seq_floor = wal.seq_floor();
                (Some(wal), seq_floor)
            }
            Member::Wiped { seq_floor } => (None, seq_floor),
            Member::Departed => (None, 0),
        };
        let next = match loss {
            Loss::Volatile => disk.map_or(Member::Wiped { seq_floor }, Member::Stopped),
            Loss::Site => Member::Wiped { seq_floor },
            Loss::Everything => Member::Departed,
        };
        self.members.insert(node, next);
        self.detectors.remove(&node);
        if loss != Loss::Volatile {
            self.spools.remove(&node);
            self.healed_at.remove(&node);
            self.restarted_at.remove(&node);
            self.recovered_at.remove(&node);
        }
        for c in completions {
            self.record(c.op_id, c.result, now);
        }
        true
    }

    /// Puts `node` back in service with `state` — the one return path
    /// for WAL restarts and ring heals: re-arm proof-of-possession
    /// (cluster policy, not durable node state — the proven set is
    /// volatile by design), mark the node up, start its recovery clock
    /// and build a fresh failure detector over the current membership.
    /// The heartbeat tick chain survived (ticks merely skip nodes out of
    /// service), so broadcasts resume by themselves.
    fn rejoin(&mut self, now: SimTime, node: NodeId, mut state: NodeState) {
        if let Some(seed) = self.pop_seed {
            state.arm_pop(seed);
        }
        self.members.insert(node, Member::Up(state));
        self.restarted_at.insert(node, now);
        self.recovered_at.remove(&node);
        self.arm_detector(node, now);
        // A peer may have departed while this node was out *without* any
        // survivor having declared it dead yet (its dead-timeout is still
        // running), in which case the master ring — and so the rejoined
        // view — still holds the departed slot. The fresh detector never
        // watches departed peers, so it cannot declare it: replay the
        // departure directly, or this node would keep routing writes and
        // parking hints at a ghost.
        let ghosts: Vec<NodeId> = self
            .members
            .iter()
            .filter(|&(&id, m)| matches!(m, Member::Departed) && self.ring.contains(id))
            .map(|(&id, _)| id)
            .collect();
        for dead in ghosts {
            self.process_departure(now, node, dead);
        }
    }

    /// Restarts a crash-stopped `node` from its durable WAL.
    fn restart(&mut self, now: SimTime, node: NodeId) {
        if !matches!(self.members.get(&node), Some(Member::Stopped(_))) {
            return; // up, silent, wiped or departed: nothing to restart
        }
        let Some(Member::Stopped(mut wal)) = self.members.remove(&node) else {
            return;
        };
        // Run the recovery lattice on the disk first: a rotted snapshot
        // falls back to the stashed pre-compaction log, a torn tail is
        // truncated back to the last whole record, and a corrupt record
        // *body* surfaces as an error — in which case the disk is
        // re-parked for diagnosis and the node stays dead rather than
        // rejoining with silently-wrong state.
        match wal.recover_replay() {
            Ok((_, notes)) => {
                if notes.torn_tail {
                    self.recovery.torn_tails_truncated += 1;
                    self.integrity_acc.torn_tails_truncated += 1;
                }
                if notes.snapshot_fallback {
                    self.integrity_acc.snapshot_fallbacks += 1;
                }
            }
            Err(_) => {
                self.integrity_acc.wal_corrupt_bodies += 1;
                self.members.insert(node, Member::Stopped(wal));
                return;
            }
        }
        // The master ring is the membership truth: it still holds this
        // node (crash-stops keep the slot). Data the node should have
        // received meanwhile arrives via peer hint replay and
        // anti-entropy.
        let seq_floor = wal.seq_floor();
        let Ok(recovered) = NodeState::recover(node, self.ring.clone(), &self.config, wal) else {
            // Unreachable: the lattice above already vetted the log. Were
            // it not, the disk is unusable — as good as wiped.
            self.members.insert(node, Member::Wiped { seq_floor });
            return;
        };
        self.recovery.restarts += 1;
        self.recovery.wal_records_replayed += recovered.wal_records_replayed();
        self.rejoin(now, node, recovered);
    }

    /// Permanently departs `node`: a crash-stop whose disk is destroyed,
    /// plus the driver's confirmation that it will never return.
    fn depart(&mut self, now: SimTime, node: NodeId) {
        if !self.retire(now, node, Loss::Everything) {
            return;
        }
        // An observer that declared this node dead *before* the departure
        // became permanent (it was partitioned or transiently crashed
        // first) will never see another dead edge — the detector verdict
        // is edge-triggered and already `Dead`. Replay the departure
        // handling for those observers now, or their parked hints and
        // stale ring views would outlive the node forever.
        let already_declared: Vec<NodeId> = self
            .states()
            .map(|(id, _)| id)
            .filter(|obs| {
                self.detectors
                    .get(obs)
                    .is_some_and(|fd| fd.dead_peers().contains(&node))
            })
            .collect();
        for observer in already_declared {
            self.process_departure(now, observer, node);
        }
    }

    /// A spooled upload survived the wire: catalog the payload and ack
    /// the sender. The ack rides the same faulty network back — loss or
    /// rot leaves the spool entry pending, and a later drain round
    /// retransmits it (resumable transfers).
    fn cloud_ingest(&mut self, now: SimTime, from: NodeId, key: Bytes, value: Bytes) {
        let Some(uplink) = self.uplink else {
            return; // stray frame with no uplink configured
        };
        self.cloud_store.insert(key.clone(), value);
        let ack = Outbound {
            to: from,
            msg: Message::CloudUploadAck { key },
        };
        self.dispatch(now, uplink.cloud, vec![ack]);
    }

    /// One bandwidth-capped drain round: park hints addressed to wiped
    /// rings durably, replay spooled hints whose targets are reachable
    /// again, then (outside cloud-outage windows) send each live node's
    /// next priority-ordered batch of cloud uploads.
    fn spool_drain_round(&mut self, now: SimTime, uplink: CloudUplink) {
        // Hint sweep: volatile hints addressed to a ring inside an open
        // outage window move into the holder's durable spool — a later
        // crash of the hint holder can no longer lose them, and they
        // replay from the spool once the site heals.
        let wiped: BTreeSet<NodeId> = self
            .ring_outages
            .iter()
            .filter(|&&(from, until, _)| now >= from && now < until)
            .flat_map(|&(_, _, site)| self.network.topology().nodes_in(site).iter().copied())
            .collect();
        let holders: Vec<NodeId> = self.spools.keys().copied().collect();
        for node in holders {
            // A crashed, wiped or departed holder cannot transmit; its
            // durable spool waits for the restart or heal.
            if !self.is_up(node) {
                continue;
            }
            for &target in &wiped {
                let taken = self
                    .state_mut(node)
                    .map(|state| state.take_hints_for(target))
                    .unwrap_or_default();
                if taken.is_empty() {
                    continue;
                }
                let Some(spool) = self.spools.get_mut(&node) else {
                    continue;
                };
                for (key, value) in taken {
                    if spool.enqueue(SpoolClass::Background, SpoolDest::Node(target), key, value) {
                        self.disaster_acc.hints_spooled += 1;
                    }
                }
            }
            // Replay spooled hints whose target is reachable again.
            let dests = self
                .spools
                .get(&node)
                .map(UploadSpool::node_dests)
                .unwrap_or_default();
            for target in dests {
                if !self.is_up(target) {
                    continue;
                }
                let taken = self
                    .spools
                    .get_mut(&node)
                    .map(|s| s.take_for_node(target))
                    .unwrap_or_default();
                let outbound: Vec<Outbound> = taken
                    .into_iter()
                    .map(|e| Outbound {
                        to: target,
                        msg: Message::HintReplay {
                            key: e.key,
                            value: e.value,
                        },
                    })
                    .collect();
                self.dispatch(now, node, outbound);
            }
            // Cloud uploads pause during an outage window; the spool
            // keeps absorbing uniques durably meanwhile.
            if self.cloud_out(now) {
                continue;
            }
            let batch = self
                .spools
                .get_mut(&node)
                .map(|s| s.plan_cloud_batch(uplink.byte_cap))
                .unwrap_or_default();
            let outbound: Vec<Outbound> = batch
                .into_iter()
                .map(|(key, value)| Outbound {
                    to: uplink.cloud,
                    msg: Message::CloudUpload { key, value },
                })
                .collect();
            self.dispatch(now, node, outbound);
        }
    }

    /// Opens a ring-outage window: every member in `site` loses its
    /// volatile state, its disk (parked or live) *and* its durable
    /// spool — the total-site-loss disaster mesh repair exists for.
    fn ring_wipe(&mut self, now: SimTime, site: SiteId) {
        self.disaster_acc.ring_wipes += 1;
        let victims: Vec<NodeId> = self.network.topology().nodes_in(site).to_vec();
        for node in victims {
            self.retire(now, node, Loss::Site);
        }
    }

    /// Closes a ring-outage window: the wiped members rejoin with fresh
    /// empty state (no WAL survived, so recovery is pure repair traffic)
    /// and the driver orchestrates mesh repair from neighbor rings.
    fn ring_heal(&mut self, now: SimTime, site: SiteId) {
        let mut healed = Vec::new();
        for node in self.network.topology().nodes_in(site).to_vec() {
            let Some(&Member::Wiped { seq_floor }) = self.members.get(&node) else {
                continue;
            };
            let mut state = NodeState::new(node, self.ring.clone(), &self.config);
            state.resume_seq_from(seq_floor);
            self.healed_at.insert(node, now);
            if self.uplink.is_some() {
                self.spools
                    .insert(node, UploadSpool::new(SPOOL_SNAPSHOT_EVERY));
            }
            self.rejoin(now, node, state);
            healed.push(node);
        }
        self.mesh_repair(now, &healed);
    }

    /// Rebuilds healed nodes' shards. Every key the ring routes to a
    /// healed node is fetched rarest-first (fewest surviving holders
    /// first — those chunks are one more failure from gone) from the
    /// cheapest live holder by wire cost: a `RepairRequest` out, the
    /// holder's verified `HintReplay` back, both over the faulty billed
    /// network. Keys no neighbor ring holds fall back to the cloud
    /// catalog — a WAN round-trip, priced separately in
    /// [`DisasterStats`] so the mesh-vs-cloud economics stay visible.
    fn mesh_repair(&mut self, now: SimTime, healed: &[NodeId]) {
        if healed.is_empty() {
            return;
        }
        let healed_set: BTreeSet<NodeId> = healed.iter().copied().collect();
        // Survey the survivors: who holds which key, and how large the
        // live copy is (`iter_live` skips tombstones deterministically).
        let mut holders: BTreeMap<Bytes, Vec<NodeId>> = BTreeMap::new();
        let mut sizes: BTreeMap<Bytes, u64> = BTreeMap::new();
        for (&id, member) in &self.members {
            let Member::Up(state) = member else {
                continue;
            };
            if healed_set.contains(&id) {
                continue;
            }
            for (key, value) in state.storage().iter_live() {
                sizes.entry(key.clone()).or_insert(value.len() as u64);
                holders.entry(key).or_default().push(id);
            }
        }
        // Work list: (surviving-holder count, key, healed target).
        let mut work: Vec<(usize, Bytes, NodeId)> = Vec::new();
        let keys: BTreeSet<Bytes> = holders
            .keys()
            .chain(self.cloud_store.keys())
            .cloned()
            .collect();
        for key in keys {
            for target in self.ring.replicas(&key, self.config.replication_factor) {
                if healed_set.contains(&target) {
                    let rarity = holders.get(&key).map_or(0, Vec::len);
                    work.push((rarity, key.clone(), target));
                }
            }
        }
        // Rarest first; ties break by key then target for determinism.
        work.sort();
        for (_, key, target) in work {
            let candidates = holders.get(&key).map(Vec::as_slice).unwrap_or(&[]);
            match self.network.cheapest_source(candidates, target) {
                Some(source) => {
                    self.disaster_acc.repair_bytes_mesh += sizes.get(&key).copied().unwrap_or(0);
                    let untried = candidates.iter().copied().filter(|&c| c != source);
                    let untried = untried.collect();
                    self.fetch_repair(now, key, target, source, untried);
                }
                None => {
                    // No neighbor ring holds it: erasure-decode from the
                    // cloud catalog. A chunk even the cloud lacks predates
                    // the uplink; anti-entropy is its only path back.
                    self.cloud_repair(now, key, target);
                }
            }
        }
    }

    /// Asks `source` for `key` on behalf of healing `target`: a
    /// `RepairRequest` out (its verified `HintReplay` comes back), billed
    /// as a mesh repair. With PoP armed the `untried` holders are
    /// remembered, so a poisoned replay re-fetches from the next one.
    fn fetch_repair(
        &mut self,
        now: SimTime,
        key: Bytes,
        target: NodeId,
        source: NodeId,
        untried: Vec<NodeId>,
    ) {
        self.disaster_acc.mesh_repairs += 1;
        self.disaster_acc.repair_cost_mesh_ms +=
            self.network.repair_cost_ms(source, target).round() as u64;
        if self.pop_seed.is_some() {
            self.pending_repairs.insert((key.clone(), target), untried);
        }
        let msg = Message::RepairRequest { key };
        self.dispatch(now, target, vec![Outbound { to: source, msg }]);
    }

    /// Serves `key` to `target` from the cloud catalog — the WAN
    /// round-trip priced separately in [`DisasterStats`]. Returns false
    /// when the catalog lacks the chunk or no uplink is configured.
    fn cloud_repair(&mut self, now: SimTime, key: Bytes, target: NodeId) -> bool {
        let (Some(value), Some(uplink)) = (self.cloud_store.get(&key).cloned(), self.uplink) else {
            return false;
        };
        self.disaster_acc.cloud_repairs += 1;
        self.disaster_acc.repair_bytes_cloud += value.len() as u64;
        self.disaster_acc.repair_cost_cloud_ms +=
            self.network.repair_cost_ms(uplink.cloud, target).round() as u64;
        let msg = Message::HintReplay {
            key,
            value: Some(value),
        };
        self.dispatch(now, uplink.cloud, vec![Outbound { to: target, msg }]);
        true
    }

    /// A local detector at `observer` declared `dead` dead. The
    /// suspect-level consequences (mark down, resolve pending ops)
    /// already fired on the suspect edge. Ring surgery is gated on
    /// driver-confirmed permanence: only a `Departed` member triggers
    /// hint dropping, re-replication and a ring rebuild. A crash-stopped
    /// node that will restart keeps its ring slot and revives through
    /// genuinely-later heartbeats.
    fn on_dead_declared(&mut self, now: SimTime, observer: NodeId, dead: NodeId) {
        self.recovery.dead_declared += 1;
        let Some(state) = self.state_mut(observer) else {
            return;
        };
        let completions = state.on_peer_failure(dead);
        self.settle(now, observer, completions);
        if self.is_departed(dead) {
            self.process_departure(now, observer, dead);
        }
    }

    /// Applies a confirmed permanent departure at one observer: drop the
    /// hints parked for the departed node, re-replicate the tokens it
    /// co-owned, stop watching it, and (first observer only) evict it
    /// from the master ring.
    fn process_departure(&mut self, now: SimTime, observer: NodeId, dead: NodeId) {
        let Some(state) = self.state_mut(observer) else {
            return;
        };
        let dropped = state.drop_hints_for(dead) as u64;
        let (outbound, rereplicated) = state.handle_departure(dead);
        self.recovery.hints_dropped += dropped;
        self.recovery.rereplicated_entries += rereplicated as u64;
        if let Some(fd) = self.detectors.get_mut(&observer) {
            fd.unwatch(dead);
        }
        // The first observer to act evicts the node from the master ring.
        if self.ring.contains(dead) && self.ring.len() > 1 {
            self.ring.remove_node(dead);
        }
        self.dispatch(now, observer, outbound);
    }

    /// Records the completions `node` just produced. PoP verdicts are
    /// harvested first: cache-source attribution needs each op's key,
    /// which `record` retires.
    fn settle(&mut self, now: SimTime, node: NodeId, completions: Vec<Completion>) {
        if self.pop_seed.is_some() {
            self.harvest_node_trust(node);
        }
        for c in completions {
            self.record(c.op_id, c.result, now);
        }
    }

    /// Drains `node`'s PoP verdicts into driver state: duplicate-verdict
    /// source attribution (so a later quarantine can invalidate exactly
    /// the cache entries the prover's claims admitted) and strikes for
    /// provably-wrong possession proofs.
    fn harvest_node_trust(&mut self, node: NodeId) {
        let Some(state) = self.state_mut(node) else {
            return;
        };
        let (strikes, sources) = (state.take_pop_strikes(), state.take_dedup_sources());
        for (op_id, prover) in sources {
            if let Some(key) = self.cache_keys.get(&op_id) {
                self.cache_sources
                    .entry(prover)
                    .or_default()
                    .push((node, key.clone()));
            }
        }
        for peer in strikes {
            self.strike_peer(peer);
        }
    }

    /// Charges one provable lie to `peer`; at the ledger threshold the
    /// liar is quarantined.
    pub(crate) fn strike_peer(&mut self, peer: NodeId) {
        self.byz_acc.liar_strikes += 1;
        if self.trust.strike(peer) {
            self.quarantine_liar(peer);
        }
    }

    /// Quarantines a peer the trust ledger condemned: silence its
    /// heartbeats (the existing suspect → dead lattice evicts it),
    /// revoke every proven-possession grant it earned, and invalidate
    /// every fingerprint-cache entry its claims admitted — the poisoned
    /// claims must not outlive the liar.
    fn quarantine_liar(&mut self, peer: NodeId) {
        if self.quarantined.insert(peer) {
            self.byz_acc.liars_quarantined += 1;
            self.integrity_acc.quarantines += 1;
        }
        for (coord, key) in self.cache_sources.remove(&peer).unwrap_or_default() {
            if let Some(cache) = self.caches.as_mut().and_then(|c| c.get_mut(&coord)) {
                if cache.remove(&key) {
                    self.byz_acc.cache_invalidations += 1;
                }
            }
        }
        for state in self.members.values_mut().filter_map(Member::state_mut) {
            state.forget_proven(peer);
        }
    }

    /// Re-fetches a mesh-repair chunk whose served bytes failed
    /// content-address verification: the next surviving holder by wire
    /// cost is asked, and when none remain the cloud catalog decodes it
    /// — the WAN round-trip priced separately in [`DisasterStats`].
    fn refetch_repair(&mut self, now: SimTime, key: Bytes, target: NodeId) {
        let Some(mut remaining) = self.pending_repairs.remove(&(key.clone(), target)) else {
            return;
        };
        while let Some(source) = self.network.cheapest_source(&remaining, target) {
            remaining.retain(|&n| n != source);
            if self.is_up(source) {
                self.byz_acc.refetches += 1;
                self.fetch_repair(now, key, target, source, remaining);
                return;
            }
        }
        if self.cloud_repair(now, key, target) {
            self.byz_acc.refetches += 1;
        }
    }

    /// Rewrites what a Byzantine sender *would have sent* into the lie
    /// its active fault windows dictate. The network itself stays
    /// truthful — rules are zero-draw oracles — so honest runs and
    /// liar runs share a bit-identical fault-verdict trace.
    fn byzantine_rewrite(&self, now: SimTime, sender: NodeId, msg: Message) -> Message {
        let Some(plan) = self.network.fault_plan() else {
            return msg;
        };
        match msg {
            // Fabricated positive dedup sighting: "I already hold this
            // fingerprint" for a chunk the liar never stored, trying to
            // suppress the client's upload and silently lose the chunk.
            Message::ReadResp {
                op_id,
                from,
                value: None,
            } if plan.lies_on_lookup_at(sender, now) => {
                let tag = op_id.seq ^ ((op_id.coordinator.0 as u64) << 32) ^ sender.0 as u64;
                Message::ReadResp {
                    op_id,
                    from,
                    value: Some(Self::fabricated_bytes(tag, 32)),
                }
            }
            // The liar cannot compute the true possession digest for a
            // chunk it lacks, so it upgrades its honest "not held" into
            // a held claim with a fabricated digest — the provable lie
            // the coordinator's verification catches and strikes.
            Message::PopResponse {
                op_id,
                from,
                held: false,
                ..
            } if plan.lies_on_lookup_at(sender, now) => {
                let tag = op_id.seq ^ sender.0 as u64;
                let mut digest = [0u8; 32];
                let mut s = tag;
                for chunk in digest.chunks_mut(8) {
                    s = splitmix(s);
                    chunk.copy_from_slice(&s.to_le_bytes());
                }
                Message::PopResponse {
                    op_id,
                    from,
                    held: true,
                    digest,
                }
            }
            // Poisoned repair bytes: the right key, fabricated content —
            // same length, so wire-cost accounting cannot tell them
            // apart; only content-address verification can.
            Message::HintReplay {
                key,
                value: Some(v),
            } if plan.serves_garbage_at(sender, now) => {
                let tag = crate::key_token(&key) ^ sender.0 as u64;
                let garbage = Self::fabricated_bytes(tag, v.len());
                Message::HintReplay {
                    key,
                    value: Some(garbage),
                }
            }
            other => other,
        }
    }

    /// Deterministic fabricated bytes for Byzantine rewrites: a splitmix
    /// stream over `seed`, truncated to `len` (min 8).
    fn fabricated_bytes(seed: u64, len: usize) -> Bytes {
        let len = len.max(8);
        let mut out = Vec::with_capacity(len + 8);
        let mut s = seed;
        while out.len() < len {
            s = splitmix(s);
            out.extend_from_slice(&s.to_le_bytes());
        }
        out.truncate(len);
        Bytes::from(out)
    }

    pub(crate) fn dispatch(&mut self, now: SimTime, from: NodeId, outbound: Vec<Outbound>) {
        for ob in outbound {
            // A compromised sender's frames leave the node already
            // rewritten into its lies; everyone else's pass through
            // untouched (the common case costs one oracle probe).
            let ob = Outbound {
                to: ob.to,
                msg: self.byzantine_rewrite(now, from, ob.msg),
            };
            // Adaptive RTT sampling: stamp the *first* transmission of
            // each (op, peer) request edge. Karn's rule — retransmits
            // keep the original stamp, so a retried request's eventual
            // ack measures from its first send and only over-estimates.
            if self.adaptive.is_some() {
                let op_id = match &ob.msg {
                    Message::ReplicaWrite { op_id, .. } | Message::ReplicaRead { op_id, .. } => {
                        Some(*op_id)
                    }
                    _ => None,
                };
                if let Some(op_id) = op_id {
                    self.sent_at.entry((op_id, ob.to)).or_insert(now);
                }
            }
            // `send` applies the network's fault plan: Ok(None) means
            // the message was lost or partitioned away (bandwidth still
            // charged to the sender's uplink). Err means the cluster and
            // network memberships diverged, impossible by construction;
            // release builds degrade it to a drop, which the retry and
            // failure-detector machinery already absorbs.
            let sent = self
                .network
                .send_framed(now, from, ob.to, ob.msg.wire_size());
            debug_assert!(sent.is_ok(), "dispatch target missing uplink");
            let Some(delivery) = sent.unwrap_or(None) else {
                continue;
            };
            let mut crc = ob.msg.frame_checksum();
            if delivery.corrupt {
                // Wire rot damaged the frame in flight: model it as the
                // carried checksum no longer matching the payload, so
                // the receiver detects and rejects it.
                crc ^= 0xDEAD_BEEF_0BAD_F00D;
            }
            self.sim.schedule_at(
                delivery.arrival,
                Event::Deliver {
                    from,
                    to: ob.to,
                    msg: ob.msg,
                    crc,
                },
            );
        }
    }

    fn record(&mut self, op_id: OpId, result: OpResult, finished: SimTime) {
        let started = self
            .starts
            .remove(&op_id)
            // simlint::allow(D003): every completion stems from a Start event that recorded its op id
            .expect("completion for unknown op");
        self.inflight = self.inflight.saturating_sub(1);
        // Cache population: only a non-degraded dedup verdict proves the
        // fingerprint is durably present in the ring index (unique ⇒ we
        // just wrote it with the required acks; duplicate ⇒ it was already
        // there). Degraded assume-unique verdicts and unavailability teach
        // the cache nothing — that is the one-sided soundness invariant.
        if let Some(key) = self.cache_keys.remove(&op_id) {
            if let OpResult::Dedup {
                degraded: false, ..
            } = result
            {
                if let Some(cache) = self
                    .caches
                    .as_mut()
                    .and_then(|caches| caches.get_mut(&op_id.coordinator))
                {
                    cache.insert(key);
                }
            }
        }
        // Upload-spool population: a unique verdict means this chunk's
        // payload must eventually reach the cloud catalog. It is appended
        // to the coordinator's durable spool *now* — the client ack (this
        // very completion) never waits on the uplink — and drained under
        // the bandwidth cap by `SpoolDrainTick` rounds. Degraded
        // assume-unique verdicts spool too: at worst a redundant upload,
        // never a chunk the cloud is missing.
        if let Some((key, value)) = self.upload_payloads.remove(&op_id) {
            if matches!(result, OpResult::Dedup { unique: true, .. }) {
                if let Some(spool) = self.spools.get_mut(&op_id.coordinator) {
                    spool.enqueue(SpoolClass::Critical, SpoolDest::Cloud, key, Some(value));
                }
            }
        }
        self.completed.push(OpLatency {
            op_id,
            result,
            started,
            finished,
        });
    }

    /// The simulated network (counters, occupancy).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Total per-op timeouts recorded across all coordinators, retired
    /// ones included.
    pub fn timeouts(&self) -> u64 {
        self.retired_timeouts + self.states().map(|(_, n)| n.timeouts()).sum::<u64>()
    }

    /// Total retry rounds issued across all coordinators, retired ones
    /// included.
    pub fn retries(&self) -> u64 {
        self.retired_retries + self.states().map(|(_, n)| n.retries()).sum::<u64>()
    }

    /// Total check-and-inserts resolved in degraded ("assume unique")
    /// mode across all coordinators, retired ones included.
    pub fn degraded_ops(&self) -> u64 {
        self.retired_degraded + self.states().map(|(_, n)| n.degraded_ops()).sum::<u64>()
    }

    /// Disaster-tolerance counters: spool depth and drain totals,
    /// mesh-vs-cloud repair counts and bytes, outage windows and
    /// time-to-recovery. All zeros unless a cloud uplink was enabled or
    /// a disaster was injected.
    pub fn disaster_stats(&self) -> DisasterStats {
        let mut total = self.disaster_acc;
        for spool in self.spools.values() {
            spool.fold_into(&mut total);
        }
        total
    }

    /// The cloud catalog contents drained so far (key → payload) —
    /// the system layer mirrors this into its erasure-coded store.
    pub fn cloud_catalog(&self) -> &BTreeMap<Bytes, Bytes> {
        &self.cloud_store
    }

    /// The durable upload spool of `node`, if the uplink is enabled and
    /// the node still owns one (a ring wipe destroys it).
    pub fn spool(&self, node: NodeId) -> Option<&UploadSpool> {
        self.spools.get(&node)
    }

    /// Gray-failure mitigation counters: hedges fired/won, load sheds by
    /// class, queue high-water mark, RTT samples and timer adaptations.
    /// All zeros unless a mitigation was enabled.
    pub fn gray_stats(&self) -> GrayFailureStats {
        let mut total = self.gray_acc;
        total.hedges_won += self.states().map(|(_, n)| n.hedges_won()).sum::<u64>();
        total
    }

    /// The clamped adaptive RTO `observer` currently holds for `peer`
    /// (None without samples or when adaptive RTO is disabled).
    pub fn adaptive_rto_of(&self, observer: NodeId, peer: NodeId) -> Option<SimDuration> {
        self.adaptive
            .as_ref()
            .and_then(|a| a.rto_of(observer, peer))
    }

    /// Peers `observer` currently marks slow (gray), per the RTT
    /// threshold of [`SimCluster::enable_slow_detection`].
    pub fn slow_of(&self, observer: NodeId) -> Vec<NodeId> {
        self.slow
            .iter()
            .filter(|(obs, _)| *obs == observer)
            .map(|&(_, peer)| peer)
            .collect()
    }

    /// A member node's state (counters, storage), for inspection.
    pub fn node(&self, id: NodeId) -> Option<&NodeState> {
        self.state(id)
    }

    /// Mutable access to a member node's state — fault injection for
    /// integrity tests (e.g. planting bit rot in its storage engine).
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut NodeState> {
        self.state_mut(id)
    }

    /// The volatile state of member `id` while it is up or silent.
    fn state(&self, id: NodeId) -> Option<&NodeState> {
        self.members.get(&id).and_then(Member::state)
    }

    fn state_mut(&mut self, id: NodeId) -> Option<&mut NodeState> {
        self.members.get_mut(&id).and_then(Member::state_mut)
    }

    /// Members holding volatile state (up or silent), in id order.
    fn states(&self) -> impl Iterator<Item = (NodeId, &NodeState)> {
        self.members
            .iter()
            .filter_map(|(&id, m)| Some((id, m.state()?)))
    }

    /// True when `id` is a member in service.
    fn is_up(&self, id: NodeId) -> bool {
        matches!(self.members.get(&id), Some(Member::Up(_)))
    }

    /// Members in service, in id order.
    pub(crate) fn up_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members
            .iter()
            .filter(|(_, m)| matches!(m, Member::Up(_)))
            .map(|(&id, _)| id)
    }

    /// Recovery-pipeline counters accumulated so far.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Integrity counters accumulated so far: the driver's accumulator
    /// (frame rejections, scrub and repair work, recovery-lattice
    /// outcomes, plus counters folded in from crash-stopped and departed
    /// nodes) merged with every live node's own counters.
    pub fn integrity(&self) -> IntegrityStats {
        let mut total = self.integrity_acc;
        for (_, node) in self.states() {
            total.merge(&node.integrity());
        }
        total
    }

    /// Reclassifies `n` lost records as recovered by the cloud's erasure
    /// decoding — the system layer's fallback when no edge replica held
    /// a healthy copy. Clamped to the records actually lost.
    pub fn note_cloud_decode(&mut self, n: u64) {
        let n = n.min(self.integrity_acc.lost_records);
        self.integrity_acc.lost_records -= n;
        self.integrity_acc.cloud_decodes += n;
    }

    /// Nodes quarantined for repeated verification failures.
    pub fn quarantined(&self) -> Vec<NodeId> {
        self.quarantined.iter().copied().collect()
    }

    /// The master ring: current membership truth after any departures.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// True when the driver confirmed `node`'s permanent departure.
    pub fn is_departed(&self, node: NodeId) -> bool {
        matches!(self.members.get(&node), Some(Member::Departed))
    }

    /// Total hints currently parked across all live members.
    pub fn total_hints(&self) -> usize {
        self.states().map(|(_, n)| n.hint_count()).sum()
    }

    /// WAL snapshot compactions taken across live members and parked
    /// disks.
    pub fn wal_snapshots(&self) -> u64 {
        let wals = self.members.values().filter_map(|m| match m {
            Member::Up(state) | Member::Silent(state) => Some(state.wal()),
            Member::Stopped(wal) => Some(wal),
            Member::Wiped { .. } | Member::Departed => None,
        });
        wals.map(WriteAheadLog::snapshots_taken).sum()
    }

    /// Per-node recovery latency: time from each WAL restart until the
    /// first anti-entropy round that found all the node's replica pairs
    /// clean. Nodes that restarted but have not yet converged are
    /// omitted.
    pub fn recovery_latencies(&self) -> Vec<(NodeId, SimDuration)> {
        self.restarted_at
            .iter()
            .filter_map(|(&n, &t0)| {
                self.recovered_at
                    .get(&n)
                    .map(|&t1| (n, t1.saturating_since(t0)))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Consistency;
    use bytes::Bytes;
    use ef_netsim::{NetworkConfig, TopologyBuilder};

    fn edge_network(sites: usize, per_site: usize) -> Network {
        let mut b = TopologyBuilder::new();
        for _ in 0..sites {
            b = b.edge_site(per_site);
        }
        Network::new(b.build(), NetworkConfig::paper_testbed())
    }

    #[test]
    fn remote_write_pays_network_latency() {
        let net = edge_network(1, 3);
        let members = net.topology().edge_nodes();
        let mut cluster = SimCluster::new(
            members.clone(),
            net,
            ClusterConfig {
                replication_factor: 2,
                consistency: Consistency::All,
                ..ClusterConfig::default()
            },
        );
        cluster.submit(
            SimTime::ZERO,
            members[0],
            ClientOp::Put(Bytes::from_static(b"key"), Bytes::from_static(b"v")),
        );
        let done = cluster.run();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].result, OpResult::Written);
        // ALL with at least one remote replica costs >= one intra-site RTT
        // (0.85ms each way).
        let lat = done[0].latency().as_millis_f64();
        assert!(lat >= 1.7, "latency {lat}ms too small for a remote ack");
    }

    #[test]
    fn local_read_fast_remote_read_slow() {
        let net = edge_network(2, 2); // two edge clouds, inter-edge 5ms
        let members = net.topology().edge_nodes();
        let mut cluster = SimCluster::new(
            members.clone(),
            net,
            ClusterConfig {
                replication_factor: 1,
                consistency: Consistency::One,
                ..ClusterConfig::default()
            },
        );
        // Write 100 keys from node 0, then read them all from node 0:
        // keys whose single replica is node 0 answer locally (fast), keys
        // on other nodes need a network round trip.
        let mut t = SimTime::ZERO;
        for i in 0..100u32 {
            cluster.submit(
                t,
                members[0],
                ClientOp::Put(
                    Bytes::from(i.to_be_bytes().to_vec()),
                    Bytes::from_static(b"v"),
                ),
            );
            t += ef_simcore::SimDuration::from_millis(100);
        }
        cluster.run();
        let mut read_start = t;
        for i in 0..100u32 {
            cluster.submit(
                read_start,
                members[0],
                ClientOp::Get(Bytes::from(i.to_be_bytes().to_vec())),
            );
            read_start += ef_simcore::SimDuration::from_millis(100);
        }
        let reads = cluster.run();
        assert_eq!(reads.len(), 100);
        let mut fast = 0;
        let mut slow = 0;
        for r in &reads {
            assert!(
                matches!(r.result, OpResult::Value(Some(_))),
                "read lost a key"
            );
            let ms = r.latency().as_millis_f64();
            if ms < 0.5 {
                fast += 1;
            } else {
                slow += 1;
            }
        }
        assert!(fast > 0, "no local reads at all");
        assert!(slow > 0, "no remote reads at all");
    }

    #[test]
    fn cross_site_lookup_slower_than_intra_site() {
        // Mirrors the paper's core trade-off: a ring spanning edge clouds
        // pays inter-cloud latency for its hash lookups.
        let run = |sites: usize, per_site: usize| {
            let net = edge_network(sites, per_site);
            let members = net.topology().edge_nodes();
            let mut cluster = SimCluster::new(
                members.clone(),
                net,
                ClusterConfig {
                    replication_factor: 2,
                    consistency: Consistency::All,
                    ..ClusterConfig::default()
                },
            );
            let mut t = SimTime::ZERO;
            for i in 0..200u32 {
                cluster.submit(
                    t,
                    members[(i % members.len() as u32) as usize],
                    ClientOp::Put(
                        Bytes::from(i.to_be_bytes().to_vec()),
                        Bytes::from_static(b"v"),
                    ),
                );
                t += ef_simcore::SimDuration::from_millis(50);
            }
            let done = cluster.run();
            let total: f64 = done.iter().map(|l| l.latency().as_millis_f64()).sum();
            total / done.len() as f64
        };
        let single_site = run(1, 4);
        let cross_site = run(4, 1);
        assert!(
            cross_site > single_site * 2.0,
            "cross-site {cross_site}ms vs intra-site {single_site}ms"
        );
    }

    #[test]
    fn gossip_detects_crash_and_revival() {
        use ef_simcore::SimDuration;
        let net = edge_network(1, 4);
        let members = net.topology().edge_nodes();
        let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
        cluster.enable_heartbeats(SimDuration::from_millis(100), SimDuration::from_millis(350));
        // Crash node 3 at t=1s, revive at t=3s.
        cluster.crash_at(SimTime::from_secs_f64(1.0), members[3]);
        cluster.revive_at(SimTime::from_secs_f64(3.0), members[3]);

        // Shortly after the crash + timeout, peers suspect node 3.
        cluster.run_until(SimTime::from_secs_f64(2.0));
        for &peer in &members[..3] {
            assert_eq!(
                cluster.suspects_of(peer),
                vec![members[3]],
                "peer {peer} did not suspect the crashed node"
            );
        }
        // After revival + a few ticks, everyone trusts node 3 again.
        cluster.run_until(SimTime::from_secs_f64(4.0));
        for &peer in &members[..3] {
            assert!(
                cluster.suspects_of(peer).is_empty(),
                "peer {peer} still suspects a revived node"
            );
        }
    }

    #[test]
    fn writes_during_gossip_detected_outage_hint_and_replay() {
        use ef_simcore::SimDuration;
        let net = edge_network(1, 3);
        let members = net.topology().edge_nodes();
        let mut cluster = SimCluster::new(
            members.clone(),
            net,
            ClusterConfig {
                replication_factor: 2,
                consistency: Consistency::One,
                ..ClusterConfig::default()
            },
        );
        cluster.enable_heartbeats(SimDuration::from_millis(50), SimDuration::from_millis(200));
        cluster.crash_at(SimTime::from_secs_f64(0.5), members[2]);
        cluster.revive_at(SimTime::from_secs_f64(2.0), members[2]);
        // Writes land while node 2 is down-and-detected (t in [1.0, 1.5]).
        let mut t = SimTime::from_secs_f64(1.0);
        for i in 0..50u32 {
            cluster.submit(
                t,
                members[0],
                ClientOp::Put(
                    Bytes::from(i.to_be_bytes().to_vec()),
                    Bytes::from_static(b"v"),
                ),
            );
            t += SimDuration::from_millis(10);
        }
        let done = cluster.run_until(SimTime::from_secs_f64(4.0));
        // All writes completed despite the outage (ONE + hinting).
        let written = done
            .iter()
            .filter(|l| l.result == OpResult::Written)
            .count();
        assert_eq!(written, 50, "writes failed during detected outage");
        // After revival and hint replay, node 2 holds its replica share.
        let keys_on_2 = cluster
            .node(members[2])
            .unwrap()
            .storage()
            .stats()
            .live_keys;
        assert!(keys_on_2 > 0, "hint replay never reached the revived node");
    }

    #[test]
    fn wire_rot_rejects_frames_and_ops_resolve() {
        use ef_netsim::{FaultPlan, FaultScope};
        let mut net = edge_network(1, 3);
        net.set_fault_plan(FaultPlan::new(7).bitrot(FaultScope::All, 1.0));
        let members = net.topology().edge_nodes();
        let mut cluster = SimCluster::new(
            members.clone(),
            net,
            ClusterConfig {
                replication_factor: 2,
                consistency: Consistency::One,
                ..ClusterConfig::default()
            },
        );
        let mut t = SimTime::ZERO;
        for i in 0..10u32 {
            cluster.submit(
                t,
                members[0],
                ClientOp::Put(
                    Bytes::from(i.to_be_bytes().to_vec()),
                    Bytes::from_static(b"v"),
                ),
            );
            t += ef_simcore::SimDuration::from_millis(50);
        }
        let done = cluster.run();
        // Every op resolves (locally satisfied or timed out by the
        // auto-armed retry policy) and every rotted frame was rejected at
        // the receiver rather than silently accepted.
        assert_eq!(done.len(), 10);
        let integrity = cluster.integrity();
        assert!(
            integrity.frames_rejected > 0,
            "no frames rejected under total wire rot"
        );
        assert_eq!(
            cluster.network().messages_corrupted(),
            integrity.frames_rejected,
            "every corrupted frame must be rejected on delivery"
        );
    }

    #[test]
    fn scrub_detects_and_read_repairs_planted_rot() {
        let net = edge_network(1, 3);
        let members = net.topology().edge_nodes();
        let mut cluster = SimCluster::new(
            members.clone(),
            net,
            ClusterConfig {
                replication_factor: 2,
                consistency: Consistency::All,
                ..ClusterConfig::default()
            },
        );
        let mut t = SimTime::ZERO;
        for i in 0..20u32 {
            cluster.submit(
                t,
                members[0],
                ClientOp::Put(
                    Bytes::from(i.to_be_bytes().to_vec()),
                    Bytes::from(vec![b'v'; 32]),
                ),
            );
            t += ef_simcore::SimDuration::from_millis(10);
        }
        cluster.run();
        // Rot one stored value on node 0. Consistency ALL replicated
        // every key to both of its replicas, so a healthy copy exists.
        let rotted = cluster
            .node_mut(members[0])
            .unwrap()
            .storage_mut()
            .corrupt_nth_value(3, 5)
            .expect("node 0 holds at least one value");
        cluster.enable_scrub(ef_simcore::SimDuration::from_millis(100), 1 << 20);
        cluster.run_until(SimTime::from_secs_f64(2.0));
        let integrity = cluster.integrity();
        assert_eq!(integrity.mismatches_found, 1);
        assert_eq!(integrity.read_repairs, 1);
        assert_eq!(integrity.lost_records, 0);
        assert!(integrity.entries_scrubbed > 0);
        assert!(integrity.scrub_bytes > 0);
        // The rotted entry is back with verified bytes.
        let repaired = cluster
            .node_mut(members[0])
            .unwrap()
            .storage_mut()
            .get_verified(&rotted)
            .expect("repaired entry verifies");
        assert_eq!(repaired, Some(Bytes::from(vec![b'v'; 32])));
    }

    #[test]
    fn restart_runs_the_recovery_lattice() {
        let net = edge_network(1, 3);
        let members = net.topology().edge_nodes();
        let mut cluster = SimCluster::new(
            members.clone(),
            net,
            ClusterConfig {
                replication_factor: 2,
                consistency: Consistency::All,
                wal_snapshot_every: 4,
                ..ClusterConfig::default()
            },
        );
        let mut t = SimTime::ZERO;
        for i in 0..30u32 {
            cluster.submit(
                t,
                members[0],
                ClientOp::Put(
                    Bytes::from(i.to_be_bytes().to_vec()),
                    Bytes::from_static(b"value"),
                ),
            );
            t += ef_simcore::SimDuration::from_millis(10);
        }
        cluster.run();
        // Rot the parked disk's snapshot: recovery falls back to the
        // stashed pre-compaction log and the node still rejoins.
        cluster.crash_stop_at(SimTime::from_secs_f64(1.0), members[1]);
        cluster.run_until(SimTime::from_secs_f64(1.1));
        let Some(Member::Stopped(disk)) = cluster.members.get_mut(&members[1]) else {
            panic!("crash-stop parks the disk");
        };
        assert!(disk.snapshots_taken() >= 1, "fixture never compacted");
        assert!(disk.flip_bit(2, 3));
        cluster.restart_at(SimTime::from_secs_f64(1.2), members[1]);
        cluster.run_until(SimTime::from_secs_f64(1.3));
        assert!(
            cluster.node(members[1]).is_some(),
            "snapshot fallback failed"
        );
        assert_eq!(cluster.integrity().snapshot_fallbacks, 1);
        assert_eq!(cluster.recovery_stats().restarts, 1);

        // A corrupt record *body* parks the disk and keeps the node dead.
        cluster.crash_stop_at(SimTime::from_secs_f64(2.0), members[2]);
        cluster.run_until(SimTime::from_secs_f64(2.1));
        let mut bad = WriteAheadLog::new(0);
        bad.append_put(b"a", b"value");
        assert!(bad.flip_bit(10, 7)); // first value byte: body, not framing
        cluster.members.insert(members[2], Member::Stopped(bad));
        cluster.restart_at(SimTime::from_secs_f64(2.2), members[2]);
        cluster.run_until(SimTime::from_secs_f64(2.3));
        assert!(
            cluster.node(members[2]).is_none(),
            "corrupt body must keep the node dead"
        );
        assert!(
            matches!(cluster.members.get(&members[2]), Some(Member::Stopped(_))),
            "disk re-parked for diagnosis"
        );
        assert_eq!(cluster.integrity().wal_corrupt_bodies, 1);
        assert_eq!(cluster.recovery_stats().restarts, 1);
    }

    #[test]
    fn repeated_verify_failures_quarantine_and_silence_a_node() {
        use ef_simcore::SimDuration;
        let net = edge_network(1, 3);
        let members = net.topology().edge_nodes();
        let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
        cluster.enable_heartbeats(SimDuration::from_millis(100), SimDuration::from_millis(350));
        for _ in 0..SimCluster::QUARANTINE_STRIKES {
            cluster.note_verify_failure(members[2]);
        }
        assert_eq!(cluster.quarantined(), vec![members[2]]);
        assert_eq!(cluster.integrity().quarantines, 1);
        // Its heartbeats are suppressed: peers suspect it like a crashed
        // node and the usual down/hint machinery takes over.
        cluster.run_until(SimTime::from_secs_f64(1.0));
        for &peer in &members[..2] {
            assert_eq!(
                cluster.suspects_of(peer),
                vec![members[2]],
                "peer {peer} did not suspect the quarantined node"
            );
        }
    }

    #[test]
    fn network_counters_accumulate() {
        let net = edge_network(1, 2);
        let members = net.topology().edge_nodes();
        let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
        cluster.submit(
            SimTime::ZERO,
            members[0],
            ClientOp::Put(Bytes::from_static(b"k"), Bytes::from_static(b"v")),
        );
        cluster.run();
        assert!(cluster.network().messages_sent() > 0);
        assert!(cluster.network().bytes_sent() > 0);
    }

    /// Submits the same key `n` times through one coordinator, 100ms apart.
    fn submit_repeats(cluster: &mut SimCluster, coordinator: NodeId, n: u32) {
        let mut t = SimTime::ZERO;
        for _ in 0..n {
            cluster.submit(
                t,
                coordinator,
                ClientOp::CheckAndInsert(Bytes::from_static(b"fp"), Bytes::from_static(b"v")),
            );
            t += SimDuration::from_millis(100);
        }
    }

    #[test]
    fn cache_hit_skips_the_ring_round_trip() {
        let build = |cache: bool| {
            let net = edge_network(2, 2);
            let members = net.topology().edge_nodes();
            let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
            if cache {
                cluster.enable_fingerprint_cache(2, 16);
            }
            submit_repeats(&mut cluster, members[0], 3);
            let done = cluster.run();
            (done, cluster)
        };
        let (uncached, _) = build(false);
        let (cached, cluster) = build(true);

        // Verdict sequence identical: one unique, then duplicates.
        let verdicts = |done: &[OpLatency]| -> Vec<OpResult> {
            done.iter().map(|l| l.result.clone()).collect::<Vec<_>>()
        };
        assert_eq!(verdicts(&uncached), verdicts(&cached));
        // Op ids identical too: the cached fast path still consumes one
        // sequence number per op.
        assert_eq!(
            uncached.iter().map(|l| l.op_id).collect::<Vec<_>>(),
            cached.iter().map(|l| l.op_id).collect::<Vec<_>>()
        );
        // The first op misses (and populates), the second and third hit
        // and complete instantly — strictly faster than the uncached run.
        let stats = cluster.cache_stats();
        assert_eq!(stats.hits, 2, "{stats:?}");
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert_eq!(stats.insertions, 1, "{stats:?}");
        assert_eq!(cached[1].latency(), SimDuration::ZERO);
        assert!(uncached[1].latency() > SimDuration::ZERO);
    }

    #[test]
    fn crash_stop_drops_the_cache() {
        let net = edge_network(2, 2);
        let members = net.topology().edge_nodes();
        let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
        cluster.enable_fingerprint_cache(2, 16);
        let coordinator = members[0];
        let key = Bytes::from_static(b"fp");
        // Learn the fingerprint, then crash-stop and restart the
        // coordinator between two more submissions of the same key.
        cluster.submit(
            SimTime::ZERO,
            coordinator,
            ClientOp::CheckAndInsert(key.clone(), key.clone()),
        );
        cluster.crash_stop_at(SimTime::ZERO + SimDuration::from_millis(500), coordinator);
        cluster.restart_at(SimTime::ZERO + SimDuration::from_millis(800), coordinator);
        cluster.submit(
            SimTime::ZERO + SimDuration::from_millis(1200),
            coordinator,
            ClientOp::CheckAndInsert(key.clone(), key.clone()),
        );
        cluster.run_until(SimTime::ZERO + SimDuration::from_secs_f64(10.0));
        // The post-restart lookup must NOT be served from pre-crash cache
        // state: it misses, traverses the ring, and only then repopulates.
        let stats = cluster.cache_stats();
        assert_eq!(stats.hits, 0, "{stats:?}");
        assert_eq!(stats.misses, 2, "{stats:?}");
    }

    #[test]
    fn cache_disabled_reports_zero_stats() {
        let net = edge_network(1, 2);
        let members = net.topology().edge_nodes();
        let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
        submit_repeats(&mut cluster, members[0], 2);
        cluster.run();
        assert_eq!(cluster.cache_stats(), crate::cache::CacheStats::default());
    }

    #[test]
    fn gray_stats_quiet_without_mitigations() {
        let net = edge_network(1, 3);
        let members = net.topology().edge_nodes();
        let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
        submit_repeats(&mut cluster, members[0], 4);
        cluster.run();
        assert!(
            cluster.gray_stats().is_quiet(),
            "{:?}",
            cluster.gray_stats()
        );
    }

    #[test]
    fn storage_stall_delays_replica_acks() {
        // Twin clusters, identical ops; one replica suffers a fail-slow
        // storage stall. The stalled run's write latency must grow by
        // roughly the stretched-fsync penalty while the data stays
        // correct — slow, not wrong.
        let run = |stall: Option<f64>| {
            let net = edge_network(1, 3);
            let members = net.topology().edge_nodes();
            let mut cluster = SimCluster::new(
                members.clone(),
                net,
                ClusterConfig {
                    replication_factor: 2,
                    consistency: Consistency::All,
                    ..ClusterConfig::default()
                },
            );
            if let Some(factor) = stall {
                for &m in &members {
                    cluster.storage_stall_at(
                        SimTime::ZERO,
                        SimTime::from_secs_f64(100.0),
                        m,
                        factor,
                    );
                }
            }
            cluster.submit(
                SimTime::ZERO,
                members[0],
                ClientOp::Put(Bytes::from_static(b"key"), Bytes::from_static(b"v")),
            );
            let done = cluster.run();
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].result, OpResult::Written);
            done[0].latency()
        };
        let healthy = run(None);
        let stalled = run(Some(20.0));
        // factor 20 ⇒ 19 extra nominal fsyncs ⇒ +9.5ms on the ack path.
        let penalty = stalled.saturating_sub(healthy);
        assert!(
            penalty >= SimDuration::from_millis(9),
            "stall penalty {penalty} too small"
        );
    }

    #[test]
    fn adaptive_rto_learns_and_stays_clamped() {
        let net = edge_network(1, 3);
        let members = net.topology().edge_nodes();
        let mut cluster = SimCluster::new(
            members.clone(),
            net,
            ClusterConfig {
                replication_factor: 2,
                consistency: Consistency::All,
                ..ClusterConfig::default()
            },
        );
        cluster.set_retry_policy(RetryPolicy::new(42));
        let floor = SimDuration::from_micros(500);
        let ceiling = SimDuration::from_secs(1);
        cluster.enable_adaptive_rto(floor, ceiling);
        let mut t = SimTime::ZERO;
        for i in 0..10u32 {
            cluster.submit(
                t,
                members[0],
                ClientOp::Put(
                    Bytes::from(i.to_be_bytes().to_vec()),
                    Bytes::from_static(b"v"),
                ),
            );
            t += SimDuration::from_millis(50);
        }
        let done = cluster.run();
        assert!(done.iter().all(|l| l.result == OpResult::Written));
        let stats = cluster.gray_stats();
        assert!(stats.rtt_samples > 0, "no RTT samples collected");
        let mut adapted = 0;
        for &peer in &members {
            if let Some(rto) = cluster.adaptive_rto_of(members[0], peer) {
                assert!(rto >= floor && rto <= ceiling, "rto {rto} out of clamp");
                adapted += 1;
            }
        }
        assert!(adapted > 0, "no per-peer estimator got samples");
    }

    #[test]
    fn adaptive_rto_golden_schedule_is_pinned() {
        // Repeated writes of one key over an otherwise idle, fault-free
        // network produce identical RTT samples each round, so the
        // Jacobson/Karels estimator follows a fully deterministic
        // integer trajectory: srtt locks to the first sample and rttvar
        // decays by a quarter per round until the floor clamp catches
        // the RTO. Nothing on this path consumes randomness (retry
        // jitter only shifts stale timers), so the schedule is pinned
        // unconditionally — no keystream probe needed, unlike the
        // jittered golden test in `retry.rs`.
        let net = edge_network(1, 3);
        let members = net.topology().edge_nodes();
        let mut cluster = SimCluster::new(
            members.clone(),
            net,
            ClusterConfig {
                replication_factor: 2,
                consistency: Consistency::All,
                ..ClusterConfig::default()
            },
        );
        cluster.set_retry_policy(RetryPolicy::new(42));
        let floor = SimDuration::from_millis(2);
        let ceiling = SimDuration::from_secs(1);
        cluster.enable_adaptive_rto(floor, ceiling);
        // Pick a key whose replica set contains the coordinator, so each
        // round produces exactly one remote (coordinator, peer) sample.
        let key = (0u32..)
            .map(|i| Bytes::from(i.to_be_bytes().to_vec()))
            .find(|k| cluster.ring().replicas(k, 2).contains(&members[0]))
            .unwrap();
        let peer = cluster
            .ring()
            .replicas(&key, 2)
            .into_iter()
            .find(|&n| n != members[0])
            .unwrap();
        let mut schedule = Vec::new();
        for _ in 0..5 {
            let at = cluster.now() + SimDuration::from_millis(200);
            cluster.submit(at, members[0], ClientOp::Put(key.clone(), key.clone()));
            let done = cluster.run();
            assert_eq!(done.len(), 1);
            schedule.push(
                cluster
                    .adaptive_rto_of(members[0], peer)
                    .expect("estimator has samples")
                    .as_nanos(),
            );
        }
        // Structural invariants hold whatever the topology numbers are.
        assert!(schedule.windows(2).all(|w| w[1] <= w[0]), "{schedule:?}");
        for &rto in &schedule {
            assert!(rto >= floor.as_nanos() && rto <= ceiling.as_nanos());
        }
        assert_eq!(
            cluster.gray_stats().rto_adaptations,
            4,
            "first op is unadapted, the rest use the estimator"
        );
        // The exact trajectory for the paper-testbed topology.
        assert_eq!(
            schedule,
            vec![5_101_446, 4_251_206, 3_613_526, 3_135_266, 2_776_570],
            "adapted RTO schedule drifted"
        );
    }

    #[test]
    fn hedged_read_wins_against_a_slow_primary() {
        use ef_netsim::FaultPlan;
        // Four nodes, RF=1: the key's only primary is made grossly slow
        // (fail-slow, not dead), and the key is planted on the backup
        // successor a hedge would probe. The hedged read must complete
        // from the backup's positive sighting long before the primary's
        // crawling response or the retry timeout.
        let mut net = edge_network(2, 2);
        let members = net.topology().edge_nodes();
        let value = Bytes::from_static(b"payload");
        // Find a key whose single primary is not the coordinator.
        let coordinator = members[0];
        let probe_net = Network::new(
            ef_netsim::TopologyBuilder::new()
                .edge_site(2)
                .edge_site(2)
                .build(),
            ef_netsim::NetworkConfig::paper_testbed(),
        );
        let ring = HashRing::with_nodes(
            probe_net.topology().edge_nodes(),
            ClusterConfig::default().vnodes,
        );
        let key = (0u32..)
            .map(|i| Bytes::from(i.to_be_bytes().to_vec()))
            .find(|k| ring.replicas(k, 1)[0] != coordinator)
            .unwrap();
        let primary = ring.replicas(&key, 1)[0];
        // The hedge target: first extended successor that is neither the
        // primary nor the coordinator (mirrors `NodeState::hedge`).
        let backup = ring
            .replicas(&key, 3)
            .into_iter()
            .find(|&n| n != primary && n != coordinator)
            .unwrap();
        net.set_fault_plan(FaultPlan::new(11).slow_node(
            primary,
            400.0,
            SimTime::ZERO,
            SimTime::from_secs_f64(100.0),
        ));
        let mut cluster = SimCluster::new(
            members.clone(),
            net,
            ClusterConfig {
                replication_factor: 1,
                consistency: Consistency::One,
                ..ClusterConfig::default()
            },
        );
        cluster.enable_hedged_reads(4);
        // Plant the key on primary and backup alike: hedging may change
        // *when* the answer arrives, never *what* it is.
        for &holder in &[primary, backup] {
            cluster
                .node_mut(holder)
                .unwrap()
                .storage_mut()
                .put(key.clone(), value.clone());
        }
        cluster.submit(SimTime::ZERO, coordinator, ClientOp::Get(key.clone()));
        let done = cluster.run();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].result, OpResult::Value(Some(value)));
        let stats = cluster.gray_stats();
        assert_eq!(stats.hedges_fired, 1, "{stats:?}");
        assert_eq!(stats.hedges_won, 1, "{stats:?}");
        // The win beat both the slow primary (~400x RTT) and the retry
        // timeout (100ms base + backoff).
        assert!(
            done[0].latency() < SimDuration::from_millis(100),
            "hedge did not accelerate the read: {}",
            done[0].latency()
        );
    }

    #[test]
    fn admission_control_sheds_overload_and_keeps_op_ids() {
        let run = |limit: Option<usize>| {
            let net = edge_network(1, 3);
            let members = net.topology().edge_nodes();
            let mut cluster = SimCluster::new(
                members.clone(),
                net,
                ClusterConfig {
                    replication_factor: 2,
                    consistency: Consistency::All,
                    ..ClusterConfig::default()
                },
            );
            cluster.set_retry_policy(RetryPolicy::new(9));
            if let Some(limit) = limit {
                cluster.enable_admission_control(limit);
            }
            // A burst: every op lands before any replica can answer.
            for i in 0..10u32 {
                cluster.submit(
                    SimTime::ZERO,
                    members[0],
                    ClientOp::Put(
                        Bytes::from(i.to_be_bytes().to_vec()),
                        Bytes::from_static(b"v"),
                    ),
                );
            }
            let mut done = cluster.run();
            done.sort_by_key(|l| l.op_id);
            (done, cluster.gray_stats())
        };
        let (unlimited, quiet) = run(None);
        let (limited, stats) = run(Some(2));
        assert!(quiet.is_quiet());
        assert_eq!(limited.len(), 10, "every op resolves, shed or served");
        let sheds = limited
            .iter()
            .filter(|l| matches!(l.result, OpResult::Unavailable { .. }))
            .count() as u64;
        assert_eq!(sheds, 8, "burst of 10 at limit 2 sheds the rest");
        assert_eq!(stats.sheds_critical, sheds);
        assert_eq!(stats.queue_peak, 2, "{stats:?}");
        // Op-id compatibility: shedding never renumbers operations.
        let ids = |ls: &[OpLatency]| ls.iter().map(|l| l.op_id).collect::<Vec<_>>();
        assert_eq!(ids(&unlimited), ids(&limited));
    }

    #[test]
    fn backpressure_yields_background_rounds_under_load() {
        let net = edge_network(1, 2);
        let members = net.topology().edge_nodes();
        let mut cluster = SimCluster::new(
            members.clone(),
            net,
            ClusterConfig {
                replication_factor: 2,
                consistency: Consistency::All,
                ..ClusterConfig::default()
            },
        );
        cluster.enable_anti_entropy(SimDuration::from_millis(5), 4);
        cluster.enable_backpressure(SimDuration::from_micros(100));
        // A burst of fat writes books the uplink solid for tens of
        // milliseconds; anti-entropy ticks landing inside the backlog
        // must yield rather than pile bulk Merkle traffic on top.
        for i in 0..20u32 {
            cluster.submit(
                SimTime::ZERO,
                members[0],
                ClientOp::Put(
                    Bytes::from(i.to_be_bytes().to_vec()),
                    Bytes::from(vec![b'x'; 200_000]),
                ),
            );
        }
        cluster.run_until(SimTime::from_secs_f64(2.0));
        let stats = cluster.gray_stats();
        assert!(stats.sheds_background > 0, "{stats:?}");
        // Once the backlog drains the rounds resume — shedding is a
        // yield, not a cancellation.
        assert!(
            cluster.recovery_stats().antientropy_rounds > 0,
            "anti-entropy never resumed after the backlog"
        );
    }

    #[test]
    fn slow_detection_marks_gray_peers() {
        use ef_netsim::FaultPlan;
        let mut net = edge_network(1, 3);
        let members = net.topology().edge_nodes();
        let victim = members[1];
        net.set_fault_plan(FaultPlan::new(13).slow_node(
            victim,
            50.0,
            SimTime::ZERO,
            SimTime::from_secs_f64(100.0),
        ));
        let mut cluster = SimCluster::new(
            members.clone(),
            net,
            ClusterConfig {
                replication_factor: 2,
                consistency: Consistency::All,
                ..ClusterConfig::default()
            },
        );
        cluster.enable_adaptive_rto(SimDuration::from_micros(500), SimDuration::from_secs(2));
        cluster.enable_slow_detection(SimDuration::from_millis(5));
        let mut t = SimTime::ZERO;
        for i in 0..30u32 {
            cluster.submit(
                t,
                members[0],
                ClientOp::Put(
                    Bytes::from(i.to_be_bytes().to_vec()),
                    Bytes::from_static(b"v"),
                ),
            );
            t += SimDuration::from_millis(20);
        }
        cluster.run();
        let stats = cluster.gray_stats();
        assert!(stats.slow_marks >= 1, "{stats:?}");
        assert!(
            cluster.slow_of(members[0]).contains(&victim),
            "coordinator never marked the fail-slow peer gray: {:?}",
            cluster.slow_of(members[0])
        );
        // A healthy peer is not smeared.
        assert!(!cluster.slow_of(members[0]).contains(&members[2]));
    }

    fn edge_cloud_network(sites: usize, per_site: usize) -> Network {
        let mut b = TopologyBuilder::new();
        for _ in 0..sites {
            b = b.edge_site(per_site);
        }
        Network::new(b.cloud_site(1).build(), NetworkConfig::paper_testbed())
    }

    #[test]
    fn spool_drains_uniques_to_the_cloud_catalog() {
        let net = edge_cloud_network(1, 3);
        let members = net.topology().edge_nodes();
        let cloud = net.topology().nodes_in(SiteId(1))[0];
        let mut cluster = SimCluster::new(
            members.clone(),
            net,
            ClusterConfig {
                replication_factor: 2,
                consistency: Consistency::Quorum,
                ..ClusterConfig::default()
            },
        );
        cluster.enable_cloud_uplink(cloud, 1 << 16, SimDuration::from_millis(10));
        let mut t = SimTime::ZERO;
        for i in 0..20u32 {
            cluster.submit(
                t,
                members[(i % 3) as usize],
                ClientOp::CheckAndInsert(
                    Bytes::from(format!("chunk-{i}").into_bytes()),
                    Bytes::from_static(b"payload"),
                ),
            );
            t += SimDuration::from_millis(2);
        }
        cluster.run_until(SimTime::from_secs_f64(2.0));
        let stats = cluster.disaster_stats();
        assert_eq!(stats.spool_enqueued, 20, "{stats:?}");
        assert_eq!(stats.spool_drained, 20, "{stats:?}");
        assert_eq!(stats.spool_depth, 0, "{stats:?}");
        assert!(stats.spool_high_water >= 1);
        assert_eq!(cluster.cloud_catalog().len(), 20);
        assert_eq!(
            cluster.cloud_catalog().get(&Bytes::from_static(b"chunk-7")),
            Some(&Bytes::from_static(b"payload"))
        );
    }

    #[test]
    fn cloud_outage_defers_the_drain_without_losing_uniques() {
        let net = edge_cloud_network(1, 3);
        let members = net.topology().edge_nodes();
        let cloud = net.topology().nodes_in(SiteId(1))[0];
        let mut cluster = SimCluster::new(
            members.clone(),
            net,
            ClusterConfig {
                replication_factor: 2,
                consistency: Consistency::Quorum,
                ..ClusterConfig::default()
            },
        );
        cluster.enable_cloud_uplink(cloud, 1 << 16, SimDuration::from_millis(10));
        cluster.cloud_outage_at(SimTime::ZERO, SimTime::from_secs_f64(1.0));
        for i in 0..10u32 {
            cluster.submit(
                SimTime::from_nanos(u64::from(i) * 1_000_000),
                members[0],
                ClientOp::CheckAndInsert(
                    Bytes::from(format!("chunk-{i}").into_bytes()),
                    Bytes::from_static(b"payload"),
                ),
            );
        }
        // Mid-outage: every unique accepted and acked, nothing drained.
        cluster.run_until(SimTime::from_secs_f64(0.5));
        let mid = cluster.disaster_stats();
        assert_eq!(mid.spool_enqueued, 10, "{mid:?}");
        assert_eq!(mid.spool_drained, 0, "{mid:?}");
        assert_eq!(mid.spool_depth, 10, "{mid:?}");
        assert!(cluster.cloud_catalog().is_empty());
        // After the window closes the backlog drains completely.
        cluster.run_until(SimTime::from_secs_f64(3.0));
        let end = cluster.disaster_stats();
        assert_eq!(end.spool_drained, 10, "{end:?}");
        assert_eq!(end.spool_depth, 0, "{end:?}");
        assert_eq!(end.outage_windows, 1);
        assert_eq!(cluster.cloud_catalog().len(), 10);
    }

    #[test]
    fn bandwidth_cap_spreads_the_drain_over_rounds() {
        let net = edge_cloud_network(1, 3);
        let members = net.topology().edge_nodes();
        let cloud = net.topology().nodes_in(SiteId(1))[0];
        let mut cluster = SimCluster::new(
            members.clone(),
            net,
            ClusterConfig {
                replication_factor: 2,
                consistency: Consistency::Quorum,
                ..ClusterConfig::default()
            },
        );
        // Cap of one payload per tick: 8 uniques at one coordinator need
        // several rounds, so mid-run the spool is still part-full.
        cluster.enable_cloud_uplink(cloud, 8, SimDuration::from_millis(10));
        for i in 0..8u32 {
            cluster.submit(
                SimTime::from_nanos(u64::from(i)),
                members[0],
                ClientOp::CheckAndInsert(
                    Bytes::from(format!("chunk-{i}").into_bytes()),
                    Bytes::from_static(b"payload8"),
                ),
            );
        }
        cluster.run_until(SimTime::from_secs_f64(0.035));
        let mid = cluster.disaster_stats();
        assert!(
            mid.spool_depth > 0 && mid.spool_depth < 8,
            "cap not spreading the drain: {mid:?}"
        );
        cluster.run_until(SimTime::from_secs_f64(2.0));
        assert_eq!(cluster.disaster_stats().spool_depth, 0);
        assert_eq!(cluster.cloud_catalog().len(), 8);
    }

    #[test]
    fn ring_wipe_heals_by_mesh_repair_with_cloud_fallback() {
        let net = edge_cloud_network(3, 2);
        let members = net.topology().edge_nodes();
        let cloud = net.topology().nodes_in(SiteId(3))[0];
        let mut cluster = SimCluster::new(
            members.clone(),
            net,
            ClusterConfig {
                replication_factor: 3,
                consistency: Consistency::Quorum,
                ..ClusterConfig::default()
            },
        );
        cluster.enable_heartbeats_with_dead(
            SimDuration::from_millis(20),
            SimDuration::from_millis(100),
            SimDuration::from_millis(500),
        );
        cluster.enable_cloud_uplink(cloud, 1 << 16, SimDuration::from_millis(10));
        let mut t = SimTime::ZERO;
        for i in 0..40u32 {
            cluster.submit(
                t,
                members[(i % 6) as usize],
                ClientOp::CheckAndInsert(
                    Bytes::from(format!("chunk-{i}").into_bytes()),
                    Bytes::from(format!("payload-{i}").into_bytes()),
                ),
            );
            t += SimDuration::from_millis(1);
        }
        // Let the writes land and the spool drain, then wipe site 0.
        cluster.ring_outage_at(
            SimTime::from_secs_f64(0.5),
            SimTime::from_secs_f64(0.8),
            SiteId(0),
        );
        cluster.run_until(SimTime::from_secs_f64(3.0));
        let stats = cluster.disaster_stats();
        assert_eq!(stats.ring_wipes, 1, "{stats:?}");
        assert!(stats.mesh_repairs > 0, "no mesh repairs: {stats:?}");
        assert!(
            stats.repair_cost_mesh_ms > 0,
            "mesh repairs cost nothing: {stats:?}"
        );
        // Every key the ring routes to a wiped node is back on it, byte
        // for byte — zero lost chunks after heal.
        let wiped: Vec<NodeId> = cluster.network().topology().nodes_in(SiteId(0)).to_vec();
        let mut rehydrated = 0;
        for i in 0..40u32 {
            let key = Bytes::from(format!("chunk-{i}").into_bytes());
            let want = Bytes::from(format!("payload-{i}").into_bytes());
            for target in cluster.ring().replicas(&key, 3) {
                if !wiped.contains(&target) {
                    continue;
                }
                let got = cluster
                    .node_mut(target)
                    .expect("healed node is back")
                    .storage_mut()
                    .get(&key);
                assert_eq!(got, Some(want.clone()), "chunk-{i} missing on {target}");
                rehydrated += 1;
            }
        }
        assert!(rehydrated > 0, "no key routed to the wiped site");
        assert!(stats.recovery_ns_max > 0, "{stats:?}");
    }

    #[test]
    fn hints_for_a_wiped_ring_are_spooled_durably() {
        let net = edge_cloud_network(3, 2);
        let members = net.topology().edge_nodes();
        let cloud = net.topology().nodes_in(SiteId(3))[0];
        let mut cluster = SimCluster::new(
            members.clone(),
            net,
            ClusterConfig {
                replication_factor: 3,
                consistency: Consistency::Quorum,
                ..ClusterConfig::default()
            },
        );
        cluster.enable_heartbeats_with_dead(
            SimDuration::from_millis(20),
            SimDuration::from_millis(100),
            SimDuration::from_millis(500),
        );
        cluster.enable_cloud_uplink(cloud, 1 << 16, SimDuration::from_millis(10));
        // Wipe site 0 early, heal late; writes land mid-window so their
        // site-0 replicas get hinted at the surviving coordinators.
        cluster.ring_outage_at(
            SimTime::from_secs_f64(0.3),
            SimTime::from_secs_f64(1.5),
            SiteId(0),
        );
        let mut t = SimTime::from_secs_f64(0.6);
        for i in 0..30u32 {
            cluster.submit(
                t,
                members[2 + (i % 4) as usize], // survivors only
                ClientOp::CheckAndInsert(
                    Bytes::from(format!("chunk-{i}").into_bytes()),
                    Bytes::from_static(b"payload"),
                ),
            );
            t += SimDuration::from_millis(2);
        }
        cluster.run_until(SimTime::from_secs_f64(1.2));
        let mid = cluster.disaster_stats();
        assert!(
            mid.hints_spooled > 0,
            "no hints moved to the durable spool: {mid:?}"
        );
        cluster.run_until(SimTime::from_secs_f64(4.0));
        // After the heal the spooled hints replayed: nothing pending.
        let end = cluster.disaster_stats();
        assert_eq!(end.spool_depth, 0, "{end:?}");
    }

    // ---- Byzantine-peer tolerance (proof-of-possession + trust) ----

    use ef_netsim::{ByzantineFault, FaultPlan};

    /// A 1-site / 4-node cluster with one Byzantine node running `fault`
    /// for the whole run.
    fn byzantine_cluster(fault: ByzantineFault) -> (SimCluster, Vec<NodeId>, NodeId) {
        let mut net = edge_network(1, 4);
        let members = net.topology().edge_nodes();
        let liar = members[1];
        net.set_fault_plan(FaultPlan::new(41).byzantine(
            liar,
            fault,
            SimTime::ZERO,
            SimTime::from_secs_f64(100.0),
        ));
        let cluster = SimCluster::new(
            members.clone(),
            net,
            ClusterConfig {
                replication_factor: 2,
                consistency: Consistency::Quorum,
                ..ClusterConfig::default()
            },
        );
        (cluster, members, liar)
    }

    fn submit_unique_chunks(cluster: &mut SimCluster, coord: NodeId, n: u32) {
        let mut t = SimTime::ZERO;
        for i in 0..n {
            cluster.submit(
                t,
                coord,
                ClientOp::CheckAndInsert(
                    Bytes::from(format!("chunk-{i}").into_bytes()),
                    Bytes::from(format!("payload-{i}").into_bytes()),
                ),
            );
            t += SimDuration::from_millis(5);
        }
    }

    #[test]
    fn lookup_liar_pollutes_dedup_without_pop() {
        // The attack baseline: with proof-of-possession off, a lying
        // replica's fabricated positive sighting turns fresh chunks into
        // "duplicates" — the client skips the upload and the chunk is
        // silently lost.
        let (mut cluster, members, liar) = byzantine_cluster(ByzantineFault::LieOnLookup);
        submit_unique_chunks(&mut cluster, members[0], 40);
        let done = cluster.run();
        assert_eq!(done.len(), 40);
        let false_dups = done
            .iter()
            .filter(|l| matches!(l.result, OpResult::Dedup { unique: false, .. }))
            .count();
        assert!(
            false_dups > 0,
            "lookup liar never polluted a verdict — attack not wired"
        );
        // No defense armed: nothing was challenged, nobody struck.
        let stats = cluster.byzantine_stats();
        assert_eq!(stats.challenges_issued, 0, "{stats:?}");
        assert_eq!(cluster.trust_strikes_of(liar), 0);
    }

    #[test]
    fn pop_defeats_lookup_liar_and_quarantines() {
        let (mut cluster, members, liar) = byzantine_cluster(ByzantineFault::LieOnLookup);
        cluster.enable_pop(0xB12A);
        submit_unique_chunks(&mut cluster, members[0], 40);
        let done = cluster.run();
        assert_eq!(done.len(), 40);
        // Every chunk is genuinely fresh; with PoP armed the liar's
        // claims fail their challenges, so no verdict is polluted.
        for l in &done {
            assert!(
                matches!(
                    l.result,
                    OpResult::Dedup { unique: true, .. } | OpResult::Written
                ),
                "false duplicate slipped through PoP: {:?}",
                l.result
            );
        }
        let stats = cluster.byzantine_stats();
        assert!(stats.challenges_issued > 0, "{stats:?}");
        assert!(stats.challenges_failed > 0, "{stats:?}");
        assert!(stats.false_claims_rejected > 0, "{stats:?}");
        assert!(
            cluster.trust_strikes_of(liar) >= 3,
            "liar strikes: {}",
            cluster.trust_strikes_of(liar)
        );
        assert_eq!(stats.liars_quarantined, 1, "{stats:?}");
    }

    #[test]
    fn honest_pop_verdicts_match_pop_off() {
        // Satellite guarantee: on an honest cluster, arming PoP changes
        // costs (challenge round-trips) but never verdicts.
        let verdicts = |pop: bool| {
            let net = edge_network(2, 2);
            let members = net.topology().edge_nodes();
            let mut cluster = SimCluster::new(
                members.clone(),
                net,
                ClusterConfig {
                    replication_factor: 2,
                    consistency: Consistency::Quorum,
                    ..ClusterConfig::default()
                },
            );
            if pop {
                cluster.enable_pop(7);
            }
            let mut t = SimTime::ZERO;
            // First pass: 20 fresh chunks; second pass: the same chunks
            // from the *other* side of the ring — genuine duplicates
            // whose positive sightings must survive the challenge.
            for pass in 0..2u32 {
                for i in 0..20u32 {
                    let coord = members[((i + pass) % 4) as usize];
                    cluster.submit(
                        t,
                        coord,
                        ClientOp::CheckAndInsert(
                            Bytes::from(format!("chunk-{i}").into_bytes()),
                            Bytes::from(format!("payload-{i}").into_bytes()),
                        ),
                    );
                    t += SimDuration::from_millis(10);
                }
            }
            let mut done = cluster.run();
            done.sort_by_key(|l| (l.op_id.coordinator, l.op_id.seq));
            let stats = cluster.byzantine_stats();
            let verdicts: Vec<(OpId, bool)> = done
                .iter()
                .filter_map(|l| match l.result {
                    OpResult::Dedup { unique, .. } => Some((l.op_id, unique)),
                    _ => None,
                })
                .collect();
            (verdicts, stats)
        };
        let (off, off_stats) = verdicts(false);
        let (on, on_stats) = verdicts(true);
        assert_eq!(off, on, "PoP changed an honest verdict");
        assert!(off.iter().any(|(_, unique)| !unique), "no duplicates seen");
        assert_eq!(off_stats.challenges_issued, 0);
        assert!(on_stats.challenges_issued > 0, "{on_stats:?}");
        assert!(on_stats.challenges_passed > 0, "{on_stats:?}");
        assert_eq!(on_stats.challenges_failed, 0, "{on_stats:?}");
        assert_eq!(on_stats.liar_strikes, 0, "{on_stats:?}");
    }

    #[test]
    fn hint_floods_land_without_pop_and_are_suppressed_with_it() {
        use ef_simcore::SimDuration;
        let flood_keys = |pop: bool| -> (usize, ByzantineStats) {
            let (mut cluster, members, _liar) = byzantine_cluster(ByzantineFault::HintFlood);
            cluster.enable_heartbeats(SimDuration::from_millis(100), SimDuration::from_millis(350));
            if pop {
                cluster.enable_pop(9);
            }
            cluster.run_until(SimTime::from_secs_f64(1.0));
            let mut landed = 0;
            for &m in &members {
                if let Some(state) = cluster.node_mut(m) {
                    landed += state
                        .storage()
                        .iter_live()
                        .filter(|(k, _)| k.starts_with(b"byz-flood-"))
                        .count();
                }
            }
            let stats = cluster.byzantine_stats();
            (landed, stats)
        };
        let (landed_off, stats_off) = flood_keys(false);
        assert!(landed_off > 0, "flood attack never landed a junk key");
        assert_eq!(stats_off.hint_floods_suppressed, 0);
        let (landed_on, stats_on) = flood_keys(true);
        assert_eq!(landed_on, 0, "flooded keys got past the armed driver");
        assert!(stats_on.hint_floods_suppressed > 0, "{stats_on:?}");
        assert!(stats_on.liars_quarantined >= 1, "{stats_on:?}");
    }

    #[test]
    fn poisoned_repair_bytes_rejected_and_refetched() {
        // Ring wipe + heal where *every* survivor serves garbage on the
        // repair path: each mesh serve is rejected by content-address
        // verification, the re-fetch walks the remaining (equally
        // rotten) holders, and the cloud catalog finally supplies the
        // honest bytes — zero poisoned chunks acked into storage.
        let mut net = edge_cloud_network(3, 2);
        let members = net.topology().edge_nodes();
        let mut plan = FaultPlan::new(17);
        for &survivor in &members[2..6] {
            plan = plan.byzantine(
                survivor,
                ByzantineFault::ServeGarbage,
                SimTime::ZERO,
                SimTime::from_secs_f64(100.0),
            );
        }
        net.set_fault_plan(plan);
        let cloud = net.topology().nodes_in(SiteId(3))[0];
        let mut cluster = SimCluster::new(
            members.clone(),
            net,
            ClusterConfig {
                replication_factor: 3,
                consistency: Consistency::Quorum,
                ..ClusterConfig::default()
            },
        );
        cluster.enable_pop(23);
        cluster.enable_cloud_uplink(cloud, 1 << 16, SimDuration::from_millis(10));
        let mut t = SimTime::ZERO;
        for i in 0..40u32 {
            cluster.submit(
                t,
                members[(i % 6) as usize],
                ClientOp::CheckAndInsert(
                    Bytes::from(format!("chunk-{i}").into_bytes()),
                    Bytes::from(format!("payload-{i}").into_bytes()),
                ),
            );
            t += SimDuration::from_millis(1);
        }
        cluster.ring_outage_at(
            SimTime::from_secs_f64(0.5),
            SimTime::from_secs_f64(0.8),
            SiteId(0),
        );
        cluster.run_until(SimTime::from_secs_f64(3.0));
        let stats = cluster.byzantine_stats();
        assert!(stats.poisoned_bytes_rejected > 0, "{stats:?}");
        assert!(stats.refetches > 0, "{stats:?}");
        assert!(
            cluster.disaster_stats().cloud_repairs > 0,
            "no cloud fallback: {:?}",
            cluster.disaster_stats()
        );
        // Every healed replica holds the honest bytes, byte for byte.
        let wiped: Vec<NodeId> = cluster.network().topology().nodes_in(SiteId(0)).to_vec();
        let mut rehydrated = 0;
        for i in 0..40u32 {
            let key = Bytes::from(format!("chunk-{i}").into_bytes());
            let want = Bytes::from(format!("payload-{i}").into_bytes());
            for target in cluster.ring().replicas(&key, 3) {
                if !wiped.contains(&target) {
                    continue;
                }
                let got = cluster
                    .node_mut(target)
                    .expect("healed node is back")
                    .storage_mut()
                    .get(&key);
                if got.is_some() {
                    assert_eq!(got, Some(want.clone()), "chunk-{i} poisoned on {target}");
                    rehydrated += 1;
                }
            }
        }
        assert!(rehydrated > 0, "no chunk repaired onto the wiped site");
    }

    #[test]
    fn proven_possession_cache_amortizes_repeat_challenges() {
        // One coordinator, one remote holder: the first duplicate
        // verdict for a chunk pays a challenge round trip, a repeat of
        // the *same* chunk rides the proven-possession cache. The grant
        // is deliberately per (peer, chunk) — proving possession of one
        // chunk must never vouch for any other, or a liar could prove
        // one honest chunk and then fabricate the rest.
        let net = edge_network(1, 2);
        let members = net.topology().edge_nodes();
        let mut cluster = SimCluster::new(
            members.clone(),
            net,
            ClusterConfig {
                replication_factor: 1,
                consistency: Consistency::One,
                ..ClusterConfig::default()
            },
        );
        cluster.enable_pop(3);
        let key = (0..64u32)
            .map(|i| Bytes::from(format!("chunk-{i}").into_bytes()))
            .find(|k| cluster.ring().replicas(k, 1)[0] == members[1])
            .expect("placement starved the test");
        cluster.submit(
            SimTime::ZERO,
            members[1],
            ClientOp::Put(key.clone(), Bytes::from_static(b"payload")),
        );
        cluster.run();
        let mut t = SimTime::from_secs_f64(1.0);
        for _ in 0..2 {
            cluster.submit(
                t,
                members[0],
                ClientOp::CheckAndInsert(key.clone(), Bytes::from_static(b"payload")),
            );
            t += SimDuration::from_millis(100);
        }
        let done = cluster.run();
        assert_eq!(done.len(), 2);
        for l in &done {
            assert!(
                matches!(l.result, OpResult::Dedup { unique: false, .. }),
                "planted key not judged duplicate: {:?}",
                l.result
            );
        }
        let stats = cluster.byzantine_stats();
        assert_eq!(stats.challenges_issued, 1, "{stats:?}");
        assert_eq!(stats.challenges_passed, 1, "{stats:?}");
        assert_eq!(stats.pop_cache_hits, 1, "{stats:?}");
    }

    #[test]
    fn equivocating_summary_detected_in_antientropy() {
        let (mut cluster, members, liar) = byzantine_cluster(ByzantineFault::EquivocateSummary);
        cluster.enable_pop(31);
        cluster.enable_anti_entropy(SimDuration::from_millis(100), 4);
        submit_unique_chunks(&mut cluster, members[0], 10);
        cluster.run_until(SimTime::from_secs_f64(1.0));
        let stats = cluster.byzantine_stats();
        assert!(stats.equivocations_detected > 0, "{stats:?}");
        assert!(
            cluster.trust_strikes_of(liar) >= 3,
            "equivocator strikes: {}",
            cluster.trust_strikes_of(liar)
        );
        assert_eq!(stats.liars_quarantined, 1, "{stats:?}");
    }

    #[test]
    fn retired_coordinator_keeps_its_timeout_and_retry_counts() {
        let net = edge_network(1, 3);
        let members = net.topology().edge_nodes();
        let mut cluster = SimCluster::new(
            members.clone(),
            net,
            ClusterConfig {
                replication_factor: 3,
                consistency: Consistency::All,
                ..ClusterConfig::default()
            },
        );
        cluster.set_retry_policy(RetryPolicy::new(5));
        cluster.crash_at(SimTime::ZERO, members[2]);
        cluster.submit(
            SimTime::from_secs_f64(0.01),
            members[0],
            ClientOp::Put(Bytes::from_static(b"k"), Bytes::from_static(b"v")),
        );
        let done = cluster.run();
        assert!(matches!(done[0].result, OpResult::TimedOut { .. }));
        assert_eq!(cluster.timeouts(), 1);
        assert_eq!(cluster.retries(), 3);
        // The coordinator crash-stops: its counters describe the run and
        // must outlive its volatile state.
        cluster.crash_stop_at(SimTime::from_secs_f64(5.0), members[0]);
        cluster.run_until(SimTime::from_secs_f64(6.0));
        assert!(cluster.node(members[0]).is_none());
        assert_eq!(cluster.timeouts(), 1);
        assert_eq!(cluster.retries(), 3);
    }

    #[test]
    fn wiping_a_crash_stopped_node_never_recycles_its_op_ids() {
        let net = edge_network(2, 2);
        let members = net.topology().edge_nodes();
        let x = members[0];
        let site = net.topology().site_of(x);
        let mut cluster = SimCluster::new(members, net, ClusterConfig::default());
        let mut t = SimTime::ZERO;
        for i in 0..10u32 {
            let key = Bytes::from(i.to_be_bytes().to_vec());
            cluster.submit(t, x, ClientOp::Put(key, Bytes::from_static(b"v")));
            t += SimDuration::from_millis(10);
        }
        let done = cluster.run();
        assert_eq!(done.iter().map(|l| l.op_id.seq).max(), Some(9));
        cluster.crash_stop_at(SimTime::from_secs_f64(1.0), x);
        cluster.ring_outage_at(
            SimTime::from_secs_f64(2.0),
            SimTime::from_secs_f64(3.0),
            site,
        );
        cluster.submit(
            SimTime::from_secs_f64(4.0),
            x,
            ClientOp::Put(Bytes::from_static(b"after"), Bytes::from_static(b"v")),
        );
        let done = cluster.run();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].op_id.coordinator, x);
        assert!(
            done[0].op_id.seq > 9,
            "post-heal op reissued seq {}",
            done[0].op_id.seq
        );
    }

    /// Lifecycle states a member can be driven into through the public
    /// API.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Life {
        Up,
        Silent,
        Stopped,
        Wiped,
        Departed,
    }

    #[derive(Debug, Clone, Copy)]
    enum LifeEvent {
        Crash,
        Revive,
        CrashStop,
        Restart,
        Depart,
        RingWipe,
        RingHeal,
    }

    /// The state `event` leaves a member in `from`.
    fn expected_life(from: Life, event: LifeEvent) -> Life {
        use LifeEvent as E;
        match (from, event) {
            (Life::Departed, _) => Life::Departed,
            (_, E::Depart) => Life::Departed,
            (_, E::RingWipe) => Life::Wiped,
            (Life::Up | Life::Silent, E::Crash) => Life::Silent,
            (Life::Up | Life::Silent, E::Revive) => Life::Up,
            (Life::Up | Life::Silent, E::CrashStop) => Life::Stopped,
            (Life::Stopped, E::Restart) => Life::Up,
            (Life::Wiped, E::RingHeal) => Life::Up,
            (state, _) => state,
        }
    }

    /// Drives member 0 (alone in its site) into `from`, applies `event`
    /// and reports what the public API shows: whether the node has
    /// volatile state, whether it is departed, whether it acknowledges a
    /// replica write, and whether it has state after a restart attempt.
    fn observe_life(from: Life, event: LifeEvent) -> (bool, bool, bool, bool) {
        let topo = TopologyBuilder::new().edge_site(1).edge_site(2).build();
        let net = Network::new(topo, NetworkConfig::paper_testbed());
        let members = net.topology().edge_nodes();
        let (x, y) = (members[0], members[1]);
        let site = net.topology().site_of(x);
        let mut cluster = SimCluster::new(
            members,
            net,
            ClusterConfig {
                replication_factor: 3,
                consistency: Consistency::All,
                ..ClusterConfig::default()
            },
        );
        cluster.set_retry_policy(RetryPolicy::new(11));
        let at = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
        let far = at(60_000);
        if let LifeEvent::RingHeal = event {
            // Overlapping outages: the first wipes and heals x before it
            // enters `from`; the second's heal then fires on `from`.
            cluster.ring_outage_at(at(200), at(400), site);
            cluster.ring_outage_at(at(300), at(2_000), site);
        }
        match from {
            Life::Up => {}
            Life::Silent => cluster.crash_at(at(1_000), x),
            Life::Stopped => cluster.crash_stop_at(at(1_000), x),
            Life::Wiped => cluster.ring_outage_at(at(1_000), far, site),
            Life::Departed => cluster.depart_at(at(1_000), x),
        }
        match event {
            LifeEvent::Crash => cluster.crash_at(at(2_000), x),
            LifeEvent::Revive => cluster.revive_at(at(2_000), x),
            LifeEvent::CrashStop => cluster.crash_stop_at(at(2_000), x),
            LifeEvent::Restart => cluster.restart_at(at(2_000), x),
            LifeEvent::Depart => cluster.depart_at(at(2_000), x),
            LifeEvent::RingWipe => cluster.ring_outage_at(at(2_000), far, site),
            LifeEvent::RingHeal => {}
        }
        cluster.run_until(at(2_500));
        let has_state = cluster.node(x).is_some();
        let departed = cluster.is_departed(x);
        // An ALL write coordinated elsewhere needs x's ack.
        cluster.submit(
            at(2_500),
            y,
            ClientOp::Put(Bytes::from_static(b"probe"), Bytes::from_static(b"v")),
        );
        let done = cluster.run_until(at(20_000));
        assert_eq!(done.len(), 1);
        let answers = done[0].result == OpResult::Written;
        cluster.restart_at(at(20_000), x);
        cluster.run_until(at(21_000));
        (has_state, departed, answers, cluster.node(x).is_some())
    }

    #[test]
    fn every_lifecycle_transition_matches_the_table() {
        let states = [
            Life::Up,
            Life::Silent,
            Life::Stopped,
            Life::Wiped,
            Life::Departed,
        ];
        let events = [
            LifeEvent::Crash,
            LifeEvent::Revive,
            LifeEvent::CrashStop,
            LifeEvent::Restart,
            LifeEvent::Depart,
            LifeEvent::RingWipe,
            LifeEvent::RingHeal,
        ];
        for from in states {
            for event in events {
                let to = expected_life(from, event);
                // (has state, departed, answers ops, has state after a restart)
                let want = match to {
                    Life::Up => (true, false, true, true),
                    Life::Silent => (true, false, false, true),
                    Life::Stopped => (false, false, false, true),
                    Life::Wiped => (false, false, false, false),
                    Life::Departed => (false, true, false, false),
                };
                assert_eq!(
                    observe_life(from, event),
                    want,
                    "{from:?} --{event:?}--> expected {to:?}"
                );
            }
        }
    }
}

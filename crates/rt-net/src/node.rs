//! A network node: one address space of the DGC, listening on a real
//! TCP socket and hosting many activities.
//!
//! Mirrors the structure proven by `dgc-rt-thread` — a single event
//! loop owns every hosted [`DgcState`] and wall-clock tick — but the
//! mailbox is fed by sockets instead of in-process channels:
//!
//! ```text
//!            ┌────────────── NetNode (handle) ───────────────┐
//!  control → │ event loop: endpoints, ticks, routing         │
//!            │   ├─ outbound links (peer.rs): msgs out       │
//!            │   └─ reply senders: responses/failures back   │
//!            │ acceptor ─ reader thread per inbound conn     │
//!            └───────────────────────────────────────────────┘
//! ```
//!
//! Routing discipline (paper §2.2): DGC **messages** and application
//! **requests** go over the link this node *initiates* toward the
//! referenced node; **responses**, reply payloads and send-failure
//! notifications go back over whichever socket the peer opened to us.
//! A node behind a NAT that can open connections but not accept them
//! still collects correctly.
//!
//! Every outgoing unit crosses the node's **egress plane**
//! ([`dgc_core::egress::Outbox`]): one per-destination outbox whose
//! flush policy coalesces heartbeats, gossip digests and application
//! payloads into shared frames — an app send flushes its destination
//! immediately and carries the queued background units for free, while
//! pure background traffic lingers at most the policy's `max_delay`.
//! The link writers in [`crate::peer`] just write what the outbox
//! flushes: one flush, one frame.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;

use parking_lot::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dgc_core::egress::{EgressObs, Flush, FlushReason, Outbox};
use dgc_core::id::AoId;
use dgc_core::message::{Action, TerminateReason};
use dgc_core::protocol::DgcState;
use dgc_core::sweep::{sweep_sharded, DueTable, SweepPools, SweepUnit};
use dgc_core::telemetry::DgcObs;
use dgc_core::units::Time;
use dgc_membership::{
    Digest, Membership, MembershipEvent, MembershipObs, NodeRecord, NodeStatus, Transition,
};
use dgc_obs::{Registry, TimeSource, TraceLevel, Tracer};
use dgc_plane::{
    AuthKey, AuthMsg, Authenticator, Envelope, MiddlewareCtx, Pipeline, Step, TenantCounters,
    TenantId, TenantLedger, TenantMap, Verdict,
};

use crate::config::{IoEngine, NetConfig};
use crate::frame::{encode_frame, Frame, FrameDecoder, Item, GOSSIP_ANYCAST, PROTOCOL_VERSION};
use crate::peer::{spawn_reply_writer, OutboundLink};
use crate::reactor::{Notice, Reactor};
use crate::stats::{NetStats, NetStatsSnapshot};

/// Polls `check` every couple of milliseconds until it holds or
/// `deadline` passes; shared by the node- and cluster-level
/// `wait_until` drivers.
pub(crate) fn poll_until(deadline: Duration, check: impl Fn() -> bool) -> bool {
    // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
    let start = Instant::now();
    loop {
        if check() {
            return true;
        }
        if start.elapsed() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The event loop's ingress handle: the mpsc sender every producer
/// feeds, plus — reactor engine only — the poller waker that interrupts
/// a loop parked in [`Reactor::poll`] rather than on the channel. With
/// the threaded engine the waker is `None` and this is a plain sender.
#[derive(Clone)]
pub(crate) struct LoopSender {
    tx: mpsc::Sender<Event>,
    waker: Option<Arc<polling::Waker>>,
}

impl LoopSender {
    pub(crate) fn new(tx: mpsc::Sender<Event>, waker: Option<Arc<polling::Waker>>) -> LoopSender {
        LoopSender { tx, waker }
    }

    /// Enqueues `event` and nudges the loop awake. Fails exactly when
    /// the underlying channel does (the loop is gone).
    pub(crate) fn send(&self, event: Event) -> Result<(), mpsc::SendError<Event>> {
        self.tx.send(event)?;
        if let Some(w) = &self.waker {
            w.wake();
        }
        Ok(())
    }
}

/// Joins the transport's helper threads — socket readers, reply
/// writers, join dialers — at node shutdown. They used to be detached
/// ("they exit on EOF anyway"), which was true but unaccounted: under
/// crash/rejoin churn the exited-but-unjoined carcasses and any reader
/// wedged on a half-dead socket accumulated real OS threads. Every
/// helper registers here; [`ThreadReaper::join_all`] reaps them after
/// the sockets are shut down.
#[derive(Default)]
pub(crate) struct ThreadReaper {
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl ThreadReaper {
    /// Tracks `handle` for shutdown, dropping already-finished entries
    /// so a long-lived node's list stays proportional to *live*
    /// helpers, not historical churn.
    pub(crate) fn register(&self, handle: JoinHandle<()>) {
        let mut handles = self.handles.lock();
        handles.retain(|h| !h.is_finished());
        handles.push(handle);
    }

    /// Joins every tracked thread, looping until the list stays empty
    /// (a reader being joined may have just registered the reply writer
    /// it spawned). Callers must have unblocked the threads first —
    /// sockets shut down, channels closed.
    pub(crate) fn join_all(&self) {
        loop {
            let drained: Vec<JoinHandle<()>> = {
                let mut handles = self.handles.lock();
                std::mem::take(&mut *handles)
            };
            if drained.is_empty() {
                return;
            }
            for h in drained {
                let _ = h.join();
            }
        }
    }
}

/// Bounded exponential backoff for transient `accept` errors (EMFILE,
/// ECONNABORTED, ENFILE): both engines' accept paths count the error
/// and wait this out instead of spinning — or worse, treating it as
/// fatal and going silently deaf to inbound connections.
pub(crate) struct AcceptBackoff {
    consecutive: u32,
}

impl AcceptBackoff {
    const BASE: Duration = Duration::from_millis(10);
    const CAP: Duration = Duration::from_millis(500);

    pub(crate) fn new() -> AcceptBackoff {
        AcceptBackoff { consecutive: 0 }
    }

    /// A successful accept ends the episode.
    pub(crate) fn on_success(&mut self) {
        self.consecutive = 0;
    }

    /// Records one failed accept (the `net.accept_errors` counter) and
    /// returns how long to back off: 10ms doubling to a 500ms cap, so
    /// a descriptor-exhaustion episode retries promptly but a
    /// persistent failure cannot busy-loop the acceptor.
    pub(crate) fn on_error(&mut self, stats: &NetStats) -> Duration {
        stats.on_accept_error();
        let wait = Self::BASE
            .saturating_mul(1u32 << self.consecutive.min(6))
            .min(Self::CAP);
        self.consecutive = self.consecutive.saturating_add(1);
        wait
    }
}

/// A recorded termination, visible to drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Terminated {
    /// Which activity ended.
    pub ao: AoId,
    /// Why.
    pub reason: TerminateReason,
}

/// One application unit delivered to this node, in arrival order —
/// what the piggyback/FIFO tests assert over. Also the shape of a
/// **failed** outgoing unit in [`NetNode::app_send_failures`]: an app
/// payload the transport accepted but could not deliver (departed
/// peer, dead link with no reply path) is handed back, not dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppReceived {
    /// Sending activity.
    pub from: AoId,
    /// Destination activity (hosted here).
    pub to: AoId,
    /// True for a reply payload.
    pub reply: bool,
    /// The opaque payload.
    pub payload: Vec<u8>,
}

/// An outgoing application unit produced by an [`AppHandler`]; routed
/// through the egress plane exactly like [`NetNode::send_app`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppSend {
    /// Sending activity (hosted on the handling node).
    pub from: AoId,
    /// Destination activity.
    pub to: AoId,
    /// True for a reply payload.
    pub reply: bool,
    /// The opaque payload.
    pub payload: Vec<u8>,
}

/// The boxed dispatch function inside an [`AppHandler`].
type AppHandlerFn = Box<dyn FnMut(&AppReceived) -> Vec<AppSend> + Send>;

/// An application dispatch hook, run **on the node's event loop** for
/// every delivered [`Item::App`]. The units it returns are routed
/// through the egress plane in the same sweep — a server answering a
/// request therefore gets its reply into the very frame window the
/// request's piggybacked heartbeats rode in on. While a handler is
/// registered the test inbox ([`NetNode::app_received`]) is bypassed.
pub struct AppHandler(AppHandlerFn);

impl AppHandler {
    /// Wraps a dispatch function.
    pub fn new(f: impl FnMut(&AppReceived) -> Vec<AppSend> + Send + 'static) -> AppHandler {
        AppHandler(Box::new(f))
    }
}

impl std::fmt::Debug for AppHandler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AppHandler")
    }
}

/// Point-in-time occupancy of a node's egress plane, for tests and
/// diagnostics (see [`NetNode::egress_pending`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EgressPending {
    /// Units queued across all destinations.
    pub items: usize,
    /// Payload bytes queued across all destinations.
    pub bytes: u64,
    /// The earliest scheduled flush deadline, if anything is queued.
    pub next_deadline: Option<Time>,
}

/// Everything the event loop can be asked to process.
#[derive(Debug)]
pub enum Event {
    /// A protocol unit, from a socket or the local loopback.
    Item(Item),
    /// An outgoing protocol unit from the driver (application sends):
    /// routed through the egress plane like everything else.
    Send {
        /// The unit to route.
        item: Item,
    },
    /// Graceful departure: announce [`NodeStatus::Left`], flush every
    /// farewell digest, stop gossiping, and acknowledge.
    Leave {
        /// Signalled once the farewells reached the link writers.
        ack: mpsc::Sender<()>,
    },
    /// An accepted connection finished its hello; responses for `node`
    /// now have a reply path.
    PeerLink {
        /// The remote node id.
        node: u32,
        /// Queue of the reply writer bound to that socket.
        tx: mpsc::Sender<Vec<Item>>,
    },
    /// Registers the listen address of a remote node.
    AddPeer {
        /// Remote node id.
        node: u32,
        /// Its listen address.
        addr: SocketAddr,
    },
    /// Hosts a new activity.
    AddActivity {
        /// Its id (allocated by the handle).
        id: AoId,
    },
    /// Marks an activity idle or busy.
    SetIdle {
        /// The activity.
        ao: AoId,
        /// New idleness.
        idle: bool,
    },
    /// The application serialized a reference `from → to`.
    AddRef {
        /// Referencer (hosted here).
        from: AoId,
        /// Referenced activity (anywhere).
        to: AoId,
    },
    /// The application dropped the reference `from → to`.
    DropRef {
        /// Referencer (hosted here).
        from: AoId,
        /// Referenced activity.
        to: AoId,
    },
    /// Stops the world: the event loop sleeps until the deadline,
    /// processing nothing and ticking nobody (models a long local-GC
    /// pause, the §4.2 hazard; deliveries queue up and land in a burst
    /// when the pause ends, exactly like the simulator's deferred
    /// events). An *absolute* deadline, not a span: a pause that
    /// queues behind another only extends the stall to the later end —
    /// the covering-union semantics of `FaultProfile::pause_end` —
    /// instead of serializing the full widths back to back.
    Pause {
        /// When the world resumes (already-past deadlines are no-ops).
        until: Instant,
    },
    /// An outbound link burned through `fail_after_attempts`: the peer
    /// is unreachable until further notice. With membership enabled
    /// this is a transport-level suspicion (the dead verdict still
    /// waits out the refutation window); without it, it is the
    /// *terminal* send failure — every hosted collector treats the
    /// node's activities as departed instead of retrying forever.
    PeerUnreachable {
        /// The unreachable node.
        node: u32,
        /// Everything the dead writer still had queued, handed back so
        /// the event loop can reroute it over the peer's reply socket
        /// (the forward direction failing says nothing about the
        /// reverse one) or surface it as send failures — never drop it.
        unsent: Vec<Item>,
    },
    /// A link writer could not ship these units and cannot retry them:
    /// stragglers caught in the window between a terminal conviction
    /// and the node dropping the link (rerouted over the peer's reply
    /// socket if one is live), or units lost to a backlogged queue's
    /// overflow shedding / a dying reply socket (failed outright — the
    /// peer may still be fine, so no reroute that could reorder or
    /// duplicate what the live path will deliver).
    Undeliverable {
        /// The peer the units were bound for.
        node: u32,
        /// The units.
        items: Vec<Item>,
        /// Try the reply path before surfacing failures.
        reroute: bool,
    },
    /// A join-probe dialer opened this socket and already wrote the
    /// hello and probe digest; the transport reads the seed's gossip
    /// replies off it (a detached reader thread on the threaded
    /// engine, an adopted reactor connection otherwise).
    AdoptSocket {
        /// The probe connection, handshake already sent.
        stream: TcpStream,
    },
    /// Installs (or replaces) the application dispatch hook.
    SetAppHandler {
        /// The hook; delivered app units stop landing in the inbox.
        handler: AppHandler,
    },
    /// Installs (or replaces) the node's envelope middleware pipeline:
    /// every application payload — outgoing and incoming — traverses
    /// its stages on the event loop.
    SetPipeline {
        /// The stage chain (not `Copy`, hence an event, not config).
        pipeline: Pipeline,
    },
    /// Assigns a hosted (or remote) activity to a tenant namespace.
    RegisterTenant {
        /// The activity.
        ao: AoId,
        /// Its tenant ([`TenantId::DEFAULT`] unregisters).
        tenant: TenantId,
    },
    /// Reports the per-tenant app-plane traffic ledger (tests,
    /// conservation checks).
    QueryTenants {
        /// Where to send the snapshot.
        reply: mpsc::Sender<Vec<(TenantId, TenantCounters)>>,
    },
    /// Reports the egress plane's current occupancy (tests).
    QueryEgress {
        /// Where to send the snapshot.
        reply: mpsc::Sender<EgressPending>,
    },
    /// Reports the egress plane's lifetime counters (tests,
    /// conservation checks against the telemetry registry).
    QueryEgressStats {
        /// Where to send the counters.
        reply: mpsc::Sender<dgc_core::egress::EgressStats>,
    },
    /// Stops the event loop.
    Shutdown,
}

struct Endpoint {
    state: DgcState,
    idle: bool,
}

/// Registry of every live socket a node's reader threads are blocked
/// on, so shutdown can unblock them all with `Shutdown::Both`. Entries
/// remove themselves when their reader exits (no fd accumulation on
/// flapping links).
#[derive(Debug, Default)]
pub(crate) struct SocketTracker {
    sockets: Mutex<HashMap<u64, TcpStream>>,
    next: AtomicU64,
}

impl SocketTracker {
    /// Registers a clone of `stream`; the returned guard unregisters it
    /// when dropped.
    pub(crate) fn register(self: &Arc<Self>, stream: &TcpStream) -> Option<TrackedSocket> {
        let clone = stream.try_clone().ok()?;
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.sockets.lock().insert(id, clone);
        Some(TrackedSocket {
            tracker: Arc::clone(self),
            id,
        })
    }

    /// Shuts down every registered socket, unblocking its reader.
    pub(crate) fn shutdown_all(&self) {
        for s in self.sockets.lock().values() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

pub(crate) struct TrackedSocket {
    tracker: Arc<SocketTracker>,
    id: u64,
}

impl Drop for TrackedSocket {
    fn drop(&mut self) {
        self.tracker.sockets.lock().remove(&self.id);
    }
}

/// A running DGC node bound to a TCP listener.
pub struct NetNode {
    node_id: u32,
    addr: SocketAddr,
    config: NetConfig,
    incarnation: u64,
    tx: LoopSender,
    next_index: AtomicU32,
    stats: Arc<NetStats>,
    obs: Registry,
    terminated: Arc<Mutex<Vec<Terminated>>>,
    app_log: Arc<Mutex<Vec<AppReceived>>>,
    app_failures: Arc<Mutex<Vec<AppReceived>>>,
    member_events: Arc<Mutex<Vec<MembershipEvent>>>,
    member_snapshot: Arc<Mutex<Option<Vec<NodeRecord>>>>,
    shutting_down: Arc<AtomicBool>,
    tracker: Arc<SocketTracker>,
    reaper: Arc<ThreadReaper>,
    loop_handle: Option<JoinHandle<()>>,
    acceptor_handle: Option<JoinHandle<()>>,
}

impl NetNode {
    /// Binds `node_id` to a fresh ephemeral port on `127.0.0.1` and
    /// starts its event loop and acceptor. First lives run as
    /// incarnation 1; see [`NetNode::bind_rejoin`] for crash-restarts.
    ///
    /// # Panics
    ///
    /// Panics if `config.dgc` violates the TTA safety formula.
    pub fn bind(node_id: u32, config: NetConfig) -> std::io::Result<NetNode> {
        NetNode::bind_rejoin(node_id, config, 1, 0)
    }

    /// Binds a **restarted** node: announces itself under
    /// `incarnation` (must exceed every incarnation this node id lived
    /// before, so its membership record supersedes its own corpse) and
    /// allocates activity indices from `first_index` (so rejoin-era
    /// activities never reuse the ids that died in the crash).
    pub fn bind_rejoin(
        node_id: u32,
        config: NetConfig,
        incarnation: u64,
        first_index: u32,
    ) -> std::io::Result<NetNode> {
        config.dgc.validate().expect("unsafe TTB/TTA configuration");
        assert_eq!(
            config.reactor_shards, 1,
            "multi-shard reactor loops are a roadmap follow-on; reactor_shards must be 1"
        );
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        // The telemetry plane: one registry per node, timestamps
        // anchored at the worker's epoch so traces and histograms read
        // in nanoseconds-since-boot, same shape as the grid's virtual
        // clock.
        // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
        let epoch = Instant::now();
        let obs = Registry::with_tracer(
            TimeSource::wall_since(epoch),
            Tracer::new(config.trace, dgc_obs::trace::DEFAULT_CAPACITY),
        );
        let stats = NetStats::shared_with_obs(&obs);
        let terminated = Arc::new(Mutex::new(Vec::new()));
        let app_log = Arc::new(Mutex::new(Vec::new()));
        let app_failures = Arc::new(Mutex::new(Vec::new()));
        let member_events = Arc::new(Mutex::new(Vec::new()));
        let shutting_down = Arc::new(AtomicBool::new(false));
        let tracker = Arc::new(SocketTracker::default());
        let reaper = Arc::new(ThreadReaper::default());

        // Engine selection. The reactor takes the listener onto its
        // readiness loop (no acceptor thread at all) and hands out the
        // waker that lets event senders interrupt a parked poll; the
        // threaded engine keeps the listener for its blocking acceptor.
        let mut listener = Some(listener);
        let (links, waker) = match config.engine {
            IoEngine::Reactor => {
                let reactor = Reactor::new(
                    node_id,
                    listener.take().expect("listener is present"),
                    config,
                    Arc::clone(&stats),
                )?;
                let waker = reactor.waker();
                (Links::Reactor(Box::new(reactor)), Some(waker))
            }
            IoEngine::Threaded => (
                Links::Threaded {
                    outbound: HashMap::new(),
                    reply: HashMap::new(),
                },
                None,
            ),
        };
        let (raw_tx, rx) = mpsc::channel();
        let tx = LoopSender::new(raw_tx, waker);

        let membership = config.membership.map(|m| {
            let mut engine = Membership::new(node_id, Some(addr), incarnation, Time::ZERO, m);
            engine.set_obs(MembershipObs::new(&obs));
            engine
        });
        let member_snapshot = Arc::new(Mutex::new(membership.as_ref().map(|m| m.records())));
        // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
        let next_member_tick = membership.as_ref().map(|_| Instant::now());
        let mut outbox = Outbox::new(config.egress);
        outbox.set_obs(EgressObs::new(&obs));
        let mut ledger = TenantLedger::new();
        ledger.set_obs(obs.clone());
        let worker = Worker {
            node_id,
            config,
            rx,
            loopback: tx.clone(),
            endpoints: DueTable::new(),
            peer_addrs: HashMap::new(),
            links,
            outbox,
            sweep_pools: SweepPools::new(),
            msg_units: Vec::new(),
            pipeline: Pipeline::new(),
            tenants: TenantMap::default(),
            ledger,
            obs: obs.clone(),
            epoch,
            membership,
            next_member_tick,
            member_events: Arc::clone(&member_events),
            member_snapshot: Arc::clone(&member_snapshot),
            stats: Arc::clone(&stats),
            terminated: Arc::clone(&terminated),
            app_log: Arc::clone(&app_log),
            app_failures: Arc::clone(&app_failures),
            app_handler: None,
            shutting_down: Arc::clone(&shutting_down),
            tracker: Arc::clone(&tracker),
            reaper: Arc::clone(&reaper),
        };
        let loop_handle = std::thread::Builder::new()
            .name(format!("dgc-net-node-{node_id}"))
            .spawn(move || worker.run())
            .expect("spawn node event loop");

        // Threaded engine only: the reactor (which consumed the
        // listener above) serves accepts from its own loop.
        let acceptor_handle = listener.map(|listener| {
            let acceptor = Acceptor {
                ctx: ReaderCtx {
                    node_id,
                    events: tx.clone(),
                    stats: Arc::clone(&stats),
                    tracker: Arc::clone(&tracker),
                    reaper: Arc::clone(&reaper),
                    max_link_pending: config.max_link_pending,
                    auth: config.auth,
                    handshake_timeout: config.handshake_timeout,
                },
                shutting_down: Arc::clone(&shutting_down),
            };
            std::thread::Builder::new()
                .name(format!("dgc-net-accept-{node_id}"))
                .spawn(move || acceptor.run_with(move || listener.accept().map(|(s, _)| s)))
                .expect("spawn acceptor")
        });

        Ok(NetNode {
            node_id,
            addr,
            config,
            incarnation,
            tx,
            next_index: AtomicU32::new(first_index),
            stats,
            obs,
            terminated,
            app_log,
            app_failures,
            member_events,
            member_snapshot,
            shutting_down,
            tracker,
            reaper,
            loop_handle: Some(loop_handle),
            acceptor_handle,
        })
    }

    /// This node's id (the `AoId::node` namespace it allocates from).
    pub fn node_id(&self) -> u32 {
        self.node_id
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Registers a remote node's listen address; links are established
    /// lazily on first routed message.
    pub fn add_peer(&self, node: u32, addr: SocketAddr) {
        let _ = self.tx.send(Event::AddPeer { node, addr });
    }

    /// The incarnation this node announces (1 for first lives).
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// How many activity indices this node has handed out; a restart
    /// passes this as `first_index` so ids are never reused.
    pub fn allocated(&self) -> u32 {
        self.next_index.load(Ordering::Relaxed)
    }

    /// Bootstraps membership from `seeds` — listen addresses of any
    /// already-running nodes (typically one). Replaces static
    /// registration: a detached dialer per seed sends a join probe
    /// (hello + a one-record anycast gossip digest); the seed learns
    /// `{node id, address}` from the record, replies with its full
    /// directory over the same socket, and anti-entropy spreads the
    /// join. Dialers retry until the directory shows a peer, the node
    /// shuts down, or the attempts run out.
    ///
    /// # Panics
    ///
    /// Panics if the node was bound without `config.membership`.
    pub fn join(&self, seeds: &[SocketAddr]) {
        assert!(
            self.config.membership.is_some(),
            "NetNode::join needs membership enabled in NetConfig"
        );
        let record = NodeRecord {
            node: self.node_id,
            incarnation: self.incarnation,
            status: NodeStatus::Alive,
            addr: Some(self.addr),
        };
        let auth = self.config.auth;
        let handshake_timeout = self.config.handshake_timeout;
        for seed in seeds {
            let seed = *seed;
            let probe_hello = encode_frame(&Frame::Hello {
                node: self.node_id,
                version: PROTOCOL_VERSION,
            });
            // Version 0 is safely below any live engine's counter, so
            // the seed treats the probe as "nothing applied yet" and
            // replies with a full sync.
            let probe_digest = encode_frame(&Frame::Batch(vec![Item::Gossip {
                from: self.node_id,
                to: GOSSIP_ANYCAST,
                digest: Digest {
                    version: 0,
                    ack: 0,
                    full: false,
                    records: vec![record],
                },
            }]));
            let node_id = self.node_id;
            let events = self.tx.clone();
            let stats = Arc::clone(&self.stats);
            let shutting_down = Arc::clone(&self.shutting_down);
            let snapshot = Arc::clone(&self.member_snapshot);
            let handle = std::thread::Builder::new()
                .name(format!("dgc-net-join-{node_id}"))
                .spawn(move || {
                    for _ in 0..40 {
                        if shutting_down.load(Ordering::SeqCst) {
                            return;
                        }
                        let introduced = snapshot
                            .lock()
                            .as_ref()
                            .is_some_and(|records| records.len() > 1);
                        if introduced {
                            return; // some seed already answered
                        }
                        if let Ok(mut stream) =
                            TcpStream::connect_timeout(&seed, Duration::from_millis(500))
                        {
                            let _ = stream.set_nodelay(true);
                            // With auth on, the seed accepts nothing —
                            // the probe digest included — until the
                            // challenge/response after our hello
                            // succeeds. Adopted sockets are therefore
                            // always pre-authenticated.
                            let introduced_ok = stream.write_all(&probe_hello).is_ok()
                                && match auth {
                                    Some(key) => client_auth_handshake(
                                        &mut stream,
                                        key,
                                        handshake_timeout,
                                        &stats,
                                    ),
                                    None => true,
                                };
                            if introduced_ok && stream.write_all(&probe_digest).is_ok() {
                                stats.on_frame_sent(
                                    1,
                                    (probe_hello.len() + probe_digest.len()) as u64,
                                );
                                // The seed replies over this same socket
                                // (its reply path binds to our hello), so
                                // hand it to the transport to read — the
                                // event loop picks the engine-appropriate
                                // way (detached reader or adopted
                                // reactor connection).
                                if events.send(Event::AdoptSocket { stream }).is_err() {
                                    return;
                                }
                            }
                        }
                        // Sliced, so shutdown never waits out the retry.
                        // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
                        let deadline = Instant::now() + Duration::from_millis(250);
                        // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
                        while Instant::now() < deadline {
                            if shutting_down.load(Ordering::SeqCst) {
                                return;
                            }
                            std::thread::sleep(Duration::from_millis(25));
                        }
                    }
                });
            if let Ok(handle) = handle {
                self.reaper.register(handle);
            }
        }
    }

    /// Membership transitions observed so far (join/suspect/dead/...).
    pub fn membership_events(&self) -> Vec<MembershipEvent> {
        self.member_events.lock().clone()
    }

    /// Snapshot of the membership directory; `None` when the layer is
    /// disabled.
    pub fn member_records(&self) -> Option<Vec<NodeRecord>> {
        self.member_snapshot.lock().clone()
    }

    /// Blocks until `predicate` holds over the membership directory or
    /// the deadline passes; returns whether it held.
    pub fn wait_membership_until(
        &self,
        deadline: Duration,
        predicate: impl Fn(&[NodeRecord]) -> bool,
    ) -> bool {
        poll_until(deadline, || {
            self.member_records().is_some_and(|r| predicate(&r))
        })
    }

    /// Creates an activity on this node (initially busy); returns its id.
    pub fn add_activity(&self) -> AoId {
        let index = self.next_index.fetch_add(1, Ordering::Relaxed);
        let id = AoId::new(self.node_id, index);
        let _ = self.tx.send(Event::AddActivity { id });
        id
    }

    /// Declares `ao` (hosted here) idle or busy.
    pub fn set_idle(&self, ao: AoId, idle: bool) {
        let _ = self.tx.send(Event::SetIdle { ao, idle });
    }

    /// Adds the reference edge `from → to`; `from` must be hosted here.
    pub fn add_ref(&self, from: AoId, to: AoId) {
        let _ = self.tx.send(Event::AddRef { from, to });
    }

    /// Drops the reference edge `from → to`; `from` must be hosted here.
    pub fn drop_ref(&self, from: AoId, to: AoId) {
        let _ = self.tx.send(Event::DropRef { from, to });
    }

    /// Sends an opaque application unit from `from` (hosted here) to
    /// `to`. Application sends are the egress plane's flush trigger:
    /// the destination's queued heartbeats and gossip digests ride the
    /// same frame (`reply = true` payloads travel back over the socket
    /// the peer opened, like DGC responses).
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds [`crate::frame::MAX_APP_PAYLOAD`] —
    /// rejected here, on the caller's thread, so an oversized payload
    /// can never reach (and kill) a link writer mid-frame.
    pub fn send_app(&self, from: AoId, to: AoId, reply: bool, payload: Vec<u8>) {
        assert!(
            payload.len() <= crate::frame::MAX_APP_PAYLOAD,
            "app payload of {} bytes exceeds MAX_APP_PAYLOAD ({}); \
             stream bulk data on its own connection",
            payload.len(),
            crate::frame::MAX_APP_PAYLOAD
        );
        let _ = self.tx.send(Event::Send {
            item: Item::App {
                from,
                to,
                reply,
                // The worker's tenant map is the authority; the wire
                // field is stamped by the outgoing pipeline.
                tenant: TenantId::DEFAULT.0,
                payload: payload.into(),
            },
        });
    }

    /// Application units delivered to this node so far, in arrival
    /// order. Empty while an [`AppHandler`] is registered — dispatch
    /// replaces the inbox.
    pub fn app_received(&self) -> Vec<AppReceived> {
        self.app_log.lock().clone()
    }

    /// Registers the application dispatch hook: every delivered app
    /// unit runs through `f` on the event loop instead of landing in
    /// the [`NetNode::app_received`] inbox, and the sends `f` returns
    /// are routed through the egress plane immediately.
    pub fn set_app_handler(&self, f: impl FnMut(&AppReceived) -> Vec<AppSend> + Send + 'static) {
        let _ = self.tx.send(Event::SetAppHandler {
            handler: AppHandler::new(f),
        });
    }

    /// Installs the node's envelope middleware pipeline: every app
    /// payload, outgoing and incoming, traverses its stages on the
    /// event loop ([`dgc_plane::Pipeline::standard`] gives the
    /// authenticated, tenant-isolating default).
    pub fn set_pipeline(&self, pipeline: Pipeline) {
        let _ = self.tx.send(Event::SetPipeline { pipeline });
    }

    /// Assigns `ao` to `tenant`'s namespace. Tenancy is a node-local
    /// map over activity ids, so remote activities can (and in a
    /// multi-tenant cluster should) be registered too — the
    /// [`dgc_plane::TenantIsolation`] stage consults it for both ends
    /// of every envelope. [`TenantId::DEFAULT`] unregisters.
    pub fn register_tenant(&self, ao: AoId, tenant: TenantId) {
        let _ = self.tx.send(Event::RegisterTenant { ao, tenant });
    }

    /// The per-tenant app-plane traffic ledger, answered through the
    /// event loop like [`NetNode::egress_stats`]. Each tenant's
    /// counters obey `enqueued = flushed + returned + pending`; `None`
    /// means the event loop did not answer.
    pub fn tenant_snapshot(&self) -> Option<Vec<(TenantId, TenantCounters)>> {
        let (reply, rx) = mpsc::channel();
        self.tx.send(Event::QueryTenants { reply }).ok()?;
        rx.recv_timeout(Duration::from_secs(2)).ok()
    }

    /// Outgoing application units the transport accepted but could not
    /// deliver (departed peer, terminal link without a reply path) —
    /// the send-failure surface of the app plane, in failure order.
    pub fn app_send_failures(&self) -> Vec<AppReceived> {
        self.app_failures.lock().clone()
    }

    /// The egress plane's current occupancy: queued units, queued
    /// bytes, and the earliest flush deadline. Answers through the
    /// event loop, so the snapshot is ordered after everything sent
    /// before the call. Tests use it to assert a departed peer's queue
    /// (and its wakeup) are actually reclaimed; `None` means the event
    /// loop did not answer (gone or wedged) — deliberately *not* an
    /// empty snapshot, so a reclamation test can never pass vacuously
    /// against a dead loop.
    pub fn egress_pending(&self) -> Option<EgressPending> {
        let (reply, rx) = mpsc::channel();
        self.tx.send(Event::QueryEgress { reply }).ok()?;
        rx.recv_timeout(Duration::from_secs(2)).ok()
    }

    /// The egress plane's lifetime counters ([`EgressStats`]), answered
    /// through the event loop like [`NetNode::egress_pending`]. The
    /// conservation tests compare these legacy counters against the
    /// node registry's `egress.*` mirrors; `None` means the event loop
    /// did not answer.
    pub fn egress_stats(&self) -> Option<dgc_core::egress::EgressStats> {
        let (reply, rx) = mpsc::channel();
        self.tx.send(Event::QueryEgressStats { reply }).ok()?;
        rx.recv_timeout(Duration::from_secs(2)).ok()
    }

    /// Graceful departure (no-op without membership): announces
    /// [`NodeStatus::Left`], flushes the farewell digests to every
    /// present peer and stops gossiping. Returns once the farewells
    /// reached the link writers (plus a short grace for the sockets),
    /// so a [`NetNode::shutdown`] right after does not sever them
    /// mid-write. Peers treat the `Left` verdict like a dead one for
    /// collection purposes — the node's referencers are gone — but
    /// without the suspicion delay.
    pub fn leave(&self) -> bool {
        let acked = self
            .leave_begin()
            .is_some_and(|rx| rx.recv_timeout(Duration::from_secs(1)).is_ok());
        if acked {
            // The writers own the sockets; give them a beat to push the
            // farewell frames out before any teardown severs them.
            std::thread::sleep(Duration::from_millis(25));
        }
        acked
    }

    /// The non-blocking half of [`NetNode::leave`]: queues the
    /// departure and returns the ack channel (`None` if the event loop
    /// is already gone). A caller tearing several nodes down — e.g.
    /// `Cluster`'s drop — starts every leave first, then waits the
    /// acks and one shared socket grace, instead of paying the grace
    /// per node.
    pub(crate) fn leave_begin(&self) -> Option<mpsc::Receiver<()>> {
        let (ack, ack_rx) = mpsc::channel();
        self.tx.send(Event::Leave { ack }).ok()?;
        Some(ack_rx)
    }

    /// Stops this node's world until `now + d`: no TTB ticks fire and
    /// no deliveries are processed until the pause ends (the §4.2
    /// local-GC-pause hazard, injectable on demand). The deadline is
    /// anchored *here*, at request time — a busy event loop that
    /// dequeues the request late stalls correspondingly less, it does
    /// not overshoot.
    pub fn pause_for(&self, d: Duration) {
        let _ = self.tx.send(Event::Pause {
            // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
            until: Instant::now() + d,
        });
    }

    /// Clone of the event-loop sender, for in-crate fault schedulers.
    pub(crate) fn event_sender(&self) -> LoopSender {
        self.tx.clone()
    }

    /// Snapshot of terminations recorded on this node.
    pub fn terminated(&self) -> Vec<Terminated> {
        self.terminated.lock().clone()
    }

    /// Transport counters for this node.
    pub fn stats(&self) -> NetStatsSnapshot {
        self.stats.snapshot()
    }

    /// This node's telemetry plane: the registry every layer records
    /// into (`net.*` transport mirrors, `egress.*` flush metrics,
    /// `dgc.*` collection latencies, `member.*` verdict transitions)
    /// plus the tracer ring behind `config.trace`.
    pub fn obs(&self) -> &Registry {
        &self.obs
    }

    /// Blocks until `predicate` holds over this node's termination log
    /// or the deadline passes; returns whether it held.
    pub fn wait_until(
        &self,
        deadline: Duration,
        predicate: impl Fn(&[Terminated]) -> bool,
    ) -> bool {
        poll_until(deadline, || predicate(&self.terminated()))
    }

    /// Stops the event loop, acceptor and link threads and joins them.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        let _ = self.tx.send(Event::Shutdown);
        // Shut every live socket down *before* joining: the event loop
        // join transitively joins writer threads, and a writer blocked
        // in `write_all` against a peer that stopped reading can only
        // be unblocked by killing its connection (each connection's
        // reader registered a clone covering the whole socket).
        self.tracker.shutdown_all();
        if let Some(h) = self.loop_handle.take() {
            let _ = h.join();
        }
        if let Some(h) = self.acceptor_handle.take() {
            // Wake the blocking accept with a throwaway connection
            // (reactor nodes have no acceptor thread to wake).
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
            let _ = h.join();
        }
        // Again, for connections established during the join window.
        self.tracker.shutdown_all();
        // Everything is unblocked (sockets severed, channels closed):
        // reap the reader/reply/dialer threads so churn leaves nothing.
        self.reaper.join_all();
    }
}

impl Drop for NetNode {
    fn drop(&mut self) {
        if self.loop_handle.is_some() || self.acceptor_handle.is_some() {
            self.stop();
        }
    }
}

/// Everything a socket-side helper (acceptor, reader, reply writer,
/// outbound link) needs from its node: identity, the event-loop
/// ingress, counters, the shutdown socket registry, the thread reaper,
/// and the per-link buffering bound.
#[derive(Clone)]
pub(crate) struct ReaderCtx {
    pub(crate) node_id: u32,
    pub(crate) events: LoopSender,
    pub(crate) stats: Arc<NetStats>,
    pub(crate) tracker: Arc<SocketTracker>,
    pub(crate) reaper: Arc<ThreadReaper>,
    pub(crate) max_link_pending: usize,
    /// When set, accepted connections must complete the `dgc-plane`
    /// challenge/response after their hello before any item passes.
    pub(crate) auth: Option<AuthKey>,
    /// Bound on how long an accepted connection may idle before its
    /// hello (and auth handshake, if any) completes.
    pub(crate) handshake_timeout: Duration,
}

/// The threaded engine's accept loop (the reactor serves accepts from
/// its readiness loop instead).
struct Acceptor {
    ctx: ReaderCtx,
    shutting_down: Arc<AtomicBool>,
}

impl Acceptor {
    /// Runs the accept loop with its accept source injected, so tests
    /// can feed it transient errors without exhausting real
    /// descriptors. Production passes `listener.accept()`.
    ///
    /// A failed accept backs off ([`AcceptBackoff`]) instead of either
    /// busy-looping or — the bug this replaces — ending inbound
    /// connectivity forever while the node looks healthy. The wait is
    /// sliced so shutdown never waits out a backoff.
    fn run_with(self, mut accept: impl FnMut() -> std::io::Result<TcpStream>) {
        let mut backoff = AcceptBackoff::new();
        loop {
            let stream = match accept() {
                Ok(stream) => stream,
                Err(_) => {
                    if self.shutting_down.load(Ordering::SeqCst) {
                        return;
                    }
                    // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
                    let deadline = Instant::now() + backoff.on_error(&self.ctx.stats);
                    // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
                    while Instant::now() < deadline {
                        if self.shutting_down.load(Ordering::SeqCst) {
                            return;
                        }
                        // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
                        let left = deadline.saturating_duration_since(Instant::now());
                        std::thread::sleep(left.min(Duration::from_millis(10)));
                    }
                    continue;
                }
            };
            backoff.on_success();
            if self.shutting_down.load(Ordering::SeqCst) {
                return;
            }
            // Readers exit on EOF/error, which `NetNode::stop` forces
            // via the tracker's `Shutdown::Both`; the reaper joins them.
            spawn_socket_reader(self.ctx.clone(), stream, true);
        }
    }
}

/// Spawns a thread decoding frames off `stream` into the event loop
/// (registered with the node's reaper). Used for both sides of the
/// link topology: accepted connections (`accept_hello = true`,
/// registering a reply path on the peer's hello) and the read half of
/// connections this node *initiated*, which is where the peer's
/// responses and failure notifications arrive.
///
/// Accepted connections are held to `ctx.handshake_timeout`: until the
/// hello — and, with `ctx.auth` set, the challenge/response that
/// follows it — completes, the socket reads under a deadline, and
/// expiry reclaims the slot (`net.handshake_timeouts`) instead of
/// parking a reader thread on a silent peer forever. With auth on, the
/// reply path is registered and items are accepted only *after* the
/// peer proves key possession; a batch before that, a bad MAC, or an
/// out-of-order handshake frame rejects the connection
/// (`net.auth_rejects`) — a link is authenticated or dead, never
/// half-trusted.
pub(crate) fn spawn_socket_reader(ctx: ReaderCtx, stream: TcpStream, accept_hello: bool) {
    let reaper = Arc::clone(&ctx.reaper);
    let handle = std::thread::Builder::new()
        .name(format!("dgc-net-read-{}", ctx.node_id))
        .spawn(move || {
            let mut stream = stream;
            // Registered for the reader's lifetime: node shutdown can
            // unblock this thread, and the entry leaves with it.
            let _tracked = ctx.tracker.register(&stream);
            let mut decoder = FrameDecoder::new();
            let mut chunk = [0u8; 16 * 1024];
            let mut peer: Option<u32> = None;
            // Initiated connections authenticated synchronously before
            // this reader existed (`client_auth_handshake`); accepted
            // ones must still earn it when a key is configured.
            let mut authenticated = !(accept_hello && ctx.auth.is_some());
            let mut responder: Option<Authenticator> = None;
            // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
            let mut deadline = accept_hello.then(|| Instant::now() + ctx.handshake_timeout);
            loop {
                if let Some(d) = deadline {
                    // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
                    let left = d.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        ctx.stats.on_handshake_timeout();
                        let _ = stream.shutdown(Shutdown::Both);
                        return;
                    }
                    let _ = stream.set_read_timeout(Some(left));
                }
                let n = match stream.read(&mut chunk) {
                    Ok(0) => return,
                    Ok(n) => n,
                    Err(e)
                        if deadline.is_some()
                            && matches!(
                                e.kind(),
                                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                            ) =>
                    {
                        ctx.stats.on_handshake_timeout();
                        let _ = stream.shutdown(Shutdown::Both);
                        return;
                    }
                    Err(_) => return,
                };
                ctx.stats.on_raw_received(n as u64);
                decoder.push(&chunk[..n]);
                loop {
                    match decoder.next_frame() {
                        Ok(None) => break,
                        Ok(Some(Frame::Hello { node, version })) => {
                            if version != PROTOCOL_VERSION {
                                ctx.stats.on_decode_error();
                                let _ = stream.shutdown(Shutdown::Both);
                                return;
                            }
                            ctx.stats.on_frame_received(0);
                            if accept_hello && peer.is_none() {
                                peer = Some(node);
                                match ctx.auth {
                                    // The hello names the peer, but the
                                    // reply path waits for its proof.
                                    Some(key) => {
                                        responder =
                                            Some(Authenticator::responder(key, fresh_nonce()));
                                    }
                                    None => {
                                        // Give the event loop a reply
                                        // path over this same socket
                                        // (firewall-transparent).
                                        if let Ok(w) = stream.try_clone() {
                                            let (tx, h) = spawn_reply_writer(&ctx, node, w);
                                            ctx.reaper.register(h);
                                            let _ = ctx.events.send(Event::PeerLink { node, tx });
                                        }
                                        deadline = None;
                                        let _ = stream.set_read_timeout(None);
                                    }
                                }
                            }
                        }
                        Ok(Some(
                            frame @ (Frame::AuthInit { .. }
                            | Frame::AuthChallenge { .. }
                            | Frame::AuthProof { .. }),
                        )) => {
                            ctx.stats.on_frame_received(0);
                            let msg = frame_to_auth(&frame)
                                .expect("auth frames convert to auth messages");
                            // Handshake frames are meaningful exactly
                            // once: on an accepted, hello'd, not yet
                            // authenticated connection of an auth-enabled
                            // node. Anywhere else they are an attack or
                            // a confused peer — same verdict.
                            let Some(machine) = responder.as_mut().filter(|_| !authenticated)
                            else {
                                ctx.stats.on_auth_reject();
                                let _ = stream.shutdown(Shutdown::Both);
                                return;
                            };
                            match machine.on_msg(&msg) {
                                Ok(Step::Send(reply) | Step::SendAndDone(reply)) => {
                                    let bytes = encode_frame(&auth_frame(&reply));
                                    if stream.write_all(&bytes).is_err() {
                                        return;
                                    }
                                    ctx.stats.on_frame_sent(0, bytes.len() as u64);
                                }
                                Ok(Step::Done) => {
                                    authenticated = true;
                                    ctx.stats.on_auth_ok();
                                    let node = peer.expect("hello preceded the handshake");
                                    if let Ok(w) = stream.try_clone() {
                                        let (tx, h) = spawn_reply_writer(&ctx, node, w);
                                        ctx.reaper.register(h);
                                        let _ = ctx.events.send(Event::PeerLink { node, tx });
                                    }
                                    deadline = None;
                                    let _ = stream.set_read_timeout(None);
                                }
                                Err(_) => {
                                    ctx.stats.on_auth_reject();
                                    let _ = stream.shutdown(Shutdown::Both);
                                    return;
                                }
                            }
                        }
                        Ok(Some(Frame::Batch(items))) => {
                            if !authenticated {
                                // No frame item is ever processed from
                                // a peer that has not proven the key.
                                ctx.stats.on_auth_reject();
                                let _ = stream.shutdown(Shutdown::Both);
                                return;
                            }
                            ctx.stats.on_frame_received(items.len() as u64);
                            for item in items {
                                if ctx.events.send(Event::Item(item)).is_err() {
                                    return; // node is shutting down
                                }
                            }
                        }
                        Err(_) => {
                            ctx.stats.on_decode_error();
                            let _ = stream.shutdown(Shutdown::Both);
                            return;
                        }
                    }
                }
            }
        });
    if let Ok(handle) = handle {
        reaper.register(handle);
    }
}

/// A `dgc-plane` handshake message as its wire frame.
pub(crate) fn auth_frame(msg: &AuthMsg) -> Frame {
    match *msg {
        AuthMsg::Init { nonce } => Frame::AuthInit { nonce },
        AuthMsg::Challenge { nonce, mac } => Frame::AuthChallenge { nonce, mac },
        AuthMsg::Proof { mac } => Frame::AuthProof { mac },
    }
}

/// The inverse of [`auth_frame`]; `None` for non-handshake frames.
pub(crate) fn frame_to_auth(frame: &Frame) -> Option<AuthMsg> {
    match *frame {
        Frame::AuthInit { nonce } => Some(AuthMsg::Init { nonce }),
        Frame::AuthChallenge { nonce, mac } => Some(AuthMsg::Challenge { nonce, mac }),
        Frame::AuthProof { mac } => Some(AuthMsg::Proof { mac }),
        _ => None,
    }
}

/// A fresh handshake nonce. Uniqueness is the whole requirement — the
/// MACs cover both sides' nonces, so an attacker without the key gains
/// nothing from predicting one — and a process-wide counter folded
/// through SHA-256 with the wall clock and pid guarantees it without
/// a randomness dependency.
pub(crate) fn fresh_nonce() -> [u8; dgc_plane::NONCE_LEN] {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let mut seed = [0u8; 24];
    seed[..8].copy_from_slice(&COUNTER.fetch_add(1, Ordering::Relaxed).to_le_bytes());
    // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    seed[8..16].copy_from_slice(&nanos.to_le_bytes());
    seed[16..24].copy_from_slice(&u64::from(std::process::id()).to_le_bytes());
    let digest = hmac::sha256(&seed);
    let mut nonce = [0u8; dgc_plane::NONCE_LEN];
    nonce.copy_from_slice(&digest[..dgc_plane::NONCE_LEN]);
    nonce
}

/// The initiator half of the link handshake, run synchronously on a
/// freshly connected socket right after the hello: `AuthInit` out,
/// `AuthChallenge` in (the responder's MAC verified), `AuthProof` out.
/// Returns whether the link authenticated; every failure mode lands on
/// exactly one counter — `net.handshake_timeouts` for a silent peer,
/// `net.auth_rejects` for a wrong MAC or out-of-protocol frame,
/// `net.decode_errors` for wire garbage — and the caller treats
/// `false` like a failed connect.
pub(crate) fn client_auth_handshake(
    stream: &mut TcpStream,
    key: AuthKey,
    timeout: Duration,
    stats: &NetStats,
) -> bool {
    // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
    let deadline = Instant::now() + timeout;
    let (mut machine, init) = Authenticator::initiator(key, fresh_nonce());
    let init_bytes = encode_frame(&auth_frame(&init));
    if stream.write_all(&init_bytes).is_err() {
        return false;
    }
    stats.on_frame_sent(0, init_bytes.len() as u64);
    let mut decoder = FrameDecoder::new();
    let mut chunk = [0u8; 1024];
    loop {
        // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            stats.on_handshake_timeout();
            return false;
        }
        if stream.set_read_timeout(Some(left)).is_err() {
            return false;
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => return false,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                stats.on_handshake_timeout();
                return false;
            }
            Err(_) => return false,
        };
        stats.on_raw_received(n as u64);
        decoder.push(&chunk[..n]);
        match decoder.next_frame() {
            Ok(None) => continue,
            Ok(Some(frame)) => {
                let Some(msg) = frame_to_auth(&frame) else {
                    // The responder spoke out of protocol (a batch or
                    // hello where its challenge belongs).
                    stats.on_auth_reject();
                    return false;
                };
                match machine.on_msg(&msg) {
                    Ok(Step::SendAndDone(proof)) => {
                        if decoder.pending_bytes() != 0 {
                            // The responder must not say anything more
                            // until it has our proof.
                            stats.on_auth_reject();
                            return false;
                        }
                        let bytes = encode_frame(&auth_frame(&proof));
                        if stream.write_all(&bytes).is_err() {
                            return false;
                        }
                        stats.on_frame_sent(0, bytes.len() as u64);
                        let _ = stream.set_read_timeout(None);
                        stats.on_auth_ok();
                        return true;
                    }
                    _ => {
                        stats.on_auth_reject();
                        return false;
                    }
                }
            }
            Err(_) => {
                stats.on_decode_error();
                return false;
            }
        }
    }
}

/// The worker's link layer: which I/O engine carries its traffic.
enum Links {
    /// Thread-per-link: a writer thread per outbound peer, a reply
    /// channel per inbound connection (plus their detached readers).
    Threaded {
        outbound: HashMap<u32, OutboundLink>,
        reply: HashMap<u32, mpsc::Sender<Vec<Item>>>,
    },
    /// Every socket on the worker's own readiness loop: O(1) threads
    /// regardless of peer count.
    Reactor(Box<Reactor>),
}

struct Worker {
    node_id: u32,
    config: NetConfig,
    rx: mpsc::Receiver<Event>,
    loopback: LoopSender,
    /// Hosted activities by index, indexed by next TTB tick: a loop
    /// turn touches only the due ones.
    endpoints: DueTable<Instant, Endpoint>,
    peer_addrs: HashMap<u32, SocketAddr>,
    links: Links,
    /// The egress plane: every outgoing unit queues here; the flush
    /// policy decides when a destination's queue becomes a frame.
    outbox: Outbox<Item>,
    /// Per-shard scratch and unit buffers the TTB sweep reuses tick
    /// after tick (`config.sweep_shards` controls the fan-out), plus
    /// the one-message buffer `handle_item` drains per DGC unit — the
    /// event loop's steady state allocates nothing per activity.
    sweep_pools: SweepPools,
    msg_units: Vec<SweepUnit>,
    /// The envelope middleware pipeline every app payload traverses —
    /// outgoing before the egress plane, incoming before delivery.
    /// Empty by default (pass-through); [`Event::SetPipeline`] installs
    /// stages.
    pipeline: Pipeline,
    /// Activity → tenant assignments: the authority the pipeline's
    /// tenant stages consult, and the namespace the DGC reference
    /// graph is partitioned by.
    tenants: TenantMap,
    /// Per-tenant app-plane traffic accounting
    /// (`enqueued = flushed + returned + pending`, per tenant).
    ledger: TenantLedger,
    /// The node's telemetry plane (shared with the handle and, through
    /// `stats`, with every link thread).
    obs: Registry,
    epoch: Instant,
    membership: Option<Membership>,
    next_member_tick: Option<Instant>,
    member_events: Arc<Mutex<Vec<MembershipEvent>>>,
    member_snapshot: Arc<Mutex<Option<Vec<NodeRecord>>>>,
    stats: Arc<NetStats>,
    terminated: Arc<Mutex<Vec<Terminated>>>,
    app_log: Arc<Mutex<Vec<AppReceived>>>,
    app_failures: Arc<Mutex<Vec<AppReceived>>>,
    app_handler: Option<AppHandler>,
    shutting_down: Arc<AtomicBool>,
    tracker: Arc<SocketTracker>,
    reaper: Arc<ThreadReaper>,
}

impl Worker {
    /// The plumbing bundle handed to every socket-side helper the
    /// threaded engine spawns (link writers, readers, reply writers).
    fn reader_ctx(&self) -> ReaderCtx {
        ReaderCtx {
            node_id: self.node_id,
            events: self.loopback.clone(),
            stats: Arc::clone(&self.stats),
            tracker: Arc::clone(&self.tracker),
            reaper: Arc::clone(&self.reaper),
            max_link_pending: self.config.max_link_pending,
            auth: self.config.auth,
            handshake_timeout: self.config.handshake_timeout,
        }
    }

    /// Whether a forward (initiated) link toward `dest` exists.
    fn has_forward_link(&self, dest: u32) -> bool {
        match &self.links {
            Links::Threaded { outbound, .. } => outbound.contains_key(&dest),
            Links::Reactor(r) => r.has_link(dest),
        }
    }

    /// Drops `dest`'s forward link (address change, terminal verdict);
    /// the next routed send re-dials lazily.
    fn drop_forward_link(&mut self, dest: u32) {
        match &mut self.links {
            Links::Threaded { outbound, .. } => {
                outbound.remove(&dest);
            }
            Links::Reactor(r) => r.drop_link(dest),
        }
    }

    /// Severs every path to a departed peer: the forward link and the
    /// reply route of whatever socket it had opened toward us.
    fn drop_peer_links(&mut self, dest: u32) {
        match &mut self.links {
            Links::Threaded { outbound, reply } => {
                outbound.remove(&dest);
                reply.remove(&dest);
            }
            Links::Reactor(r) => r.drop_peer(dest),
        }
    }
    fn now(&self) -> Time {
        Time::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    /// Records a trace event; the detail closure only runs when the
    /// level passes the filter, so disabled tracing allocates nothing.
    fn trace(&self, level: TraceLevel, tag: &'static str, detail: impl FnOnce() -> String) {
        if self.obs.tracer().enabled(level) {
            self.obs.trace(level, tag, detail());
        }
    }

    /// Queues `item` for its destination node on the egress plane (or
    /// loops it back locally). An application unit triggers an
    /// immediate flush — the queued background units piggyback — while
    /// heartbeats, digests and control units wait out the policy's
    /// `max_delay` for company.
    fn route(&mut self, item: Item) {
        let dest = item.destination_node();
        if dest == self.node_id {
            let _ = self.loopback.send(Event::Item(item));
            return;
        }
        let now = self.now();
        let class = item.class();
        let size = item.wire_size();
        if let Some(flush) = self.outbox.enqueue(now, dest, class, size, item) {
            self.deliver_flush(flush);
        }
    }

    /// Routes one outgoing application payload through the envelope
    /// pipeline and, if it passes, the egress plane. The worker's
    /// tenant map — not the caller, not the wire — decides the
    /// envelope's tenant stamp; rejections (cross-tenant sends, policy
    /// stages) land on the per-tenant ledger, never silently.
    fn route_app(&mut self, from: AoId, to: AoId, reply: bool, payload: Vec<u8>) {
        let mut env = Envelope {
            from,
            to,
            reply,
            tenant: self.tenants.of(from),
            payload,
        };
        let ctx = MiddlewareCtx {
            // Link authentication gates connection setup below this
            // plane: by the time an envelope is routed, its path is
            // authenticated (or the node runs trusted-LAN, auth off).
            link_authenticated: true,
            tenants: &self.tenants,
        };
        match self.pipeline.outgoing(&mut env, &ctx) {
            Verdict::Reject(why) => {
                self.ledger.on_rejected_outgoing(self.tenants.of(env.from));
                self.trace(TraceLevel::Info, "app-reject", || {
                    format!("outgoing {} -> {}: {why}", env.from, env.to)
                });
            }
            Verdict::Continue => {
                self.ledger.on_enqueued(env.tenant);
                if env.to.node == self.node_id {
                    // Loopback payloads never enter the outbox: they
                    // count as flushed the moment they are accepted,
                    // keeping the tenant's conservation law exact.
                    self.ledger.on_flushed(env.tenant);
                }
                self.route(Item::App {
                    from: env.from,
                    to: env.to,
                    reply: env.reply,
                    tenant: env.tenant.0,
                    payload: env.payload.into(),
                });
            }
        }
    }

    /// Flushes every destination whose max-delay expired.
    fn flush_due(&mut self) {
        let now = self.now();
        for flush in self.outbox.poll(now) {
            self.deliver_flush(flush);
        }
    }

    /// Turns one egress flush into link frames, preserving the §2.2
    /// routing discipline per unit: DGC messages and app requests
    /// prefer the forward (initiated) link; responses, reply payloads,
    /// gossip and failure notifications prefer the reply path of the
    /// socket the peer opened to us (the join-probe reply *must* ride
    /// it: the joiner's listen addr may not have merged yet). Units of
    /// one class always take the same path, so per-class FIFO survives
    /// the split.
    fn deliver_flush(&mut self, flush: Flush<Item>) {
        self.trace(TraceLevel::Debug, "flush", || {
            format!(
                "dest {} reason {:?} items {}",
                flush.dest,
                flush.reason,
                flush.items.len()
            )
        });
        if flush.reason == FlushReason::AppSend {
            let riders = flush.items.iter().filter(|i| !i.class.is_app()).count() as u64;
            self.stats.on_piggybacked(riders);
        }
        let dest = flush.dest;
        let mut forward: Vec<Item> = Vec::new();
        let mut back: Vec<Item> = Vec::new();
        for qi in flush.items {
            if let Item::App { tenant, .. } = &qi.item {
                // The unit leaves the egress plane: per-tenant
                // `flushed`. Whatever the link does to it afterwards
                // is a send failure, not a return — the ledger's
                // conservation law counts outbox custody only.
                self.ledger.on_flushed(TenantId(*tenant));
            }
            match &qi.item {
                Item::Dgc { .. } | Item::App { reply: false, .. } => forward.push(qi.item),
                Item::Resp { .. }
                | Item::SendFailure { .. }
                | Item::Gossip { .. }
                | Item::App { reply: true, .. } => back.push(qi.item),
            }
        }
        if !back.is_empty() {
            self.send_batch_reply(dest, back);
        }
        if !forward.is_empty() {
            self.send_batch_forward(dest, forward);
        }
    }

    /// Hands `batch` to the reply writer bound to the socket `dest`
    /// opened toward us; a missing or dead writer (its channel closed)
    /// returns the batch and evicts the stale entry.
    fn try_reply(&mut self, dest: u32, batch: Vec<Item>) -> Result<(), Vec<Item>> {
        match &mut self.links {
            Links::Threaded { reply, .. } => {
                let Some(tx) = reply.get(&dest) else {
                    return Err(batch);
                };
                match tx.send(batch) {
                    Ok(()) => Ok(()),
                    Err(mpsc::SendError(batch)) => {
                        reply.remove(&dest);
                        Err(batch)
                    }
                }
            }
            Links::Reactor(r) => r.queue_reply(dest, batch),
        }
    }

    fn send_batch_reply(&mut self, dest: u32, batch: Vec<Item>) {
        // No live inbound socket from that node: fall back to a
        // forward link if we can reach it at all.
        if let Err(batch) = self.try_reply(dest, batch) {
            self.send_batch_forward(dest, batch);
        }
    }

    fn send_batch_forward(&mut self, dest: u32, batch: Vec<Item>) {
        if !self.has_forward_link(dest) {
            let Some(addr) = self.peer_addrs.get(&dest).copied() else {
                // Whether a missing address condemns the edges depends
                // on the wiring. Static registration: unknown means
                // never — fail the sends so the referencers drop them.
                // Membership: the address may simply not have gossiped
                // in yet, so only a dead/left verdict convicts;
                // otherwise drop the heartbeats silently — the next TTB
                // regenerates them once discovery converges (TTA
                // budgets for far more than a gossip round-trip).
                // Application payloads are never regenerated by the
                // protocol, so they surface as send failures either
                // way instead of silently vanishing.
                let condemned = match &self.membership {
                    Some(engine) => matches!(
                        engine.directory().status_of(dest),
                        Some(s) if !s.is_present()
                    ),
                    None => true,
                };
                let failed: Vec<Item> = batch
                    .into_iter()
                    .filter(|item| {
                        matches!(item, Item::App { .. })
                            || (condemned && matches!(item, Item::Dgc { .. }))
                    })
                    .collect();
                self.fail_items(failed);
                return;
            };
            self.trace(TraceLevel::Info, "link-open", || {
                format!("dial node {dest} at {addr}")
            });
            let ctx = self.reader_ctx();
            match &mut self.links {
                Links::Threaded { outbound, .. } => {
                    outbound.insert(dest, OutboundLink::spawn(dest, addr, self.config, ctx));
                }
                Links::Reactor(r) => r.open_link(dest, addr),
            }
        }
        let result = match &mut self.links {
            Links::Threaded { outbound, .. } => outbound
                .get(&dest)
                .expect("link just ensured")
                .send_batch(batch),
            Links::Reactor(r) => r.queue_forward(dest, batch),
        };
        if let Err(batch) = result {
            // The writer went terminal and exited: its channel is a
            // dead letterbox, not a link. Requests used to vanish into
            // it here — fall back to the socket the peer opened to us
            // (the reverse direction may be perfectly healthy), or
            // fail fast so the caller learns.
            self.drop_forward_link(dest);
            self.reroute_or_fail(dest, batch);
        }
    }

    /// Last-resort delivery for a batch whose forward link is dead:
    /// the peer's reply socket if one is live, the send-failure path
    /// otherwise. Never tries the forward direction again — that is
    /// what just failed.
    fn reroute_or_fail(&mut self, dest: u32, batch: Vec<Item>) {
        if let Err(batch) = self.try_reply(dest, batch) {
            self.fail_items(batch);
        }
    }

    /// Surfaces undeliverable units as send failures. DGC messages
    /// notify the local referencer (it must drop the dead edge), app
    /// payloads land in the [`NetNode::app_send_failures`] log; every
    /// lost unit is counted, none vanishes unrecorded.
    fn fail_items(&mut self, items: Vec<Item>) {
        for item in items {
            match item {
                Item::Dgc { from, to, .. } => {
                    let _ = self.loopback.send(Event::Item(Item::SendFailure {
                        holder: from,
                        target: to,
                    }));
                    self.stats.on_send_failures(1);
                }
                Item::App {
                    from,
                    to,
                    reply,
                    payload,
                    ..
                } => {
                    self.app_failures.lock().push(AppReceived {
                        from,
                        to,
                        reply,
                        payload: payload.into_vec(),
                    });
                    self.stats.on_send_failures(1);
                }
                // Responses, digests and relayed failure notifications
                // have no local caller to notify; the loss still counts
                // so a degraded link shows in the stats.
                Item::Resp { .. } | Item::SendFailure { .. } | Item::Gossip { .. } => {
                    self.stats.on_send_failures(1);
                }
            }
        }
    }

    /// Reclaims the egress queue of a **departed** peer (dead/left
    /// verdict, terminal transport conviction): the queue, its bytes
    /// and its flush deadline are dropped in one motion, and whatever
    /// was waiting surfaces as send failures. Without this, the outbox
    /// entry of every peer that ever left would live as long as the
    /// node — the Birrell lease-list mistake, reproduced in the plane
    /// built to measure it.
    fn reclaim_egress(&mut self, dest: u32) {
        let stranded: Vec<Item> = self
            .outbox
            .drop_dest(dest)
            .into_iter()
            .map(|qi| qi.item)
            .collect();
        for item in &stranded {
            if let Item::App { tenant, .. } = item {
                // Reclaimed while still in outbox custody: the unit is
                // handed back (`returned`), balancing its `enqueued`.
                self.ledger.on_returned(TenantId(*tenant));
            }
        }
        self.fail_items(stranded);
    }

    /// A link burned through `fail_after_attempts`: stop feeding it
    /// (membership, or a fresh address announcement, decides if it ever
    /// comes back), try the peer's reply socket for whatever the dead
    /// writer handed back — the *forward* direction is what failed, and
    /// asymmetric failures are §2.2's normal case — then let membership
    /// adjudicate, or treat the verdict as terminal without it.
    fn on_peer_unreachable(&mut self, node: u32, unsent: Vec<Item>) {
        self.trace(TraceLevel::Info, "link-terminal", || {
            format!("node {node} unreachable, {} unsent", unsent.len())
        });
        self.drop_forward_link(node);
        if !unsent.is_empty() {
            self.reroute_or_fail(node, unsent);
        }
        let now = self.now();
        match &mut self.membership {
            Some(engine) => {
                engine.on_peer_unreachable(now, node);
                self.drain_member_events();
            }
            None => {
                // No membership layer to adjudicate: the transport's
                // verdict is terminal, not an endless retry — so the
                // peer's egress queue is reclaimed here too, not just
                // its link.
                self.reclaim_egress(node);
                for ep in self.endpoints.values_mut() {
                    ep.state.on_node_dead(node);
                }
            }
        }
    }

    fn apply_actions(&mut self, who: AoId, actions: Vec<Action>) {
        for action in actions {
            self.apply_action(who, action);
        }
    }

    fn apply_action(&mut self, who: AoId, action: Action) {
        match action {
            Action::SendMessage { to, message } => self.route(Item::Dgc {
                from: who,
                to,
                message,
            }),
            Action::SendResponse { to, response } => self.route(Item::Resp {
                from: who,
                to,
                response,
            }),
            Action::Terminate { reason } => {
                self.endpoints.remove(who.index);
                self.trace(TraceLevel::Info, "terminate", || {
                    format!("ao {who} ({reason:?})")
                });
                self.terminated.lock().push(Terminated { ao: who, reason });
            }
            _ => {}
        }
    }

    fn handle_item(&mut self, item: Item) {
        // A unit addressed to a different node must never be applied
        // here: endpoints are keyed by index, so a misrouted item from
        // a buggy or hostile peer would otherwise mutate an unrelated
        // local activity. Answer misaddressed messages with a send
        // failure (the protocol's self-healing path) and drop the rest.
        // The one legitimate exception is an *anycast* gossip digest: a
        // join probe dialed our address before knowing our node id.
        let anycast_probe = matches!(item, Item::Gossip { to, .. } if to == GOSSIP_ANYCAST);
        if !anycast_probe && item.destination_node() != self.node_id {
            self.stats.on_decode_error();
            if let Item::Dgc { from, to, .. } = item {
                self.route(Item::SendFailure {
                    holder: from,
                    target: to,
                });
            }
            return;
        }
        let now = self.now();
        match item {
            Item::Dgc { from, to, message } => match self.endpoints.get_mut(to.index) {
                Some(ep) => {
                    let mut units = std::mem::take(&mut self.msg_units);
                    ep.state.on_message_into(now, &message, &mut units);
                    for unit in units.drain(..) {
                        self.apply_action(unit.from, unit.action);
                    }
                    self.msg_units = units;
                }
                None => {
                    // Target is gone: tell the sending node.
                    self.route(Item::SendFailure {
                        holder: from,
                        target: to,
                    });
                }
            },
            Item::Resp { from, to, response } => {
                if let Some(ep) = self.endpoints.get_mut(to.index) {
                    let idle = ep.idle;
                    let actions = ep.state.on_response(now, from, &response, idle);
                    self.apply_actions(to, actions);
                }
            }
            Item::SendFailure { holder, target } => {
                if let Some(ep) = self.endpoints.get_mut(holder.index) {
                    ep.state.on_send_failure(target);
                }
            }
            Item::Gossip { from, digest, .. } => self.handle_gossip(from, digest),
            Item::App {
                from,
                to,
                reply,
                tenant,
                payload,
            } => {
                let mut env = Envelope {
                    from,
                    to,
                    reply,
                    tenant: TenantId(tenant),
                    payload: payload.into_vec(),
                };
                let ctx = MiddlewareCtx {
                    // Unauthenticated sockets never get this far: with
                    // auth configured the transport rejects their
                    // frames before any item reaches the loop.
                    link_authenticated: true,
                    tenants: &self.tenants,
                };
                if let Verdict::Reject(why) = self.pipeline.incoming(&mut env, &ctx) {
                    self.ledger.on_rejected_incoming(env.tenant);
                    self.trace(TraceLevel::Info, "app-reject", || {
                        format!("incoming {} -> {}: {why}", env.from, env.to)
                    });
                    return;
                }
                let received = AppReceived {
                    from: env.from,
                    to: env.to,
                    reply: env.reply,
                    payload: env.payload,
                };
                // Registered handlers replace the test inbox: the unit
                // is dispatched on this loop and any sends it produces
                // are routed straight back through the egress plane
                // (taken out for the call so the handler can never
                // observe a half-borrowed worker).
                match self.app_handler.take() {
                    Some(mut handler) => {
                        let outs = (handler.0)(&received);
                        self.app_handler = Some(handler);
                        for out in outs {
                            // Handler sends cross the outgoing pipeline
                            // like any application send would.
                            self.route_app(out.from, out.to, out.reply, out.payload);
                        }
                    }
                    None => {
                        self.app_log.lock().push(received);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Membership
    // ------------------------------------------------------------------

    /// Applies one received digest and pushes out whatever the engine
    /// wants answered (introductions, refutations, verdict replies).
    fn handle_gossip(&mut self, from: u32, digest: Digest) {
        let now = self.now();
        let outs = match &mut self.membership {
            Some(engine) => engine.on_digest(now, from, &digest),
            // Static cluster (membership disabled): digests are noise.
            None => return,
        };
        self.flush_gossip(outs);
    }

    /// Converts engine output into wire items from this node.
    fn gossip_item(&self, out: dgc_membership::GossipOut) -> Item {
        Item::Gossip {
            from: self.node_id,
            to: out.to,
            digest: out.digest,
        }
    }

    /// Runs the engine's periodic driver when due (failure detection +
    /// anti-entropy), at half the gossip interval.
    fn membership_due(&mut self) {
        let Some(next) = self.next_member_tick else {
            return;
        };
        // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
        if Instant::now() < next {
            return;
        }
        let now = self.now();
        let (outs, interval) = match (&mut self.membership, self.config.membership) {
            (Some(engine), Some(m)) => (engine.on_tick(now), m.gossip_interval),
            _ => return,
        };
        let half = Duration::from_nanos((interval.as_nanos() / 2).max(1_000_000));
        // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
        self.next_member_tick = Some(Instant::now() + half);
        self.flush_gossip(outs);
    }

    /// Routes outgoing digests and applies the engine's side effects:
    /// learned addresses (re)wire peer links, dead verdicts feed every
    /// hosted collector's send-failure path, and the handle-visible
    /// snapshot/event log are refreshed.
    fn flush_gossip(&mut self, outs: Vec<dgc_membership::GossipOut>) {
        // Address learning first: an out-digest may target a peer whose
        // (new) address only this merge round discovered.
        self.sync_member_addrs();
        for out in outs {
            let item = self.gossip_item(out);
            self.route(item);
        }
        self.drain_member_events();
    }

    /// Learns peers' listen addresses from the directory. An address
    /// change — a rejoined node listens on a fresh port — invalidates
    /// the old outbound link so the next send dials the new address.
    fn sync_member_addrs(&mut self) {
        let Some(engine) = &self.membership else {
            return;
        };
        let mut changed: Vec<(u32, SocketAddr)> = Vec::new();
        for rec in engine.directory().iter() {
            if rec.node == self.node_id {
                continue;
            }
            let Some(addr) = rec.addr else { continue };
            if self.peer_addrs.get(&rec.node) != Some(&addr) {
                changed.push((rec.node, addr));
            }
        }
        for (node, addr) in changed {
            self.peer_addrs.insert(node, addr);
            self.drop_forward_link(node);
        }
    }

    fn drain_member_events(&mut self) {
        let (events, snapshot) = match &mut self.membership {
            Some(engine) => (engine.poll_events(), engine.records()),
            None => return,
        };
        for ev in &events {
            self.trace(TraceLevel::Info, "member", || {
                format!("node {} -> {:?}", ev.node, ev.transition)
            });
            let departed = matches!(ev.transition, Transition::Dead | Transition::Left)
                && ev.node != self.node_id;
            if departed {
                // A dead verdict — or an announced graceful leave,
                // which is the same departure without the suspicion
                // delay — is the terminal send failure, in bulk: every
                // hosted collector treats the node's activities as
                // departed, and its links are torn down (a rejoin
                // re-announces a fresh address).
                for ep in self.endpoints.values_mut() {
                    ep.state.on_node_dead(ev.node);
                }
                self.drop_peer_links(ev.node);
                // And its egress queue goes with it: items, bytes and
                // the flush deadline — queued app units surface as
                // send failures rather than rotting against a corpse.
                self.reclaim_egress(ev.node);
            }
        }
        *self.member_snapshot.lock() = Some(snapshot);
        if !events.is_empty() {
            self.member_events.lock().extend(events);
        }
    }

    fn handle(&mut self, event: Event) -> bool {
        match event {
            Event::Shutdown => {
                // Hand whatever still lingers on the egress plane to
                // the writers; they flush before exiting.
                let flushes = self.outbox.flush_all();
                for flush in flushes {
                    self.deliver_flush(flush);
                }
                return false;
            }
            Event::Send { item } => match item {
                // App payloads cross the envelope pipeline; the wire
                // tenant field is advisory (the node's map decides).
                Item::App {
                    from,
                    to,
                    reply,
                    payload,
                    ..
                } => self.route_app(from, to, reply, payload.into_vec()),
                item => self.route(item),
            },
            Event::Leave { ack } => {
                let now = self.now();
                if let Some(engine) = &mut self.membership {
                    let outs = engine.leave(now);
                    self.flush_gossip(outs);
                    // Farewells must not wait out the egress delay: the
                    // node is about to go.
                    let flushes = self.outbox.flush_all();
                    for flush in flushes {
                        self.deliver_flush(flush);
                    }
                    // Threaded writers flush from their own threads;
                    // the reactor's farewells only *queued* on its
                    // sockets — push them out before acknowledging.
                    if let Links::Reactor(r) = &mut self.links {
                        r.drain(Duration::from_millis(100));
                    }
                    // The engine said goodbye; stop gossiping.
                    self.next_member_tick = None;
                }
                let _ = ack.send(());
            }
            Event::Pause { until } => {
                // A real stop-the-world: this thread owns every endpoint
                // and every tick, so sleeping here stops the protocol on
                // this node while sockets keep queueing into the channel.
                // Sliced so node shutdown (e.g. a test unwinding out of
                // a failed assertion) never waits out a long pause.
                // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
                while Instant::now() < until {
                    if self.shutting_down.load(Ordering::SeqCst) {
                        break;
                    }
                    // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
                    let left = until.saturating_duration_since(Instant::now());
                    std::thread::sleep(left.min(Duration::from_millis(20)));
                }
            }
            Event::Item(item) => self.handle_item(item),
            Event::PeerLink { node, tx } => {
                self.trace(TraceLevel::Info, "reply-link", || {
                    format!("node {node} opened a connection")
                });
                // Reactor nodes track reply routes inside the engine;
                // this event only arrives from threaded-engine readers.
                if let Links::Threaded { reply, .. } = &mut self.links {
                    reply.insert(node, tx);
                }
            }
            Event::PeerUnreachable { node, unsent } => self.on_peer_unreachable(node, unsent),
            Event::AdoptSocket { stream } => {
                if let Links::Reactor(r) = &mut self.links {
                    r.adopt(stream);
                } else {
                    let ctx = self.reader_ctx();
                    spawn_socket_reader(ctx, stream, false);
                }
            }
            Event::Undeliverable {
                node,
                items,
                reroute,
            } => {
                if reroute {
                    self.reroute_or_fail(node, items);
                } else {
                    self.fail_items(items);
                }
            }
            Event::SetAppHandler { handler } => {
                self.app_handler = Some(handler);
            }
            Event::SetPipeline { pipeline } => {
                self.pipeline = pipeline;
            }
            Event::RegisterTenant { ao, tenant } => {
                self.tenants.register(ao, tenant);
            }
            Event::QueryTenants { reply } => {
                let _ = reply.send(self.ledger.snapshot());
            }
            Event::QueryEgress { reply } => {
                let _ = reply.send(EgressPending {
                    items: self.outbox.pending_items(),
                    bytes: self.outbox.pending_bytes(),
                    next_deadline: self.outbox.next_deadline(),
                });
            }
            Event::QueryEgressStats { reply } => {
                let _ = reply.send(self.outbox.stats());
            }
            Event::AddPeer { node, addr } => {
                self.peer_addrs.insert(node, addr);
            }
            Event::AddActivity { id } => {
                let now = self.now();
                self.trace(TraceLevel::Debug, "spawn", || format!("ao {id}"));
                let mut state = DgcState::new(id, now, self.config.dgc);
                state.set_obs(DgcObs::new(&self.obs));
                self.endpoints.insert(
                    id.index,
                    // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
                    Instant::now() + Duration::from_nanos(self.config.dgc.ttb.as_nanos()),
                    Endpoint { state, idle: false },
                );
            }
            Event::SetIdle { ao, idle } => {
                let now = self.now();
                if let Some(ep) = self.endpoints.get_mut(ao.index) {
                    if idle && !ep.idle {
                        ep.state.on_became_idle(now);
                    }
                    ep.idle = idle;
                }
            }
            Event::AddRef { from, to } => {
                // Tenant isolation extends to the DGC graph itself: a
                // reference edge crossing tenants is refused before any
                // collector learns it, so a tenant's heartbeats, TTB
                // sweeps and verdicts never observe another tenant's
                // activities.
                if self.tenants.of(from) != self.tenants.of(to) {
                    self.ledger.on_rejected_outgoing(self.tenants.of(from));
                    self.trace(TraceLevel::Info, "ref-reject", || {
                        format!("cross-tenant ref {from} -> {to}")
                    });
                } else if let Some(ep) = self.endpoints.get_mut(from.index) {
                    ep.state.on_stub_deserialized(to);
                }
            }
            Event::DropRef { from, to } => {
                if let Some(ep) = self.endpoints.get_mut(from.index) {
                    ep.state.on_stubs_collected(to);
                }
            }
        }
        true
    }

    /// Runs every endpoint whose TTB tick is due, as **one batched
    /// sweep**: the deadline-indexed table hands out the due endpoints
    /// in ascending activity-id order, they tick through `on_tick_into`
    /// (fanning out across `config.sweep_shards` threads when
    /// configured), and every emitted unit drains into routing
    /// afterwards — in exactly the order a sequential sweep would have
    /// produced. All messages
    /// emitted in one sweep are queued before any link flushes, which
    /// is what lets the per-peer writers coalesce a whole sweep into
    /// one frame; the reused scratch buffers are what keep the sweep
    /// allocation-free however many activities are hosted.
    fn tick_due(&mut self) {
        // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
        let now_i = Instant::now();
        let now = self.now();
        let mut due = self.endpoints.take_due(now_i);
        if due.is_empty() {
            return;
        }
        let mut pools = std::mem::take(&mut self.sweep_pools);
        sweep_sharded(
            &mut due,
            self.config.sweep_shards,
            &mut pools,
            |slot, scratch, units| {
                let ep = &mut slot.value;
                ep.state.on_tick_into(now, ep.idle, scratch, units);
                let ttb = Duration::from_nanos(ep.state.current_ttb().as_nanos());
                slot.set_next_tick(now_i + ttb);
            },
        );
        // Dropping the batch re-indexes every ticked endpoint.
        drop(due);
        for unit in pools.drain_units() {
            self.apply_action(unit.from, unit.action);
        }
        self.sweep_pools = pools;
    }

    /// The earliest instant the worker's own timers need it awake: TTB
    /// ticks, membership gossip, egress flush deadlines.
    fn next_wake(&self) -> Instant {
        let mut next_wake = self
            .endpoints
            .next_tick()
            // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
            .unwrap_or_else(|| Instant::now() + Duration::from_millis(50));
        if let Some(t) = self.next_member_tick {
            next_wake = next_wake.min(t);
        }
        if let Some(deadline) = self.outbox.next_deadline() {
            // Egress deadlines live on the scenario clock; convert
            // back to the wall clock the loop sleeps on.
            next_wake = next_wake.min(self.epoch + Duration::from_nanos(deadline.as_nanos()));
        }
        next_wake
    }

    /// The engine's link layer as a reactor, or panics: only the
    /// reactor loop calls this.
    fn reactor_mut(&mut self) -> &mut Reactor {
        match &mut self.links {
            Links::Reactor(r) => r,
            Links::Threaded { .. } => unreachable!("reactor loop over threaded links"),
        }
    }

    fn reactor_deadline(&self) -> Option<Instant> {
        match &self.links {
            Links::Reactor(r) => r.next_deadline(),
            Links::Threaded { .. } => None,
        }
    }

    fn run(mut self) {
        if matches!(self.links, Links::Reactor(_)) {
            self.run_reactor()
        } else {
            self.run_threaded()
        }
    }

    /// The threaded engine's loop turn: park on the event channel (the
    /// link threads do their own I/O) until an event or a timer.
    fn run_threaded(&mut self) {
        loop {
            // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
            let timeout = self.next_wake().saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(timeout) {
                Ok(event) => {
                    if !self.handle(event) {
                        return;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
            self.tick_due();
            self.membership_due();
            self.flush_due();
        }
    }

    /// The reactor engine's loop turn: park in [`Reactor::poll`] —
    /// socket readiness, reactor timers and (via the waker inside
    /// [`LoopSender`]) channel sends all interrupt it — drain the
    /// channel without blocking, then translate the engine's notices.
    ///
    /// Commands go first. Anything a notice reacts to was caused by a
    /// command queued before the poll returned: a peer's heartbeat to
    /// an activity whose `AddActivity` is still queued must find it
    /// hosted, not bounce as a send failure that drops a live edge.
    fn run_reactor(&mut self) {
        let mut notices: Vec<Notice> = Vec::new();
        loop {
            let mut next_wake = self.next_wake();
            if let Some(d) = self.reactor_deadline() {
                next_wake = next_wake.min(d);
            }
            // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
            let timeout = next_wake.saturating_duration_since(Instant::now());
            self.reactor_mut().poll(timeout, &mut notices);
            loop {
                let stop = match self.rx.try_recv() {
                    Ok(Event::Shutdown) => {
                        // What the poll already read is delivered
                        // before the egress plane's last flush.
                        self.handle_notices(&mut notices);
                        self.handle(Event::Shutdown);
                        true
                    }
                    Ok(event) => !self.handle(event),
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        self.handle_notices(&mut notices);
                        true
                    }
                };
                if stop {
                    // Shutdown flushed the egress plane into the
                    // reactor's queues; give the sockets a bounded
                    // grace to carry it out.
                    self.reactor_mut().drain(Duration::from_millis(300));
                    return;
                }
            }
            self.handle_notices(&mut notices);
            self.tick_due();
            self.membership_due();
            self.flush_due();
        }
    }

    /// Acts on the notices one reactor poll produced.
    fn handle_notices(&mut self, notices: &mut Vec<Notice>) {
        for notice in notices.drain(..) {
            match notice {
                Notice::Item(item) => self.handle_item(item),
                Notice::PeerUnreachable { node, unsent } => self.on_peer_unreachable(node, unsent),
                Notice::Undeliverable {
                    node,
                    items,
                    reroute,
                } => {
                    if reroute {
                        self.reroute_or_fail(node, items);
                    } else {
                        self.fail_items(items);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::sync::atomic::AtomicUsize;

    /// Transient `accept` errors (the EMFILE / ECONNABORTED family)
    /// must not kill the acceptor: three injected failures precede a
    /// real connection, and the link must still come up — with every
    /// failure landing on the `accept_errors` counter instead of
    /// vanishing.
    #[test]
    fn acceptor_survives_transient_accept_errors() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = mpsc::channel();
        let stats = NetStats::shared();
        let tracker = Arc::new(SocketTracker::default());
        let reaper = Arc::new(ThreadReaper::default());
        let shutting_down = Arc::new(AtomicBool::new(false));
        let acceptor = Acceptor {
            ctx: ReaderCtx {
                node_id: 7,
                events: LoopSender::new(tx, None),
                stats: Arc::clone(&stats),
                tracker: Arc::clone(&tracker),
                reaper: Arc::clone(&reaper),
                max_link_pending: 1024,
                auth: None,
                handshake_timeout: Duration::from_secs(2),
            },
            shutting_down: Arc::clone(&shutting_down),
        };
        let handle = std::thread::spawn(move || {
            let attempts = AtomicUsize::new(0);
            acceptor.run_with(move || {
                if attempts.fetch_add(1, Ordering::SeqCst) < 3 {
                    Err(std::io::Error::other("injected descriptor exhaustion"))
                } else {
                    listener.accept().map(|(s, _)| s)
                }
            })
        });

        // The injected failures cost 10+20+40ms of backoff; the fourth
        // attempt must take the real connection and register a reply
        // path off its hello.
        let client = TcpStream::connect(addr).unwrap();
        (&client)
            .write_all(&encode_frame(&Frame::Hello {
                node: 3,
                version: PROTOCOL_VERSION,
            }))
            .unwrap();
        match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(Event::PeerLink { node, .. }) => assert_eq!(node, 3),
            other => panic!("expected a PeerLink after recovery, got {other:?}"),
        }
        assert_eq!(
            stats.snapshot().accept_errors,
            3,
            "each injected failure must be counted"
        );

        // Teardown: flag shutdown, poke the blocking accept, then
        // unblock and reap the reader/reply-writer pair.
        shutting_down.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        handle.join().unwrap();
        drop(client);
        drop(rx);
        tracker.shutdown_all();
        reaper.join_all();
    }
}

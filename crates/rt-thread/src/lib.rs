//! # dgc-rt-thread — real-thread runtime for the DGC core
//!
//! The simulator (`dgc-activeobj`) proves the protocol at grid scale in
//! virtual time; this crate proves the same sans-io `dgc_core::DgcState`
//! works under **real concurrency**: every node (address space) is an OS
//! thread with a crossbeam channel for its mailbox, timers come from the
//! wall clock, and DGC messages/responses travel between threads exactly
//! as the protocol emits them.
//!
//! The API mirrors the test surface of the simulator: create activities,
//! flip their idleness, wire reference edges, and watch terminations
//! arrive. Used by `examples/threaded_demo.rs` and the `tests/threaded.rs`
//! integration suite with millisecond-scale TTB/TTA.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use dgc_core::config::DgcConfig;
use dgc_core::id::AoId;
use dgc_core::message::{Action, DgcMessage, DgcResponse, TerminateReason};
use dgc_core::protocol::DgcState;
use dgc_core::sweep::{sweep_sharded, DueTable, SweepPools};
use dgc_core::units::Time;

/// A recorded termination, visible to the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Terminated {
    /// Which activity ended.
    pub ao: AoId,
    /// Why.
    pub reason: TerminateReason,
}

enum NodeMsg {
    Dgc {
        from: AoId,
        to: AoId,
        message: DgcMessage,
    },
    Resp {
        from: AoId,
        to: AoId,
        response: DgcResponse,
    },
    SendFailure {
        holder: AoId,
        target: AoId,
    },
    AddActivity {
        id: AoId,
    },
    SetIdle {
        ao: AoId,
        idle: bool,
    },
    AddRef {
        from: AoId,
        to: AoId,
    },
    DropRef {
        from: AoId,
        to: AoId,
    },
    Shutdown,
}

struct Endpoint {
    state: DgcState,
    idle: bool,
}

struct NodeWorker {
    rx: Receiver<NodeMsg>,
    peers: Vec<Sender<NodeMsg>>,
    endpoints: DueTable<Instant, Endpoint>,
    epoch: Instant,
    config: DgcConfig,
    /// TTB sweep fan-out (`DGC_SWEEP_SHARDS`, default 1) plus the
    /// per-shard scratch/unit buffers reused every sweep.
    sweep_shards: usize,
    sweep_pools: SweepPools,
    terminated: Arc<Mutex<Vec<Terminated>>>,
}

impl NodeWorker {
    fn now(&self) -> Time {
        Time::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn route(&self, to: AoId, msg: NodeMsg) {
        // A dropped peer channel means global shutdown: ignore errors.
        let _ = self.peers[to.node as usize].send(msg);
    }

    fn apply_actions(&mut self, who: AoId, actions: Vec<Action>) {
        for action in actions {
            self.apply_action(who, action);
        }
    }

    fn apply_action(&mut self, who: AoId, action: Action) {
        match action {
            Action::SendMessage { to, message } => {
                self.route(
                    to,
                    NodeMsg::Dgc {
                        from: who,
                        to,
                        message,
                    },
                );
            }
            Action::SendResponse { to, response } => {
                self.route(
                    to,
                    NodeMsg::Resp {
                        from: who,
                        to,
                        response,
                    },
                );
            }
            Action::Terminate { reason } => {
                self.endpoints.remove(who.index);
                self.terminated.lock().push(Terminated { ao: who, reason });
            }
            _ => {}
        }
    }

    fn handle(&mut self, msg: NodeMsg) -> bool {
        let now = self.now();
        match msg {
            NodeMsg::Shutdown => return false,
            NodeMsg::AddActivity { id } => {
                self.endpoints.insert(
                    id.index,
                    // dgc-analysis: allow(wall-clock): the in-process runtime times real thread wake-ups
                    Instant::now() + Duration::from_nanos(self.config.ttb.as_nanos()),
                    Endpoint {
                        state: DgcState::new(id, now, self.config),
                        idle: false,
                    },
                );
            }
            NodeMsg::SetIdle { ao, idle } => {
                if let Some(ep) = self.endpoints.get_mut(ao.index) {
                    if idle && !ep.idle {
                        ep.state.on_became_idle(now);
                    }
                    ep.idle = idle;
                }
            }
            NodeMsg::AddRef { from, to } => {
                if let Some(ep) = self.endpoints.get_mut(from.index) {
                    ep.state.on_stub_deserialized(to);
                }
            }
            NodeMsg::DropRef { from, to } => {
                if let Some(ep) = self.endpoints.get_mut(from.index) {
                    ep.state.on_stubs_collected(to);
                }
            }
            NodeMsg::Dgc { from, to, message } => {
                match self.endpoints.get_mut(to.index) {
                    Some(ep) => {
                        let actions = ep.state.on_message(now, &message);
                        self.apply_actions(to, actions);
                    }
                    None => {
                        // Target is gone: tell the sender's node.
                        self.route(
                            from,
                            NodeMsg::SendFailure {
                                holder: from,
                                target: to,
                            },
                        );
                    }
                }
            }
            NodeMsg::Resp { from, to, response } => {
                if let Some(ep) = self.endpoints.get_mut(to.index) {
                    let idle = ep.idle;
                    let actions = ep.state.on_response(now, from, &response, idle);
                    self.apply_actions(to, actions);
                }
            }
            NodeMsg::SendFailure { holder, target } => {
                if let Some(ep) = self.endpoints.get_mut(holder.index) {
                    ep.state.on_send_failure(target);
                }
            }
        }
        true
    }

    /// One batched TTB sweep over every due endpoint: taken from the
    /// deadline-indexed table in ascending activity-id order, ticked through `on_tick_into`
    /// (across `sweep_shards` threads when configured) with reused
    /// scratch buffers, emitted units routed afterwards in exactly the
    /// sequential order.
    fn tick_due(&mut self) {
        // dgc-analysis: allow(wall-clock): the in-process runtime times real thread wake-ups
        let now_i = Instant::now();
        let now = self.now();
        let mut due = self.endpoints.take_due(now_i);
        if due.is_empty() {
            return;
        }
        let mut pools = std::mem::take(&mut self.sweep_pools);
        sweep_sharded(
            &mut due,
            self.sweep_shards,
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

    fn run(mut self) {
        loop {
            let next_tick = self
                .endpoints
                .next_tick()
                // dgc-analysis: allow(wall-clock): the in-process runtime times real thread wake-ups
                .unwrap_or_else(|| Instant::now() + Duration::from_millis(50));
            // dgc-analysis: allow(wall-clock): the in-process runtime times real thread wake-ups
            let timeout = next_tick.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(timeout) {
                Ok(msg) => {
                    if !self.handle(msg) {
                        return;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
            self.tick_due();
        }
    }
}

/// A running multi-threaded grid of DGC endpoints.
pub struct ThreadGrid {
    senders: Vec<Sender<NodeMsg>>,
    handles: Vec<JoinHandle<()>>,
    terminated: Arc<Mutex<Vec<Terminated>>>,
    next_index: Mutex<Vec<u32>>,
}

impl ThreadGrid {
    /// Spawns `nodes` node threads, each hosting activities running the
    /// DGC with `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` violates the TTA safety formula.
    pub fn new(nodes: u32, config: DgcConfig) -> Self {
        config.validate().expect("unsafe TTB/TTA configuration");
        let terminated = Arc::new(Mutex::new(Vec::new()));
        let channels: Vec<(Sender<NodeMsg>, Receiver<NodeMsg>)> =
            (0..nodes).map(|_| unbounded()).collect();
        let senders: Vec<Sender<NodeMsg>> = channels.iter().map(|(tx, _)| tx.clone()).collect();
        // dgc-analysis: allow(wall-clock): the in-process runtime times real thread wake-ups
        let epoch = Instant::now();
        let mut handles = Vec::new();
        for (node, (_, rx)) in channels.into_iter().enumerate() {
            let worker = NodeWorker {
                rx,
                peers: senders.clone(),
                endpoints: DueTable::new(),
                epoch,
                config,
                sweep_shards: std::env::var("DGC_SWEEP_SHARDS")
                    .ok()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or(1),
                sweep_pools: SweepPools::new(),
                terminated: Arc::clone(&terminated),
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("dgc-node-{node}"))
                    .spawn(move || worker.run())
                    .expect("spawn node thread"),
            );
        }
        ThreadGrid {
            senders,
            handles,
            terminated,
            next_index: Mutex::new(vec![0; nodes as usize]),
        }
    }

    /// Creates an activity on `node` (initially busy). Returns its id.
    pub fn add_activity(&self, node: u32) -> AoId {
        let id = {
            let mut idx = self.next_index.lock();
            let slot = &mut idx[node as usize];
            let id = AoId::new(node, *slot);
            *slot += 1;
            id
        };
        let _ = self.senders[node as usize].send(NodeMsg::AddActivity { id });
        id
    }

    /// Declares `ao` idle or busy.
    pub fn set_idle(&self, ao: AoId, idle: bool) {
        let _ = self.senders[ao.node as usize].send(NodeMsg::SetIdle { ao, idle });
    }

    /// Adds the reference edge `from → to`.
    pub fn add_ref(&self, from: AoId, to: AoId) {
        let _ = self.senders[from.node as usize].send(NodeMsg::AddRef { from, to });
    }

    /// Drops the reference edge `from → to`.
    pub fn drop_ref(&self, from: AoId, to: AoId) {
        let _ = self.senders[from.node as usize].send(NodeMsg::DropRef { from, to });
    }

    /// Snapshot of terminations so far.
    pub fn terminated(&self) -> Vec<Terminated> {
        self.terminated.lock().clone()
    }

    /// True if `ao` has terminated.
    pub fn is_terminated(&self, ao: AoId) -> bool {
        self.terminated.lock().iter().any(|t| t.ao == ao)
    }

    /// Blocks until `predicate` holds over the termination log or the
    /// deadline passes; returns whether it held.
    pub fn wait_until(
        &self,
        deadline: Duration,
        predicate: impl Fn(&[Terminated]) -> bool,
    ) -> bool {
        // dgc-analysis: allow(wall-clock): the in-process runtime times real thread wake-ups
        let start = Instant::now();
        loop {
            if predicate(&self.terminated.lock()) {
                return true;
            }
            if start.elapsed() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Stops all node threads and waits for them.
    pub fn shutdown(mut self) {
        for tx in &self.senders {
            let _ = tx.send(NodeMsg::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgc_core::units::Dur;

    fn cfg() -> DgcConfig {
        DgcConfig::builder()
            .ttb(Dur::from_millis(25))
            .tta(Dur::from_millis(80))
            .max_comm(Dur::from_millis(20))
            .build()
    }

    #[test]
    fn lone_idle_activity_is_collected() {
        let grid = ThreadGrid::new(2, cfg());
        let a = grid.add_activity(0);
        grid.set_idle(a, true);
        assert!(
            grid.wait_until(Duration::from_secs(5), |t| t.iter().any(|x| x.ao == a)),
            "acyclic collection under real threads"
        );
        let t = grid.terminated();
        assert_eq!(t[0].reason, TerminateReason::Acyclic);
        grid.shutdown();
    }

    #[test]
    fn referenced_activity_stays_alive() {
        let grid = ThreadGrid::new(2, cfg());
        let root = grid.add_activity(0); // stays busy: a root
        let b = grid.add_activity(1);
        grid.add_ref(root, b);
        grid.set_idle(b, true);
        std::thread::sleep(Duration::from_millis(400));
        assert!(
            !grid.is_terminated(b),
            "heartbeats from the busy root keep it"
        );
        grid.shutdown();
    }

    #[test]
    fn cross_thread_cycle_is_collected() {
        let grid = ThreadGrid::new(3, cfg());
        let a = grid.add_activity(0);
        let b = grid.add_activity(1);
        let c = grid.add_activity(2);
        grid.add_ref(a, b);
        grid.add_ref(b, c);
        grid.add_ref(c, a);
        grid.set_idle(a, true);
        grid.set_idle(b, true);
        grid.set_idle(c, true);
        assert!(
            grid.wait_until(Duration::from_secs(10), |t| t.len() == 3),
            "cyclic collection under real threads: {:?}",
            grid.terminated()
        );
        assert!(grid.terminated().iter().any(|t| t.reason.is_cyclic()));
        grid.shutdown();
    }

    #[test]
    fn busy_member_protects_the_cycle() {
        let grid = ThreadGrid::new(2, cfg());
        let a = grid.add_activity(0);
        let b = grid.add_activity(1);
        grid.add_ref(a, b);
        grid.add_ref(b, a);
        grid.set_idle(a, true);
        // b stays busy.
        std::thread::sleep(Duration::from_millis(500));
        assert!(grid.terminated().is_empty());
        grid.set_idle(b, true);
        assert!(grid.wait_until(Duration::from_secs(10), |t| t.len() == 2));
        grid.shutdown();
    }

    #[test]
    #[should_panic(expected = "unsafe TTB/TTA")]
    fn unsafe_config_is_rejected() {
        let bad = DgcConfig::builder()
            .ttb(Dur::from_millis(50))
            .tta(Dur::from_millis(50))
            .build();
        let _ = ThreadGrid::new(1, bad);
    }
}

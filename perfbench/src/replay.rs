//! The traced in-process replay of the heartbeat hot path.
//!
//! The seeded `hold_10k` population is rebuilt as one `DgcState` set
//! per node and stepped through TTB rounds the way a node's event loop
//! steps it — sweep → outbox → encode → decode → dispatch — with every
//! phase of every node in its own span, so each layer's self time and
//! allocation count can be divided by the units that passed through it.

use std::time::{Duration, Instant};

use dgc_core::config::DgcConfig;
use dgc_core::egress::{Flush, Outbox};
use dgc_core::id::AoId;
use dgc_core::message::Action;
use dgc_core::protocol::DgcState;
use dgc_core::sweep::{sweep_sharded, SweepPools, SweepUnit};
use dgc_core::units::Time;
use dgc_rt_net::frame::{encode_batch_frame, split_len};
use dgc_rt_net::{Frame, FrameDecoder, Item, NetConfig};

use crate::checks::{self, Check};
use crate::gen::Population;
use crate::report::Layers;
use crate::sys;
use crate::trace::{self, Tracer};

/// Untimed rounds first, so tables and buffers are warm.
const WARM_ROUNDS: u32 = 3;
/// Timed rounds: at least this many, then until the budget is spent.
const MIN_ROUNDS: u32 = 10;
const BUDGET: Duration = Duration::from_secs(2);

/// Replayed cost of each layer, ns per unit (or item) through it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Costs {
    pub sweep_ns: f64,
    pub enqueue_ns: f64,
    pub flush_ns: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub dispatch_ns: f64,
}

pub struct Replay {
    pub costs: Costs,
    /// Units, items and allocations through each phase of the timed
    /// rounds.
    counts: Counts,
    /// Units decoded must equal units emitted.
    pub check: Check,
}

impl Replay {
    /// Fills in the replayed layers' figures.
    pub fn fill(&self, l: &mut Layers) {
        let c = &self.counts;
        let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        l.sweep_ns_per_unit = self.costs.sweep_ns;
        l.sweep_allocs_per_unit = per(c.sweep_allocs, c.swept);
        l.enqueue_ns_per_unit = self.costs.enqueue_ns;
        l.flush_ns_per_item = self.costs.flush_ns;
        l.items_per_flush = per(c.flushed, c.flushes);
        l.dispatch_ns_per_unit = self.costs.dispatch_ns;
        l.encode_ns_per_item = self.costs.encode_ns;
        l.decode_ns_per_item = self.costs.decode_ns;
        l.frame_bytes_per_item = per(c.wire_bytes, c.encoded);
        l.frame_allocs_per_item = per(c.frame_allocs, c.encoded);
        l.replay_units = c.enqueued as f64;
    }
}

struct Endpoint {
    state: DgcState,
    idle: bool,
}

struct Node {
    eps: Vec<Endpoint>,
    outbox: Outbox<Item>,
    pools: SweepPools,
    decoder: FrameDecoder,
    /// Units emitted and not yet enqueued.
    units: Vec<SweepUnit>,
    /// Decoded items not yet dispatched.
    inbox: Vec<Item>,
}

/// Units, items and allocations that passed each phase (time comes
/// from the spans).
#[derive(Debug, Default)]
struct Counts {
    swept: u64,
    sweep_allocs: u64,
    enqueued: u64,
    flushed: u64,
    flushes: u64,
    polled: u64,
    encoded: u64,
    wire_bytes: u64,
    frame_allocs: u64,
    decoded: u64,
    dispatched: u64,
}

fn build(pop: &Population, cfg: DgcConfig, net: &NetConfig) -> [Node; 2] {
    let t0 = Time::ZERO;
    let mut nodes: [Node; 2] = std::array::from_fn(|n| Node {
        eps: (0..pop.per_node)
            .map(|i| Endpoint {
                state: DgcState::new(AoId::new(n as u32, i), t0, cfg),
                idle: false,
            })
            .collect(),
        outbox: Outbox::new(net.egress),
        pools: SweepPools::new(),
        decoder: FrameDecoder::new(),
        units: Vec::new(),
        inbox: Vec::new(),
    });
    for &((fnode, fi), (tnode, ti)) in &pop.edges {
        nodes[fnode as usize].eps[fi as usize]
            .state
            .on_stub_deserialized(AoId::new(tnode, ti));
    }
    for (n, node) in nodes.iter_mut().enumerate() {
        for (i, ep) in node.eps.iter_mut().enumerate() {
            if !pop.is_root((n as u32, i as u32)) {
                ep.idle = true;
                ep.state.on_became_idle(t0);
            }
        }
    }
    nodes
}

/// Moves `node`'s pending units through its outbox and onto the wire,
/// returning the encoded frames.
fn egress(
    node: &mut Node,
    now: Time,
    net: &NetConfig,
    c: &mut Counts,
    tr: &mut Tracer,
) -> Vec<Vec<u8>> {
    let mut flushes: Vec<Flush<Item>> = Vec::new();
    let s = tr.begin("core.egress.enqueue");
    for unit in node.units.drain(..) {
        let item = match unit.action {
            Action::SendMessage { to, message } => Item::Dgc {
                from: unit.from,
                to,
                message,
            },
            Action::SendResponse { to, response } => Item::Resp {
                from: unit.from,
                to,
                response,
            },
            _ => continue,
        };
        c.enqueued += 1;
        let size = item.wire_size();
        let dest = item.destination_node();
        if let Some(f) = node.outbox.enqueue(now, dest, item.class(), size, item) {
            flushes.push(f);
        }
    }
    tr.end(s);

    let s = tr.begin("core.egress.flush");
    let polled = node.outbox.poll(now + net.egress.max_delay);
    tr.end(s);
    c.polled += polled.iter().map(|f| f.items.len() as u64).sum::<u64>();
    flushes.extend(polled);

    let a = sys::allocs();
    let s = tr.begin("frame.encode");
    let mut wire = Vec::new();
    for f in flushes {
        c.flushes += 1;
        c.flushed += f.items.len() as u64;
        let items: Vec<Item> = f.items.into_iter().map(|q| q.item).collect();
        let mut off = 0;
        while off < items.len() {
            let n = split_len(&items[off..]);
            let frame = encode_batch_frame(&items[off..off + n]);
            c.wire_bytes += frame.len() as u64;
            wire.push(frame);
            c.encoded += n as u64;
            off += n;
        }
    }
    tr.end(s);
    c.frame_allocs += sys::allocs() - a;
    wire
}

/// Decodes the frames of `wire` into `node`'s inbox.
fn ingress(node: &mut Node, wire: &[Vec<u8>], c: &mut Counts, tr: &mut Tracer) {
    let a = sys::allocs();
    let s = tr.begin("frame.decode");
    for chunk in wire {
        node.decoder.push(chunk);
        while let Some(frame) = node.decoder.next_frame().expect("self-framed stream") {
            if let Frame::Batch(items) = frame {
                c.decoded += items.len() as u64;
                node.inbox.extend(items);
            }
        }
    }
    tr.end(s);
    c.frame_allocs += sys::allocs() - a;
}

/// Hands `node`'s inbox to its endpoints: messages to `on_message`,
/// responses to `on_response`, as the node's loop does.
fn dispatch(node: &mut Node, now: Time, c: &mut Counts, tr: &mut Tracer) {
    let s = tr.begin("core.dispatch");
    for item in node.inbox.drain(..) {
        c.dispatched += 1;
        match item {
            Item::Dgc { to, message, .. } => {
                if let Some(ep) = node.eps.get_mut(to.index as usize) {
                    ep.state.on_message_into(now, &message, &mut node.units);
                }
            }
            Item::Resp { from, to, response } => {
                if let Some(ep) = node.eps.get_mut(to.index as usize) {
                    let idle = ep.idle;
                    for action in ep.state.on_response(now, from, &response, idle) {
                        node.units.push(SweepUnit { from: to, action });
                    }
                }
            }
            _ => {}
        }
    }
    tr.end(s);
}

/// One TTB round: both nodes sweep, then units bounce between the
/// nodes until none is in flight (heartbeats, then their responses).
fn round(nodes: &mut [Node; 2], now: Time, net: &NetConfig, c: &mut Counts, tr: &mut Tracer) {
    let r = tr.begin("replay.round");
    for node in nodes.iter_mut() {
        let a = sys::allocs();
        let s = tr.begin("core.sweep");
        let mut due: Vec<&mut Endpoint> = node.eps.iter_mut().collect();
        sweep_sharded(
            &mut due,
            net.sweep_shards,
            &mut node.pools,
            |ep, scratch, sink| {
                ep.state.on_tick_into(now, ep.idle, scratch, sink);
            },
        );
        drop(due);
        let before = node.units.len();
        node.units.extend(node.pools.drain_units());
        tr.end(s);
        c.sweep_allocs += sys::allocs() - a;
        c.swept += (node.units.len() - before) as u64;
    }
    while nodes.iter().any(|n| !n.units.is_empty()) {
        let wires: Vec<Vec<Vec<u8>>> = nodes
            .iter_mut()
            .map(|n| egress(n, now, net, c, tr))
            .collect();
        for (n, wire) in wires.iter().enumerate() {
            // Every unit here is addressed to the other node.
            ingress(&mut nodes[1 - n], wire, c, tr);
        }
        for node in nodes.iter_mut() {
            dispatch(node, now, c, tr);
        }
    }
    tr.end(r);
}

/// Replays `pop` under `cfg` with the socket runtime's default egress
/// policy and sweep fan-out, returning per-layer costs. Records spans
/// into `tr` for the timed rounds.
pub fn run(pop: &Population, cfg: DgcConfig, tr: &mut Tracer) -> Replay {
    let net = NetConfig::new(cfg);
    let mut nodes = build(pop, cfg, &net);
    let ttb = cfg.ttb.as_nanos();
    let at = |r: u32| Time::from_nanos((r as u64 + 1) * ttb);
    let was = tr.enabled();
    tr.set_enabled(false);
    let mut warm = Counts::default();
    for r in 0..WARM_ROUNDS {
        round(&mut nodes, at(r), &net, &mut warm, tr);
    }
    tr.set_enabled(true);
    let first = tr.spans().len();
    let mut c = Counts::default();
    let start = Instant::now();
    let mut r = WARM_ROUNDS;
    while r < WARM_ROUNDS + MIN_ROUNDS || start.elapsed() < BUDGET {
        round(&mut nodes, at(r), &net, &mut c, tr);
        r += 1;
    }
    tr.set_enabled(was);

    let self_ns = trace::self_times(&tr.spans()[first..]);
    let ns = |name: &str| self_ns.get(name).map_or(0.0, |t| t.0 as f64);
    let per = |ns: f64, n: u64| if n == 0 { 0.0 } else { ns / n as f64 };
    let costs = Costs {
        sweep_ns: per(ns("core.sweep"), c.swept),
        enqueue_ns: per(ns("core.egress.enqueue"), c.enqueued),
        flush_ns: per(ns("core.egress.flush"), c.polled),
        encode_ns: per(ns("frame.encode"), c.encoded),
        decode_ns: per(ns("frame.decode"), c.decoded),
        dispatch_ns: per(ns("core.dispatch"), c.dispatched),
    };
    Replay {
        costs,
        check: checks::replay(c.enqueued + warm.enqueued, c.decoded + warm.decoded),
        counts: c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_replay_round_trips_every_unit() {
        let pop = crate::gen::population(5, 200, 4, 10);
        let mut tr = Tracer::new(true, 0);
        let r = run(&pop, crate::socket::HOLD_10K.dgc(), &mut tr);
        assert!(r.check.ok(), "{:?}", r.check);
        // Four heartbeats a round per activity, each answered.
        let mut l = Layers::default();
        r.fill(&mut l);
        assert!(l.replay_units >= (MIN_ROUNDS * 2 * 400 * 4) as f64);
        assert!(r.costs.sweep_ns > 0.0 && r.costs.decode_ns > 0.0);
        assert!(l.items_per_flush > 1.0);
    }
}

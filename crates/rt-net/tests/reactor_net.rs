//! Edge cases of the reactor I/O engine, pinned explicitly (these
//! tests force [`IoEngine::Reactor`] rather than relying on
//! `DGC_NET_ENGINE`): partial frames dribbling across readiness
//! events, write-buffer backpressure against a reader that never
//! reads, and a connection severed mid-frame.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use dgc_core::config::DgcConfig;
use dgc_core::id::AoId;
use dgc_core::units::Dur;
use dgc_rt_net::frame::{encode_batch_frame, encode_frame, Frame, Item, PROTOCOL_VERSION};
use dgc_rt_net::{Cluster, IoEngine, NetConfig, NetNode};

fn cfg() -> NetConfig {
    NetConfig::new(
        DgcConfig::builder()
            .ttb(Dur::from_millis(25))
            .tta(Dur::from_millis(80))
            .max_comm(Dur::from_millis(20))
            .build(),
    )
    .engine(IoEngine::Reactor)
}

fn poll_until(deadline: Duration, check: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if check() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    check()
}

/// A hello + one-app-item batch, as a fake peer `node` would send them.
fn hello_and_batch(node: u32, to: AoId, payload: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let hello = encode_frame(&Frame::Hello {
        node,
        version: PROTOCOL_VERSION,
    });
    let batch = encode_batch_frame(&[Item::App {
        from: AoId::new(node, 0),
        to,
        reply: false,
        tenant: 0,
        payload: payload.to_vec().into(),
    }]);
    (hello, batch)
}

#[test]
fn partial_frames_dribbled_across_readiness_events_reassemble() {
    let node = NetNode::bind(0, cfg()).unwrap();
    let target = node.add_activity();

    // Write the hello and the batch three bytes at a time with real
    // pauses: every dribble is its own readiness event, so the decoder
    // must carry partial frames across `poll` rounds.
    let (hello, batch) = hello_and_batch(9, target, b"dribbled payload");
    let mut client = TcpStream::connect(node.addr()).unwrap();
    client.set_nodelay(true).unwrap();
    let wire: Vec<u8> = [hello, batch].concat();
    for chunk in wire.chunks(3) {
        client.write_all(chunk).unwrap();
        client.flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }

    assert!(
        poll_until(Duration::from_secs(5), || !node.app_received().is_empty()),
        "the dribbled app unit never arrived"
    );
    let got = node.app_received();
    assert_eq!(got[0].payload, b"dribbled payload");
    assert_eq!(got[0].to, target);
    assert_eq!(node.stats().decode_errors, 0, "dribble is not corruption");
    drop(client);
    node.shutdown();
}

#[test]
fn severed_mid_frame_discards_the_torso_and_takes_the_next_connection() {
    let node = NetNode::bind(0, cfg()).unwrap();
    let target = node.add_activity();

    // First connection dies halfway through a frame…
    let (hello, batch) = hello_and_batch(9, target, b"lost to the sever");
    let mut dying = TcpStream::connect(node.addr()).unwrap();
    dying.write_all(&hello).unwrap();
    dying.write_all(&batch[..batch.len() / 2]).unwrap();
    dying.flush().unwrap();
    std::thread::sleep(Duration::from_millis(50));
    drop(dying);

    // …which must neither deliver a torso nor poison the node: a fresh
    // connection (same claimed peer) delivers normally.
    let (hello, batch) = hello_and_batch(9, target, b"second life");
    let mut fresh = TcpStream::connect(node.addr()).unwrap();
    fresh.write_all(&[hello, batch].concat()).unwrap();
    fresh.flush().unwrap();

    assert!(
        poll_until(Duration::from_secs(5), || !node.app_received().is_empty()),
        "the post-sever connection never delivered"
    );
    let got = node.app_received();
    assert_eq!(got.len(), 1, "the severed torso must not deliver: {got:?}");
    assert_eq!(got[0].payload, b"second life");
    assert_eq!(
        node.stats().decode_errors,
        0,
        "truncation is not corruption"
    );
    drop(fresh);
    node.shutdown();
}

#[test]
fn slow_reader_backpressure_sheds_instead_of_wedging_the_loop() {
    // The "peer" accepts the reactor's connection and then never reads:
    // the kernel buffers fill, writes stall, and the link's pending
    // queue climbs. With a tight `max_link_pending` the overflow must
    // be shed into visible send failures while the event loop stays
    // responsive — not buffered without bound, not a wedged loop.
    let sink = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let sink_addr = sink.local_addr().unwrap();
    let accepter = std::thread::spawn(move || {
        let (stream, _) = sink.accept().unwrap();
        // Hold the socket open, reading nothing, until the test ends.
        std::thread::sleep(Duration::from_secs(20));
        drop(stream);
    });

    let node = NetNode::bind(0, cfg().max_link_pending(64)).unwrap();
    node.add_peer(1, sink_addr);
    let from = node.add_activity();
    let to = AoId::new(1, 0);
    for _ in 0..600 {
        node.send_app(from, to, false, vec![0xAB; 16 * 1024]);
    }

    assert!(
        poll_until(Duration::from_secs(15), || {
            node.stats().send_failures > 0 || !node.app_send_failures().is_empty()
        }),
        "overflow was neither shed nor surfaced; pending {:?}",
        node.egress_pending()
    );
    // The loop is still alive and answering control traffic.
    let probe = node.add_activity();
    node.set_idle(probe, true);
    assert!(
        node.wait_until(Duration::from_secs(10), |t| t.iter().any(|x| x.ao == probe)),
        "event loop wedged behind the stalled link"
    );
    node.shutdown();
    drop(accepter); // detach: it unblocks on its own timer
}

#[test]
fn cross_node_cycle_is_collected_on_the_reactor_engine() {
    // The whole-protocol smoke under the pinned reactor engine, env be
    // damned: two nodes, a cross-node cycle, full collection.
    let cluster = Cluster::listen_local(2, cfg()).unwrap();
    let a = cluster.add_activity(0);
    let b = cluster.add_activity(1);
    cluster.add_ref(a, b);
    cluster.add_ref(b, a);
    cluster.set_idle(a, true);
    cluster.set_idle(b, true);
    assert!(
        cluster.wait_until(Duration::from_secs(20), |t| t.len() == 2),
        "cyclic collection on the reactor engine: {:?}",
        cluster.terminated()
    );
    cluster.shutdown();
}

#[test]
fn heartbeat_never_overtakes_a_queued_add_activity() {
    // A command queued before a peer's item was even sent must take
    // effect before that item is dispatched. Here: `add_activity` on
    // node 1, then at once a cross-node `add_ref` from node 0, with no
    // sync between them. Node 0's first heartbeat to the new activity
    // can reach node 1's socket before node 1's loop has applied the
    // queued `AddActivity`; dispatched first, it bounces as a send
    // failure and the referencer drops a live edge.
    //
    // Node 1 hosts a ring of busy activities beating one another, so
    // its loop spends long stretches sweeping (longest in an
    // unoptimised build), and the race is hit often when the loop gets
    // the order wrong. Each target gets four referencers: enough that
    // one beats soon after the `add_ref`, few enough that node 0 keeps
    // up with the beats.
    const RING: usize = 10_000;
    const ATTEMPTS: usize = 200;
    // A generous TTA: the loaded loop must never look like silence.
    let config = NetConfig::new(
        DgcConfig::builder()
            .ttb(Dur::from_millis(25))
            .tta(Dur::from_millis(300))
            .max_comm(Dur::from_millis(100))
            .build(),
    )
    .engine(IoEngine::Reactor);
    let cluster = Cluster::listen_local(2, config).unwrap();
    let ring: Vec<AoId> = (0..RING).map(|_| cluster.add_activity(1)).collect();
    for (i, &a) in ring.iter().enumerate() {
        cluster.add_ref(a, ring[(i + 1) % RING]);
    }
    // Busy referencers on node 0, created apart so their beats spread
    // over a TTB: some referencer is always about to beat.
    let roots: Vec<AoId> = (0..8)
        .map(|_| {
            let r = cluster.add_activity(0);
            std::thread::sleep(Duration::from_millis(3));
            r
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));
    let mut targets = Vec::new();
    for k in 0..ATTEMPTS {
        let b = cluster.add_activity(1);
        for r in roots.iter().cycle().skip(k).take(4) {
            cluster.add_ref(*r, b);
        }
        cluster.set_idle(b, true);
        targets.push(b);
        std::thread::sleep(Duration::from_micros(500));
    }
    // Long enough for an unreferenced target to be collected (TTA).
    std::thread::sleep(Duration::from_millis(500));
    let lost: u64 = (0..2)
        .map(|n| {
            cluster
                .obs(n)
                .unwrap()
                .counter("dgc.clock_bumps.lost_referenced")
                .get()
        })
        .sum();
    let collected: Vec<AoId> = cluster
        .terminated()
        .iter()
        .map(|t| t.ao)
        .filter(|ao| targets.contains(ao))
        .collect();
    cluster.shutdown();
    assert_eq!(lost, 0, "referencers dropped live edges");
    assert!(
        collected.is_empty(),
        "referenced targets collected: {collected:?}"
    );
}

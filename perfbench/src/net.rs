//! What the two socket workloads share: building a seeded population
//! on a localhost [`Cluster`], metering a window of it, and reading the
//! per-layer figures the nodes keep.

use std::collections::BTreeMap;
use std::time::Instant;

use dgc_core::config::DgcConfig;
use dgc_core::id::AoId;
use dgc_rt_net::{Cluster, NetConfig, NetStatsSnapshot};

use crate::gen::Population;
use crate::report::Layers;
use crate::stats;
use crate::sys;
use crate::trace::Tracer;

/// A running two-node cluster holding a population. `ids[node][i]` is
/// the activity the population calls `(node, i)`.
pub struct Net {
    pub cluster: Cluster,
    pub ids: [Vec<AoId>; 2],
}

/// Starts two localhost nodes with `NetConfig::new` defaults around
/// `dgc` and creates `pop` on them: activities, edges, then idleness
/// for every non-root. Returns once both nodes' event loops have
/// applied all of it.
pub fn build(pop: &Population, dgc: DgcConfig, tr: &mut Tracer) -> Net {
    let cluster = Cluster::listen_local(2, NetConfig::new(dgc)).expect("bind two localhost nodes");
    let ids: [Vec<AoId>; 2] = std::array::from_fn(|node| {
        (0..pop.per_node)
            .map(|_| {
                let s = tr.begin("api.add_activity");
                let id = cluster.add_activity(node as u32);
                tr.end(s);
                id
            })
            .collect()
    });
    // Every activity exists before any reference to it is handed out:
    // a heartbeat that reached a not-yet-created activity would be
    // refused as a send to a dead one.
    sync(&cluster);
    for &((fnode, fi), (tnode, ti)) in &pop.edges {
        let s = tr.begin("api.add_ref");
        cluster.add_ref(
            ids[fnode as usize][fi as usize],
            ids[tnode as usize][ti as usize],
        );
        tr.end(s);
    }
    for node in 0..2u32 {
        for i in 0..pop.per_node {
            if !pop.is_root((node, i)) {
                let s = tr.begin("api.set_idle");
                cluster.set_idle(ids[node as usize][i as usize], true);
                tr.end(s);
            }
        }
    }
    sync(&cluster);
    Net { cluster, ids }
}

/// Waits until both nodes' event loops have drained every command sent
/// before this call: a query answered by the loop queues behind them.
pub fn sync(cluster: &Cluster) {
    for node in 0..2 {
        cluster
            .egress_stats(node)
            .expect("node event loop answers a query");
    }
}

/// Resource use over one measured window.
#[derive(Debug, Clone, Default)]
pub struct Usage {
    pub secs: f64,
    /// CPU of every thread but the driver's, ms per wall second.
    pub cpu_ms_per_s: f64,
    /// CPU of the driver thread, ms per wall second.
    pub driver_cpu_ms_per_s: f64,
    /// Transport counters accrued in the window, summed over nodes.
    pub stats: NetStatsSnapshot,
}

impl Usage {
    pub fn per_s(&self, count: u64) -> f64 {
        count as f64 / self.secs
    }

    pub fn wire_bytes_per_s(&self) -> f64 {
        self.per_s(self.stats.bytes_sent)
    }
}

/// Starts metering a window; [`Meter::stop`] ends it.
pub struct Meter {
    driver: u32,
    at: Instant,
    ticks: BTreeMap<u32, u64>,
    stats: NetStatsSnapshot,
}

impl Meter {
    pub fn start(cluster: &Cluster, driver: u32) -> Meter {
        Meter {
            driver,
            stats: cluster.total_stats(),
            ticks: sys::thread_ticks(),
            at: Instant::now(),
        }
    }

    pub fn stop(self, cluster: &Cluster) -> Usage {
        let ticks = sys::thread_ticks();
        let secs = self.at.elapsed().as_secs_f64();
        let after = cluster.total_stats();
        let (program, driver) = sys::cpu_ms_between(&self.ticks, &ticks, self.driver);
        let b = &self.stats;
        Usage {
            secs,
            cpu_ms_per_s: program / secs,
            driver_cpu_ms_per_s: driver / secs,
            stats: NetStatsSnapshot {
                frames_sent: after.frames_sent - b.frames_sent,
                bytes_sent: after.bytes_sent - b.bytes_sent,
                items_sent: after.items_sent - b.items_sent,
                frames_received: after.frames_received - b.frames_received,
                bytes_received: after.bytes_received - b.bytes_received,
                items_received: after.items_received - b.items_received,
                piggybacked: after.piggybacked - b.piggybacked,
                ..after
            },
        }
    }
}

/// Fills in the per-layer figures a traced window of a socket workload
/// yields: transport and egress counters, the protocol's collection
/// histograms, and the median of each driver API call.
pub fn layers(cluster: &Cluster, window: &Usage, tr: &Tracer, l: &mut Layers) {
    let s = &window.stats;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let total = cluster.total_stats();
    let obs = cluster.obs_merged();
    let hist_q = |name: &str, q: f64, scale: f64| {
        obs.histograms
            .get(name)
            .map_or(0.0, |h| h.quantile(q) as f64 / scale)
    };
    let api_us = |span: &str| {
        let d = tr.durations(span);
        if d.is_empty() {
            0.0
        } else {
            stats::median(&d) / 1e3
        }
    };
    l.items_per_frame = ratio(s.items_sent, s.frames_sent);
    l.bytes_per_item = ratio(s.bytes_sent, s.items_sent);
    l.piggyback_ratio = ratio(s.piggybacked, s.items_sent);
    l.send_failures = total.send_failures as f64;
    l.decode_errors = total.decode_errors as f64;
    l.reconnects = total.reconnects as f64;
    l.flush_linger_p50_us = hist_q("egress.flush_linger_ns", 0.5, 1e3);
    l.flush_linger_p99_us = hist_q("egress.flush_linger_ns", 0.99, 1e3);
    l.idle_to_consensus_p50_ms = hist_q("dgc.collect.idle_to_consensus_ns", 0.5, 1e6);
    l.consensus_to_collected_p50_ms = hist_q("dgc.collect.consensus_to_collected_ns", 0.5, 1e6);
    l.collected_cyclic = obs.counter("dgc.collected.cyclic") as f64;
    l.collected_acyclic = obs.counter("dgc.collected.acyclic") as f64;
    l.driver_cpu_ms_per_s = window.driver_cpu_ms_per_s;
    l.add_activity_us = api_us("api.add_activity");
    l.add_ref_us = api_us("api.add_ref");
    l.set_idle_us = api_us("api.set_idle");
    l.send_app_us = api_us("api.send_app");
    l.terminated_us = api_us("api.terminated");
}

/// `cpu_ms_per_s` left after charging the replayed per-unit costs at
/// the window's unit rates: the event loop, reactor, sockets and
/// scheduling. `app_items` are application units among the items sent.
pub fn loop_residual(window: &Usage, costs: &crate::replay::Costs, app_items: u64) -> f64 {
    let s = &window.stats;
    // Every heartbeat the sweep emits is answered by one response.
    let sweep_units = s.items_sent.saturating_sub(app_items) as f64 / 2.0;
    let sent = s.items_sent as f64;
    let received = s.items_received as f64;
    let charged_ns = sweep_units * costs.sweep_ns
        + sent * (costs.enqueue_ns + costs.flush_ns + costs.encode_ns)
        + received * (costs.decode_ns + costs.dispatch_ns);
    window.cpu_ms_per_s - charged_ns / 1e6 / window.secs
}

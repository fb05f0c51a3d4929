//! The two socket workloads: a seeded live population on two localhost
//! reactor nodes, an open-loop stream of garbage structures released
//! over it, and the application echo running alongside.
//!
//! `hold_10k` holds 10 000 live activities and releases a light stream
//! of garbage: the heartbeat hot path does almost all the work.
//! `cycle_churn` holds 2 000 and releases 200 structures a second: the
//! collection path does. Each structure — a cross-node cycle or chain —
//! is timed from when its release was due until every member shows up
//! in `Cluster::terminated()`.

use std::time::{Duration, Instant};

use dgc_core::config::DgcConfig;
use dgc_core::id::AoId;
use dgc_core::units::Dur;
use dgc_rt_net::node::Terminated;

use crate::checks::{self, SocketSeen};
use crate::gen::{self, Population, Release, Shape, Structure};
use crate::net::{self, Meter, Net, Usage};
use crate::probe::{Echoes, Probe};
use crate::report::{EndToEnd, Outcome};
use crate::stats;
use crate::sys;
use crate::trace::Tracer;

/// One socket workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Live activities per node.
    pub per_node: u32,
    /// Cross-node references per live activity.
    pub degree: u32,
    /// Busy roots, per mille of each node's live activities.
    pub roots_per_mille: u32,
    pub ttb_ms: u64,
    pub tta_ms: u64,
    pub max_comm_ms: u64,
    /// Garbage structures released per second (Poisson arrivals).
    pub rate: f64,
}

impl Spec {
    pub fn dgc(&self) -> DgcConfig {
        DgcConfig::builder()
            .ttb(Dur::from_millis(self.ttb_ms))
            .tta(Dur::from_millis(self.tta_ms))
            .max_comm(Dur::from_millis(self.max_comm_ms))
            .build()
    }

    pub fn population(&self, seed: u64) -> Population {
        gen::population(seed, self.per_node, self.degree, self.roots_per_mille)
    }

    /// A structure is created, busy, this long before its release is
    /// due: five beats.
    fn lead_ns(&self) -> u64 {
        5 * self.ttb_ms * 1_000_000
    }

    /// A root-held structure goes idle this long before its release:
    /// after two and a half beats, the root's reference is known at the
    /// far end. (Idle any earlier, the structure would be garbage as
    /// far as the collector can tell, which no real program can make
    /// happen: a reference arrives in a message from a live sender.)
    fn settle_ns(&self) -> u64 {
        self.lead_ns() / 2
    }

    /// A structure not wholly collected this long after its due time is
    /// reported uncollected: time for an 8-chain to fall link by link,
    /// with room to spare.
    fn deadline(&self) -> Duration {
        Duration::from_millis(20 * (self.tta_ms + self.ttb_ms)).max(Duration::from_secs(15))
    }
}

/// Two nodes × 5 000 live activities, TTB 100 ms, TTA 1 s, MaxComm
/// 100 ms, 40 garbage structures a second.
pub const HOLD_10K: Spec = Spec {
    per_node: 5_000,
    degree: 4,
    roots_per_mille: 10,
    ttb_ms: 100,
    tta_ms: 1_000,
    max_comm_ms: 100,
    rate: 40.0,
};

/// Two nodes × 1 000 live activities, TTB 50 ms, TTA 200 ms, MaxComm
/// 50 ms, 200 garbage structures a second.
pub const CYCLE_CHURN: Spec = Spec {
    per_node: 1_000,
    degree: 4,
    roots_per_mille: 10,
    ttb_ms: 50,
    tta_ms: 200,
    max_comm_ms: 50,
    rate: 200.0,
};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Unmeasured lead-in after the last set-up.
const WARMUP: Duration = Duration::from_secs(1);
/// `Cluster::terminated()` copies and sorts the whole log, so it is
/// polled on this period rather than continuously.
const POLL: Duration = Duration::from_millis(10);

/// One scheduled structure as the driver tracks it.
struct Tracked {
    plan: Structure,
    members: Vec<AoId>,
    /// The root holding it until release (`DropRoot`).
    holder: Option<AoId>,
    released: bool,
    /// Nanoseconds from due to observed collection.
    collected_after: Option<u64>,
    wrong_reason: bool,
    premature: bool,
}

/// The generator: creates, settles, releases and polls on schedule.
struct Driver<'a> {
    net: &'a Net,
    pop: &'a Population,
    plan: Vec<Tracked>,
    next_create: usize,
    next_settle: usize,
    next_release: usize,
    /// Release lateness, ms, one per release.
    late_ms: Vec<f64>,
    origin: Instant,
}

impl Driver<'_> {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn create(&mut self, k: usize, tr: &mut Tracer) {
        let c = &self.net.cluster;
        let p = self.plan[k].plan;
        let members: Vec<AoId> = (0..p.len)
            .map(|m| {
                let s = tr.begin("api.add_activity");
                let id = c.add_activity((p.first_node + m) % 2);
                tr.end(s);
                id
            })
            .collect();
        // `add_activity` returns before the node has created the
        // activity; a reference handed out earlier could reach it first
        // and be refused as a send to a dead activity.
        net::sync(c);
        let links = match p.shape {
            Shape::Cycle => p.len,
            Shape::Chain => p.len - 1,
        };
        for m in 0..links as usize {
            let s = tr.begin("api.add_ref");
            c.add_ref(members[m], members[(m + 1) % members.len()]);
            tr.end(s);
        }
        if p.release == Release::DropRoot {
            let side = 1 - p.first_node as usize;
            let roots = &self.pop.roots[side];
            let holder = self.net.ids[side][roots[p.holder as usize % roots.len()] as usize];
            let s = tr.begin("api.add_ref");
            c.add_ref(holder, members[0]);
            tr.end(s);
            self.plan[k].holder = Some(holder);
        }
        self.plan[k].members = members;
    }

    /// A root-held structure goes idle, still held.
    fn settle(&mut self, k: usize, tr: &mut Tracer) {
        if self.plan[k].holder.is_none() {
            return;
        }
        for &m in &self.plan[k].members {
            let s = tr.begin("api.set_idle");
            self.net.cluster.set_idle(m, true);
            tr.end(s);
        }
    }

    fn release(&mut self, k: usize, tr: &mut Tracer) {
        let c = &self.net.cluster;
        let t = &mut self.plan[k];
        match t.holder {
            Some(holder) => {
                let s = tr.begin("api.drop_ref");
                c.drop_ref(holder, t.members[0]);
                tr.end(s);
            }
            None => {
                for &m in &t.members {
                    let s = tr.begin("api.set_idle");
                    c.set_idle(m, true);
                    tr.end(s);
                }
            }
        }
        t.released = true;
        let late = self.origin.elapsed().as_nanos() as u64 - t.plan.due_ns;
        self.late_ms.push(late as f64 / 1e6);
    }

    /// Reads the termination log once and settles every structure it
    /// completes. Returns how many released structures are still open.
    fn poll(&mut self, tr: &mut Tracer) -> usize {
        let s = tr.begin("api.terminated");
        let log = self.net.cluster.terminated();
        tr.end(s);
        let seen_ns = self.now_ns();
        let find = |ao: AoId| -> Option<&Terminated> {
            log.binary_search_by_key(&ao, |t| t.ao)
                .ok()
                .map(|i| &log[i])
        };
        let mut open = 0;
        for t in &mut self.plan[..self.next_create] {
            if t.collected_after.is_some() || t.premature {
                continue;
            }
            let done: Vec<&Terminated> = t.members.iter().filter_map(|&m| find(m)).collect();
            if !t.released {
                t.premature = !done.is_empty();
            } else if done.len() == t.members.len() {
                t.collected_after = Some(seen_ns.saturating_sub(t.plan.due_ns));
                t.wrong_reason =
                    !checks::right_reasons(t.plan.shape, done.iter().map(|d| d.reason));
            } else {
                open += 1;
            }
        }
        open
    }
}

/// One metered stretch of the run: resources, the structures due in it,
/// and the echoes answered in it.
struct Window {
    usage: Usage,
    from_ns: u64,
    to_ns: u64,
    echoes: Echoes,
}

impl Window {
    fn e2e(&self, d: &Driver<'_>) -> EndToEnd {
        let mut v: Vec<f64> = d
            .plan
            .iter()
            .filter(|t| t.released && (self.from_ns..self.to_ns).contains(&t.plan.due_ns))
            .filter_map(|t| t.collected_after)
            .map(|ns| ns as f64 / 1e6)
            .collect();
        v.sort_by(f64::total_cmp);
        let q = |q| {
            if v.is_empty() {
                f64::NAN
            } else {
                stats::quantile(&v, q)
            }
        };
        EndToEnd {
            cpu_ms_per_s: self.usage.cpu_ms_per_s,
            wire_bytes_per_s: self.usage.wire_bytes_per_s(),
            collect_p50_ms: q(0.5),
            collect_p99_ms: q(0.99),
            ..Default::default()
        }
    }
}

pub fn run(spec: &Spec, seed: u64, seconds: u64, tr: &mut Tracer) -> Outcome {
    let driver = sys::current_tid();
    let pop = spec.population(seed);
    let traced = tr.enabled();
    let mut setup = Vec::new();
    let mut net = None;
    for i in 0..SETUPS {
        // The previous cluster shuts down before the next is timed.
        drop(net.take());
        // One set-up's API spans are plenty, and keep the span file small.
        tr.set_enabled(traced && i == 0);
        let s = tr.begin("setup");
        let t = Instant::now();
        net = Some(net::build(&pop, spec.dgc(), tr));
        setup.push(t.elapsed().as_secs_f64());
        tr.end(s);
    }
    let net = net.expect("set up at least once");
    let root = |node: usize| net.ids[node][pop.roots[node][0] as usize];
    let probe = Probe::install(&net, root(0), root(1), seed);
    std::thread::sleep(WARMUP);

    let end_ns = seconds * 1_000_000_000;
    // Traced runs meter the two halves apart: untraced, then traced.
    let split_ns = if traced { end_ns / 2 } else { end_ns };
    let (lead, settle) = (spec.lead_ns(), spec.settle_ns());
    let mut d = Driver {
        net: &net,
        pop: &pop,
        plan: gen::schedule(seed, spec.rate, lead, end_ns)
            .into_iter()
            .map(|plan| Tracked {
                plan,
                members: Vec::new(),
                holder: None,
                released: false,
                collected_after: None,
                wrong_reason: false,
                premature: false,
            })
            .collect(),
        next_create: 0,
        next_settle: 0,
        next_release: 0,
        late_ms: Vec::new(),
        origin: Instant::now(),
    };
    let mut windows: Vec<Window> = Vec::new();
    let mut meter = Some(Meter::start(&net.cluster, driver));
    let mut next_poll = 0u64;
    let poll_ns = POLL.as_nanos() as u64;
    loop {
        let now = d.now_ns();
        if now >= split_ns && windows.is_empty() && split_ns < end_ns {
            windows.push(Window {
                usage: meter.take().expect("first window open").stop(&net.cluster),
                from_ns: 0,
                to_ns: split_ns,
                echoes: probe.take(),
            });
            tr.set_enabled(true);
            meter = Some(Meter::start(&net.cluster, driver));
        }
        if now >= end_ns {
            break;
        }
        while let Some(t) = d.plan.get(d.next_create) {
            if t.plan.due_ns.saturating_sub(lead) > now {
                break;
            }
            d.create(d.next_create, tr);
            d.next_create += 1;
        }
        while d.next_settle < d.next_create
            && d.plan[d.next_settle].plan.due_ns.saturating_sub(settle) <= now
        {
            d.settle(d.next_settle, tr);
            d.next_settle += 1;
        }
        while d.next_release < d.next_settle && d.plan[d.next_release].plan.due_ns <= now {
            d.release(d.next_release, tr);
            d.next_release += 1;
        }
        if now >= next_poll {
            d.poll(tr);
            next_poll = now + poll_ns;
        }
        let at = |ns: u64| d.origin + Duration::from_nanos(ns);
        let due = |i: usize, before: u64| {
            d.plan
                .get(i)
                .map_or(end_ns, |t| t.plan.due_ns.saturating_sub(before))
        };
        let wake = [
            at(next_poll),
            at(due(d.next_create, lead)),
            at(due(d.next_settle, settle)),
            at(due(d.next_release, 0)),
            at(end_ns.min(if windows.is_empty() { split_ns } else { end_ns })),
            probe.tick(&net, tr),
        ]
        .into_iter()
        .min()
        .expect("wake times listed");
        std::thread::sleep(wake.saturating_duration_since(Instant::now()));
    }
    windows.push(Window {
        usage: meter.take().expect("last window open").stop(&net.cluster),
        from_ns: if traced { split_ns } else { 0 },
        to_ns: end_ns,
        echoes: probe.take(),
    });
    // Drain: wait for the released structures, polling on the same
    // period, up to the deadline of the last one.
    let deadline_ns = spec.deadline().as_nanos() as u64;
    let last_due = d.plan.last().map_or(end_ns, |t| t.plan.due_ns);
    while d.poll(tr) > 0 && d.now_ns() < last_due + deadline_ns {
        std::thread::sleep(POLL);
    }
    let log = net.cluster.terminated();
    let mut live: Vec<AoId> = net.ids.iter().flatten().copied().collect();
    live.sort_unstable();
    let live_collected = log
        .iter()
        .filter(|t| live.binary_search(&t.ao).is_ok())
        .count() as u64;

    let released: Vec<&Tracked> = d.plan.iter().filter(|t| t.released).collect();
    let echoes = windows.iter().map(|w| (w.echoes.requests, w.echoes.failed));
    let (requests, app_failed) = echoes.fold((0, 0), |a, e| (a.0 + e.0, a.1 + e.1));
    let seen = SocketSeen {
        live: live.len() as u64,
        live_collected,
        premature: d.plan.iter().filter(|t| t.premature).count() as u64,
        released: released.len() as u64,
        uncollected: released
            .iter()
            .filter(|t| t.collected_after.is_none_or(|ns| ns > deadline_ns))
            .count() as u64,
        wrong_reason: released.iter().filter(|t| t.wrong_reason).count() as u64,
        requests,
        app_failed,
    };
    let main = windows.last().expect("a metered window");
    let mut out = Outcome {
        e2e: EndToEnd {
            setup_s: stats::median(&setup),
            rss_mib: sys::peak_rss_mib(),
            ..main.e2e(&d)
        },
        checks: checks::socket(&seen),
        ..Default::default()
    };
    let mut late = d.late_ms.clone();
    late.sort_by(f64::total_cmp);
    let mut rtts = main.echoes.rtts.clone();
    rtts.sort_by(f64::total_cmp);
    if traced {
        let l = &mut out.layers;
        l.trace_overhead = main.e2e(&d).overhead_over(&windows[0].e2e(&d));
        net::layers(&net.cluster, &main.usage, tr, l);
        if !late.is_empty() {
            l.gen_late_p99_ms = stats::quantile(&late, 0.99);
        }
        if !rtts.is_empty() {
            l.app_rtt_p50_ms = stats::quantile(&rtts, 0.5);
            l.app_rtt_p99_ms = stats::quantile(&rtts, 0.99);
        }
        // The replay is always of the hold_10k population, so its
        // per-unit costs compare across workloads.
        let replay = crate::replay::run(&HOLD_10K.population(seed), HOLD_10K.dgc(), tr);
        replay.fill(l);
        // Two app units per echo: the request and its reply.
        let app_items = 2 * main.echoes.requests;
        l.loop_residual_ms_per_s = net::loop_residual(&main.usage, &replay.costs, app_items);
        out.checks.push(replay.check);
    }
    let mut collect: Vec<f64> = released
        .iter()
        .filter_map(|t| t.collected_after)
        .map(|ns| ns as f64 / 1e6)
        .collect();
    collect.sort_by(f64::total_cmp);
    for (name, v) in [("collect", &collect), ("app_rtt", &rtts)] {
        if let Some(t) = stats::tail(v) {
            out.extra.insert(format!("{name}_tail_q"), t.q);
            out.extra.insert(format!("{name}_tail_ms"), t.value);
            out.extra.insert(format!("{name}_n"), t.n as f64);
        }
    }
    if !rtts.is_empty() {
        out.extra
            .insert("app_rtt_p50_ms".into(), stats::quantile(&rtts, 0.5));
        out.extra
            .insert("app_rtt_p99_ms".into(), stats::quantile(&rtts, 0.99));
    }
    if !late.is_empty() {
        out.extra
            .insert("gen_late_p99_ms".into(), stats::quantile(&late, 0.99));
    }
    for (name, v) in [
        ("live_collected", seen.live_collected + seen.premature),
        ("garbage_uncollected", seen.uncollected),
        ("wrong_reason", seen.wrong_reason),
        ("app_failed", seen.app_failed),
    ] {
        out.extra.insert(name.into(), v as f64);
    }
    out.extra
        .insert("driver_cpu_ms_per_s".into(), main.usage.driver_cpu_ms_per_s);
    out.sizes = [
        ("nodes", 2),
        ("live", seen.live),
        ("edges", pop.edges.len() as u64),
        ("structures", seen.released),
        ("rate_per_s", spec.rate as u64),
        ("setups", SETUPS as u64),
    ]
    .into();
    out
}

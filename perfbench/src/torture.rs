//! `sim_torture`: the paper's §5.3 torture test in the deterministic
//! simulator — 128 processes × 50 slaves plus the master, TTB 30 s,
//! TTA 150 s — run to full collection, twice side by side.
//!
//! Rates here are per second of *virtual* time, the system's own clock:
//! `cpu_ms_per_s` is the simulator's CPU per simulated second, read
//! from a cost probe of scaled-down tortures (see [`probe`]), and
//! `wire_bytes_per_s` the simulated network's bandwidth.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

use dgc_activeobj::activity::{Behavior, Inert};
use dgc_activeobj::collector::CollectorKind;
use dgc_activeobj::runtime::{Grid, GridConfig, Sample};
use dgc_core::config::DgcConfig;
use dgc_core::units::Dur;
use dgc_simnet::time::SimTime;
use dgc_simnet::topology::{ProcId, Topology};
use dgc_simnet::trace::TraceLevel;
use dgc_workloads::torture::{run_torture, Slave, TortureOutcome, TortureParams};

use crate::checks::{self, TortureSeen};
use crate::gen;
use crate::report::{EndToEnd, Outcome};
use crate::stats;
use crate::sys;
use crate::trace::Tracer;

const SETUPS: usize = 7;
/// Bound on the collection phase, virtual seconds (the paper's run
/// finishes near 2 400 s).
const DEADLINE_S: u64 = 30_000;

fn collector() -> CollectorKind {
    CollectorKind::Complete(
        DgcConfig::builder()
            .ttb(Dur::from_secs(30))
            .tta(Dur::from_secs(150))
            .max_comm(Dur::from_millis(500))
            .build(),
    )
}

/// Builds the torture grid — every slave spawned and referenced by
/// the deployer — without running it: the simulator's set-up work.
fn build_grid(params: &TortureParams, seed: u64) -> Grid {
    let topology = Topology::grid5000();
    let procs = topology.procs();
    let mut grid = Grid::new(
        GridConfig::new(topology)
            .collector(collector())
            .seed(seed)
            .sample_every(params.sample_every)
            .trace_level(TraceLevel::Off),
    );
    let until = SimTime::ZERO + params.active_duration;
    let slave = || -> Box<dyn Behavior> {
        Box::new(Slave::new(until, params.iter_period, params.max_degree))
    };
    let mut slaves = vec![grid.spawn(ProcId(0), slave())];
    for p in 0..procs {
        for _ in 0..params.slaves_per_proc {
            slaves.push(grid.spawn(ProcId(p), slave()));
        }
    }
    let deployer = grid.spawn_root(ProcId(0), Box::new(Inert));
    for s in &slaves {
        grid.make_ref(deployer, *s);
    }
    grid
}

/// Virtual ms after quiescence by which a `q` share of the objects had
/// been collected, read off the sampled collection curve (objects
/// collected before quiescence count as zero). `baseline` is the
/// number of collections that are not objects of the test (the
/// deployer, killed at start-up).
pub fn collect_quantile(
    samples: &[Sample],
    quiescent: SimTime,
    objects: usize,
    baseline: usize,
    q: f64,
) -> Option<f64> {
    let need = ((q * objects as f64).ceil() as usize).max(1);
    let at = samples
        .iter()
        .find(|s| s.collected.saturating_sub(baseline) >= need)?
        .at;
    Some(at.as_secs_f64().max(quiescent.as_secs_f64()) * 1e3 - quiescent.as_secs_f64() * 1e3)
}

/// Torture runs per benchmark run, side by side on worker threads, one
/// seed each. The collection wave's timing depends strongly on the
/// seed; a run reports the mean over its tortures, which narrows the
/// spread between runs, and costs no wall time on two cores.
const RUNS: u64 = 2;

/// The seed of torture `k` of a run seeded with `seed`.
fn torture_seed(seed: u64, k: u64) -> u64 {
    gen::Rng::new(seed ^ k.wrapping_mul(0x7041_7E5E_ED00_0001)).next_u64()
}

/// The cost probe's torture: the paper's parameters on the paper's
/// three sites, with 2 processes per site (301 activities), which runs
/// to full collection in about half a second.
const PROBE_PROCS_PER_SITE: u32 = 2;
/// Seeds the probe runs, one torture each. A torture's CPU time barely
/// depends on its seed, but its virtual time to full collection varies
/// by about 8%, which 20 seeds average out.
const PROBE_SEEDS: u64 = 20;
/// Events the reference kernel steps per call.
const REFERENCE_EVENTS: u32 = 200_000;
/// CPU ms of one reference call on an unloaded core of the 2-core
/// machine the benchmark was built on: the unit the probe is scaled to.
const REFERENCE_MS: f64 = 55.0;

/// The simulator's cost probe, which `cpu_ms_per_s` reports.
struct CostProbe {
    /// Simulator CPU ms per virtual second, scaled by the reference
    /// kernel's speed: `raw_cpu_ms_per_s * REFERENCE_MS / reference_ms`.
    cpu_ms_per_s: f64,
    /// Simulator CPU ms per virtual second as the thread clock read it.
    raw_cpu_ms_per_s: f64,
    /// Mean CPU ms of a reference call.
    reference_ms: f64,
    seen: TortureSeen,
}

/// Runs the scaled-down torture over [`PROBE_SEEDS`] seeds on the
/// calling thread, each after a call of the reference kernel, and times
/// both by the thread's own CPU clock.
///
/// On a 2-core share of a busy host the CPU time of the same simulator
/// work drifts by a fifth and more over minutes, with whatever else
/// runs on the host: summed over windows of 8–17 s, the CPU time of
/// one scaled-down torture repeated had an interquartile range of
/// 23–25% of its median. A run of the benchmark measures inside one
/// such stretch, so no number of repetitions within a run removes the
/// drift. The reference kernel (see [`reference`]) is fixed code of
/// this benchmark that does the kind of work the simulator does. It
/// drifts with the simulator, so the ratio of the two holds much
/// stiller: over the same windows its interquartile range was
/// 4.5–5.4%. The probe reports the simulator's CPU in units of the
/// reference's speed, converted to ms at [`REFERENCE_MS`], and the
/// results log keeps the raw figure.
fn probe(seed: u64) -> CostProbe {
    let params = TortureParams::paper();
    let (mut sim_ms, mut sim_s, mut ref_ms) = (0.0, 0.0, 0.0);
    let mut seen = TortureSeen {
        all_collected: true,
        ..Default::default()
    };
    for k in 0..PROBE_SEEDS {
        let topology = Topology::grid5000_scaled(PROBE_PROCS_PER_SITE);
        let t0 = sys::thread_cpu_ms();
        std::hint::black_box(reference(REFERENCE_EVENTS));
        let t1 = sys::thread_cpu_ms();
        let o = run_torture(
            &params,
            topology,
            collector(),
            torture_seed(seed, RUNS + k),
            SimTime::from_secs(DEADLINE_S),
        );
        sim_ms += sys::thread_cpu_ms() - t1;
        ref_ms += t1 - t0;
        sim_s += done_s(&o);
        seen.add(&o);
    }
    let raw = sim_ms / sim_s;
    let reference_ms = ref_ms / PROBE_SEEDS as f64;
    CostProbe {
        cpu_ms_per_s: raw * REFERENCE_MS / reference_ms,
        raw_cpu_ms_per_s: raw,
        reference_ms,
        seen,
    }
}

/// The probe's reference kernel: a fixed discrete-event loop of this
/// benchmark's own, which the program's changes cannot touch. 4 096
/// actors keep their state in a hash map; an event queue orders
/// messages, each a small heap-allocated payload that the receiver
/// folds into its state before it sends one on. Same input on every
/// call, so the work is the same on every call.
fn reference(events: u32) -> u64 {
    const ACTORS: u64 = 4_096;
    let mut rng = gen::Rng::new(0x5EED);
    let mut state: HashMap<u64, Vec<u64>> = (0..ACTORS).map(|a| (a, Vec::new())).collect();
    let mut queue: BinaryHeap<Reverse<(u64, u64, Vec<u64>)>> = (0..ACTORS)
        .map(|a| Reverse((rng.next_u64() % 1_000, a, vec![a; 4])))
        .collect();
    let mut acc = 0u64;
    for _ in 0..events {
        let Reverse((at, actor, msg)) = queue.pop().expect("every event sends one on");
        let held = state.get_mut(&actor).expect("every actor has a state");
        held.extend_from_slice(&msg[..2]);
        if held.len() > 16 {
            held.drain(..8);
        }
        acc = acc.wrapping_add(held.iter().fold(0, |s: u64, x| s.wrapping_add(*x)));
        let to = rng.next_u64() % ACTORS;
        let len = 3 + (acc % 5) as usize;
        queue.push(Reverse((at + 1 + rng.next_u64() % 100, to, vec![acc; len])));
    }
    acc
}

/// Virtual seconds to full collection (NaN if some object leaked,
/// which the checks then fail).
fn done_s(o: &TortureOutcome) -> f64 {
    o.all_collected_at.map_or(f64::NAN, |t| t.as_secs_f64())
}

/// `(wall seconds, program cpu ms)` and the outcomes of the run's
/// tortures, run on worker threads so the driver thread stays out of
/// the CPU figure.
fn timed_runs(params: TortureParams, seed: u64) -> (f64, f64, Vec<TortureOutcome>) {
    let driver = sys::current_tid();
    let (proc_before, before) = (sys::process_cpu_ms(), sys::thread_ticks());
    let t = Instant::now();
    let outs = std::thread::scope(|s| {
        let runs: Vec<_> = (0..RUNS)
            .map(|k| {
                s.spawn(move || {
                    run_torture(
                        &params,
                        Topology::grid5000(),
                        collector(),
                        torture_seed(seed, k),
                        SimTime::from_secs(DEADLINE_S),
                    )
                })
            })
            .collect();
        runs.into_iter()
            .map(|r| r.join().expect("torture run completes"))
            .collect()
    });
    let wall = t.elapsed().as_secs_f64();
    // The workers have exited, so their CPU is read from the process
    // total, less the driver's own share.
    let (_, driver_ms) = sys::cpu_ms_between(&before, &sys::thread_ticks(), driver);
    let program_ms = sys::process_cpu_ms() - proc_before - driver_ms;
    (wall, program_ms, outs)
}

pub fn run(seed: u64, tr: &mut Tracer) -> Outcome {
    let params = TortureParams::paper();
    let mut setup = Vec::new();
    for _ in 0..SETUPS {
        let s = tr.begin("setup");
        let t = Instant::now();
        let grid = build_grid(&params, seed);
        setup.push(t.elapsed().as_secs_f64());
        tr.end(s);
        drop(grid);
    }
    let s = tr.begin("sim.run_torture");
    let (wall, cpu_ms, outs) = timed_runs(params, seed);
    tr.end(s);

    let s = tr.begin("sim.probe");
    let probe = probe(seed);
    tr.end(s);

    let sum = |f: &dyn Fn(&TortureOutcome) -> f64| outs.iter().map(f).sum::<f64>();
    let mean = |f: &dyn Fn(&TortureOutcome) -> f64| sum(f) / outs.len() as f64;
    let quiescent_s = |o: &TortureOutcome| o.quiescent_at.unwrap_or(SimTime::ZERO).as_secs_f64();
    let q = |q: f64| {
        mean(&|o: &TortureOutcome| {
            let quiet = o.quiescent_at.unwrap_or(SimTime::ZERO);
            collect_quantile(&o.samples, quiet, o.total_objects, 1, q).unwrap_or(f64::NAN)
        })
    };
    let mut seen = probe.seen;
    for o in &outs {
        seen.add(o);
    }
    let virtual_s = sum(&done_s);
    let bytes = sum(&|o| o.total_bytes as f64);
    let mut result = Outcome {
        e2e: EndToEnd {
            setup_s: stats::median(&setup),
            rss_mib: sys::peak_rss_mib(),
            cpu_ms_per_s: probe.cpu_ms_per_s,
            wire_bytes_per_s: bytes / virtual_s,
            collect_p50_ms: q(0.5),
            collect_p99_ms: q(0.99),
        },
        checks: checks::torture(&seen),
        ..Default::default()
    };
    result.layers.quiescent_s = mean(&quiescent_s);
    result.layers.collect_span_s = mean(&|o| done_s(o) - quiescent_s(o));
    result.layers.run_torture_s = wall;
    if tr.enabled() {
        // The hot-path replay runs in every traced run, so its per-unit
        // costs sit next to the simulator's figures.
        let hold = crate::socket::HOLD_10K;
        let replay = crate::replay::run(&hold.population(seed), hold.dgc(), tr);
        replay.fill(&mut result.layers);
        result.checks.push(replay.check);
    }
    result.extra = [
        ("sim_wall_s", wall),
        ("sim_cpu_ms_per_s", cpu_ms / virtual_s),
        ("probe_raw_cpu_ms_per_s", probe.raw_cpu_ms_per_s),
        ("probe_reference_ms", probe.reference_ms),
        ("sim_traffic_mib", bytes / RUNS as f64 / (1024.0 * 1024.0)),
        ("sim_collect_done_s", mean(&done_s)),
        ("leaked", seen.leaked as f64),
        ("violations", seen.violations as f64),
    ]
    .map(|(k, v)| (k.to_string(), v))
    .into();
    result.sizes = [
        ("procs", Topology::grid5000().procs() as u64),
        ("slaves_per_proc", params.slaves_per_proc as u64),
        ("objects", outs[0].total_objects as u64),
        ("runs", RUNS),
        ("setups", SETUPS as u64),
        (
            "probe_procs",
            Topology::grid5000_scaled(PROBE_PROCS_PER_SITE).procs() as u64,
        ),
        ("probe_seeds", PROBE_SEEDS),
        ("reference_events", REFERENCE_EVENTS as u64),
    ]
    .into();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgc_simnet::time::SimDuration;

    fn small(seed: u64) -> TortureOutcome {
        run_torture(
            &TortureParams::small(),
            Topology::single_site(4, SimDuration::from_millis(1)),
            collector(),
            seed,
            SimTime::from_secs(5_000),
        )
    }

    #[test]
    fn same_seed_same_torture_outcome() {
        let (a, b) = (small(9), small(9));
        assert_eq!(a.all_collected_at, b.all_collected_at);
        assert_eq!(a.total_bytes, b.total_bytes);
        assert_eq!(a.samples.len(), b.samples.len());
        assert!(a
            .samples
            .iter()
            .zip(&b.samples)
            .all(|(x, y)| (x.at, x.collected, x.idle) == (y.at, y.collected, y.idle)));
        assert_eq!(a.leaked, 0);
    }

    #[test]
    fn reference_does_the_same_work_every_call() {
        assert_eq!(reference(5_000), reference(5_000));
        assert_ne!(reference(5_000), reference(5_001));
    }

    #[test]
    fn quantiles_read_the_collection_curve() {
        let s = |t: u64, collected: usize| Sample {
            at: SimTime::from_secs(t),
            idle: 0,
            collected,
            alive: 0,
        };
        // 1 baseline collection, then 10 objects.
        let curve = [s(10, 1), s(20, 2), s(30, 6), s(40, 11)];
        let quiet = SimTime::from_secs(15);
        let at = |q| collect_quantile(&curve, quiet, 10, 1, q);
        assert_eq!(at(0.1), Some(5_000.0));
        assert_eq!(at(0.5), Some(15_000.0));
        assert_eq!(at(1.0), Some(25_000.0));
        // Collected before quiescence counts as zero.
        assert_eq!(
            collect_quantile(&curve, SimTime::from_secs(25), 10, 1, 0.1),
            Some(0.0)
        );
        assert_eq!(collect_quantile(&curve[..2], quiet, 10, 1, 0.5), None);
    }
}

//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hold_10k|cycle_churn|sim_torture> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload, checks its outputs, appends a stamped record to
//! `.bench_out/results.jsonl` and prints, as its last line, one JSON
//! object: the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`). Exits 1 when any output check fails, 2 on bad usage.
//! See `README.md` for the workloads and what each metric means.

mod checks;
mod gen;
mod net;
mod probe;
mod record;
mod replay;
mod report;
mod socket;
mod stats;
mod sys;
mod torture;
mod trace;

use std::process::ExitCode;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

const WORKLOADS: [&str; 3] = ["hold_10k", "cycle_churn", "sim_torture"];

#[derive(Debug, PartialEq, Eq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds < 2 {
        return Err("--seconds must be at least 2".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The socket workloads run the reactor engine. Set before any
    // thread starts, and read by `NetConfig::new`.
    std::env::set_var("DGC_NET_ENGINE", "reactor");

    let mut tr = trace::Tracer::new(args.trace, args.seed);
    let out = match args.workload.as_str() {
        "hold_10k" => socket::run(&socket::HOLD_10K, args.seed, args.seconds, &mut tr),
        "cycle_churn" => socket::run(&socket::CYCLE_CHURN, args.seed, args.seconds, &mut tr),
        _ => torture::run(args.seed, &mut tr),
    };
    let result = report::Result::new(&out, args.trace);

    let dir = record::out_dir();
    let stamp = record::Stamp {
        workload: &args.workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
    };
    if let Err(e) = record::append(&dir, &record::line(&stamp, &out, &result)) {
        eprintln!("perfbench: cannot append to {}: {e}", dir.display());
    }
    if args.trace {
        let path = dir.join(format!("spans_{}_{}.jsonl", args.workload, args.seed));
        match tr.write(&path) {
            Ok(()) => eprintln!("spans: {} written to {}", tr.spans().len(), path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        for (name, (ns, n)) in trace::self_times(tr.spans()) {
            eprintln!(
                "  self {name:<28} {:>12.3} ms over {n} spans",
                ns as f64 / 1e6
            );
        }
    }
    for c in &out.checks {
        eprintln!(
            "check {:<20} {:>8} judged {:>4} failed{}",
            c.name,
            c.attempted,
            c.failed,
            if c.ok() { "" } else { "  <-- FAILED" }
        );
    }
    for (k, v) in &out.extra {
        eprintln!("extra {k:<22} {v}");
    }
    for (name, unit, v) in &result.metrics {
        eprintln!("{name:<36} {v:>16.4} {unit}");
    }
    println!("{}", result.json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(&argv("--workload hold_10k --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "hold_10k".into(),
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
        assert!(parse(&argv("--workload nope --seed 1")).is_err());
        assert!(parse(&argv("--workload hold_10k")).is_err());
        assert!(parse(&argv("--workload hold_10k --seed x")).is_err());
        assert!(parse(&argv("--workload hold_10k --seed 1 --trace 2")).is_err());
        assert!(parse(&argv("--workload hold_10k --seed")).is_err());
    }
}

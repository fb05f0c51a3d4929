//! The results log: one JSON line appended per run, stamped with what
//! is needed to trust it later — commit, cores, seed, sizes, engine and
//! shard settings.
//!
//! The log lives under the directory the benchmark runs from
//! (`.bench_out/`, or `$DGC_BENCH_OUT`), resolved when the run starts,
//! so a binary built in one checkout and run in another writes into the
//! tree it runs in.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::report::{Outcome, Result};

/// Where results and span files go.
pub fn out_dir() -> PathBuf {
    std::env::var_os("DGC_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_out"))
}

/// The checked-out commit, read from `.git` under `root` without
/// running git: `HEAD` is a hash or a ref, and a ref is a loose file or
/// a `packed-refs` line. `"unknown"` outside a git checkout.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(git.join(r)) {
        return hash.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == r).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn esc(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".into()
    }
}

/// Identifies a run on its record.
pub struct Stamp<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
}

/// The record line for one run.
pub fn line(stamp: &Stamp<'_>, out: &Outcome, result: &Result) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut s = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"commit\":\"{}\",\
         \"nproc\":{},\"unix_time\":{},\"engine\":\"{}\",\"sweep_shards\":\"{}\",\
         \"correct\":{},\"attempted\":{},\"failed\":{}",
        esc(stamp.workload),
        stamp.seed,
        stamp.seconds,
        stamp.traced,
        esc(&commit(Path::new("."))),
        crate::sys::nproc(),
        unix,
        esc(&env("DGC_NET_ENGINE")),
        esc(&env("DGC_SWEEP_SHARDS")),
        result.correct,
        result.attempted,
        result.failed,
    );
    let _ = write!(s, ",\"sizes\":{{");
    for (i, (k, v)) in out.sizes.iter().enumerate() {
        let _ = write!(s, "{}\"{}\":{}", if i == 0 { "" } else { "," }, k, v);
    }
    let _ = write!(s, "}},\"checks\":{{");
    for (i, c) in out.checks.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{}\":{{\"attempted\":{},\"failed\":{}}}",
            if i == 0 { "" } else { "," },
            c.name,
            c.attempted,
            c.failed
        );
    }
    let _ = write!(s, "}},\"metrics\":{{");
    for (i, (name, unit, v)) in result.metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            if i == 0 { "" } else { "," },
            name,
            num(*v),
            unit
        );
    }
    let _ = write!(s, "}},\"extra\":{{");
    for (i, (k, v)) in out.extra.iter().enumerate() {
        let _ = write!(s, "{}\"{}\":{}", if i == 0 { "" } else { "," }, k, num(*v));
    }
    s.push_str("}}");
    s
}

/// Appends `line` to `results.jsonl` under `dir`.
pub fn append(dir: &Path, line: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("results.jsonl"))?;
    writeln!(f, "{line}")?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("perfbench-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn reads_commit_from_head_ref_and_packed_refs() {
        let d = scratch("git");
        assert_eq!(commit(&d), "unknown");
        let git = d.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(git.join("packed-refs"), "# pack\nabc123 refs/heads/main\n").unwrap();
        assert_eq!(commit(&d), "abc123");
        std::fs::write(git.join("refs/heads/main"), "def456\n").unwrap();
        assert_eq!(commit(&d), "def456");
        std::fs::write(git.join("HEAD"), "0123abcd\n").unwrap();
        assert_eq!(commit(&d), "0123abcd");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn appends_rather_than_overwrites() {
        let d = scratch("log");
        append(&d, "{\"a\":1}").unwrap();
        append(&d, "{\"a\":2}").unwrap();
        let text = std::fs::read_to_string(d.join("results.jsonl")).unwrap();
        assert_eq!(text, "{\"a\":1}\n{\"a\":2}\n");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(esc("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
        assert_eq!(num(f64::NAN), "null");
    }
}

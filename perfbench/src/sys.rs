//! Process measurements read from `/proc`: per-thread CPU time, peak
//! resident memory, and the allocation counter the replay reads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

/// Linux reports `utime`/`stime` in USER_HZ ticks, 100 a second.
const TICK_MS: f64 = 10.0;

/// The calling thread's kernel id.
pub fn current_tid() -> u32 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .expect("/proc/thread-self names the calling thread")
}

/// CPU ticks (user + system) of every live thread of this process.
pub fn thread_ticks() -> BTreeMap<u32, u64> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        if let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) {
            if let Some(t) = parse_ticks(&stat) {
                out.insert(tid, t);
            }
        }
    }
    out
}

/// CPU time of the whole process so far, threads that exited included.
pub fn process_cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_ticks(&s))
        .map_or(0.0, |t| t as f64 * TICK_MS)
}

/// `utime + stime` from a `/proc/<pid>/task/<tid>/stat` line. The
/// command name is parenthesised and may hold spaces, so fields are
/// counted after the last `)`.
fn parse_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut f = rest.split_whitespace();
    // After the comm: state is field 3; utime and stime are 14 and 15.
    let utime: u64 = f.nth(11)?.parse().ok()?;
    let stime: u64 = f.next()?.parse().ok()?;
    Some(utime + stime)
}

/// CPU milliseconds between two [`thread_ticks`] snapshots, split into
/// (every thread but `driver`, `driver`). A thread born in between
/// counts from zero; one that died in between is lost, which the
/// steady-state windows measured here do not have.
pub fn cpu_ms_between(
    before: &BTreeMap<u32, u64>,
    after: &BTreeMap<u32, u64>,
    driver: u32,
) -> (f64, f64) {
    let mut program = 0u64;
    let mut drv = 0u64;
    for (tid, &t) in after {
        let d = t.saturating_sub(before.get(tid).copied().unwrap_or(0));
        if *tid == driver {
            drv += d;
        } else {
            program += d;
        }
    }
    (program as f64 * TICK_MS, drv as f64 * TICK_MS)
}

/// CPU time of the calling thread so far, ms, to the nanosecond
/// (`CLOCK_THREAD_CPUTIME_ID`). Fine enough to time a call of a few
/// milliseconds, where [`thread_ticks`] counts in 10-ms steps.
pub fn thread_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec (two 64-bit fields on
    // the 64-bit Linux targets this benchmark runs on), and the clock
    // id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is readable");
    ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The system allocator, counting allocations per thread so the replay
/// can charge them to the layer that made them. The counter is a
/// constant-initialised thread-local without a destructor, so reading
/// it never allocates and works at any point of a thread's life.
pub struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations made so far by the calling thread.
pub fn allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees carry over; the only
// addition is a thread-local counter update that neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded from our caller's `alloc` contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded from our caller's `alloc_zeroed` contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_odd_comm() {
        let line = "42 (a) b (c)) S 1 42 42 0 -1 4194560 100 0 0 0 7 3 0 0 20 0 1 0";
        assert_eq!(parse_ticks(line), Some(10));
    }

    #[test]
    fn splits_driver_from_program() {
        let before = BTreeMap::from([(1, 10), (2, 5)]);
        let after = BTreeMap::from([(1, 15), (2, 9), (3, 2)]);
        assert_eq!(cpu_ms_between(&before, &after, 1), (60.0, 50.0));
    }

    #[test]
    fn reads_own_process() {
        assert!(thread_ticks().contains_key(&current_tid()));
        assert!(peak_rss_mib() > 0.0);
        let before = thread_cpu_ms();
        let spin = (0..2_000_000u64).fold(0u64, |a, x| a.wrapping_add(x * x));
        assert!(std::hint::black_box(spin) > 0);
        assert!(thread_cpu_ms() > before);
    }
}

//! Clocks and host facts read from outside the program under test.
//!
//! Process CPU time is the benchmark's timing clock: on a small VM,
//! hypervisor steal stretches wall time while the CPU time a pass
//! consumes stays put. Wall time and the steal ticks of each pass are
//! kept as diagnostics, so a run taken during a steal burst is visible.

use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: CPU time of every thread of
/// the process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds consumed by the whole process so far.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Steal ticks summed over all CPUs since boot (`/proc/stat`, 8th
/// field of the `cpu` line); 0 where the kernel does not report it.
pub fn steal_ticks() -> u64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|field| field.parse().ok())
        .unwrap_or(0)
}

/// CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    let info = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find_map(|line| line.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or_else(
            || "unknown".to_string(),
            |(_, name)| name.trim().to_string(),
        )
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One timed interval: process CPU, wall, and host steal.
pub struct Stopwatch {
    cpu: f64,
    wall: std::time::Instant,
    steal: u64,
}

/// What a [`Stopwatch`] measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Interval {
    pub cpu_s: f64,
    pub wall_s: f64,
    pub steal_ticks: u64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            steal: steal_ticks(),
            wall: std::time::Instant::now(),
            cpu: process_cpu_s(),
        }
    }

    pub fn stop(self) -> Interval {
        let cpu_s = process_cpu_s() - self.cpu;
        let wall_s = self.wall.elapsed().as_secs_f64();
        Interval {
            cpu_s,
            wall_s,
            steal_ticks: steal_ticks().saturating_sub(self.steal),
        }
    }
}

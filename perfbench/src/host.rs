//! Readings taken from the operating system: per-thread and process CPU,
//! peak memory, steal time, fsync latency, and the host stamp every result
//! carries. All of it comes from `/proc` and the file system; nothing here
//! reaches into the program under test.

use std::fs;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Clock ticks per second of `/proc/*/stat` times (`USER_HZ`). Linux fixes
/// it at 100 for every architecture the benchmark runs on.
const USER_HZ: f64 = 100.0;

/// Confines the calling thread, and every thread it spawns later, to the
/// first CPU it may run on; returns that CPU. Called before any thread
/// starts, it confines the whole process.
///
/// On a virtual machine every wake-up sent to another virtual CPU is an
/// inter-processor interrupt, which the hypervisor delivers: on the 2-vCPU
/// VM the benchmark was built on, a CarTel run over the wire raised about
/// 26 000 rescheduling and 137 000 function-call interrupts on two CPUs and
/// 37 and 1 600 on one, and its CPU per request fell from 0.78 to 0.43 ms.
/// How long the hypervisor takes to deliver them follows the load of other
/// guests, so on two CPUs every figure followed the neighbours.
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }
    // A `cpu_set_t`: 1024 bits.
    let mut allowed = [0u8; 128];
    // SAFETY: `allowed` is a writable buffer of the size passed; pid 0 is
    // the calling thread.
    if unsafe { sched_getaffinity(0, allowed.len(), allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..allowed.len() * 8).find(|&c| allowed[c / 8] & (1 << (c % 8)) != 0)?;
    let mut one = [0u8; 128];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a readable buffer of the size passed.
    (unsafe { sched_setaffinity(0, one.len(), one.as_ptr()) } == 0).then_some(cpu)
}

/// Process user+sys CPU seconds, including threads that have exited.
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `fields[0]` is field 3 (state); utime and stime are fields 14 and 15.
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => 0.0,
    }
}

/// CPU nanoseconds the calling thread has run (`/proc/thread-self/schedstat`).
pub fn this_thread_cpu_ns() -> u64 {
    read_schedstat(Path::new("/proc/thread-self/schedstat"))
}

fn read_schedstat(path: &Path) -> u64 {
    fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// CPU nanoseconds of every live thread of this process, keyed by thread
/// name, summed per name prefix group by the caller.
pub fn threads_cpu_ns() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let dir = task.path();
        let name = fs::read_to_string(dir.join("comm")).unwrap_or_default();
        out.push((
            name.trim().to_string(),
            read_schedstat(&dir.join("schedstat")),
        ));
    }
    out
}

/// CPU nanoseconds of live threads whose name starts with `prefix`.
pub fn group_cpu_ns(threads: &[(String, u64)], prefix: &str) -> u64 {
    threads
        .iter()
        .filter(|(n, _)| n.starts_with(prefix))
        .map(|(_, ns)| ns)
        .sum()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Aggregate CPU time counters of the host (`/proc/stat`): steal and total
/// ticks, for the share of time a hypervisor gave our CPUs to others.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// Reads the `cpu` line of `/proc/stat`.
    pub fn now() -> Self {
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTicks::default();
        };
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already counted in user, so the first eight sum up.
        CpuTicks {
            steal: v.get(7).copied().unwrap_or(0),
            total: v.iter().take(8).sum(),
        }
    }

    /// Share of host CPU time stolen between `self` and `later`.
    pub fn steal_frac_until(&self, later: &CpuTicks) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// Median latency in µs of `rounds` small write+fsync pairs on a file in
/// `dir`, the device the on-disk workload's log lives on.
pub fn fsync_p50_us(dir: &Path, rounds: usize) -> f64 {
    let path = dir.join("fsync-probe");
    let mut samples = Vec::with_capacity(rounds);
    if let Ok(mut f) = fs::File::create(&path) {
        let block = [0x5Au8; 512];
        for _ in 0..rounds {
            let start = Instant::now();
            if f.write_all(&block).is_err() || f.sync_data().is_err() {
                break;
            }
            samples.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    fs::remove_file(&path).ok();
    crate::stats::median(&mut samples)
}

/// What every result is stamped with, so numbers from different hosts are
/// never compared blind.
#[derive(Debug, Clone)]
pub struct HostStamp {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// Kernel release.
    pub kernel: String,
    /// CPU model name.
    pub cpu_model: String,
    /// Source commit, when the tree is a git checkout.
    pub commit: String,
}

impl HostStamp {
    /// Collects the stamp.
    pub fn collect() -> Self {
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        // `output()` waits for the child, so no process outlives the call;
        // the ceiling keeps git from searching above the working directory.
        let ceiling = std::env::current_dir()
            .ok()
            .and_then(|d| d.parent().map(Path::to_path_buf))
            .unwrap_or_default();
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into());
        HostStamp {
            nproc,
            kernel,
            cpu_model,
            commit,
        }
    }
}

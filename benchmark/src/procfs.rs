//! Process, thread and host counters read from `/proc` and `getrusage(2)`.
//!
//! The parsers take the file text as an argument so they can be tested on
//! fixed inputs; the readers around them return `None` when a file is
//! missing, which the callers turn into a failed run.

use std::collections::HashMap;

/// Kernel clock ticks per second for `/proc/stat` (`USER_HZ`, 100 on every
/// mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// A `kB` field of `/proc/<pid>/status` (e.g. `VmHWM`), in KiB.
pub fn parse_status_kib(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// `(voluntary, nonvoluntary)` context switches from a `status` file.
pub fn parse_ctxt(text: &str) -> Option<(u64, u64)> {
    let field = |key: &str| {
        text.lines().find_map(|line| {
            line.strip_prefix(key)?
                .strip_prefix(':')?
                .trim()
                .parse::<u64>()
                .ok()
        })
    };
    Some((
        field("voluntary_ctxt_switches")?,
        field("nonvoluntary_ctxt_switches")?,
    ))
}

/// Nanoseconds on CPU: the first field of a `schedstat` file.
pub fn parse_schedstat_ns(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// The aggregate `cpu` line of `/proc/stat`, in ticks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuTicks {
    /// user + nice + system + irq + softirq: time some task ran.
    pub busy: u64,
    /// Time a hypervisor ran something else while we wanted the CPU.
    pub steal: u64,
}

/// Parse the first (`cpu `) line of `/proc/stat`.
pub fn parse_proc_stat(text: &str) -> Option<CpuTicks> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal ...
    if f.len() < 8 {
        return None;
    }
    Some(CpuTicks {
        busy: f[0] + f[1] + f[2] + f[5] + f[6],
        steal: f[7],
    })
}

/// The `model name` of the first CPU in `/proc/cpuinfo`.
pub fn parse_cpu_model(text: &str) -> Option<String> {
    text.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim() == "model name").then(|| v.trim().to_string())
    })
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_status_kib(&text, "VmHWM")? as f64 / 1024.0)
}

/// Hand freed heap memory back to the kernel (glibc `malloc_trim`), so each
/// deployment or simulator iteration starts from a comparable heap.
pub fn release_free_heap() {
    // SAFETY: `malloc_trim` only returns free heap pages to the kernel; it
    // takes no pointers and is safe to call at any time.
    unsafe { malloc_trim(0) };
}

/// The calling thread's kernel id, from the `/proc/thread-self` link
/// (`<pid>/task/<tid>`).
pub fn current_tid() -> Option<u64> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// One thread's CPU time and context switches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadSample {
    /// Nanoseconds on CPU.
    pub cpu_ns: u64,
    /// Voluntary switches: the thread blocked (a wake-up follows).
    pub wakeups: u64,
    /// Involuntary switches: the thread was preempted.
    pub preempts: u64,
}

/// Snapshot every live thread of this process, keyed by tid.
pub fn sample_threads() -> Option<HashMap<u64, ThreadSample>> {
    let mut out = HashMap::new();
    for entry in std::fs::read_dir("/proc/self/task").ok()? {
        let entry = entry.ok()?;
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = entry.path();
        // A thread may exit between the listing and the reads; skip it.
        let (Ok(sched), Ok(status)) = (
            std::fs::read_to_string(path.join("schedstat")),
            std::fs::read_to_string(path.join("status")),
        ) else {
            continue;
        };
        let cpu_ns = parse_schedstat_ns(&sched)?;
        let (wakeups, preempts) = parse_ctxt(&status)?;
        out.insert(
            tid,
            ThreadSample {
                cpu_ns,
                wakeups,
                preempts,
            },
        );
    }
    Some(out)
}

/// Whole-process CPU, dead threads included.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcUsage {
    /// User + system CPU, µs.
    pub cpu_us: u64,
}

impl ProcUsage {
    /// The change from `earlier` to `self`.
    pub fn since(&self, earlier: &ProcUsage) -> ProcUsage {
        ProcUsage {
            cpu_us: self.cpu_us.saturating_sub(earlier.cpu_us),
        }
    }
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    /// maxrss ixrss idrss isrss minflt majflt nswap inblock oublock msgsnd
    /// msgrcv nsignals nvcsw nivcsw (unused here).
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// `getrusage(RUSAGE_SELF)`: CPU of every thread this process ever ran.
pub fn process_usage() -> ProcUsage {
    let mut r = Rusage::default();
    // SAFETY: `Rusage` mirrors the LP64 Linux `struct rusage` (two
    // timevals, fourteen longs), so the kernel writes only inside `r`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let us = |t: &Timeval| (t.sec as u64) * 1_000_000 + t.usec as u64;
    ProcUsage {
        cpu_us: us(&r.utime) + us(&r.stime),
    }
}

/// Host-wide CPU accounting over a window: how much time the hypervisor
/// stole and how busy *other* processes kept the CPUs.
#[derive(Clone, Copy, Debug)]
pub struct HostWindow {
    start: CpuTicks,
    start_self: ProcUsage,
}

impl HostWindow {
    /// Open a window now.
    pub fn open() -> Option<HostWindow> {
        Some(HostWindow {
            start: read_proc_stat()?,
            start_self: process_usage(),
        })
    }

    /// `(steal_ms, other_busy_ms)` since [`HostWindow::open`].
    pub fn close(&self) -> Option<(f64, f64)> {
        let end = read_proc_stat()?;
        let ms = |ticks: u64| ticks as f64 * 1e3 / USER_HZ;
        let own_ms = process_usage().since(&self.start_self).cpu_us as f64 / 1e3;
        let busy_ms = ms(end.busy.saturating_sub(self.start.busy));
        Some((
            ms(end.steal.saturating_sub(self.start.steal)),
            (busy_ms - own_ms).max(0.0),
        ))
    }
}

fn read_proc_stat() -> Option<CpuTicks> {
    parse_proc_stat(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// The host a run measured on, printed beside its metrics: nproc, CPU
/// model, kernel, and the run's `(steal_ms, other_busy_ms)` window.
pub fn host_fingerprint((steal_ms, other_busy_ms): (f64, f64)) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| parse_cpu_model(&t))
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": {}, \"kernel\": {}, \"steal_ms\": {}, \"other_busy_ms\": {}}}",
        crate::report::json_string(&model),
        crate::report::json_string(&kernel),
        crate::report::json_number(steal_ms),
        crate::report::json_number(other_busy_ms)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tfalkon\nVmPeak:\t  20000 kB\nVmHWM:\t   4096 kB\n\
        VmRSS:\t   2048 kB\nvoluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";

    #[test]
    fn status_fields() {
        assert_eq!(parse_status_kib(STATUS, "VmHWM"), Some(4096));
        assert_eq!(parse_status_kib(STATUS, "VmRSS"), Some(2048));
        assert_eq!(parse_status_kib(STATUS, "VmSwap"), None);
        assert_eq!(parse_ctxt(STATUS), Some((12, 3)));
        assert_eq!(parse_ctxt("Name:\tx\n"), None);
    }

    #[test]
    fn schedstat_first_field_is_ns_on_cpu() {
        assert_eq!(parse_schedstat_ns("123456 789 10\n"), Some(123_456));
        assert_eq!(parse_schedstat_ns(""), None);
    }

    #[test]
    fn proc_stat_cpu_line() {
        let text = "cpu  100 5 50 1000 7 3 2 11 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(
            parse_proc_stat(text),
            Some(CpuTicks {
                busy: 100 + 5 + 50 + 3 + 2,
                steal: 11
            })
        );
        assert_eq!(parse_proc_stat("cpu0 1 2\n"), None);
        assert_eq!(parse_proc_stat("cpu  1 2 3\n"), None);
    }

    #[test]
    fn cpu_model_line() {
        let text = "processor\t: 0\nmodel name\t: Example CPU @ 2.0GHz\nflags\t: fpu\n";
        assert_eq!(
            parse_cpu_model(text).as_deref(),
            Some("Example CPU @ 2.0GHz")
        );
    }

    #[test]
    fn live_readers_work_on_this_process() {
        assert!(peak_rss_mib().expect("VmHWM") > 0.0);
        release_free_heap();
        let tid = current_tid().expect("tid");
        let threads = sample_threads().expect("task dir");
        assert!(threads.contains_key(&tid));
        let a = process_usage();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_usage().cpu_us >= a.cpu_us);
    }
}

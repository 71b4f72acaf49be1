//! The four workloads. Each returns a [`RunResult`]: the end-to-end
//! metrics (untraced) or the per-layer metrics (traced), plus the
//! correctness gate's counts.

use crate::gen;
use crate::layers;
use crate::procfs::{self, ProcUsage, ThreadSample};
use crate::report::Metrics;
use crate::socket::{wire_totals, Deployment, Phase, Shape, Teardown};
use crate::stats::{median, quantile};
use falkon_exp::experiments::endurance::fig8;
use falkon_exp::experiments::Scale;
use falkon_exp::{CostModel, SimFalkon, SimFalkonConfig};
use falkon_proto::task::TaskSpec;
use std::collections::HashMap;
use std::io;
use std::time::{Duration, Instant};

/// Outcome of one workload run.
pub struct RunResult {
    /// Tasks attempted (failures count against these).
    pub attempted: u64,
    /// Tasks missing, duplicated or failed.
    pub failed: u64,
    /// Correctness-gate violations; any one fails the run.
    pub violations: Vec<String>,
    /// `(steal_ms, other_busy_ms)` on the host over the run.
    pub host_window: (f64, f64),
    /// The metrics to print.
    pub metrics: Metrics,
}

/// A workload by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed 100k-task bursts, secure channel, one dispatcher.
    BurstSecure,
    /// Poisson arrivals at 2,000/s to 256 executors.
    OpenFanout,
    /// The burst, plain, through a forwarder to two dispatchers.
    RelayBurst,
    /// The Figure 8 endurance run in the simulator.
    SimEndurance,
}

impl Workload {
    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "burst_secure" => Workload::BurstSecure,
            "open_fanout" => Workload::OpenFanout,
            "relay_burst" => Workload::RelayBurst,
            "sim_endurance" => Workload::SimEndurance,
            _ => return None,
        })
    }

    /// The socket deployment this workload runs (`None` for the sim).
    fn shape(self) -> Option<Shape> {
        Some(match self {
            Workload::BurstSecure => Shape {
                secure: true,
                forwarder_dispatchers: 0,
                executors_per_dispatcher: 8,
                bundle: 300,
                notify_batch: 1_000,
            },
            Workload::RelayBurst => Shape {
                secure: false,
                forwarder_dispatchers: 2,
                executors_per_dispatcher: 4,
                bundle: 300,
                notify_batch: 1_000,
            },
            Workload::OpenFanout => Shape {
                secure: false,
                forwarder_dispatchers: 0,
                executors_per_dispatcher: 256,
                bundle: 1,
                notify_batch: 1,
            },
            Workload::SimEndurance => return None,
        })
    }
}

/// Tasks per closed burst.
const BURST: u64 = 100_000;
/// Offered open-loop rate, tasks/s.
const OPEN_RATE: f64 = 2_000.0;
/// Fewest deployments set up per socket run (each yields a `setup_s`
/// sample); more are set up until the window is spent.
const MIN_DEPLOYMENTS: u64 = 3;
/// Closed bursts per deployment. Fixed, so the first deployment's
/// footprint (`peak_rss_mib`) does not depend on how fast the bursts ran.
const BURSTS_PER_DEPLOYMENT: u64 = 2;
/// Open-loop phase per deployment.
const OPEN_PHASE: Duration = Duration::from_secs(3);
/// Tasks in the endurance run (Figure 8).
const SIM_TASKS: u64 = 2_000_000;
/// Virtual time advanced per timed simulator step, µs.
const SIM_STEP_US: u64 = 1_000_000;

/// Run `w` for about `seconds` of timed work.
pub fn run(w: Workload, seed: u64, seconds: u64, trace: bool) -> io::Result<RunResult> {
    let window = Duration::from_secs(seconds);
    if !trace {
        return match w {
            Workload::SimEndurance => sim_endurance(seed, window, None),
            _ => sockets(w, seed, window, None),
        };
    }
    // Traced run: the same seed untraced first, for the overhead figure.
    let (key, higher_is_better) = match w {
        Workload::SimEndurance => ("tasks_per_s", true),
        _ => ("cpu_us_per_task", false),
    };
    let plain = run(w, seed, seconds, false)?;
    crate::alloc::enable();
    let mut tr = Trace::default();
    let mut res = match w {
        Workload::SimEndurance => sim_endurance(seed, window, Some(&mut tr))?,
        _ => sockets(w, seed, window, Some(&mut tr))?,
    };
    res.attempted += plain.attempted;
    res.failed += plain.failed;
    res.violations.extend(plain.violations);
    let (a, b) = (
        plain.metrics.get(key).unwrap_or(f64::NAN),
        tr.key.unwrap_or(f64::NAN),
    );
    let overhead = if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    };
    // A traced run reports only per-layer metrics.
    let mut m = Metrics::default();
    m.set("trace.overhead_frac", overhead, "frac");
    layer_metrics(w, seed, &tr, res.host_window, &mut m, &mut res.violations)?;
    res.metrics = m;
    Ok(res)
}

/// Per-layer accumulators filled by a traced run.
#[derive(Default)]
struct Trace {
    /// The untraced key metric's traced counterpart.
    key: Option<f64>,
    tasks: u64,
    proc_cpu_us: u64,
    client_ns: u64,
    fleet_ns: u64,
    server_ns: u64,
    server_wakeups: u64,
    server_preempts: u64,
    fleet_wakeups: u64,
    allocs: u64,
    frames: u64,
    bytes: u64,
    forwarder_frames: u64,
    wire_tasks: u64,
    queue_wait_us: Vec<f64>,
    exec_rtt_us: Vec<f64>,
    /// Tasks handed out in answer to a GetWork (not piggy-backed).
    dispatched: u64,
    /// Notifications sent, each one invites a GetWork attempt.
    notifies_sent: u64,
    retries: u64,
    duplicates: u64,
    submit_us: Vec<f64>,
    late_us: Vec<f64>,
    latency_us: Vec<f64>,
    sim_run_us_per_task: f64,
    sim_submit_s: f64,
    gc_pauses: u64,
    peak_queue: f64,
}

/// CPU and context-switch deltas of one timed phase, split by owner.
struct Window {
    usage: ProcUsage,
    threads: Option<HashMap<u64, ThreadSample>>,
    allocs: u64,
}

impl Window {
    fn open(trace: bool) -> io::Result<Window> {
        Ok(Window {
            usage: procfs::process_usage(),
            threads: if trace {
                Some(procfs::sample_threads().ok_or_else(|| io::Error::other("/proc/self/task"))?)
            } else {
                None
            },
            allocs: crate::alloc::allocations(),
        })
    }

    /// Close the window; returns process CPU µs and, when traced, adds the
    /// per-owner split to `tr`.
    fn close(self, client: &[u64], fleet: &[u64], tr: Option<&mut Trace>) -> io::Result<u64> {
        let cpu = procfs::process_usage().since(&self.usage).cpu_us;
        let (Some(tr), Some(before)) = (tr, self.threads) else {
            return Ok(cpu);
        };
        let after = procfs::sample_threads().ok_or_else(|| io::Error::other("/proc/self/task"))?;
        for (tid, a) in after {
            let b = before.get(&tid).copied().unwrap_or_default();
            let (ns, wake, pre) = (
                a.cpu_ns - b.cpu_ns.min(a.cpu_ns),
                a.wakeups.saturating_sub(b.wakeups),
                a.preempts.saturating_sub(b.preempts),
            );
            if client.contains(&tid) {
                tr.client_ns += ns;
            } else if fleet.contains(&tid) {
                tr.fleet_ns += ns;
                tr.fleet_wakeups += wake;
            } else {
                tr.server_ns += ns;
                tr.server_wakeups += wake;
                tr.server_preempts += pre;
            }
        }
        tr.proc_cpu_us += cpu;
        tr.allocs += crate::alloc::allocations() - self.allocs;
        Ok(cpu)
    }
}

fn p(samples: &mut [f64], q: f64) -> f64 {
    quantile(samples, q).unwrap_or(f64::NAN)
}

fn med(mut v: Vec<f64>) -> f64 {
    median(&mut v).unwrap_or(f64::NAN)
}

/// The socket workloads: fresh deployments, each running a fixed amount
/// of load, until the window is spent.
fn sockets(
    w: Workload,
    seed: u64,
    window: Duration,
    mut tr: Option<&mut Trace>,
) -> io::Result<RunResult> {
    let shape = w.shape().expect("a socket workload");
    let security = shape
        .secure
        .then(|| gen::SplitMix64::new(seed).next_u64() | 1);
    let host = procfs::HostWindow::open().ok_or_else(|| io::Error::other("/proc/stat"))?;
    let mut next_id = gen::id_base(seed);
    let start = Instant::now();
    let mut res = RunResult {
        attempted: 0,
        failed: 0,
        violations: Vec::new(),
        host_window: (f64::NAN, f64::NAN),
        metrics: Metrics::default(),
    };
    let (mut setup, mut rate, mut cpu, mut p50, mut p90) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut peak_rss = None;
    let (mut open_tasks, mut open_us, mut open_cpu) = (0u64, 0u64, 0u64);
    let mut open_latency = Vec::new();
    let mut d = 0u64;
    while d < MIN_DEPLOYMENTS || start.elapsed() < window {
        d += 1;
        procfs::release_free_heap();
        let (mut dep, setup_s) = Deployment::start(shape, security, next_id)?;
        next_id += shape.executors() as u64;
        setup.push(setup_s);
        let client = dep.session.tids.clone();
        let fleet = dep.fleet_tids.clone();
        if tr.is_some() {
            dep.session.submit_spans = Some(Vec::new());
        }
        let mut phases: Vec<(Phase, u64)> = Vec::new();
        if w == Workload::OpenFanout {
            let schedule =
                gen::poisson_schedule(seed ^ d, OPEN_RATE, OPEN_PHASE.as_micros() as u64);
            let win = Window::open(tr.is_some())?;
            let ph = dep.session.open_loop(next_id, &schedule)?;
            next_id += schedule.len() as u64;
            let c = win.close(&client, &fleet, tr.as_deref_mut())?;
            phases.push((ph, c));
        } else {
            for _ in 0..BURSTS_PER_DEPLOYMENT {
                let tasks = (next_id..next_id + BURST)
                    .map(|i| TaskSpec::sleep(i, 0))
                    .collect();
                next_id += BURST;
                let win = Window::open(tr.is_some())?;
                let ph = dep.session.burst(tasks)?;
                let c = win.close(&client, &fleet, tr.as_deref_mut())?;
                phases.push((ph, c));
            }
        }
        let spans = dep.session.submit_spans.take().unwrap_or_default();
        let td = dep.stop()?;
        let hwm = procfs::peak_rss_mib().unwrap_or(f64::NAN);
        peak_rss.get_or_insert(hwm);
        eprintln!("deployment {d}: setup {setup_s:.4}s, VmHWM {hwm:.1} MiB");
        for (mut ph, c) in phases {
            if w == Workload::OpenFanout {
                open_tasks += ph.tasks;
                open_us += ph.elapsed_us;
                open_cpu += c;
                if let Some(t) = tr.as_deref_mut() {
                    t.late_us.extend_from_slice(&ph.late_us);
                }
                open_latency.append(&mut ph.latency_us);
            } else {
                rate.push(ph.tasks as f64 / (ph.elapsed_us as f64 / 1e6));
                eprintln!(
                    "  burst: {:.0}/s, {:.2} us CPU/task",
                    rate[rate.len() - 1],
                    c as f64 / ph.tasks as f64
                );
                cpu.push(c as f64 / ph.tasks as f64);
                p50.push(p(&mut ph.latency_us, 0.5));
                p90.push(p(&mut ph.latency_us, 0.9));
                if let Some(t) = tr.as_deref_mut() {
                    t.latency_us.append(&mut ph.latency_us);
                }
            }
            if let Some(t) = tr.as_deref_mut() {
                t.tasks += ph.tasks;
            }
        }
        if let Some(t) = tr.as_deref_mut() {
            t.submit_us.extend(spans);
            absorb_teardown(t, &td);
        }
        res.attempted += td.attempted;
        res.failed += td.failed;
        res.violations.extend(td.violations);
    }
    let m = &mut res.metrics;
    if w == Workload::OpenFanout {
        let secs = open_us as f64 / 1e6;
        m.set("tasks_per_s", open_tasks as f64 / secs, "1/s");
        m.set("cpu_us_per_task", open_cpu as f64 / open_tasks as f64, "us");
        m.set("latency_p50_us", p(&mut open_latency, 0.5), "us");
        m.set("latency_p90_us", p(&mut open_latency, 0.9), "us");
        if let Some(t) = tr.as_deref_mut() {
            t.latency_us = open_latency;
        }
    } else {
        m.set("tasks_per_s", med(rate), "1/s");
        m.set("cpu_us_per_task", med(cpu), "us");
        m.set("latency_p50_us", med(p50), "us");
        m.set("latency_p90_us", med(p90), "us");
    }
    m.set("setup_s", med(setup), "s");
    m.set("peak_rss_mib", peak_rss.unwrap_or(f64::NAN), "MiB");
    res.host_window = host.close().unwrap_or((f64::NAN, f64::NAN));
    if let Some(t) = tr {
        t.key = res.metrics.get("cpu_us_per_task");
    }
    Ok(res)
}

fn absorb_teardown(t: &mut Trace, td: &Teardown) {
    let (frames, bytes) = wire_totals(&td.recorder.counters);
    t.frames += frames;
    t.bytes += bytes;
    t.forwarder_frames += wire_totals(&td.forwarder_wire).0;
    t.wire_tasks += td.records.len() as u64;
    t.queue_wait_us
        .extend(td.records.iter().map(|r| r.queue_time_us() as f64));
    t.exec_rtt_us
        .extend(td.records.iter().map(|r| r.exec_time_us() as f64));
    t.notifies_sent += td.stats.notifies;
    t.dispatched += td.stats.dispatched - td.stats.piggybacked;
    t.retries += td.stats.retries;
    t.duplicates += td.stats.duplicate_results;
}

/// The Figure 8 deployment exactly as `endurance::fig8(Scale::Full)`
/// configures it, with simulator seed `seed`.
fn fig8_config(seed: u64) -> SimFalkonConfig {
    SimFalkonConfig {
        executors: 64,
        executors_per_node: 2,
        costs: CostModel {
            gc_pause_per_queued_us: 2.0,
            ..CostModel::with_gc()
        },
        client_submit_rate: Some(1_250.0),
        sample_interval_us: 1_000_000,
        seed,
        ..SimFalkonConfig::default()
    }
}

/// FNV-1a over each record's id, completion time and executor.
fn records_digest(records: &[falkon_core::dispatcher::TaskRecord]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in records {
        for x in [r.result.id.0, r.completed_us, r.executor.0] {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// One endurance run through the benchmark's stepping driver.
struct SimRun {
    setup_s: f64,
    drain_s: f64,
    cpu_us: u64,
    /// Wall µs per simulated second.
    steps_us: Vec<f64>,
    /// Allocations during the drain (counted in traced runs only).
    allocs: u64,
    tasks: u64,
    failed: u64,
    makespan_us: u64,
    digest: u64,
    gc_pauses: u64,
    peak_queue: f64,
    stats: falkon_core::dispatcher::DispatcherStats,
}

fn sim_once(config: SimFalkonConfig) -> io::Result<SimRun> {
    let t0 = Instant::now();
    let mut sim = SimFalkon::new(config);
    // Figure 8's own ids, so the run is the experiment itself.
    sim.submit(0, (0..SIM_TASKS).map(|i| TaskSpec::sleep(i, 0)).collect());
    let setup_s = t0.elapsed().as_secs_f64();
    // Drive in one-virtual-second steps so each step's wall time is a
    // latency sample. Events pop in the same order as in one
    // `run_until_drained` call (the traced run checks this against
    // `endurance::fig8`).
    let usage = procfs::process_usage();
    let allocs = crate::alloc::allocations();
    let t1 = Instant::now();
    let mut steps_us = Vec::with_capacity(8_000);
    let mut virt = 0u64;
    while (sim.records().len() as u64 + sim.failed()) < sim.submitted() {
        if sim.next_wakeup().is_none() {
            return Err(io::Error::other(
                "simulation ran out of events before draining",
            ));
        }
        virt += SIM_STEP_US;
        let ts = Instant::now();
        sim.advance_to(virt);
        steps_us.push(ts.elapsed().as_secs_f64() * 1e6);
    }
    let drain_s = t1.elapsed().as_secs_f64();
    let cpu_us = procfs::process_usage().since(&usage).cpu_us;
    let allocs = crate::alloc::allocations() - allocs;
    let (gc_pauses, failed, stats) = (sim.gc_pauses(), sim.failed(), sim.dispatcher_stats());
    let out = sim.run_until_drained();
    Ok(SimRun {
        setup_s,
        drain_s,
        cpu_us,
        steps_us,
        allocs,
        tasks: out.tasks,
        failed,
        makespan_us: out.makespan_us,
        digest: records_digest(&out.records),
        gc_pauses,
        peak_queue: out.queue_series.max_value(),
        stats,
    })
}

/// The endurance run, repeated until the window is spent (at least twice,
/// so the makespan and record digest can be checked to repeat).
fn sim_endurance(seed: u64, window: Duration, mut tr: Option<&mut Trace>) -> io::Result<RunResult> {
    let host = procfs::HostWindow::open().ok_or_else(|| io::Error::other("/proc/stat"))?;
    let start = Instant::now();
    let mut res = RunResult {
        attempted: 0,
        failed: 0,
        violations: Vec::new(),
        host_window: (f64::NAN, f64::NAN),
        metrics: Metrics::default(),
    };
    let (mut setup, mut rate, mut cpu, mut steps) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut peak_rss = None;
    let mut first: Option<(u64, u64)> = None;
    while rate.len() < 2 || start.elapsed() < window {
        procfs::release_free_heap();
        let mut r = sim_once(fig8_config(gen::sim_seed(seed)))?;
        peak_rss.get_or_insert(procfs::peak_rss_mib().unwrap_or(f64::NAN));
        eprintln!(
            "sim iteration: setup {:.3}s drain {:.3}s makespan {}us",
            r.setup_s, r.drain_s, r.makespan_us
        );
        setup.push(r.setup_s);
        rate.push(r.tasks as f64 / r.drain_s);
        cpu.push(r.cpu_us as f64 / r.tasks.max(1) as f64);
        steps.append(&mut r.steps_us);
        res.attempted += SIM_TASKS;
        let lost = SIM_TASKS.saturating_sub(r.tasks) + r.failed;
        res.failed += lost;
        if lost > 0 {
            res.violations.push(format!(
                "{} of {SIM_TASKS} simulated tasks completed, {} failed",
                r.tasks, r.failed
            ));
        }
        let fp = (r.makespan_us, r.digest);
        match first {
            None => first = Some(fp),
            Some(f) if f != fp => res.violations.push(format!(
                "makespan/digest {fp:?} differs from the first iteration's {f:?}"
            )),
            Some(_) => {}
        }
        if let Some(t) = tr.as_deref_mut() {
            t.sim_run_us_per_task = r.drain_s * 1e6 / r.tasks.max(1) as f64;
            t.sim_submit_s = r.setup_s;
            t.gc_pauses = r.gc_pauses;
            t.peak_queue = r.peak_queue;
            t.notifies_sent = r.stats.notifies;
            t.dispatched = r.stats.dispatched - r.stats.piggybacked;
            t.retries = r.stats.retries;
            t.duplicates = r.stats.duplicate_results;
            t.tasks = r.tasks;
            t.allocs = r.allocs;
        }
    }
    let m = &mut res.metrics;
    m.set("tasks_per_s", med(rate), "1/s");
    m.set("cpu_us_per_task", med(cpu), "us");
    m.set("latency_p50_us", p(&mut steps, 0.5), "us");
    m.set("latency_p90_us", p(&mut steps, 0.9), "us");
    m.set("setup_s", med(setup), "s");
    m.set("peak_rss_mib", peak_rss.unwrap_or(f64::NAN), "MiB");
    res.host_window = host.close().unwrap_or((f64::NAN, f64::NAN));
    if let Some(t) = tr {
        t.key = res.metrics.get("tasks_per_s");
        // The stepping driver must reproduce the experiment itself: at
        // fig8's own seed, the same makespan, GC pauses and peak queue.
        let f = fig8(Scale::Full);
        let mine = sim_once(fig8_config(SimFalkonConfig::default().seed))?;
        if f.tasks != mine.tasks
            || (f.duration_s * 1e6).round() as u64 != mine.makespan_us
            || f.gc_pauses != mine.gc_pauses
            || f.peak_queue != mine.peak_queue
        {
            res.violations.push(format!(
                "driver differs from fig8: {} vs {} tasks, {}us vs {}us, {} vs {} gc",
                mine.tasks,
                f.tasks,
                mine.makespan_us,
                f.duration_s * 1e6,
                mine.gc_pauses,
                f.gc_pauses
            ));
        }
    }
    Ok(res)
}

fn per(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Fill every per-layer metric; layers a workload bypasses read 0.
fn layer_metrics(
    w: Workload,
    seed: u64,
    t: &Trace,
    (steal_ms, other_busy_ms): (f64, f64),
    m: &mut Metrics,
    violations: &mut Vec<String>,
) -> io::Result<()> {
    let tasks = t.tasks;
    let server_cpu = per(t.server_ns, tasks) / 1e3;
    m.set("rt.server.cpu_us_per_task", server_cpu, "us");
    m.set(
        "rt.server.wakeups_per_task",
        per(t.server_wakeups, tasks),
        "count",
    );
    m.set(
        "rt.server.preempts_per_task",
        per(t.server_preempts, tasks),
        "count",
    );
    m.set(
        "rt.muxpeer.cpu_us_per_task",
        per(t.fleet_ns, tasks) / 1e3,
        "us",
    );
    m.set(
        "rt.muxpeer.wakeups_per_task",
        per(t.fleet_wakeups, tasks),
        "count",
    );
    m.set(
        "rt.wire.frames_per_task",
        per(t.frames, t.wire_tasks),
        "count",
    );
    m.set("rt.wire.bytes_per_task", per(t.bytes, t.wire_tasks), "B");
    m.set(
        "rt.forwarder.frames_per_task",
        per(t.forwarder_frames, t.wire_tasks),
        "count",
    );
    m.set(
        "client.cpu_us_per_task",
        per(t.client_ns, tasks) / 1e3,
        "us",
    );
    let q = |v: &[f64], x: f64| {
        let mut v = v.to_vec();
        quantile(&mut v, x).unwrap_or(0.0)
    };
    m.set("client.submit_us_p50", q(&t.submit_us, 0.5), "us");
    m.set("client.gen_late_us_p99", q(&t.late_us, 0.99), "us");
    m.set("client.latency_p99_us", q(&t.latency_us, 0.99), "us");
    m.set("client.latency_p999_us", q(&t.latency_us, 0.999), "us");
    m.set(
        "core.dispatcher.queue_wait_us_p50",
        q(&t.queue_wait_us, 0.5),
        "us",
    );
    m.set(
        "core.dispatcher.exec_rtt_us_p50",
        q(&t.exec_rtt_us, 0.5),
        "us",
    );
    let sockets = w.shape().is_some();
    let task_base = if sockets { t.wire_tasks } else { t.tasks };
    m.set(
        "core.dispatcher.notifies_per_task",
        per(t.notifies_sent, task_base),
        "count",
    );
    m.set(
        "core.dispatcher.getwork_yield",
        per(t.dispatched, t.notifies_sent),
        "frac",
    );
    m.set("core.dispatcher.retries", t.retries as f64, "count");
    m.set("core.dispatcher.duplicates", t.duplicates as f64, "count");
    // The bare machines run at the workload's own bundle size, fleet size
    // and notify batch; the sim's come from its Figure 8 configuration.
    let (bundle, execs, notify) = match w.shape() {
        Some(s) => (s.bundle, s.executors() as u64, s.notify_batch),
        None => {
            let c = fig8_config(0);
            let notify = c.dispatcher.client_notify_batch;
            (c.bundle_size, u64::from(c.executors), notify)
        }
    };
    m.set(
        "core.dispatcher.machine_ns_per_task",
        layers::dispatcher_ns_per_task(bundle, execs, notify),
        "ns",
    );
    m.set(
        "core.forwarder.machine_ns_per_bundle",
        if w == Workload::RelayBurst {
            layers::forwarder_ns_per_bundle(bundle)
        } else {
            0.0
        },
        "ns",
    );
    let (enc, dec) = if sockets {
        layers::codec_ns_per_task(bundle)
    } else {
        (0.0, 0.0)
    };
    m.set("proto.codec.encode_ns_per_task", enc, "ns");
    m.set("proto.codec.decode_ns_per_task", dec, "ns");
    let (seal, open) = if w.shape().is_some_and(|s| s.secure) {
        layers::seal_ns_per_kib(bundle)
    } else {
        (0.0, 0.0)
    };
    m.set("proto.security.seal_ns_per_kib", seal, "ns/KiB");
    m.set("proto.security.open_ns_per_kib", open, "ns/KiB");
    m.set("proc.allocs_per_task", per(t.allocs, tasks), "count");
    m.set("proc.steal_ms", steal_ms, "ms");
    m.set("proc.other_busy_ms", other_busy_ms, "ms");
    m.set("exp.simfalkon.run_us_per_task", t.sim_run_us_per_task, "us");
    m.set("exp.simfalkon.submit_s", t.sim_submit_s, "s");
    m.set("exp.simfalkon.gc_pauses", t.gc_pauses as f64, "count");
    m.set("core.dispatcher.peak_queue", t.peak_queue, "count");
    m.set(
        "sim.wheel.events_per_s",
        if w == Workload::SimEndurance {
            layers::wheel_events_per_s(seed)
        } else {
            0.0
        },
        "1/s",
    );
    let ladder = layers::ladder()?;
    for (name, v) in &ladder {
        m.set(name, *v, "us");
    }
    // Attribution self-check: the per-thread split must add up to the
    // process total, and no core/proto rung may exceed the server share
    // it is part of.
    if sockets {
        let parts = (t.client_ns + t.fleet_ns + t.server_ns) as f64 / 1e3;
        let whole = t.proc_cpu_us as f64;
        let err = (parts - whole).abs() / whole;
        m.set("proc.attribution_err_frac", err, "frac");
        if err > 0.05 {
            violations.push(format!(
                "thread CPU {parts:.0}us vs process {whole:.0}us ({:.1}%)",
                err * 100.0
            ));
        }
        let machine = ladder[0].1;
        let codec = (enc + dec) / 1e3;
        for (rung, v) in [("ladder.machine", machine), ("proto.codec", codec)] {
            if v > server_cpu {
                violations.push(format!(
                    "measurement bug: {rung} {v:.2}us/task exceeds rt.server.cpu_us_per_task {server_cpu:.2}"
                ));
            }
        }
    } else {
        m.set("proc.attribution_err_frac", 0.0, "frac");
    }
    Ok(())
}

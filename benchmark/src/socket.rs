//! The socket deployments and the benchmark's own client.
//!
//! A [`Deployment`] is the system under test: a 1-shard dispatcher server
//! (or a forwarder in front of two of them) plus its executor fleet, one
//! `run_executors_mux` thread per dispatcher. The load is a [`Session`]:
//! one TCP connection driven by a `falkon_core::Client` on the calling
//! thread, with one reader thread. Every task is stamped with its intended
//! send time, so open-loop latency is free of coordinated omission.

use crate::procfs;
use falkon_core::client::{Client, ClientAction};
use falkon_core::dispatcher::{DispatcherStats, TaskRecord};
use falkon_core::executor::ExecutorConfig;
use falkon_core::DispatcherConfig;
use falkon_obs::{Counters, ObsEventKind, Recorder};
use falkon_proto::bundle::BundleConfig;
use falkon_proto::message::Message;
use falkon_proto::task::TaskSpec;
use falkon_rt::forwarder::ForwarderServer;
use falkon_rt::muxpeer::{run_executors_mux, MuxOutcome};
use falkon_rt::tcp::{Conn, ConnWriter, DispatcherServer, ServerConfig, TcpSecurity};
use falkon_rt::Clock;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Longest a run waits for any single reply before declaring the
/// deployment wedged.
const STALL: Duration = Duration::from_secs(30);

/// The shape of one socket deployment.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Secure channel on every connection.
    pub secure: bool,
    /// Downstream dispatchers behind a forwarder (0 = no forwarder tier).
    pub forwarder_dispatchers: usize,
    /// Executors per dispatcher, all on that dispatcher's mux thread.
    pub executors_per_dispatcher: usize,
    /// Client bundle size.
    pub bundle: usize,
    /// Dispatcher `client_notify_batch`.
    pub notify_batch: u64,
}

impl Shape {
    fn dispatchers(&self) -> usize {
        self.forwarder_dispatchers.max(1)
    }

    /// Executors in the whole fleet.
    pub fn executors(&self) -> usize {
        self.dispatchers() * self.executors_per_dispatcher
    }
}

fn io_err(msg: String) -> io::Error {
    io::Error::other(msg)
}

/// The client side: one connection, a `Client` machine on the calling
/// thread, and a reader thread that stamps each message on arrival.
pub struct Session {
    clock: Clock,
    client: Client,
    writer: ConnWriter,
    rx: Receiver<(Message, u64)>,
    reader: Option<JoinHandle<Counters>>,
    /// Kernel ids of the caller's thread and the reader thread.
    pub tids: Vec<u64>,
    /// Every task id submitted, in order.
    submitted: Vec<u64>,
    actions: Vec<ClientAction>,
    /// Send spans (µs) around `Client::enqueue` + flush, when recording.
    pub submit_spans: Option<Vec<f64>>,
}

/// Samples from one timed client phase.
pub struct Phase {
    /// Tasks completed in the phase.
    pub tasks: u64,
    /// First intended send to last receipt, µs.
    pub elapsed_us: u64,
    /// Receipt minus intended send, µs, one per task.
    pub latency_us: Vec<f64>,
    /// Actual minus intended send, µs, one per task (open loop only).
    pub late_us: Vec<f64>,
}

impl Session {
    fn connect(addr: SocketAddr, security: TcpSecurity, bundle: usize) -> io::Result<Session> {
        let clock = Clock::start();
        let conn = Conn::establish(TcpStream::connect(addr)?, security, clock)?;
        let (mut reader, writer) = conn.split();
        let (tx, rx) = mpsc::channel();
        let (tid_tx, tid_rx) = mpsc::channel();
        let handle = thread::spawn(move || {
            tid_tx.send(procfs::current_tid()).ok();
            while let Ok(msg) = reader.recv() {
                if tx.send((msg, clock.now_us())).is_err() {
                    break;
                }
            }
            reader.into_wire()
        });
        let reader_tid = tid_rx
            .recv()
            .ok()
            .flatten()
            .ok_or_else(|| io_err("reader thread id".into()))?;
        let me = procfs::current_tid().ok_or_else(|| io_err("thread id".into()))?;
        let mut s = Session {
            clock,
            client: Client::new(BundleConfig::of(bundle)),
            writer,
            rx,
            reader: Some(handle),
            tids: vec![me, reader_tid],
            submitted: Vec::new(),
            actions: Vec::new(),
            submit_spans: None,
        };
        let now = s.clock.now_us();
        s.client
            .on_event(now, falkon_core::client::ClientEvent::Start, &mut s.actions);
        s.send()?;
        while s.client.instance().is_none() {
            s.step(STALL)?;
        }
        Ok(s)
    }

    /// Write every queued client action in one flush.
    fn send(&mut self) -> io::Result<bool> {
        let mut complete = false;
        for act in self.actions.drain(..) {
            match act {
                ClientAction::Send(msg) => self.writer.enqueue(&msg)?,
                ClientAction::WorkloadComplete => complete = true,
            }
        }
        self.writer.flush()?;
        Ok(complete)
    }

    /// Handle one inbound message, waiting at most `wait`. Returns
    /// `Ok(None)` on timeout and `Ok(Some(done))` otherwise, where `done`
    /// says the outstanding work just completed.
    fn try_step(&mut self, wait: Duration) -> io::Result<Option<bool>> {
        let (msg, at) = match self.rx.recv_timeout(wait) {
            Ok(m) => m,
            Err(RecvTimeoutError::Timeout) => return Ok(None),
            Err(RecvTimeoutError::Disconnected) => {
                return Err(io_err("dispatcher closed the client connection".into()))
            }
        };
        if let Some(ev) = falkon_core::mapping::message_to_client_event(msg) {
            self.client.on_event(at, ev, &mut self.actions);
        }
        self.send().map(Some)
    }

    fn step(&mut self, wait: Duration) -> io::Result<bool> {
        self.try_step(wait)?
            .ok_or_else(|| io_err(format!("no reply within {wait:?}")))
    }

    fn enqueue(&mut self, at: u64, tasks: Vec<TaskSpec>) -> io::Result<()> {
        self.submitted.extend(tasks.iter().map(|t| t.id.0));
        let t0 = self.submit_spans.is_some().then(Instant::now);
        self.client.enqueue(at, tasks, &mut self.actions);
        self.send()?;
        if let (Some(spans), Some(t0)) = (self.submit_spans.as_mut(), t0) {
            spans.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        Ok(())
    }

    fn wait_complete(&mut self) -> io::Result<()> {
        while self.client.outstanding() > 0 {
            if self.step(STALL)? {
                break;
            }
        }
        Ok(())
    }

    fn phase_since(&self, first: usize, start_us: u64, late_us: Vec<f64>) -> Phase {
        let done = &self.client.completions()[first..];
        let end = done.iter().map(|c| c.received_us).max().unwrap_or(start_us);
        Phase {
            tasks: done.len() as u64,
            elapsed_us: end.saturating_sub(start_us).max(1),
            latency_us: done
                .iter()
                .map(|c| c.received_us.saturating_sub(c.submitted_us) as f64)
                .collect(),
            late_us,
        }
    }

    /// A closed burst: submit every task at once, wait for all results.
    pub fn burst(&mut self, tasks: Vec<TaskSpec>) -> io::Result<Phase> {
        let first = self.client.completions().len();
        let t0 = self.clock.now_us();
        self.enqueue(t0, tasks)?;
        self.wait_complete()?;
        Ok(self.phase_since(first, t0, Vec::new()))
    }

    /// An open loop: task `i` (id `first_id + i`) is due `schedule[i]` µs
    /// after the phase starts and is sent, alone, as soon as it is due.
    pub fn open_loop(&mut self, first_id: u64, schedule: &[u64]) -> io::Result<Phase> {
        let first = self.client.completions().len();
        // Start a little ahead so the first arrival is not already late.
        let t0 = self.clock.now_us() + 1_000;
        let mut late = Vec::with_capacity(schedule.len());
        let mut next = 0usize;
        while next < schedule.len() {
            let now = self.clock.now_us();
            let due = t0 + schedule[next];
            if now < due {
                self.try_step(Duration::from_micros(due - now))?;
                continue;
            }
            while next < schedule.len() && t0 + schedule[next] <= now {
                let intended = t0 + schedule[next];
                late.push((now - intended) as f64);
                self.enqueue(intended, vec![TaskSpec::sleep(first_id + next as u64, 0)])?;
                next += 1;
            }
        }
        self.wait_complete()?;
        Ok(self.phase_since(first, t0, late))
    }

    /// Close the connection and check exactly-once completion: the ids
    /// that came back are the ids sent, each once, all with exit code 0.
    /// Returns `(attempted, failed)`.
    fn close(mut self) -> io::Result<(u64, u64)> {
        self.writer.shutdown();
        if let Some(h) = self.reader.take() {
            h.join()
                .map_err(|_| io_err("client reader panicked".into()))?;
        }
        let mut sent = std::mem::take(&mut self.submitted);
        sent.sort_unstable();
        let mut back: Vec<u64> = self
            .client
            .completions()
            .iter()
            .filter(|c| c.result.exit_code == 0)
            .map(|c| c.result.id.0)
            .collect();
        back.sort_unstable();
        let attempted = sent.len() as u64;
        if sent.windows(2).any(|w| w[0] == w[1]) {
            return Err(io_err("the generator repeated a task id".into()));
        }
        let duplicates = back.windows(2).filter(|w| w[0] == w[1]).count() as u64;
        back.dedup();
        let missing = attempted - (back.len() as u64).min(attempted);
        if back.iter().any(|id| sent.binary_search(id).is_err()) {
            return Err(io_err("a completion came back for an id never sent".into()));
        }
        Ok((attempted, missing + duplicates))
    }
}

enum Server {
    Single(DispatcherServer),
    Relay(ForwarderServer),
}

/// A running deployment with a connected client session.
pub struct Deployment {
    server: Server,
    fleets: Vec<JoinHandle<io::Result<MuxOutcome>>>,
    /// Kernel ids of the fleet's mux threads.
    pub fleet_tids: Vec<u64>,
    /// The load generator's connection.
    pub session: Session,
}

/// What a deployment reported when it was stopped.
pub struct Teardown {
    /// Tasks the client sent.
    pub attempted: u64,
    /// Tasks missing, duplicated or failed anywhere.
    pub failed: u64,
    /// Dispatcher records over every dispatcher.
    pub records: Vec<TaskRecord>,
    /// Dispatcher stats summed over every dispatcher.
    pub stats: DispatcherStats,
    /// Dispatcher recorders (lifecycle events plus server-side wire).
    pub recorder: Recorder,
    /// Forwarder wire counters, both faces (empty without a forwarder).
    pub forwarder_wire: Counters,
    /// Human-readable reasons for any failure.
    pub violations: Vec<String>,
}

/// Sockets this process holds open (both ends of loopback connections
/// count, two descriptors per end).
fn open_sockets() -> io::Result<usize> {
    let mut n = 0;
    for e in std::fs::read_dir("/proc/self/fd")? {
        if let Ok(target) = std::fs::read_link(e?.path()) {
            n += usize::from(target.to_string_lossy().starts_with("socket:"));
        }
    }
    Ok(n)
}

impl Deployment {
    /// Start the servers and fleet, connect the client, and run one
    /// warm-up wave of one task per executor. Returns the deployment and
    /// its set-up time (server start until the wave completed).
    pub fn start(shape: Shape, security: TcpSecurity, warm_ids: u64) -> io::Result<(Self, f64)> {
        let t0 = Instant::now();
        let mut builder = ServerConfig::builder()
            .dispatcher(DispatcherConfig {
                client_notify_batch: shape.notify_batch,
                ..DispatcherConfig::default()
            })
            .security(security)
            .sharded(1);
        if shape.forwarder_dispatchers > 0 {
            builder = builder.forwarder(shape.forwarder_dispatchers);
        }
        let config = builder.build().map_err(|e| io_err(e.to_string()))?;
        let (server, client_addr, fleet_addrs) = if shape.forwarder_dispatchers > 0 {
            let s = ForwarderServer::start(config)?;
            let (addr, fleet) = (s.addr, s.dispatcher_addrs().to_vec());
            (Server::Relay(s), addr, fleet)
        } else {
            let s = DispatcherServer::start(config)?;
            let addr = s.addr;
            (Server::Single(s), addr, vec![addr])
        };
        let session = Session::connect(client_addr, security, shape.bundle)?;
        let sockets_before = open_sockets()?;
        let (tid_tx, tid_rx) = mpsc::channel();
        let per = shape.executors_per_dispatcher;
        let fleets: Vec<_> = fleet_addrs
            .into_iter()
            .enumerate()
            .map(|(d, addr)| {
                let tid_tx = tid_tx.clone();
                thread::spawn(move || {
                    tid_tx.send(procfs::current_tid()).ok();
                    run_executors_mux(
                        addr,
                        (d * per) as u64,
                        per,
                        ExecutorConfig::default(),
                        security,
                    )
                })
            })
            .collect();
        // Each fleet thread sends its id first; its sender lives on for
        // the whole run, so take exactly one message per thread.
        let fleet_tids: Vec<u64> = (0..fleets.len())
            .filter_map(|_| tid_rx.recv().ok().flatten())
            .collect();
        let mut dep = Deployment {
            server,
            fleets,
            fleet_tids,
            session,
        };
        if dep.fleet_tids.len() != dep.fleets.len() {
            return Err(io_err("fleet thread ids".into()));
        }
        // Every executor connection established at both ends: four
        // descriptors each (stream plus its reader clone, per end).
        let want = sockets_before + 4 * shape.executors();
        let deadline = Instant::now() + STALL;
        while open_sockets()? < want {
            if Instant::now() > deadline || dep.fleets.iter().any(|f| f.is_finished()) {
                return Err(io_err("the executor fleet did not connect".into()));
            }
            thread::sleep(Duration::from_micros(200));
        }
        let wave = (0..shape.executors() as u64)
            .map(|i| TaskSpec::sleep(warm_ids + i, 0))
            .collect();
        dep.session.burst(wave)?;
        Ok((dep, t0.elapsed().as_secs_f64()))
    }

    /// Stop everything and run the correctness gate: client ids, dispatcher
    /// records and fleet task counts must all equal the tasks sent.
    pub fn stop(self) -> io::Result<Teardown> {
        let (attempted, client_failed) = self.session.close()?;
        let mut td = Teardown {
            attempted,
            failed: client_failed,
            records: Vec::new(),
            stats: DispatcherStats::default(),
            recorder: Recorder::new(),
            forwarder_wire: Counters::new(),
            violations: Vec::new(),
        };
        if client_failed > 0 {
            td.violations.push(format!(
                "{client_failed} tasks missing or duplicated at the client"
            ));
        }
        let outcomes = match self.server {
            Server::Single(s) => vec![s.shutdown()],
            Server::Relay(s) => {
                let (fwd, outcomes) = s.shutdown();
                td.forwarder_wire.merge(&fwd.upstream_wire);
                td.forwarder_wire.merge(&fwd.downstream_wire);
                if fwd.stats.results_delivered != attempted {
                    td.violations.push(format!(
                        "forwarder delivered {} of {attempted}",
                        fwd.stats.results_delivered
                    ));
                }
                outcomes
            }
        };
        for (records, stats, recorder) in outcomes {
            td.records.extend(records);
            td.recorder.merge(&recorder);
            add_stats(&mut td.stats, &stats);
        }
        let mut fleet_tasks = 0;
        for f in self.fleets {
            let out = f
                .join()
                .map_err(|_| io_err("fleet thread panicked".into()))??;
            fleet_tasks += out.tasks;
        }
        let nonzero = td
            .records
            .iter()
            .filter(|r| r.result.exit_code != 0)
            .count() as u64;
        if td.records.len() as u64 != attempted {
            td.violations.push(format!(
                "dispatchers recorded {} of {attempted} tasks",
                td.records.len()
            ));
        }
        if fleet_tasks != attempted {
            td.violations
                .push(format!("the fleet ran {fleet_tasks} of {attempted} tasks"));
        }
        if nonzero > 0 {
            td.violations
                .push(format!("{nonzero} tasks exited non-zero"));
        }
        if !td.violations.is_empty() {
            td.failed = td.failed.max(1).max(nonzero);
        }
        Ok(td)
    }
}

fn add_stats(sum: &mut DispatcherStats, s: &DispatcherStats) {
    sum.submitted += s.submitted;
    sum.dispatched += s.dispatched;
    sum.completed += s.completed;
    sum.failed += s.failed;
    sum.retries += s.retries;
    sum.duplicate_results += s.duplicate_results;
    sum.notifies += s.notifies;
    sum.piggybacked += s.piggybacked;
    sum.data_locality_hits += s.data_locality_hits;
}

/// Wire frames and bytes (both directions) in a counter set.
pub fn wire_totals(c: &Counters) -> (u64, u64) {
    let frames = c.count(ObsEventKind::BundleEncoded) + c.count(ObsEventKind::BundleDecoded);
    let bytes = c.value(ObsEventKind::BundleEncoded) + c.value(ObsEventKind::BundleDecoded);
    (frames, bytes)
}

//! Per-layer costs timed from outside, through each crate's public entry
//! points: the sans-io machines, the codec, the secure channel, the timer
//! wheel, and a ladder of 1000-task runs that adds one layer per rung.

use crate::procfs;
use crate::socket::{Deployment, Shape};
use crate::stats::median;
use falkon_core::dispatcher::{Dispatcher, DispatcherAction, DispatcherEvent};
use falkon_core::forwarder::{Forwarder, ForwarderAction, ForwarderEvent};
use falkon_core::DispatcherConfig;
use falkon_proto::bundle::{bundles, BundleConfig};
use falkon_proto::codec::{Codec, EfficientCodec};
use falkon_proto::message::{ExecutorId, InstanceId, Message};
use falkon_proto::security::established_pair;
use falkon_proto::task::{TaskId, TaskResult, TaskSpec};
use falkon_rt::inproc::{run_sleep_workload, InprocConfig};
use falkon_rt::WireMode;
use falkon_sim::{Engine, SimDuration};
use std::hint::black_box;
use std::io;
use std::time::Instant;

/// Repetitions per micro-measurement; each reports its median.
const REPS: usize = 7;
/// Repetitions per ladder rung: a 1000-task run lasts only milliseconds,
/// so more of them are needed to resolve sub-µs/task increments.
const LADDER_REPS: usize = 21;

fn median_of<F: FnMut() -> f64>(mut one: F) -> f64 {
    let mut v: Vec<f64> = (0..REPS).map(|_| one()).collect();
    median(&mut v).expect("REPS > 0")
}

/// Drive `n` sleep-0 tasks through a bare `Dispatcher` with `executors`
/// synchronous executors, submitted in bundles of `bundle`. Returns the
/// completions seen (must be `n`).
fn dispatcher_lifecycle(n: u64, bundle: usize, executors: u64, notify_batch: u64) -> u64 {
    let mut d = Dispatcher::new(DispatcherConfig {
        client_notify_batch: notify_batch,
        ..DispatcherConfig::default()
    });
    let mut out: Vec<DispatcherAction> = Vec::new();
    d.on_event(0, DispatcherEvent::CreateInstance, &mut out);
    let instance = InstanceId(1);
    for e in 0..executors {
        d.on_event(
            0,
            DispatcherEvent::Register {
                executor: ExecutorId(e),
                host: String::new(),
            },
            &mut out,
        );
    }
    out.clear();
    let mut now = 1;
    for chunk in bundles((0..n).map(|i| TaskSpec::sleep(i, 0)).collect(), bundle) {
        d.on_event(
            now,
            DispatcherEvent::Submit {
                instance,
                tasks: chunk,
            },
            &mut out,
        );
    }
    let mut done = 0u64;
    let mut inbox: Vec<DispatcherEvent> = Vec::new();
    loop {
        for act in out.drain(..) {
            match act {
                DispatcherAction::ToExecutor {
                    executor,
                    msg: Message::Notify { key },
                } => inbox.push(DispatcherEvent::GetWork { executor, key }),
                DispatcherAction::ToExecutor {
                    executor,
                    msg: Message::Work { tasks } | Message::ResultAck { piggybacked: tasks },
                } if !tasks.is_empty() => inbox.push(DispatcherEvent::Result {
                    executor,
                    results: tasks.iter().map(|t| TaskResult::success(t.id)).collect(),
                }),
                DispatcherAction::ToClient {
                    msg: Message::ClientNotify { .. },
                    ..
                } => inbox.push(DispatcherEvent::GetResults { instance }),
                DispatcherAction::TaskDone { .. } => done += 1,
                _ => {}
            }
        }
        if inbox.is_empty() {
            return done;
        }
        for ev in std::mem::take(&mut inbox) {
            now += 1;
            d.on_event(now, ev, &mut out);
        }
    }
}

/// `core.dispatcher.machine_ns_per_task` at the workload's bundle size.
pub fn dispatcher_ns_per_task(bundle: usize, executors: u64, notify_batch: u64) -> f64 {
    const N: u64 = 20_000;
    median_of(|| {
        let t = Instant::now();
        let done = black_box(dispatcher_lifecycle(N, bundle, executors, notify_batch));
        assert_eq!(done, N, "the bare dispatcher completes every task");
        t.elapsed().as_nanos() as f64 / N as f64
    })
}

/// `core.forwarder.machine_ns_per_bundle`: route a bundle to one of two
/// dispatchers and funnel its results back.
pub fn forwarder_ns_per_bundle(bundle: usize) -> f64 {
    const BUNDLES: u64 = 200;
    median_of(|| {
        let mut f = Forwarder::new(2);
        let mut out = Vec::new();
        let mut delivered = 0usize;
        let t = Instant::now();
        for b in 0..BUNDLES {
            let first = b * bundle as u64;
            let tasks = (first..first + bundle as u64)
                .map(|i| TaskSpec::sleep(i, 0))
                .collect();
            f.on_event(
                b,
                ForwarderEvent::ClientSubmit {
                    instance: InstanceId(1),
                    tasks,
                },
                &mut out,
            );
            for act in std::mem::take(&mut out) {
                match act {
                    ForwarderAction::SubmitTo { dispatcher, tasks } => f.on_event(
                        b,
                        ForwarderEvent::DispatcherResults {
                            dispatcher,
                            results: tasks.iter().map(|t| TaskResult::success(t.id)).collect(),
                        },
                        &mut out,
                    ),
                    ForwarderAction::DeliverResults { results, .. } => delivered += results.len(),
                }
            }
            for act in out.drain(..) {
                if let ForwarderAction::DeliverResults { results, .. } = act {
                    delivered += results.len();
                }
            }
        }
        let ns = t.elapsed().as_nanos() as f64 / BUNDLES as f64;
        assert_eq!(
            delivered as u64,
            BUNDLES * bundle as u64,
            "every result funnels back"
        );
        ns
    })
}

fn submit_frame(bundle: usize) -> Message {
    Message::Submit {
        instance: InstanceId(1),
        tasks: (0..bundle as u64).map(|i| TaskSpec::sleep(i, 0)).collect(),
    }
}

fn results_frame(bundle: usize) -> Message {
    Message::Results {
        results: (0..bundle as u64)
            .map(|i| TaskResult::success(TaskId(i)))
            .collect(),
    }
}

/// `proto.codec.{encode,decode}_ns_per_task` on the workload's client
/// frames: a `Submit` and a `Results` of `bundle` tasks each.
pub fn codec_ns_per_task(bundle: usize) -> (f64, f64) {
    let codec = EfficientCodec;
    let frames = [submit_frame(bundle), results_frame(bundle)];
    let reps = (30_000 / bundle).max(1);
    let encode = median_of(|| {
        let t = Instant::now();
        for _ in 0..reps {
            for f in &frames {
                black_box(codec.encode(black_box(f)));
            }
        }
        t.elapsed().as_nanos() as f64 / (reps * bundle) as f64
    });
    let bytes: Vec<Vec<u8>> = frames.iter().map(|f| codec.encode(f)).collect();
    let decode = median_of(|| {
        let t = Instant::now();
        for _ in 0..reps {
            for b in &bytes {
                black_box(codec.decode(black_box(b)).expect("own encoding decodes"));
            }
        }
        t.elapsed().as_nanos() as f64 / (reps * bundle) as f64
    });
    (encode, decode)
}

/// `proto.security.{seal,open}_ns_per_kib` on a `Submit` frame of
/// `bundle` tasks.
pub fn seal_ns_per_kib(bundle: usize) -> (f64, f64) {
    let payload = EfficientCodec.encode(&submit_frame(bundle));
    let kib = payload.len() as f64 / 1024.0;
    let reps = (8_000_000 / payload.len()).clamp(1, 100_000);
    let seal_ns = median_of(|| {
        let (a, _) = established_pair(0xFA1C0, 1, 2);
        let (mut seal, _) = a.into_halves().expect("established");
        let mut sealed = Vec::with_capacity(payload.len() + 64);
        let t = Instant::now();
        for _ in 0..reps {
            sealed.clear();
            seal.seal_into(black_box(&payload), &mut sealed);
            black_box(&sealed);
        }
        t.elapsed().as_nanos() as f64 / (reps as f64 * kib)
    });
    let open_ns = median_of(|| {
        let (a, b) = established_pair(0xFA1C0, 1, 2);
        let (mut seal, _) = a.into_halves().expect("established");
        let (_, mut open) = b.into_halves().expect("established");
        let mut frames: Vec<Vec<u8>> = (0..reps)
            .map(|_| {
                let mut f = Vec::new();
                seal.seal_into(&payload, &mut f);
                f
            })
            .collect();
        let t = Instant::now();
        for f in &mut frames {
            black_box(open.open_in_place(f).expect("own seal opens"));
        }
        t.elapsed().as_nanos() as f64 / (reps as f64 * kib)
    });
    (seal_ns, open_ns)
}

/// `sim.wheel.events_per_s`: the endurance run's timer population (64
/// executors and one rate-limited client, each re-arming a timer on every
/// event) on `falkon_sim::Engine`.
pub fn wheel_events_per_s(seed: u64) -> f64 {
    const EVENTS: u64 = 2_000_000;
    median_of(|| {
        let mut rng = crate::gen::SplitMix64::new(seed);
        let mut engine: Engine<u32> = Engine::new();
        for actor in 0..65u32 {
            engine.schedule(SimDuration::from_micros(1 + rng.next_u64() % 4_000), actor);
        }
        let t = Instant::now();
        engine.run(|eng, actor| {
            if eng.events_processed() >= EVENTS {
                eng.stop();
                return;
            }
            // The client re-arms every 240 ms (a 300-task bundle at
            // 1,250/s); executors every few ms.
            let delay = if actor == 64 {
                240_000
            } else {
                500 + rng.next_u64() % 6_000
            };
            eng.schedule(SimDuration::from_micros(delay), actor);
        });
        EVENTS as f64 / t.elapsed().as_secs_f64()
    })
}

/// Process CPU µs per task of `run` (which completes `tasks` tasks).
fn cpu_us_per_task<F: FnMut() -> io::Result<u64>>(tasks: u64, mut run: F) -> io::Result<f64> {
    let mut v = Vec::with_capacity(LADDER_REPS);
    for _ in 0..LADDER_REPS {
        let before = procfs::process_usage();
        let done = run()?;
        let cpu = procfs::process_usage().since(&before).cpu_us;
        if done != tasks {
            return Err(io::Error::other(format!(
                "ladder rung ran {done} of {tasks}"
            )));
        }
        v.push(cpu as f64 / tasks as f64);
    }
    Ok(median(&mut v).expect("LADDER_REPS > 0"))
}

/// The layer ladder: CPU µs per task of one 1000-task sleep-0 run per
/// rung, each rung adding one layer to the one before.
pub fn ladder() -> io::Result<Vec<(&'static str, f64)>> {
    const N: u64 = 1_000;
    let mut out = Vec::new();
    out.push((
        "ladder.machine",
        cpu_us_per_task(N, || Ok(dispatcher_lifecycle(N, 300, 8, 1_000)))?,
    ));
    for (name, wire) in [
        ("ladder.inproc_plain", WireMode::Plain),
        ("ladder.inproc_encoded", WireMode::Encoded),
        ("ladder.inproc_secure", WireMode::Secure),
    ] {
        let config = InprocConfig {
            executors: 8,
            wire,
            bundle: BundleConfig::of(300),
            dispatcher: DispatcherConfig {
                client_notify_batch: 1_000,
                ..DispatcherConfig::default()
            },
            ..InprocConfig::default()
        };
        out.push((
            name,
            cpu_us_per_task(N, || Ok(run_sleep_workload(&config, N, 0).tasks))?,
        ));
    }
    for (name, forwarder_dispatchers) in [("ladder.tcp_sharded", 0), ("ladder.forwarder", 2)] {
        let shape = Shape {
            secure: false,
            forwarder_dispatchers,
            executors_per_dispatcher: 8 / forwarder_dispatchers.max(1),
            bundle: 300,
            notify_batch: 1_000,
        };
        // Set-up and the warm-up wave stay outside the timed run.
        let (mut dep, _) = Deployment::start(shape, None, 0)?;
        let mut next = shape.executors() as u64;
        let v = cpu_us_per_task(N, || {
            let tasks = (next..next + N).map(|i| TaskSpec::sleep(i, 0)).collect();
            next += N;
            Ok(dep.session.burst(tasks)?.tasks)
        })?;
        let td = dep.stop()?;
        if !td.violations.is_empty() {
            return Err(io::Error::other(td.violations.join("; ")));
        }
        out.push((name, v));
    }
    Ok(out)
}

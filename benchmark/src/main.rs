//! End-to-end and per-layer benchmark of falkon-rs.
//!
//! ```text
//! falkon-benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Runs one workload (`burst_secure`, `open_fanout`, `relay_burst`,
//! `sim_endurance`) for about `--seconds` of timed work and prints, as the
//! last line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before it
//! is the host fingerprint. Exits 1 when the correctness gate fails and 2
//! on a usage error. See README.md for the metric definitions.

// A benchmark is a driver: it reads the wall clock and waits on threads
// by design, which the workspace clippy.toml bans outside falkon-rt.
#![allow(clippy::disallowed_methods)]

mod alloc;
mod gen;
mod layers;
mod procfs;
mod report;
mod socket;
mod stats;
mod workloads;

use std::process::ExitCode;
use workloads::Workload;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("falkon-benchmark: {e}");
            eprintln!(
                "usage: falkon-benchmark --workload <burst_secure|open_fanout|relay_burst|sim_endurance> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let res = match workloads::run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("falkon-benchmark: run failed: {e}");
            return ExitCode::from(1);
        }
    };
    let mut violations = res.violations;
    let bad = res.metrics.non_finite();
    if !bad.is_empty() {
        violations.push(format!("non-finite metrics: {bad:?}"));
    }
    for v in &violations {
        eprintln!("correctness gate: {v}");
    }
    let correct = violations.is_empty() && res.failed == 0;
    println!(
        "{{\"host\": {}}}",
        procfs::host_fingerprint(res.host_window)
    );
    println!(
        "{}",
        report::result_line(correct, res.attempted.max(1), res.failed, &res.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_documented_command_line() {
        let a = args("--workload open_fanout --seed 7 --seconds 12 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::OpenFanout);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12, true));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload sim_endurance --seed x").is_err());
        assert!(args("--workload sim_endurance --seed").is_err());
    }
}

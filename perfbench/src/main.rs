//! Benchmark of the hetmmm workspace: the paper's census, the shape
//! ranking with execution, and the k-processor search.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <census_n1000|census_n300|census_n100|rank_exec|nproc_k4> \
//!     --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --fingerprint <check|write> [--fingerprint-file <path>] [--tiny]
//! ```
//!
//! One client issues one op at a time (a closed loop), in rounds of one
//! op per ratio or weight set. The number of rounds is fixed per workload
//! and `--seconds`, sized so a run lasts about that long on a 2-vCPU host;
//! the same seed thus always issues the same ops. With `--trace 0` it
//! reports the end-to-end metrics; with `--trace 1` it runs every op twice,
//! untraced and then traced with the program's `obs::metrics()` recording
//! on, and reports the per-layer metrics. Every op's output is checked: an
//! op that misses its goal (a search stopped at a safety cap) counts as
//! failed, and a wrong output makes the command exit 1. The end-to-end
//! times are host-calibrated (see `calibrate`). The last line of standard
//! output is one JSON object.
//!
//! `--fingerprint` runs a fixed set of ops for the default seed with the
//! program's counters on and compares the exact work counts and outcomes
//! with `fingerprint.txt` (`check`) or rewrites it (`write`).

mod calibrate;
mod fingerprint;
mod report;
mod sys;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Verdict, Workload};

/// Parsed command line.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
    fingerprint: Option<String>,
    fingerprint_file: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: 10,
        trace: false,
        tiny: false,
        fingerprint: None,
        fingerprint_file: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fingerprint.txt"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = number(&value)?,
            "--seconds" => args.seconds = number(&value)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--fingerprint" => args.fingerprint = Some(value),
            "--fingerprint-file" => args.fingerprint_file = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(mode) = &args.fingerprint {
        return fingerprint::main(mode, &args.fingerprint_file, args.tiny);
    }
    let Some(name) = args.workload.as_deref() else {
        eprintln!(
            "error: --workload is required (one of {:?})",
            workload::NAMES
        );
        return ExitCode::from(2);
    };
    let Some(wl) = Workload::lookup(name, args.tiny) else {
        eprintln!(
            "error: unknown workload {name} (one of {:?})",
            workload::NAMES
        );
        return ExitCode::from(2);
    };
    let result = if args.trace {
        run_traced(&wl, args.seed, args.seconds)
    } else {
        run_untraced(&wl, args.seed, args.seconds)
    };
    result.print();
    if result.tally.wrong == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Times set-ups in batches of at least 1 ms, each set-up released before
/// the next; `setup_s` is the median batch. Five batches run before the
/// first op and one after each round, so the median spans the whole run.
struct SetupTimer {
    batch: u32,
    per_setup: Vec<f64>,
    /// `kij_serial` times of every set-up, as measured.
    serial_ns: Vec<u64>,
}

impl SetupTimer {
    /// Size the batch, take the first five batches, and return the set-up
    /// the ops then use.
    fn start(wl: &Workload, seed: u64) -> (SetupTimer, workload::Prepared) {
        let mut timer = SetupTimer {
            batch: 1,
            per_setup: Vec::new(),
            serial_ns: Vec::new(),
        };
        while timer.per_setup.len() < 5 {
            if timer.sample(wl, seed) < Duration::from_millis(1) {
                timer.batch *= 2;
                timer.per_setup.clear();
            }
        }
        (timer, wl.setup(seed))
    }

    /// Time one batch; returns its length.
    fn sample(&mut self, wl: &Workload, seed: u64) -> Duration {
        let t = Instant::now();
        for _ in 0..self.batch {
            let prepared = std::hint::black_box(wl.setup(seed));
            self.serial_ns.extend(prepared.serial_ns());
        }
        let elapsed = t.elapsed();
        self.per_setup
            .push(elapsed.as_secs_f64() / f64::from(self.batch));
        elapsed
    }

    fn median_s(&self) -> f64 {
        sys::quantile(&self.per_setup, 0.5)
    }
}

/// Check outcomes of a run's ops.
#[derive(Default)]
struct Tally {
    /// Ops that did not pass their check, wrong ones included.
    failed: u64,
    /// Ops whose output was wrong.
    wrong: u64,
    messages: Vec<String>,
}

impl Tally {
    fn record(&mut self, verdict: Result<(), Verdict>) {
        match verdict {
            Ok(()) => return,
            Err(Verdict::Failed(m)) => self.messages.push(format!("FAILED {m}")),
            Err(Verdict::Wrong(m)) => {
                self.wrong += 1;
                self.messages.push(format!("WRONG {m}"));
            }
        }
        self.failed += 1;
    }
}

/// Outcome of one benchmark run.
struct RunResult {
    attempted: u64,
    tally: Tally,
    /// `(name, value, unit)` in report order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Printed before the metrics, one per line.
    notes: Vec<String>,
}

impl RunResult {
    fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        for m in self.tally.messages.iter().take(10) {
            println!("# {m}");
        }
        let fail_ratio = self.tally.failed as f64 / self.attempted.max(1) as f64;
        for (name, value, unit) in &self.metrics {
            println!("{name:<30} {value:>24} {unit}");
        }
        println!("{:<30} {fail_ratio:>24} ratio", "fail_ratio");
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.wrong == 0,
            self.attempted,
            self.tally.failed,
            body.join(", ")
        );
    }
}

/// JSON has no NaN or infinity; a metric without samples reads 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Issue ops by index in `rounds` whole rounds (one op per ratio or
/// weight set), calling `after_round` between rounds; returns the number
/// of ops issued.
fn in_rounds(
    wl: &Workload,
    rounds: u64,
    mut op: impl FnMut(u64),
    mut after_round: impl FnMut(),
) -> u64 {
    let mut index = 0u64;
    for _ in 0..rounds {
        for _ in 0..wl.round_len() {
            op(index);
            index += 1;
        }
        after_round();
    }
    index
}

/// End-to-end run: ops untraced, program counters off.
fn run_untraced(wl: &Workload, seed: u64, seconds: u64) -> RunResult {
    let mut host = calibrate::HostSpeed::new();
    let (mut setup, prepared) = SetupTimer::start(wl, seed);
    let mut op_ms = Vec::new();
    let mut cpu = Duration::ZERO;
    let mut tally = Tally::default();
    let index = in_rounds(
        wl,
        wl.rounds(seconds),
        |index| {
            let cpu0 = sys::process_cpu();
            let t = Instant::now();
            let out = prepared.run(index, None);
            let elapsed = t.elapsed();
            cpu += sys::process_cpu() - cpu0;
            op_ms.push(elapsed.as_secs_f64() * 1e3);
            host.after_op(elapsed);
            tally.record(prepared.check(index, &out));
        },
        || {
            setup.sample(wl, seed);
        },
    );
    let ops = index as f64;
    let busy_s: f64 = op_ms.iter().sum::<f64>() / 1e3;
    // (name, measured value, unit, exponent of the time unit in it)
    let measured = [
        ("ops_per_s", ops / busy_s, "1/s", -1),
        ("op_ms_p50", sys::quantile(&op_ms, 0.5), "ms", 1),
        ("op_ms_p90", sys::quantile(&op_ms, 0.9), "ms", 1),
        ("cpu_s_per_op", cpu.as_secs_f64() / ops, "s", 1),
        ("setup_s", setup.median_s(), "s", 1),
        ("peak_rss_mb", sys::peak_rss_mb(), "MiB", 0),
    ];
    let scale = host.scale();
    let mut notes = vec![
        format!(
            "workload {} seed {seed}: {index} ops in {busy_s:.3} s of op time",
            wl.name
        ),
        format!(
            "host kernel median {:.4} ms against {} ms at the reference speed: times scaled by {scale:.4} (ratio to the power {})",
            host.median_ms(),
            calibrate::REFERENCE_MS,
            calibrate::HOST_EXPONENT
        ),
    ];
    notes.extend(
        measured
            .iter()
            .filter(|m| m.3 != 0)
            .map(|(name, value, unit, _)| format!("measured {name} {value} {unit}")),
    );
    RunResult {
        attempted: index,
        tally,
        metrics: measured
            .iter()
            .map(|&(name, value, unit, exp)| (name, value * scale.powi(exp), unit))
            .collect(),
        notes,
    }
}

/// Traced run: each op untraced, then traced with program counters on;
/// the two outputs must be identical. Each op runs twice, so the run
/// issues half the rounds of an end-to-end run.
fn run_traced(wl: &Workload, seed: u64, seconds: u64) -> RunResult {
    let (setup, prepared) = SetupTimer::start(wl, seed);
    let mut tracer = trace::Tracer::new();
    let mut untraced_ns = 0u64;
    let mut totals = workload::Counts::new();
    let mut tally = Tally::default();
    let metrics = hetmmm::prelude::obs::metrics();
    let rounds = (wl.rounds(seconds) / 2).max(1);
    let op = |index| {
        let t = Instant::now();
        let plain = prepared.run(index, None);
        untraced_ns += t.elapsed().as_nanos() as u64;
        metrics.reset();
        metrics.set_enabled(true);
        let traced = prepared.run(index, Some(&mut tracer));
        metrics.set_enabled(false);
        for (name, v) in workload::counts(&traced) {
            *totals.entry(name).or_insert(0) += v;
        }
        tally.record(if plain == traced {
            prepared.check(index, &traced)
        } else {
            Err(Verdict::Wrong(format!(
                "op {index}: traced output differs from untraced"
            )))
        });
    };
    let index = in_rounds(wl, rounds, op, || {});
    let (metrics, mut notes) =
        report::per_layer(&tracer, &totals, index, untraced_ns, &setup.serial_ns);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{seed}.jsonl", wl.name));
    match tracer.write_jsonl(&path) {
        Ok(()) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => notes.push(format!("could not write spans to {}: {e}", path.display())),
    }
    RunResult {
        attempted: index,
        tally,
        metrics,
        notes,
    }
}

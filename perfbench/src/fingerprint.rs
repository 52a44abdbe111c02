//! Exact work fingerprint of the default seed.
//!
//! A fixed set of ops per workload runs with the program's counters on.
//! Their outcomes (archetype table per ratio, shape ranking per ratio, final
//! VoC) and summed work counts (push steps, probe evaluations and cache
//! hits, grid words, k-proc steps, executor elements and updates) are
//! pure functions of the seed, so a change that claims to keep the
//! program's behaviour must reproduce them exactly.

use crate::workload::{counts, outcome_label, Verdict, Workload, NAMES};
use hetmmm::prelude::obs;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// The seed the fingerprint is pinned for.
const SEED: u64 = 0;

/// Counts that depend on thread timing, not only on the seed.
const TIMING_DEPENDENT: [&str; 3] = ["mmm.recv_wait_ns", "mmm.recv_retries", "mmm.recoveries"];

/// Rounds (one op per ratio or weight set each) fingerprinted per workload.
fn rounds(name: &str) -> u64 {
    match name {
        "census_n100" => 4,
        "census_n300" => 2,
        "nproc_k4" => 2,
        _ => 1,
    }
}

/// Compute the fingerprint; `Err` lists ops whose output was wrong. Ops
/// that failed their goal are part of the fingerprint and only noted.
pub fn compute(tiny: bool) -> Result<BTreeMap<String, String>, Vec<String>> {
    let mut entries = BTreeMap::new();
    let mut errors = Vec::new();
    let metrics = obs::metrics();
    for name in NAMES {
        let wl = Workload::lookup(name, tiny).expect("listed workload");
        let prepared = wl.setup(SEED);
        let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
        let mut outcomes: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for index in 0..rounds(name) * wl.round_len() as u64 {
            metrics.reset();
            metrics.set_enabled(true);
            let out = prepared.run(index, None);
            metrics.set_enabled(false);
            match prepared.check(index, &out) {
                Ok(()) => {}
                Err(Verdict::Failed(e)) => println!("# FAILED {name} {e}"),
                Err(Verdict::Wrong(e)) => errors.push(format!("{name} {e}")),
            }
            for (counter, v) in counts(&out) {
                if !TIMING_DEPENDENT.contains(&counter) {
                    *totals.entry(counter).or_insert(0) += v;
                }
            }
            let (slot, _) = prepared.input(index);
            outcomes
                .entry(wl.slot_label(slot))
                .or_default()
                .push(outcome_label(&out));
        }
        for (counter, v) in totals {
            entries.insert(format!("{name}/{counter}"), v.to_string());
        }
        for (slot, mut labels) in outcomes {
            if matches!(name, "census_n1000" | "census_n300" | "census_n100") {
                labels.sort();
            }
            entries.insert(format!("{name}/{slot}"), labels.join(" "));
        }
    }
    if errors.is_empty() {
        Ok(entries)
    } else {
        Err(errors)
    }
}

fn render(entries: &BTreeMap<String, String>) -> String {
    let mut s = format!(
        "# Exact work fingerprint of seed {SEED}: summed work counts and\n\
         # outcomes per ratio or weight set. Regenerate only for a change\n\
         # that is meant to alter the program's output:\n\
         #   cargo run --release --manifest-path perfbench/Cargo.toml -- --fingerprint write\n"
    );
    for (k, v) in entries {
        s.push_str(&format!("{k} = {v}\n"));
    }
    s
}

fn parse(text: &str) -> Result<BTreeMap<String, String>, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            l.split_once(" = ")
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .ok_or(format!("malformed fingerprint line: {l}"))
        })
        .collect()
}

/// `--fingerprint check|write`.
pub fn main(mode: &str, file: &Path, tiny: bool) -> ExitCode {
    if mode != "check" && mode != "write" {
        eprintln!("error: --fingerprint takes check or write, not {mode}");
        return ExitCode::from(2);
    }
    let actual = match compute(tiny) {
        Ok(e) => e,
        Err(errors) => {
            for e in errors {
                println!("WRONG {e}");
            }
            println!("fingerprint: not computed, op outputs were wrong");
            return ExitCode::from(1);
        }
    };
    if mode == "write" {
        if let Err(e) = std::fs::write(file, render(&actual)) {
            eprintln!("error: write {}: {e}", file.display());
            return ExitCode::from(1);
        }
        println!(
            "fingerprint: wrote {} entries to {}",
            actual.len(),
            file.display()
        );
        return ExitCode::SUCCESS;
    }
    let pinned = match std::fs::read_to_string(file)
        .map_err(|e| format!("read {}: {e}", file.display()))
        .and_then(|t| parse(&t))
    {
        Ok(p) => p,
        Err(e) => {
            println!("fingerprint: MISMATCH ({e})");
            return ExitCode::from(1);
        }
    };
    let mut differ = 0;
    for key in actual
        .keys()
        .chain(pinned.keys().filter(|k| !actual.contains_key(*k)))
    {
        let (got, want) = (actual.get(key), pinned.get(key));
        if got != want {
            differ += 1;
            println!(
                "differs: {key}: pinned {}, got {}",
                want.map_or("(none)", String::as_str),
                got.map_or("(none)", String::as_str)
            );
        }
    }
    if differ == 0 {
        println!("fingerprint: match ({} entries, seed {SEED})", actual.len());
        ExitCode::SUCCESS
    } else {
        println!("fingerprint: MISMATCH ({differ} entries differ)");
        ExitCode::from(1)
    }
}

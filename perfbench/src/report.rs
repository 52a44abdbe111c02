//! Per-layer metrics of a traced run, from its spans and work counts.

use crate::sys::quantile;
use crate::trace::{Tracer, OP};
use crate::workload::Counts;

/// Every per-layer metric with its unit, in report order. Times and counts
/// are per op unless the name says otherwise.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("push.dfa_ms", "ms"),
    ("push.dfa_share", "ratio"),
    ("push.dfa_us_per_step", "us"),
    ("push.steps", "count/op"),
    ("push.neutral_steps", "count/op"),
    ("push.neutral_cycles", "count/op"),
    ("push.unconverged", "count/op"),
    ("push.probe.evals", "count/op"),
    ("push.probe.cache_hits", "count/op"),
    ("push.probe.hit_ratio", "ratio"),
    ("grid.shrink.word_scans", "count/op"),
    ("grid.popcount.words", "count/op"),
    ("partition.random_ms", "ms"),
    ("push.beautify_ms", "ms"),
    ("push.beautify_steps", "count/op"),
    ("push.beautify_uncondensed", "count/op"),
    ("shapes.classify_ms", "ms"),
    ("shapes.classified_ratio", "ratio"),
    ("shapes.candidates_ms", "ms"),
    ("cost.evaluate_ms", "ms"),
    ("sim.simulate_ms", "ms"),
    ("cost.models_evaluated", "count/op"),
    ("sim.runs", "count/op"),
    ("mmm.exec_ms", "ms"),
    ("mmm.exec_over_serial", "ratio"),
    ("mmm.recv_wait_ms", "ms"),
    ("mmm.recv_retries", "count/op"),
    ("mmm.recoveries", "count/op"),
    ("mmm.serial_ms", "ms"),
    ("mmm.elems_sent", "count/op"),
    ("mmm.updates", "count/op"),
    ("mmm.messages", "count/op"),
    ("mmm.bytes_moved_computed", "B/op"),
    ("nproc.dfa_ms", "ms"),
    ("nproc.dfa_us_per_step", "us"),
    ("nproc.steps", "count/op"),
    ("nproc.unconverged", "count/op"),
    ("core.unattributed_share", "ratio"),
    ("obs.trace_overhead_ratio", "ratio"),
];

/// An op whose root span leaves more than this share to no layer is
/// reported by id.
const UNATTRIBUTED_LIMIT: f64 = 0.20;

/// `a / b`, or 0 when nothing was measured.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Compute every per-layer metric, plus notes on the trace's own quality.
pub fn per_layer(
    tracer: &Tracer,
    counts: &Counts,
    ops: u64,
    untraced_ns: u64,
    serial_ns: &[u64],
) -> (Vec<(&'static str, f64, &'static str)>, Vec<String>) {
    let spans = tracer.totals();
    let ns = |name: &str| spans.get(name).copied().unwrap_or(0) as f64;
    let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    let per_op = |v: f64| ratio(v, ops as f64);
    let ms_per_op = |name: &str| per_op(ns(name) / 1e6);
    let serial: Vec<f64> = serial_ns.iter().map(|&v| v as f64).collect();
    let serial_ns = if serial.is_empty() {
        0.0
    } else {
        quantile(&serial, 0.5)
    };

    let op_ns = ns(OP);
    let dfa_ns = ns("push.run_with");
    let nproc_ns = ns("nproc.run_seed");
    let exec_ns = ns("mmm.multiply_partitioned");
    let hits = count("push.probe.cache_hits");
    let evals = count("push.probe.evals");
    let unattributed = tracer.unattributed();
    let unattributed_ns: u64 = unattributed.iter().map(|u| u.2).sum();

    let value = |name: &str| -> f64 {
        match name {
            "push.dfa_ms" => ms_per_op("push.run_with"),
            "push.dfa_share" => ratio(dfa_ns, op_ns),
            "push.dfa_us_per_step" => ratio(dfa_ns / 1e3, count("push.steps")),
            "push.probe.hit_ratio" => ratio(hits, hits + evals),
            "partition.random_ms" => ms_per_op("partition.random_partition"),
            "push.beautify_ms" => ms_per_op("push.beautify"),
            "shapes.classify_ms" => ms_per_op("shapes.classify_coarse"),
            "shapes.classified_ratio" => per_op(count("shapes.classified")),
            "shapes.candidates_ms" => ms_per_op("shapes.all_feasible"),
            "cost.evaluate_ms" => ms_per_op("cost.evaluate_all"),
            "sim.simulate_ms" => ms_per_op("sim.simulate_all"),
            "mmm.exec_ms" => ms_per_op("mmm.multiply_partitioned"),
            "mmm.exec_over_serial" => ratio(ratio(exec_ns, count("mmm.multiplies")), serial_ns),
            "mmm.recv_wait_ms" => per_op(count("mmm.recv_wait_ns") / 1e6),
            "mmm.serial_ms" => serial_ns / 1e6,
            "mmm.bytes_moved_computed" => per_op(count("mmm.elems_sent") * 8.0),
            "nproc.dfa_ms" => ms_per_op("nproc.run_seed"),
            "nproc.dfa_us_per_step" => ratio(nproc_ns / 1e3, count("nproc.steps")),
            "core.unattributed_share" => ratio(unattributed_ns as f64, op_ns),
            "obs.trace_overhead_ratio" => ratio(op_ns, untraced_ns as f64),
            counted => per_op(count(counted)),
        }
    };
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, value(name), unit))
        .collect();

    let mut notes = vec![format!(
        "traced {ops} ops over {} span names; push.dfa_share {:.4}",
        spans.len(),
        ratio(dfa_ns, op_ns)
    )];
    let flagged: Vec<String> = unattributed
        .iter()
        .filter(|(_, root, free)| ratio(*free as f64, *root as f64) > UNATTRIBUTED_LIMIT)
        .map(|(op, root, free)| format!("{op} ({:.1}%)", 100.0 * *free as f64 / *root as f64))
        .collect();
    if !flagged.is_empty() {
        notes.push(format!(
            "{} ops leave more than {:.0}% of their time to no layer: {}",
            flagged.len(),
            UNATTRIBUTED_LIMIT * 100.0,
            flagged[..flagged.len().min(20)].join(", ")
        ));
    }
    (metrics, notes)
}

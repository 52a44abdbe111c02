//! The four workloads: their inputs, the op each one repeats, and the check
//! every op's output must pass.
//!
//! An op's inputs are its workload slot (which ratio or weight set) and a
//! seed derived from the workload seed; the program sees nothing else.

use crate::sys::mix;
use crate::trace::Tracer;
use hetmmm::mmm::{kij_serial, multiply_partitioned, ExecStats, Matrix, RecoveryStats};
use hetmmm::partition::{random_partition, Partition, Proc, Ratio};
use hetmmm::prelude::obs;
use hetmmm::push::{
    beautify, is_condensed, try_push_any_type, DfaConfig, DfaRunner, Direction, PushPlan,
};
use hetmmm::shapes::{candidates, classify_coarse, Archetype, CandidateType};
use hetmmm::{cost, recommend, sim};
use hetmmm_nproc::{NDfaConfig, NDfaRunner, NPartition};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Workload names. `BENCHMARK.json` lists all but `census_n1000`, the
/// paper's scale, whose 3 s ops are too few per run to be steady; it stays
/// runnable for the traced layer split and the fingerprint.
pub const NAMES: [&str; 5] = [
    "census_n1000",
    "census_n300",
    "census_n100",
    "rank_exec",
    "nproc_k4",
];

/// Viewing granularity of `classify_coarse` (the paper's Fig. 7 value).
const BLOCKS: usize = 10;

/// Per-op work counts, keyed by metric name.
pub type Counts = BTreeMap<&'static str, u64>;

/// What a workload repeats.
#[derive(Clone, Debug)]
enum Kind {
    /// DFA run → `beautify` → `classify_coarse`, one ratio per op.
    Census { n: usize, ratios: Vec<Ratio> },
    /// Candidates → models and simulator → executor, one ratio per op.
    Rank { n: usize, ratios: Vec<Ratio> },
    /// One k-processor DFA run, one weight vector per op.
    NProc { n: usize, weights: Vec<Vec<u32>> },
}

/// A named workload at a given scale.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    kind: Kind,
    /// Seconds one round takes on a 2-vCPU host in one of its slow
    /// phases; sizes the fixed op schedule of a run.
    round_s: f64,
}

fn ratios(list: &[(u32, u32, u32)]) -> Vec<Ratio> {
    list.iter().map(|&(p, r, s)| Ratio::new(p, r, s)).collect()
}

impl Workload {
    /// Look a workload up by name. `tiny` shrinks every size so a whole
    /// run takes well under a second (used by the self-tests).
    pub fn lookup(name: &str, tiny: bool) -> Option<Workload> {
        let size = |full: usize, small: usize| if tiny { small } else { full };
        let (name, kind, round_s) = match name {
            "census_n1000" => (
                NAMES[0],
                Kind::Census {
                    n: size(1000, 48),
                    ratios: ratios(&[(2, 1, 1), (10, 1, 1), (5, 4, 1)]),
                },
                11.0,
            ),
            "census_n300" => (
                NAMES[1],
                Kind::Census {
                    n: size(300, 32),
                    ratios: ratios(&[(2, 1, 1), (10, 1, 1), (5, 4, 1)]),
                },
                0.4,
            ),
            "census_n100" => (
                NAMES[2],
                Kind::Census {
                    n: size(100, 20),
                    ratios: Ratio::paper_ratios(),
                },
                0.1,
            ),
            "rank_exec" => (
                NAMES[3],
                Kind::Rank {
                    n: size(256, 24),
                    ratios: ratios(&[(2, 1, 1), (5, 4, 1), (10, 1, 1), (25, 1, 1)]),
                },
                0.55,
            ),
            "nproc_k4" => (
                NAMES[4],
                Kind::NProc {
                    n: size(150, 20),
                    weights: vec![vec![4, 2, 1, 1], vec![8, 4, 2, 1]],
                },
                0.1,
            ),
            _ => return None,
        };
        // At tiny sizes a round takes milliseconds: one round per second
        // asked for keeps the self-tests short.
        let round_s = if tiny { 1.0 } else { round_s };
        Some(Workload {
            name,
            kind,
            round_s,
        })
    }

    /// Rounds in a run meant to last `seconds`, at least one. The count
    /// depends on nothing else, so a seed always issues the same ops and
    /// its checks always give the same verdicts.
    pub fn rounds(&self, seconds: u64) -> u64 {
        ((seconds as f64 / self.round_s).round() as u64).max(1)
    }

    /// Ops in one cycle through the workload's ratios or weight sets.
    pub fn round_len(&self) -> usize {
        match &self.kind {
            Kind::Census { ratios, .. } | Kind::Rank { ratios, .. } => ratios.len(),
            Kind::NProc { weights, .. } => weights.len(),
        }
    }

    /// Human-readable label of slot `slot`.
    pub fn slot_label(&self, slot: usize) -> String {
        match &self.kind {
            Kind::Census { ratios, .. } | Kind::Rank { ratios, .. } => ratios[slot].to_string(),
            Kind::NProc { weights, .. } => weights[slot]
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(":"),
        }
    }

    /// Everything the first op needs: runners, and for `rank_exec` the
    /// matrices, the `kij_serial` reference and the expected winners.
    pub fn setup(&self, seed: u64) -> Prepared {
        let state = match &self.kind {
            Kind::Census { n, ratios } => State::Census {
                runners: ratios
                    .iter()
                    .map(|&r| DfaRunner::new(DfaConfig::new(*n, r)))
                    .collect(),
            },
            Kind::Rank { n, ratios } => {
                let mut rng = StdRng::seed_from_u64(mix(seed, u64::MAX));
                let a = Matrix::random(*n, &mut rng);
                let b = Matrix::random(*n, &mut rng);
                let t = std::time::Instant::now();
                let c_ref = kij_serial(&a, &b);
                let serial_ns = t.elapsed().as_nanos() as u64;
                let platforms: Vec<_> = ratios.iter().map(|&r| platform(r)).collect();
                let expected = ratios
                    .iter()
                    .zip(&platforms)
                    .map(|(&r, p)| recommend(*n, r, p, cost::Algorithm::Scb).candidate.ty)
                    .collect();
                State::Rank {
                    a,
                    b,
                    c_ref,
                    serial_ns,
                    platforms,
                    expected,
                }
            }
            Kind::NProc { n, weights } => State::NProc {
                runners: weights
                    .iter()
                    .map(|w| NDfaRunner::new(NDfaConfig::new(*n, w.clone())))
                    .collect(),
            },
        };
        Prepared {
            workload: self.clone(),
            seed,
            state,
        }
    }
}

/// A communication-bound platform, so the ranking follows traffic.
fn platform(ratio: Ratio) -> cost::Platform {
    cost::Platform::new(ratio, 1e9, 50.0 / 1e9)
}

enum State {
    Census {
        runners: Vec<DfaRunner>,
    },
    Rank {
        a: Matrix,
        b: Matrix,
        c_ref: Matrix,
        serial_ns: u64,
        platforms: Vec<cost::Platform>,
        expected: Vec<CandidateType>,
    },
    NProc {
        runners: Vec<NDfaRunner>,
    },
}

/// A workload after set-up, ready to issue ops.
pub struct Prepared {
    pub workload: Workload,
    seed: u64,
    state: State,
}

/// The output of one op, kept for its check.
#[derive(Clone, Debug, PartialEq)]
#[allow(
    clippy::large_enum_variant,
    reason = "one output lives at a time, for one op's check"
)]
pub enum Output {
    Census {
        converged: bool,
        cycled: bool,
        steps: u64,
        neutral_steps: u64,
        voc_initial: u64,
        voc_final: u64,
        beautify_steps: u64,
        fixed_point: Partition,
        archetype: Archetype,
    },
    Rank {
        ranking: Vec<(CandidateType, f64)>,
        /// Each got `evaluate_all` and `simulate_all`: five algorithms.
        candidates: u64,
        runs: Vec<Executed>,
    },
    NProc {
        converged: bool,
        steps: u64,
        voc_initial: u64,
        voc_final: u64,
        partition: NPartition,
    },
}

/// One `multiply_partitioned` call: the VoC of the partition it was given,
/// and C with the execution counters, or the error it returned.
#[derive(Clone, Debug, PartialEq)]
pub struct Executed {
    voc: u64,
    result: Result<(Matrix, ExecStats), String>,
}

/// Time `f` as a span when a tracer is given.
fn call<T>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

impl Prepared {
    /// `(slot, seed)` of op `index`: slots cycle so every round covers each
    /// ratio or weight set once.
    pub fn input(&self, index: u64) -> (usize, u64) {
        let slot = (index % self.workload.round_len() as u64) as usize;
        (slot, mix(self.seed, index))
    }

    /// Nanoseconds `kij_serial` took in this set-up (`rank_exec` only).
    pub fn serial_ns(&self) -> Option<u64> {
        match &self.state {
            State::Rank { serial_ns, .. } => Some(*serial_ns),
            _ => None,
        }
    }

    /// Run op `index`. With a tracer, each call into a layer becomes a span,
    /// and the census op is decomposed into its public steps.
    pub fn run(&self, index: u64, tracer: Option<&mut Tracer>) -> Output {
        let (slot, seed) = self.input(index);
        match tracer {
            Some(t) => t.op(index, |t| self.run_inner(slot, seed, Some(t))),
            None => self.run_inner(slot, seed, None),
        }
    }

    fn run_inner(&self, slot: usize, seed: u64, mut tr: Option<&mut Tracer>) -> Output {
        match (&self.state, &self.workload.kind) {
            (State::Census { runners }, Kind::Census { n, ratios }) => {
                let runner = &runners[slot];
                let out = if tr.is_some() {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let part = call(&mut tr, "partition.random_partition", || {
                        random_partition(*n, ratios[slot], &mut rng)
                    });
                    let plan = call(&mut tr, "push.plan_random", || PushPlan::random(&mut rng));
                    call(&mut tr, "push.run_with", || {
                        runner.run_with(part, plan, &mut rng)
                    })
                } else {
                    runner.run_seed(seed)
                };
                let mut fixed_point = out.partition;
                let beautify_steps = call(&mut tr, "push.beautify", || beautify(&mut fixed_point));
                let archetype = call(&mut tr, "shapes.classify_coarse", || {
                    classify_coarse(&fixed_point, BLOCKS)
                });
                Output::Census {
                    converged: out.converged,
                    cycled: out.cycled,
                    steps: out.steps as u64,
                    neutral_steps: (out.pushes_by_type[4] + out.pushes_by_type[5]) as u64,
                    voc_initial: out.voc_initial,
                    voc_final: out.voc_final,
                    beautify_steps: beautify_steps as u64,
                    fixed_point,
                    archetype,
                }
            }
            (
                State::Rank {
                    a, b, platforms, ..
                },
                Kind::Rank { n, ratios },
            ) => {
                let ratio = ratios[slot];
                let plat = &platforms[slot];
                let cands = call(&mut tr, "shapes.all_feasible", || {
                    candidates::all_feasible(*n, ratio)
                });
                let mut scored = Vec::with_capacity(cands.len());
                for c in &cands {
                    let models = call(&mut tr, "cost.evaluate_all", || {
                        cost::evaluate_all(&c.partition, plat)
                    });
                    let sims = call(&mut tr, "sim.simulate_all", || {
                        sim::simulate_all(&c.partition, *plat)
                    });
                    std::hint::black_box(&sims);
                    let scb = models
                        .iter()
                        .find(|(algo, _)| *algo == cost::Algorithm::Scb)
                        .map(|(_, t)| t.total)
                        .expect("evaluate_all covers SCB");
                    scored.push((c, scb));
                }
                scored.sort_by(|x, y| x.1.total_cmp(&y.1));
                let mut rng = StdRng::seed_from_u64(seed);
                let random = call(&mut tr, "partition.random_partition", || {
                    random_partition(*n, ratio, &mut rng)
                });
                let winner = &scored.first().expect("a feasible candidate").0.partition;
                let runs = [winner, &random]
                    .into_iter()
                    .map(|part| Executed {
                        voc: part.voc(),
                        result: call(&mut tr, "mmm.multiply_partitioned", || {
                            multiply_partitioned(a, b, part)
                        })
                        .map_err(|e| e.to_string()),
                    })
                    .collect();
                Output::Rank {
                    ranking: scored.iter().map(|(c, t)| (c.ty, *t)).collect(),
                    candidates: cands.len() as u64,
                    runs,
                }
            }
            (State::NProc { runners }, Kind::NProc { .. }) => {
                let out = call(&mut tr, "nproc.run_seed", || runners[slot].run_seed(seed));
                Output::NProc {
                    converged: out.converged,
                    steps: out.steps as u64,
                    voc_initial: out.voc_initial,
                    voc_final: out.voc_final,
                    partition: out.partition,
                }
            }
            _ => unreachable!("state is built from the same kind"),
        }
    }

    /// Check one op's output.
    pub fn check(&self, index: u64, out: &Output) -> Result<(), Verdict> {
        let (slot, _) = self.input(index);
        let label = self.workload.slot_label(slot);
        let failed = |what: String| Err(Verdict::Failed(format!("op {index} ({label}): {what}")));
        let wrong = |what: String| Err(Verdict::Wrong(format!("op {index} ({label}): {what}")));
        match (out, &self.state) {
            (
                Output::Census {
                    converged,
                    voc_initial,
                    voc_final,
                    fixed_point,
                    ..
                },
                _,
            ) => {
                if voc_final > voc_initial {
                    return wrong(format!("VoC rose from {voc_initial} to {voc_final}"));
                }
                if fixed_point.voc() > *voc_final {
                    return wrong("beautify raised VoC".into());
                }
                if !converged {
                    return failed("DFA stopped at a safety cap".into());
                }
                // Like the DFA, `beautify` stops on a VoC-neutral cycle; a
                // state that is not condensed must then admit only pushes
                // that leave VoC unchanged.
                if !is_condensed(fixed_point) {
                    if let Some((proc, dir, delta)) = improving_push(fixed_point) {
                        return failed(format!(
                            "beautify stopped while {proc:?} {dir:?} still lowers VoC by {}",
                            -delta
                        ));
                    }
                }
            }
            (
                Output::Rank { ranking, runs, .. },
                State::Rank {
                    c_ref, expected, ..
                },
            ) => {
                if ranking.windows(2).any(|w| w[0].1 > w[1].1) {
                    return wrong("ranking is not sorted".into());
                }
                if ranking.first().map(|r| r.0) != Some(expected[slot]) {
                    return wrong(format!(
                        "winner {:?} differs from recommend's {:?}",
                        ranking.first().map(|r| r.0),
                        expected[slot]
                    ));
                }
                for run in runs {
                    let (c, stats) = match &run.result {
                        Ok(done) => done,
                        Err(e) => return failed(format!("executor returned: {e}")),
                    };
                    if !same_bits(c, c_ref) {
                        return wrong("C differs from kij_serial".into());
                    }
                    if stats.total_sent() != run.voc {
                        return wrong(format!(
                            "sent {} elements for a VoC of {}",
                            stats.total_sent(),
                            run.voc
                        ));
                    }
                    if stats.recovery != RecoveryStats::default() {
                        return failed(format!("recovery ran: {:?}", stats.recovery));
                    }
                }
            }
            (
                Output::NProc {
                    converged,
                    voc_initial,
                    voc_final,
                    ..
                },
                _,
            ) => {
                if voc_final > voc_initial {
                    return wrong(format!("VoC rose from {voc_initial} to {voc_final}"));
                }
                if !converged {
                    return failed("k-proc DFA stopped at its step cap".into());
                }
            }
            _ => return wrong("output of another workload".into()),
        }
        Ok(())
    }
}

/// Why an op did not pass its check.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// The op did not reach its goal: a search stopped at a safety cap,
    /// `beautify` stopped while a VoC-lowering push remained, or the
    /// executor needed recovery. It counts as failed; the run goes on.
    Failed(String),
    /// The program returned a wrong result; the command exits non-zero.
    Wrong(String),
}

/// A push from `part` that would strictly lower VoC, if any.
fn improving_push(part: &Partition) -> Option<(Proc, Direction, i64)> {
    Proc::PUSHABLE
        .into_iter()
        .flat_map(|p| Direction::ALL.into_iter().map(move |d| (p, d)))
        .find_map(|(p, d)| {
            let applied = try_push_any_type(&mut part.clone(), p, d)?;
            (applied.delta_voc_units < 0).then_some((p, d, applied.delta_voc_units))
        })
}

fn same_bits(x: &Matrix, y: &Matrix) -> bool {
    let n = x.n();
    n == y.n() && (0..n).all(|i| (0..n).all(|j| x.get(i, j).to_bits() == y.get(i, j).to_bits()))
}

/// Exact work counts of one op: from its output, plus the program's own
/// `obs::metrics()` counters when recording was on during the op.
pub fn counts(out: &Output) -> Counts {
    let mut c = Counts::new();
    let snap = obs::metrics().snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    let hist_sum = |name: &str| {
        snap.histograms
            .iter()
            .find(|h| h.name == name)
            .map_or(0, |h| h.sum)
    };
    use obs::metrics::names;
    c.insert(
        "grid.shrink.word_scans",
        counter(names::GRID_SHRINK_WORD_SCANS),
    );
    c.insert("grid.popcount.words", counter(names::GRID_POPCOUNT_WORDS));
    match out {
        Output::Census {
            converged,
            cycled,
            steps,
            neutral_steps,
            beautify_steps,
            fixed_point,
            archetype,
            ..
        } => {
            c.insert("push.steps", *steps);
            c.insert("push.unconverged", u64::from(!converged));
            c.insert("push.neutral_steps", *neutral_steps);
            c.insert("push.neutral_cycles", u64::from(*cycled));
            c.insert("push.beautify_steps", *beautify_steps);
            c.insert(
                "push.beautify_uncondensed",
                u64::from(!is_condensed(fixed_point)),
            );
            c.insert("push.probe.evals", counter(names::PUSH_PROBES));
            c.insert(
                "push.probe.cache_hits",
                counter(names::PUSH_PROBE_CACHE_HITS),
            );
            c.insert(
                "shapes.classified",
                u64::from(*archetype != Archetype::NonShape),
            );
        }
        Output::Rank {
            candidates, runs, ..
        } => {
            let per_algorithm = candidates * cost::Algorithm::ALL.len() as u64;
            c.insert("cost.models_evaluated", per_algorithm);
            c.insert("sim.runs", per_algorithm);
            c.insert("mmm.multiplies", runs.len() as u64);
            let sum = |f: fn(&ExecStats) -> u64| {
                runs.iter()
                    .filter_map(|r| r.result.as_ref().ok())
                    .map(|(_, stats)| f(stats))
                    .sum::<u64>()
            };
            c.insert("mmm.elems_sent", sum(ExecStats::total_sent));
            c.insert("mmm.updates", sum(ExecStats::total_updates));
            c.insert("mmm.messages", sum(ExecStats::total_messages));
            c.insert(
                "mmm.recv_retries",
                sum(|s| s.per_proc.iter().map(|p| p.recv_retries).sum()),
            );
            c.insert("mmm.recoveries", sum(|s| s.recovery.faults_detected));
            c.insert("mmm.recv_wait_ns", hist_sum(names::EXEC_RECV_WAIT_NANOS));
        }
        Output::NProc {
            converged, steps, ..
        } => {
            c.insert("nproc.steps", *steps);
            c.insert("nproc.unconverged", u64::from(!converged));
        }
    }
    c
}

/// Stable summary of an op's outcome for the work fingerprint.
pub fn outcome_label(out: &Output) -> String {
    match out {
        Output::Census { archetype, .. } => format!("{archetype:?}"),
        Output::Rank { ranking, .. } => ranking
            .iter()
            .map(|(ty, _)| format!("{ty:?}"))
            .collect::<Vec<_>>()
            .join(","),
        Output::NProc { voc_final, .. } => format!("voc={voc_final}"),
    }
}

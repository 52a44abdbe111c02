//! # Paper-to-API map
//!
//! A reading companion: every section, equation, theorem, figure and claim
//! of DeFlumere & Lastovetsky (HCW/IPDPS-W 2014) mapped to the item in
//! this workspace that implements, checks, or reproduces it.
//!
//! ## Section II — Related work & preliminaries
//!
//! | paper | here |
//! |-------|------|
//! | Hockney model `T = α + β·M` | [`hetmmm_cost::HockneyModel`] |
//! | kij algorithm (Fig. 1) | [`hetmmm_mmm::kij_serial`], [`hetmmm_mmm::multiply_partitioned`] |
//! | five MMM algorithms (SCB…PIO) | [`hetmmm_cost::Algorithm`] |
//! | two-processor Push & shapes (prior work \[8\]) | [`hetmmm_twoproc`] |
//! | two-processor Push illustration (Fig. 2) | `hetmmm_twoproc::run_two_proc_search` |
//!
//! ## Sections III–IV — Formalism
//!
//! | paper | here |
//! |-------|------|
//! | `q(i,j) ∈ {0,1,2}` encoding | [`hetmmm_partition::Proc`] (`R=0, S=1, P=2`) |
//! | speed ratio `P_r : R_r : S_r` | [`hetmmm_partition::Ratio`] |
//! | asymptotic rectangularity (Fig. 3) | [`hetmmm_shapes::RegionKind::AsymptRect`] |
//! | enclosing rectangles (Fig. 4) | [`hetmmm_partition::Partition::enclosing_rect`] |
//! | Eq. 1 volume of communication | [`hetmmm_partition::NPartition::voc`] |
//! | Push Types 1–6 (§IV-A) | [`hetmmm_push::PushType`], [`hetmmm_push::try_push`] |
//! | Eq. 2–3 SCB model | [`hetmmm_cost::evaluate`] with [`hetmmm_cost::Algorithm::Scb`] |
//! | Eq. 4–6 PCB model (`d_X`) | [`hetmmm_partition::ProcMetrics::send_elems`] + `Algorithm::Pcb` |
//! | Eq. 7 SCO model (`o_X`, `c_X`) | [`hetmmm_partition::ProcMetrics::local_updates`] + `Algorithm::Sco` |
//! | Eq. 8 PCO model | `Algorithm::Pco` |
//! | Eq. 9 PIO model | `Algorithm::Pio`; blocked variant [`hetmmm_cost::evaluate_pio_blocked`] |
//!
//! ## Sections V–VI — The DFA program
//!
//! | paper | here |
//! |-------|------|
//! | Postulate 1 | `tests/archetype_census.rs`, bench bin `fig5_archetype_census` |
//! | DFA 5-tuple | [`hetmmm_push::DfaRunner`] (states = partitions, Σ = [`hetmmm_push::PushPlan`], δ = [`hetmmm_push::try_push_any_type`]) |
//! | random `q0` (§VI-A-2) | [`hetmmm_partition::random_partition`] |
//! | randomized directions (§VI-A-1) | [`hetmmm_push::PushPlan::random`] |
//! | `find` / `findTypeOne` pseudocode | the select-and-match phases of [`hetmmm_push::try_push`] (see its module docs for the deliberate generalization) |
//! | end conditions (§VI-C) | [`hetmmm_push::is_condensed`], `DfaOutcome::converged` |
//!
//! ## Section VII — Experiments
//!
//! | paper | here |
//! |-------|------|
//! | N = 1000, 11 ratios, ~10k runs | [`crate::census`] / `fig5_archetype_census --n 1000 --runs 10000` |
//! | example run (Fig. 7) | bench bin `fig7_example_run` |
//! | archetypes A–D (Fig. 5) | [`hetmmm_shapes::Archetype`], [`hetmmm_shapes::classify`] |
//!
//! ## Section VIII — Analysis
//!
//! | paper | here |
//! |-------|------|
//! | corner taxonomy (§VIII-A, Fig. 8) | [`hetmmm_shapes::corner_count`] |
//! | Theorem 8.1 (translation invariance) | [`hetmmm_shapes::translate_combined`] |
//! | Theorems 8.2–8.4 (B/C/D → A) | [`hetmmm_shapes::reduce_to_archetype_a`], bench bin `thm8_reductions` |
//!
//! ## Section IX — Candidates
//!
//! | paper | here |
//! |-------|------|
//! | six candidate types (Fig. 10) | [`hetmmm_shapes::CandidateType`] |
//! | Theorem 9.1 (squares fit) | `hetmmm_shapes::candidates::square_corner_feasible`, [`hetmmm_shapes::square_corner_margin`] |
//! | Eq. 13 perimeter minimizer | [`hetmmm_shapes::rectangle_corner_split`] |
//! | canonical forms (Figs. 11–12) | `CandidateType::construct` |
//!
//! ## Section X — Comparison & validation
//!
//! | paper | here |
//! |-------|------|
//! | SCB cost surfaces (Fig. 13) | [`hetmmm_cost::scb_comm_norm`], bench bin `fig13_cost_surface` |
//! | all-six closed forms (the "full analysis" §X defers) | [`hetmmm_cost::scb_comm_norm_candidate`], bench bin `table_optimal_shapes` |
//! | star topology | [`hetmmm_cost::Topology::Star`] |
//! | Open-MPI testbed (Fig. 14) | [`hetmmm_sim::simulate`] (substitution documented in DESIGN.md §2), bench bin `fig14_comm_time` |
//! | ATLAS local multiply | [`hetmmm_mmm::multiply_partitioned`] |
//!
//! ## Section XI — Future work, built here
//!
//! | paper | here |
//! |-------|------|
//! | "four or more processors" | [`hetmmm_nproc`](https://docs.rs) (crate `hetmmm-nproc`), bench bin `nproc_search` |
//! | latency / topology / granularity influences | bench bin `ablation_sweeps` |

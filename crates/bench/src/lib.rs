//! Shared helpers for the CACE benchmark harnesses.
//!
//! Every bench in `benches/` regenerates one table or figure of the paper's
//! evaluation (§VII). The helpers here build the standard datasets and
//! trained engines so the individual harnesses stay focused on their
//! experiment. Absolute numbers differ from the paper (its substrate was a
//! physical testbed; ours is the simulator documented in `DESIGN.md`) — the
//! *shape* of each result is what the benches reproduce.
//!
//! Three benches answer serving questions instead, and assert their gates
//! where they measure them: `kernels` (the coupled decode kernels against
//! the naive per-edge reference timed in the same run, plus the beam and
//! lag sweeps), `router_scale` (capped == uncapped router decisions) and
//! `adaptation` (the adapted model beats the frozen one on drifted data).
//! No bench writes a file; fleet throughput on distinct homes is the
//! `fleetbench/` benchmark's to measure.
//!
//! See `ARCHITECTURE.md` for the full figure/table → bench mapping.
//!
//! ```no_run
//! use cace_bench::{cace_corpus, mean_accuracy, trained};
//! use cace_core::Strategy;
//!
//! let (train, test) = cace_corpus(1, 10, 250, 14000);
//! let engine = trained(&train, Strategy::CorrelationConstraint);
//! assert!(mean_accuracy(&engine, &test) > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cace_behavior::session::train_test_split;
use cace_behavior::{cace_grammar, generate_cace_dataset, Session, SessionConfig};
use cace_core::{CaceConfig, CaceEngine, Strategy};

/// Standard CACE-sim corpus: `sessions` recordings of `ticks` ticks in one
/// home, split 80/20.
pub fn cace_corpus(
    home: u32,
    sessions: usize,
    ticks: usize,
    seed: u64,
) -> (Vec<Session>, Vec<Session>) {
    let grammar = cace_grammar();
    let data = generate_cace_dataset(
        &grammar,
        1,
        sessions,
        &SessionConfig::standard().with_ticks(ticks).with_home(home),
        seed,
    );
    train_test_split(data, 0.8)
}

/// Trains an engine with the given strategy on the standard corpus.
pub fn trained(train: &[Session], strategy: Strategy) -> CaceEngine {
    CaceEngine::train(train, &CaceConfig::default().with_strategy(strategy))
        .expect("training succeeds on simulated data")
}

/// Mean tick-level accuracy of an engine over test sessions.
pub fn mean_accuracy(engine: &CaceEngine, test: &[Session]) -> f64 {
    let recognitions = engine.recognize_batch(test).expect("recognition succeeds");
    let acc: f64 = recognitions
        .iter()
        .zip(test)
        .map(|(rec, session)| rec.accuracy(session))
        .sum();
    acc / test.len().max(1) as f64
}

/// Prints a section header for the table output.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Nearest-rank percentile of an ascending-sorted sample (Hyndman–Fan
/// definition 1): the `p`-quantile is the `⌈p·N⌉`-th smallest sample,
/// clamped into the observed range. Unlike the rounded-index form this
/// always returns an *actual observed* value (never an interpolation)
/// and is exact at the conventional p50/p99 reporting points: for
/// N = 18 rounds, p99 is the maximum, not the second-largest.
///
/// # Panics
/// Panics on an empty sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

//! # cace-testkit
//!
//! Shared fixtures for the workspace's integration-test suites (and the
//! differential/bench harnesses): the simulated-corpus builders and
//! trained-engine constructors that used to be copy-pasted across the
//! files under `tests/`, plus the strict bit-identity assertion the
//! equivalence suites (`batch == sequential`, `parked == uninterrupted`,
//! `reloaded == trained`, `router == dedicated stream`) all share.
//!
//! Batch recognition *is* the stream run to the end, so "streamed ==
//! batch" would compare the decode loop with itself. The decode contracts are
//! instead held against references that share no decode-loop code: the naive
//! per-edge decoders in [`naive`] (exact or beam-restricted) and a
//! session-long `Lag::Fixed` stream — see
//! [`assert_recognition_matches_references`].
//!
//! Nothing here is clever — that is the point. A fixture duplicated per
//! test file drifts (each copy picks its own seeds, split ratios, and
//! assertion strictness); a fixture imported from one crate cannot.
//!
//! ```
//! use cace_core::Strategy;
//! use cace_testkit::{engine, tiny_corpus};
//!
//! let (train, test) = tiny_corpus(4, 60, 7);
//! let trained = engine(&train, Strategy::CorrelationConstraint);
//! let rec = trained.recognize(&test[0]).unwrap();
//! assert_eq!(rec.macros[0].len(), test[0].len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod naive;
pub mod oracle;
pub mod toy;

use cace_behavior::session::train_test_split;
use cace_behavior::{cace_grammar, generate_cace_dataset, Session, SessionConfig};
use cace_core::{
    stream_session, CaceConfig, CaceEngine, Lag, ParkedStream, Precision, Recognition, Strategy,
    StreamDecision,
};
use cace_hdbn::{HdbnConfig, HdbnParams, MicroCandidate, TickInput};
use cace_mining::constraint::{ConstraintMiner, LabeledSequence};

/// The standard integration-test corpus: `sessions` recordings of `ticks`
/// ticks under [`SessionConfig::tiny`], split 75/25 into (train, test).
///
/// Deterministic in `seed`; both halves are guaranteed non-empty by the
/// underlying split.
pub fn tiny_corpus(sessions: usize, ticks: usize, seed: u64) -> (Vec<Session>, Vec<Session>) {
    tiny_corpus_split(sessions, ticks, seed, 0.75)
}

/// [`tiny_corpus`] with an explicit train fraction.
pub fn tiny_corpus_split(
    sessions: usize,
    ticks: usize,
    seed: u64,
    train_fraction: f64,
) -> (Vec<Session>, Vec<Session>) {
    let data = generate_cace_dataset(
        &cace_grammar(),
        1,
        sessions,
        &SessionConfig::tiny().with_ticks(ticks),
        seed,
    );
    train_test_split(data, train_fraction)
}

/// Trains an engine with the default configuration under `strategy`.
///
/// # Panics
/// Panics if training fails — the simulated corpora are constructed so it
/// cannot, and a fixture that fails to build should abort the test loudly.
pub fn engine(train: &[Session], strategy: Strategy) -> CaceEngine {
    engine_with(train, &CaceConfig::default().with_strategy(strategy))
}

/// Trains an engine with an explicit configuration.
///
/// Honors the `CACE_FAST32=1` environment gate: when set, the decoder's
/// scoring precision is flipped to [`Precision::Fast32`] before training,
/// so the whole integration suite can be swept through the `f32` lane
/// without touching any test (CI runs the sweep as a separate job; the
/// exact-lane bit-identity suites that compare against naive `f64`
/// references are skipped there by name).
///
/// # Panics
/// Panics if training fails (see [`engine`]).
pub fn engine_with(train: &[Session], config: &CaceConfig) -> CaceEngine {
    let mut config = config.clone();
    if std::env::var("CACE_FAST32").is_ok_and(|v| v == "1") {
        config.decoder.precision = Precision::Fast32;
    }
    CaceEngine::train(train, &config).expect("testkit: training succeeds on simulated data")
}

/// Fraction of per-tick macro decisions on which two recognitions agree,
/// pooled over both users — the per-tick half of the f32-vs-f64 tolerance
/// harness.
///
/// # Panics
/// Panics if the two recognitions decode different tick counts.
pub fn tick_agreement(a: &Recognition, b: &Recognition) -> f64 {
    let mut total = 0usize;
    let mut agree = 0usize;
    for u in 0..2 {
        assert_eq!(
            a.macros[u].len(),
            b.macros[u].len(),
            "tick_agreement: user {u} path lengths differ"
        );
        total += a.macros[u].len();
        agree += a.macros[u]
            .iter()
            .zip(&b.macros[u])
            .filter(|(x, y)| x == y)
            .count();
    }
    if total == 0 {
        1.0
    } else {
        agree as f64 / total as f64
    }
}

/// Macro-averaged per-class accuracy of decoded macros against ground
/// truth, pooled over both users: mean over classes (that occur in the
/// truth) of `correct / occurrences` — the paper's fig. 9 metric, shared
/// by the bench harness and the tolerance tests.
pub fn macro_accuracy(truth: &[[Vec<usize>; 2]], decoded: &[[Vec<usize>; 2]]) -> f64 {
    let mut correct = std::collections::HashMap::new();
    let mut total = std::collections::HashMap::new();
    for (t, d) in truth.iter().zip(decoded) {
        for u in 0..2 {
            for (&gt, &got) in t[u].iter().zip(&d[u]) {
                *total.entry(gt).or_insert(0u64) += 1;
                if gt == got {
                    *correct.entry(gt).or_insert(0u64) += 1;
                }
            }
        }
    }
    if total.is_empty() {
        return 0.0;
    }
    let sum: f64 = total
        .iter()
        .map(|(class, &n)| correct.get(class).copied().unwrap_or(0) as f64 / n as f64)
        .sum();
    sum / total.len() as f64
}

/// Asserts the f32-lane tolerance contract between an exact (`f64`) and a
/// fast (`f32`) recognition run over the same sessions: per-tick macro
/// agreement ≥ `min_agreement` (pooled over ticks and users) and
/// macro-averaged accuracy within `max_accuracy_gap` of the exact lane.
///
/// # Panics
/// Panics with `label` if either bound is violated.
pub fn assert_lane_tolerance(
    truth: &[[Vec<usize>; 2]],
    exact: &[Recognition],
    fast: &[Recognition],
    min_agreement: f64,
    max_accuracy_gap: f64,
    label: &str,
) {
    assert_eq!(exact.len(), fast.len(), "{label}: session counts");
    let mut agree_num = 0.0;
    let mut agree_den = 0.0;
    for (e, f) in exact.iter().zip(fast) {
        let ticks = (e.macros[0].len() + e.macros[1].len()) as f64;
        agree_num += tick_agreement(e, f) * ticks;
        agree_den += ticks;
    }
    let agreement = if agree_den > 0.0 {
        agree_num / agree_den
    } else {
        1.0
    };
    assert!(
        agreement >= min_agreement,
        "{label}: per-tick agreement {agreement:.4} < {min_agreement}"
    );
    let exact_paths: Vec<[Vec<usize>; 2]> = exact.iter().map(|r| r.macros.clone()).collect();
    let fast_paths: Vec<[Vec<usize>; 2]> = fast.iter().map(|r| r.macros.clone()).collect();
    let acc_exact = macro_accuracy(truth, &exact_paths);
    let acc_fast = macro_accuracy(truth, &fast_paths);
    assert!(
        (acc_exact - acc_fast).abs() <= max_accuracy_gap,
        "{label}: macro accuracy f64 {acc_exact:.4} vs f32 {acc_fast:.4} \
         differs by more than {max_accuracy_gap}"
    );
}

/// Asserts two recognitions are bit-identical in every deterministic
/// field: decoded macros, both overhead counters, rule firings, and the
/// exact bits of `mean_joint_size` (only wall-clock may differ).
///
/// This is the shared contract of the equivalence suites; `label` names
/// the failing configuration in the panic message.
///
/// # Panics
/// Panics with `label` on the first differing field.
pub fn assert_recognitions_identical(actual: &Recognition, expected: &Recognition, label: &str) {
    assert_eq!(actual.macros, expected.macros, "{label}: macros");
    assert_eq!(
        actual.states_explored, expected.states_explored,
        "{label}: states_explored"
    );
    assert_eq!(
        actual.transition_ops, expected.transition_ops,
        "{label}: transition_ops"
    );
    assert_eq!(
        actual.rules_fired, expected.rules_fired,
        "{label}: rules_fired"
    );
    assert_eq!(
        actual.mean_joint_size.to_bits(),
        expected.mean_joint_size.to_bits(),
        "{label}: mean_joint_size"
    );
}

/// Asserts `rec` — `engine`'s recognition of the whole `session` at
/// [`Lag::Unbounded`] (e.g. [`CaceEngine::recognize`], possibly with park
/// cycles in between) — against two independent references:
///
/// * a stream at `Lag::Fixed(session.len())`, which runs the fixed-lag
///   window bookkeeping instead of the unbounded one: every deterministic
///   field must match bit for bit ([`assert_recognitions_identical`]);
/// * the naive per-edge decoders in [`naive`] over the engine's own
///   [`tick_inputs`](CaceEngine::tick_inputs), restricted to the engine's
///   decoder beam: decoded macros and both overhead counters must match
///   (C2/NCS coupled, NCR per chain with the `|S|²`-per-tick input-size
///   convention when the beam can never prune). NH's flat reference reads
///   crate-private tables and lives in `cace-core`'s `nh` unit tests.
///
/// # Panics
/// Panics with `label` on any mismatch, or if the engine decodes in the
/// `f32` lane (the naive references are exact-lane `f64`).
pub fn assert_recognition_matches_references(
    engine: &CaceEngine,
    session: &Session,
    rec: &Recognition,
    label: &str,
) {
    let (decisions, fixed) = stream_session(engine, session, Lag::Fixed(session.len()))
        .expect("testkit: session-long fixed-lag stream");
    assert!(decisions.is_empty(), "{label}: lag >= len never emits");
    assert_recognitions_identical(rec, &fixed, &format!("{label} vs Lag::Fixed(len)"));

    let decoder = engine.config().decoder;
    assert_eq!(
        decoder.precision,
        Precision::Exact64,
        "{label}: the naive references are exact-lane"
    );
    let inputs = engine.tick_inputs(session);
    let params = engine.hdbn_params().as_ref();
    match engine.config().strategy {
        Strategy::NaiveConstraint | Strategy::CorrelationConstraint => {
            let want = naive::naive_coupled_viterbi(params, &inputs, decoder.beam);
            assert_eq!(rec.macros, want.macros, "{label}: naive macros");
            assert_eq!(
                rec.states_explored, want.states_explored,
                "{label}: naive states_explored"
            );
            assert_eq!(
                rec.transition_ops, want.transition_ops,
                "{label}: naive transition_ops"
            );
        }
        Strategy::NaiveCorrelation => {
            let want =
                [0, 1].map(|u| naive::naive_single_viterbi(params, &inputs, u, decoder.beam));
            for (u, path) in want.iter().enumerate() {
                assert_eq!(rec.macros[u], path.macros, "{label}: naive macros user {u}");
            }
            assert_eq!(
                rec.states_explored,
                want[0].states_explored + want[1].states_explored,
                "{label}: naive states_explored"
            );
            let ops = if decoder.beam.never_prunes(engine.frontier_bound()) {
                let side = |t: &TickInput| (t.joint_states(engine.n_macro()) as f64).sqrt() as u64;
                2 * inputs
                    .windows(2)
                    .map(|w| side(&w[0]) * side(&w[1]))
                    .sum::<u64>()
            } else {
                want[0].transition_ops + want[1].transition_ops
            };
            assert_eq!(rec.transition_ops, ops, "{label}: naive transition_ops");
        }
        Strategy::NaiveHmm => {}
    }
}

/// Drives a session through a streaming recognizer, interrupting it with
/// a full park → serialize → reload → resume cycle *before pushing* every
/// tick index listed in `park_at` (an index equal to the session length
/// parks once more right before `finish`). An empty `park_at` behaves
/// exactly like [`cace_core::stream_session`].
///
/// The parked state travels through its versioned snapshot **string** —
/// the byte form the serving tier stores for an evicted home — not just
/// the in-memory struct, so every listed position also exercises the
/// serialization layer.
///
/// # Panics
/// Panics if any push, park round-trip, resume, or finalization fails —
/// the park/resume equivalence suites want those failures loud.
pub fn stream_session_with_parks(
    engine: &CaceEngine,
    session: &Session,
    lag: Lag,
    park_at: &[usize],
) -> (Vec<StreamDecision>, Recognition) {
    let park_cycle = |stream: &cace_core::StreamingRecognizer<'_>| {
        let bytes = stream.park().to_snapshot_string();
        let parked = ParkedStream::from_snapshot_str(&bytes).expect("testkit: parked bytes reload");
        engine
            .resume(&parked)
            .expect("testkit: parked stream resumes")
    };
    let mut stream = engine.stream(lag);
    let mut decisions = Vec::new();
    for (t, tick) in session.ticks.iter().enumerate() {
        if park_at.contains(&t) {
            stream = park_cycle(&stream);
        }
        if let Some(d) = stream.push(&tick.observed).expect("testkit: stream push") {
            decisions.push(d);
        }
    }
    if park_at.contains(&session.len()) {
        stream = park_cycle(&stream);
    }
    let recognition = stream.finish().expect("testkit: stream finish");
    (decisions, recognition)
}

/// Toy HDBN parameters over a two-activity world where activity `k` pairs
/// with posture `k` and location `k`, both residents synchronized in runs
/// of 10 ticks — the standard decoder-level fixture (mirrors the in-crate
/// fixtures of `cace-hdbn`'s unit tests, exported here for the
/// cross-crate differential suites).
pub fn toy_two_activity_params(coupled: bool) -> HdbnParams {
    let mut macros = Vec::new();
    for run in 0..40 {
        for _ in 0..10 {
            macros.push(run % 2);
        }
    }
    let n = macros.len();
    let seq = LabeledSequence {
        macros: [macros.clone(), macros.clone()],
        posturals: [macros.clone(), macros.clone()],
        gesturals: [vec![0; n], vec![0; n]],
        locations: [macros.clone(), macros],
    };
    let stats = ConstraintMiner {
        laplace: 0.1,
        n_macro: 2,
        n_postural: 2,
        n_gestural: 2,
        n_location: 2,
    }
    .mine(&[seq])
    .expect("testkit: toy stats mine");
    let config = if coupled {
        HdbnConfig::default()
    } else {
        HdbnConfig::uncoupled()
    };
    HdbnParams::new(stats, config).expect("testkit: toy params build")
}

/// A decoder tick whose observations favor micro state `fav` for both
/// users by `strength` log-odds (companion of
/// [`toy_two_activity_params`]).
pub fn toy_obs_tick(fav: usize, strength: f64) -> TickInput {
    let cands = |fav: usize| -> Vec<MicroCandidate> {
        (0..2)
            .map(|p| MicroCandidate {
                postural: p,
                gestural: Some(0),
                location: p,
                obs_loglik: if p == fav { 0.0 } else { -strength },
            })
            .collect()
    };
    TickInput {
        candidates: [cands(fav), cands(fav)],
        macro_candidates: [None, None],
        macro_bonus: Vec::new(),
    }
}

/// A mildly adversarial tick stream over the toy world: activity switches
/// at the midpoint, with periodic weak and contradictory observations so
/// decoders must actually smooth.
pub fn toy_glitchy_ticks(len: usize) -> Vec<TickInput> {
    (0..len)
        .map(|t| {
            let m = usize::from(t >= len / 2);
            let strength = if t % 7 == 3 { 0.4 } else { 3.0 };
            toy_obs_tick(if t % 11 == 5 { 1 - m } else { m }, strength)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_and_split() {
        let (train_a, test_a) = tiny_corpus(4, 40, 9);
        let (train_b, test_b) = tiny_corpus(4, 40, 9);
        assert_eq!(train_a.len(), train_b.len());
        assert_eq!(test_a.len(), test_b.len());
        assert!(!train_a.is_empty() && !test_a.is_empty());
        assert_eq!(train_a[0].len(), 40);
    }

    #[test]
    fn identical_recognitions_pass_the_assertion() {
        let (train, test) = tiny_corpus(3, 50, 10);
        let e = engine(&train, Strategy::CorrelationConstraint);
        let a = e.recognize(&test[0]).unwrap();
        let b = e.recognize(&test[0]).unwrap();
        assert_recognitions_identical(&a, &b, "self");
    }

    #[test]
    #[should_panic(expected = "differs: macros")]
    fn differing_recognitions_fail_the_assertion() {
        let (train, test) = tiny_corpus(3, 50, 10);
        let e = engine(&train, Strategy::CorrelationConstraint);
        let a = e.recognize(&test[0]).unwrap();
        let mut b = a.clone();
        b.macros[0][0] = (b.macros[0][0] + 1) % e.n_macro();
        assert_recognitions_identical(&a, &b, "differs");
    }

    #[test]
    fn toy_world_decodes() {
        use cace_hdbn::CoupledHdbn;
        let model = CoupledHdbn::new(toy_two_activity_params(true));
        let path = model.viterbi(&toy_glitchy_ticks(30)).unwrap();
        assert_eq!(path.macros[0].len(), 30);
    }
}

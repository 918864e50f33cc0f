//! **adaptation** — the PR 9 headline: online adaptation under concept
//! drift. A fleet is trained on the original CACE grammar, then served
//! drifted-household streams ([`drifted_cace_grammar`]: meals on the
//! couch, standing TV, reordered evenings). Two deployments are compared
//! on held-out drifted sessions:
//!
//! * **frozen** — the as-trained snapshot keeps serving unchanged;
//! * **adapted** — live streams buffer drift windows, the router pools
//!   them into a [`DriftAccumulator`] E-step, a background MAP M-step
//!   publishes a new generation, and the fleet hot-swaps it at decision
//!   boundaries (twice: mid-stream and end-of-stream).
//!
//! The acceptance gate is asserted where it is measured: the adapted
//! generation must recover macro accuracy over the frozen snapshot on
//! the drifted eval set. The printed table carries the frozen/adapted
//! accuracies and the re-estimation cost per captured tick;
//! `adaptation/reestimate_step` prices the background M-step itself.
//! CI's `--quick` smoke re-runs the scenario on the same workload and
//! re-asserts the gate.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cace_behavior::session::train_test_split;
use cace_behavior::{
    cace_grammar, drifted_cace_grammar, generate_cace_dataset, ObservedTick, Session, SessionConfig,
};
use cace_bench::header;
use cace_core::{
    stream_shared, AdaptationPolicy, CaceConfig, CaceEngine, Lag, ModelRecord, ShardedRouter,
};
use cace_hdbn::{DriftAccumulator, SingleHdbn};
use criterion::{criterion_group, criterion_main, Criterion};

const MODEL: &str = "cace";
const POLICY: AdaptationPolicy = AdaptationPolicy {
    window_ticks: 25,
    min_windows: 4,
    laplace: 0.5,
};

fn mean_accuracy(engine: &CaceEngine, sessions: &[Session]) -> f64 {
    let mut acc = 0.0;
    for session in sessions {
        acc += engine
            .recognize(session)
            .expect("eval session decodes")
            .accuracy(session);
    }
    100.0 * acc / sessions.len().max(1) as f64
}

struct DriftRun {
    frozen_pct: f64,
    adapted_pct: f64,
    generation: usize,
    live_swaps: u64,
    adapt_seconds: f64,
    captured_ticks: u64,
}

/// Trains on the clean grammar, streams `adapt_sessions` drifted homes
/// through an adapting router (publish + hot-swap at half-time, publish
/// again at end-of-stream), and scores frozen vs final-generation
/// accuracy on held-out drifted sessions.
fn run_drift_scenario(adapt_homes: usize, ticks: usize) -> DriftRun {
    let clean = cace_grammar();
    let drifted = drifted_cace_grammar();
    let train_sessions =
        generate_cace_dataset(&clean, 1, 4, &SessionConfig::standard().with_ticks(180), 77);
    let (train, _) = train_test_split(train_sessions, 0.99);
    let engine = Arc::new(
        CaceEngine::train(&train, &CaceConfig::default()).expect("clean-grammar training"),
    );
    let adapt_sessions = generate_cace_dataset(
        &drifted,
        1,
        adapt_homes,
        &SessionConfig::standard().with_ticks(ticks),
        79,
    );
    let eval_sessions = generate_cace_dataset(
        &drifted,
        1,
        2,
        &SessionConfig::standard().with_ticks(ticks),
        80,
    );

    let frozen_pct = mean_accuracy(&engine, &eval_sessions);

    let mut router = ShardedRouter::new();
    router
        .register_model(MODEL, Arc::clone(&engine))
        .expect("fresh registry");
    router
        .enable_adaptation(MODEL, POLICY)
        .expect("valid policy");
    for id in 0..adapt_sessions.len() as u64 {
        router
            .add_home(id, MODEL, Lag::Fixed(5))
            .expect("distinct ids");
    }
    let rounds = adapt_sessions.iter().map(Session::len).max().unwrap_or(0);
    let mut captured_ticks = 0u64;
    let mut push_range = |router: &mut ShardedRouter, from: usize, to: usize| {
        for t in from..to {
            let round: Vec<(u64, &ObservedTick)> = adapt_sessions
                .iter()
                .enumerate()
                .filter_map(|(id, s)| s.ticks.get(t).map(|tick| (id as u64, &tick.observed)))
                .collect();
            captured_ticks += round.len() as u64;
            black_box(router.push_round(black_box(&round)).expect("drifted fleet"));
        }
    };

    push_range(&mut router, 0, rounds / 2);
    let t0 = Instant::now();
    router
        .adapt_model(MODEL)
        .expect("re-estimation succeeds")
        .expect("half the drifted day exceeds min_windows");
    let mut adapt_seconds = t0.elapsed().as_secs_f64();
    push_range(&mut router, rounds / 2, rounds);
    let t0 = Instant::now();
    let generation = router
        .adapt_model(MODEL)
        .expect("re-estimation succeeds")
        .expect("the second half-day exceeds min_windows again");
    adapt_seconds += t0.elapsed().as_secs_f64();

    let live_swaps = router.stats().swaps();
    let record = ModelRecord::from_snapshot_str(
        &router
            .export_model(MODEL, generation)
            .expect("published generation exports"),
    )
    .expect("model record parses");
    let adapted_pct = mean_accuracy(&record.engine, &eval_sessions);
    for (_, result) in router.finish() {
        result.expect("drained fleet");
    }

    DriftRun {
        frozen_pct,
        adapted_pct,
        generation,
        live_swaps,
        adapt_seconds,
        captured_ticks,
    }
}

fn bench(c: &mut Criterion) {
    let quick = std::env::args().any(|a| a == "--quick");
    // The gate is a model-quality claim, not a throughput claim — the
    // quick smoke runs the identical workload so CI asserts the same
    // recovery CI's full run does.
    let _ = quick;
    let run = run_drift_scenario(4, 150);

    header("adaptation — concept drift: frozen snapshot vs adapting fleet");
    println!(
        "{:<34} {:>10}",
        "frozen snapshot (drifted eval)",
        format!("{:.1}%", run.frozen_pct)
    );
    println!(
        "{:<34} {:>10}   generation {}, {} live hot swap(s), {:.0} ms re-estimation",
        "adapted fleet (drifted eval)",
        format!("{:.1}%", run.adapted_pct),
        run.generation,
        run.live_swaps,
        run.adapt_seconds * 1e3,
    );

    // The acceptance gate: adaptation must actually recover accuracy.
    assert!(
        run.adapted_pct > run.frozen_pct,
        "adapted generation ({:.1}%) must beat the frozen snapshot ({:.1}%) on drifted data",
        run.adapted_pct,
        run.frozen_pct
    );
    assert!(
        run.live_swaps > 0,
        "the mid-stream publish must hot-swap live homes"
    );
    assert!(
        run.generation >= 2,
        "both publishes must land as generations"
    );

    println!(
        "recovered {:+.1} pp; re-estimation costs {:.0} ns per captured tick",
        run.adapted_pct - run.frozen_pct,
        run.adapt_seconds / run.captured_ticks.max(1) as f64 * 1e9,
    );

    // Criterion target pricing the background M-step alone: drift windows
    // captured from a live stream, pooled once, re-estimated into fresh
    // tables per iteration.
    let (train, test) = {
        let sessions = generate_cace_dataset(
            &cace_grammar(),
            1,
            4,
            &SessionConfig::tiny().with_ticks(80),
            31,
        );
        train_test_split(sessions, 0.75)
    };
    let engine =
        Arc::new(CaceEngine::train(&train, &CaceConfig::default()).expect("tiny-corpus training"));
    let params = Arc::clone(engine.hdbn_params());
    let model = SingleHdbn::from_shared(Arc::clone(&params)).with_decoder(engine.config().decoder);
    let mut stream = stream_shared(&engine, Lag::Fixed(5));
    stream.capture_drift(POLICY.window_ticks);
    for session in &test {
        for tick in &session.ticks {
            stream.push(&tick.observed).expect("stream advances");
        }
    }
    let mut acc = DriftAccumulator::new(&params);
    for window in stream.take_drift_windows() {
        acc.observe(&model, &window).expect("window observes");
    }
    assert!(acc.windows() > 0, "the timed M-step needs pooled evidence");
    c.bench_function("adaptation/reestimate_step", |b| {
        b.iter(|| {
            black_box(
                acc.reestimate(black_box(&params), 0.5)
                    .expect("valid tables"),
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);

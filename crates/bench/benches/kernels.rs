//! **Kernels** — the coupled decode kernels against the naive per-edge
//! reference, timed in the same run, plus the beam and lag sweeps.
//!
//! Three parts:
//!
//! 1. **CACE simulator sweeps.** One corpus trains NH/NCR/NCS/C2 engines.
//!    The beam sweep prints accuracy, transition work and wall time per
//!    strategy and beam width. The lag sweep streams the C2 engine at
//!    lags 0–20 and unbounded, and asserts that the unbounded stream
//!    equals batch recognition.
//! 2. **fig9 (CASAS-style) C2 kernels.** One engine, trained once on
//!    `CasasConfig { pairs: 4, sessions_per_pair: 2, ticks: 200 }` with
//!    seed 9002. Each repeat times one pass of every row in turn: the
//!    naive decoder (`cace_testkit::naive::naive_coupled_viterbi`), the
//!    f64 and f32 batch decodes, and a warmed `Lag::Fixed(10)` push per
//!    beam. Each row keeps its best pass. Every latency gate is a ratio
//!    against the naive row of the same run, so it holds on any host.
//! 3. **Criterion targets** for the warmed pushes.
//!
//! Asserted gates, each `naive ns/tick ÷ row ns/tick` (full / `--quick`):
//!
//! | row | full | quick |
//! |---|---|---|
//! | f32 batch decode | ≥ 21.66× | ≥ 13.53× |
//! | exact push | ≥ 13.10× | ≥ 3.44× |
//! | `TopK(56)` push | ≥ 17.27× | ≥ 4.53× |
//!
//! The bounds are the frozen per-tick latency records these kernels were
//! once gated against, re-expressed against the naive reference measured
//! on the same workload: 5% over the generic trellis engine's
//! pre-refactor kernels in full mode, 4× over them in quick mode, and 2×
//! the exact kernel the f32 lane was specified against (itself 6.765×
//! naive) in both modes.
//!
//! Also asserted: the table decode equals the naive decode bit for bit;
//! the f32 batch decode is faster than the f64 one; the f32 lane agrees
//! with f64 on ≥ 99% of per-tick decisions and stays within 0.1 pp of
//! its macro accuracy; a pruned push is never slower than the exact one;
//! and a warmed push at `Exact` and `TopK(56)` makes 0 heap allocations.
//! `TopK(56)` is the beam that holds C2 accuracy within 1 pp of exact
//! here; a wide beam such as `TopK(bound/4)` is slower than exact,
//! because the pruned kernel cannot use the dense kernel's run-max memo.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cace_behavior::session::train_test_split;
use cace_behavior::{generate_casas_dataset, CasasConfig, Session};
use cace_bench::{cace_corpus, header, trained};
use cace_core::{stream_session, CaceEngine, DecoderConfig, Recognition, Strategy};
use cace_hdbn::{Beam, CoupledHdbn, Lag, OnlineCoupledViterbi, TickInput};
use cace_testkit::naive::naive_coupled_viterbi;
use cace_testkit::{macro_accuracy, tick_agreement};
use criterion::{criterion_group, criterion_main, Criterion};

// ---------------------------------------------------------------------
// Allocation counting (benches run single-threaded, atomics suffice).
// ---------------------------------------------------------------------

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

struct CountingAlloc;

impl CountingAlloc {
    fn record() {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s contract holds; counting touches only a relaxed statistic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    f();
    COUNTING.store(false, Ordering::Relaxed);
    ALLOCS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Workload constants and gates.
// ---------------------------------------------------------------------

/// The fixed lag of every timed push.
const LAG: Lag = Lag::Fixed(10);
/// The pruning beam the latency gates name.
const TOPK: usize = 56;
/// Beam-sweep widths, as divisors of the strategy's frontier bound.
const DIVISORS: [usize; 4] = [4, 16, 64, 256];

/// Latency gates on `naive ns/tick ÷ row ns/tick`: (row, full-mode
/// bound, `--quick` bound).
const GATES: [(&str, f64, f64); 3] = [
    ("f32 batch decode", 21.66, 13.53),
    ("exact push", 13.10, 3.44),
    ("TopK(56) push", 17.27, 4.53),
];

/// Wall time of `f` in nanoseconds per tick of a `ticks`-long pass.
fn ns_per_tick(ticks: usize, f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e9 / ticks as f64
}

fn push_pass(online: &mut OnlineCoupledViterbi, inputs: &[TickInput]) {
    for tick in inputs {
        black_box(online.push(black_box(tick)).expect("push"));
    }
}

fn recognize_all(engine: &CaceEngine, sessions: &[Session]) -> Vec<Recognition> {
    sessions
        .iter()
        .map(|s| engine.recognize(s).expect("recognition succeeds"))
        .collect()
}

/// Macro-averaged accuracy of `recs` against the sessions' labels.
fn accuracy(sessions: &[Session], recs: &[Recognition]) -> f64 {
    let truth: Vec<[Vec<usize>; 2]> = sessions
        .iter()
        .map(|s| [s.labels_of(0), s.labels_of(1)])
        .collect();
    let paths: Vec<[Vec<usize>; 2]> = recs.iter().map(|r| r.macros.clone()).collect();
    macro_accuracy(&truth, &paths)
}

// ---------------------------------------------------------------------
// Part 1: beam and lag sweeps on the CACE simulator.
// ---------------------------------------------------------------------

/// Mean accuracy, total recognize wall time and transition work.
fn measure(engine: &CaceEngine, test: &[Session]) -> (f64, f64, u64) {
    let (mut acc, mut wall, mut ops) = (0.0, 0.0, 0u64);
    for (rec, session) in recognize_all(engine, test).iter().zip(test) {
        acc += rec.accuracy(session);
        wall += rec.wall_seconds;
        ops += rec.transition_ops;
    }
    (acc / test.len().max(1) as f64, wall, ops)
}

fn cace_sim_sweeps() {
    let (train, test) = cace_corpus(1, 8, 200, 14003);
    let engines: Vec<(Strategy, CaceEngine)> = Strategy::ALL
        .into_iter()
        .map(|s| (s, trained(&train, s)))
        .collect();

    header("Beam sweep — NH/NCR/NCS/C2 on the CACE simulator");
    println!(
        "{:<6} {:>12} {:>9} {:>8} {:>14} {:>10} {:>9}",
        "strat", "beam", "acc", "Δacc", "trans ops", "wall (s)", "speedup"
    );
    for (strategy, exact_engine) in &engines {
        let bound = exact_engine.frontier_bound();
        let widths = DIVISORS.iter().map(|d| Some((bound / d).max(1)));
        let mut exact = None;
        for k in std::iter::once(None).chain(widths) {
            let (beam, engine) = match k {
                None => ("exact".to_string(), exact_engine.clone()),
                Some(k) => (
                    format!("TopK({k})"),
                    exact_engine.with_decoder(DecoderConfig::top_k(k)),
                ),
            };
            let (acc, wall, ops) = measure(&engine, &test);
            let (exact_acc, exact_wall) = *exact.get_or_insert((acc, wall));
            println!(
                "{:<6} {beam:>12} {:>8.1}% {:>+7.1}pp {ops:>14} {wall:>10.3} {:>8.2}x",
                strategy.label(),
                100.0 * acc,
                100.0 * (acc - exact_acc),
                exact_wall / wall.max(1e-12)
            );
        }
    }

    // Fig 12's streaming companion: accuracy climbs with the smoothing
    // lag and reaches the batch decode; the unbounded stream *is* it.
    let (_, c2) = engines
        .iter()
        .find(|(s, _)| *s == Strategy::CorrelationConstraint)
        .expect("C2 is swept");
    let session = &test[0];
    let batch = c2.recognize(session).expect("batch recognition");
    let batch_acc = batch.accuracy(session);
    header("Lag sweep — C2 streaming recognition on the CACE simulator");
    println!(
        "{:<12} {:>10} {:>12} {:>14}",
        "lag", "acc", "vs batch", "decisions"
    );
    for lag in [
        Lag::Fixed(0),
        Lag::Fixed(2),
        Lag::Fixed(5),
        Lag::Fixed(10),
        Lag::Fixed(20),
        Lag::Unbounded,
    ] {
        let (decisions, rec) = stream_session(c2, session, lag).expect("stream");
        let acc = rec.accuracy(session);
        let label = match lag {
            Lag::Fixed(l) => l.to_string(),
            Lag::Unbounded => "unbounded".into(),
        };
        println!(
            "{label:<12} {:>9.1}% {:>+11.3} {:>14}",
            100.0 * acc,
            acc - batch_acc,
            decisions.len()
        );
        if lag.is_unbounded() {
            assert_eq!(
                rec.macros, batch.macros,
                "unbounded stream must equal batch"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Part 2: fig9 C2 kernels against the same-run naive reference.
// ---------------------------------------------------------------------

fn bench(c: &mut Criterion) {
    let quick = std::env::args().any(|a| a == "--quick");
    let repeats = if quick { 5 } else { 7 };

    cace_sim_sweeps();

    let cfg = CasasConfig {
        pairs: 4,
        sessions_per_pair: 2,
        ticks: 200,
        ..CasasConfig::default()
    };
    let (train, test) = train_test_split(generate_casas_dataset(&cfg, 9002), 0.8);
    let engine = trained(&train, Strategy::CorrelationConstraint);
    let bound = engine.frontier_bound();
    let inputs: Vec<TickInput> = engine.tick_inputs(&test[0]);
    let n_ticks = inputs.len();
    let params = Arc::clone(engine.hdbn_params());
    black_box(params.tables_f32()); // one-time mirror build, off the clock

    let decoder =
        |config: DecoderConfig| CoupledHdbn::from_shared(Arc::clone(&params)).with_decoder(config);
    let exact_decoder = decoder(DecoderConfig::exact());
    let fast_decoder = decoder(DecoderConfig::exact().fast32());
    let table_path = exact_decoder.viterbi(&inputs).expect("table decode");
    let naive_path = naive_coupled_viterbi(&params, &inputs, Beam::Exact);
    assert_eq!(table_path, naive_path, "table decode must equal naive");
    assert_eq!(table_path.log_prob.to_bits(), naive_path.log_prob.to_bits());

    // Push rows: exact, the beam sweep's widths, the gated TopK(56), and
    // the f32 lane at the exact beam.
    let mut widths: Vec<usize> = DIVISORS.iter().map(|d| (bound / d).max(1)).collect();
    if !widths.contains(&TOPK) {
        widths.push(TOPK);
    }
    let mut beams: Vec<(String, DecoderConfig)> = vec![("exact".into(), DecoderConfig::exact())];
    beams.extend(
        widths
            .iter()
            .map(|&k| (format!("TopK({k})"), DecoderConfig::top_k(k))),
    );
    beams.push(("f32 exact".into(), DecoderConfig::exact().fast32()));
    let mut streams: Vec<OnlineCoupledViterbi> = beams
        .iter()
        .map(|(_, config)| {
            let mut online = OnlineCoupledViterbi::new(decoder(*config), LAG);
            online.reserve_ticks((repeats + 3) * n_ticks);
            push_pass(&mut online, &inputs);
            online
        })
        .collect();

    // Interleaved best-of-`repeats`: rows 0–2 are the batch decodes, the
    // rest one per push stream.
    let mut best = vec![f64::INFINITY; 3 + streams.len()];
    for _ in 0..repeats {
        let mut times = vec![
            ns_per_tick(n_ticks, || {
                black_box(naive_coupled_viterbi(
                    &params,
                    black_box(&inputs),
                    Beam::Exact,
                ));
            }),
            ns_per_tick(n_ticks, || {
                black_box(exact_decoder.viterbi(black_box(&inputs)).expect("decode"));
            }),
            ns_per_tick(n_ticks, || {
                black_box(fast_decoder.viterbi(black_box(&inputs)).expect("decode"));
            }),
        ];
        for online in &mut streams {
            times.push(ns_per_tick(n_ticks, || push_pass(online, &inputs)));
        }
        for (b, t) in best.iter_mut().zip(times) {
            *b = b.min(t);
        }
    }
    let allocs_per_tick: Vec<f64> = streams
        .iter_mut()
        .map(|online| count_allocs(|| push_pass(online, &inputs)) as f64 / n_ticks as f64)
        .collect();

    // Accuracy per push row on the whole test split (row 0 is exact).
    let recs: Vec<Vec<Recognition>> = beams
        .iter()
        .map(|(_, config)| recognize_all(&engine.with_decoder(*config), &test))
        .collect();
    let accs: Vec<f64> = recs.iter().map(|r| accuracy(&test, r)).collect();
    let (exact_acc, f32_acc) = (accs[0], accs[accs.len() - 1]);

    let naive_ns = best[0];
    let ratio = |ns: f64| naive_ns / ns;
    let mode = if quick { "quick" } else { "full" };
    let gate = |name: &str| {
        let (_, full, quick_bound) = GATES.iter().find(|g| g.0 == name)?;
        Some(if quick { *quick_bound } else { *full })
    };
    header(&format!(
        "Kernels — fig9 C2, {n_ticks} ticks, frontier bound {bound}, best of {repeats} \
         interleaved ({mode})"
    ));
    println!(
        "{:<20} {:>10} {:>10} {:>9} {:>7} {:>8} {:>11}",
        "row", "ns/tick", "naive/row", "gate", "acc", "Δacc", "allocs/tick"
    );
    let mut rows: Vec<(String, f64)> = ["naive", "f64", "f32"]
        .iter()
        .zip(&best)
        .map(|(lane, &ns)| (format!("{lane} batch decode"), ns))
        .collect();
    rows.extend(
        beams
            .iter()
            .zip(&best[3..])
            .map(|((name, _), &ns)| (format!("{name} push"), ns)),
    );
    for (i, (name, ns)) in rows.iter().enumerate() {
        let bound = gate(name).map_or("-".into(), |g| format!("≥{g:.2}x"));
        let extra = match i.checked_sub(3) {
            Some(b) => format!(
                " {:>6.1}% {:>+6.1}pp {:>11.3}",
                100.0 * accs[b],
                100.0 * (accs[b] - exact_acc),
                allocs_per_tick[b]
            ),
            None => String::new(),
        };
        println!(
            "{name:<20} {ns:>10.0} {:>9.2}x {bound:>9}{extra}",
            ratio(*ns)
        );
    }

    // Latency gates, each against the naive row of this run.
    for (name, ns) in &rows {
        if let Some(g) = gate(name) {
            assert!(
                ratio(*ns) >= g,
                "{name}: {ns:.0} ns/tick is {:.2}x faster than the naive decoder \
                 ({naive_ns:.0} ns/tick), below the {mode} gate of {g:.2}x",
                ratio(*ns)
            );
        }
    }
    let topk_row = 1 + widths.iter().position(|&k| k == TOPK).expect("TopK(56)");
    assert!(
        best[2] < best[1],
        "f32 batch decode ({:.0} ns/tick) is not faster than f64 ({:.0} ns/tick)",
        best[2],
        best[1]
    );
    for i in [0, topk_row] {
        assert_eq!(
            allocs_per_tick[i], 0.0,
            "warmed {} push allocates",
            beams[i].0
        );
    }

    // The f32 lane's tolerance contract on the test split.
    let (mut agree, mut ticks) = (0.0, 0.0);
    for (e, f) in recs[0].iter().zip(&recs[recs.len() - 1]) {
        let n = (e.macros[0].len() + e.macros[1].len()) as f64;
        agree += tick_agreement(e, f) * n;
        ticks += n;
    }
    let agreement = agree / ticks;
    println!(
        "f32 lane: {:.2}% per-tick agreement with f64 (gate ≥99%), macro accuracy \
         {:+.2}pp (gate within 0.1pp)",
        100.0 * agreement,
        100.0 * (f32_acc - exact_acc)
    );
    assert!(
        agreement >= 0.99,
        "f32 per-tick agreement {agreement:.4} < 0.99"
    );
    assert!(
        (f32_acc - exact_acc).abs() <= 0.001,
        "f32 macro accuracy {f32_acc:.4} drifts more than 0.1pp from f64 {exact_acc:.4}"
    );

    // A pruned push must not be slower than the exact one: the gated
    // TopK(56), and the fastest swept beam within 1 pp of exact accuracy.
    let claim = (1..=widths.len())
        .filter(|&i| accs[i] >= exact_acc - 0.01)
        .min_by(|&a, &b| best[3 + a].total_cmp(&best[3 + b]));
    if let Some(i) = claim {
        println!(
            "→ {}: {:.2}x per-tick speedup over the exact push within 1pp of its accuracy",
            beams[i].0,
            best[3] / best[3 + i]
        );
    }
    for i in claim.into_iter().chain([topk_row]) {
        assert!(
            best[3 + i] <= best[3],
            "{} push ({:.0} ns/tick) is slower than the exact push ({:.0} ns/tick)",
            beams[i].0,
            best[3 + i],
            best[3]
        );
    }

    // ---------- Criterion targets ----------
    for (tag, i) in [("exact", 0), ("topk_56", topk_row)] {
        let online = &mut streams[i];
        let mut next = 0usize;
        c.bench_function(&format!("kernels/c2_stream_push_{tag}"), |b| {
            b.iter(|| {
                let tick = &inputs[next % n_ticks];
                next += 1;
                black_box(online.push(black_box(tick)).expect("push"))
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);

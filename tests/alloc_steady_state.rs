//! Steady-state allocation accounting for the online decoders (PR 5).
//!
//! The `TrellisArena` + pooled-window design promises that a *warmed*
//! streaming push — slice fill, DP step, beam selection, fixed-lag emit —
//! performs **zero heap allocations per tick**, for the exact decoder and
//! under an actively-pruning `TopK` beam alike. This suite counts every
//! allocator call (alloc / realloc / alloc_zeroed) through a wrapping
//! global allocator with a per-thread counter, warms each decoder past its
//! high-water buffer sizes, then drives another window of pushes and
//! asserts the count stayed at zero.
//!
//! The decision history (`emitted_*`) grows by one entry per tick and is
//! the only amortized allocation left in the loop; `reserve_ticks`
//! pre-sizes it, which is what a serving loop with a known session length
//! would do (and what keeps this assertion exact rather than probabilistic
//! about `Vec` growth boundaries).
//!
//! Above the decoder, warmed frame-feature extraction is gated at zero
//! allocations, a warmed engine-level `StreamingRecognizer::push` on the
//! tiny C2 model at a ceiling that only ever moves down, and so is a
//! capped `ShardedRouter::push_round` that parks and rehydrates a home on
//! every push.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use cace::behavior::ObservedTick;
use cace::core::{CaceConfig, CaceEngine, ShardedRouter, Strategy};
use cace::hdbn::{
    Beam, CoupledHdbn, DecoderConfig, Lag, OnlineCoupledViterbi, OnlineSingleViterbi, SingleHdbn,
    TickInput,
};
use cace_testkit::{tiny_corpus, tiny_corpus_split, toy_glitchy_ticks, toy_two_activity_params};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Wraps the system allocator, counting allocations made while the
/// current thread has counting enabled. Thread-local so the other tests
/// in this binary (and the harness itself) don't pollute the counter.
struct CountingAlloc;

impl CountingAlloc {
    fn record() {
        // `try_with` so allocations during TLS teardown can't panic.
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            }
        });
    }
}

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

/// Runs `f` with allocation counting on, returning the number of
/// allocator calls it made on this thread.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|c| c.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCS.with(|c| c.get())
}

const WARMUP: usize = 64;
const MEASURED: usize = 64;

fn decoder_configs() -> [(&'static str, DecoderConfig); 2] {
    // The toy coupled frontier is 16 joint states (single: 4), so TopK(4)
    // (TopK(2) for single) genuinely prunes every tick — the pruned
    // kernels and survivor selection are in the measured loop.
    [
        ("exact", DecoderConfig::exact()),
        ("topk", DecoderConfig::top_k(4)),
    ]
}

fn stream_ticks() -> Vec<TickInput> {
    toy_glitchy_ticks(WARMUP + MEASURED)
}

#[test]
fn warmed_coupled_stream_push_allocates_nothing() {
    for (label, decoder) in decoder_configs() {
        let model = CoupledHdbn::new(toy_two_activity_params(true)).with_decoder(decoder);
        let ticks = stream_ticks();
        let mut online = OnlineCoupledViterbi::new(model, Lag::Fixed(5));
        online.reserve_ticks(WARMUP + MEASURED);
        for tick in &ticks[..WARMUP] {
            online.push(tick).expect("warmup push");
        }
        let allocs = count_allocs(|| {
            for tick in &ticks[WARMUP..] {
                online.push(tick).expect("measured push");
            }
        });
        assert_eq!(
            allocs, 0,
            "{label}: warmed coupled push must be allocation-free \
             ({allocs} allocations over {MEASURED} ticks)"
        );
        // The stream is still correct after the measured window.
        let path = online.finalize().expect("finalize");
        assert_eq!(path.macros[0].len(), WARMUP + MEASURED);
    }
}

#[test]
fn warmed_single_stream_push_allocates_nothing() {
    for (label, decoder) in [
        ("exact", DecoderConfig::exact()),
        ("topk", DecoderConfig::top_k(2)),
    ] {
        let model = SingleHdbn::new(toy_two_activity_params(false)).with_decoder(decoder);
        let ticks = stream_ticks();
        let mut online = OnlineSingleViterbi::new(model, 0, Lag::Fixed(5));
        online.reserve_ticks(WARMUP + MEASURED);
        for tick in &ticks[..WARMUP] {
            online.push(tick).expect("warmup push");
        }
        let allocs = count_allocs(|| {
            for tick in &ticks[WARMUP..] {
                online.push(tick).expect("measured push");
            }
        });
        assert_eq!(
            allocs, 0,
            "{label}: warmed single-chain push must be allocation-free \
             ({allocs} allocations over {MEASURED} ticks)"
        );
        let path = online.finalize().expect("finalize");
        assert_eq!(path.macros.len(), WARMUP + MEASURED);
    }
}

/// The TopK beams above genuinely prune (strict subset survives), so the
/// zero-allocation claim covers the pruned kernels, not just the dense
/// ones.
#[test]
fn topk_cases_actually_prune_in_steady_state() {
    let mut scratch = cace::hdbn::BeamScratch::new();
    let model = CoupledHdbn::new(toy_two_activity_params(true));
    let ticks = stream_ticks();
    let path = model.viterbi(&ticks).expect("decode");
    // 16-state joint frontier vs TopK(4): selection must report pruning.
    let frontier: Vec<f64> = (0..16).map(|i| -(i as f64)).collect();
    assert!(Beam::TopK(4).select_log(&frontier, &mut scratch));
    assert_eq!(scratch.keep().len(), 4);
    assert!(path.log_prob.is_finite());
}

/// Ticks of a tiny session pushed before engine-level allocations are
/// counted: the decoder window and its buffers reach steady size first.
const ENGINE_WARMUP: usize = 16;

/// The serving-sized tiny C2 model (exact lane, whatever the environment
/// asks of the test fixtures) and one held-out session.
fn tiny_c2() -> (CaceEngine, cace::behavior::Session) {
    let (train, mut test) = tiny_corpus(6, 60, 4117);
    let config = CaceConfig::default().with_strategy(Strategy::CorrelationConstraint);
    let engine = CaceEngine::train(&train, &config).expect("tiny model trains");
    (engine, test.swap_remove(0))
}

/// Frame features of a warmed tick allocate nothing: the feature kernel
/// keeps its per-sample scratch on the stack.
#[test]
fn warmed_feature_extraction_allocates_nothing() {
    let (_, session) = tiny_c2();
    for tick in &session.ticks[..ENGINE_WARMUP] {
        std::hint::black_box(cace::features::extract_tick(&tick.observed));
    }
    let allocs = count_allocs(|| {
        for tick in &session.ticks[ENGINE_WARMUP..] {
            std::hint::black_box(cace::features::extract_tick(&tick.observed));
        }
    });
    assert_eq!(
        allocs,
        0,
        "extract_tick must be allocation-free ({allocs} allocations over {} ticks)",
        session.len() - ENGINE_WARMUP
    );
}

/// Ceiling on the mean heap allocations of one warmed engine-level push on
/// the tiny C2 model. This is the count the indexed pruner, the top-k beam,
/// borrowed forest leaves and the stack feature kernel leave; the rest is
/// per-tick candidate sets, classifier score vectors and the decoder's
/// history. The target is 0.
const ENGINE_PUSH_ALLOC_CEILING: u64 = 20;

#[test]
fn warmed_engine_push_stays_under_its_allocation_ceiling() {
    let (engine, session) = tiny_c2();
    let mut stream = engine.stream(Lag::Fixed(5));
    for tick in &session.ticks[..ENGINE_WARMUP] {
        stream.push(&tick.observed).expect("warmup push");
    }
    let measured = (session.len() - ENGINE_WARMUP) as u64;
    let allocs = count_allocs(|| {
        for tick in &session.ticks[ENGINE_WARMUP..] {
            stream.push(&tick.observed).expect("measured push");
        }
    });
    eprintln!("engine push: {allocs} allocations over {measured} ticks");
    assert!(
        allocs <= ENGINE_PUSH_ALLOC_CEILING * measured,
        "warmed engine push allocates {:.2} times per tick, above the ceiling of \
         {ENGINE_PUSH_ALLOC_CEILING} ({allocs} over {measured} ticks)",
        allocs as f64 / measured as f64
    );
    let rec = stream.finish().expect("stream finishes");
    assert_eq!(rec.macros[0].len(), session.len());
}

/// Ceiling on the mean allocator calls per home-tick of a warmed, capped
/// `ShardedRouter::push_round` in which every push of a parked home
/// rehydrates it and parks another: the push, the park and the
/// rehydration are counted together. Parking moves the stream's buffers
/// and writes one pre-sized byte buffer; rehydration decodes into the
/// shard's spare and resumes by value (about 27 per home-tick on this
/// fixture).
const PARKED_PUSH_ALLOC_CEILING: u64 = 40;

#[test]
fn warmed_parked_router_push_stays_under_its_allocation_ceiling() {
    let (engine, _) = tiny_c2();
    // Eight distinct homes on one shard (so the round runs on this
    // thread, where the counter is), one of them live at a time.
    let (_, homes) = tiny_corpus_split(16, 60, 4118, 0.5);
    assert_eq!(homes.len(), 8);
    let mut router = ShardedRouter::with_shards(1).with_live_cap(1);
    router
        .register_model("c2", Arc::new(engine))
        .expect("fresh registry");
    for id in 0..homes.len() as u64 {
        router
            .add_home(id, "c2", Lag::Fixed(5))
            .expect("new home id");
    }
    let ticks = homes.iter().map(|s| s.len()).min().expect("eight homes");
    let rounds: Vec<Vec<(u64, &ObservedTick)>> = (0..ticks)
        .map(|t| {
            homes
                .iter()
                .enumerate()
                .map(|(id, s)| (id as u64, &s.ticks[t].observed))
                .collect()
        })
        .collect();
    for round in &rounds[..ENGINE_WARMUP] {
        router.push_round(round).expect("warmup round");
    }
    let before = router.stats();
    let allocs = count_allocs(|| {
        for round in &rounds[ENGINE_WARMUP..] {
            std::hint::black_box(router.push_round(round).expect("measured round"));
        }
    });
    let after = router.stats();
    let measured_rounds = (ticks - ENGINE_WARMUP) as u64;
    let home_ticks = measured_rounds * homes.len() as u64;
    // Every round pushes the one live home, then rehydrates (and parks)
    // each of the other seven.
    let cycles = (homes.len() as u64 - 1) * measured_rounds;
    assert_eq!(after.rehydrations() - before.rehydrations(), cycles);
    assert_eq!(after.parks() - before.parks(), cycles);
    eprintln!("parked router push: {allocs} allocations over {home_ticks} home-ticks");
    assert!(
        allocs <= PARKED_PUSH_ALLOC_CEILING * home_ticks,
        "a parked home-tick allocates {:.2} times, above the ceiling of \
         {PARKED_PUSH_ALLOC_CEILING} ({allocs} over {home_ticks} home-ticks)",
        allocs as f64 / home_ticks as f64
    );
    for (id, result) in router.finish() {
        let rec = result.expect("every home finishes");
        assert_eq!(rec.macros[0].len(), ticks, "home {id}");
    }
}

//! Building the fleet, driving it closed-loop, and the reference checks.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cace_behavior::{ObservedTick, Session};
use cace_core::{
    stream_shared, CaceConfig, CaceEngine, HomeRound, Lag, Recognition, ShardStats, ShardedRouter,
    StreamDecision,
};

use crate::trace::{self, Tracer};
use crate::workload::{Workload, WARMUP_ROUNDS};

pub const MODEL: &str = "cace";
pub const LAG: Lag = Lag::Fixed(6);

/// One home's decision per tick: the fixed-lag decisions `push_round`
/// emitted, then the tail resolved by `finish()`. `None` marks a tick that
/// got no decision (its push failed or the home was quarantined).
pub type Decisions = Vec<Option<[usize; 2]>>;

/// Assembles a home's per-tick decisions from its emitted stream and its
/// final recognition.
pub fn assemble(
    ticks: usize,
    emitted: &[StreamDecision],
    finished: Option<&Recognition>,
) -> Decisions {
    let mut out: Decisions = vec![None; ticks];
    let mut resolved = 0;
    for d in emitted {
        if d.tick < ticks {
            out[d.tick] = Some(d.macros);
            resolved = resolved.max(d.tick + 1);
        }
    }
    if let Some(rec) = finished {
        for (t, slot) in out.iter_mut().enumerate().skip(resolved) {
            if let (Some(&m0), Some(&m1)) = (rec.macros[0].get(t), rec.macros[1].get(t)) {
                *slot = Some([m0, m1]);
            }
        }
    }
    out
}

/// Builds a router over the workload's homes, all serving `engine`.
pub fn build_router(engine: &Arc<CaceEngine>, workload: &Workload) -> ShardedRouter {
    let mut router = ShardedRouter::new();
    if let Some(cap) = workload.live_cap {
        router = router.with_live_cap(cap);
    }
    router
        .register_model(MODEL, Arc::clone(engine))
        .expect("fresh registry");
    for id in 0..workload.homes as u64 {
        router.add_home(id, MODEL, LAG).expect("distinct home ids");
    }
    router
}

/// Set-up timings of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub train_s: f64,
    pub fleet_build_s: f64,
}

/// One set-up: `CaceEngine::train`, then the fleet build (model
/// registration and every `add_home`), timed separately. The built fleet is
/// dropped; each drive builds its own.
pub fn setup(
    train: &[Session],
    workload: &Workload,
    mut tracer: Option<&mut Tracer>,
) -> (Arc<CaceEngine>, SetupTimes) {
    let train_once =
        || Arc::new(CaceEngine::train(train, &CaceConfig::default()).expect("training succeeds"));
    let t0 = Instant::now();
    let engine = match tracer.as_deref_mut() {
        Some(tr) => tr.time("setup.train", None, train_once),
        None => train_once(),
    };
    let train_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let router = match tracer {
        Some(tr) => tr.time("setup.fleet_build", None, || {
            build_router(&engine, workload)
        }),
        None => build_router(&engine, workload),
    };
    let fleet_build_s = t1.elapsed().as_secs_f64();
    drop(black_box(router));
    (
        engine,
        SetupTimes {
            train_s,
            fleet_build_s,
        },
    )
}

/// Per-shard counter deltas over the measured rounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardDelta {
    pub pushes: u64,
    pub parks: u64,
    pub rehydrations: u64,
    pub batched_pushes: u64,
    pub push_nanos: u64,
}

fn delta(after: &ShardStats, before: &ShardStats) -> ShardDelta {
    ShardDelta {
        pushes: after.pushes - before.pushes,
        parks: after.parks - before.parks,
        rehydrations: after.rehydrations - before.rehydrations,
        batched_pushes: after.batched_pushes - before.batched_pushes,
        push_nanos: after.push_nanos - before.push_nanos,
    }
}

/// What one closed-loop drive of the fleet produced.
pub struct Drive {
    /// Per-home decisions, indexed by home id.
    pub decisions: Vec<Decisions>,
    /// Per home-tick failure marks: the push came back `Failed` or
    /// `Quarantined`, or the tick got no decision.
    pub failed: Vec<Vec<bool>>,
    /// Wall time of each measured `push_round`, in nanoseconds.
    pub round_ns: Vec<u64>,
    /// Whether each measured round was traced.
    pub traced: Vec<bool>,
    /// Homes pushed per round.
    pub homes: usize,
    /// Per-shard counter deltas over the measured rounds.
    pub shards: Vec<ShardDelta>,
    /// Highest resident set size sampled between rounds and after finish.
    pub peak_rss: u64,
    /// Allocator calls during the traced rounds.
    pub traced_allocs: u64,
    /// Homes quarantined at the end of the drive.
    pub quarantined: usize,
}

impl Drive {
    /// Home-ticks per second over the measured rounds whose traced flag
    /// equals `traced`.
    pub fn home_ticks_per_s(&self, traced: bool) -> f64 {
        let (rounds, ns) = self
            .round_ns
            .iter()
            .zip(&self.traced)
            .filter(|(_, &t)| t == traced)
            .fold((0u64, 0u64), |(r, n), (&ns, _)| (r + 1, n + ns));
        (rounds * self.homes as u64) as f64 / (ns.max(1) as f64 / 1e9)
    }

    /// Home-ticks pushed in the traced rounds.
    pub fn traced_home_ticks(&self) -> u64 {
        self.traced.iter().filter(|&&t| t).count() as u64 * self.homes as u64
    }
}

/// Drives every home's session through `push_round`, one tick per home per
/// round, closed-loop and back to back, then `finish()`es the fleet. Only
/// the `push_round` calls are on the clock; rounds `< WARMUP_ROUNDS` are
/// pushed but not measured.
///
/// With a tracer, every other measured round is traced — a span around the
/// call and its allocator calls counted on every thread — so traced and
/// untraced rounds of the same drive give the tracing overhead under
/// identical conditions.
// `t` is the round and the tick index into every home's session at once.
#[allow(clippy::needless_range_loop)]
pub fn drive(
    mut router: ShardedRouter,
    sessions: &[Session],
    mut tracer: Option<&mut Tracer>,
) -> Drive {
    let homes = sessions.len();
    let ticks = sessions.iter().map(Session::len).min().unwrap_or(0);
    let mut emitted: Vec<Vec<StreamDecision>> = vec![Vec::with_capacity(ticks); homes];
    let mut failed = vec![vec![false; ticks]; homes];
    let mut round: Vec<(u64, &ObservedTick)> = Vec::with_capacity(homes);
    let mut round_ns = Vec::with_capacity(ticks);
    let mut traced = Vec::with_capacity(ticks);
    let mut peak_rss = trace::rss_bytes();
    let mut before = router.stats();
    let mut traced_allocs = 0;
    let root = tracer.as_deref_mut().map(|tr| tr.open("fleet.drive", None));
    for t in 0..ticks {
        if t == WARMUP_ROUNDS {
            before = router.stats();
        }
        round.clear();
        round.extend(
            sessions
                .iter()
                .enumerate()
                .map(|(h, s)| (h as u64, &s.ticks[t].observed)),
        );
        let measured = t >= WARMUP_ROUNDS;
        let trace_round = tracer.is_some() && measured && (t - WARMUP_ROUNDS).is_multiple_of(2);
        let span = match tracer.as_deref_mut() {
            Some(tr) if trace_round => Some(tr.open("fleet.push_round", root)),
            _ => None,
        };
        let allocs_before = trace::allocations();
        trace::count_allocations(trace_round);
        let start = Instant::now();
        let outcomes = black_box(router.push_round(black_box(&round)));
        let elapsed = start.elapsed().as_nanos() as u64;
        trace::count_allocations(false);
        if let (Some(tr), Some(id)) = (tracer.as_deref_mut(), span) {
            tr.close(id);
        }
        if measured {
            round_ns.push(elapsed);
            traced.push(trace_round);
        }
        if trace_round {
            traced_allocs += trace::allocations() - allocs_before;
        }
        let outcomes = outcomes.expect("every home id is routed");
        for (h, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                HomeRound::Advanced(Some(d)) => emitted[h].push(d),
                HomeRound::Advanced(None) => {}
                HomeRound::Failed(_) | HomeRound::Quarantined => failed[h][t] = true,
            }
        }
        peak_rss = peak_rss.max(trace::rss_bytes());
    }
    let after = router.stats();
    let quarantined = after.quarantined_homes();
    let shards = after
        .shards
        .iter()
        .zip(&before.shards)
        .map(|(a, b)| delta(a, b))
        .collect();
    let finished = match tracer.as_deref_mut() {
        Some(tr) => tr.time("fleet.finish", root, || router.finish()),
        None => router.finish(),
    };
    if let (Some(tr), Some(id)) = (tracer, root) {
        tr.close(id);
    }
    peak_rss = peak_rss.max(trace::rss_bytes());
    let decisions: Vec<Decisions> = finished
        .iter()
        .map(|(id, result)| assemble(ticks, &emitted[*id as usize], result.as_ref().ok()))
        .collect();
    for (marks, d) in failed.iter_mut().zip(&decisions) {
        for (mark, decided) in marks.iter_mut().zip(d) {
            *mark |= decided.is_none();
        }
    }
    Drive {
        decisions,
        failed,
        round_ns,
        traced,
        homes,
        shards,
        peak_rss,
        traced_allocs,
        quarantined,
    }
}

/// Decisions of a dedicated single-thread `StreamingRecognizer` over one
/// session: the reference every router decision is checked against.
pub fn reference(engine: &Arc<CaceEngine>, session: &Session) -> Decisions {
    let mut stream = stream_shared(engine, LAG);
    let mut emitted = Vec::with_capacity(session.len());
    for tick in &session.ticks {
        match stream.push(&tick.observed) {
            Ok(Some(d)) => emitted.push(d),
            Ok(None) => {}
            Err(_) => return vec![None; session.len()],
        }
    }
    let finished = stream.finish();
    assemble(session.len(), &emitted, finished.as_ref().ok())
}

/// Reference decisions for the listed homes, on `threads` workers.
pub fn references(
    engine: &Arc<CaceEngine>,
    sessions: &[Session],
    homes: &[usize],
    threads: usize,
) -> Vec<(usize, Decisions)> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<(usize, Decisions)>> = Mutex::new(Vec::with_capacity(homes.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&home) = homes.get(i) else { break };
                let decisions = reference(engine, &sessions[home]);
                out.lock()
                    .expect("no reference thread panics")
                    .push((home, decisions));
            });
        }
    });
    let mut out = out.into_inner().expect("no reference thread panics");
    out.sort_by_key(|(home, _)| *home);
    out
}

/// Marks every tick of `home` whose decision differs from `expected`;
/// returns how many differ.
pub fn mark_mismatches(
    failed: &mut [Vec<bool>],
    home: usize,
    actual: &Decisions,
    expected: &Decisions,
) -> u64 {
    let mut n = 0;
    for (t, flag) in failed[home].iter_mut().enumerate() {
        if actual.get(t) != expected.get(t) {
            *flag = true;
            n += 1;
        }
    }
    n
}

/// Correct and total (home, resident, tick) decisions against the ground
/// truth; undecided ticks count as wrong.
pub fn accuracy_counts(decisions: &[Decisions], sessions: &[Session]) -> (u64, u64) {
    let mut correct = 0u64;
    let mut total = 0u64;
    for (d, s) in decisions.iter().zip(sessions) {
        for (decided, tick) in d.iter().zip(&s.ticks) {
            for u in 0..2 {
                total += 1;
                if decided.is_some_and(|m| m[u] == tick.labels[u]) {
                    correct += 1;
                }
            }
        }
    }
    (correct, total)
}

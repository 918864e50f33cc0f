//! Single-thread layer probes for the traced run.
//!
//! Each probe drives the sampled homes' own sessions through one layer's
//! public entry point, with a span around every call and the allocator
//! calls of warmed calls counted:
//!
//! * features — `cace_features::extract_tick` per tick;
//! * prepare — `CaceEngine::tick_inputs(s)` minus
//!   `cace_features::extract_session(s)` per session (the per-tick preparer
//!   that scores classifiers and prunes by rules is crate-private);
//! * hdbn — `OnlineCoupledViterbi::push` over the engine's tick inputs;
//! * stream — `StreamingRecognizer::push` on a dedicated stream;
//! * snapshot — `park()` + `to_snapshot_bytes()`, then
//!   `ParkedStream::from_snapshot_any` + `resume_shared`, at every warmed
//!   tick. The codec is probed on every workload; whether the fleet itself
//!   parks shows in the router's park and rehydration counts.

use std::hint::black_box;
use std::sync::Arc;

use cace_behavior::Session;
use cace_core::{resume_shared, stream_shared, CaceEngine, ParkedStream};
use cace_hdbn::{CoupledHdbn, OnlineCoupledViterbi};

use crate::fleet::{assemble, Decisions, LAG};
use crate::trace::{self, Tracer};

/// Ticks of each session skipped before allocations are counted: the
/// decoder window and per-stream scratch reach their steady size first.
pub const WARM_TICKS: usize = 16;

#[derive(Debug, Clone, Copy, Default)]
pub struct AllocTally {
    pub calls: u64,
    pub allocs: u64,
}

impl AllocTally {
    fn add(&mut self, allocs: u64) {
        self.calls += 1;
        self.allocs += allocs;
    }

    pub fn per_call(&self) -> f64 {
        self.allocs as f64 / self.calls.max(1) as f64
    }
}

/// Counts and sizes gathered by the probes (times come from the spans).
#[derive(Debug, Default)]
pub struct Probe {
    pub ticks: u64,
    pub features_allocs: AllocTally,
    pub hdbn_allocs: AllocTally,
    pub stream_allocs: AllocTally,
    pub park_allocs: AllocTally,
    pub rehydrate_allocs: AllocTally,
    pub parked_bytes: u64,
    pub rules_fired: u64,
    /// Σ over sessions of `mean_joint_size × ticks`.
    pub joint_size_sum: f64,
    pub states_explored: u64,
    pub transition_ops: u64,
    /// Stream-probe decisions of each probed home, for the reference check.
    pub decisions: Vec<(usize, Decisions)>,
    /// Snapshot-probe decisions (a park/rehydrate cycle at every warmed
    /// tick), for the reference check.
    pub snapshot_decisions: Vec<(usize, Decisions)>,
}

/// Runs every probe over the listed homes. Allocation counting must be off
/// on entry; it is switched on only around the counted calls.
pub fn probe(
    engine: &Arc<CaceEngine>,
    sessions: &[Session],
    homes: &[usize],
    tracer: &mut Tracer,
) -> Probe {
    let mut p = Probe::default();
    let decoder_config = engine.config().decoder;
    for &home in homes {
        let session = &sessions[home];
        let root = Some(tracer.open("probe.home", None));
        p.ticks += session.len() as u64;

        trace::count_allocations(true);
        for (t, tick) in session.ticks.iter().enumerate() {
            let (features, allocs) = tracer.time_counted("features.extract_tick", root, || {
                cace_features::extract_tick(black_box(&tick.observed))
            });
            black_box(features);
            if t >= WARM_TICKS {
                p.features_allocs.add(allocs);
            }
        }
        trace::count_allocations(false);

        let inputs = tracer.time("prepare.tick_inputs", root, || {
            engine.tick_inputs(black_box(session))
        });
        let features = tracer.time("prepare.extract_session", root, || {
            cace_features::extract_session(black_box(session))
        });
        black_box(features);

        let model =
            CoupledHdbn::from_shared(Arc::clone(engine.hdbn_params())).with_decoder(decoder_config);
        let mut online = OnlineCoupledViterbi::new(model, LAG);
        trace::count_allocations(true);
        for (t, input) in inputs.iter().enumerate() {
            let (step, allocs) =
                tracer.time_counted("hdbn.push", root, || online.push(black_box(input)));
            black_box(step.expect("the engine's own inputs decode"));
            if t >= WARM_TICKS {
                p.hdbn_allocs.add(allocs);
            }
        }
        trace::count_allocations(false);
        black_box(online.finalize().expect("decoder finalizes"));

        let mut stream = stream_shared(engine, LAG);
        let mut emitted = Vec::with_capacity(session.len());
        trace::count_allocations(true);
        for (t, tick) in session.ticks.iter().enumerate() {
            let (decision, allocs) = tracer.time_counted("stream.push", root, || {
                stream.push(black_box(&tick.observed))
            });
            if let Some(d) = decision.expect("a warmed stream push succeeds") {
                emitted.push(d);
            }
            if t >= WARM_TICKS {
                p.stream_allocs.add(allocs);
            }
        }
        trace::count_allocations(false);
        let rec = stream.finish().expect("stream finishes");
        p.rules_fired += rec.rules_fired;
        p.joint_size_sum += rec.mean_joint_size * session.len() as f64;
        p.states_explored += rec.states_explored;
        p.transition_ops += rec.transition_ops;
        p.decisions
            .push((home, assemble(session.len(), &emitted, Some(&rec))));

        let decisions = snapshot_cycle(engine, session, root, tracer, &mut p);
        p.snapshot_decisions.push((home, decisions));
        if let Some(id) = root {
            tracer.close(id);
        }
    }
    p
}

/// Streams one session, parking and rehydrating the stream after every
/// warmed push and continuing from the rehydrated copy.
fn snapshot_cycle(
    engine: &Arc<CaceEngine>,
    session: &Session,
    root: Option<usize>,
    tracer: &mut Tracer,
    p: &mut Probe,
) -> Decisions {
    let mut stream = stream_shared(engine, LAG);
    let mut emitted = Vec::with_capacity(session.len());
    for (t, tick) in session.ticks.iter().enumerate() {
        if let Some(d) = stream.push(&tick.observed).expect("stream push succeeds") {
            emitted.push(d);
        }
        if t < WARM_TICKS {
            continue;
        }
        trace::count_allocations(true);
        let (bytes, park_allocs) = tracer.time_counted("snapshot.park", root, || {
            black_box(&stream).park().to_snapshot_bytes()
        });
        let (resumed, rehydrate_allocs) = tracer.time_counted("snapshot.rehydrate", root, || {
            ParkedStream::from_snapshot_any(black_box(&bytes))
                .and_then(|parked| resume_shared(engine, &parked))
        });
        trace::count_allocations(false);
        p.park_allocs.add(park_allocs);
        p.rehydrate_allocs.add(rehydrate_allocs);
        p.parked_bytes += bytes.len() as u64;
        stream = resumed.expect("parked bytes rehydrate");
    }
    let rec = stream.finish().expect("stream finishes");
    assemble(session.len(), &emitted, Some(&rec))
}

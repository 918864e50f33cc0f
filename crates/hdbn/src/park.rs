//! Parked (checkpointable) state of the online decoders.
//!
//! A serving tier that holds many more homes than fit live in memory needs
//! to *park* an idle stream — serialize its decoder state to bytes — and
//! rehydrate it on the next tick with **bit-identical continuation**: the
//! resumed decoder must emit the same decisions, accumulate the same
//! overhead counters, and finalize to the same path as one that never
//! stopped. The types here are the parked forms of
//! [`OnlineCoupledViterbi`](crate::OnlineCoupledViterbi) and
//! [`OnlineSingleViterbi`](crate::OnlineSingleViterbi): the trellis
//! frontier (whichever scoring lane is live), the backpointer window with
//! its per-tick slices and retained candidate tuples, the decision cursor
//! (`base`/`pushed` plus the emitted history), the overhead counters, and
//! the pending beam-survivor set a pruned next step would consume.
//!
//! Each family converts by value in both directions: `into_parked`
//! consumes the live decoder and *moves* its buffers (the window entries
//! are the live entries themselves), and `from_parked` validates, then
//! moves them back. The borrowing `park`/`resume` are clone-then-convert
//! wrappers over the same two conversions.
//!
//! What is *not* serialized is exactly the state that does not affect
//! output: the entry free list and the [`TrellisArena`](crate::TrellisArena)
//! scratch, and the model itself (the caller re-attaches it at resume,
//! sharing one `Arc<HdbnParams>` across a whole fleet of parked homes).
//! The free list and arena still travel with a parked value as its
//! [`TrellisSpare`]: a resume reuses them, and a decode into an existing
//! parked value (`decode_into`) writes into its buffers, so a serving tier
//! cycling homes through one spare re-grows nothing.
//!
//! Resume is **panic-free on malformed input**: every index and length in
//! a parked payload is validated against the attached model before any
//! kernel runs, so a tampered-but-checksummed snapshot surfaces as
//! [`ModelError::Persistence`] instead of an out-of-bounds panic — the
//! router quarantines the home and keeps serving its shard-mates.

use cace_model::ModelError;
use serde::{Deserialize, Serialize};

use crate::arena::Slice;
use crate::input::MicroCandidate;
use crate::online::{ChainEntry, JointEntry, Lag};
use crate::params::HdbnParams;
use crate::scalar::Precision;
use crate::trellis::TrellisSpare;

impl Slice {
    /// Bounds-checks every index the step kernels would read: state count
    /// nonzero and internally consistent, pair/slot ids inside the model's
    /// dense tables, candidate indices inside the retained tuple list,
    /// activity runs a partition-shaped cover of the state list, emissions
    /// free of NaN (the frontier argmax totally orders scores). Errors
    /// name `{what} window[{i}]`; success allocates nothing.
    pub(crate) fn validate(
        &self,
        what: &str,
        i: usize,
        n_macro: usize,
        n_pair: usize,
        n_cands: usize,
    ) -> Result<(), ModelError> {
        let err = |why: &str| format!("{what} window[{i}]: {why}");
        let m = self.len();
        check(m > 0, || err("empty trellis slice"))?;
        check(
            self.cands.len() == m
                && self.pairs.len() == m
                && self.emissions.len() == m
                && self.slots.len() == m,
            || err("slice column lengths disagree"),
        )?;
        check(self.activities.iter().all(|&a| a < n_macro), || {
            err("activity id out of range")
        })?;
        check(self.cands.iter().all(|&c| c < n_cands), || {
            err("candidate index out of range")
        })?;
        check(self.pairs.iter().all(|&p| (p as usize) < n_pair), || {
            err("pair id out of range")
        })?;
        check(
            self.uniq_pairs.iter().all(|&p| (p as usize) < n_pair),
            || err("distinct pair id out of range"),
        )?;
        let n_slots = self.uniq_pairs.len() as u32;
        check(self.slots.iter().all(|&s| s < n_slots), || {
            err("slot index out of range")
        })?;
        check(self.emissions.iter().all(|e| !e.is_nan()), || {
            err("NaN emission score")
        })?;
        // Runs must tile 0..m in order — the fold kernels walk them as a
        // cover of the state list.
        let mut cursor = 0u32;
        for &(a, start, end) in &self.runs {
            check(
                (a as usize) < n_macro && start == cursor && end >= start,
                || err("malformed activity run"),
            )?;
            cursor = end;
        }
        check(cursor as usize == m, || {
            err("activity runs do not cover the slice")
        })?;
        Ok(())
    }
}

/// Checks one window entry's backpointers against the previous entry's
/// frontier size (`None` for `window[0]`, whose backpointers are never
/// read: there is no predecessor to point into).
fn validate_back(
    what: &str,
    i: usize,
    back: &[u32],
    frontier: usize,
    prev_frontier: Option<usize>,
) -> Result<(), ModelError> {
    if let Some(prev) = prev_frontier {
        check(back.len() == frontier, || {
            format!("{what} window[{i}]: backpointer count != frontier size")
        })?;
        check(back.iter().all(|&b| (b as usize) < prev), || {
            format!("{what} window[{i}]: backpointer out of range")
        })?;
    }
    Ok(())
}

/// Parked [`OnlineCoupledViterbi`](crate::OnlineCoupledViterbi) state: the
/// serialized mid-stream checkpoint of one home's coupled decoder.
/// Produced by [`into_parked`](crate::OnlineCoupledViterbi::into_parked)
/// (or the borrowing [`park`](crate::OnlineCoupledViterbi::park)),
/// consumed by [`from_parked`](crate::OnlineCoupledViterbi::from_parked);
/// the payload is opaque to callers and versioned by the snapshot layer
/// that embeds it. The window holds the live stream's own entries, moved
/// rather than copied, and `spare` carries its reusable memory along.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ParkedCoupled {
    pub(crate) v: Vec<f64>,
    pub(crate) v32: Vec<f32>,
    pub(crate) window: Vec<JointEntry>,
    pub(crate) base: usize,
    pub(crate) pushed: usize,
    pub(crate) emitted_macros: [Vec<usize>; 2],
    pub(crate) emitted_micros: [Vec<MicroCandidate>; 2],
    pub(crate) states_explored: u64,
    pub(crate) transition_ops: u64,
    pub(crate) pruned: bool,
    pub(crate) keep: Vec<u32>,
    /// Pooled entries and arena of the stream this was parked from (or of
    /// an earlier decode target): reused at resume, never serialized.
    #[serde(skip)]
    pub(crate) spare: TrellisSpare<JointEntry>,
}

impl ParkedCoupled {
    /// Ticks the parked stream had consumed when it was parked.
    pub fn ticks_pushed(&self) -> usize {
        self.pushed
    }

    /// Full structural validation against the model this checkpoint is
    /// being re-attached to (see the [module docs](self) for why resume
    /// must be panic-free).
    pub(crate) fn validate(
        &self,
        p: &HdbnParams,
        precision: Precision,
        lag: Lag,
    ) -> Result<(), ModelError> {
        let what = "parked coupled stream";
        validate_cursor(
            what,
            self.base,
            self.pushed,
            self.window.len(),
            self.emitted_macros[0].len(),
            lag,
        )?;
        check(
            self.emitted_macros[1].len() == self.emitted_macros[0].len()
                && self.emitted_micros[0].len() == self.emitted_macros[0].len()
                && self.emitted_micros[1].len() == self.emitted_macros[0].len(),
            || format!("{what}: emitted histories disagree in length"),
        )?;
        let (n_macro, n_pair) = (p.n_macro(), p.tables.n_pair());
        let mut prev_flat = None;
        for (i, e) in self.window.iter().enumerate() {
            e.s1.validate(what, i, n_macro, n_pair, e.cands[0].len())?;
            e.s2.validate(what, i, n_macro, n_pair, e.cands[1].len())?;
            let flat = e.s1.len() * e.s2.len();
            validate_back(what, i, &e.back, flat, prev_flat)?;
            prev_flat = Some(flat);
        }
        if let Some(frontier) = prev_flat {
            validate_frontier(
                what,
                frontier,
                &self.v,
                &self.v32,
                precision,
                self.pruned,
                &self.keep,
            )?;
        }
        Ok(())
    }
}

/// Parked [`OnlineSingleViterbi`](crate::OnlineSingleViterbi) state — the
/// single-chain counterpart of [`ParkedCoupled`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ParkedChain {
    pub(crate) v: Vec<f64>,
    pub(crate) v32: Vec<f32>,
    pub(crate) window: Vec<ChainEntry>,
    pub(crate) base: usize,
    pub(crate) pushed: usize,
    pub(crate) emitted_macros: Vec<usize>,
    pub(crate) emitted_micros: Vec<MicroCandidate>,
    pub(crate) states_explored: u64,
    pub(crate) transition_ops: u64,
    pub(crate) pruned: bool,
    pub(crate) keep: Vec<u32>,
    /// Reusable memory, as in [`ParkedCoupled`]; never serialized.
    #[serde(skip)]
    pub(crate) spare: TrellisSpare<ChainEntry>,
}

impl ParkedChain {
    /// Ticks the parked stream had consumed when it was parked.
    pub fn ticks_pushed(&self) -> usize {
        self.pushed
    }

    /// Single-chain counterpart of [`ParkedCoupled::validate`].
    pub(crate) fn validate(
        &self,
        p: &HdbnParams,
        precision: Precision,
        lag: Lag,
    ) -> Result<(), ModelError> {
        let what = "parked chain stream";
        validate_cursor(
            what,
            self.base,
            self.pushed,
            self.window.len(),
            self.emitted_macros.len(),
            lag,
        )?;
        check(
            self.emitted_micros.len() == self.emitted_macros.len(),
            || format!("{what}: emitted histories disagree in length"),
        )?;
        let (n_macro, n_pair) = (p.n_macro(), p.tables.n_pair());
        let mut prev_len = None;
        for (i, e) in self.window.iter().enumerate() {
            e.slice.validate(what, i, n_macro, n_pair, e.cands.len())?;
            let m = e.slice.len();
            validate_back(what, i, &e.back, m, prev_len)?;
            prev_len = Some(m);
        }
        if let Some(frontier) = prev_len {
            validate_frontier(
                what,
                frontier,
                &self.v,
                &self.v32,
                precision,
                self.pruned,
                &self.keep,
            )?;
        }
        Ok(())
    }
}

/// Maps a failed structural invariant to [`ModelError::Persistence`]
/// with a lazily built description — the shared error shape of every
/// family's parked-state validation (including `cace-core`'s NH
/// frontier).
pub fn check(cond: bool, what: impl FnOnce() -> String) -> Result<(), ModelError> {
    if cond {
        Ok(())
    } else {
        Err(ModelError::Persistence { what: what() })
    }
}

/// Decision-cursor invariants shared by every parked decoder family: the
/// window holds exactly ticks `base..pushed`, the emitted prefix matches
/// the lag's ripening schedule (so the resumed decoder's `emit_ready`
/// picks up at the right tick), and finalization can still reach every
/// uncommitted tick.
pub fn validate_cursor(
    what: &str,
    base: usize,
    pushed: usize,
    window_len: usize,
    committed: usize,
    lag: Lag,
) -> Result<(), ModelError> {
    check(base + window_len == pushed, || {
        format!("{what}: window covers {window_len} ticks but cursor says {base}..{pushed}")
    })?;
    check(pushed == 0 || window_len > 0, || {
        format!("{what}: nonempty stream with empty window")
    })?;
    let expected = match lag {
        Lag::Unbounded => 0,
        Lag::Fixed(l) => pushed.saturating_sub(l),
    };
    check(committed == expected, || {
        format!(
            "{what}: {committed} committed decisions, lag schedule expects {expected} \
             after {pushed} ticks"
        )
    })?;
    check(base <= committed, || {
        format!("{what}: window base {base} past the committed prefix {committed}")
    })?;
    Ok(())
}

/// Frontier + pending-survivor invariants shared by every parked decoder
/// family: the active scoring lane's frontier matches the newest window
/// entry, carries no NaN (argmax totally orders scores), and a pending
/// pruned survivor set is a strict, strictly-ascending subset of it.
pub fn validate_frontier(
    what: &str,
    frontier: usize,
    v: &[f64],
    v32: &[f32],
    precision: Precision,
    pruned: bool,
    keep: &[u32],
) -> Result<(), ModelError> {
    match precision {
        Precision::Exact64 => {
            check(v.len() == frontier, || {
                format!("{what}: frontier length != newest window entry")
            })?;
            check(v.iter().all(|s| !s.is_nan()), || {
                format!("{what}: NaN frontier score")
            })?;
        }
        Precision::Fast32 => {
            check(v32.len() == frontier, || {
                format!("{what}: f32 frontier length != newest window entry")
            })?;
            check(v32.iter().all(|s| !s.is_nan()), || {
                format!("{what}: NaN frontier score")
            })?;
        }
    }
    if pruned {
        check(
            !keep.is_empty()
                && keep.len() < frontier
                && keep.windows(2).all(|w| w[0] < w[1])
                && keep.iter().all(|&k| (k as usize) < frontier),
            || format!("{what}: malformed beam survivor set"),
        )?;
    }
    Ok(())
}

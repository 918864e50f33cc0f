//! Reference tick-preparation kernels: the straightforward implementations
//! of frame features, rule pruning and candidate beaming, kept as
//! executable specifications.
//!
//! The production versions are the fast ones:
//!
//! * [`FeatureVector::from_frame`](cace_features::FeatureVector::from_frame)
//!   computes every statistic in two fused passes over stack scratch;
//! * [`PruningEngine::prune`](cace_mining::PruningEngine::prune) visits
//!   only the rules an index says the evidence can fire;
//! * [`TickInput::from_candidates`] keeps the top candidates by partial
//!   selection, and [`cace_core::statespace::build_tick_input`] looks the
//!   location score up in a per-tick table.
//!
//! The functions here compute the same things one statistic, one rule and
//! one tuple at a time — per-statistic helper calls over per-frame `Vec`s,
//! a linear scan of every rule in both pruning passes, a stable sort of
//! every scored tuple — and `tests/prepare_differential.rs` asserts the
//! production kernels are **bit-identical** to them.

use cace_behavior::ObservedTick;
use cace_core::statespace::{micro_score, TickScores};
use cace_features::FEATURE_COUNT;
use cace_hdbn::{MicroCandidate, TickInput};
use cace_mining::correlation::PruneReport;
use cace_mining::{AtomSpace, CandidateTick, ItemId, RuleSet, UserCandidates};
use cace_model::StateMask;
use cace_sensing::IMU_RATE_HZ;
use cace_signal::goertzel::goertzel_band;
use cace_signal::stats::{
    kurtosis, mean_abs_deviation, mean_crossings, pearson, signal_magnitude_area, skewness, Summary,
};
use cace_signal::trajectory::ImuSample;

/// The 32 frame features, each statistic computed on its own over
/// per-frame `Vec`s.
///
/// # Panics
/// Panics on a frame whose spectral powers are not all comparable (a
/// non-finite sample); the production kernel ranks them by a total order.
pub fn frame_features(frame: &[ImuSample]) -> [f64; FEATURE_COUNT] {
    if frame.is_empty() {
        return [0.0; FEATURE_COUNT];
    }
    let xs: Vec<f64> = frame.iter().map(|s| s.accel.x).collect();
    let ys: Vec<f64> = frame.iter().map(|s| s.accel.y).collect();
    let zs: Vec<f64> = frame.iter().map(|s| s.accel.z).collect();
    let mags: Vec<f64> = frame.iter().map(|s| s.accel.norm()).collect();

    let mag = Summary::of(&mags);
    let ac: Vec<f64> = mags.iter().map(|m| m - mag.mean).collect();
    let band = goertzel_band(&ac, IMU_RATE_HZ);

    let sx = Summary::of(&xs);
    let sy = Summary::of(&ys);
    let sz = Summary::of(&zs);

    let tilts: Vec<f64> = frame
        .iter()
        .zip(&mags)
        .map(|(s, &n)| {
            if n == 0.0 {
                0.0
            } else {
                (s.accel.z / n).clamp(-1.0, 1.0).acos()
            }
        })
        .collect();
    let tilt = Summary::of(&tilts);

    let (dominant_bin, dominant_power) = band
        .iter()
        .copied()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite powers"))
        .expect("band is nonempty");

    let mut v = [0.0; FEATURE_COUNT];
    v[0] = mag.mean;
    v[1] = mag.variance;
    v[2] = mag.std_dev();
    v[3] = mag.min;
    v[4] = mag.max;
    v[5] = mag.range();
    v[6] = mag.rms;
    v[7] = mean_abs_deviation(&mags);
    v[8] = mean_crossings(&mags) as f64;
    v[9] = skewness(&mags);
    v[10] = kurtosis(&mags);
    v[11..16].copy_from_slice(&band);
    v[16] = sx.mean;
    v[17] = sx.std_dev();
    v[18] = sx.variance;
    v[19] = sy.mean;
    v[20] = sy.std_dev();
    v[21] = sy.variance;
    v[22] = sz.mean;
    v[23] = sz.std_dev();
    v[24] = sz.variance;
    v[25] = pearson(&xs, &ys);
    v[26] = pearson(&xs, &zs);
    v[27] = pearson(&ys, &zs);
    v[28] = signal_magnitude_area(&xs, &ys, &zs);
    v[29] = tilt.mean;
    v[30] = tilt.std_dev();
    v[31] = if dominant_power > 1e-12 {
        (dominant_bin + 1) as f64
    } else {
        0.0
    };
    v
}

/// Rule pruning by linear scan: both passes test every positive rule's
/// antecedent and every negative rule's trigger against the evidence.
pub fn prune(rules: &RuleSet, evidence: &[ItemId], tick: &mut CandidateTick) -> PruneReport {
    let space = rules.space().clone();
    let mut report = PruneReport::default();
    for _ in 0..2 {
        let mut changed = false;
        for rule in rules.rules() {
            if !rule.fires_on(evidence) {
                continue;
            }
            let Some(item) = space.decode(rule.consequent) else {
                continue;
            };
            if item.lag != 0 {
                continue;
            }
            let removed = tick.users[item.user as usize].restrict(&space, item.atom);
            if removed > 0 {
                report.positive_fired += 1;
                report.removed += removed;
                changed = true;
            }
        }
        for neg in rules.negatives() {
            if evidence.binary_search(&neg.if_item).is_err() {
                continue;
            }
            let Some(item) = space.decode(neg.then_not) else {
                continue;
            };
            if item.lag != 0 {
                continue;
            }
            if tick.users[item.user as usize].forbid(&space, item.atom) {
                report.negative_fired += 1;
                report.removed += 1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    report
}

/// Candidate beaming by scoring every tuple, stable-sorting all of them by
/// log-likelihood (descending) and truncating to the beam.
pub fn from_candidates<F>(
    space: &AtomSpace,
    pruned: &[UserCandidates; 2],
    use_gestural: bool,
    max_candidates: usize,
    mut score: F,
) -> TickInput
where
    F: FnMut(usize, usize, Option<usize>, usize) -> f64,
{
    let mut out = TickInput::default();
    for u in 0..2 {
        let cand = &pruned[u];
        let posturals = UserCandidates::allowed(&cand.posturals);
        let gesturals: Vec<Option<usize>> = if use_gestural {
            UserCandidates::allowed(&cand.gesturals)
                .into_iter()
                .map(Some)
                .collect()
        } else {
            vec![None]
        };
        let locations = UserCandidates::allowed(&cand.locations);
        let mut tuples = Vec::new();
        for &p in &posturals {
            for &g in &gesturals {
                for &l in &locations {
                    let raw = score(u, p, g, l);
                    let obs_loglik = if raw.is_nan() { f64::NEG_INFINITY } else { raw };
                    tuples.push(MicroCandidate {
                        postural: p,
                        gestural: g,
                        location: l,
                        obs_loglik,
                    });
                }
            }
        }
        tuples.sort_by(|a, b| b.obs_loglik.total_cmp(&a.obs_loglik));
        tuples.truncate(max_candidates.max(1));
        out.candidates[u] = tuples;

        let macros = UserCandidates::allowed(&cand.macros);
        out.macro_candidates[u] = if macros.len() == space.n_macro {
            None
        } else {
            Some(macros)
        };
    }
    out
}

/// [`cace_core::statespace::build_tick_input`] with every tuple scored by
/// a full [`micro_score`] call.
pub fn build_tick_input(
    space: &AtomSpace,
    observed: &ObservedTick,
    scores: &TickScores,
    pruned: &[UserCandidates; 2],
    mask: StateMask,
    use_gestural: bool,
    beam: usize,
) -> TickInput {
    from_candidates(
        space,
        pruned,
        use_gestural && mask.gestural,
        beam,
        |u, p, g, l| micro_score(observed, scores, u, p, g, l, mask),
    )
}

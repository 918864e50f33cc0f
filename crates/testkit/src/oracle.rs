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

// ---------------------------------------------------------------------
// Single-statistic helpers of the reference feature kernel.
// ---------------------------------------------------------------------

/// A one-pass summary of a frame of samples.
///
/// Collects the statistical moments and extrema that make up most of the
/// paper's 32-feature frame vector.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Summary {
    /// Number of samples.
    count: usize,
    /// Arithmetic mean.
    mean: f64,
    /// Population variance.
    variance: f64,
    /// Minimum sample.
    min: f64,
    /// Maximum sample.
    max: f64,
    /// Root mean square.
    rms: f64,
}

impl Summary {
    /// Summarizes a slice. Returns the default (all-zero) summary for an
    /// empty slice.
    fn of(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let variance = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let rms = (samples.iter().map(|x| x * x).sum::<f64>() / n).sqrt();
        Self {
            count: samples.len(),
            mean,
            variance,
            min,
            max,
            rms,
        }
    }

    /// Population standard deviation.
    fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Peak-to-peak range.
    fn range(&self) -> f64 {
        self.max - self.min
    }
}

/// Mean absolute deviation around the mean.
fn mean_abs_deviation(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    samples.iter().map(|x| (x - mean).abs()).sum::<f64>() / samples.len() as f64
}

/// Number of mean crossings (a periodicity cue).
fn mean_crossings(samples: &[f64]) -> usize {
    if samples.len() < 2 {
        return 0;
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    samples
        .windows(2)
        .filter(|w| (w[0] - mean).signum() != (w[1] - mean).signum() && w[0] != w[1])
        .count()
}

/// Pearson correlation of two equal-length signals; `0.0` when either is
/// constant or the slices are empty.
///
/// # Panics
/// Panics if the slices have different lengths.
fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "pearson requires equal-length inputs");
    if a.is_empty() {
        return 0.0;
    }
    let n = a.len() as f64;
    let (ma, mb) = (a.iter().sum::<f64>() / n, b.iter().sum::<f64>() / n);
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma).powi(2);
        vb += (y - mb).powi(2);
    }
    if va == 0.0 || vb == 0.0 {
        0.0
    } else {
        cov / (va.sqrt() * vb.sqrt())
    }
}

/// Signal magnitude area of a 3-axis frame: `Σ(|x|+|y|+|z|) / n`.
fn signal_magnitude_area(x: &[f64], y: &[f64], z: &[f64]) -> f64 {
    let n = x.len().min(y.len()).min(z.len());
    if n == 0 {
        return 0.0;
    }
    (0..n)
        .map(|i| x[i].abs() + y[i].abs() + z[i].abs())
        .sum::<f64>()
        / n as f64
}

/// Sample skewness (0 for symmetric, empty, or constant signals).
fn skewness(samples: &[f64]) -> f64 {
    let s = Summary::of(samples);
    if s.count == 0 || s.variance == 0.0 {
        return 0.0;
    }
    let n = s.count as f64;
    let m3 = samples.iter().map(|x| (x - s.mean).powi(3)).sum::<f64>() / n;
    m3 / s.variance.powf(1.5)
}

/// Excess kurtosis (0 for a Gaussian; negative for flat distributions).
fn kurtosis(samples: &[f64]) -> f64 {
    let s = Summary::of(samples);
    if s.count == 0 || s.variance == 0.0 {
        return 0.0;
    }
    let n = s.count as f64;
    let m4 = samples.iter().map(|x| (x - s.mean).powi(4)).sum::<f64>() / n;
    m4 / (s.variance * s.variance) - 3.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.variance - 1.25).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.range() - 3.0).abs() < 1e-12);
        assert!((s.rms - (7.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_default() {
        assert_eq!(Summary::of(&[]), Summary::default());
    }

    #[test]
    fn mad_and_crossings() {
        assert!((mean_abs_deviation(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
        // A sawtooth around its mean crosses many times.
        let saw: Vec<f64> = (0..20)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert_eq!(mean_crossings(&saw), 19);
        assert_eq!(mean_crossings(&[5.0; 10]), 0);
    }

    #[test]
    fn pearson_correlations() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        let c = [4.0, 3.0, 2.0, 1.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-12);
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&a, &[1.0; 4]), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn pearson_length_mismatch() {
        pearson(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn sma() {
        assert!(
            (signal_magnitude_area(&[1.0, -1.0], &[2.0, -2.0], &[3.0, -3.0]) - 6.0).abs() < 1e-12
        );
        assert_eq!(signal_magnitude_area(&[], &[], &[]), 0.0);
    }

    #[test]
    fn skew_and_kurtosis_of_symmetric_signal() {
        let sym = [-2.0, -1.0, 0.0, 1.0, 2.0];
        assert!(skewness(&sym).abs() < 1e-12);
        // Uniform-ish distribution has negative excess kurtosis.
        assert!(kurtosis(&sym) < 0.0);
        // Right-skewed data has positive skewness.
        assert!(skewness(&[0.0, 0.0, 0.0, 0.0, 10.0]) > 0.0);
    }

    #[test]
    fn degenerate_moments_are_zero() {
        assert_eq!(skewness(&[3.0; 5]), 0.0);
        assert_eq!(kurtosis(&[]), 0.0);
    }
}

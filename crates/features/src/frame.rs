//! Frame-level feature extraction.

use cace_sensing::IMU_RATE_HZ;
use cace_signal::goertzel::GoertzelBand;
use cace_signal::trajectory::ImuSample;

use crate::schema::FEATURE_COUNT;

/// Samples per frame whose per-sample scratch (norms and tilts) lives on
/// the stack; a longer frame spills that scratch to the heap. The paper's
/// 1.5 s frames at the IMU rate are 75 samples.
const STACK_SAMPLES: usize = 128;

/// The 32-dimensional feature vector of one frame (see
/// [`crate::schema::feature_names`] for the layout).
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureVector {
    values: [f64; FEATURE_COUNT],
}

impl FeatureVector {
    /// Extracts the features of one IMU frame.
    ///
    /// An empty frame yields the all-zero vector (the classifier treats it
    /// as a missing observation).
    ///
    /// Two passes over the frame compute every statistic: the first the
    /// per-sample norms and tilts and every sum that needs no mean, the
    /// second every sum of deviations from a mean. Each accumulator adds
    /// the same terms in the same order as the single-statistic helpers of
    /// the reference kernel `cace_testkit::oracle::frame_features`
    /// (`Iterator::sum` starts at `-0.0`, the Pearson sums at `0.0`), so
    /// the features are bit-identical to computing each statistic on its
    /// own. Frames up to 128 samples allocate nothing.
    pub fn from_frame(frame: &[ImuSample]) -> Self {
        let len = frame.len();
        if len == 0 {
            return Self {
                values: [0.0; FEATURE_COUNT],
            };
        }
        let n = len as f64;
        let mut stack_mags = [0.0; STACK_SAMPLES];
        let mut stack_tilts = [0.0; STACK_SAMPLES];
        let mut heap = Vec::new();
        let (mags, tilts) = if len <= STACK_SAMPLES {
            (&mut stack_mags[..len], &mut stack_tilts[..len])
        } else {
            heap.resize(2 * len, 0.0);
            heap.split_at_mut(len)
        };

        // Pass 1: norms, tilts (angle between the acceleration and ẑ), and
        // the mean-free sums.
        let (mut sum_m, mut sum_m_sq) = (-0.0, -0.0);
        let (mut min_m, mut max_m) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut sum_x, mut sum_y, mut sum_z) = (-0.0, -0.0, -0.0);
        let (mut sum_abs, mut sum_tilt) = (-0.0, -0.0);
        for (i, s) in frame.iter().enumerate() {
            let a = s.accel;
            let m = a.norm();
            let tilt = if m == 0.0 {
                0.0
            } else {
                (a.z / m).clamp(-1.0, 1.0).acos()
            };
            mags[i] = m;
            tilts[i] = tilt;
            sum_m += m;
            sum_m_sq += m * m;
            min_m = min_m.min(m);
            max_m = max_m.max(m);
            sum_x += a.x;
            sum_y += a.y;
            sum_z += a.z;
            sum_abs += a.x.abs() + a.y.abs() + a.z.abs();
            sum_tilt += tilt;
        }
        let mean_m = sum_m / n;
        let (mean_x, mean_y, mean_z) = (sum_x / n, sum_y / n, sum_z / n);
        let mean_tilt = sum_tilt / n;

        // Pass 2: deviations. The de-meaned magnitude (gravity DC removed)
        // also feeds the spectral features.
        let mut band = GoertzelBand::new(len, IMU_RATE_HZ);
        let (mut dev2_m, mut dev_abs_m, mut dev3_m, mut dev4_m) = (-0.0, -0.0, -0.0, -0.0);
        let (mut dev2_x, mut dev2_y, mut dev2_z) = (-0.0, -0.0, -0.0);
        let (mut cov_xy, mut cov_xz, mut cov_yz) = (0.0, 0.0, 0.0);
        let mut dev2_tilt = -0.0;
        let mut crossings = 0usize;
        for i in 0..len {
            let d = mags[i] - mean_m;
            band.push(d);
            dev2_m += d.powi(2);
            dev_abs_m += d.abs();
            dev3_m += d.powi(3);
            dev4_m += d.powi(4);
            if i > 0 {
                let prev = mags[i - 1];
                let crossed = ((prev - mean_m).signum() != d.signum()) & (prev != mags[i]);
                crossings += usize::from(crossed);
            }
            let a = frame[i].accel;
            let (dx, dy, dz) = (a.x - mean_x, a.y - mean_y, a.z - mean_z);
            dev2_x += dx.powi(2);
            dev2_y += dy.powi(2);
            dev2_z += dz.powi(2);
            cov_xy += dx * dy;
            cov_xz += dx * dz;
            cov_yz += dy * dz;
            dev2_tilt += (tilts[i] - mean_tilt).powi(2);
        }
        let band = band.finish();
        let var_m = dev2_m / n;
        let (var_x, var_y, var_z) = (dev2_x / n, dev2_y / n, dev2_z / n);
        // The Pearson denominators are the axes' squared-deviation sums:
        // squares are never -0.0, so the 0.0 and -0.0 starts agree.
        let pearson = |cov: f64, va: f64, vb: f64| {
            if va == 0.0 || vb == 0.0 {
                0.0
            } else {
                cov / (va.sqrt() * vb.sqrt())
            }
        };
        // Total order: a non-finite sample must not panic the serving path.
        // Powers are never -0.0, so on finite input this picks the bin a
        // partial-order comparison would.
        let (dominant_bin, dominant_power) = band
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("band is nonempty");

        let mut v = [0.0; FEATURE_COUNT];
        v[0] = mean_m;
        v[1] = var_m;
        v[2] = var_m.sqrt();
        v[3] = min_m;
        v[4] = max_m;
        v[5] = max_m - min_m;
        v[6] = (sum_m_sq / n).sqrt();
        v[7] = dev_abs_m / n;
        v[8] = crossings as f64;
        if var_m != 0.0 {
            v[9] = (dev3_m / n) / var_m.powf(1.5);
            v[10] = (dev4_m / n) / (var_m * var_m) - 3.0;
        }
        v[11..16].copy_from_slice(&band);
        v[16] = mean_x;
        v[17] = var_x.sqrt();
        v[18] = var_x;
        v[19] = mean_y;
        v[20] = var_y.sqrt();
        v[21] = var_y;
        v[22] = mean_z;
        v[23] = var_z.sqrt();
        v[24] = var_z;
        v[25] = pearson(cov_xy, dev2_x, dev2_y);
        v[26] = pearson(cov_xz, dev2_x, dev2_z);
        v[27] = pearson(cov_yz, dev2_y, dev2_z);
        v[28] = sum_abs / n;
        v[29] = mean_tilt;
        v[30] = (dev2_tilt / n).sqrt();
        v[31] = if dominant_power > 1e-12 {
            (dominant_bin + 1) as f64
        } else {
            0.0
        };
        Self { values: v }
    }

    /// The feature values as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// The feature values as an owned `Vec`.
    pub fn to_vec(&self) -> Vec<f64> {
        self.values.to_vec()
    }

    /// Whether every component is finite (guards classifier training).
    pub fn is_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }
}

impl From<FeatureVector> for Vec<f64> {
    fn from(f: FeatureVector) -> Vec<f64> {
        f.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cace_model::{Gestural, Postural};
    use cace_sensing::{ImuSynthesizer, NoiseConfig};
    use cace_signal::GaussianSampler;

    fn synth_frame(p: Postural, seed: u64) -> Vec<ImuSample> {
        let synth = ImuSynthesizer::new(NoiseConfig::default());
        let mut rng = GaussianSampler::seed_from_u64(seed);
        synth.phone_frame(p, 75, &mut rng)
    }

    #[test]
    fn vector_has_32_finite_components() {
        let f = FeatureVector::from_frame(&synth_frame(Postural::Walking, 1));
        assert_eq!(f.as_slice().len(), FEATURE_COUNT);
        assert!(f.is_finite());
    }

    #[test]
    fn empty_frame_yields_zero_vector() {
        let f = FeatureVector::from_frame(&[]);
        assert!(f.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn walking_and_lying_are_separable() {
        // Key separability sanity check: the std of the magnitude stream
        // must be far larger when walking.
        let walk = FeatureVector::from_frame(&synth_frame(Postural::Walking, 2));
        let lie = FeatureVector::from_frame(&synth_frame(Postural::Lying, 3));
        assert!(
            walk.as_slice()[2] > 3.0 * lie.as_slice()[2],
            "walking std {} vs lying std {}",
            walk.as_slice()[2],
            lie.as_slice()[2]
        );
    }

    #[test]
    fn tilt_separates_sitting_from_standing() {
        // Sitting tilts the pocket phone (profile tilt 0.9 rad) while
        // standing keeps it upright.
        let sit = FeatureVector::from_frame(&synth_frame(Postural::Sitting, 4));
        let stand = FeatureVector::from_frame(&synth_frame(Postural::Standing, 5));
        assert!(
            sit.as_slice()[29] > stand.as_slice()[29] + 0.3,
            "sit tilt {} vs stand tilt {}",
            sit.as_slice()[29],
            stand.as_slice()[29]
        );
    }

    #[test]
    fn dominant_bin_tracks_cadence() {
        // Running (≈2.9 Hz) should have a higher dominant bin than cycling
        // (≈1.4 Hz) in most draws.
        let mut run_higher = 0;
        for seed in 0..10 {
            let run = FeatureVector::from_frame(&synth_frame(Postural::Running, 100 + seed));
            let cyc = FeatureVector::from_frame(&synth_frame(Postural::Cycling, 200 + seed));
            if run.as_slice()[31] >= cyc.as_slice()[31] {
                run_higher += 1;
            }
        }
        assert!(
            run_higher >= 7,
            "running bin should usually dominate: {run_higher}/10"
        );
    }

    #[test]
    fn gestural_frames_extract_too() {
        let synth = ImuSynthesizer::new(NoiseConfig::default());
        let mut rng = GaussianSampler::seed_from_u64(9);
        let frame = synth.tag_frame(Gestural::Laughing, Postural::Sitting, 75, &mut rng);
        let f = FeatureVector::from_frame(&frame);
        assert!(f.is_finite());
        // Laughing is a 5 Hz gesture; spectral energy should concentrate in
        // the upper bins.
        let low = f.as_slice()[11];
        let high = f.as_slice()[15];
        assert!(high > 0.0 && high + low > 0.0);
    }
}

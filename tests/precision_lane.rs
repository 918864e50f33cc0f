//! Tolerance suite for the `f32` fast scoring lane (PR 6).
//!
//! Contract: [`Precision::Fast32`] is an *approximate* lane — unlike the
//! bit-identity suites in `tests/score_tables.rs`, the properties here
//! bound its divergence from the exact `f64` lane instead of forbidding
//! it. Three layers:
//!
//! 1. **Table entries** — every `f32` mirror entry tracks its `f64`
//!    source within cast rounding; `−∞` structure (switch diagonal,
//!    impossible transitions) is preserved exactly, and no finite score
//!    is flushed to `−∞` or `NaN` by the cast.
//! 2. **Degenerate statistics** — deeply clamped `log_end` /
//!    `log_continue` boundaries (vanishing Laplace mass, probabilities
//!    down in the `f64` subnormal range whose logs reach ≈ −745) decode
//!    without `NaN` or spurious `−∞` in either lane.
//! 3. **Fig 9 workload** — on the CASAS-style corpus the fast lane must
//!    agree with the exact lane on ≥ 99% of per-tick macro decisions and
//!    stay within 0.1 pp macro-averaged accuracy
//!    ([`cace_testkit::assert_lane_tolerance`]).

use proptest::prelude::*;

use cace::behavior::session::train_test_split;
use cace::behavior::{generate_casas_dataset, CasasConfig};
use cace::core::{CaceConfig, DecoderConfig, Recognition, Strategy};
use cace::hdbn::{CoupledHdbn, HdbnConfig, HdbnParams, MicroCandidate, Scalar, TickInput};
use cace::mining::constraint::{ConstraintMiner, LabeledSequence};
use cace_testkit::{assert_lane_tolerance, engine_with};

/// Deterministic xorshift for data generation inside a property.
struct Rng(u64);
impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn f64(&mut self) -> f64 {
        (self.next() % 10_000) as f64 / 10_000.0
    }
}

/// Random mined statistics over a small random vocabulary (the
/// `tests/score_tables.rs` generator, with the Laplace mass injectable so
/// the degenerate-boundary properties can drive it toward zero).
fn random_params(rng: &mut Rng, config: HdbnConfig, laplace: f64) -> HdbnParams {
    let n_macro = 2 + rng.below(2); // 2..=3
    let n_postural = 2 + rng.below(2);
    let n_gestural = 2;
    let n_location = 2 + rng.below(2);
    let len = 60 + rng.below(60);
    let mut seq = LabeledSequence::default();
    for u in 0..2 {
        let mut run = rng.below(n_macro);
        for t in 0..len {
            if t % (5 + rng.below(10)) == 0 {
                run = rng.below(n_macro);
            }
            seq.macros[u].push(run);
            seq.posturals[u].push(rng.below(n_postural));
            seq.gesturals[u].push(rng.below(n_gestural));
            seq.locations[u].push(rng.below(n_location));
        }
    }
    let stats = ConstraintMiner {
        laplace,
        n_macro,
        n_postural,
        n_gestural,
        n_location,
    }
    .mine(&[seq])
    .expect("random stats mine");
    HdbnParams::new(stats, config).expect("random params build")
}

/// Random tick stream over the params' vocabulary (same shape as the
/// score-table differential suite).
fn random_ticks(rng: &mut Rng, p: &HdbnParams, len: usize) -> Vec<TickInput> {
    let stats = &p.stats;
    let use_gestural = rng.below(2) == 0;
    (0..len)
        .map(|_| {
            let mut tick = TickInput::default();
            for u in 0..2 {
                let n_cand = 1 + rng.below(3);
                tick.candidates[u] = (0..n_cand)
                    .map(|_| MicroCandidate {
                        postural: rng.below(stats.n_postural),
                        gestural: if use_gestural {
                            Some(rng.below(stats.n_gestural))
                        } else {
                            None
                        },
                        location: rng.below(stats.n_location),
                        obs_loglik: -6.0 * rng.f64(),
                    })
                    .collect();
            }
            tick
        })
        .collect()
}

/// The configuration extremes the mirror must be correct under.
fn configs() -> Vec<HdbnConfig> {
    vec![
        HdbnConfig::default(),
        HdbnConfig::uncoupled(),
        HdbnConfig {
            coupling_weight: 4.0,
            hierarchy_weight: 0.0,
            persistence_bonus: 0.0,
        },
        HdbnConfig {
            coupling_weight: 0.0,
            hierarchy_weight: 3.0,
            persistence_bonus: 0.9,
        },
    ]
}

/// Asserts one `f32` mirror entry against its `f64` source: `−∞` maps to
/// `−∞`, finite maps to finite within `f32` cast rounding (relative
/// 2⁻²⁴-ish, with an absolute floor for near-zero log scores).
fn assert_entry_tracks(fast: f32, exact: f64, what: &str) {
    if exact == f64::NEG_INFINITY {
        assert_eq!(fast, f32::NEG_INFINITY, "{what}: -inf not preserved");
        return;
    }
    assert!(exact.is_finite(), "{what}: f64 table holds {exact}");
    assert!(
        fast.is_finite(),
        "{what}: finite f64 {exact} flushed to {fast}"
    );
    let err = (f64::from(fast) - exact).abs();
    let bound = exact.abs().max(1.0) * 1e-6;
    assert!(
        err <= bound,
        "{what}: |{fast} - {exact}| = {err:e} > {bound:e}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Mirror contract: every `f32` table entry — transition kernel (both
    /// orientations via the public accessor), coupling, hierarchy with and
    /// without the gestural modality — tracks its `f64` source within cast
    /// rounding, across config extremes. `−∞` structure survives exactly
    /// and nothing finite is flushed.
    #[test]
    fn f32_table_entries_track_f64_within_cast_error(seed in 0u64..10_000) {
        let mut rng = Rng::new(seed);
        for config in configs() {
            let laplace = 0.05 + rng.f64();
            let p = random_params(&mut rng, config, laplace);
            let t64 = &p.tables;
            let t32 = p.tables_f32();
            let stats = &p.stats;
            for ap in 0..stats.n_macro {
                for pp in 0..stats.n_postural {
                    for a in 0..stats.n_macro {
                        for pn in 0..stats.n_postural {
                            let src64 = t64.pair(ap, pp);
                            let dst64 = t64.pair(a, pn);
                            prop_assert_eq!(src64, t32.pair(ap, pp));
                            assert_entry_tracks(
                                t32.transition(src64, dst64),
                                t64.transition(src64, dst64),
                                "transition",
                            );
                        }
                    }
                }
            }
            for a1 in 0..stats.n_macro {
                for a2 in 0..stats.n_macro {
                    assert_entry_tracks(
                        t32.coupling(a1, a2),
                        t64.coupling(a1, a2),
                        "coupling",
                    );
                }
            }
            for a in 0..stats.n_macro {
                for post in 0..stats.n_postural {
                    for loc in 0..stats.n_location {
                        assert_entry_tracks(
                            t32.hierarchy(a, post, None, loc),
                            t64.hierarchy(a, post, None, loc),
                            "hierarchy (no gestural)",
                        );
                        for g in 0..stats.n_gestural {
                            assert_entry_tracks(
                                t32.hierarchy(a, post, Some(g), loc),
                                t64.hierarchy(a, post, Some(g), loc),
                                "hierarchy",
                            );
                        }
                    }
                }
            }
        }
    }

    /// Degenerate-boundary contract: with the Laplace mass driven down to
    /// the `f64` subnormal regime, rarely-taken `log_end` / `log_switch`
    /// boundaries bottom out near `ln(5e-324) ≈ −744.4` — far outside a
    /// naive "fits in f32 after exp" intuition but squarely inside the
    /// finite `f32` log range. Both lanes must decode the same stream with
    /// a finite log-probability and no `NaN` anywhere in the result.
    #[test]
    fn clamped_end_boundaries_stay_finite_in_both_lanes(
        seed in 0u64..10_000,
        len in 8usize..24,
    ) {
        let mut rng = Rng::new(seed);
        for laplace in [1e-9, 1e-30, 1e-300, 5e-324] {
            let p = random_params(&mut rng, HdbnConfig::default(), laplace);
            let ticks = random_ticks(&mut rng, &p, len);
            let exact = CoupledHdbn::new(p.clone())
                .viterbi(&ticks)
                .expect("exact decode");
            let fast = CoupledHdbn::new(p)
                .with_decoder(DecoderConfig::exact().fast32())
                .viterbi(&ticks)
                .expect("fast decode");
            prop_assert!(
                exact.log_prob.is_finite(),
                "f64 log_prob {} at laplace {laplace:e}", exact.log_prob
            );
            prop_assert!(
                fast.log_prob.is_finite(),
                "f32 log_prob {} at laplace {laplace:e}", fast.log_prob
            );
            prop_assert_eq!(fast.macros[0].len(), exact.macros[0].len());
        }
    }

    /// Cast contract on the subnormal range itself: the log of every
    /// probability down to the smallest positive `f64` subnormal is a
    /// finite score, and [`Scalar::from_f64`] carries it into `f32`
    /// without flushing to `−∞` (a bare saturating cast would only fail
    /// beyond ±3.4e38; this pins the invariant against any future
    /// "optimized" cast that exponentiates or rescales).
    #[test]
    fn subnormal_probabilities_round_trip_without_flushing(
        exp in 1u32..1074, // 2^-1074 is the smallest positive subnormal
    ) {
        // Split the exponent so neither factor leaves normal f64 range
        // (2^-1073 computed in one powi goes through 2^1073 = inf → 0);
        // the product is a power of two, hence exact down to 2^-1074.
        let half = (exp / 2) as i32;
        let prob = 2f64.powi(-half) * 2f64.powi(half - exp as i32);
        prop_assert!(prob > 0.0);
        let log64 = prob.ln();
        prop_assert!(log64.is_finite());
        let log32 = <f32 as Scalar>::from_f64(log64);
        prop_assert!(log32.is_finite(), "ln({prob:e}) = {log64} flushed to {log32}");
        let err = (f64::from(log32) - log64).abs();
        prop_assert!(err <= log64.abs().max(1.0) * 1e-6);
    }
}

/// Fig 9 tolerance contract: on the CASAS-style workload under the C2
/// strategy, the `f32` lane agrees with the `f64` lane on ≥ 99% of
/// per-tick macro decisions and its macro-averaged accuracy is within
/// 0.1 pp — the acceptance bound the `kernels` bench re-measures on the
/// full-size corpus.
#[test]
fn fast32_lane_meets_fig9_tolerance_contract() {
    let cfg = CasasConfig {
        pairs: 3,
        sessions_per_pair: 2,
        ticks: 150,
        ..CasasConfig::default()
    };
    let sessions = generate_casas_dataset(&cfg, 6101);
    let (train, test) = train_test_split(sessions, 0.8);
    let base = CaceConfig::default().with_strategy(Strategy::CorrelationConstraint);
    let exact_engine = engine_with(&train, &base);
    let fast_engine = exact_engine.with_decoder(DecoderConfig::exact().fast32());

    let truth: Vec<[Vec<usize>; 2]> = test
        .iter()
        .map(|s| [s.labels_of(0), s.labels_of(1)])
        .collect();
    let decode = |e: &cace::core::CaceEngine| -> Vec<Recognition> {
        test.iter()
            .map(|s| e.recognize(s).expect("recognize"))
            .collect()
    };
    assert_lane_tolerance(
        &truth,
        &decode(&exact_engine),
        &decode(&fast_engine),
        0.99,
        0.001,
        "fig9 C2 f32 lane",
    );
}

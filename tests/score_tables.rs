//! Differential suite for the dense precomputed score tables and the
//! arena-based step kernels (PR 5).
//!
//! Contract: every decode path that now scores through
//! [`ScoreTables`](cace::hdbn::ScoreTables) — the coupled and single-chain
//! Viterbi decodes (batch entry points and online pushes, one decode loop),
//! forward–backward, and the EM expected counts — is **bit-identical** to
//! the naive reference implementations in `cace_testkit::naive`, which
//! score every edge directly through `HdbnParams::transition_score` /
//! `hierarchy_score` exactly as the pre-table decoders did. Beam-pruned
//! decodes are held to the survivor-restricted references. The properties
//! run over random mined statistics, random tick streams (candidate
//! restrictions, macro bonuses, missing gesturals), and configuration
//! extremes (`coupling_weight` / `hierarchy_weight` at 0 and far above 1,
//! persistence bonuses), plus an engine-level sweep across the four
//! strategies.

use proptest::prelude::*;

use cace::core::{DecoderConfig, Strategy};
use cace::hdbn::{
    Beam, CoupledHdbn, HdbnConfig, HdbnParams, Lag, MicroCandidate, OnlineCoupledViterbi,
    OnlineSingleViterbi, SingleHdbn, TickInput,
};
use cace::mining::constraint::{ConstraintMiner, LabeledSequence};
use cace::mining::HierarchicalStats;
use cace_testkit::naive::{
    naive_accumulate_counts, naive_coupled_viterbi, naive_forward_backward, naive_single_viterbi,
};
use cace_testkit::{
    assert_recognition_matches_references, engine, tiny_corpus, toy_glitchy_ticks,
    toy_two_activity_params,
};

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

/// Random mined statistics over a small random vocabulary.
fn random_params(rng: &mut Rng, config: HdbnConfig) -> HdbnParams {
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
        laplace: 0.05 + rng.f64(),
        n_macro,
        n_postural,
        n_gestural,
        n_location,
    }
    .mine(&[seq])
    .expect("random stats mine");
    HdbnParams::new(stats, config).expect("random params build")
}

/// Random tick stream over the params' vocabulary: per-tick candidate
/// counts, observation scores, occasional macro restrictions and bonuses,
/// occasional missing gestural modality.
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
                if rng.below(4) == 0 {
                    // Random nonempty macro restriction.
                    let keep: Vec<usize> =
                        (0..stats.n_macro).filter(|_| rng.below(2) == 0).collect();
                    if !keep.is_empty() && keep.len() < stats.n_macro {
                        tick.macro_candidates[u] = Some(keep);
                    }
                }
            }
            if rng.below(3) == 0 {
                tick.macro_bonus = (0..stats.n_macro).map(|_| 2.0 * rng.f64() - 1.0).collect();
            }
            tick
        })
        .collect()
}

/// Statistics whose every distribution row is uniform, with every episode
/// ending at probability ½: all continue scores are equal, all switch
/// scores are equal, and coupling and hierarchy scores are constant, so
/// paths tie whenever their observation sums do.
fn uniform_params(n_macro: usize, n_postural: usize, n_location: usize) -> HdbnParams {
    let table = |rows: usize, n: usize| vec![vec![1.0 / n as f64; n]; rows];
    let stats = HierarchicalStats {
        n_macro,
        n_postural,
        n_gestural: 2,
        n_location,
        macro_prior: vec![1.0 / n_macro as f64; n_macro],
        intra_trans: table(n_macro, n_macro),
        inter_cooc: table(n_macro, n_macro),
        end_prob: vec![0.5; n_macro],
        postural_given_macro: table(n_macro, n_postural),
        gestural_given_macro: table(n_macro, 2),
        location_given_macro: table(n_macro, n_location),
        postural_trans: table(n_postural, n_postural),
    };
    HdbnParams::new(stats, HdbnConfig::default()).expect("uniform params build")
}

/// Ticks over `p`'s vocabulary whose observation scores come from the
/// lattice {0, -⅛, -¼, -⅜}, so candidate scores collide.
fn lattice_ticks(rng: &mut Rng, p: &HdbnParams, len: usize) -> Vec<TickInput> {
    let stats = &p.stats;
    (0..len)
        .map(|_| {
            let mut tick = TickInput::default();
            for u in 0..2 {
                tick.candidates[u] = (0..1 + rng.below(3))
                    .map(|_| MicroCandidate {
                        postural: rng.below(stats.n_postural),
                        gestural: None,
                        location: rng.below(stats.n_location),
                        obs_loglik: -(rng.below(4) as f64) / 8.0,
                    })
                    .collect();
            }
            tick
        })
        .collect()
}

/// The frontier beams every decode contract runs under: exact, a tight
/// top-k, and a log-threshold (the pruned ones against the
/// survivor-restricted references).
const BEAMS: [Beam; 3] = [Beam::Exact, Beam::TopK(3), Beam::LogThreshold(1.5)];

/// The configuration extremes the tables must be built correctly under.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Primitive contract: every dense-table entry is a bitwise copy of
    /// the naive scorer it was built from, across config extremes.
    #[test]
    fn table_entries_are_bitwise_copies_of_direct_scoring(seed in 0u64..10_000) {
        let mut rng = Rng::new(seed);
        for config in configs() {
            let p = random_params(&mut rng, config);
            let t = &p.tables;
            let stats = &p.stats;
            for ap in 0..stats.n_macro {
                for pp in 0..stats.n_postural {
                    for a in 0..stats.n_macro {
                        for pn in 0..stats.n_postural {
                            let naive = p.transition_score(ap, pp, a, pn);
                            let fast = t.transition(t.pair(ap, pp), t.pair(a, pn));
                            prop_assert_eq!(fast.to_bits(), naive.to_bits());
                        }
                    }
                }
            }
            for a1 in 0..stats.n_macro {
                for a2 in 0..stats.n_macro {
                    prop_assert_eq!(
                        t.coupling(a1, a2).to_bits(),
                        p.coupling_score(a1, a2).to_bits()
                    );
                }
            }
            for a in 0..stats.n_macro {
                for post in 0..stats.n_postural {
                    for loc in 0..stats.n_location {
                        prop_assert_eq!(
                            t.hierarchy(a, post, None, loc).to_bits(),
                            p.hierarchy_score(a, post, None, loc).to_bits()
                        );
                        for g in 0..stats.n_gestural {
                            prop_assert_eq!(
                                t.hierarchy(a, post, Some(g), loc).to_bits(),
                                p.hierarchy_score(a, post, Some(g), loc).to_bits()
                            );
                        }
                    }
                }
            }
        }
    }

    /// Decode contract, batch entry points: the table-scored decoders
    /// reproduce the naive references float for float — coupled and
    /// single chains, paths, micro tuples and overhead counters — exact
    /// and beam-pruned.
    #[test]
    fn batch_decodes_match_naive_scoring_bit_for_bit(
        seed in 0u64..10_000,
        len in 8usize..40,
    ) {
        let mut rng = Rng::new(seed);
        for config in configs() {
            let p = random_params(&mut rng, config);
            let ticks = random_ticks(&mut rng, &p, len);
            for beam in BEAMS {
                let decoder = DecoderConfig { beam, ..DecoderConfig::exact() };
                let want = naive_coupled_viterbi(&p, &ticks, beam);
                let got = CoupledHdbn::new(p.clone())
                    .with_decoder(decoder)
                    .viterbi(&ticks)
                    .expect("decode");
                prop_assert_eq!(&got, &want, "coupled {:?}", beam);
                prop_assert_eq!(got.log_prob.to_bits(), want.log_prob.to_bits(), "coupled log_prob");

                let single = SingleHdbn::new(p.clone()).with_decoder(decoder);
                for user in 0..2 {
                    let want = naive_single_viterbi(&p, &ticks, user, beam);
                    let got = single.viterbi(&ticks, user).expect("single decode");
                    prop_assert_eq!(&got, &want, "single {:?} user {}", beam, user);
                    prop_assert_eq!(got.log_prob.to_bits(), want.log_prob.to_bits(), "single log_prob");
                }
            }
        }
    }

    /// Decode contract, streaming: the arena-pooled online decoders at
    /// unbounded lag never emit mid-stream and finalize to the naive
    /// references (so pooling the window entries changed no arithmetic),
    /// exact and beam-pruned.
    #[test]
    fn streaming_decode_matches_naive_scoring(
        seed in 0u64..10_000,
        len in 8usize..30,
    ) {
        let mut rng = Rng::new(seed);
        for config in configs() {
            let p = random_params(&mut rng, config);
            let ticks = random_ticks(&mut rng, &p, len);
            for beam in BEAMS {
                let decoder = DecoderConfig { beam, ..DecoderConfig::exact() };
                let model = CoupledHdbn::new(p.clone()).with_decoder(decoder);
                let mut online = OnlineCoupledViterbi::new(model, Lag::Unbounded);
                for tick in &ticks {
                    prop_assert_eq!(online.push(tick).expect("push"), None);
                }
                let got = online.finalize().expect("finalize");
                let want = naive_coupled_viterbi(&p, &ticks, beam);
                prop_assert_eq!(&got, &want, "coupled {:?}", beam);
                prop_assert_eq!(got.log_prob.to_bits(), want.log_prob.to_bits());

                let model = SingleHdbn::new(p.clone()).with_decoder(decoder);
                for user in 0..2 {
                    let mut online = OnlineSingleViterbi::new(model.clone(), user, Lag::Unbounded);
                    for tick in &ticks {
                        prop_assert_eq!(online.push(tick).expect("push"), None);
                    }
                    let got = online.finalize().expect("finalize");
                    let want = naive_single_viterbi(&p, &ticks, user, beam);
                    prop_assert_eq!(&got, &want, "single {:?} user {}", beam, user);
                    prop_assert_eq!(got.log_prob.to_bits(), want.log_prob.to_bits());
                }
            }
        }
    }

    /// Tie-breaking contract: on uniform statistics with lattice-valued
    /// observations, equal scores are common, and the batch decode and the
    /// streaming push must still pick the naive reference's first strict
    /// maximum every time — paths, micro tuples and log-score bits, exact
    /// and beam-pruned.
    #[test]
    fn tied_scores_break_like_naive_scoring(
        seed in 0u64..10_000,
        len in 6usize..30,
    ) {
        let mut rng = Rng::new(seed);
        let p = uniform_params(2 + rng.below(2), 1 + rng.below(3), 1 + rng.below(2));
        let ticks = lattice_ticks(&mut rng, &p, len);
        for beam in [Beam::Exact, Beam::TopK(3), Beam::TopK(7), Beam::LogThreshold(0.25)] {
            let want = naive_coupled_viterbi(&p, &ticks, beam);
            let model = CoupledHdbn::new(p.clone())
                .with_decoder(DecoderConfig { beam, ..DecoderConfig::exact() });
            let batch = model.viterbi(&ticks).expect("decode");
            let mut online = OnlineCoupledViterbi::new(model, Lag::Unbounded);
            for tick in &ticks {
                online.push(tick).expect("push");
            }
            let streamed = online.finalize().expect("finalize");
            for got in [batch, streamed] {
                prop_assert_eq!(&got, &want, "{:?}", beam);
                prop_assert_eq!(got.log_prob.to_bits(), want.log_prob.to_bits());
            }
        }
    }

    /// Inference contract: forward–backward posteriors and the EM expected
    /// counts — the sum-based paths — are bitwise unchanged by table
    /// scoring and the hoisted term buffers.
    #[test]
    fn posteriors_and_em_counts_match_naive_scoring(
        seed in 0u64..10_000,
        len in 6usize..25,
    ) {
        let mut rng = Rng::new(seed);
        for config in configs() {
            let p = random_params(&mut rng, config);
            let ticks = random_ticks(&mut rng, &p, len);
            let stats = &p.stats;
            let model = SingleHdbn::new(p.clone());
            for user in 0..2 {
                let (naive_gamma, naive_ll) = naive_forward_backward(&p, &ticks, user);
                let post = model.forward_backward(&ticks, user).expect("fb");
                prop_assert_eq!(post.log_likelihood.to_bits(), naive_ll.to_bits());
                prop_assert_eq!(post.gamma.len(), naive_gamma.len());
                for (g_fast, g_naive) in post.gamma.iter().zip(&naive_gamma) {
                    for (a, b) in g_fast.iter().zip(g_naive) {
                        prop_assert_eq!(a.to_bits(), b.to_bits(), "gamma entry");
                    }
                }

                let zeros = || cace::hdbn::single::ExpectedCounts::zeros(
                    stats.n_macro,
                    stats.n_postural,
                    stats.n_gestural,
                    stats.n_location,
                );
                let mut fast_counts = zeros();
                model
                    .accumulate_counts(&ticks, user, &mut fast_counts)
                    .expect("counts");
                let mut naive_counts = zeros();
                naive_accumulate_counts(&p, &ticks, user, &mut naive_counts);
                prop_assert_eq!(&fast_counts, &naive_counts, "expected counts user {}", user);
            }
        }
    }

    /// Engine-level contract across strategies: the engine's recognition
    /// equals the naive reference decoders over its own prepared state
    /// spaces (C2/NCS coupled, NCR per-chain), macros and overhead
    /// counters; NH's flat product decoder is held to its naive
    /// per-state × per-source reference in `cace-core`'s `nh` unit tests.
    /// All four strategies run end to end, in the exact lane whatever the
    /// suite's `CACE_FAST32` setting.
    #[test]
    fn engine_recognition_matches_naive_reference_decoders(
        seed in 0u64..1_000,
        ticks in 45usize..60,
    ) {
        let (train, test) = tiny_corpus(3, ticks, seed);
        for strategy in Strategy::ALL {
            let engine = engine(&train, strategy).with_decoder(DecoderConfig::exact());
            let session = &test[0];
            let rec = engine.recognize(session).expect("recognize");
            prop_assert_eq!(rec.macros[0].len(), session.len());
            assert_recognition_matches_references(&engine, session, &rec, strategy.label());
        }
    }
}

/// The toy two-activity world under the beams that actually prune its
/// frontier: streamed decodes (unbounded lag, never emitting) equal the
/// survivor-restricted naive references in full — paths, micro tuples,
/// log-score bits and counters — and the beams really did cut transition
/// work below the exact decode.
#[test]
fn toy_world_beamed_streams_match_restricted_references() {
    let ticks = toy_glitchy_ticks(30);
    let coupled = toy_two_activity_params(true);
    let exact = naive_coupled_viterbi(&coupled, &ticks, Beam::Exact);
    for beam in [Beam::Exact, Beam::TopK(4), Beam::LogThreshold(3.0)] {
        let decoder = DecoderConfig {
            beam,
            ..DecoderConfig::exact()
        };
        let model = CoupledHdbn::new(coupled.clone()).with_decoder(decoder);
        let mut online = OnlineCoupledViterbi::new(model, Lag::Unbounded);
        for tick in &ticks {
            assert_eq!(online.push(tick).unwrap(), None, "unbounded never emits");
        }
        let got = online.finalize().unwrap();
        let want = naive_coupled_viterbi(&coupled, &ticks, beam);
        assert_eq!(got, want, "{beam:?}");
        assert_eq!(got.log_prob.to_bits(), want.log_prob.to_bits(), "{beam:?}");
        if beam != Beam::Exact {
            assert!(got.transition_ops < exact.transition_ops, "{beam:?} prunes");
        }
    }

    let single = toy_two_activity_params(false);
    for beam in [Beam::Exact, Beam::TopK(2)] {
        let decoder = DecoderConfig {
            beam,
            ..DecoderConfig::exact()
        };
        let model = SingleHdbn::new(single.clone()).with_decoder(decoder);
        for user in 0..2 {
            let mut online = OnlineSingleViterbi::new(model.clone(), user, Lag::Unbounded);
            for tick in &ticks {
                assert_eq!(online.push(tick).unwrap(), None, "unbounded never emits");
            }
            let got = online.finalize().unwrap();
            let want = naive_single_viterbi(&single, &ticks, user, beam);
            assert_eq!(got, want, "{beam:?} user {user}");
            assert_eq!(got.log_prob.to_bits(), want.log_prob.to_bits());
        }
    }
}

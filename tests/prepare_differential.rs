//! Differential gate for tick preparation: the production frame-feature
//! kernel, rule pruner and candidate beam are **bit-identical** to the
//! straightforward reference implementations in `cace_testkit::oracle`.
//!
//! Each property draws its inputs from a seeded sampler and aims at the
//! shapes where a fused or indexed kernel could drift from the reference:
//!
//! * frames: empty, one sample, constant (variance 0), zero-norm samples,
//!   longer than the kernel's stack scratch, and realistic synthesized
//!   frames;
//! * candidates: tie-heavy and fully uniform scores (what a dropped frame
//!   produces), NaN scores (clamped to -inf), beams of 1, exactly the
//!   candidate count, and beyond it;
//! * rule sets: empty antecedents, duplicate rules, lag-1 antecedents and
//!   consequents, room consequents, undecodable items, and negative rules
//!   sharing a trigger.

use proptest::prelude::*;

use cace::behavior::{
    cace_grammar, generate_casas_dataset, simulate_session, CasasConfig, ObservedTick,
    SessionConfig,
};
use cace::core::statespace::{build_tick_input, TickScores};
use cace::features::FeatureVector;
use cace::hdbn::TickInput;
use cace::mining::item::{Atom, Item};
use cace::mining::{
    AtomSpace, CandidateTick, ItemId, NegativeRule, PruningEngine, Rule, RuleSet, UserCandidates,
};
use cace::model::{Gestural, Postural, StateMask};
use cace::sensing::{ImuSynthesizer, NoiseConfig};
use cace::signal::trajectory::ImuSample;
use cace::signal::{GaussianSampler, Vec3};
use cace_testkit::oracle;

/// Bitwise view of a tick input, so `-0.0`/`+0.0` and NaN payloads count.
fn input_bits(input: &TickInput) -> Vec<(usize, Option<usize>, usize, u64)> {
    input
        .candidates
        .iter()
        .flat_map(|cands| {
            cands
                .iter()
                .map(|c| (c.postural, c.gestural, c.location, c.obs_loglik.to_bits()))
                .chain(std::iter::once((usize::MAX, None, cands.len(), 0)))
        })
        .collect()
}

fn assert_inputs_identical(got: &TickInput, want: &TickInput, what: &str) {
    assert_eq!(input_bits(got), input_bits(want), "{what}: candidates");
    assert_eq!(
        got.macro_candidates, want.macro_candidates,
        "{what}: macro candidates"
    );
}

fn sample(accel: Vec3) -> ImuSample {
    ImuSample {
        accel,
        gyro: Vec3::ZERO,
        mag: Vec3::ZERO,
    }
}

/// One frame of the given shape.
fn frame_of_kind(kind: u8, rng: &mut GaussianSampler) -> Vec<ImuSample> {
    let random = |rng: &mut GaussianSampler| rng.normal_vec3(Vec3::new(0.3, -0.2, 9.8), 2.0);
    match kind {
        0 => Vec::new(),
        1 => vec![sample(random(rng))],
        // Constant: every variance is exactly 0.
        2 => vec![sample(random(rng)); 1 + rng.below(90)],
        // Zero-norm samples (signed zeros included) among random ones.
        3 => (0..2 + rng.below(80))
            .map(|_| match rng.below(3) {
                0 => sample(Vec3::ZERO),
                1 => sample(Vec3::new(-0.0, 0.0, -0.0)),
                _ => sample(random(rng)),
            })
            .collect(),
        // All zero: tilt, spectrum and correlations degenerate.
        4 => vec![sample(Vec3::new(-0.0, -0.0, -0.0)); 1 + rng.below(10)],
        // Longer than the stack scratch.
        5 => (0..129 + rng.below(300))
            .map(|_| sample(random(rng)))
            .collect(),
        // Realistic phone and tag frames.
        6 => {
            let synth = ImuSynthesizer::new(NoiseConfig::default());
            let p = Postural::ALL[rng.below(Postural::COUNT)];
            if rng.chance(0.5) {
                synth.phone_frame(p, 75, rng)
            } else {
                let g = Gestural::ALL[rng.below(Gestural::COUNT)];
                synth.tag_frame(g, p, 75, rng)
            }
        }
        // Small integer-valued axes: exact ties between samples, so the
        // mean-crossing rule's equal-neighbour clause is exercised.
        _ => (0..2 + rng.below(100))
            .map(|_| {
                let v = |rng: &mut GaussianSampler| rng.below(3) as f64 - 1.0;
                sample(Vec3::new(v(rng), v(rng), v(rng)))
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The fused frame kernel matches the per-statistic reference bit for
    /// bit on every frame shape.
    #[test]
    fn frame_features_match_the_reference(kind in 0u8..8, seed in 0u64..1_000_000) {
        let mut rng = GaussianSampler::seed_from_u64(seed);
        let frame = frame_of_kind(kind, &mut rng);
        let got = FeatureVector::from_frame(&frame);
        let want = oracle::frame_features(&frame);
        for (i, (g, w)) in got.as_slice().iter().zip(&want).enumerate() {
            prop_assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "kind {} ({} samples), feature {}: {} vs {}",
                kind,
                frame.len(),
                i,
                g,
                w
            );
        }
    }

    /// The top-k beam keeps the same candidates in the same order as the
    /// stable full sort, including under heavy ties and NaN scores.
    #[test]
    fn candidate_beam_matches_the_stable_sort(
        score_kind in 0u8..4,
        beam_kind in 0u8..4,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = GaussianSampler::seed_from_u64(seed);
        let space = if rng.chance(0.5) { AtomSpace::cace() } else { AtomSpace::casas() };
        let pruned = [random_candidates(&space, &mut rng), random_candidates(&space, &mut rng)];
        let use_gestural = rng.chance(0.7);
        let sizes: Vec<usize> = (0..2)
            .map(|u| {
                let count = |d: &[bool]| d.iter().filter(|&&b| b).count();
                let g = if use_gestural { count(&pruned[u].gesturals) } else { 1 };
                count(&pruned[u].posturals) * g * count(&pruned[u].locations)
            })
            .collect();
        let beam = match beam_kind {
            0 => 1,
            1 => sizes[0],
            2 => sizes[0].max(sizes[1]) + 1 + rng.below(10),
            _ => 1 + rng.below(30),
        };
        let salt = rng.next_u64();
        let score = |u: usize, p: usize, g: Option<usize>, l: usize| {
            let h = mix(salt, (u * 1_000_000 + p * 10_000 + g.map_or(99, |g| g) * 100 + l) as u64);
            match score_kind {
                // Uniform: every candidate ties.
                0 => -1.5,
                // Three distinct values, signed zeros among them.
                1 => [0.0, -0.0, -2.0][(h % 3) as usize],
                // Finite scores sprinkled with NaN.
                2 if h.is_multiple_of(5) => f64::NAN,
                _ => -((h % 1000) as f64) / 7.0,
            }
        };
        let got = TickInput::from_candidates(&space, &pruned, use_gestural, beam, score);
        let want = oracle::from_candidates(&space, &pruned, use_gestural, beam, score);
        assert_inputs_identical(&got, &want, &format!("scores {score_kind}, beam {beam}"));
    }

    /// The location-table candidate builder scores every tuple exactly as
    /// a full `micro_score` call does, on real CACE and CASAS observations
    /// under every modality mask.
    #[test]
    fn tick_input_builder_matches_per_tuple_scoring(
        family in 0u8..2,
        mask_kind in 0u8..4,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = GaussianSampler::seed_from_u64(seed);
        let (space, observed) = observed_ticks(family, seed);
        let mask = [
            StateMask::FULL,
            StateMask::NO_LOCATION,
            StateMask::NO_GESTURAL,
            StateMask { gestural: false, location: false },
        ][mask_kind as usize];
        for tick in observed.iter().step_by(7) {
            let scores = random_scores(&space, &mut rng);
            let pruned = [random_candidates(&space, &mut rng), random_candidates(&space, &mut rng)];
            let use_gestural = family == 0;
            let beam = 1 + rng.below(40);
            let got = build_tick_input(&space, tick, &scores, &pruned, mask, use_gestural, beam);
            let want =
                oracle::build_tick_input(&space, tick, &scores, &pruned, mask, use_gestural, beam);
            assert_inputs_identical(&got, &want, &format!("family {family}, mask {mask_kind}"));
        }
    }

    /// The indexed pruner fires the same rules in the same order as the
    /// linear scan: equal reports field by field and equal candidate sets.
    #[test]
    fn indexed_pruning_matches_the_linear_scan(seed in 0u64..1_000_000) {
        let mut rng = GaussianSampler::seed_from_u64(seed);
        let space = if rng.chance(0.5) { AtomSpace::cace() } else { AtomSpace::casas() };
        let rules = random_rules(&space, &mut rng);
        let engine = PruningEngine::new(rules.clone());
        for _ in 0..8 {
            let evidence = random_evidence(&space, &rules, &mut rng);
            let mut tick = CandidateTick::full(&space);
            for user in &mut tick.users {
                *user = random_candidates(&space, &mut rng);
            }
            let mut want_tick = tick.clone();
            let got = engine.prune(&evidence, &mut tick);
            let want = oracle::prune(&rules, &evidence, &mut want_tick);
            prop_assert_eq!(got.positive_fired, want.positive_fired, "positive_fired");
            prop_assert_eq!(got.negative_fired, want.negative_fired, "negative_fired");
            prop_assert_eq!(got.removed, want.removed, "removed");
            prop_assert_eq!(&tick, &want_tick, "pruned candidates");
        }
    }
}

/// SplitMix64 finalizer (a deterministic score hash).
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Candidate sets with random holes; a dimension is emptied now and then
/// (the builder must then yield no tuples), and left full half the time.
fn random_candidates(space: &AtomSpace, rng: &mut GaussianSampler) -> UserCandidates {
    let mut cand = UserCandidates::full(space);
    if rng.chance(0.5) {
        return cand;
    }
    for dim in [
        &mut cand.macros,
        &mut cand.posturals,
        &mut cand.gesturals,
        &mut cand.locations,
    ] {
        let keep = if rng.chance(0.05) { 0.0 } else { 0.6 };
        for slot in dim.iter_mut() {
            *slot = rng.chance(keep);
        }
    }
    cand
}

fn random_scores(space: &AtomSpace, rng: &mut GaussianSampler) -> TickScores {
    let mut lp = |n: usize| -> Vec<f64> {
        if rng.chance(0.3) {
            vec![-(n as f64).ln(); n] // a dropped frame: uniform
        } else {
            (0..n).map(|_| -rng.uniform() * 6.0).collect()
        }
    };
    TickScores {
        postural_lp: [lp(space.n_postural), lp(space.n_postural)],
        gestural_lp: [Some(lp(space.n_gestural)), None],
    }
}

/// Observed ticks of one simulated session of either grammar.
fn observed_ticks(family: u8, seed: u64) -> (AtomSpace, Vec<ObservedTick>) {
    let sessions = if family == 0 {
        vec![simulate_session(
            &cace_grammar(),
            &SessionConfig::tiny().with_ticks(40),
            seed,
        )]
    } else {
        generate_casas_dataset(
            &CasasConfig {
                pairs: 1,
                sessions_per_pair: 1,
                ticks: 40,
                ..CasasConfig::default()
            },
            seed,
        )
    };
    let space = if family == 0 {
        AtomSpace::cace()
    } else {
        AtomSpace::casas()
    };
    let ticks = sessions[0]
        .ticks
        .iter()
        .map(|t| t.observed.clone())
        .collect();
    (space, ticks)
}

/// A random item: any atom kind, either user, either lag; rarely an id
/// past the space (undecodable), some of them far past it.
fn random_item(space: &AtomSpace, rng: &mut GaussianSampler) -> ItemId {
    if rng.chance(0.03) {
        return ItemId((space.n_items() + rng.below(5)) as u32);
    }
    if rng.chance(0.03) {
        return ItemId(250 + rng.below(20) as u32);
    }
    let atom = match rng.below(5) {
        0 => Atom::Macro(rng.below(space.n_macro) as u16),
        1 => Atom::Postural(rng.below(space.n_postural) as u16),
        2 => Atom::Gestural(rng.below(space.n_gestural) as u16),
        3 => Atom::Location(rng.below(space.n_location) as u16),
        _ => Atom::Room(rng.below(space.n_room) as u16),
    };
    space.encode(Item {
        user: rng.below(2) as u8,
        lag: u8::from(rng.chance(0.2)),
        atom,
    })
}

/// A rule set drawn from a small item pool, so rules overlap, repeat and
/// share triggers.
fn random_rules(space: &AtomSpace, rng: &mut GaussianSampler) -> RuleSet {
    let pool: Vec<ItemId> = (0..12).map(|_| random_item(space, rng)).collect();
    let pick = |rng: &mut GaussianSampler| pool[rng.below(pool.len())];
    let mut rules = Vec::new();
    for _ in 0..rng.below(40) {
        let mut antecedent: Vec<ItemId> = (0..rng.below(4)).map(|_| pick(rng)).collect();
        if rng.chance(0.8) {
            antecedent.sort_unstable();
            antecedent.dedup();
        }
        let rule = Rule {
            antecedent,
            consequent: if rng.chance(0.7) {
                pick(rng)
            } else {
                random_item(space, rng)
            },
            support: 0.1,
            confidence: 1.0,
        };
        if rng.chance(0.15) {
            rules.push(rule.clone()); // an exact duplicate
        }
        rules.push(rule);
    }
    let negatives = (0..rng.below(30))
        .map(|_| NegativeRule {
            if_item: pick(rng),
            then_not: if rng.chance(0.7) {
                pick(rng)
            } else {
                random_item(space, rng)
            },
            support: 0.2,
        })
        .collect();
    let mut set = RuleSet::new(space.clone(), rules);
    set.set_negatives(negatives);
    set
}

/// Sorted evidence drawn mostly from the rules' own items, so rules fire;
/// sometimes with duplicates.
fn random_evidence(space: &AtomSpace, rules: &RuleSet, rng: &mut GaussianSampler) -> Vec<ItemId> {
    let mut items: Vec<ItemId> = rules
        .rules()
        .iter()
        .flat_map(|r| r.antecedent.iter().copied())
        .chain(rules.negatives().iter().map(|n| n.if_item))
        .filter(|_| rng.chance(0.5))
        .collect();
    items.extend((0..rng.below(4)).map(|_| random_item(space, rng)));
    items.sort_unstable();
    if rng.chance(0.8) {
        items.dedup();
    }
    items
}

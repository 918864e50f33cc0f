//! Naive-scoring reference decoders: the pre-score-table hot path, kept
//! as an executable specification.
//!
//! The production decoders in `cace-hdbn` score every trellis edge through
//! the dense precomputed [`ScoreTables`](cace_hdbn::ScoreTables) and run
//! their step kernels over reused `TrellisArena` buffers. The functions
//! here reproduce the *historical* implementations — direct
//! [`HdbnParams::transition_score`] / [`HdbnParams::hierarchy_score`]
//! calls per edge, fresh fold buffers per column, per-tick `Vec`
//! allocations — with the exact same fold order and tie-breaking.
//!
//! The two Viterbi references also take a [`Beam`]: survivors come from
//! the public [`Beam::select_log`], non-survivors are skipped as sources,
//! and backpointers stay in full-frontier coordinates — an independent
//! statement of what a pruned decode must return.
//!
//! Two consumers:
//!
//! * `tests/score_tables.rs` and `tests/streaming_equivalence.rs` (through
//!   [`crate::assert_recognition_matches_references`]) assert the
//!   production decoders are **bit-identical** to these references over
//!   random mined statistics and engine-prepared sessions — the
//!   differential gate for the dense-table scoring path and for the one
//!   online Viterbi decode loop that batch decoding runs to the end.
//! * `crates/bench/benches/score_tables.rs` measures them as the "naive
//!   scoring" baseline that the table path's per-tick speedup is claimed
//!   against.

use cace_hdbn::forward::normalize_log;
use cace_hdbn::single::{ExpectedCounts, SinglePath};
use cace_hdbn::{log_sum_exp, Beam, BeamScratch, HdbnParams, JointPath, TickInput};

/// One chain's per-tick state enumeration, exactly as the decoders build
/// it: macro-major over the tick's allowed macros × candidates.
struct NaiveSlice {
    activities: Vec<usize>,
    cands: Vec<usize>,
    posturals: Vec<usize>,
    emissions: Vec<f64>,
}

fn naive_slice(p: &HdbnParams, tick: &TickInput, user: usize) -> NaiveSlice {
    let macros = tick.macros_for(user, p.n_macro());
    let n = macros.len() * tick.candidates[user].len();
    let mut slice = NaiveSlice {
        activities: Vec::with_capacity(n),
        cands: Vec::with_capacity(n),
        posturals: Vec::with_capacity(n),
        emissions: Vec::with_capacity(n),
    };
    for &a in &macros {
        for (c, cand) in tick.candidates[user].iter().enumerate() {
            slice.activities.push(a);
            slice.cands.push(c);
            slice.posturals.push(cand.postural);
            slice.emissions.push(
                cand.obs_loglik
                    + tick.bonus(a)
                    + p.hierarchy_score(a, cand.postural, cand.gestural, cand.location),
            );
        }
    }
    slice
}

/// Which states of a frontier may be transitioned out of: `None` (all of
/// them) unless `beam` prunes, in which case a mask of exactly the
/// survivors the public [`Beam::select_log`] picks. Returns the mask and
/// the survivor count. (`None` keeps the exact scan free of mask loads, so
/// the exact reference costs what the historical decoder did — it is the
/// `kernels` bench's naive baseline.)
fn survivors(beam: Beam, v: &[f64]) -> (Option<Vec<bool>>, usize) {
    let mut scratch = BeamScratch::new();
    if !beam.select_log(v, &mut scratch) {
        return (None, v.len());
    }
    let mut alive = vec![false; v.len()];
    for &i in scratch.keep() {
        alive[i as usize] = true;
    }
    (Some(alive), scratch.keep().len())
}

/// The reference coupled decode, optionally beam-restricted.
///
/// A faithful copy of the pre-score-table dense two-pass fold — chain 2
/// then chain 1, `f2_col`/`f1_col` collected fresh per column via
/// [`HdbnParams::transition_score`], every source scanned in ascending
/// order with a strict `>` — so the production
/// [`CoupledHdbn::viterbi`](cace_hdbn::CoupledHdbn::viterbi) (exact lane)
/// must match it float for float, counters included.
///
/// Under a pruning `beam`, each tick's survivors are chosen by the public
/// [`Beam::select_log`] on the frontier; non-survivors are skipped as
/// sources, backpointers stay in full-frontier coordinates, and a pruned
/// step is charged `|survivors| · (|S1| + |S2|)` transition ops (the full
/// step `|S1'||S2'| · (|S1| + |S2|)`). [`Beam::Exact`] scans everything.
///
/// # Panics
/// Panics on empty input or a tick with no candidates (the references
/// assume pre-validated input).
pub fn naive_coupled_viterbi(p: &HdbnParams, ticks: &[TickInput], beam: Beam) -> JointPath {
    assert!(!ticks.is_empty(), "naive decode needs at least one tick");
    let mut slices: Vec<(NaiveSlice, NaiveSlice)> = Vec::with_capacity(ticks.len());
    slices.push((naive_slice(p, &ticks[0], 0), naive_slice(p, &ticks[0], 1)));

    // First frontier: emissions + priors + coupling, flattened j1·|S2|+j2.
    let (s1, s2) = &slices[0];
    let mut states_explored = (s1.activities.len() * s2.activities.len()) as u64;
    let mut transition_ops = 0u64;
    let mut v = Vec::with_capacity(s1.activities.len() * s2.activities.len());
    for (j1, &a1) in s1.activities.iter().enumerate() {
        let base1 = s1.emissions[j1] + p.log_prior[a1];
        for (j2, &a2) in s2.activities.iter().enumerate() {
            let base2 = s2.emissions[j2] + p.log_prior[a2];
            v.push(base1 + base2 + p.coupling_score(a1, a2));
        }
    }

    let mut backptrs: Vec<Vec<u32>> = vec![Vec::new()];
    for tick in ticks.iter().skip(1) {
        let cur1 = naive_slice(p, tick, 0);
        let cur2 = naive_slice(p, tick, 1);
        let (prev1, prev2) = slices.last().expect("nonempty");
        let (k1, k2) = (prev1.activities.len(), prev2.activities.len());
        let (m1, m2) = (cur1.activities.len(), cur2.activities.len());
        let (alive, n_alive) = survivors(beam, &v);
        // A chain-1 source with no surviving partner state drops out of
        // pass 2 entirely.
        let row_alive: Option<Vec<bool>> = alive.as_ref().map(|alive| {
            (0..k1)
                .map(|j1p| alive[j1p * k2..(j1p + 1) * k2].iter().any(|&a| a))
                .collect()
        });
        states_explored += (m1 * m2) as u64;
        transition_ops += n_alive as u64 * (m1 + m2) as u64;

        // Pass 1 — fold chain 2.
        let mut w = vec![f64::NEG_INFINITY; k1 * m2];
        let mut w_arg = vec![0u32; k1 * m2];
        for (j2, &a2) in cur2.activities.iter().enumerate() {
            let f2_col: Vec<f64> = (0..k2)
                .map(|j2p| {
                    p.transition_score(
                        prev2.activities[j2p],
                        prev2.posturals[j2p],
                        a2,
                        cur2.posturals[j2],
                    )
                })
                .collect();
            for j1p in 0..k1 {
                let row = &v[j1p * k2..(j1p + 1) * k2];
                let alive_row = alive.as_ref().map(|a| &a[j1p * k2..(j1p + 1) * k2]);
                let mut best = f64::NEG_INFINITY;
                let mut best_arg = 0u32;
                for (j2p, (&vv, &f2)) in row.iter().zip(&f2_col).enumerate() {
                    if alive_row.is_some_and(|a| !a[j2p]) {
                        continue;
                    }
                    let score = vv + f2;
                    if score > best {
                        best = score;
                        best_arg = j2p as u32;
                    }
                }
                w[j1p * m2 + j2] = best;
                w_arg[j1p * m2 + j2] = best_arg;
            }
        }

        // Pass 2 — fold chain 1, plus emissions and coupling.
        let mut v_new = vec![f64::NEG_INFINITY; m1 * m2];
        let mut back = vec![0u32; m1 * m2];
        for (j1, &a1) in cur1.activities.iter().enumerate() {
            let f1_col: Vec<f64> = (0..k1)
                .map(|j1p| {
                    p.transition_score(
                        prev1.activities[j1p],
                        prev1.posturals[j1p],
                        a1,
                        cur1.posturals[j1],
                    )
                })
                .collect();
            for (j2, &a2) in cur2.activities.iter().enumerate() {
                let mut best = f64::NEG_INFINITY;
                let mut best_j1p = 0usize;
                for (j1p, &f1) in f1_col.iter().enumerate() {
                    if row_alive.as_ref().is_some_and(|a| !a[j1p]) {
                        continue;
                    }
                    let score = w[j1p * m2 + j2] + f1;
                    if score > best {
                        best = score;
                        best_j1p = j1p;
                    }
                }
                let emit = cur1.emissions[j1] + cur2.emissions[j2] + p.coupling_score(a1, a2);
                v_new[j1 * m2 + j2] = best + emit;
                let j2p = w_arg[best_j1p * m2 + j2];
                back[j1 * m2 + j2] = (best_j1p as u32) * (k2 as u32) + j2p;
            }
        }
        v = v_new;
        backptrs.push(back);
        slices.push((cur1, cur2));
    }

    let (mut flat, log_prob) = last_argmax(&v);
    let t_total = ticks.len();
    let mut macros = [vec![0usize; t_total], vec![0usize; t_total]];
    let mut micros = [Vec::with_capacity(t_total), Vec::with_capacity(t_total)];
    let mut m2_cur = slices.last().expect("nonempty").1.activities.len();
    for t in (0..t_total).rev() {
        let (s1, s2) = &slices[t];
        let (j1, j2) = (flat / m2_cur, flat % m2_cur);
        macros[0][t] = s1.activities[j1];
        macros[1][t] = s2.activities[j2];
        micros[0].push(ticks[t].candidates[0][s1.cands[j1]]);
        micros[1].push(ticks[t].candidates[1][s2.cands[j2]]);
        if t > 0 {
            flat = backptrs[t][flat] as usize;
            m2_cur = slices[t - 1].1.activities.len();
        }
    }
    micros[0].reverse();
    micros[1].reverse();
    JointPath {
        macros,
        micros,
        log_prob,
        states_explored,
        transition_ops,
    }
}

/// The reference single-chain decode, optionally beam-restricted — the
/// pre-score-table `chain_step` loop, transition-scored per edge, with the
/// same survivor rule and charge convention (`|survivors| · |S|` per
/// pruned step, `|S'| · |S|` per full one) as [`naive_coupled_viterbi`].
///
/// # Panics
/// Same conditions as [`naive_coupled_viterbi`].
pub fn naive_single_viterbi(
    p: &HdbnParams,
    ticks: &[TickInput],
    user: usize,
    beam: Beam,
) -> SinglePath {
    assert!(!ticks.is_empty(), "naive decode needs at least one tick");
    let mut slices: Vec<NaiveSlice> = Vec::with_capacity(ticks.len());
    slices.push(naive_slice(p, &ticks[0], user));
    let mut v: Vec<f64> = slices[0]
        .activities
        .iter()
        .zip(&slices[0].emissions)
        .map(|(&a, &e)| p.log_prior[a] + e)
        .collect();
    let mut states_explored = v.len() as u64;
    let mut transition_ops = 0u64;

    let mut backptrs: Vec<Vec<u32>> = vec![Vec::new()];
    for tick in ticks.iter().skip(1) {
        let cur = naive_slice(p, tick, user);
        let prev = slices.last().expect("nonempty");
        let (alive, n_alive) = survivors(beam, &v);
        states_explored += cur.activities.len() as u64;
        transition_ops += (n_alive * cur.activities.len()) as u64;
        let mut v_new = vec![f64::NEG_INFINITY; cur.activities.len()];
        let mut back = vec![0u32; cur.activities.len()];
        for (j, (&a, &e)) in cur.activities.iter().zip(&cur.emissions).enumerate() {
            let p_new = cur.posturals[j];
            let mut best = f64::NEG_INFINITY;
            let mut best_arg = 0u32;
            for (jp, &ap) in prev.activities.iter().enumerate() {
                if alive.as_ref().is_some_and(|a| !a[jp]) {
                    continue;
                }
                let score = v[jp] + p.transition_score(ap, prev.posturals[jp], a, p_new);
                if score > best {
                    best = score;
                    best_arg = jp as u32;
                }
            }
            v_new[j] = best + e;
            back[j] = best_arg;
        }
        v = v_new;
        backptrs.push(back);
        slices.push(cur);
    }

    let (mut j, log_prob) = last_argmax(&v);
    let mut macros = vec![0usize; ticks.len()];
    let mut micros = Vec::with_capacity(ticks.len());
    for t in (0..ticks.len()).rev() {
        macros[t] = slices[t].activities[j];
        micros.push(ticks[t].candidates[user][slices[t].cands[j]]);
        if t > 0 {
            j = backptrs[t][j] as usize;
        }
    }
    micros.reverse();
    SinglePath {
        macros,
        micros,
        log_prob,
        states_explored,
        transition_ops,
    }
}

/// Termination: the last maximum of the final frontier (the historical
/// `max_by` termination).
fn last_argmax(v: &[f64]) -> (usize, f64) {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite scores"))
        .map(|(i, &s)| (i, s))
        .expect("nonempty trellis")
}

/// The reference exact forward–backward: `(gamma, log_likelihood)` — the
/// pre-score-table recursion with per-state `terms` vectors and direct
/// transition scoring.
///
/// # Panics
/// Same conditions as [`naive_coupled_viterbi`].
pub fn naive_forward_backward(
    p: &HdbnParams,
    ticks: &[TickInput],
    user: usize,
) -> (Vec<Vec<f64>>, f64) {
    assert!(!ticks.is_empty(), "naive forward-backward needs ticks");
    let slices: Vec<NaiveSlice> = ticks.iter().map(|t| naive_slice(p, t, user)).collect();

    let mut log_z = 0.0;
    let mut alphas: Vec<Vec<f64>> = Vec::with_capacity(ticks.len());
    let mut alpha: Vec<f64> = slices[0]
        .activities
        .iter()
        .zip(&slices[0].emissions)
        .map(|(&a, &e)| p.log_prior[a] + e)
        .collect();
    log_z += normalize_log(&mut alpha);
    alphas.push(alpha);

    for t in 1..ticks.len() {
        let cur = &slices[t];
        let prev = &slices[t - 1];
        let mut next = vec![f64::NEG_INFINITY; cur.activities.len()];
        for (j, (&a, &e)) in cur.activities.iter().zip(&cur.emissions).enumerate() {
            let terms: Vec<f64> = prev
                .activities
                .iter()
                .enumerate()
                .map(|(jp, &ap)| {
                    alphas[t - 1][jp].max(1e-300).ln()
                        + p.transition_score(ap, prev.posturals[jp], a, cur.posturals[j])
                })
                .collect();
            next[j] = log_sum_exp(&terms) + e;
        }
        log_z += normalize_log(&mut next);
        alphas.push(next);
    }

    let mut betas: Vec<Vec<f64>> = vec![Vec::new(); ticks.len()];
    let last = ticks.len() - 1;
    betas[last] = vec![1.0; slices[last].activities.len()];
    for t in (0..last).rev() {
        let cur = &slices[t];
        let nxt = &slices[t + 1];
        let mut beta = vec![f64::NEG_INFINITY; cur.activities.len()];
        for (j, &a) in cur.activities.iter().enumerate() {
            let terms: Vec<f64> = nxt
                .activities
                .iter()
                .enumerate()
                .map(|(jn, &an)| {
                    betas[t + 1][jn].max(1e-300).ln()
                        + p.transition_score(a, cur.posturals[j], an, nxt.posturals[jn])
                        + nxt.emissions[jn]
                })
                .collect();
            beta[j] = log_sum_exp(&terms);
        }
        normalize_log(&mut beta);
        betas[t] = beta;
    }

    let gamma: Vec<Vec<f64>> = alphas
        .iter()
        .zip(&betas)
        .map(|(a, b)| {
            let mut g: Vec<f64> = a.iter().zip(b).map(|(x, y)| x * y).collect();
            let total: f64 = g.iter().sum();
            if total > 0.0 {
                for v in &mut g {
                    *v /= total;
                }
            }
            g
        })
        .collect();
    (gamma, log_z)
}

/// The reference E-step accumulation for one sequence/user into `counts` —
/// the pre-score-table unary + xi loops over
/// [`naive_forward_backward`]'s posteriors.
///
/// # Panics
/// Same conditions as [`naive_coupled_viterbi`].
pub fn naive_accumulate_counts(
    p: &HdbnParams,
    ticks: &[TickInput],
    user: usize,
    counts: &mut ExpectedCounts,
) {
    let (gamma, log_likelihood) = naive_forward_backward(p, ticks, user);
    counts.log_likelihood += log_likelihood;
    let slices: Vec<NaiveSlice> = ticks.iter().map(|t| naive_slice(p, t, user)).collect();

    for (t, slice) in slices.iter().enumerate() {
        for (j, &a) in slice.activities.iter().enumerate() {
            let g = gamma[t][j];
            if g <= 0.0 {
                continue;
            }
            let cand = ticks[t].candidates[user][slice.cands[j]];
            if t == 0 {
                counts.prior[a] += g;
            }
            counts.post[a][cand.postural] += g;
            counts.loc[a][cand.location] += g;
            if let Some(gest) = cand.gestural {
                counts.gest[a][gest] += g;
            }
        }
    }

    for t in 1..ticks.len() {
        let prev = &slices[t - 1];
        let cur = &slices[t];
        let mut xi = vec![0.0; prev.activities.len() * cur.activities.len()];
        let mut total = 0.0;
        for (jp, &ap) in prev.activities.iter().enumerate() {
            let gp = gamma[t - 1][jp];
            if gp <= 0.0 {
                continue;
            }
            for (j, &a) in cur.activities.iter().enumerate() {
                let gc = gamma[t][j];
                if gc <= 0.0 {
                    continue;
                }
                let w = gp
                    * gc
                    * p.transition_score(ap, prev.posturals[jp], a, cur.posturals[j])
                        .exp()
                        .max(1e-300);
                xi[jp * cur.activities.len() + j] = w;
                total += w;
            }
        }
        if total <= 0.0 {
            continue;
        }
        for (jp, &ap) in prev.activities.iter().enumerate() {
            for (j, &a) in cur.activities.iter().enumerate() {
                let w = xi[jp * cur.activities.len() + j] / total;
                if w <= 0.0 {
                    continue;
                }
                counts.trans[ap][a] += w;
                if ap == a {
                    counts.cont[a] += w;
                    counts.post_trans[prev.posturals[jp]][cur.posturals[j]] += w;
                } else {
                    counts.end[ap] += w;
                }
            }
        }
    }
}

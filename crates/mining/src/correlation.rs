//! The correlation miner's runtime half: deterministic state-space pruning.
//!
//! §V-B of the paper: mined rules "eliminate various infeasible state
//! combination\[s\] from the HDBN". Candidates are kept factorized per user —
//! a macro-activity set plus per-dimension micro sets — so the joint state
//! count is the product the paper's complexity argument is about, and rule
//! application is a cheap set restriction.

use serde::{Deserialize, Serialize};

use crate::item::{Atom, AtomSpace, ItemId};
use crate::rules::RuleSet;

/// Factorized candidate sets for one user at one tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserCandidates {
    /// Allowed macro activities.
    pub macros: Vec<bool>,
    /// Allowed postural states.
    pub posturals: Vec<bool>,
    /// Allowed gestural states.
    pub gesturals: Vec<bool>,
    /// Allowed sub-locations.
    pub locations: Vec<bool>,
}

impl UserCandidates {
    /// Everything allowed.
    pub fn full(space: &AtomSpace) -> Self {
        Self {
            macros: vec![true; space.n_macro],
            posturals: vec![true; space.n_postural],
            gesturals: vec![true; space.n_gestural],
            locations: vec![true; space.n_location],
        }
    }

    fn dim_mut(&mut self, atom: Atom) -> (&mut Vec<bool>, usize) {
        match atom {
            Atom::Macro(i) => (&mut self.macros, i as usize),
            Atom::Postural(i) => (&mut self.posturals, i as usize),
            Atom::Gestural(i) => (&mut self.gesturals, i as usize),
            Atom::Location(i) => (&mut self.locations, i as usize),
            Atom::Room(_) => unreachable!("rooms are expanded before dispatch"),
        }
    }

    /// Restricts a dimension to exactly one value. Returns how many
    /// candidates were removed; refuses (returns 0) when the value is
    /// already excluded — evidence conflicts must not empty the space here.
    pub fn restrict(&mut self, space: &AtomSpace, atom: Atom) -> usize {
        if let Atom::Room(r) = atom {
            // A room consequent keeps every sub-location inside the room.
            let mut removed = 0;
            let allowed_any = self
                .locations
                .iter()
                .enumerate()
                .any(|(l, &ok)| ok && space.loc_to_room[l] == r as usize);
            if !allowed_any {
                return 0;
            }
            for (l, slot) in self.locations.iter_mut().enumerate() {
                if *slot && space.loc_to_room[l] != r as usize {
                    *slot = false;
                    removed += 1;
                }
            }
            return removed;
        }
        let (dim, idx) = self.dim_mut(atom);
        if idx >= dim.len() || !dim[idx] {
            return 0;
        }
        let mut removed = 0;
        for (i, slot) in dim.iter_mut().enumerate() {
            if i != idx && *slot {
                *slot = false;
                removed += 1;
            }
        }
        removed
    }

    /// Forbids one value. Returns whether it was removed. Refuses to empty a
    /// dimension (the last candidate survives).
    pub fn forbid(&mut self, space: &AtomSpace, atom: Atom) -> bool {
        if let Atom::Room(r) = atom {
            // Forbid every sub-location inside the room, keeping ≥ 1 overall.
            let mut any = false;
            for l in 0..self.locations.len() {
                if space.loc_to_room[l] == r as usize {
                    any |= self.forbid(space, Atom::Location(l as u16));
                }
            }
            return any;
        }
        let (dim, idx) = self.dim_mut(atom);
        if idx >= dim.len() || !dim[idx] {
            return false;
        }
        if dim.iter().filter(|&&b| b).count() <= 1 {
            return false; // never empty a dimension
        }
        dim[idx] = false;
        true
    }

    /// Number of allowed micro tuples (product of micro dimensions).
    pub fn micro_size(&self) -> usize {
        let count = |v: &Vec<bool>| v.iter().filter(|&&b| b).count();
        count(&self.posturals) * count(&self.gesturals) * count(&self.locations)
    }

    /// Number of allowed (macro, micro) states.
    pub fn joint_size(&self) -> usize {
        self.macros.iter().filter(|&&b| b).count() * self.micro_size()
    }

    /// Whether any dimension has been emptied.
    pub fn any_empty(&self) -> bool {
        [
            &self.macros,
            &self.posturals,
            &self.gesturals,
            &self.locations,
        ]
        .iter()
        .any(|d| d.iter().all(|&b| !b))
    }

    /// Indices of allowed values in a dimension.
    pub fn allowed(dim: &[bool]) -> Vec<usize> {
        dim.iter()
            .enumerate()
            .filter(|&(_, &b)| b)
            .map(|(i, _)| i)
            .collect()
    }
}

/// The joint candidate space at one tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateTick {
    /// Per-user candidate sets.
    pub users: [UserCandidates; 2],
}

impl CandidateTick {
    /// Everything allowed for both users.
    pub fn full(space: &AtomSpace) -> Self {
        Self {
            users: [UserCandidates::full(space), UserCandidates::full(space)],
        }
    }

    /// Joint state count across both users (the paper's explosion metric).
    pub fn joint_size(&self) -> u128 {
        self.users.iter().map(|u| u.joint_size() as u128).product()
    }
}

/// Outcome of one pruning pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruneReport {
    /// How many positive rules fired.
    pub positive_fired: usize,
    /// How many negative rules fired.
    pub negative_fired: usize,
    /// Candidate entries removed across all dimensions.
    pub removed: usize,
}

/// The deterministic pruning engine.
///
/// Construction indexes the rule set once, so a tick only visits the rules
/// its evidence can fire: positive rules by their first antecedent item
/// (a rule fires only if that item is in evidence), negative rules by
/// their trigger.
#[derive(Debug, Clone)]
pub struct PruningEngine {
    rules: RuleSet,
    /// `(first antecedent item, rule index)`, sorted.
    by_first_item: Vec<(ItemId, u32)>,
    /// Indices of the positive rules with an empty antecedent, which fire
    /// on any evidence.
    unconditional: Vec<u32>,
    /// `(trigger item, negative rule index)`, sorted.
    by_trigger: Vec<(ItemId, u32)>,
}

/// The rule indices filed under `item` in a sorted `(item, index)` list.
fn filed_under(index: &[(ItemId, u32)], item: ItemId) -> impl Iterator<Item = u32> + '_ {
    let start = index.partition_point(|&(key, _)| key < item);
    index[start..]
        .iter()
        .take_while(move |&&(key, _)| key == item)
        .map(|&(_, rule)| rule)
}

impl PruningEngine {
    /// Wraps a mined (or user-provided) rule set and indexes it.
    pub fn new(rules: RuleSet) -> Self {
        let mut by_first_item = Vec::new();
        let mut unconditional = Vec::new();
        for (r, rule) in rules.rules().iter().enumerate() {
            match rule.antecedent.first() {
                Some(&first) => by_first_item.push((first, r as u32)),
                None => unconditional.push(r as u32),
            }
        }
        let mut by_trigger: Vec<(ItemId, u32)> = rules
            .negatives()
            .iter()
            .enumerate()
            .map(|(r, neg)| (neg.if_item, r as u32))
            .collect();
        by_first_item.sort_unstable();
        by_trigger.sort_unstable();
        Self {
            rules,
            by_first_item,
            unconditional,
            by_trigger,
        }
    }

    /// The rule set in use.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Applies every applicable rule to the tick's candidates.
    ///
    /// `evidence` is the sorted list of items known true around this tick
    /// (observed micro states at `t` and the committed states at `t − 1`).
    /// Iterates to a fixed point (rules can cascade, as in the paper's
    /// living-room example where a location rule enables a macro rule).
    ///
    /// Rules apply in rule-set order — positives, then negatives, in each
    /// pass — because restrictions do not commute (a restriction that
    /// contradicts an earlier one is refused). The index only narrows
    /// which rules are visited, never their order.
    pub fn prune(&self, evidence: &[ItemId], tick: &mut CandidateTick) -> PruneReport {
        debug_assert!(
            evidence.windows(2).all(|w| w[0] <= w[1]),
            "evidence must be sorted"
        );
        let space = self.rules.space();
        // Evidence is fixed for the whole call, so the firing rules are
        // found once, then sorted back into rule order. The buffers are
        // sized for the handful of rules a tick fires, so they rarely grow.
        let mut positives = Vec::with_capacity(self.unconditional.len() + 32);
        positives.extend_from_slice(&self.unconditional);
        let mut negatives = Vec::with_capacity(32);
        for &item in evidence {
            positives.extend(
                filed_under(&self.by_first_item, item)
                    .filter(|&r| self.rules.rules()[r as usize].fires_on(evidence)),
            );
            negatives.extend(filed_under(&self.by_trigger, item));
        }
        positives.sort_unstable();
        positives.dedup();
        negatives.sort_unstable();
        negatives.dedup();

        let mut report = PruneReport::default();
        // Two passes reach the fixed point for cascades whose intermediate
        // conclusions are candidate restrictions (deeper chains would need
        // re-deriving evidence, which the engine intentionally avoids: only
        // observed facts count as evidence).
        for _ in 0..2 {
            let mut changed = false;
            for &r in &positives {
                let rule = &self.rules.rules()[r as usize];
                let Some(item) = space.decode(rule.consequent) else {
                    continue;
                };
                if item.lag != 0 {
                    continue; // past-state consequents carry no runtime prune
                }
                let removed = tick.users[item.user as usize].restrict(space, item.atom);
                if removed > 0 {
                    report.positive_fired += 1;
                    report.removed += removed;
                    changed = true;
                }
            }
            for &r in &negatives {
                let neg = &self.rules.negatives()[r as usize];
                let Some(item) = space.decode(neg.then_not) else {
                    continue;
                };
                if item.lag != 0 {
                    continue;
                }
                if tick.users[item.user as usize].forbid(space, item.atom) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;
    use crate::rules::{NegativeRule, Rule};

    fn space() -> AtomSpace {
        AtomSpace::cace()
    }

    fn enc(s: &AtomSpace, user: u8, atom: Atom) -> ItemId {
        s.encode(Item { user, lag: 0, atom })
    }

    fn engine_with(s: &AtomSpace, rules: Vec<Rule>, negatives: Vec<NegativeRule>) -> PruningEngine {
        let mut set = RuleSet::new(s.clone(), rules);
        set.set_negatives(negatives);
        PruningEngine::new(set)
    }

    #[test]
    fn full_tick_size_matches_model() {
        let s = space();
        let tick = CandidateTick::full(&s);
        // 11 macro × (6 × 5 × 14) micro per user.
        assert_eq!(tick.users[0].joint_size(), 11 * 420);
        assert_eq!(tick.joint_size(), (11u128 * 420).pow(2));
        assert!(!tick.users[0].any_empty());
    }

    #[test]
    fn positive_rule_restricts_macro() {
        let s = space();
        let cycling = enc(&s, 0, Atom::Postural(3));
        let sr1 = enc(&s, 0, Atom::Location(0));
        let mut ants = vec![cycling, sr1];
        ants.sort_unstable();
        let rule = Rule {
            antecedent: ants,
            consequent: enc(&s, 0, Atom::Macro(0)),
            support: 0.1,
            confidence: 1.0,
        };
        let engine = engine_with(&s, vec![rule], vec![]);

        let mut tick = CandidateTick::full(&s);
        let mut evidence = vec![cycling, sr1];
        evidence.sort_unstable();
        let report = engine.prune(&evidence, &mut tick);
        assert_eq!(report.positive_fired, 1);
        assert_eq!(UserCandidates::allowed(&tick.users[0].macros), vec![0]);
        // User 2 untouched.
        assert_eq!(tick.users[1].macros.iter().filter(|&&b| b).count(), 11);
        // Joint size shrank by 11×.
        assert_eq!(tick.joint_size(), 420 * (11u128 * 420));
    }

    #[test]
    fn rule_does_not_fire_without_full_antecedent() {
        let s = space();
        let cycling = enc(&s, 0, Atom::Postural(3));
        let sr1 = enc(&s, 0, Atom::Location(0));
        let mut ants = vec![cycling, sr1];
        ants.sort_unstable();
        let rule = Rule {
            antecedent: ants,
            consequent: enc(&s, 0, Atom::Macro(0)),
            support: 0.1,
            confidence: 1.0,
        };
        let engine = engine_with(&s, vec![rule], vec![]);
        let mut tick = CandidateTick::full(&s);
        let report = engine.prune(&[cycling], &mut tick);
        assert_eq!(report.positive_fired, 0);
        assert_eq!(tick.joint_size(), (11u128 * 420).pow(2));
    }

    #[test]
    fn negative_rule_forbids_partner_bathroom() {
        let s = space();
        let u1_bath = enc(&s, 0, Atom::Location(8));
        let u2_bath = enc(&s, 1, Atom::Location(8));
        let neg = NegativeRule {
            if_item: u1_bath,
            then_not: u2_bath,
            support: 0.2,
        };
        let engine = engine_with(&s, vec![], vec![neg]);

        let mut tick = CandidateTick::full(&s);
        let report = engine.prune(&[u1_bath], &mut tick);
        assert_eq!(report.negative_fired, 1);
        assert!(
            !tick.users[1].locations[8],
            "partner bathroom must be pruned"
        );
        assert_eq!(tick.users[1].locations.iter().filter(|&&b| b).count(), 13);
    }

    #[test]
    fn room_consequent_restricts_to_room_sublocations() {
        let s = space();
        let trigger = enc(&s, 0, Atom::Postural(2));
        // room 0 = living room (6 sub-locations).
        let rule = Rule {
            antecedent: vec![trigger],
            consequent: enc(&s, 0, Atom::Room(0)),
            support: 0.1,
            confidence: 1.0,
        };
        let engine = engine_with(&s, vec![rule], vec![]);
        let mut tick = CandidateTick::full(&s);
        engine.prune(&[trigger], &mut tick);
        let allowed = UserCandidates::allowed(&tick.users[0].locations);
        assert_eq!(allowed.len(), 6);
        assert!(allowed.iter().all(|&l| s.loc_to_room[l] == 0));
    }

    #[test]
    fn conflicting_restriction_is_refused() {
        let s = space();
        let trigger = enc(&s, 0, Atom::Postural(0));
        let rule_a = Rule {
            antecedent: vec![trigger],
            consequent: enc(&s, 0, Atom::Macro(2)),
            support: 0.1,
            confidence: 1.0,
        };
        let rule_b = Rule {
            antecedent: vec![trigger],
            consequent: enc(&s, 0, Atom::Macro(5)),
            support: 0.1,
            confidence: 1.0,
        };
        let engine = engine_with(&s, vec![rule_a, rule_b], vec![]);
        let mut tick = CandidateTick::full(&s);
        engine.prune(&[trigger], &mut tick);
        // First rule restricted to {2}; second would contradict and is
        // refused; space never empties.
        assert!(!tick.users[0].any_empty());
        assert_eq!(UserCandidates::allowed(&tick.users[0].macros), vec![2]);
    }

    #[test]
    fn forbid_never_empties_a_dimension() {
        let s = space();
        let mut cand = UserCandidates::full(&s);
        // Forbid all but one location; the final forbid must refuse.
        for l in 0..13u16 {
            assert!(cand.forbid(&s, Atom::Location(l)));
        }
        assert!(!cand.forbid(&s, Atom::Location(13)));
        assert_eq!(UserCandidates::allowed(&cand.locations), vec![13]);
    }

    #[test]
    fn paper_example_watching_tv_cascade() {
        // The §V-B walkthrough: livingroom occupancy + sitting identifies
        // watchingTV (macro 3) for user A, walking identifies jogging-like
        // exercising for B — here we verify at least that two rules fire in
        // one pass and both users' spaces shrink.
        let s = space();
        let u1_sitting = enc(&s, 0, Atom::Postural(2));
        let u1_room = enc(&s, 0, Atom::Room(0));
        let u2_walking = enc(&s, 1, Atom::Postural(0));
        let mut a1 = vec![u1_sitting, u1_room];
        a1.sort_unstable();
        let rule1 = Rule {
            antecedent: a1,
            consequent: enc(&s, 0, Atom::Macro(3)), // watching TV
            support: 0.1,
            confidence: 1.0,
        };
        let rule2 = Rule {
            antecedent: vec![u2_walking],
            consequent: enc(&s, 1, Atom::Room(0)),
            support: 0.1,
            confidence: 1.0,
        };
        let engine = engine_with(&s, vec![rule1, rule2], vec![]);
        let mut tick = CandidateTick::full(&s);
        let mut evidence = vec![u1_sitting, u1_room, u2_walking];
        evidence.sort_unstable();
        let before = tick.joint_size();
        let report = engine.prune(&evidence, &mut tick);
        assert_eq!(report.positive_fired, 2);
        assert!(tick.joint_size() < before / 10, "cascade should cut ≥ 10×");
    }
}

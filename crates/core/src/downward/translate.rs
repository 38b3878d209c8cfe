//! The recursive downward translator (§4.2).
//!
//! Translates event literals into the normal form of [`super::nf`]:
//!
//! * an **old-database literal** is a query on the current state — it
//!   decides truth and/or produces variable bindings. A conjunct's
//!   positive old literals, with the negated ones they ground, run as one
//!   [`eval_seeded`] plan on the join kernel; a negated one that only an
//!   event's grounding makes ground is a membership test after that
//!   event; one still open after every event is a ¬∃ plan;
//! * a **base event literal** "defines different alternatives of base fact
//!   updates to be performed, one for each possible way to instantiate this
//!   event" — positive occurrences become `to_do` entries, negative ones
//!   `must_not` requirements;
//! * a **derived event literal** is handled by downward-interpreting its
//!   own event rule; negative derived events (and negative new-state
//!   literals) are the negation of the positive result.
//!
//! Event-definition pruning is applied throughout: `ins Q(c̄)` is impossible
//! when `Q°(c̄)` already holds, `del Q(c̄)` when it does not (footnote 1).
//!
//! ## Negation strategy
//!
//! The paper defines the negation of a downward result as "the disjunctive
//! normal form of the logical negation" — a CNF→DNF product that is
//! exponential in the number of negated alternatives. This translator
//! folds each negation *clause by clause into the context built so far*
//! (the fixed transaction and previously translated request items), which
//! lets contradictions resolve clauses immediately. Two strategies:
//!
//! * **greedy** (default): a clause `¬e₁ ∨ ... ∨ ¬eₖ ∨ f₁ ∨ ... ∨ fₘ` is
//!   satisfied by *not performing any of the eᵢ* whenever that is
//!   consistent with the alternative under construction (one strengthened
//!   branch, recorded as `must_not` entries); the compensating `fⱼ`
//!   branches are explored only when some `eᵢ` is already a committed
//!   `to_do` entry. This keeps results subset-minimal in `to_do` and the
//!   search polynomial per clause, at the (documented) cost of not
//!   enumerating non-minimal solutions that perform a forbidden event and
//!   compensate elsewhere.
//! * **exhaustive** ([`super::DownwardOptions::exhaustive_negation`]): the
//!   paper-literal per-literal branching.
//!
//! Both strategies produce only sound alternatives (each, replayed upward,
//! realizes the request — a property-tested invariant), and both agree on
//! every worked example of the paper.

use crate::domain::Domain;
use crate::downward::nf::{self, Alt, Nf};
use crate::downward::DownwardOptions;
use crate::error::{Error, Result};
use dduf_datalog::ast::{Atom, Literal, Pred, Term, Var};
use dduf_datalog::eval::join::{ground_terms, match_tuple, resolve, Bindings};
use dduf_datalog::eval::plan::{eval_seeded, JoinPlan};
use dduf_datalog::eval::StateView;
use dduf_datalog::storage::tuple::Tuple;
use dduf_events::event::{EventAtom, EventKind, GroundEvent};
use dduf_events::formula::TrLit;
use dduf_events::simplify::simplify_transition;
use dduf_events::transition::TransitionRule;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Semantic counters for one downward translation. The search is
/// single-threaded, so these are exact and deterministic for a given
/// request; `interpret` records them as the `downward.translate` span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TranslateStats {
    /// New-state nodes expanded (recursive `Pⁿ` interpretations).
    pub nodes: u64,
    /// Transition-rule branches whose head unified with the target.
    pub branches: u64,
    /// Transition-rule conjuncts translated.
    pub conjuncts: u64,
    /// Candidate event instantiations enumerated over the domain.
    pub groundings: u64,
}

/// The downward translation engine. One instance per interpretation call;
/// caches simplified transition rules, with their conjuncts' schedules,
/// across the recursion.
pub struct Translator<'a> {
    old: StateView<'a>,
    domain: Domain,
    opts: &'a DownwardOptions,
    trs: BTreeMap<Pred, Rc<[Branch]>>,
    visiting: Vec<Pred>,
    stats: Cell<TranslateStats>,
}

/// One branch of a simplified transition rule: the head its target tuple
/// is matched against, and one schedule per conjunct.
struct Branch {
    head: Atom,
    conjuncts: Vec<Schedule>,
}

/// The order in which [`Translator::down_conjunct`] evaluates one
/// conjunct's literals. The head match binds the same variables for every
/// target tuple, so the order is fixed per conjunct:
///
/// 1. the positive old literals, with the negated ones they ground, as
///    one join plan;
/// 2. the positive events, fewest unbound arguments first, each followed
///    by the negated old literals its grounding makes ground (membership
///    filters);
/// 3. the negated old literals still not ground, as one ¬∃ plan;
/// 4. the negative events, in body order (∀-quantified requirements).
struct Schedule {
    old: Vec<Literal>,
    old_plan: RefCell<Option<JoinPlan>>,
    events: Vec<(EventAtom, Vec<Atom>)>,
    open: Vec<Literal>,
    open_plan: RefCell<Option<JoinPlan>>,
    forbidden: Vec<EventAtom>,
}

impl Schedule {
    fn new(lits: &[TrLit], head: &Atom) -> Schedule {
        let mut bound: BTreeSet<Var> = head.vars().into_iter().collect();
        let olds = || {
            lits.iter().filter_map(|l| match l {
                TrLit::Old(l) => Some(l),
                TrLit::Event { .. } => None,
            })
        };
        for l in olds().filter(|l| l.positive) {
            bound.extend(l.atom.vars());
        }
        let ground = |a: &Atom, bound: &BTreeSet<Var>| a.vars().iter().all(|v| bound.contains(v));
        let (old, mut negated): (Vec<Literal>, Vec<Literal>) = olds()
            .cloned()
            .partition(|l| l.positive || ground(&l.atom, &bound));

        let mut positive: Vec<&EventAtom> = Vec::new();
        let mut forbidden = Vec::new();
        for l in lits {
            match l {
                TrLit::Event {
                    positive: true,
                    event,
                } => positive.push(event),
                TrLit::Event { event, .. } => forbidden.push(event.clone()),
                TrLit::Old(_) => {}
            }
        }
        let unbound = |e: &EventAtom, bound: &BTreeSet<Var>| {
            let free = |t: &&Term| matches!(t, Term::Var(v) if !bound.contains(v));
            e.atom.terms.iter().filter(free).count()
        };
        let mut events = Vec::with_capacity(positive.len());
        while let Some((pos, _)) =
            (positive.iter().enumerate()).min_by_key(|&(_, e)| unbound(e, &bound))
        {
            let event = positive.remove(pos);
            bound.extend(event.atom.vars());
            let (now, later) = negated.into_iter().partition(|l| ground(&l.atom, &bound));
            negated = later;
            let filters = now.into_iter().map(|l: Literal| l.atom).collect();
            events.push((event.clone(), filters));
        }
        Schedule {
            old,
            old_plan: RefCell::new(None),
            events,
            open: negated,
            open_plan: RefCell::new(None),
            forbidden,
        }
    }
}

impl<'a> Translator<'a> {
    /// Creates a translator over the old state `old`.
    pub fn new(old: StateView<'a>, domain: Domain, opts: &'a DownwardOptions) -> Translator<'a> {
        Translator {
            old,
            domain,
            opts,
            trs: BTreeMap::new(),
            visiting: Vec::new(),
            stats: Cell::new(TranslateStats::default()),
        }
    }

    /// Search counters accumulated so far.
    pub fn stats(&self) -> TranslateStats {
        self.stats.get()
    }

    fn bump(&self, f: impl FnOnce(&mut TranslateStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    /// True iff `e` can occur in a transition from the old state: by the
    /// event definitions (1)/(2), an insertion needs the fact absent and a
    /// deletion needs it present; additionally the tuple must lie within
    /// the predicate's declared domain (`#domain p/n {...}`), which acts
    /// as a typing guard.
    pub fn event_possible(&self, e: &GroundEvent) -> bool {
        if !self.domain.permits(e.pred, &e.tuple) {
            return false;
        }
        match e.kind {
            EventKind::Ins => !self.old.holds(e.pred, &e.tuple),
            EventKind::Del => self.old.holds(e.pred, &e.tuple),
        }
    }

    fn transition(&mut self, pred: Pred) -> Rc<[Branch]> {
        if let Some(tr) = self.trs.get(&pred) {
            return Rc::clone(tr);
        }
        let tr = simplify_transition(&TransitionRule::build(self.old.db.program(), pred));
        let branches: Rc<[Branch]> = tr
            .branches
            .into_iter()
            .map(|b| Branch {
                conjuncts: b
                    .dnf
                    .0
                    .iter()
                    .map(|c| Schedule::new(&c.0, &b.head))
                    .collect(),
                head: b.head,
            })
            .collect();
        self.trs.insert(pred, Rc::clone(&branches));
        branches
    }

    fn cap(&self) -> usize {
        self.opts.max_alternatives
    }

    /// Enumerates all groundings of `terms` under `seed` over the finite
    /// domain of `pred` (one binding per way to instantiate the unbound
    /// variables). A per-predicate `#domain` restriction takes precedence
    /// over the global pool.
    pub fn groundings(&self, pred: Pred, terms: &[Term], seed: &Bindings) -> Result<Vec<Bindings>> {
        let mut unbound: Vec<Var> = Vec::new();
        for &t in terms {
            if let Term::Var(v) = resolve(t, seed) {
                if !unbound.contains(&v) {
                    unbound.push(v);
                }
            }
        }
        if unbound.is_empty() {
            self.bump(|s| s.groundings += 1);
            return Ok(vec![seed.clone()]);
        }
        let dom_len = self.domain.len_for(pred);
        if dom_len == 0 {
            return Err(Error::EmptyDomain);
        }
        let total = dom_len
            .checked_pow(u32::try_from(unbound.len()).unwrap_or(u32::MAX))
            .unwrap_or(usize::MAX);
        if total > self.opts.max_groundings {
            return Err(Error::LimitExceeded {
                what: "groundings",
                limit: self.opts.max_groundings,
            });
        }
        let mut out = vec![seed.clone()];
        for v in unbound {
            let mut next = Vec::with_capacity(out.len() * dom_len);
            for b in &out {
                for c in self.domain.iter_for(pred) {
                    let mut b2 = b.clone();
                    b2.insert(v, c);
                    next.push(b2);
                }
            }
            out = next;
        }
        self.bump(|s| s.groundings += out.len() as u64);
        Ok(out)
    }

    /// Extends `ctx` with the requirement that the *positive ground* event
    /// `kind pred(c̄)` occurs. Returns the combined NF (`ctx ∧ event`).
    pub fn apply_pos_event(
        &mut self,
        kind: EventKind,
        pred: Pred,
        tuple: &Tuple,
        depth: usize,
        ctx: &Nf,
    ) -> Result<Nf> {
        let e = GroundEvent::new(kind, pred, tuple.clone());
        if !self.event_possible(&e) {
            return Ok(nf::falsum());
        }
        if !self.old.db.program().is_derived(pred) {
            return nf::conj(ctx, &vec![Alt::of_pos(e)], self.cap());
        }
        match kind {
            // ins P(c̄) → Pⁿ(c̄) ∧ ¬P°(c̄); the second conjunct is the
            // possibility check above.
            EventKind::Ins => self.down_new_state(pred, tuple, depth, ctx),
            // del P(c̄) → P°(c̄) ∧ ¬Pⁿ(c̄): negate the context-free positive
            // characterization, folding clauses into ctx.
            EventKind::Del => {
                let pos = self.down_new_state(pred, tuple, depth, &nf::verum())?;
                self.fold_negation(ctx.clone(), &pos)
            }
        }
    }

    /// Extends `ctx` with the requirement that the event does *not* occur
    /// (`ctx ∧ ¬event`).
    pub fn apply_neg_event(
        &mut self,
        kind: EventKind,
        pred: Pred,
        tuple: &Tuple,
        depth: usize,
        ctx: &Nf,
    ) -> Result<Nf> {
        let e = GroundEvent::new(kind, pred, tuple.clone());
        if !self.event_possible(&e) {
            // The event cannot occur at all: the requirement is vacuous.
            return Ok(ctx.clone());
        }
        if !self.old.db.program().is_derived(pred) {
            return self.conj_clause(ctx.clone(), &[e], &[]);
        }
        match kind {
            // ¬ins P(c̄) ≡ P°(c̄) ∨ ¬Pⁿ(c̄); here ¬P°(c̄), so ¬Pⁿ(c̄).
            EventKind::Ins => {
                let pos = self.down_new_state(pred, tuple, depth, &nf::verum())?;
                self.fold_negation(ctx.clone(), &pos)
            }
            // ¬del P(c̄) ≡ ¬P°(c̄) ∨ Pⁿ(c̄); here P°(c̄), so Pⁿ(c̄).
            EventKind::Del => self.down_new_state(pred, tuple, depth, ctx),
        }
    }

    /// Downward interpretation of the new-state literal `Pⁿ(c̄)` via the
    /// transition rule of `P`, conjoined into `ctx`.
    fn down_new_state(&mut self, pred: Pred, tuple: &Tuple, depth: usize, ctx: &Nf) -> Result<Nf> {
        if depth >= self.opts.max_depth {
            return Err(Error::LimitExceeded {
                what: "depth",
                limit: self.opts.max_depth,
            });
        }
        if self.visiting.contains(&pred) {
            return Err(Error::RecursiveDownward(pred));
        }
        self.bump(|s| s.nodes += 1);
        self.visiting.push(pred);
        let tr = self.transition(pred);
        let mut out = nf::falsum();
        let result = (|| {
            for branch in tr.iter() {
                let Some(seed) = match_tuple(&branch.head.terms, tuple, &Bindings::new()) else {
                    continue;
                };
                self.bump(|s| s.branches += 1);
                for conj in &branch.conjuncts {
                    let nf_c = self.down_conjunct(conj, &seed, depth + 1, ctx)?;
                    out = nf::union(std::mem::take(&mut out), nf_c);
                    if out.len() > self.cap() {
                        return Err(Error::LimitExceeded {
                            what: "alternatives",
                            limit: self.cap(),
                        });
                    }
                }
            }
            Ok(())
        })();
        self.visiting.pop();
        result.map(|()| out)
    }

    /// Downward interpretation of one transition-rule conjunct under
    /// `seed`, conjoined into `ctx`, in the order `conj` fixes. The old
    /// literals are queries on the current state, run on the join kernel;
    /// the events translate one alternative set per binding.
    fn down_conjunct(
        &mut self,
        conj: &Schedule,
        seed: &Bindings,
        depth: usize,
        ctx: &Nf,
    ) -> Result<Nf> {
        self.bump(|s| s.conjuncts += 1);
        let old = self.old;
        let mut states: Vec<(Bindings, Nf)> = {
            let rel_of = |i: usize| old.relation(conj.old[i].atom.pred);
            eval_seeded(&mut conj.old_plan.borrow_mut(), &conj.old, &rel_of, seed)
                .into_iter()
                .map(|b| (b, ctx.clone()))
                .collect()
        };

        // Positive events: instantiate and translate, then filter by the
        // negated old literals the grounding made ground.
        for (event, filters) in &conj.events {
            let mut next = Vec::new();
            for (b, acc) in &states {
                for g in self.groundings(event.pred(), &event.atom.terms, b)? {
                    let tuple =
                        ground_terms(&event.atom.terms, &g).expect("groundings bind all variables");
                    let combined =
                        self.apply_pos_event(event.kind, event.pred(), &tuple, depth, acc)?;
                    if !combined.is_empty() {
                        next.push((g, combined));
                    }
                }
            }
            states = next;
            if states.len() > self.cap() {
                return Err(Error::LimitExceeded {
                    what: "alternatives",
                    limit: self.cap(),
                });
            }
            states.retain(|(b, _)| {
                filters.iter().all(|a| {
                    let t = ground_terms(&a.terms, b).expect("grounded by the schedule");
                    !old.holds(a.pred, &t)
                })
            });
        }

        // Negated old literals no event grounds: ¬∃ over the old state.
        if !conj.open.is_empty() {
            let rel_of = |i: usize| old.relation(conj.open[i].atom.pred);
            let mut plan = conj.open_plan.borrow_mut();
            states.retain(|(b, _)| !eval_seeded(&mut plan, &conj.open, &rel_of, b).is_empty());
        }

        // Negative events: ∀ groundings, the event must not occur.
        for event in &conj.forbidden {
            let mut next = Vec::new();
            for (b, acc) in states {
                let mut acc2 = acc;
                for g in self.groundings(event.pred(), &event.atom.terms, &b)? {
                    let tuple =
                        ground_terms(&event.atom.terms, &g).expect("groundings bind all variables");
                    acc2 = self.apply_neg_event(event.kind, event.pred(), &tuple, depth, &acc2)?;
                    if acc2.is_empty() {
                        break;
                    }
                }
                if !acc2.is_empty() {
                    next.push((b, acc2));
                }
            }
            states = next;
        }

        let mut out = nf::falsum();
        for (_, acc) in states {
            out = nf::union(out, acc);
            if out.len() > self.cap() {
                return Err(Error::LimitExceeded {
                    what: "alternatives",
                    limit: self.cap(),
                });
            }
        }
        Ok(out)
    }

    /// Folds `¬(pos)` into `ctx`: one clause per positive alternative; the
    /// clause `¬e₁ ∨ ... ∨ ¬eₖ ∨ f₁ ∨ ... ∨ fₘ` comes from negating the
    /// alternative `e₁ ∧ ... ∧ eₖ ∧ ¬f₁ ∧ ... ∧ ¬fₘ` (the `fⱼ` are kept
    /// only if they denote possible events; impossible ones are false
    /// disjuncts).
    fn fold_negation(&self, ctx: Nf, pos: &Nf) -> Result<Nf> {
        let mut out = ctx;
        for alt in pos {
            if out.is_empty() {
                break;
            }
            let forbid: Vec<GroundEvent> = alt.pos.iter().cloned().collect();
            let compensate: Vec<GroundEvent> = alt
                .neg
                .iter()
                .filter(|e| self.event_possible(e))
                .cloned()
                .collect();
            out = self.conj_clause(out, &forbid, &compensate)?;
        }
        Ok(out)
    }

    /// Conjoins the clause `(∧ᵢ ¬forbidᵢ) ∨ (∨ⱼ compensateⱼ)` — greedy
    /// strategy — or `(∨ᵢ ¬forbidᵢ) ∨ (∨ⱼ compensateⱼ)` — exhaustive
    /// strategy — into every alternative of `nf`.
    fn conj_clause(
        &self,
        nf_in: Nf,
        forbid: &[GroundEvent],
        compensate: &[GroundEvent],
    ) -> Result<Nf> {
        let mut out: Nf = Vec::new();
        let push = |alt: Alt, out: &mut Nf| -> Result<()> {
            if out.iter().any(|o: &Alt| o.subsumes(&alt)) {
                return Ok(()); // absorbed
            }
            out.retain(|o| !alt.subsumes(o));
            out.push(alt);
            if out.len() > self.cap() {
                return Err(Error::LimitExceeded {
                    what: "alternatives",
                    limit: self.cap(),
                });
            }
            Ok(())
        };

        for alt in nf_in {
            // Events of the clause not already committed in `alt`: avoiding
            // any one of them satisfies the clause.
            let forbid_remaining: Vec<&GroundEvent> =
                forbid.iter().filter(|e| !alt.pos.contains(e)).collect();
            let mut satisfied_by_forbid = false;

            if !forbid_remaining.is_empty() {
                if self.opts.exhaustive_negation {
                    // Paper-literal branching: one branch per ¬eᵢ.
                    for e in &forbid_remaining {
                        if let Some(a2) = alt.conj(&Alt::of_neg((*e).clone())) {
                            push(a2, &mut out)?;
                            satisfied_by_forbid = true;
                        }
                    }
                } else {
                    // Greedy: one strengthened branch forbidding every
                    // remaining eᵢ (sound: stronger than the disjunction).
                    let mut a2 = alt.clone();
                    a2.neg.extend(forbid_remaining.iter().map(|e| (*e).clone()));
                    push(a2, &mut out)?;
                    satisfied_by_forbid = true;
                }
            }

            if !satisfied_by_forbid || self.opts.exhaustive_negation {
                for f in compensate {
                    // A compensation must not be among the alternative's
                    // own prohibitions.
                    if let Some(a2) = alt.conj(&Alt::of_pos(f.clone())) {
                        push(a2, &mut out)?;
                    }
                }
            }
        }
        Ok(out)
    }
}

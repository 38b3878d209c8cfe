//! Predicate dependency graph: which predicates (transitively) depend on
//! which, through positive or negative body occurrences. Its SCCs underlie
//! stratification and recursion detection ([`crate::stratify`]); its
//! reachability restricts evaluation to what a query needs; its signed
//! closure is the sign analysis behind the maintenance engine's
//! possibility test and the analyzer's deletion sensitivity.

use crate::ast::Pred;
use crate::schema::Program;
use std::collections::{BTreeMap, BTreeSet};

/// An edge kind in the dependency graph.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum EdgeSign {
    /// The body occurrence is positive.
    Positive,
    /// The body occurrence is negative (under `not`).
    Negative,
}

impl EdgeSign {
    /// The sign of a path made of a path of sign `self` and an edge of
    /// sign `edge`.
    fn times(self, edge: EdgeSign) -> EdgeSign {
        if self == edge {
            EdgeSign::Positive
        } else {
            EdgeSign::Negative
        }
    }
}

/// Dependency graph over the predicates of a program.
#[derive(Clone, Debug, Default)]
pub struct DepGraph {
    /// head → (body predicate, sign) edges, deduplicated. A pair may appear
    /// with both signs if the predicate occurs both positively and
    /// negatively.
    edges: BTreeMap<Pred, BTreeSet<(Pred, EdgeSign)>>,
    nodes: BTreeSet<Pred>,
}

impl DepGraph {
    /// Builds the graph from a program's rules.
    pub fn build(program: &Program) -> DepGraph {
        let mut g = DepGraph::default();
        for rule in program.rules() {
            let head = rule.head.pred;
            g.nodes.insert(head);
            for lit in &rule.body {
                let sign = if lit.positive {
                    EdgeSign::Positive
                } else {
                    EdgeSign::Negative
                };
                g.nodes.insert(lit.atom.pred);
                g.edges
                    .entry(head)
                    .or_default()
                    .insert((lit.atom.pred, sign));
            }
        }
        g
    }

    /// All nodes (predicates mentioned anywhere in the rules).
    pub fn nodes(&self) -> impl Iterator<Item = Pred> + '_ {
        self.nodes.iter().copied()
    }

    /// Direct dependencies of `pred` (its rule bodies' predicates).
    pub fn deps(&self, pred: Pred) -> impl Iterator<Item = (Pred, EdgeSign)> + '_ {
        self.edges.get(&pred).into_iter().flatten().copied()
    }

    /// Predicates reachable from `pred` (excluding `pred` itself unless it
    /// is reachable through a cycle).
    pub fn reachable(&self, pred: Pred) -> BTreeSet<Pred> {
        let mut seen = BTreeSet::new();
        let mut stack: Vec<Pred> = self.deps(pred).map(|(p, _)| p).collect();
        while let Some(p) = stack.pop() {
            if seen.insert(p) {
                stack.extend(self.deps(p).map(|(q, _)| q));
            }
        }
        seen
    }

    /// The signed dependency closure of `roots`: `(Q, s)` is in it iff it
    /// is a root or some root `(P, r)` reaches `Q` along a path whose edge
    /// signs multiply with `r` to `s` (two negations cancel; a predicate
    /// reachable with both parities appears twice). Read a pair as a
    /// *change* — `Positive` the extension gains a tuple, `Negative` it
    /// loses one: a rule body can only start to hold through a positive
    /// literal that gained or a negated one that lost, and only stop to
    /// hold the other way round, so the closure is every change that can
    /// contribute to a root change, recursion included. Its unsigned
    /// projection is the roots plus everything they
    /// [reach](Self::reachable).
    pub fn signed_closure(
        &self,
        roots: impl IntoIterator<Item = (Pred, EdgeSign)>,
    ) -> BTreeSet<(Pred, EdgeSign)> {
        let mut seen = BTreeSet::new();
        let mut stack: Vec<(Pred, EdgeSign)> = roots.into_iter().collect();
        while let Some((p, s)) = stack.pop() {
            if seen.insert((p, s)) {
                stack.extend(self.deps(p).map(|(q, e)| (q, s.times(e))));
            }
        }
        seen
    }

    /// Strongly connected components in reverse topological order
    /// (dependencies before dependents), computed with Tarjan's algorithm.
    /// [`crate::stratify::components`] is the one reader: it decides which
    /// components are recursive and how each is maintained.
    pub fn sccs(&self) -> Vec<Vec<Pred>> {
        // Iterative Tarjan over the deterministic node order.
        #[derive(Default)]
        struct State {
            index: BTreeMap<Pred, usize>,
            lowlink: BTreeMap<Pred, usize>,
            on_stack: BTreeSet<Pred>,
            stack: Vec<Pred>,
            next: usize,
            out: Vec<Vec<Pred>>,
        }
        let mut st = State::default();

        for &root in &self.nodes {
            if st.index.contains_key(&root) {
                continue;
            }
            // Explicit DFS stack of (node, iterator position).
            let mut dfs: Vec<(Pred, Vec<Pred>, usize)> = Vec::new();
            let succs =
                |g: &DepGraph, p: Pred| -> Vec<Pred> { g.deps(p).map(|(q, _)| q).collect() };
            st.index.insert(root, st.next);
            st.lowlink.insert(root, st.next);
            st.next += 1;
            st.stack.push(root);
            st.on_stack.insert(root);
            dfs.push((root, succs(self, root), 0));

            while let Some((node, children, pos)) = dfs.last_mut() {
                if *pos < children.len() {
                    let child = children[*pos];
                    *pos += 1;
                    if !st.index.contains_key(&child) {
                        st.index.insert(child, st.next);
                        st.lowlink.insert(child, st.next);
                        st.next += 1;
                        st.stack.push(child);
                        st.on_stack.insert(child);
                        let ch = succs(self, child);
                        dfs.push((child, ch, 0));
                    } else if st.on_stack.contains(&child) {
                        let low = st.lowlink[node].min(st.index[&child]);
                        st.lowlink.insert(*node, low);
                    }
                } else {
                    let node = *node;
                    dfs.pop();
                    if let Some((parent, _, _)) = dfs.last() {
                        let low = st.lowlink[parent].min(st.lowlink[&node]);
                        st.lowlink.insert(*parent, low);
                    }
                    if st.lowlink[&node] == st.index[&node] {
                        let mut comp = Vec::new();
                        while let Some(p) = st.stack.pop() {
                            st.on_stack.remove(&p);
                            comp.push(p);
                            if p == node {
                                break;
                            }
                        }
                        comp.sort();
                        st.out.push(comp);
                    }
                }
            }
        }
        st.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Literal, Rule, Term};

    fn atom(name: &str, vars: &[&str]) -> Atom {
        Atom::new(name, vars.iter().map(|v| Term::var(v)).collect())
    }

    fn program(rules: Vec<Rule>) -> Program {
        let mut b = Program::builder();
        for r in rules {
            b.rule(r);
        }
        b.build().unwrap()
    }

    #[test]
    fn edges_and_signs() {
        let p = program(vec![Rule::new(
            atom("unemp", &["X"]),
            vec![
                Literal::pos(atom("la", &["X"])),
                Literal::neg(atom("works", &["X"])),
            ],
        )]);
        let g = DepGraph::build(&p);
        let deps: Vec<_> = g.deps(Pred::new("unemp", 1)).collect();
        assert!(deps.contains(&(Pred::new("la", 1), EdgeSign::Positive)));
        assert!(deps.contains(&(Pred::new("works", 1), EdgeSign::Negative)));
    }

    #[test]
    fn recursion_detected() {
        // tc(X,Y) :- e(X,Y).  tc(X,Y) :- e(X,Z), tc(Z,Y).
        let p = program(vec![
            Rule::new(
                atom("tc", &["X", "Y"]),
                vec![Literal::pos(atom("e", &["X", "Y"]))],
            ),
            Rule::new(
                atom("tc", &["X", "Y"]),
                vec![
                    Literal::pos(atom("e", &["X", "Z"])),
                    Literal::pos(atom("tc", &["Z", "Y"])),
                ],
            ),
        ]);
        // The base predicate forms no component; tc's is recursive.
        let comps = crate::stratify::components(&p);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].preds, [Pred::new("tc", 2)]);
        assert!(comps[0].recursive);
    }

    #[test]
    fn sccs_in_dependency_order() {
        // v :- u. u :- b.  (linear chain, SCCs: {b}, {u}, {v})
        let p = program(vec![
            Rule::new(atom("v", &["X"]), vec![Literal::pos(atom("u", &["X"]))]),
            Rule::new(atom("u", &["X"]), vec![Literal::pos(atom("b", &["X"]))]),
        ]);
        let g = DepGraph::build(&p);
        let sccs = g.sccs();
        let pos = |name: &str| {
            sccs.iter()
                .position(|c| c.contains(&Pred::new(name, 1)))
                .unwrap()
        };
        assert!(pos("b") < pos("u"));
        assert!(pos("u") < pos("v"));
    }

    #[test]
    fn mutual_recursion_single_scc() {
        let p = program(vec![
            Rule::new(atom("p", &["X"]), vec![Literal::pos(atom("q", &["X"]))]),
            Rule::new(atom("q", &["X"]), vec![Literal::pos(atom("p", &["X"]))]),
        ]);
        let g = DepGraph::build(&p);
        let sccs = g.sccs();
        let comp = sccs
            .iter()
            .find(|c| c.contains(&Pred::new("p", 1)))
            .unwrap();
        assert!(comp.contains(&Pred::new("q", 1)));
    }

    /// The signed closure of `root` over the rules in `src`, rendered
    /// `+p` / `-p` and sorted.
    fn closure(src: &str, root: (&str, usize, EdgeSign)) -> Vec<String> {
        let program = crate::parser::parse_program(src).unwrap().program;
        let (name, arity, sign) = root;
        let mut out: Vec<String> = DepGraph::build(&program)
            .signed_closure([(Pred::new(name, arity), sign)])
            .into_iter()
            .map(|(p, s)| {
                let mark = if s == EdgeSign::Positive { '+' } else { '-' };
                format!("{mark}{}", p.name)
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn signed_closure_keeps_the_sign_along_positive_edges() {
        let src = "v(X) :- u(X). u(X) :- b(X).";
        assert_eq!(
            closure(src, ("v", 1, EdgeSign::Positive)),
            ["+b", "+u", "+v"]
        );
        assert_eq!(
            closure(src, ("v", 1, EdgeSign::Negative)),
            ["-b", "-u", "-v"]
        );
    }

    #[test]
    fn signed_closure_flips_at_a_negation_and_back_at_the_second() {
        let one = "v(X) :- a(X), not u(X). u(X) :- b(X).";
        assert_eq!(
            closure(one, ("v", 1, EdgeSign::Positive)),
            ["+a", "+v", "-b", "-u"]
        );
        let two = "w(X) :- a(X), not v(X). v(X) :- a(X), not u(X). u(X) :- b(X).";
        assert_eq!(
            closure(two, ("w", 1, EdgeSign::Positive)),
            ["+a", "+b", "+u", "+w", "-a", "-v"]
        );
    }

    #[test]
    fn signed_closure_terminates_on_cycles() {
        let tc = "tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).";
        assert_eq!(closure(tc, ("tc", 2, EdgeSign::Positive)), ["+e", "+tc"]);
        // Mutual recursion through negation-free rules, a negation below.
        let mutual = "p(X) :- q(X). q(X) :- p(X). q(X) :- e(X), not m(X).";
        assert_eq!(
            closure(mutual, ("p", 1, EdgeSign::Negative)),
            ["+m", "-e", "-p", "-q"]
        );
    }

    /// The attack graph's shape: a cut edge (`-hacl`) can only shrink what
    /// is reachable, a patch (`+patched`) likewise, so neither is among
    /// the changes that can make `goal` gain a tuple — their opposites are.
    #[test]
    fn signed_closure_leaves_out_a_base_predicate_of_the_wrong_sign() {
        let src = "exploitable(H) :- vuln(H, V), not patched(H, V).
                   exec(A, H) :- at(A, H).
                   exec(A, H) :- exec(A, S), hacl(S, H), exploitable(H).
                   goal(A, H) :- exec(A, H), critical(H).";
        let gains = closure(src, ("goal", 2, EdgeSign::Positive));
        assert!(gains.contains(&"+hacl".to_string()) && !gains.contains(&"-hacl".to_string()));
        assert!(
            gains.contains(&"-patched".to_string()) && !gains.contains(&"+patched".to_string())
        );
        let loses = closure(src, ("goal", 2, EdgeSign::Negative));
        assert!(loses.contains(&"-hacl".to_string()) && loses.contains(&"+patched".to_string()));
    }

    #[test]
    fn reachable_transitive() {
        let p = program(vec![
            Rule::new(atom("v", &["X"]), vec![Literal::pos(atom("u", &["X"]))]),
            Rule::new(atom("u", &["X"]), vec![Literal::pos(atom("b", &["X"]))]),
        ]);
        let g = DepGraph::build(&p);
        let r = g.reachable(Pred::new("v", 1));
        assert!(r.contains(&Pred::new("u", 1)));
        assert!(r.contains(&Pred::new("b", 1)));
        assert!(!r.contains(&Pred::new("v", 1)));
    }
}

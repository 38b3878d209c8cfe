//! Recursive-descent parser for the surface language.
//!
//! ```text
//! program   := item*
//! item      := directive | clause
//! directive := '#' ('base'|'view'|'ic'|'cond') name '/' INT '.'
//!            | '#' 'domain' '{' const (',' const)* '}' '.'
//! clause    := atom '.'                    -- ground fact
//!            | atom ':-' body '.'          -- deductive / integrity rule
//!            | ':-' body '.'               -- denial (auto-named icN)
//! body      := literal (',' literal)*
//! literal   := ['not'] atom
//! atom      := name [ '(' term (',' term)* ')' ]
//! term      := VARIABLE | const
//! const     := name | QUOTED | ['-'] INT
//! ```
//!
//! Transactions (sets of base events) use the same token stream:
//!
//! ```text
//! events    := (('+'|'-') atom '.')*
//! ```
//!
//! One parser serves every front end, in one pass from text to what the
//! caller keeps. It pulls tokens from a [`Lexer`] with one token of
//! lookahead, interns each distinct string of the source once (through a
//! table of its own, so the global interner's lock is taken once per
//! string, not once per occurrence; [`parse_database`]'s table uses a
//! cheap word hash, text from clients std's keyed one), and hands every
//! ground fact to a sink. [`parse_database`]'s sink appends the fact's tuple to its
//! predicate's vector, and each relation is built once, from one sorted
//! run; [`parse_program`] and [`parse_program_lenient`] keep the facts as
//! spanned [`Atom`]s for `analysis/`.
//!
//! Symbols are interned where they first occur, an atom's terms before
//! its predicate name (as [`Atom::new`] interns), so `Sym` order — and
//! with it tuple order and run layout — is the same whichever front end
//! reads a source. A lexical error anywhere in the source is reported in
//! preference to a syntax error before it, as if the whole source had
//! been lexed first.

pub mod lexer;

use crate::ast::{Atom, Const, Literal, Pred, Rule, Term, Var};
use crate::error::{Error, ParseError, SchemaError, Span};
use crate::schema::{DerivedRole, Program, ProgramBuilder, Role};
use crate::storage::database::Database;
use crate::storage::relation::Relation;
use crate::storage::tuple::Tuple;
use crate::symbol::Sym;
use lexer::{Lexer, Spanned, Tok};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher, RandomState};

/// A parsed base event: `+atom` (insertion) or `-atom` (deletion).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParsedEvent {
    /// `true` for an insertion event, `false` for a deletion event.
    pub insert: bool,
    /// The (ground) atom.
    pub atom: Atom,
}

/// Result of parsing a database source: the intensional program plus the
/// extensional facts.
#[derive(Clone, Debug)]
pub struct ParseOutput {
    /// The validated program.
    pub program: Program,
    /// Ground facts from the source, in order.
    pub facts: Vec<Atom>,
}

struct Parser<'a, S = RandomState> {
    lexer: Lexer<'a>,
    /// The lookahead: `None` at the end of the input, and at the first
    /// lexical error (kept in `lex_err`), which ends the tokens.
    next: Option<Spanned<'a>>,
    /// Where the last token taken starts: an error at the end of the
    /// input points there.
    last: Span,
    lex_err: Option<ParseError>,
    /// Anonymous variables so far (`_` reads as `_AnonN`).
    fresh: u32,
    /// Each distinct string of the source, interned once.
    syms: HashMap<&'a str, Sym, S>,
    /// The last atom's predicate and name, tried before the table: a
    /// snapshot lists each predicate's facts together.
    last_pred: Option<(&'a str, Pred)>,
    /// The terms of the atom just parsed, reused from atom to atom.
    terms: Vec<Term>,
    /// Its constants, when it is ground.
    consts: Vec<Const>,
}

impl<'a, S: BuildHasher + Default> Parser<'a, S> {
    fn new(src: &'a str) -> Parser<'a, S> {
        let mut p = Parser {
            lexer: Lexer::new(src),
            next: None,
            last: Span { line: 1, col: 1 },
            lex_err: None,
            fresh: 0,
            syms: HashMap::default(),
            last_pred: None,
            terms: Vec::new(),
            consts: Vec::new(),
        };
        p.advance();
        p
    }

    /// Reads the next token into the lookahead.
    fn advance(&mut self) {
        self.next = match self.lexer.next_token() {
            Ok(next) => next,
            Err(e) => {
                self.lex_err = Some(e);
                None
            }
        };
    }

    /// Ends a parse that came to `result`. The source's first lexical
    /// error, if it has one, is reported instead, so a parse that failed
    /// before the lexer's end reads on to look for one.
    fn finish<T, E: From<ParseError>>(mut self, result: Result<T, E>) -> Result<T, E> {
        if result.is_err() && self.lex_err.is_none() {
            self.lex_err = self.lexer.find_map(Result::err);
        }
        match self.lex_err {
            Some(e) => Err(e.into()),
            None => result,
        }
    }

    fn peek(&self) -> Option<&Tok<'a>> {
        self.next.as_ref().map(|s| &s.tok)
    }

    fn span(&self) -> Span {
        self.next.map_or(self.last, |s| s.span)
    }

    fn bump(&mut self) -> Option<Tok<'a>> {
        let taken = self.next?;
        self.last = taken.span;
        self.advance();
        Some(taken.tok)
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            span: self.span(),
            message: message.into(),
        }
    }

    fn expect(&mut self, tok: &Tok<'_>) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == tok => {
                self.bump();
                Ok(())
            }
            Some(t) => Err(self.err(format!("expected {tok}, found {t}"))),
            None => Err(self.err(format!("expected {tok}, found end of input"))),
        }
    }

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        match self.peek() {
            Some(&Tok::Ident(s)) => {
                self.bump();
                Ok(s)
            }
            Some(t) => Err(self.err(format!("expected identifier, found {t}"))),
            None => Err(self.err("expected identifier, found end of input")),
        }
    }

    /// `s`'s symbol, interned on its first occurrence in the source.
    fn sym(&mut self, s: &'a str) -> Sym {
        *self.syms.entry(s).or_insert_with(|| Sym::new(s))
    }

    fn pred(&mut self, name: &'a str, arity: usize) -> Pred {
        match self.last_pred {
            Some((last, pred)) if last == name && pred.arity == arity => pred,
            _ => {
                let pred = Pred {
                    name: self.sym(name),
                    arity,
                };
                self.last_pred = Some((name, pred));
                pred
            }
        }
    }

    fn constant(&mut self) -> Result<Const, ParseError> {
        match self.peek().copied() {
            Some(Tok::Ident(s) | Tok::Quoted(s)) => {
                self.bump();
                Ok(Const::Sym(self.sym(s)))
            }
            Some(Tok::Int(i)) => {
                self.bump();
                Ok(Const::Int(i))
            }
            Some(Tok::Minus) => {
                self.bump();
                match self.peek().copied() {
                    Some(Tok::Int(i)) => {
                        self.bump();
                        Ok(Const::Int(-i))
                    }
                    _ => Err(self.err("expected integer after `-`")),
                }
            }
            Some(t) => Err(self.err(format!("expected constant, found {t}"))),
            None => Err(self.err("expected constant, found end of input")),
        }
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        match self.peek().copied() {
            Some(Tok::Var("_")) => {
                self.bump();
                self.fresh += 1;
                Ok(Term::var(&format!("_Anon{}", self.fresh)))
            }
            Some(Tok::Var(name)) => {
                self.bump();
                Ok(Term::Var(Var(self.sym(name))))
            }
            _ => Ok(Term::Const(self.constant()?)),
        }
    }

    /// Parses an atom into `self.terms`; returns its predicate and where
    /// its name starts. The name is interned after the terms.
    fn atom_terms(&mut self) -> Result<(Pred, Span), ParseError> {
        let span = self.span();
        let name = self.ident()?;
        self.terms.clear();
        if self.peek() == Some(&Tok::LParen) {
            self.bump();
            loop {
                let term = self.term()?;
                self.terms.push(term);
                match self.peek() {
                    Some(Tok::Comma) => {
                        self.bump();
                    }
                    Some(Tok::RParen) => {
                        self.bump();
                        break;
                    }
                    _ => return Err(self.err("expected `,` or `)` in argument list")),
                }
            }
        }
        Ok((self.pred(name, self.terms.len()), span))
    }

    /// The atom [`Parser::atom_terms`] just parsed.
    fn parsed_atom(&self, pred: Pred, span: Option<Span>) -> Atom {
        Atom {
            pred,
            terms: self.terms.clone(),
            span,
        }
    }

    /// The constants of the fact just parsed, which must be ground.
    fn ground(&mut self, pred: Pred) -> Result<&[Const], ParseError> {
        self.consts.clear();
        self.consts
            .extend(self.terms.iter().map_while(|t| t.as_const()));
        if self.consts.len() < self.terms.len() {
            let fact = self.parsed_atom(pred, None);
            return Err(self.err(format!("fact `{fact}` must be ground")));
        }
        Ok(&self.consts)
    }

    fn atom(&mut self) -> Result<Atom, ParseError> {
        let (pred, span) = self.atom_terms()?;
        Ok(self.parsed_atom(pred, Some(span)))
    }

    fn literal(&mut self) -> Result<Literal, ParseError> {
        if self.peek() == Some(&Tok::Ident("not")) {
            self.bump();
            return Ok(Literal::neg(self.atom()?));
        }
        Ok(Literal::pos(self.atom()?))
    }

    fn body(&mut self) -> Result<Vec<Literal>, ParseError> {
        let mut lits = vec![self.literal()?];
        while self.peek() == Some(&Tok::Comma) {
            self.bump();
            lits.push(self.literal()?);
        }
        Ok(lits)
    }

    /// `/ INT` after a predicate name in a directive.
    fn arity(&mut self) -> Result<usize, ParseError> {
        self.expect(&Tok::Slash)?;
        match self.bump() {
            Some(Tok::Int(i)) if i >= 0 => Ok(i as usize),
            _ => Err(self.err("expected arity after `/`")),
        }
    }

    fn directive(
        &mut self,
        builder: &mut ProgramBuilder,
        lenient: Option<&mut Vec<SchemaError>>,
    ) -> Result<(), Error> {
        self.expect(&Tok::Hash)?;
        let kind = self.ident()?;
        match kind {
            "base" | "view" | "ic" | "cond" => {
                let name = self.ident()?;
                let arity = self.arity()?;
                let role = match kind {
                    "base" => Role::Base,
                    "view" => Role::Derived(DerivedRole::View),
                    "ic" => Role::Derived(DerivedRole::Ic),
                    "cond" => Role::Derived(DerivedRole::Cond),
                    _ => unreachable!(),
                };
                let pred = self.pred(name, arity);
                if let Err(e) = builder.declare(pred, role) {
                    match lenient {
                        Some(errors) => errors.push(e),
                        None => return Err(e.into()),
                    }
                }
            }
            "domain" => {
                // `#domain {a, b}.` (global) or `#domain p/1 {a, b}.`
                // (per-predicate instantiation domain).
                let target = if matches!(self.peek(), Some(Tok::Ident(_))) {
                    let name = self.ident()?;
                    let arity = self.arity()?;
                    Some(self.pred(name, arity))
                } else {
                    None
                };
                self.expect(&Tok::LBrace)?;
                let mut consts = Vec::new();
                loop {
                    consts.push(self.constant()?);
                    match self.peek() {
                        Some(Tok::Comma) => {
                            self.bump();
                        }
                        Some(Tok::RBrace) => {
                            self.bump();
                            break;
                        }
                        _ => return Err(self.err("expected `,` or `}` in domain").into()),
                    }
                }
                match target {
                    Some(pred) => {
                        builder.pred_domain(pred, consts);
                    }
                    None => {
                        builder.domain(consts);
                    }
                }
            }
            other => {
                return Err(self
                    .err(format!(
                        "unknown directive `#{other}` (expected base/view/ic/cond/domain)"
                    ))
                    .into())
            }
        }
        self.expect(&Tok::Dot)?;
        Ok(())
    }

    /// Parses every item into a builder, handing each ground fact to
    /// `fact` with its predicate and span; in lenient mode declaration
    /// conflicts are pushed onto `errors` instead of aborting.
    fn items(
        &mut self,
        lenient: bool,
        errors: &mut Vec<SchemaError>,
        fact: &mut impl FnMut(Pred, &[Const], Span),
    ) -> Result<ProgramBuilder, Error> {
        let mut builder = Program::builder();
        while let Some(tok) = self.peek() {
            match tok {
                Tok::Hash => {
                    let collect = lenient.then_some(&mut *errors);
                    self.directive(&mut builder, collect)?
                }
                Tok::Implies => {
                    // denial
                    let span = self.span();
                    self.bump();
                    let body = self.body()?;
                    builder.denial_at(Some(span), body);
                    self.expect(&Tok::Dot)?;
                }
                _ => {
                    let (pred, span) = self.atom_terms()?;
                    match self.peek() {
                        Some(Tok::Implies) => {
                            let head = self.parsed_atom(pred, Some(span));
                            self.bump();
                            let body = self.body()?;
                            builder.rule(Rule::new(head, body));
                            self.expect(&Tok::Dot)?;
                        }
                        Some(Tok::Dot) => {
                            self.bump();
                            fact(pred, self.ground(pred)?, span);
                        }
                        _ => return Err(self.err("expected `.` or `:-` after atom").into()),
                    }
                }
            }
        }
        Ok(builder)
    }

    fn events(&mut self) -> Result<Vec<ParsedEvent>, ParseError> {
        let mut out = Vec::new();
        while let Some(tok) = self.bump() {
            let insert = match tok {
                Tok::Plus => true,
                Tok::Minus => false,
                t => return Err(self.err(format!("expected `+` or `-`, found {t}"))),
            };
            let atom = self.atom()?;
            self.expect(&Tok::Dot)?;
            out.push(ParsedEvent { insert, atom });
        }
        Ok(out)
    }
}

/// Result of the *lenient* front end used by static analysis: a
/// best-effort program plus every schema error encountered on the way
/// (role conflicts from directives and from program assembly). Only true
/// syntax errors abort a lenient parse.
#[derive(Clone, Debug)]
pub struct LenientParse {
    /// Best-effort program and facts (role conflicts recovered).
    pub output: ParseOutput,
    /// Schema errors collected instead of failing fast.
    pub schema_errors: Vec<SchemaError>,
}

/// Parses a source's items into a builder, handing each ground fact to
/// `fact`; in lenient mode declaration conflicts are pushed onto `errors`
/// instead of aborting. `S` hashes the intern table.
fn parse_items<S: BuildHasher + Default>(
    src: &str,
    lenient: bool,
    errors: &mut Vec<SchemaError>,
    mut fact: impl FnMut(Pred, &[Const], Span),
) -> Result<ProgramBuilder, Error> {
    let mut p = Parser::<S>::new(src);
    let result = p.items(lenient, errors, &mut fact);
    p.finish(result)
}

/// A fact as the spanned atom the analysis front end reads.
fn fact_atom(pred: Pred, consts: &[Const], span: Span) -> Atom {
    Atom {
        pred,
        terms: consts.iter().map(|&c| Term::Const(c)).collect(),
        span: Some(span),
    }
}

/// Parses a database source (program + facts).
pub fn parse_program(src: &str) -> Result<ParseOutput, Error> {
    let mut errors = Vec::new();
    let mut facts = Vec::new();
    let builder = parse_items::<RandomState>(src, false, &mut errors, |pred, consts, span| {
        facts.push(fact_atom(pred, consts, span))
    })?;
    debug_assert!(errors.is_empty());
    let program = builder.build()?;
    Ok(ParseOutput { program, facts })
}

/// Parses a database source without failing on schema errors: directive
/// and role conflicts are collected, and a best-effort program is built
/// for analysis. Only syntax errors are fatal.
pub fn parse_program_lenient(src: &str) -> Result<LenientParse, ParseError> {
    let mut errors = Vec::new();
    let mut facts = Vec::new();
    let builder = match parse_items::<RandomState>(src, true, &mut errors, |pred, consts, span| {
        facts.push(fact_atom(pred, consts, span))
    }) {
        Ok(v) => v,
        Err(Error::Parse(e)) => return Err(e),
        // Lenient item parsing only surfaces syntax errors, but stay total.
        Err(other) => {
            return Err(ParseError {
                span: Span { line: 1, col: 1 },
                message: other.to_string(),
            })
        }
    };
    let (program, build_errors) = builder.build_lenient();
    errors.extend(build_errors);
    Ok(LenientParse {
        output: ParseOutput { program, facts },
        schema_errors: errors,
    })
}

/// The intern table's hasher for [`parse_database`]: a multiply-xor over
/// the string's 8-byte words, about a tenth of a snapshot's parse less
/// than std's SipHash. Its collisions are easy to construct, so text a
/// client sends (transactions through [`parse_events`], queries through
/// [`parse_program`]) keeps std's keyed [`RandomState`]; a database
/// source is a file the process was started on or wrote itself.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        const K: u64 = 0xf135_7aea_2e62_a9c5;
        let mut words = bytes.chunks_exact(8);
        let mut h = self.0;
        for word in &mut words {
            h = (h ^ u64::from_le_bytes(word.try_into().expect("eight bytes"))).wrapping_mul(K);
        }
        let rest = words.remainder();
        let mut last = [0; 8];
        last[..rest.len()].copy_from_slice(rest);
        // The length, in the top byte, tells `a` from `a\0`.
        self.0 = (h ^ u64::from_le_bytes(last) ^ (bytes.len() as u64) << 56).wrapping_mul(K);
    }

    /// The table's keys are `&str`s, which hash as their bytes and then
    /// a terminator byte; the length mixed in above already does the
    /// terminator's job.
    fn write_u8(&mut self, _: u8) {}

    fn finish(&self) -> u64 {
        // The table takes its bucket from the low bits: bring the
        // product's better-mixed high bits there.
        self.0.rotate_left(26)
    }
}

/// The facts of one predicate: `rows` rows of its arity, end to end.
struct Rows {
    pred: Pred,
    rows: usize,
    flat: Vec<Const>,
}

/// The facts of a source by predicate, the predicates in the order of
/// their first fact.
#[derive(Default)]
struct FactGroups {
    groups: Vec<Rows>,
    at: HashMap<Pred, usize>,
    /// The group of the last fact: a snapshot lists each predicate's
    /// facts together.
    last: usize,
}

impl FactGroups {
    fn push(&mut self, pred: Pred, consts: &[Const]) {
        if self.groups.get(self.last).is_none_or(|g| g.pred != pred) {
            let fresh = self.groups.len();
            self.last = *self.at.entry(pred).or_insert(fresh);
            if self.last == fresh {
                self.groups.push(Rows {
                    pred,
                    rows: 0,
                    flat: Vec::new(),
                });
            }
        }
        let group = &mut self.groups[self.last];
        group.rows += 1;
        group.flat.extend_from_slice(consts);
    }
}

/// Parses a database source and loads it into a [`Database`]: each fact's
/// constants go to its predicate's rows, and each relation is built once,
/// from its sorted rows. A fact on a derived predicate fails as
/// [`Database::assert_fact`] would, the first such fact in source order.
pub fn parse_database(src: &str) -> Result<Database, Error> {
    let mut errors = Vec::new();
    let mut facts = FactGroups::default();
    let builder = parse_items::<BuildHasherDefault<WordHasher>>(
        src,
        false,
        &mut errors,
        |pred, consts, _| facts.push(pred, consts),
    )?;
    debug_assert!(errors.is_empty());
    let program = builder.build()?;
    let relations = facts
        .groups
        .into_iter()
        .map(|g| (g.pred, Relation::from_rows(g.pred.arity, g.rows, &g.flat)));
    Ok(Database::from_relations(program, relations)?)
}

/// Parses a transaction source: a sequence of `+atom.` / `-atom.` events.
pub fn parse_events(src: &str) -> Result<Vec<ParsedEvent>, Error> {
    let mut p = Parser::<RandomState>::new(src);
    let result = p.events();
    Ok(p.finish(result)?)
}

/// A pull reader of ground facts, for line formats built on the surface
/// syntax (the persisted counts file: `c 3 +p(a).`). The caller reads
/// its own tags as tokens; a fact's constants are interned through the
/// reader's table, like a parse's. A lexical error ends the tokens, and
/// [`FactReader::finish`] reports it.
pub struct FactReader<'a>(Parser<'a>);

impl<'a> FactReader<'a> {
    /// A reader at the start of `src`.
    pub fn new(src: &'a str) -> FactReader<'a> {
        FactReader(Parser::<RandomState>::new(src))
    }

    /// Takes the next token; `None` at the end of the tokens.
    pub fn bump(&mut self) -> Option<Tok<'a>> {
        self.0.bump()
    }

    /// Where the next token starts (the last token's start at the end).
    pub fn span(&self) -> Span {
        self.0.span()
    }

    /// Takes `tok`, or fails naming what came instead.
    pub fn expect(&mut self, tok: &Tok<'_>) -> Result<(), ParseError> {
        self.0.expect(tok)
    }

    /// Takes a ground atom: its predicate and its tuple.
    pub fn fact(&mut self) -> Result<(Pred, Tuple), ParseError> {
        let (pred, _) = self.0.atom_terms()?;
        Ok((pred, Tuple::from(self.0.ground(pred)?)))
    }

    /// Ends the read at `result`, or at the source's first lexical error
    /// if it has one.
    pub fn finish<T>(self, result: Result<T, ParseError>) -> Result<T, ParseError> {
        self.0.finish(result)
    }
}

/// Parses a single event, e.g. `+p(a)` (trailing `.` optional).
pub fn parse_event(src: &str) -> Result<ParsedEvent, Error> {
    let src = src.trim();
    let src_dotted;
    let src = if src.ends_with('.') {
        src
    } else {
        src_dotted = format!("{src}.");
        &src_dotted
    };
    let events = parse_events(src)?;
    match <[ParsedEvent; 1]>::try_from(events) {
        Ok([e]) => Ok(e),
        Err(_) => Err(Error::Parse(ParseError {
            span: Span { line: 1, col: 1 },
            message: "expected exactly one event".into(),
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::GLOBAL_IC;

    const EMPLOYMENT: &str = "
        % Example 5.1 of the paper
        la(dolors).
        u_benefit(dolors).
        unemp(X) :- la(X), not works(X).
        :- unemp(X), not u_benefit(X).
    ";

    #[test]
    fn parses_employment_database() {
        let db = parse_database(EMPLOYMENT).unwrap();
        assert_eq!(db.fact_count(), 2);
        assert!(db.program().is_derived(Pred::new("unemp", 1)));
        assert!(db.program().is_base(Pred::new("works", 1)));
        // denial became ic1 + global ic
        assert!(db.program().is_derived(Pred::new("ic1", 0)));
        assert!(db.program().global_ic().is_some());
        assert_eq!(db.program().global_ic().unwrap().name.as_str(), GLOBAL_IC);
    }

    #[test]
    fn parses_directives() {
        let db = parse_database(
            "#cond needy/1.\n#domain {a, b, -3}.\nneedy(X) :- la(X), not works(X).\n",
        )
        .unwrap();
        assert_eq!(
            db.program().role(Pred::new("needy", 1)),
            Some(Role::Derived(DerivedRole::Cond))
        );
        assert_eq!(db.program().declared_domain().len(), 3);
        assert!(db.program().declared_domain().contains(&Const::Int(-3)));
    }

    #[test]
    fn non_ground_fact_rejected() {
        assert!(parse_database("p(X).").is_err());
    }

    #[test]
    fn parses_transaction() {
        let evs = parse_events("+works(john, sales).\n-u_benefit(dolors).").unwrap();
        assert_eq!(evs.len(), 2);
        assert!(evs[0].insert);
        assert!(!evs[1].insert);
        assert_eq!(evs[1].atom.to_string(), "u_benefit(dolors)");
    }

    #[test]
    fn parse_single_event() {
        let e = parse_event("-r(b)").unwrap();
        assert!(!e.insert);
        assert_eq!(e.atom.to_string(), "r(b)");
        assert!(parse_event("+a(x). +b(y).").is_err());
    }

    #[test]
    fn anonymous_variables_are_fresh() {
        let out = parse_program("p(X) :- q(X, _), r(_, X).").unwrap();
        let rule = &out.program.rules()[0];
        let v1 = rule.body[0].atom.terms[1];
        let v2 = rule.body[1].atom.terms[0];
        assert_ne!(v1, v2);
    }

    #[test]
    fn quoted_and_negative_constants() {
        let db = parse_database("p('New York', -5).").unwrap();
        assert_eq!(db.fact_count(), 1);
        assert!(db.holds(
            Pred::new("p", 2),
            &crate::storage::tuple::Tuple::new(vec![Const::sym("New York"), Const::Int(-5)])
        ));
    }

    #[test]
    fn error_messages_carry_position() {
        let err = parse_database("p(a)\nq(b).").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("2:1"), "{msg}");
    }

    #[test]
    fn unknown_directive_rejected() {
        assert!(parse_database("#frobnicate p/1.").is_err());
    }

    #[test]
    fn multiple_denials_get_distinct_names() {
        let out = parse_program(":- p(X).\n:- q(X).").unwrap();
        assert!(out.program.role(Pred::new("ic1", 0)).is_some());
        assert!(out.program.role(Pred::new("ic2", 0)).is_some());
    }

    #[test]
    fn rule_with_constant_argument() {
        let out = parse_program("vip(X) :- works(X, 'head office').").unwrap();
        let rule = &out.program.rules()[0];
        assert_eq!(rule.body[0].atom.terms[1], Term::sym("head office"));
    }
}

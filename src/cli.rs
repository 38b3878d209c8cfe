//! The interactive shell behind the `dduf` binary: a thin, scriptable
//! command layer over [`UpdateProcessor`] exposing the whole problem
//! catalog. Commands return their output as strings so the layer is unit
//! testable without a terminal.

use dduf_core::downward::{Alternative, Request};
use dduf_core::problems::condition_prevention::PreventKinds;
use dduf_core::problems::repair::{RepairOutcome, Satisfiability};
use dduf_core::processor::UpdateProcessor;
use dduf_core::{Error, Result};
use dduf_datalog::ast::Pred;
use dduf_datalog::parser::parse_database;
use dduf_events::pretty::{self, Style};
use dduf_events::rules::EventRuleSystem;
use std::fmt::Write as _;

/// One interactive session: a processor plus the alternatives offered by
/// the most recent downward command (for `:do <n>`), and — for sessions
/// opened with `dduf db open` — the durable store that journals every
/// commit.
pub struct Session {
    proc: UpdateProcessor,
    pending: Vec<Alternative>,
    store: Option<dduf_persist::DurableStore>,
}

impl Session {
    /// Starts an in-memory session over a database source.
    pub fn from_source(src: &str) -> Result<Session> {
        Ok(Session {
            proc: UpdateProcessor::new(parse_database(src)?)?,
            pending: Vec::new(),
            store: None,
        })
    }

    /// Starts a durable session: every commit (`:apply`, `:force`, `:do`)
    /// is journaled with write-ahead ordering before the in-memory state
    /// changes, and `:checkpoint` writes a snapshot.
    pub fn durable(db: dduf_persist::DurableDb) -> Session {
        let (proc, store) = db.into_parts();
        Session {
            proc,
            pending: Vec::new(),
            store: Some(store),
        }
    }

    /// The underlying processor (for assertions in tests).
    pub fn processor(&self) -> &UpdateProcessor {
        &self.proc
    }

    /// Executes one command line, returning the text to display.
    pub fn run(&mut self, line: &str) -> Result<String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') {
            return Ok(String::new());
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        match cmd {
            ":help" => Ok(HELP.to_string()),
            ":show" => Ok(dduf_datalog::query::show(self.proc.state(), rest)),
            ":rules" => Ok(self.rules()),
            ":check" => self.check(rest),
            ":apply" => self.apply(rest, true),
            ":force" => self.apply(rest, false),
            ":update" => self.update(rest),
            ":safe-update" => self.safe_update(rest),
            ":monitor" => self.monitor(rest),
            ":prevent" => self.prevent(rest),
            ":repair" => self.repair(),
            ":satisfiable" => self.satisfiable(),
            ":why" => self.why(rest),
            ":save" => self.save(rest),
            ":checkpoint" => self.checkpoint(),
            ":query" => self.query(rest),
            ":stats" => Ok(self.stats()),
            // The REPL intercepts these before dispatch; handling them
            // here too keeps scripted/embedded use (`session.run`) from
            // erroring on a perfectly reasonable goodbye.
            ":quit" | ":q" | ":exit" => Ok("bye".into()),
            ":do" => self.commit_pending(rest),
            other => Err(Error::Datalog(dduf_datalog::error::Error::Parse(
                dduf_datalog::error::ParseError {
                    span: dduf_datalog::error::Span { line: 1, col: 1 },
                    message: format!("unknown command `{other}`; try :help"),
                },
            ))),
        }
    }

    fn rules(&self) -> String {
        let mut out = dduf_datalog::pretty::program(self.proc.database().program());
        out.push('\n');
        out.push_str(&pretty::system(
            &EventRuleSystem::build(self.proc.database().program()),
            Style::Paper,
        ));
        out
    }

    fn check(&self, txn_src: &str) -> Result<String> {
        let txn = self.proc.transaction(txn_src)?;
        Ok(self.proc.check_integrity(&txn)?.to_string())
    }

    fn apply(&mut self, txn_src: &str, checked: bool) -> Result<String> {
        let txn = self.proc.transaction(txn_src)?;
        let store = &mut self.store;
        let applied = self.proc.apply(&txn, checked, &mut |t| journal(store, t))?;
        Ok(match applied {
            Ok(res) => format!("applied {}; induced {}", res.base, res.derived),
            Err(rejection) => rejection.to_string(),
        })
    }

    fn update(&mut self, req_src: &str) -> Result<String> {
        let req = Request::parse(req_src)?;
        let res = self.proc.translate_view_update(&req)?;
        self.render_alternatives(res.alternatives, &res.already_satisfied)
    }

    fn safe_update(&mut self, req_src: &str) -> Result<String> {
        let req = Request::parse(req_src)?;
        let res = self.proc.view_update_with_integrity(&req)?;
        self.render_alternatives(res.alternatives, &res.already_satisfied)
    }

    fn monitor(&self, txn_src: &str) -> Result<String> {
        let txn = self.proc.transaction(txn_src)?;
        let ch = self.proc.monitor_conditions(&txn)?;
        if ch.is_empty() {
            return Ok("no condition changes".into());
        }
        let mut out = String::new();
        for (p, ts) in &ch.activated {
            for t in ts {
                let _ = writeln!(out, "ACTIVATED   {}", t.to_atom(*p));
            }
        }
        for (p, ts) in &ch.deactivated {
            for t in ts {
                let _ = writeln!(out, "deactivated {}", t.to_atom(*p));
            }
        }
        Ok(out)
    }

    fn prevent(&mut self, rest: &str) -> Result<String> {
        // :prevent <cond_name>/<arity> <txn>
        let (spec, txn_src) = rest
            .split_once(char::is_whitespace)
            .ok_or_else(|| parse_err("usage: :prevent <cond>/<arity> <transaction>"))?;
        let pred = parse_pred(spec)?;
        let txn = self.proc.transaction(txn_src.trim())?;
        let res = self
            .proc
            .prevent_condition_activation(&txn, pred, PreventKinds::Activation)?;
        self.render_alternatives(res.alternatives, &res.already_satisfied)
    }

    /// `:why p(a)` — derivation of a fact in the current state;
    /// `:why +p(a). <txn...>` — why a transaction induces an event.
    fn why(&self, rest: &str) -> Result<String> {
        if rest.starts_with('+') || rest.starts_with('-') {
            let events = dduf_datalog::parser::parse_events(rest)?;
            let Some((first, txn_events)) = events.split_first() else {
                return Err(parse_err("usage: :why +p(a). <transaction...>"));
            };
            let kind = if first.insert {
                dduf_events::event::EventKind::Ins
            } else {
                dduf_events::event::EventKind::Del
            };
            let tuple = first
                .atom
                .as_tuple()
                .ok_or_else(|| parse_err("event to explain must be ground"))?;
            let event = dduf_events::event::GroundEvent::new(kind, first.atom.pred, tuple.into());
            let mut events = Vec::with_capacity(txn_events.len());
            for pe in txn_events {
                let k = if pe.insert {
                    dduf_events::event::EventKind::Ins
                } else {
                    dduf_events::event::EventKind::Del
                };
                let tuple = pe.atom.as_tuple().ok_or_else(|| {
                    parse_err(&format!(
                        "usage: :why <ev>. <txn>; the transaction must be ground, not {}",
                        pe.atom
                    ))
                })?;
                events.push(dduf_events::event::GroundEvent::new(
                    k,
                    pe.atom.pred,
                    tuple.into(),
                ));
            }
            let txn =
                dduf_core::transaction::Transaction::from_events(self.proc.database(), events)?;
            let engine = self
                .proc
                .maintenance()
                .expect("every processor has an engine");
            return Ok(
                match dduf_core::explain::explain_event(self.proc.database(), engine, &txn, &event)?
                {
                    Some(ex) => ex.to_string(),
                    None => format!("{event} is not induced by that transaction"),
                },
            );
        }
        // Plain fact: derivation in the current state.
        let atom_src = rest.trim().trim_end_matches('.');
        let out = dduf_datalog::parser::parse_program(&format!("why_tmp :- {atom_src}."))?;
        let atom = out.program.rules()[0].body[0].atom.clone();
        let ds = dduf_datalog::provenance::explain_all(self.proc.state(), &atom);
        if ds.is_empty() {
            return Ok(format!("{atom} does not hold"));
        }
        Ok(ds
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n"))
    }

    /// `:query p(a, X)` — the atom's instances in the current state (the
    /// materialized interpretation the processor maintains).
    fn query(&self, rest: &str) -> Result<String> {
        Ok(dduf_datalog::query::command(self.proc.state(), rest)?)
    }

    /// `:save <path>` — write the current database (program + facts) to a
    /// file in re-parseable surface syntax.
    fn save(&self, path: &str) -> Result<String> {
        if path.is_empty() {
            return Err(parse_err("usage: :save <path>"));
        }
        let src = dduf_datalog::pretty::database(self.proc.database());
        std::fs::write(path, &src).map_err(|e| parse_err(&format!("cannot write {path}: {e}")))?;
        Ok(format!("saved {} bytes to {path}", src.len()))
    }

    fn repair(&mut self) -> Result<String> {
        match self.proc.repairs()? {
            RepairOutcome::AlreadyConsistent => Ok("database is consistent".into()),
            RepairOutcome::NoConstraints => Ok("no constraints declared".into()),
            RepairOutcome::Repairs(res) => {
                self.render_alternatives(res.alternatives, &res.already_satisfied)
            }
        }
    }

    fn satisfiable(&self) -> Result<String> {
        Ok(match self.proc.satisfiable()? {
            Satisfiability::SatisfiedNow => "satisfiable (current state already consistent)".into(),
            Satisfiability::Satisfiable(_) => "satisfiable (a repairing transaction exists)".into(),
            Satisfiability::Unsatisfiable => "UNSATISFIABLE over the current finite domain".into(),
        })
    }

    fn commit_pending(&mut self, n: &str) -> Result<String> {
        let idx: usize = n
            .trim()
            .parse()
            .map_err(|_| parse_err("usage: :do <alternative number>"))?;
        let alt = self
            .pending
            .get(idx.wrapping_sub(1))
            .cloned()
            .ok_or_else(|| parse_err("no such alternative; run a downward command first"))?;
        let txn = alt.to_transaction(self.proc.database())?;
        let store = &mut self.store;
        let res = self
            .proc
            .commit_with_hook(&txn, &mut |t| journal(store, t))?;
        self.pending.clear();
        Ok(format!("committed {}; induced {}", res.base, res.derived))
    }

    /// `:stats` — render everything the session's trace recorder has
    /// accumulated so far (semantic counters are deterministic; wall-clock
    /// times are not). Durable sessions also report how far the journal
    /// extends on disk.
    fn stats(&self) -> String {
        let mut out = match dduf_obs::snapshot() {
            Some(report) if !report.is_empty() => report.render_text(),
            Some(_) => "no spans recorded yet; run a command first\n".into(),
            None => "tracing is not available in this session\n".into(),
        };
        if let Some(store) = &self.store {
            let _ = writeln!(
                out,
                "journal: durable through byte {} ({})",
                store.journal_end(),
                store.dir().display()
            );
        }
        out
    }

    /// `:checkpoint` — write a snapshot covering the journal so far
    /// (durable sessions only).
    fn checkpoint(&mut self) -> Result<String> {
        let Some(store) = &mut self.store else {
            return Err(parse_err(
                "not a durable session; open one with `dduf db open <dir>`",
            ));
        };
        let pos = store
            .checkpoint_with_maint(self.proc.database(), self.proc.maintenance())
            .map_err(|e| Error::Storage(e.to_string()))?;
        Ok(format!(
            "checkpoint written (journal covered to byte {pos})"
        ))
    }

    fn render_alternatives(
        &mut self,
        alternatives: Vec<Alternative>,
        already: &[dduf_events::event::GroundEvent],
    ) -> Result<String> {
        let mut out = String::new();
        for e in already {
            let _ = writeln!(out, "already satisfied: {e}");
        }
        if alternatives.is_empty() {
            if already.is_empty() {
                out.push_str("no translation exists (request impossible by base updates)\n");
            }
            self.pending.clear();
            return Ok(out);
        }
        for (i, alt) in alternatives.iter().enumerate() {
            let _ = writeln!(out, "[{}] {}", i + 1, alt);
        }
        out.push_str("select with :do <n>\n");
        self.pending = alternatives;
        Ok(out)
    }
}

/// The write-ahead hook of every commit: a durable session journals the
/// transaction before the in-memory state changes.
fn journal(
    store: &mut Option<dduf_persist::DurableStore>,
    txn: &dduf_core::transaction::Transaction,
) -> Result<()> {
    store.as_mut().map_or(Ok(()), |s| s.record_commit(txn))
}

fn parse_pred(spec: &str) -> Result<Pred> {
    let (name, arity) = spec
        .split_once('/')
        .ok_or_else(|| parse_err("expected <name>/<arity>"))?;
    let arity: usize = arity
        .parse()
        .map_err(|_| parse_err("expected numeric arity"))?;
    Ok(Pred::new(name, arity))
}

fn parse_err(msg: &str) -> Error {
    Error::Datalog(dduf_datalog::error::Error::Parse(
        dduf_datalog::error::ParseError {
            span: dduf_datalog::error::Span { line: 1, col: 1 },
            message: msg.to_string(),
        },
    ))
}

/// Help text for the shell.
pub const HELP: &str = "\
commands:
  :show [pred]            list facts (derived marked %=)
  :rules                  print program + event rules (paper notation)
  :check <txn>            integrity checking, e.g. :check -u_benefit(dolors).
  :apply <txn>            check, then commit; reports induced events
  :force <txn>            commit without checking
  :update <events>        view update request, e.g. :update -unemp(dolors).
  :safe-update <events>   view update + integrity maintenance
  :monitor <txn>          condition changes a transaction would induce
  :prevent <c>/<n> <txn>  extend txn so condition c never activates
  :repair                 repairs of an inconsistent database
  :satisfiable            integrity constraint satisfiability
  :why <atom>             derivation tree of a (derived) fact
  :why <ev>. <txn>        why a transaction induces an event
  :query <atom>           the atom's instances in the current state
  :save <path>            write the database back to a file
  :checkpoint             write a snapshot (durable sessions only)
  :stats                  evaluation counters recorded so far this session
  :do <n>                 commit alternative n of the last listing
  :help                   this text
  :quit | :q | :exit      leave
transactions use base events (+p(a). -q(b).); updates use derived events.
";

/// Top-level usage for the `dduf` binary: every verb, one line each.
pub const USAGE: &str = "\
usage: dduf <database.dl>                          interactive shell over a file
       dduf lint [--deny-warnings] [--format=text|json] <database.dl>
       dduf analyze [--format=text|json] <database.dl>   dataflow + classification report
       dduf db init <schema.dl> <dir>              create a durable database
       dduf db open <dir>                          durable interactive session
       dduf db checkpoint <dir>                    write a snapshot
       dduf db log <dir>                           dump the event journal
       dduf db verify <dir>                        scan snapshot + journal checksums
       dduf db stats <dir>                         storage summary + recovery trace
       dduf serve <dir> [--addr A] [--sessions N]  serve a durable database over TCP
       dduf --connect <addr>                       interactive client for a server
       dduf --help | -h                            this text
       dduf --version | -V                         print the version
global flags: --trace[=text|json]  print a run report to stderr on exit
                                   (counters deterministic, times not)
";

/// The interactive/piped read-eval-print loop over a session. Prompts
/// only when stdin is a terminal; errors go to stderr and do not end the
/// session. Returns the process exit code.
pub fn run_repl(session: &mut Session) -> i32 {
    use std::io::{BufRead, IsTerminal, Write as _};
    let interactive = std::io::stdin().is_terminal();
    if interactive {
        println!("dduf — deductive database updating framework (:help for commands)");
    }
    let stdin = std::io::stdin();
    loop {
        if interactive {
            print!("dduf> ");
            let _ = std::io::stdout().flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("dduf: {e}");
                break;
            }
        }
        if is_quit(&line) {
            break;
        }
        match session.run(&line) {
            Ok(out) => {
                if !out.is_empty() {
                    print!("{out}");
                    if !out.ends_with('\n') {
                        println!();
                    }
                }
            }
            Err(e) => eprintln!("error: {e}"),
        }
    }
    0
}

/// Whether a command line asks to leave the shell.
pub fn is_quit(line: &str) -> bool {
    matches!(line.trim(), ":quit" | ":q" | ":exit")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dduf_datalog::ast::Const;
    use dduf_datalog::storage::tuple::Tuple;

    const EMPLOYMENT: &str = "
        #cond needy/1.
        la(dolors). u_benefit(dolors).
        unemp(X) :- la(X), not works(X).
        needy(X) :- la(X), not works(X), not u_benefit(X).
        :- unemp(X), not u_benefit(X).
    ";

    fn session() -> Session {
        Session::from_source(EMPLOYMENT).unwrap()
    }

    #[test]
    fn check_rejects_violation() {
        let mut s = session();
        let out = s.run(":check -u_benefit(dolors).").unwrap();
        assert!(out.contains("REJECT"), "{out}");
        let out = s.run(":check +works(dolors).").unwrap();
        assert!(out.contains("ok"), "{out}");
    }

    #[test]
    fn apply_commits_and_reports_events() {
        let mut s = session();
        let out = s.run(":apply +works(dolors).").unwrap();
        assert!(out.contains("-unemp(dolors)"), "{out}");
        assert!(s
            .processor()
            .state()
            .relation(Pred::new("unemp", 1))
            .is_empty());
    }

    #[test]
    fn apply_refuses_violating_transaction() {
        let mut s = session();
        let out = s.run(":apply -u_benefit(dolors).").unwrap();
        assert!(out.contains("REJECTED"), "{out}");
        // Not committed.
        assert!(s.processor().state().holds(
            Pred::new("u_benefit", 1),
            &Tuple::new(vec![Const::sym("dolors")])
        ));
        let out = s.run(":force -u_benefit(dolors).").unwrap();
        assert!(out.contains("+ic1"), "{out}");
    }

    #[test]
    fn update_then_do() {
        let mut s = session();
        let out = s.run(":update -unemp(dolors).").unwrap();
        assert!(out.contains("[1]"), "{out}");
        assert!(out.contains("[2]"), "{out}");
        let out = s.run(":do 1").unwrap();
        assert!(out.contains("committed"), "{out}");
        assert!(s
            .processor()
            .state()
            .relation(Pred::new("unemp", 1))
            .is_empty());
    }

    #[test]
    fn safe_update_adds_repairs() {
        let mut s = session();
        let out = s.run(":safe-update +unemp(maria).").unwrap();
        assert!(out.contains("+u_benefit(maria)"), "{out}");
    }

    #[test]
    fn monitor_shows_condition_changes() {
        let mut s = session();
        let out = s.run(":monitor +la(maria).").unwrap();
        assert!(out.contains("ACTIVATED   needy(maria)"), "{out}");
    }

    #[test]
    fn prevent_condition() {
        let mut s = session();
        let out = s.run(":prevent needy/1 +la(maria).").unwrap();
        assert!(out.contains("select with :do"), "{out}");
        assert!(out.contains("+la(maria)"), "{out}");
    }

    #[test]
    fn repair_on_consistent_db() {
        let mut s = session();
        assert_eq!(s.run(":repair").unwrap(), "database is consistent");
        assert!(s.run(":satisfiable").unwrap().contains("satisfiable"));
    }

    #[test]
    fn repair_cycle_on_inconsistent_db() {
        let mut s = Session::from_source(
            "la(dolors).
             unemp(X) :- la(X), not works(X).
             :- unemp(X), not u_benefit(X).",
        )
        .unwrap();
        let out = s.run(":repair").unwrap();
        assert!(out.contains("[1]"), "{out}");
        let out = s.run(":do 1").unwrap();
        assert!(out.contains("committed"), "{out}");
        assert_eq!(s.run(":repair").unwrap(), "database is consistent");
    }

    #[test]
    fn show_and_rules() {
        let mut s = session();
        let out = s.run(":show unemp").unwrap();
        assert!(out.contains("unemp(dolors). %= derived"), "{out}");
        let out = s.run(":rules").unwrap();
        assert!(out.contains("ιunemp(X)"), "{out}");
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut s = session();
        assert!(s.run(":nonsense").is_err());
        assert!(s.run(":do 7").is_err());
        assert!(s.run(":check +unemp(x).").is_err()); // derived event in txn
                                                      // Session still alive.
        assert!(s.run(":check +works(dolors).").is_ok());
    }

    #[test]
    fn why_fact_and_event() {
        let mut s = session();
        let out = s.run(":why unemp(dolors)").unwrap();
        assert!(
            out.contains("[via: unemp(X) :- la(X), not works(X)]"),
            "{out}"
        );
        assert!(out.contains("la(dolors)  [fact]"), "{out}");
        let out = s.run(":why +ic1. -u_benefit(dolors).").unwrap();
        assert!(out.contains("newly derivable"), "{out}");
        let out = s.run(":why ghost(z)").unwrap();
        assert!(out.contains("does not hold"), "{out}");
        let out = s.run(":why -unemp(dolors). +la(maria).").unwrap();
        assert!(out.contains("not induced"), "{out}");
    }

    /// `:why` of an event reads the new state off the engine's staged
    /// interpretation: nothing is materialized.
    #[test]
    fn why_of_an_event_materializes_nothing() {
        let mut s = session();
        let (out, report) = dduf_obs::capture(|| s.run(":why +ic1. -u_benefit(dolors).").unwrap());
        assert!(out.contains("newly derivable"), "{out}");
        assert_eq!(report.count("eval.materialize", ""), 0);
        assert_eq!(report.total("eval.scc", "rounds"), 0);
    }

    #[test]
    fn why_of_a_non_ground_transaction_is_a_usage_error() {
        let mut s = session();
        let err = s.run(":why -unemp(dolors). +works(X).").unwrap_err();
        assert!(err.to_string().contains("usage: :why"), "{err}");
        assert!(err.to_string().contains("works(X)"), "{err}");
        // Session still alive.
        let out = s.run(":why -unemp(dolors). +works(dolors).").unwrap();
        assert!(out.contains("no derivation survives"), "{out}");
    }

    #[test]
    fn query_command() {
        let mut s = session();
        let out = s.run(":query unemp(X)").unwrap();
        assert!(out.contains("unemp(dolors)"), "{out}");
        assert!(out.contains("1 answer(s)"), "{out}");
        let out = s.run(":query la(dolors)").unwrap();
        assert!(out.contains("1 answer(s) via Extensional"), "{out}");
        assert!(s.run(":query").is_err());
    }

    /// One positive atom is the whole grammar: dropping the sign or the
    /// further literals would answer a different question.
    #[test]
    fn query_rejects_anything_but_one_positive_atom() {
        let mut s = session();
        for other in [":query not works(joan)", ":query la(X), works(X)"] {
            let err = s.run(other).unwrap_err().to_string();
            assert!(err.contains("usage: :query p(a, X)"), "{other}: {err}");
        }
    }

    #[test]
    fn save_round_trips() {
        let mut s = session();
        let path = std::env::temp_dir().join("dduf_cli_save_test.dl");
        let path_str = path.to_str().unwrap().to_string();
        let out = s.run(&format!(":save {path_str}")).unwrap();
        assert!(out.contains("saved"), "{out}");
        let reparsed = Session::from_source(&std::fs::read_to_string(&path).unwrap());
        assert!(reparsed.is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn quit_detection_and_comments() {
        assert!(is_quit(" :q "));
        assert!(!is_quit(":help"));
        let mut s = session();
        assert_eq!(s.run("% just a comment").unwrap(), "");
        assert_eq!(s.run("").unwrap(), "");
    }

    #[test]
    fn quit_commands_run_cleanly_in_scripted_sessions() {
        let mut s = session();
        for cmd in [":quit", ":q", ":exit"] {
            assert_eq!(s.run(cmd).unwrap(), "bye", "{cmd}");
        }
    }

    #[test]
    fn durable_stats_reports_journal_position() {
        let dir = std::env::temp_dir().join(format!("dduf_cli_stats_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = dduf_persist::DurableDb::init(&dir, EMPLOYMENT).unwrap();
        let mut s = Session::durable(db);
        let out = s.run(":stats").unwrap();
        assert!(out.contains("journal: durable through byte"), "{out}");
        // In-memory sessions say nothing about a journal.
        let out = session().run(":stats").unwrap();
        assert!(!out.contains("journal:"), "{out}");
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Structured tracing and deterministic metrics for the updating
//! framework.
//!
//! Every execution layer — datalog fixpoint evaluation, the upward and
//! downward interpretations, the durable journal — shares one
//! instrumentation surface: a [`Span`] is a named phase plus a bag of
//! typed counters, reported through whatever [`Recorder`] is installed
//! on the *current thread*. With no recorder installed (the default)
//! every call site reduces to one thread-local `is_some()` check, so
//! tracing costs nothing on the hot path.
//!
//! The central design rule (DESIGN.md §11): an evaluation records on the
//! thread that runs it, so the recorder needs no synchronization (`Rc`,
//! not `Arc`), and every *semantic* counter (everything except wall
//! time) is a function of the program and the data.
//! [`Report::semantic_fingerprint`] projects exactly that deterministic
//! subset; the test suite and CI diff it across runs.

#![forbid(unsafe_code)]
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded event: a static phase ID, a dynamic label (component
/// key, predicate name, …), typed counters, and an optional wall time.
///
/// Phases use dotted names grouping a subsystem and a step, e.g.
/// `eval.scc`, `upward.apply`, `journal.append`. Counter names are
/// static so a collector can aggregate without allocation surprises.
pub struct Span<'a> {
    /// Static phase identifier (`eval.materialize`, `journal.append`, …).
    pub phase: &'static str,
    /// Instance label within the phase (`tc/2`, a predicate, or `""`).
    pub label: &'a str,
    /// Typed counters carried by this span.
    pub counters: &'a [(&'static str, u64)],
    /// Wall time in microseconds, if the caller timed the span.
    /// Non-deterministic: excluded from fingerprints and JSON by default.
    pub time_us: Option<u64>,
}

/// Sink for spans. The default [`report`](Recorder::report) returns
/// `None`, so a recorder that only forwards spans elsewhere needs no
/// extra code.
pub trait Recorder {
    /// Receives one span. Called on the thread the recorder is
    /// installed on; implementations need no internal synchronization.
    fn record(&self, span: &Span<'_>);

    /// Current aggregated report, if this recorder keeps one.
    fn report(&self) -> Option<Report> {
        None
    }
}

/// Recorder that drops every span. Installing it is equivalent to (and
/// no cheaper than) installing nothing; it exists so call sites that
/// *require* a recorder value have an explicit do-nothing choice.
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn record(&self, _span: &Span<'_>) {}
}

thread_local! {
    static CURRENT: RefCell<Option<Rc<dyn Recorder>>> = const { RefCell::new(None) };
}

/// True when a recorder is installed on this thread. Instrumented code
/// checks this once before assembling expensive labels or per-round
/// detail.
pub fn enabled() -> bool {
    CURRENT.with(|cur| cur.borrow().is_some())
}

/// Records a span with no wall time. A no-op unless a recorder is
/// installed on this thread.
pub fn record(phase: &'static str, label: &str, counters: &[(&'static str, u64)]) {
    record_timed(phase, label, counters, None);
}

/// Records a span, optionally carrying a wall time (microseconds).
pub fn record_timed(
    phase: &'static str,
    label: &str,
    counters: &[(&'static str, u64)],
    time_us: Option<u64>,
) {
    CURRENT.with(|cur| {
        if let Some(rec) = cur.borrow().as_ref() {
            rec.record(&Span {
                phase,
                label,
                counters,
                time_us,
            });
        }
    });
}

/// Wall-clock timer that only ticks while a recorder is installed, so
/// untraced runs never touch the clock.
pub struct Timer(Option<Instant>);

/// Starts a [`Timer`] (a no-op value when tracing is disabled).
pub fn timer() -> Timer {
    Timer(enabled().then(Instant::now))
}

impl Timer {
    /// Elapsed microseconds, or `None` when tracing was disabled at
    /// construction time.
    pub fn elapsed_us(&self) -> Option<u64> {
        self.0
            .map(|t| u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX))
    }
}

/// Guard returned by [`install`]; restores the previously installed
/// recorder (possibly none) when dropped.
pub struct InstallGuard {
    previous: Option<Rc<dyn Recorder>>,
    restored: bool,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        if !self.restored {
            self.restored = true;
            let prev = self.previous.take();
            CURRENT.with(|cur| *cur.borrow_mut() = prev);
        }
    }
}

/// Installs `recorder` as this thread's span sink until the returned
/// guard is dropped.
pub fn install(recorder: Rc<dyn Recorder>) -> InstallGuard {
    let previous = CURRENT.with(|cur| cur.borrow_mut().replace(recorder));
    InstallGuard {
        previous,
        restored: false,
    }
}

/// Runs `f` under a fresh [`Collector`] and returns its result together
/// with the aggregated [`Report`]. The previously installed recorder
/// (if any) is restored afterwards and does **not** see the spans.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Report) {
    let collector = Rc::new(Collector::new());
    let guard = install(collector.clone());
    let out = f();
    drop(guard);
    (out, collector.report_now())
}

/// Non-destructive snapshot of the currently installed recorder's
/// report, if it keeps one (the shell's `:stats` command).
pub fn snapshot() -> Option<Report> {
    CURRENT.with(|cur| cur.borrow().as_ref().and_then(|rec| rec.report()))
}

/// Folds one span into an aggregation map — the single merge rule shared
/// by [`Collector`] (single-threaded) and [`SharedCollector`]
/// (multi-threaded).
fn merge_span(spans: &mut BTreeMap<(String, String), ReportNode>, span: &Span<'_>) {
    let node = spans
        .entry((span.phase.to_string(), span.label.to_string()))
        .or_default();
    node.count += 1;
    for &(name, value) in span.counters {
        *node.counters.entry(name.to_string()).or_insert(0) += value;
    }
    node.time_us += span.time_us.unwrap_or(0);
}

/// In-memory structured collector: aggregates spans by `(phase, label)`
/// — counts, summed counters, summed wall time.
#[derive(Default)]
pub struct Collector {
    inner: RefCell<BTreeMap<(String, String), ReportNode>>,
}

impl Collector {
    /// Creates an empty collector.
    pub fn new() -> Collector {
        Collector::default()
    }

    /// The report aggregated so far.
    pub fn report_now(&self) -> Report {
        Report {
            spans: self.inner.borrow().clone(),
        }
    }
}

impl Recorder for Collector {
    fn record(&self, span: &Span<'_>) {
        merge_span(&mut self.inner.borrow_mut(), span);
    }

    fn report(&self) -> Option<Report> {
        Some(self.report_now())
    }
}

/// A thread-*safe* collector for subsystems whose work spans threads —
/// the `dduf serve` writer and its session handlers all feed one of
/// these. Unlike [`Collector`] (whose `RefCell` pins it to the thread it
/// was installed on), a `SharedCollector` lives behind an `Arc` and each
/// participating thread installs a lightweight handle to it via
/// [`install_shared`].
///
/// The recording rule that makes *evaluation* counters deterministic
/// (module docs) is unchanged — each evaluation still records only on
/// the thread that runs it. What this type adds is a place for
/// *independent* threads (one per client session, plus the writer) to
/// aggregate into one report. Counters
/// summed here are deterministic per run of a deterministic workload;
/// their interleaving never matters because merging is commutative.
#[derive(Default)]
pub struct SharedCollector {
    inner: Mutex<BTreeMap<(String, String), ReportNode>>,
}

impl SharedCollector {
    /// Creates an empty shared collector.
    pub fn new() -> SharedCollector {
        SharedCollector::default()
    }

    /// The report aggregated so far across every participating thread.
    pub fn report_now(&self) -> Report {
        Report {
            spans: self.inner.lock().expect("collector lock").clone(),
        }
    }
}

/// Per-thread handle forwarding spans to a [`SharedCollector`].
struct SharedHandle(Arc<SharedCollector>);

impl Recorder for SharedHandle {
    fn record(&self, span: &Span<'_>) {
        merge_span(&mut self.0.inner.lock().expect("collector lock"), span);
    }

    fn report(&self) -> Option<Report> {
        Some(self.0.report_now())
    }
}

/// Installs `collector` as the *current thread's* span sink until the
/// returned guard is dropped. Call once per participating thread; every
/// thread's spans aggregate into the same report.
pub fn install_shared(collector: &Arc<SharedCollector>) -> InstallGuard {
    install(Rc::new(SharedHandle(collector.clone())))
}

/// Aggregate for one `(phase, label)` key.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReportNode {
    /// Number of spans recorded under this key.
    pub count: u64,
    /// Counter sums, keyed by counter name.
    pub counters: BTreeMap<String, u64>,
    /// Summed wall time (µs). Non-deterministic; zero when untimed.
    pub time_us: u64,
}

/// Aggregated run report: every `(phase, label)` with its counts,
/// counter sums, and wall times. Ordered (`BTreeMap`), so rendering and
/// fingerprints are stable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Report {
    spans: BTreeMap<(String, String), ReportNode>,
}

impl Report {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of spans recorded under `(phase, label)`.
    pub fn count(&self, phase: &str, label: &str) -> u64 {
        self.node(phase, label).map_or(0, |n| n.count)
    }

    /// Counter sum under `(phase, label)`, or 0 if absent.
    pub fn counter(&self, phase: &str, label: &str, name: &str) -> u64 {
        self.node(phase, label)
            .and_then(|n| n.counters.get(name).copied())
            .unwrap_or(0)
    }

    /// Counter sum across every label of `phase`.
    pub fn total(&self, phase: &str, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|((p, _), _)| p == phase)
            .filter_map(|(_, n)| n.counters.get(name))
            .sum()
    }

    /// Iterates `(phase, label, node)` in stable order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, &ReportNode)> {
        self.spans
            .iter()
            .map(|((p, l), n)| (p.as_str(), l.as_str(), n))
    }

    fn node(&self, phase: &str, label: &str) -> Option<&ReportNode> {
        self.spans.get(&(phase.to_string(), label.to_string()))
    }

    /// Stable projection of the deterministic subset: every phase,
    /// label, span count, and counter sum — wall times excluded. Two
    /// runs of the same work must produce byte-identical fingerprints;
    /// the suite and CI assert exactly that.
    pub fn semantic_fingerprint(&self) -> String {
        let mut out = String::new();
        for ((phase, label), node) in &self.spans {
            let _ = write!(out, "{phase}|{label}|x{}|", node.count);
            for (i, (name, value)) in node.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{name}={value}");
            }
            out.push('\n');
        }
        out
    }

    /// Human-readable per-phase tree. Counters are deterministic; wall
    /// times (marked `~`) are not and vary run to run.
    pub fn render_text(&self) -> String {
        if self.is_empty() {
            return "trace: no spans recorded\n".to_string();
        }
        let mut out = String::from(
            "trace report (counters are deterministic; ~times are wall-clock and are not)\n",
        );
        let mut last_phase = "";
        for ((phase, label), node) in &self.spans {
            if phase != last_phase {
                let _ = writeln!(out, "{phase}");
                last_phase = phase;
            }
            let name = if label.is_empty() {
                "·"
            } else {
                label.as_str()
            };
            let _ = write!(out, "  {name}  x{}", node.count);
            for (cname, value) in &node.counters {
                let _ = write!(out, "  {cname}={value}");
            }
            if node.time_us > 0 {
                let _ = write!(out, "  ~{}us", node.time_us);
            }
            out.push('\n');
        }
        out
    }

    /// Hand-rolled JSON rendering. With `include_time` false (the
    /// default for comparisons) the output contains only semantic
    /// counters and is bit-identical across runs.
    pub fn render_json(&self, include_time: bool) -> String {
        let mut out = String::from("{\"dduf_trace\":1,\"semantic_only\":");
        out.push_str(if include_time { "false" } else { "true" });
        out.push_str(",\"phases\":[");
        let mut phases: Vec<&str> = Vec::new();
        for (phase, _, _) in self.iter() {
            if phases.last() != Some(&phase) {
                phases.push(phase);
            }
        }
        for (pi, phase) in phases.iter().enumerate() {
            if pi > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"phase\":{},\"spans\":[", json_string(phase));
            let mut first = true;
            for (p, label, node) in self.iter() {
                if p != *phase {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"label\":{},\"count\":{},\"counters\":{{",
                    json_string(label),
                    node.count
                );
                for (i, (name, value)) in node.counters.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}:{value}", json_string(name));
                }
                out.push_str("}}");
                if include_time {
                    // Splice the time in before the span's closing brace.
                    out.pop();
                    let _ = write!(out, ",\"time_us\":{}}}", node.time_us);
                }
            }
            out.push_str("]}");
        }
        out.push_str("]}\n");
        out
    }
}

/// Escapes `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_record_is_a_noop() {
        assert!(!enabled());
        record("eval.scc", "p/1", &[("rounds", 3)]);
        assert!(snapshot().is_none());
        assert!(timer().elapsed_us().is_none());
    }

    #[test]
    fn collector_aggregates_by_phase_and_label() {
        let (_, report) = capture(|| {
            record("eval.scc", "p/1", &[("rounds", 3), ("tuples", 10)]);
            record("eval.scc", "p/1", &[("rounds", 2), ("tuples", 5)]);
            record("eval.scc", "q/2", &[("rounds", 1)]);
            record_timed("journal.append", "", &[("bytes", 64)], Some(7));
        });
        assert_eq!(report.count("eval.scc", "p/1"), 2);
        assert_eq!(report.counter("eval.scc", "p/1", "rounds"), 5);
        assert_eq!(report.counter("eval.scc", "p/1", "tuples"), 15);
        assert_eq!(report.total("eval.scc", "rounds"), 6);
        assert_eq!(report.counter("journal.append", "", "bytes"), 64);
        assert_eq!(report.counter("missing", "", "x"), 0);
        assert!(!report.is_empty());
    }

    #[test]
    fn install_guard_restores_previous_recorder() {
        let outer = Rc::new(Collector::new());
        let guard = install(outer.clone());
        record("a", "", &[("n", 1)]);
        {
            let (_, inner) = capture(|| record("b", "", &[("n", 2)]));
            assert_eq!(inner.counter("b", "", "n"), 2);
            assert_eq!(inner.counter("a", "", "n"), 0);
        }
        // Outer recorder is back in place and never saw the inner span.
        record("a", "", &[("n", 1)]);
        drop(guard);
        assert!(!enabled());
        let report = outer.report_now();
        assert_eq!(report.counter("a", "", "n"), 2);
        assert_eq!(report.counter("b", "", "n"), 0);
    }

    #[test]
    fn fingerprint_excludes_time_and_is_stable() {
        let (_, fast) = capture(|| {
            record_timed("eval.scc", "p/1", &[("rounds", 3)], Some(1));
            record("eval.round", "p/1#r0", &[("delta", 4)]);
        });
        let (_, slow) = capture(|| {
            record_timed("eval.scc", "p/1", &[("rounds", 3)], Some(99_999));
            record("eval.round", "p/1#r0", &[("delta", 4)]);
        });
        assert_eq!(fast.semantic_fingerprint(), slow.semantic_fingerprint());
        assert!(fast
            .semantic_fingerprint()
            .contains("eval.scc|p/1|x1|rounds=3"));
    }

    #[test]
    fn text_report_marks_times_as_nondeterministic() {
        let (_, report) = capture(|| {
            record_timed("snapshot.write", "", &[("bytes", 128)], Some(42));
        });
        let text = report.render_text();
        assert!(text.contains("snapshot.write"));
        assert!(text.contains("bytes=128"));
        assert!(text.contains("~42us"));
        assert!(text.starts_with("trace report"));
        let empty = Report::default().render_text();
        assert_eq!(empty, "trace: no spans recorded\n");
    }

    #[test]
    fn json_shape_and_time_exclusion() {
        let (_, report) = capture(|| {
            record_timed("eval.materialize", "", &[("facts", 12)], Some(5));
            record("eval.scc", "p\"x/1", &[("rounds", 1)]);
        });
        let json = report.render_json(false);
        assert!(json.starts_with("{\"dduf_trace\":1,\"semantic_only\":true,\"phases\":["));
        assert!(json.contains("{\"phase\":\"eval.materialize\",\"spans\":["));
        assert!(json.contains("\"counters\":{\"facts\":12}"));
        assert!(!json.contains("time_us"));
        assert!(json.contains("\"label\":\"p\\\"x/1\""));
        assert!(json.ends_with("]}\n"));
        let timed = report.render_json(true);
        assert!(timed.contains("\"semantic_only\":false"));
        assert!(timed.contains("\"time_us\":5"));
    }

    #[test]
    fn shared_collector_aggregates_across_threads() {
        let shared = Arc::new(SharedCollector::new());
        std::thread::scope(|scope| {
            for i in 0..4 {
                let shared = &shared;
                scope.spawn(move || {
                    let _guard = install_shared(shared);
                    record("server.session", "", &[("sessions", 1)]);
                    record("server.batch", "", &[("requests", i + 1)]);
                });
            }
        });
        let report = shared.report_now();
        assert_eq!(report.count("server.session", ""), 4);
        assert_eq!(report.counter("server.session", "", "sessions"), 4);
        assert_eq!(
            report.counter("server.batch", "", "requests"),
            1 + 2 + 3 + 4
        );
        // Guards dropped: none of the threads' recorders leaked here.
        assert!(!enabled());
    }

    #[test]
    fn json_is_balanced() {
        let (_, report) = capture(|| {
            record("a.b", "l1", &[("x", 1)]);
            record("a.b", "l2", &[("y", 2)]);
            record("c.d", "", &[]);
        });
        for json in [report.render_json(false), report.render_json(true)] {
            let mut depth = 0i64;
            let mut in_str = false;
            let mut escape = false;
            for c in json.chars() {
                if escape {
                    escape = false;
                    continue;
                }
                match c {
                    '\\' if in_str => escape = true,
                    '"' => in_str = !in_str,
                    '{' | '[' if !in_str => depth += 1,
                    '}' | ']' if !in_str => depth -= 1,
                    _ => {}
                }
                assert!(depth >= 0);
            }
            assert_eq!(depth, 0, "unbalanced: {json}");
            assert!(!in_str);
        }
    }
}

//! The benchmark's fixed tables: workloads, metrics and bounds.
//!
//! `BENCHMARK.json` at the repository root is what the driver reads;
//! `--check` fails when it names something these tables do not
//! ([`check_benchmark_json`]).

use std::collections::BTreeMap;

/// Which static program a workload loads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Program {
    /// `programs/inventory.dl` — non-recursive, counting maintenance only.
    Inventory,
    /// `programs/attack_graph.dl` — recursive, DRed + counting.
    AttackGraph,
}

/// What the writers commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Traffic {
    /// `+host +vuln` of a new scanner host, then the matching delete of
    /// the one inserted `LAG` commits earlier.
    Ingest,
    /// Firewall-rule toggles interleaved with patch toggles, one event
    /// per commit.
    Churn,
}

/// How requests are offered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Load {
    /// `conns` writer connections, each keeping `window` commits in
    /// flight and sending the next when the oldest is acknowledged.
    Closed { conns: usize, window: usize },
    /// One connection with one request in flight: a commit, then the ten
    /// reads of the read cycle, and again, for the whole measured window.
    Alternating,
}

impl Load {
    pub fn writers(&self) -> usize {
        match *self {
            Load::Closed { conns, .. } => conns,
            Load::Alternating => 1,
        }
    }

    /// Commits one writer keeps in flight.
    pub fn window(&self) -> usize {
        match *self {
            Load::Closed { window, .. } => window,
            Load::Alternating => 1,
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub program: Program,
    pub traffic: Traffic,
    pub hosts_per_zone: usize,
    pub load: Load,
    /// Commits sent after the final `:checkpoint`, before the SIGKILL:
    /// the journal tail that `recover_s` replays. A count, not a share
    /// of the run, so a faster write path does not lengthen recovery.
    pub tail_commits: usize,
    /// Commits the traced replay stages (a count, so its counters repeat
    /// exactly for a seed).
    pub replay_ops: usize,
}

impl Workload {
    /// Commits per batch in the traced replay: one where the load leaves
    /// one commit in flight, as many as the pipelined writer typically
    /// groups otherwise.
    pub fn replay_batch(&self) -> usize {
        if self.load.writers() * self.load.window() == 1 {
            1
        } else {
            8
        }
    }

    /// The same workload at a tenth of its size, for `--check` and the
    /// unit tests.
    pub fn tiny(&self) -> Workload {
        Workload {
            hosts_per_zone: (self.hosts_per_zone / 10).max(20),
            tail_commits: (self.tail_commits / 10).max(4),
            replay_ops: (self.replay_ops / 20).max(16),
            ..*self
        }
    }
}

/// Why each workload exists is in `BENCHMARK.json` and the README.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "sync_small",
        program: Program::Inventory,
        traffic: Traffic::Ingest,
        hosts_per_zone: 40,
        load: Load::Closed {
            conns: 1,
            window: 1,
        },
        tail_commits: 400,
        replay_ops: 4000,
    },
    Workload {
        name: "ingest_wide",
        program: Program::Inventory,
        traffic: Traffic::Ingest,
        hosts_per_zone: 2000,
        load: Load::Closed {
            conns: 2,
            window: 8,
        },
        tail_commits: 32,
        replay_ops: 320,
    },
    Workload {
        name: "ag_churn",
        program: Program::AttackGraph,
        traffic: Traffic::Churn,
        // The size at which the seed acknowledges about the 100 commits/s
        // the issue expected; at the issue's 200 hosts per zone it
        // acknowledges 27 to 42, and `read_mix` on the same database,
        // whose client waits for every commit and read, about 6.
        hosts_per_zone: 60,
        load: Load::Closed {
            conns: 2,
            window: 4,
        },
        tail_commits: 64,
        replay_ops: 240,
    },
    Workload {
        name: "read_mix",
        program: Program::AttackGraph,
        traffic: Traffic::Churn,
        hosts_per_zone: 60,
        load: Load::Alternating,
        tail_commits: 16,
        replay_ops: 240,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seconds one run measures where `--seconds` is not given
/// (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 25;

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric { name, unit, bound }
}

const fn layer(name: &'static str, unit: &'static str) -> Metric {
    e2e(name, unit, 0.0)
}

pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", 0.25),
    e2e("commits_per_s", "1/s", 0.25),
    e2e("commit_p50_ms", "ms", 0.25),
    e2e("commit_p95_ms", "ms", 0.25),
    e2e("reads_per_s", "1/s", 0.25),
    e2e("read_p50_ms", "ms", 0.25),
    e2e("read_p95_ms", "ms", 0.25),
    e2e("recover_s", "s", 0.25),
    e2e("rss_peak_mb", "MB", 0.10),
    e2e("journal_bytes_per_commit", "B", 0.01),
];

pub const PER_LAYER: &[Metric] = &[
    layer("server.proto.frame_us", "us"),
    layer("server.residual_us", "us"),
    layer("server.writer.commits_per_fsync", "count"),
    layer("core.processor.txn_parse_us", "us"),
    layer("core.processor.ic_check_us", "us"),
    layer("core.processor.commit_us", "us"),
    layer("core.processor.new_ms", "ms"),
    layer("core.upward.induced_events", "count"),
    layer("datalog.parser.parse_db_ms", "ms"),
    layer("datalog.eval.materialize_ms", "ms"),
    layer("datalog.magic.query_goal_us", "us"),
    layer("datalog.magic.query_point_us", "us"),
    layer("datalog.storage.clone_ms", "ms"),
    layer("datalog.storage.drop_ms", "ms"),
    layer("datalog.storage.facts", "count"),
    layer("datalog.storage.derived_tuples", "count"),
    layer("persist.journal.append_us", "us"),
    layer("persist.journal.bytes_per_commit", "B"),
    layer("persist.checkpoint_ms", "ms"),
    layer("persist.open_restore_ms", "ms"),
    layer("persist.replay_us_per_record", "us"),
    layer("persist.snapshot_bytes", "B"),
    layer("persist.counts_bytes", "B"),
    layer("obs.overhead_pct", "%"),
    layer("model.commits_per_s", "1/s"),
    layer("model.vs_measured", "ratio"),
];

/// The objects of a JSON text that hold no other object, each as its
/// string and number members by key. Enough of a reader for
/// `BENCHMARK.json`, whose workloads and metrics are such objects.
fn flat_objects(json: &str) -> Vec<BTreeMap<String, String>> {
    let mut objects = Vec::new();
    let mut current: Option<BTreeMap<String, String>> = None;
    let mut key: Option<String> = None;
    // The member name a `:` has just followed, while its value is awaited.
    let mut awaiting: Option<String> = None;
    let mut chars = json.chars().peekable();
    while let Some(c) = chars.next() {
        let scalar = match c {
            '"' => {
                let mut text = String::new();
                while let Some(c) = chars.next() {
                    match c {
                        '"' => break,
                        '\\' => text.extend(chars.next()),
                        c => text.push(c),
                    }
                }
                Some(text)
            }
            '{' => {
                current = Some(BTreeMap::new());
                None
            }
            '}' => {
                objects.extend(current.take());
                None
            }
            ':' => {
                awaiting = key.take();
                continue;
            }
            c if c.is_ascii_alphanumeric() || c == '-' => {
                let mut text = String::from(c);
                while let Some(c) = chars.next_if(|c| !",]} \n\r\t".contains(*c)) {
                    text.push(c);
                }
                Some(text)
            }
            c if c.is_whitespace() => continue,
            _ => None,
        };
        match (awaiting.take(), scalar, &mut current) {
            (Some(k), Some(v), Some(object)) => {
                object.insert(k, v);
            }
            (None, Some(v), _) => key = Some(v),
            _ => key = None,
        }
    }
    objects
}

/// Whether the workloads and metrics `BENCHMARK.json` names are exactly
/// the ones of the tables above, in their order, with their units and
/// bounds: what a run prints is then what the driver looks for.
pub fn check_benchmark_json(json: &str) -> Result<(), String> {
    let objects = flat_objects(json);
    let with = |keys: &[&str]| -> Vec<&BTreeMap<String, String>> {
        objects
            .iter()
            .filter(|o| o.keys().map(String::as_str).eq(keys.iter().copied()))
            .collect()
    };
    let differ = |what: &str, file: Vec<String>, table: Vec<String>| -> Result<(), String> {
        if file == table {
            return Ok(());
        }
        Err(format!(
            "BENCHMARK.json names the {what} {file:?}, the tables in spec.rs {table:?}"
        ))
    };
    // Keys in the order a `BTreeMap` keeps them.
    differ(
        "workloads",
        with(&["name", "why"])
            .iter()
            .map(|o| o["name"].clone())
            .collect(),
        WORKLOADS.iter().map(|w| w.name.to_string()).collect(),
    )?;
    differ(
        "end-to-end metrics",
        with(&["better", "bound", "name", "unit"])
            .iter()
            .map(|o| format!("{} {} {}", o["name"], o["unit"], o["bound"]))
            .collect(),
        END_TO_END
            .iter()
            .map(|m| format!("{} {} {}", m.name, m.unit, m.bound))
            .collect(),
    )?;
    differ(
        "per-layer metrics",
        with(&["better", "name", "unit"])
            .iter()
            .map(|o| format!("{} {}", o["name"], o["unit"]))
            .collect(),
        PER_LAYER
            .iter()
            .map(|m| format!("{} {}", m.name, m.unit))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_benchmark_json_names_what_the_tables_hold() {
        let json = include_str!("../../BENCHMARK.json");
        check_benchmark_json(json).expect("BENCHMARK.json and spec.rs agree");
        let renamed = json.replace("\"recover_s\"", "\"recovery_s\"");
        assert!(check_benchmark_json(&renamed).is_err());
        let run_seconds = format!("\"run_seconds\": {RUN_SECONDS},");
        assert!(json.contains(&run_seconds));
    }

    #[test]
    fn flat_objects_are_read_with_their_scalars() {
        let objects = flat_objects(
            r#"{"a": ["x", "y"], "list": [{"name": "q\"{", "bound": 0.25}, {"n": -1}], "z": 3}"#,
        );
        assert_eq!(objects.len(), 2);
        assert_eq!(objects[0]["name"], "q\"{");
        assert_eq!(objects[0]["bound"], "0.25");
        assert_eq!(objects[1]["n"], "-1");
    }
}

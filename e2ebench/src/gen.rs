//! The inputs: the initial database text, the per-connection operation
//! streams and the generator's own model of the base facts.
//!
//! Everything here is a pure function of `(workload, seed)`; the program
//! under test only ever receives the generated text and request lines.
//! The database is the same for every seed (see [`FIXED_SEED`]); the seed
//! draws the traffic. Identifiers are fixed-width, so every commit of a
//! workload has the same payload length and `journal_bytes_per_commit`
//! repeats exactly.

use crate::spec::{Program, Traffic, Workload};
use std::collections::HashSet;
use std::fmt::Write as _;

/// SplitMix64 — the benchmark's own generator, so the inputs do not move
/// when the product's test RNG does.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// Distinct vulnerability identifiers (`v00`..`v49`).
const VULNS: usize = 50;
/// Share of hosts that carry a vulnerability.
const VULNERABLE_SHARE: f64 = 0.7;
/// Intra-zone `hacl` edges per host.
const INTRA_ZONE_EDGES: usize = 3;
/// Zones, in a chain.
const ZONES: usize = 5;
/// Firewall `hacl` rules between each pair of adjacent zones.
const FIREWALL_RULES: usize = 4;
/// Attackers, all placed in zone 0.
pub const ATTACKERS: usize = 10;
/// What the topology is drawn from, whatever `--seed` says. The database
/// is a constant of the workload, like its sizes; `--seed` draws the
/// traffic (which rules and hosts are toggled, the scanner's findings,
/// what is read). Sixteen firewall rules between random hosts decide how
/// much of the graph an attacker reaches: with a topology per seed, 10 of
/// the first 24 seeds cut the chain of zones somewhere, and the same code
/// acknowledged 27, 167 and 42 commits/s on seeds 1, 2 and 3. This is the
/// first of 1, 2, 3… whose graph reaches every zone at the size of
/// `ag_churn` (see the test below).
const FIXED_SEED: u64 = 1;
/// Scanner-inserted hosts each ingest connection keeps live: an insert
/// of key `LAG + k` is followed by the delete of key `k`.
const LAG: usize = 64;

const PROGRAM_ATTACK_GRAPH: &str = include_str!("../programs/attack_graph.dl");
const PROGRAM_INVENTORY: &str = include_str!("../programs/inventory.dl");

/// The generated initial database plus the handles the operation streams
/// and the audit need.
#[derive(Clone, Debug)]
pub struct World {
    /// Program text followed by one fact per line.
    pub text: String,
    /// Every initial base fact, rendered as `:show` prints it (no dot).
    pub facts: HashSet<String>,
    /// Every topology host, with its vulnerability if it has one.
    pub hosts: Vec<(String, Option<String>)>,
    /// The vulnerable hosts with their vulnerability: what churn patches.
    pub vulnerable: Vec<(String, String)>,
    /// The firewall rules `(source, destination)`: what churn toggles.
    pub firewall: Vec<(String, String)>,
}

fn host_name(zone: usize, index: usize, width: usize) -> String {
    format!("h{zone}_{index:0width$}")
}

/// The name of scanner host `key` of ingest connection `conn`.
fn scanner_host(conn: usize, key: usize) -> String {
    format!("n{conn}{key:07}")
}

/// The vulnerability a scanner host is reported with: a function of the
/// key, so the delete that follows `LAG` inserts later names it again.
fn scanner_vuln(seed: u64, conn: usize, key: usize) -> usize {
    let mut rng = Rng::new(seed ^ ((conn as u64) << 40) ^ key as u64);
    rng.below(VULNS)
}

fn scanner_facts(seed: u64, conn: usize, key: usize) -> [String; 2] {
    let host = scanner_host(conn, key);
    let vuln = scanner_vuln(seed, conn, key);
    [
        format!("host({host}, z{})", key % ZONES),
        format!("vuln({host}, v{vuln:02})"),
    ]
}

impl World {
    pub fn generate(w: &Workload, seed: u64) -> World {
        let mut rng = Rng::new(FIXED_SEED);
        let width = (w.hosts_per_zone - 1).to_string().len().max(3);
        let any_host =
            |rng: &mut Rng, zone: usize| host_name(zone, rng.below(w.hosts_per_zone), width);
        let mut facts: Vec<String> = Vec::new();
        let mut hosts = Vec::new();
        let mut vulnerable = Vec::new();
        for z in 0..ZONES {
            for i in 0..w.hosts_per_zone {
                let h = host_name(z, i, width);
                facts.push(format!("host({h}, z{z})"));
                let vuln = rng
                    .chance(VULNERABLE_SHARE)
                    .then(|| format!("v{:02}", rng.below(VULNS)));
                if let Some(v) = &vuln {
                    facts.push(format!("vuln({h}, {v})"));
                    vulnerable.push((h.clone(), v.clone()));
                }
                for _ in 0..INTRA_ZONE_EDGES {
                    facts.push(format!("hacl({h}, {})", any_host(&mut rng, z)));
                }
                hosts.push((h, vuln));
            }
        }
        let mut firewall: Vec<(String, String)> = Vec::new();
        for z in 0..ZONES - 1 {
            for _ in 0..FIREWALL_RULES {
                // Drawn again when it repeats: a rule is toggled by one
                // connection only.
                let rule = loop {
                    let rule = (any_host(&mut rng, z), any_host(&mut rng, z + 1));
                    if !firewall.contains(&rule) {
                        break rule;
                    }
                };
                facts.push(format!("hacl({}, {})", rule.0, rule.1));
                firewall.push(rule);
            }
        }
        for a in 0..ATTACKERS {
            facts.push(format!("attacker_at(a{a}, {})", any_host(&mut rng, 0)));
        }
        for i in 0..(w.hosts_per_zone / 20).max(1) {
            facts.push(format!("critical({})", host_name(ZONES - 1, i, width)));
        }
        if w.traffic == Traffic::Ingest {
            for conn in 0..w.load.writers() {
                for key in 0..LAG {
                    facts.extend(scanner_facts(seed, conn, key));
                }
            }
        }

        let program = match w.program {
            Program::AttackGraph => PROGRAM_ATTACK_GRAPH,
            Program::Inventory => PROGRAM_INVENTORY,
        };
        let mut text = String::with_capacity(program.len() + facts.len() * 24);
        text.push_str(program);
        for f in &facts {
            let _ = writeln!(text, "{f}.");
        }
        World {
            text,
            // Random intra-zone edges may repeat; the database is a set.
            facts: facts.into_iter().collect(),
            hosts,
            vulnerable,
            firewall,
        }
    }
}

/// One commit: the request line and the base events it stands for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Op {
    pub line: String,
    /// `(insert, fact)` pairs, facts rendered as in [`World::facts`].
    pub events: Vec<(bool, String)>,
}

impl Op {
    fn new(events: Vec<(bool, String)>) -> Op {
        let mut line = String::from(":apply");
        for (insert, fact) in &events {
            let _ = write!(line, " {}{fact}.", if *insert { '+' } else { '-' });
        }
        Op { line, events }
    }

    /// Applies the events to the generator's model of the base facts.
    pub fn apply(&self, state: &mut HashSet<String>) {
        for (insert, fact) in &self.events {
            if *insert {
                state.insert(fact.clone());
            } else {
                state.remove(fact);
            }
        }
    }
}

/// The endless, seed-determined commit stream of one connection.
/// Connections own disjoint keys, so the final state does not depend on
/// how the server interleaved them.
#[derive(Clone, Debug)]
pub struct OpStream {
    seed: u64,
    conn: usize,
    next: usize,
    churn: Option<Churn>,
}

/// Churn traffic, one event per commit, in cycles of four: a firewall
/// rule goes down, a host is patched, the rule comes back, the patch is
/// rolled back. Rule and host are drawn from the ones the connection
/// owns, so half of the commits toggle a rule, half a patch, half delete
/// and half restore.
#[derive(Clone, Debug)]
struct Churn {
    rng: Rng,
    rules: Vec<(String, String)>,
    hosts: Vec<(String, String)>,
    /// The rule that is down and the patch that is applied, as facts.
    current: (String, String),
}

impl OpStream {
    /// The stream of connection `conn` of the workload's writers.
    pub fn new(world: &World, w: &Workload, seed: u64, conn: usize) -> OpStream {
        let conns = w.load.writers();
        let owned = |all: &[(String, String)]| -> Vec<(String, String)> {
            all.iter().skip(conn).step_by(conns).cloned().collect()
        };
        let churn = (w.traffic == Traffic::Churn).then(|| Churn {
            rng: Rng::new(seed ^ ((0xC0 + conn as u64) << 32)),
            rules: owned(&world.firewall),
            hosts: owned(&world.vulnerable),
            current: Default::default(),
        });
        OpStream {
            seed,
            conn,
            next: 0,
            churn,
        }
    }

    /// Whether a churn cycle is under way: a rule is down or a host is
    /// patched that the cycle's remaining commits restore.
    pub fn mid_cycle(&self) -> bool {
        self.churn.is_some() && !self.next.is_multiple_of(4)
    }

    /// Makes the draws that follow the same for every seed. The commits
    /// recovery replays come after this: a few cycles drawn from sixteen
    /// rules cost twice as much on one seed as on another (`recover_s`
    /// on `read_mix`: 0.09 to 0.19 s), and `recover_s` is to measure the
    /// program, not the draw.
    pub fn leave_seed(&mut self) {
        if let Some(c) = &mut self.churn {
            c.rng = Rng::new(FIXED_SEED);
        }
    }

    pub fn next_op(&mut self) -> Op {
        let k = self.next;
        self.next += 1;
        let Some(c) = &mut self.churn else {
            // Ingest: insert key LAG + k/2, then delete key k/2.
            let insert = k.is_multiple_of(2);
            let key = if insert { LAG + k / 2 } else { k / 2 };
            let facts = scanner_facts(self.seed, self.conn, key);
            return Op::new(facts.into_iter().map(|f| (insert, f)).collect());
        };
        if k.is_multiple_of(4) {
            let (s, d) = &c.rules[c.rng.below(c.rules.len())];
            let (h, v) = &c.hosts[c.rng.below(c.hosts.len())];
            c.current = (format!("hacl({s}, {d})"), format!("patched({h}, {v})"));
        }
        let (rule, patch) = &c.current;
        Op::new(vec![match k % 4 {
            0 => (false, rule.clone()),
            1 => (true, patch.clone()),
            2 => (true, rule.clone()),
            _ => (false, patch.clone()),
        }])
    }
}

/// One read request. `probe` names the host of an `exploitable` point
/// query, whose answer the generator's model predicts on a quiet server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Read {
    pub line: String,
    pub probe: Option<(String, Option<String>)>,
}

/// The reader's endless request stream: per ten reads, four goal queries,
/// two point queries on the deepest view, two `:check`s, one
/// `exploitable` probe and one `:show` of a view.
#[derive(Clone, Debug)]
pub struct ReadStream {
    rng: Rng,
    program: Program,
    next: usize,
}

#[derive(Clone, Copy)]
enum ReadKind {
    Goal,
    Point,
    Check,
    Probe,
    Show,
}

/// Reads in one cycle of the mix.
pub const READS_PER_CYCLE: usize = READ_CYCLE.len();

const READ_CYCLE: [ReadKind; 10] = [
    ReadKind::Goal,
    ReadKind::Point,
    ReadKind::Check,
    ReadKind::Goal,
    ReadKind::Probe,
    ReadKind::Goal,
    ReadKind::Point,
    ReadKind::Check,
    ReadKind::Goal,
    ReadKind::Show,
];

impl ReadStream {
    pub fn new(w: &Workload, seed: u64) -> ReadStream {
        ReadStream {
            rng: Rng::new(seed ^ (0x5EAD << 32)),
            program: w.program,
            next: 0,
        }
    }

    pub fn next_read(&mut self, world: &World) -> Read {
        let kind = READ_CYCLE[self.next % READ_CYCLE.len()];
        self.next += 1;
        let rng = &mut self.rng;
        let any_host = |rng: &mut Rng| world.hosts[rng.below(world.hosts.len())].clone();
        let attack_graph = self.program == Program::AttackGraph;
        let mut probe = None;
        let line = match kind {
            ReadKind::Goal if attack_graph => {
                format!(":query goal_reached(a{}, X)", rng.below(ATTACKERS))
            }
            ReadKind::Goal => ":query exposed_zone(Z)".to_string(),
            ReadKind::Point if attack_graph => {
                let a = rng.below(ATTACKERS);
                format!(":query exec_code(a{a}, {})", any_host(rng).0)
            }
            ReadKind::Check => {
                let (s, d) = &world.firewall[rng.below(world.firewall.len())];
                format!(":check -hacl({s}, {d}).")
            }
            // The inventory's deepest point-queryable view is `exploitable`.
            ReadKind::Probe | ReadKind::Point => {
                let (h, v) = any_host(rng);
                let line = format!(":query exploitable({h})");
                probe = Some((h, v));
                line
            }
            ReadKind::Show if attack_graph => ":show goal_reached".to_string(),
            ReadKind::Show => ":show exposed_zone".to_string(),
        };
        Read { line, probe }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn op_list(w: &Workload, seed: u64, n: usize) -> String {
        let w = w.tiny();
        let world = World::generate(&w, seed);
        let mut out = world.text.clone();
        for conn in 0..w.load.writers() {
            let mut s = OpStream::new(&world, &w, seed, conn);
            for _ in 0..n {
                out.push_str(&s.next_op().line);
                out.push('\n');
            }
        }
        let mut reads = ReadStream::new(&w, seed);
        for _ in 0..n {
            out.push_str(&reads.next_read(&world).line);
            out.push('\n');
        }
        out
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in WORKLOADS {
            let a = op_list(w, 7, 200);
            assert_eq!(a, op_list(w, 7, 200), "{}", w.name);
            assert_ne!(a, op_list(w, 8, 200), "{}", w.name);
        }
    }

    #[test]
    fn every_commit_of_a_workload_has_the_same_length() {
        for w in WORKLOADS {
            let w = w.tiny();
            let world = World::generate(&w, 3);
            let mut s = OpStream::new(&world, &w, 3, 0);
            let len = s.next_op().line.len();
            for _ in 0..400 {
                assert_eq!(s.next_op().line.len(), len, "{}", w.name);
            }
        }
    }

    #[test]
    fn streams_return_the_model_to_its_initial_state() {
        // A churn cycle is four ops and undoes itself; an ingest stream
        // keeps exactly LAG scanner hosts live per connection.
        for w in WORKLOADS {
            let w = w.tiny();
            let world = World::generate(&w, 11);
            let mut state = world.facts.clone();
            let mut s = OpStream::new(&world, &w, 11, 0);
            for _ in 0..400 {
                s.next_op().apply(&mut state);
            }
            assert_eq!(state.len(), world.facts.len(), "{}", w.name);
            if w.traffic == Traffic::Churn {
                assert_eq!(state, world.facts, "{}", w.name);
            }
        }
    }

    #[test]
    fn connections_touch_disjoint_facts() {
        for w in WORKLOADS.iter().filter(|w| w.load.writers() > 1) {
            let w = w.tiny();
            let world = World::generate(&w, 5);
            let touched = |conn: usize| -> HashSet<String> {
                let mut s = OpStream::new(&world, &w, 5, conn);
                (0..400)
                    .flat_map(|_| s.next_op().events)
                    .map(|(_, f)| f)
                    .collect()
            };
            assert!(touched(0).is_disjoint(&touched(1)), "{}", w.name);
        }
    }

    #[test]
    fn the_attack_graph_reaches_every_zone() {
        // Otherwise some firewall toggles and patches touch nothing, and
        // `goal_reached` (critical hosts are in the last zone) is empty.
        let w = crate::spec::workload("ag_churn").expect("workload");
        let world = World::generate(w, 1);
        let db = dduf_datalog::parser::parse_database(&world.text).expect("parses");
        let interp = dduf_datalog::eval::materialize(&db).expect("materializes");
        let mut reached = [false; ZONES];
        let mut goals = 0;
        for (p, rel) in interp.iter() {
            for t in rel.iter() {
                let atom = t.to_atom(p).to_string();
                if let Some(args) = atom.strip_prefix("exec_code(") {
                    let (_, host) = args.split_once(", h").expect("exec_code(a, hZ_NNN)");
                    reached[usize::from(host.as_bytes()[0] - b'0')] = true;
                }
                goals += usize::from(atom.starts_with("goal_reached("));
            }
        }
        assert_eq!(reached, [true; ZONES]);
        assert!(goals > 0);
    }
}

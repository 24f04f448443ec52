//! Seed → inputs. The parent turns `(workload, seed)` into plain text
//! files — a network description for the three single-network workloads,
//! a campaign plan plus its `base_file` for `campaign_sweep` — and the
//! rep children receive nothing else. Generation is a pure function of
//! its two arguments (unit-tested byte for byte).
//!
//! The simulated network of each workload — placement, keys, addresses,
//! churn — is part of the benchmark and the same for every seed
//! ([`NETWORK_SEED`]); the seed draws the traffic: who talks to whom
//! and, under attack, which hosts are corrupt. A rep's cost is lumpy in
//! the network (RSA key generation is a random prime search, a flood
//! costs one event per link) and smooth in the traffic, so this is what
//! keeps runs with different seeds comparable, which the acceptance
//! check relies on.
//!
//! The sizes below are tuned to the rep-time targets of the README
//! (0.25–0.5 s per rep on a quiet core, ≤ 0.8 s for `campaign_sweep`);
//! changing one re-bases every number the benchmark has reported.

use manet_secure::attacks;
use manet_secure::scenario::{
    field_for_density, scale_family, Placement, PlainBuilder, ScenarioBuilder, SecureBuilder,
};
use manet_secure::Behavior;
use manet_sim::{ExecMode, RadioConfig};
use manet_wire::Ipv6Addr;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// The four workloads. Why each exists is recorded in `BENCHMARK.json`
/// and the README.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    PlainScale,
    SecureRoutes,
    SecureAttack,
    CampaignSweep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PlainScale,
        Workload::SecureRoutes,
        Workload::SecureAttack,
        Workload::CampaignSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PlainScale => "plain_scale",
            Workload::SecureRoutes => "secure_routes",
            Workload::SecureAttack => "secure_attack",
            Workload::CampaignSweep => "campaign_sweep",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Name of the network description inside a rep's input directory.
pub const NET_FILE: &str = "net.txt";
/// Names of the campaign plan and its defaults layer.
pub const PLAN_FILE: &str = "plan.json";
pub const BASE_FILE: &str = "base.json";

/// Scenario seed of every workload's network (the paper's year).
pub const NETWORK_SEED: u64 = 2003;

/// plain_scale: the S1 exhibit shape at 3,000 hosts.
const PLAIN_HOSTS: usize = 3000;
/// `scale_family`'s expected radio degree.
const PLAIN_DENSITY: f64 = 15.0;
const PLAIN_FLOWS: usize = 14;
const PLAIN_PACKETS: usize = 3;
const PLAIN_INTERVAL_MS: u64 = 100;
const PLAIN_FORMATION_MS: u64 = 2000;
/// Flow endpoints lie this far apart (metres; 4 to 10 radio ranges), so
/// that a reply returns well inside the 500 ms discovery timeout and a
/// flow costs one network-wide flood, not a seed-dependent number.
const PLAIN_FLOW_SPAN: std::ops::RangeInclusive<f64> = 1000.0..=2500.0;
/// Sources lie in the middle of the field (this share of its width and
/// height, centred): a flood from the edge runs twice as deep as one
/// from the middle and its copies record twice the hops, so the bytes a
/// rep allocates and transmits would otherwise swing with the seed.
const PLAIN_SOURCE_BOX: f64 = 0.4;

/// secure_*: 48 hosts and the DNS server fill a 7 × 7 lattice whose
/// 170 m pitch puts the eight surrounding hosts (diagonals at 240 m)
/// inside the 250 m radio range: degree 8 away from the border, and
/// connected.
const SECURE_HOSTS: usize = 48;
/// Key pairs a secure rep generates: one per host and the DNS server's.
pub const SECURE_IDENTITIES: usize = SECURE_HOSTS + 1;
const SECURE_COLS: usize = 7;
const SECURE_SPACING: f64 = 170.0;
const SECURE_PACKETS: usize = 10;
const SECURE_INTERVAL_MS: u64 = 300;
/// Ring of the lattice (0 = centre, 3 = border) each role is drawn
/// from. A flood from the border runs deeper, and its copies carry more
/// signed hops, than one from the centre; drawing every role from a
/// fixed ring keeps that mix, and with it the bytes and signatures of a
/// rep, the same for every seed (stratified sampling).
const SECURE_HUB_RINGS: [usize; 2] = [1, 2];
/// Sources of each hub's flows.
const SECURE_HUB_SOURCE_RINGS: [usize; 5] = [1, 2, 2, 3, 3];
/// `(source, destination)` rings of the flows that share no endpoint.
const SECURE_OTHER_FLOW_RINGS: [(usize, usize); 2] = [(2, 3), (3, 2)];
/// The corrupt hosts of secure_attack, a sixth of the network: every
/// Section 4 attack once (rings below, in the order of `secure`'s
/// list), and two more address squatters — the attack whose rejected
/// proofs can be raised without moving any route, until the attacked
/// network uses the verify pipeline measurably differently from the
/// honest one (the smoke mode checks by how much).
const SECURE_HOSTILE_RINGS: [usize; 5] = [2, 2, 3, 3, 3];
/// Hosts join in index order, and a squatter answers every address
/// request it hears from then on, so what it costs depends on when it
/// joined: one squatter is drawn from each third of the join order.
const SECURE_SQUATTERS: usize = 3;

/// Ring of host `i`: the DNS server holds lattice position 0, so host
/// `i` stands at position `i + 1`.
fn secure_ring(host: usize) -> usize {
    let (row, col) = ((host + 1) / SECURE_COLS, (host + 1) % SECURE_COLS);
    let centre = SECURE_COLS / 2;
    row.abs_diff(centre).max(col.abs_diff(centre))
}

/// campaign_sweep: the two network sizes of the grid and the flows of
/// every job (endpoints drawn among the smaller size's hosts).
const CAMPAIGN_HOSTS: [usize; 2] = [6, 9];
const CAMPAIGN_COLS: usize = 4;
/// The host the adversary factor corrupts; never a flow endpoint.
const CAMPAIGN_ADVERSARY: usize = 1;
/// One flow per hop distance on the lattice, so that every seed's jobs
/// carry the same number of data hops (stratified, like the secure
/// network's roles).
const CAMPAIGN_FLOW_HOPS: [usize; 3] = [1, 2, 3];

/// One of the Section 4 attacks, by the name of its
/// `manet_secure::attacks` constructor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Attack {
    BlackHole,
    Impersonator(Ipv6Addr),
    Replayer,
    RerrForger,
    DadSquatter,
    DnsImpersonator,
}

impl Attack {
    pub fn behavior(self) -> Behavior {
        match self {
            Attack::BlackHole => attacks::black_hole(),
            Attack::Impersonator(victim) => attacks::impersonator(victim),
            Attack::Replayer => attacks::replayer(),
            Attack::RerrForger => attacks::rerr_forger(),
            Attack::DadSquatter => attacks::dad_squatter(),
            Attack::DnsImpersonator => attacks::dns_impersonator(),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stack {
    Plain,
    Secure,
}

/// What a single-network rep builds and drives; the parsed form of
/// [`NET_FILE`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NetSpec {
    pub stack: Stack,
    pub hosts: usize,
    /// Run the engine to this simulated time before the first packet
    /// (the scale exhibits' formation beat).
    pub formation_ms: u64,
    /// `(source, destination)` host indices.
    pub flows: Vec<(usize, usize)>,
    pub packets: usize,
    pub interval_ms: u64,
    pub adversaries: Vec<(usize, Attack)>,
}

impl NetSpec {
    /// The secure builder for this spec (secure stacks only): shipping
    /// `ProtocolConfig` defaults except that the backend is pinned to
    /// RSA, so an ambient `MANET_CRYPTO` cannot change what is measured.
    pub fn secure_builder(&self) -> SecureBuilder {
        ScenarioBuilder::new()
            .hosts(self.hosts)
            .placement(Placement::Grid {
                cols: SECURE_COLS,
                spacing: SECURE_SPACING,
            })
            .seed(NETWORK_SEED)
            .exec(ExecMode::Single)
            .adversaries(
                self.adversaries
                    .iter()
                    .map(|&(host, attack)| (host, attack.behavior()))
                    .collect(),
            )
            .secure()
            .crypto_backend(manet_crypto::BackendKind::Rsa)
    }

    /// The plain builder for this spec: `scale_family` as the S1
    /// exhibit calls it.
    pub fn plain_builder(&self, exec: ExecMode) -> PlainBuilder {
        scale_family(self.hosts, NETWORK_SEED).exec(exec).plain()
    }

    pub fn render(&self) -> String {
        let stack = match self.stack {
            Stack::Plain => "plain",
            Stack::Secure => "secure",
        };
        let flows: Vec<String> = self.flows.iter().map(|(a, b)| format!("{a}>{b}")).collect();
        let mut lines = vec![
            format!("stack {stack}"),
            format!("hosts {}", self.hosts),
            format!("formation_ms {}", self.formation_ms),
            format!("flows {}", flows.join(" ")),
            format!("packets {}", self.packets),
            format!("interval_ms {}", self.interval_ms),
        ];
        for (host, attack) in &self.adversaries {
            let what = match attack {
                Attack::BlackHole => "black_hole".to_string(),
                Attack::Impersonator(ip) => {
                    let groups: Vec<String> =
                        ip.groups().iter().map(|g| format!("{g:x}")).collect();
                    format!("impersonator {}", groups.join(":"))
                }
                Attack::Replayer => "replayer".to_string(),
                Attack::RerrForger => "rerr_forger".to_string(),
                Attack::DadSquatter => "dad_squatter".to_string(),
                Attack::DnsImpersonator => "dns_impersonator".to_string(),
            };
            lines.push(format!("adversary {host} {what}"));
        }
        lines.join("\n") + "\n"
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let mut spec = NetSpec {
            stack: Stack::Plain,
            hosts: 0,
            formation_ms: 0,
            flows: Vec::new(),
            packets: 0,
            interval_ms: 0,
            adversaries: Vec::new(),
        };
        for line in text.lines() {
            let bad = || format!("bad line in network description: {line:?}");
            let mut words = line.split_whitespace();
            let key = words.next().ok_or_else(bad)?;
            let rest: Vec<&str> = words.collect();
            let num = |i: usize| -> Result<u64, String> {
                rest.get(i).and_then(|w| w.parse().ok()).ok_or_else(bad)
            };
            match key {
                "stack" => {
                    spec.stack = match rest.first().copied() {
                        Some("plain") => Stack::Plain,
                        Some("secure") => Stack::Secure,
                        _ => return Err(bad()),
                    }
                }
                "hosts" => spec.hosts = num(0)? as usize,
                "formation_ms" => spec.formation_ms = num(0)?,
                "packets" => spec.packets = num(0)? as usize,
                "interval_ms" => spec.interval_ms = num(0)?,
                "flows" => {
                    spec.flows = rest
                        .iter()
                        .map(|p| {
                            let (a, b) = p.split_once('>')?;
                            Some((a.parse().ok()?, b.parse().ok()?))
                        })
                        .collect::<Option<Vec<_>>>()
                        .ok_or_else(bad)?
                }
                "adversary" => {
                    let host = num(0)? as usize;
                    let attack = match rest.get(1).copied() {
                        Some("black_hole") => Attack::BlackHole,
                        Some("impersonator") => {
                            let groups: Vec<u16> = rest
                                .get(2)
                                .ok_or_else(bad)?
                                .split(':')
                                .map(|g| u16::from_str_radix(g, 16))
                                .collect::<Result<_, _>>()
                                .map_err(|_| bad())?;
                            let groups: [u16; 8] = groups.try_into().map_err(|_| bad())?;
                            Attack::Impersonator(Ipv6Addr::from_groups(groups))
                        }
                        Some("replayer") => Attack::Replayer,
                        Some("rerr_forger") => Attack::RerrForger,
                        Some("dad_squatter") => Attack::DadSquatter,
                        Some("dns_impersonator") => Attack::DnsImpersonator,
                        _ => return Err(bad()),
                    };
                    spec.adversaries.push((host, attack));
                }
                _ => return Err(bad()),
            }
        }
        if spec.hosts == 0 {
            return Err("network description names no hosts".to_string());
        }
        Ok(spec)
    }
}

/// The files of one run's input directory, as `(name, contents)`.
pub fn generate(workload: Workload, seed: u64) -> Vec<(&'static str, String)> {
    match workload {
        Workload::PlainScale => vec![(NET_FILE, plain_scale(seed).render())],
        Workload::SecureRoutes => vec![(NET_FILE, secure(seed, false).render())],
        Workload::SecureAttack => vec![(NET_FILE, secure(seed, true).render())],
        Workload::CampaignSweep => {
            let (plan, base) = campaign(seed);
            vec![(PLAN_FILE, plan), (BASE_FILE, base)]
        }
    }
}

/// The plain network and `PLAIN_FLOWS` flows between hosts a bounded
/// distance apart. Positions exist only in a built network, so one
/// throwaway build here (outside every rep) reads them.
pub fn plain_scale(seed: u64) -> NetSpec {
    let mut spec = NetSpec {
        stack: Stack::Plain,
        hosts: PLAIN_HOSTS,
        formation_ms: PLAIN_FORMATION_MS,
        flows: Vec::new(),
        packets: PLAIN_PACKETS,
        interval_ms: PLAIN_INTERVAL_MS,
        adversaries: Vec::new(),
    };
    let net = spec.plain_builder(ExecMode::Single).build();
    let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x706c_6169_6e5f_7363);
    let position = |host: usize| net.engine.position(net.hosts[host]);
    let edge = field_for_density(PLAIN_HOSTS, RadioConfig::default().range, PLAIN_DENSITY).width;
    let central = |v: f64| (v / edge - 0.5).abs() <= PLAIN_SOURCE_BOX / 2.0;
    while spec.flows.len() < PLAIN_FLOWS {
        let (a, b) = (rng.gen_range(0..PLAIN_HOSTS), rng.gen_range(0..PLAIN_HOSTS));
        let (from, to) = (position(a), position(b));
        if central(from.x) && central(from.y) && PLAIN_FLOW_SPAN.contains(&from.dist(&to)) {
            spec.flows.push((a, b));
        }
    }
    spec
}

/// The secure network's traffic: two hub destinations with five sources
/// each plus two unrelated pairs, all between hosts that stay honest.
/// With `hostile` the same network and flows get the corrupt hosts of
/// `SECURE_HOSTILE_RINGS` among the remaining ones.
pub fn secure(seed: u64, hostile: bool) -> NetSpec {
    // Its own stream, so the picks do not move with the engine's draws.
    let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x6d61_6e65_745f_6268);
    let mut rings: Vec<Vec<usize>> = vec![Vec::new(); SECURE_COLS / 2 + 1];
    for host in 0..SECURE_HOSTS {
        rings[secure_ring(host)].push(host);
    }
    let mut pick = |ring: usize| {
        let pool = &mut rings[ring];
        pool.swap_remove(rng.gen_range(0..pool.len()))
    };
    let hubs = SECURE_HUB_RINGS.map(&mut pick);
    let mut flows = Vec::new();
    for hub in hubs {
        for ring in SECURE_HUB_SOURCE_RINGS {
            flows.push((pick(ring), hub));
        }
    }
    for (src, dst) in SECURE_OTHER_FLOW_RINGS {
        flows.push((pick(src), pick(dst)));
    }
    let mut spec = NetSpec {
        stack: Stack::Secure,
        hosts: SECURE_HOSTS,
        formation_ms: 0,
        flows,
        packets: SECURE_PACKETS,
        interval_ms: SECURE_INTERVAL_MS,
        adversaries: Vec::new(),
    };
    if hostile {
        // The impersonator claims the first hub's address, which only
        // exists once the keys do, so one throwaway build here (outside
        // every rep) learns it.
        let hub_ip = spec.secure_builder().build().host_ip(hubs[0]);
        let kinds = [
            Attack::BlackHole,
            Attack::Impersonator(hub_ip),
            Attack::Replayer,
            Attack::RerrForger,
            Attack::DnsImpersonator,
        ];
        spec.adversaries = SECURE_HOSTILE_RINGS
            .map(&mut pick)
            .into_iter()
            .zip(kinds)
            .collect();
        let mut spare: Vec<usize> = rings.concat();
        spare.sort_unstable();
        for third in 0..SECURE_SQUATTERS {
            let range = third * SECURE_HOSTS / SECURE_SQUATTERS
                ..(third + 1) * SECURE_HOSTS / SECURE_SQUATTERS;
            let mut pool: Vec<usize> = spare
                .iter()
                .copied()
                .filter(|h| range.contains(h))
                .collect();
            if pool.is_empty() {
                // Every host of this third already has a role (possible,
                // never seen): any spare host will do.
                pool = spare.clone();
            }
            let squatter = pool[rng.gen_range(0..pool.len())];
            spare.retain(|&h| h != squatter);
            spec.adversaries.push((squatter, Attack::DadSquatter));
        }
        spec.adversaries.sort_unstable_by_key(|&(host, _)| host);
    }
    spec
}

/// The campaign plan and its defaults layer. Grid factors run slowest
/// first, so the host count splits the 16 jobs into the two static rayon
/// chunks: eight small networks on one thread, eight large ones on the
/// other, and the large chunk sets the wall. The seed draws the three
/// flows, among the hosts both sizes have.
pub fn campaign(seed: u64) -> (String, String) {
    let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x6361_6d70_6169_676e);
    // Host `i` stands at lattice position `i + 1` (the DNS server holds
    // position 0); with diagonal neighbours in range, hops are the
    // larger of the row and column distances.
    let hops = |a: usize, b: usize| {
        let cell = |h: usize| ((h + 1) / CAMPAIGN_COLS, (h + 1) % CAMPAIGN_COLS);
        let ((ra, ca), (rb, cb)) = (cell(a), cell(b));
        ra.abs_diff(rb).max(ca.abs_diff(cb))
    };
    let endpoints = || (0..CAMPAIGN_HOSTS[0]).filter(|&h| h != CAMPAIGN_ADVERSARY);
    let flows: Vec<String> = CAMPAIGN_FLOW_HOPS
        .iter()
        .map(|&want| {
            let pairs: Vec<(usize, usize)> = endpoints()
                .flat_map(|a| endpoints().map(move |b| (a, b)))
                .filter(|&(a, b)| hops(a, b) == want)
                .collect();
            let (a, b) = pairs[rng.gen_range(0..pairs.len())];
            format!("[{a}, {b}]")
        })
        .collect();
    let plan = format!(
        r#"{{
  "campaign": "bench_sweep",
  "base_file": "{BASE_FILE}",
  "seeds": [{NETWORK_SEED}, {}],
  "factors": {{
    "scenario.hosts": [{}, {}],
    "scenario.adversaries": [
      [],
      [{{"host": {CAMPAIGN_ADVERSARY}, "behavior": {{"data_drop_prob": 1.0, "forge_rrep": true}}}}]
    ],
    "scenario.radio.loss": [0.0, 0.05]
  }},
  "tolerances": {{
    "delivery_ratio": {{"min": 0.5, "abs": 0.1}}
  }}
}}
"#,
        NETWORK_SEED + 1,
        CAMPAIGN_HOSTS[0],
        CAMPAIGN_HOSTS[1],
    );
    let base = format!(
        r#"{{
  "scenario": {{
    "placement": {{"kind": "grid", "cols": {CAMPAIGN_COLS}, "spacing": {SECURE_SPACING:?}}},
    "exec": "single",
    "stack": {{
      "kind": "secure",
      "proto": {{"key_bits": 512, "crypto_backend": "rsa"}}
    }}
  }},
  "workload": {{
    "flows": [{}],
    "packets": 5,
    "interval_ms": 300.0
  }}
}}
"#,
        flows.join(", ")
    );
    (plan, base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_workload_and_seed() {
        for w in Workload::ALL {
            assert_eq!(generate(w, 41), generate(w, 41), "{}", w.name());
            assert_ne!(generate(w, 41), generate(w, 42), "{}", w.name());
        }
    }

    #[test]
    fn network_descriptions_round_trip() {
        for spec in [plain_scale(3), secure(3, false), secure(3, true)] {
            assert_eq!(NetSpec::parse(&spec.render()), Ok(spec));
        }
    }

    #[test]
    fn attack_variant_keeps_network_and_flows_and_corrupts_bystanders() {
        let honest = secure(9, false);
        let attacked = secure(9, true);
        assert_eq!(honest.flows, attacked.flows);
        assert_eq!(
            attacked.adversaries.len(),
            SECURE_HOSTILE_RINGS.len() + SECURE_SQUATTERS
        );
        for (host, _) in &attacked.adversaries {
            assert!(attacked.flows.iter().all(|(a, b)| a != host && b != host));
        }
    }

    #[test]
    fn secure_roles_come_from_their_rings() {
        let counts = |ring| {
            (0..SECURE_HOSTS)
                .filter(|&h| secure_ring(h) == ring)
                .count()
        };
        assert_eq!([counts(0), counts(1), counts(2), counts(3)], [1, 8, 16, 23]);
        for seed in 0..20 {
            let spec = secure(seed, false);
            let src_rings: Vec<usize> = spec.flows.iter().map(|f| secure_ring(f.0)).collect();
            assert_eq!(
                src_rings,
                [1, 2, 2, 3, 3, 1, 2, 2, 3, 3, 2, 3],
                "seed {seed}"
            );
            assert_eq!(secure_ring(spec.flows[0].1), SECURE_HUB_RINGS[0]);
            assert_eq!(secure_ring(spec.flows[5].1), SECURE_HUB_RINGS[1]);
        }
    }

    #[test]
    fn malformed_descriptions_are_rejected() {
        assert!(NetSpec::parse("hosts many").is_err());
        assert!(NetSpec::parse("stack secure\n").is_err(), "no hosts");
        assert!(NetSpec::parse("hosts 4\nadversary 1 gremlin").is_err());
        assert!(NetSpec::parse("hosts 4\nflows 1-2").is_err());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}

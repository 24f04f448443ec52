//! Property gates for the memory diet (ROADMAP item 1): the arena
//! storage landed for scale must be *observationally invisible*.
//!
//! Two layers:
//!
//! * [`RouteCache`] against a naive owning-`Vec` oracle implementing
//!   the same bounds and eviction rules, driven through random
//!   insert / link-failure / dest-drop interleavings tight enough to
//!   force constant span free/reuse churn in the arena. Any handle
//!   mix-up (a reused span served to a stale route) shows up as a
//!   relay-list mismatch.
//! * Whole-universe trace equality: the same seed must render the same
//!   byte-exact trace stream and report fingerprint under
//!   `ExecMode::Single` and `Sharded(1/4/8)`, for the plain stack
//!   and the secure stack.

use manet_secure::config::CreditConfig;
use manet_secure::credit::CreditManager;
use manet_secure::routecache::{CachedRoute, RouteCache};
use manet_secure::scenario::{scale_family, Placement, ScenarioBuilder, Workload};
use manet_secure::ProtocolConfig;
use manet_sim::{ExecMode, SimDuration, SimTime};
use manet_wire::Ipv6Addr;
use proptest::prelude::*;

fn ip(last: u8) -> Ipv6Addr {
    let mut b = [0u8; 16];
    b[0] = 0xfe;
    b[1] = 0xc0;
    // Spread entropy across the interface id like real addresses do.
    b[8] = last.wrapping_mul(37);
    b[15] = last;
    Ipv6Addr(b)
}

/// One modelled route: owned relay list plus its learn time.
type ModelRoute = (Vec<Ipv6Addr>, SimTime);

/// The oracle: the pre-arena layout (every route owns its relay `Vec`)
/// running the same eviction and selection algorithm as [`RouteCache`].
#[derive(Default)]
struct VecModel {
    routes: Vec<(Ipv6Addr, Vec<ModelRoute>)>,
}

impl VecModel {
    const PER_DEST: usize = 2;
    const MAX_DESTS: usize = 4;

    fn list_mut(&mut self, dst: Ipv6Addr) -> &mut Vec<ModelRoute> {
        if let Some(i) = self.routes.iter().position(|(d, _)| *d == dst) {
            &mut self.routes[i].1
        } else {
            self.routes.push((dst, Vec::new()));
            &mut self.routes.last_mut().expect("just pushed").1
        }
    }

    fn insert(&mut self, dst: Ipv6Addr, relays: Vec<Ipv6Addr>, at: SimTime) {
        let is_new = !self.routes.iter().any(|(d, _)| *d == dst);
        if is_new && self.routes.len() >= Self::MAX_DESTS {
            // Evict the destination whose newest route is oldest, ties
            // by address — mirror of RouteCache's dest eviction.
            let stalest = self
                .routes
                .iter()
                .map(|(d, list)| {
                    let newest = list.iter().map(|(_, t)| *t).max().expect("nonempty");
                    (newest, *d)
                })
                .min()
                .map(|(_, d)| d)
                .expect("nonempty");
            self.routes.retain(|(d, _)| *d != stalest);
        }
        let list = self.list_mut(dst);
        list.retain(|(r, _)| r != &relays);
        while list.len() >= Self::PER_DEST {
            let oldest = list
                .iter()
                .enumerate()
                .min_by_key(|(i, (_, t))| (*t, *i))
                .map(|(i, _)| i)
                .expect("nonempty");
            list.remove(oldest);
        }
        list.push((relays, at));
    }

    fn remove_link(&mut self, me: Ipv6Addr, from: Ipv6Addr, to: Ipv6Addr) -> usize {
        let mut dropped = 0;
        for (dst, list) in self.routes.iter_mut() {
            list.retain(|(relays, _)| {
                let mut path = vec![me];
                path.extend_from_slice(relays);
                path.push(*dst);
                let uses = path.windows(2).any(|w| w[0] == from && w[1] == to);
                dropped += usize::from(uses);
                !uses
            });
        }
        self.routes.retain(|(_, v)| !v.is_empty());
        dropped
    }

    fn remove_dest(&mut self, dst: &Ipv6Addr) {
        self.routes.retain(|(d, _)| d != dst);
    }

    fn relay_lists(&self, dst: &Ipv6Addr) -> Vec<Vec<Ipv6Addr>> {
        self.routes
            .iter()
            .find(|(d, _)| d == dst)
            .map(|(_, list)| list.iter().map(|(r, _)| r.clone()).collect())
            .unwrap_or_default()
    }
}

#[derive(Clone, Debug)]
enum Op {
    Insert { dst: u8, relays: Vec<u8>, at: u64 },
    RemoveLink { from: u8, to: u8 },
    RemoveDest { dst: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    // A tiny address space (8 dsts, relays from the same pool) with a
    // dest cap of 4 and per-dest cap of 2 keeps both caps constantly
    // hot, so arena spans free and get reused within a few ops. The
    // insert arm is listed twice: the local `prop_oneof!` is uniform
    // (no weight syntax), and a removal-heavy mix would leave the caps
    // cold.
    let insert = || {
        (0u8..8, proptest::collection::vec(0u8..8, 0..4), 0u64..1_000)
            .prop_map(|(dst, relays, at)| Op::Insert { dst, relays, at })
    };
    prop_oneof![
        insert(),
        insert(),
        (0u8..9, 0u8..9).prop_map(|(from, to)| Op::RemoveLink { from, to }),
        (0u8..8).prop_map(|dst| Op::RemoveDest { dst }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arena-backed cache ≡ owning-Vec oracle under eviction churn:
    /// same surviving routes, same order, same link-failure drop
    /// counts — i.e. span reuse never leaks one route's relays into
    /// another's.
    #[test]
    fn route_cache_matches_vec_model(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let me = ip(200);
        let credits = CreditManager::new(CreditConfig::default());
        let mut cache = RouteCache::with_caps(
            SimDuration(60_000_000),
            VecModel::PER_DEST,
            VecModel::MAX_DESTS,
        );
        let mut model = VecModel::default();
        for op in &ops {
            match op {
                Op::Insert { dst, relays, at } => {
                    let relays: Vec<Ipv6Addr> = relays.iter().map(|&r| ip(r)).collect();
                    cache.insert(ip(*dst), CachedRoute {
                        relays: relays.clone(),
                        d_proof: None,
                        learned_at: SimTime(*at),
                    });
                    model.insert(ip(*dst), relays, SimTime(*at));
                }
                Op::RemoveLink { from, to } => {
                    let dropped = cache.remove_link(me, ip(*from), ip(*to));
                    let expect = model.remove_link(me, ip(*from), ip(*to));
                    prop_assert_eq!(dropped, expect);
                }
                Op::RemoveDest { dst } => {
                    cache.remove_dest(&ip(*dst));
                    model.remove_dest(&ip(*dst));
                }
            }
            // Full-state comparison after every op: relay lists per
            // destination, in insertion order.
            for d in 0..8u8 {
                prop_assert_eq!(cache.relay_lists(&ip(d)), model.relay_lists(&ip(d)));
            }
            prop_assert_eq!(cache.len(), model.routes.len());
        }
        // The selection path reads through the same spans: spot-check
        // best() agrees with the oracle's algorithm on one dst.
        let now = SimTime(1_000);
        for d in 0..8u8 {
            let got = cache.best(&ip(d), &credits, now).map(|r| r.relays.to_vec());
            let lists = model.relay_lists(&ip(d));
            // Equal scores (no slashes): max_by keeps the LAST maximal
            // element; shorter routes order higher.
            let expect = lists
                .iter()
                .max_by(|a, b| b.len().cmp(&a.len()))
                .cloned();
            prop_assert_eq!(got, expect);
        }
    }

    /// Same-seed plain universes are byte-identical across executors:
    /// the arena storage must not perturb a single trace line.
    #[test]
    fn plain_trace_identical_across_executors(seed in 1u64..64) {
        let render = |exec: ExecMode| {
            let mut net = scale_family(16, seed)
                .trace(true)
                .exec(exec)
                .plain()
                .build();
            net.engine.run_until(SimTime(2_000_000));
            let flows = net.scale_flows(2);
            let report = net.run(&Workload::flows(flows, 2, SimDuration::from_millis(400)));
            (net.engine.tracer().render(), report.fingerprint())
        };
        let base = render(ExecMode::Single);
        for k in [1usize, 4, 8] {
            prop_assert_eq!(&render(ExecMode::Sharded(k)), &base);
        }
    }
}

proptest! {
    // Secure universes pay RSA keygen per case; a handful of seeds
    // with small keys still covers the bootstrap path under every
    // executor.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn secure_trace_identical_across_executors(seed in 1u64..16) {
        let render = |exec: ExecMode| {
            let mut net = ScenarioBuilder::new()
                .hosts(6)
                .placement(Placement::Uniform)
                .density(10.0)
                .seed(seed)
                .trace(true)
                .exec(exec)
                .secure_with(ProtocolConfig {
                    key_bits: 384,
                    ..ProtocolConfig::default()
                })
                .join_stagger(SimDuration::from_millis(20))
                .build();
            let report = net.run(&Workload::bootstrap_storm());
            (net.engine.tracer().render(), report.fingerprint())
        };
        let base = render(ExecMode::Single);
        for k in [1usize, 4, 8] {
            prop_assert_eq!(&render(ExecMode::Sharded(k)), &base);
        }
    }
}

//! Topology properties of the spatial-grid channel: for arbitrary node
//! placements — including nodes exactly on cell boundaries and radios
//! with gray zones — `Engine::neighbors` and
//! `Engine::connected_component` must agree with a brute-force linear
//! scan written here over the public `position` / `is_alive` /
//! `RadioConfig::in_range`. (That every broadcast lands identically is
//! an engine unit test: it needs the engine's one-cell grid oracle.)

use manet_sim::{
    Ctx, Engine, EngineConfig, Field, Mobility, NodeId, Pos, Protocol, RadioConfig, SimTime,
};
use proptest::prelude::*;
use std::any::Any;

/// A node that does nothing: only its position and liveness matter.
struct Idle;

impl Protocol for Idle {
    fn on_start(&mut self, _ctx: &mut Ctx) {}
    fn on_frame(&mut self, _ctx: &mut Ctx, _src: NodeId, _bytes: &[u8]) {}
    fn on_timer(&mut self, _ctx: &mut Ctx, _tag: u64) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const FIELD: f64 = 1000.0;

/// One generated placement: position fractions plus "snap this node onto
/// an exact cell-boundary multiple" flags — the boundary cases where an
/// off-by-one in cell coverage would hide.
type RawNode = (f64, f64, bool, bool);

fn build(raw: &[RawNode], radio: &RadioConfig, seed: u64) -> (Engine, Vec<NodeId>) {
    let cell = radio.max_range();
    let mut e = Engine::new(EngineConfig {
        field: Field::new(FIELD, FIELD),
        radio: radio.clone(),
        seed,
        ..EngineConfig::default()
    });
    let ids: Vec<NodeId> = raw
        .iter()
        .map(|&(fx, fy, snap_x, snap_y)| {
            let snap = |f: f64, do_snap: bool| {
                let v = f * FIELD;
                if do_snap {
                    // Exactly k cell widths — lands on a bucket boundary.
                    ((v / cell).round() * cell).min(FIELD)
                } else {
                    v
                }
            };
            e.add_node(
                Box::new(Idle),
                Pos::new(snap(fx, snap_x), snap(fy, snap_y)),
                Mobility::Static,
            )
        })
        .collect();
    e.run_until(SimTime(1)); // process all Start events
    (e, ids)
}

/// The linear scan: every other live node within crisp range of `id`,
/// ascending by NodeId. (Every node here has joined and started.)
fn brute_neighbors(e: &Engine, radio: &RadioConfig, id: NodeId) -> Vec<NodeId> {
    let here = e.position(id);
    (0..e.node_count())
        .map(NodeId)
        .filter(|&o| o != id && e.is_alive(o) && radio.in_range(here.dist(&e.position(o))))
        .collect()
}

/// Breadth-first search over [`brute_neighbors`], in the order
/// `Engine::connected_component` visits.
fn brute_component(e: &Engine, radio: &RadioConfig, from: NodeId) -> Vec<NodeId> {
    let mut seen = vec![false; e.node_count()];
    seen[from.0] = true;
    let mut out = vec![from];
    let mut next = 0;
    while let Some(&n) = out.get(next) {
        next += 1;
        for m in brute_neighbors(e, radio, n) {
            if !std::mem::replace(&mut seen[m.0], true) {
                out.push(m);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Neighbor sets and connected components agree with the linear
    /// scan for every node, for crisp disks and gray-zone radios alike.
    #[test]
    fn grid_and_linear_agree_on_topology(
        raw in proptest::collection::vec(
            (0.0f64..1.0, 0.0f64..1.0, any::<bool>(), any::<bool>()), 2..32),
        range in 60.0f64..400.0,
        gray_frac in 1.0f64..2.0,
        with_gray in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let radio = RadioConfig {
            range,
            loss: 0.0,
            gray_zone: with_gray.then_some(range * gray_frac),
            ..RadioConfig::default()
        };
        let (grid, ids) = build(&raw, &radio, seed);
        let mut buf = Vec::new();
        for &id in &ids {
            grid.neighbors_into(id, &mut buf);
            prop_assert_eq!(&buf, &brute_neighbors(&grid, &radio, id));
            prop_assert_eq!(
                grid.connected_component(id),
                brute_component(&grid, &radio, id)
            );
        }
        let connected = brute_component(&grid, &radio, ids[0]).len() == ids.len();
        prop_assert_eq!(grid.is_connected(), connected);
    }
}

/// Deterministic regression: a ring of nodes placed *exactly* on cell
/// boundaries at *exactly* range distance — the sharpest corner of the
/// covering argument (floor on the boundary, inclusive range check).
#[test]
fn exact_boundary_ring_matches_linear() {
    let radio = RadioConfig {
        range: 250.0,
        loss: 0.0,
        ..RadioConfig::default()
    };
    // Center on the (500, 500) cell corner; eight nodes at multiples of
    // 250 m straight and diagonal, plus one at exactly range on the axis.
    let mut grid = Engine::new(EngineConfig {
        field: Field::new(FIELD, FIELD),
        radio: radio.clone(),
        ..EngineConfig::default()
    });
    let pts = [
        (500.0, 500.0),
        (750.0, 500.0), // exactly range to the right, on a boundary
        (250.0, 500.0),
        (500.0, 750.0),
        (500.0, 250.0),
        (750.0, 750.0), // diagonal: dist 353.6, out of range
        (250.0, 250.0),
        (500.0, 1000.0), // field edge
        (0.0, 0.0),
    ];
    let ids: Vec<NodeId> = pts
        .iter()
        .map(|&(x, y)| grid.add_node(Box::new(Idle), Pos::new(x, y), Mobility::Static))
        .collect();
    grid.run_until(SimTime(1));
    for &id in &ids {
        assert_eq!(
            grid.neighbors(id),
            brute_neighbors(&grid, &radio, id),
            "{id:?}"
        );
    }
    // The center hears the four at exactly `range` (inclusive check).
    assert_eq!(grid.neighbors(ids[0]), vec![ids[1], ids[2], ids[3], ids[4]]);
}

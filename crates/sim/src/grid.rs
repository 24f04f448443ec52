//! Uniform spatial grid over the field — the engine's O(1)-neighborhood
//! index.
//!
//! Cell edge length equals the radio's maximum reception distance
//! ([`crate::RadioConfig::max_range`], i.e. the gray-zone radius when one
//! is configured), so any receiver of a frame sent from a cell lies in
//! that cell or one of its 8 neighbors: two positions at most one cell
//! apart on each axis (floor is monotone) whenever their distance is at
//! most one cell edge. Queries therefore scan at most 9 cells instead of
//! the whole node table.
//!
//! Candidate lists are returned in **ascending [`NodeId`] order**. That
//! is a hard invariant, not a nicety: broadcast delivery draws loss and
//! delay samples per candidate in this order, so a grid of any cell
//! size — down to a single cell holding every node, the linear scan the
//! engine's unit tests use as their oracle — draws the RNG identically
//! under the same seed (see the engine module docs).
//!
//! Positions outside the field (tests teleport nodes around freely) are
//! clamped into the boundary cells; clamping is monotone, so the
//! one-cell-apart covering argument still holds.

use crate::ctx::NodeId;
use crate::geom::{Field, Pos};

pub(crate) struct SpatialGrid {
    /// Cell edge length in metres.
    cell: f64,
    cols: usize,
    rows: usize,
    /// Flat row-major buckets of node ids (unordered within a bucket).
    cells: Vec<Vec<NodeId>>,
    /// Current flat cell index per node; `None` after removal.
    loc: Vec<Option<usize>>,
}

impl SpatialGrid {
    pub(crate) fn new(field: &Field, cell_size: f64) -> Self {
        let cell = cell_size.max(1e-6); // guard degenerate radio configs
        let cols = ((field.width / cell).ceil() as usize).max(1);
        let rows = ((field.height / cell).ceil() as usize).max(1);
        SpatialGrid {
            cell,
            cols,
            rows,
            cells: vec![Vec::new(); cols * rows],
            loc: Vec::new(),
        }
    }

    /// `(col, row)` of a position; saturating casts clamp stray
    /// out-of-field coordinates into the boundary cells.
    fn coords(&self, pos: &Pos) -> (usize, usize) {
        let cx = ((pos.x / self.cell) as usize).min(self.cols - 1);
        let cy = ((pos.y / self.cell) as usize).min(self.rows - 1);
        (cx, cy)
    }

    fn index_of(&self, pos: &Pos) -> usize {
        let (cx, cy) = self.coords(pos);
        cy * self.cols + cx
    }

    pub(crate) fn insert(&mut self, id: NodeId, pos: &Pos) {
        if self.loc.len() <= id.0 {
            self.loc.resize(id.0 + 1, None);
        }
        debug_assert!(self.loc[id.0].is_none(), "node already indexed");
        let idx = self.index_of(pos);
        self.cells[idx].push(id);
        self.loc[id.0] = Some(idx);
    }

    /// Drop a node from the index (node death). No-op if absent.
    pub(crate) fn remove(&mut self, id: NodeId) {
        if let Some(idx) = self.loc.get_mut(id.0).and_then(|l| l.take()) {
            let bucket = &mut self.cells[idx];
            let at = bucket.iter().position(|&n| n == id).expect("loc desync");
            bucket.swap_remove(at);
        }
    }

    /// Move a node to `pos` (mobility tick or teleport). No-op for nodes
    /// not in the index (already removed by death).
    pub(crate) fn relocate(&mut self, id: NodeId, pos: &Pos) {
        let new_idx = self.index_of(pos);
        match self.loc.get(id.0).copied().flatten() {
            Some(old_idx) if old_idx == new_idx => {}
            Some(_) => {
                self.remove(id);
                self.cells[new_idx].push(id);
                self.loc[id.0] = Some(new_idx);
            }
            None => {}
        }
    }

    /// Fill `out` with every indexed node in the 3×3 cell neighborhood of
    /// `pos`, ascending by NodeId. The caller filters self/liveness/range.
    pub(crate) fn candidates_into(&self, pos: &Pos, out: &mut Vec<NodeId>) {
        out.clear();
        let (cx, cy) = self.coords(pos);
        for gy in cy.saturating_sub(1)..=(cy + 1).min(self.rows - 1) {
            for gx in cx.saturating_sub(1)..=(cx + 1).min(self.cols - 1) {
                out.extend_from_slice(&self.cells[gy * self.cols + gx]);
            }
        }
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> SpatialGrid {
        // 1000×1000 field, 250 m cells → 4×4.
        SpatialGrid::new(&Field::new(1000.0, 1000.0), 250.0)
    }

    fn candidates(g: &SpatialGrid, pos: Pos) -> Vec<NodeId> {
        let mut out = Vec::new();
        g.candidates_into(&pos, &mut out);
        out
    }

    #[test]
    fn covers_all_pairs_within_one_cell_edge() {
        let mut g = grid();
        // Exactly on a cell boundary (x = 250 floors into cell 1) and its
        // in-range partner just left of the boundary in cell 0.
        g.insert(NodeId(0), &Pos::new(250.0, 0.0));
        g.insert(NodeId(1), &Pos::new(249.999, 0.0));
        // 250 m apart straddling a boundary: cells 0 and 1.
        g.insert(NodeId(2), &Pos::new(100.0, 100.0));
        g.insert(NodeId(3), &Pos::new(350.0, 100.0));
        for (a, b) in [(0, 1), (2, 3)] {
            for (x, y) in [(a, b), (b, a)] {
                let pos = match x {
                    0 => Pos::new(250.0, 0.0),
                    1 => Pos::new(249.999, 0.0),
                    2 => Pos::new(100.0, 100.0),
                    _ => Pos::new(350.0, 100.0),
                };
                assert!(
                    candidates(&g, pos).contains(&NodeId(y)),
                    "n{y} missing from n{x}'s neighborhood"
                );
            }
        }
    }

    #[test]
    fn candidates_are_sorted_ascending() {
        let mut g = grid();
        // Insert out of order into the same neighborhood.
        g.insert(NodeId(5), &Pos::new(10.0, 10.0));
        g.insert(NodeId(1), &Pos::new(300.0, 10.0));
        g.insert(NodeId(3), &Pos::new(10.0, 300.0));
        let c = candidates(&g, Pos::new(100.0, 100.0));
        assert_eq!(c, vec![NodeId(1), NodeId(3), NodeId(5)]);
    }

    #[test]
    fn far_nodes_are_not_candidates() {
        let mut g = grid();
        g.insert(NodeId(0), &Pos::new(0.0, 0.0));
        g.insert(NodeId(1), &Pos::new(900.0, 900.0));
        assert_eq!(candidates(&g, Pos::new(0.0, 0.0)), vec![NodeId(0)]);
    }

    #[test]
    fn relocate_moves_between_buckets() {
        let mut g = grid();
        g.insert(NodeId(0), &Pos::new(0.0, 0.0));
        assert!(candidates(&g, Pos::new(900.0, 900.0)).is_empty());
        g.relocate(NodeId(0), &Pos::new(950.0, 950.0));
        assert_eq!(candidates(&g, Pos::new(900.0, 900.0)), vec![NodeId(0)]);
        assert!(candidates(&g, Pos::new(0.0, 0.0)).is_empty());
        // Same-cell relocation is a no-op.
        g.relocate(NodeId(0), &Pos::new(960.0, 960.0));
        assert_eq!(candidates(&g, Pos::new(900.0, 900.0)), vec![NodeId(0)]);
    }

    #[test]
    fn remove_is_final_and_relocate_after_remove_is_noop() {
        let mut g = grid();
        g.insert(NodeId(0), &Pos::new(0.0, 0.0));
        g.remove(NodeId(0));
        assert!(candidates(&g, Pos::new(0.0, 0.0)).is_empty());
        g.relocate(NodeId(0), &Pos::new(10.0, 10.0));
        assert!(candidates(&g, Pos::new(0.0, 0.0)).is_empty());
        g.remove(NodeId(0)); // double-remove tolerated
    }

    #[test]
    fn out_of_field_positions_clamp_into_boundary_cells() {
        let mut g = grid();
        g.insert(NodeId(0), &Pos::new(-50.0, 2000.0));
        assert_eq!(candidates(&g, Pos::new(0.0, 999.0)), vec![NodeId(0)]);
    }

    #[test]
    fn huge_cells_degenerate_to_one_bucket() {
        // An infinite cell is the engine tests' one-cell oracle.
        for cell in [1e9, f64::INFINITY] {
            let mut g = SpatialGrid::new(&Field::new(100.0, 100.0), cell);
            g.insert(NodeId(0), &Pos::new(0.0, 0.0));
            g.insert(NodeId(1), &Pos::new(100.0, 100.0));
            assert_eq!(
                candidates(&g, Pos::new(50.0, 50.0)),
                vec![NodeId(0), NodeId(1)]
            );
        }
    }
}

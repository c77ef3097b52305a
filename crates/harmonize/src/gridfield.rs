//! The Howe–Maier gridfield algebra (paper §2.2).
//!
//! "A grid … is a collection of heterogeneous abstract *cells* of various
//! dimensions. A grid also has an incidence relation ≤ between cells,
//! where x ≤ y means that either x = y or dim(x) < dim(y) and x 'touches'
//! y. … A gridfield results from binding data to a grid … The regrid
//! operator maps a source gridfield's cells onto a target gridfield's
//! cells via a many-to-one assignment function and then aggregates the
//! data values bound to the mapped cells via an aggregation function. The
//! authors show … that certain 'restriction' operations — which are
//! analogous to standard relational selection operations — can commute
//! with the regrid operator, creating opportunities for optimization."
//!
//! This module implements grids (with incidence), gridfields (data bound to
//! the cells of one dimension), `restrict`, `regrid`, and the
//! restrict/regrid commutation rewrite with an operation-count cost model —
//! the optimization the paper highlights (originally applied in the CORIE
//! Columbia River Estuary system).

use crate::HarmonizeError;
use std::collections::HashMap;
use std::sync::Arc;

/// A grid: cells of heterogeneous dimension plus the incidence relation.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    dims: Vec<u8>,
    /// Incidence pairs `(x, y)` with `x ≤ y`, `x ≠ y` (the reflexive part
    /// of ≤ is implicit).
    incidence: Vec<(usize, usize)>,
}

impl Grid {
    /// Create a grid from per-cell dimensions and strict incidence pairs
    /// `(x, y)` meaning `x ≤ y` with `dim(x) < dim(y)`.
    pub(crate) fn new(dims: Vec<u8>, incidence: Vec<(usize, usize)>) -> crate::Result<Self> {
        let n = dims.len();
        for &(x, y) in &incidence {
            if x >= n || y >= n {
                return Err(HarmonizeError::grid(format!(
                    "incidence pair ({x}, {y}) references a missing cell (grid has {n})"
                )));
            }
            if dims[x] >= dims[y] {
                return Err(HarmonizeError::grid(format!(
                    "incidence requires dim(x) < dim(y); got dim({x}) = {} ≥ dim({y}) = {}",
                    dims[x], dims[y]
                )));
            }
        }
        Ok(Grid { dims, incidence })
    }

    /// A structured 2-D grid of `nx × ny` square faces with their edges and
    /// nodes and full incidence — the typical CORIE-style mesh, here
    /// regular for testability (the algebra itself never assumes
    /// regularity).
    pub fn structured_2d(nx: usize, ny: usize) -> crate::Result<(Grid, Grid2dIndex)> {
        if nx == 0 || ny == 0 {
            return Err(HarmonizeError::grid("structured grid needs nx, ny >= 1"));
        }
        let n_nodes = (nx + 1) * (ny + 1);
        let n_hedges = nx * (ny + 1); // horizontal edges
        let n_vedges = (nx + 1) * ny; // vertical edges
        let n_faces = nx * ny;
        let node = |i: usize, j: usize| j * (nx + 1) + i;
        let hedge = |i: usize, j: usize| n_nodes + j * nx + i;
        let vedge = |i: usize, j: usize| n_nodes + n_hedges + j * (nx + 1) + i;
        let face = |i: usize, j: usize| n_nodes + n_hedges + n_vedges + j * nx + i;

        let total = n_nodes + n_hedges + n_vedges + n_faces;
        let mut dims = vec![0u8; total];
        for d in dims
            .iter_mut()
            .take(n_nodes + n_hedges + n_vedges)
            .skip(n_nodes)
        {
            *d = 1;
        }
        for d in dims.iter_mut().skip(n_nodes + n_hedges + n_vedges) {
            *d = 2;
        }

        let mut inc = Vec::new();
        // Node ≤ horizontal edge.
        for j in 0..=ny {
            for i in 0..nx {
                inc.push((node(i, j), hedge(i, j)));
                inc.push((node(i + 1, j), hedge(i, j)));
            }
        }
        // Node ≤ vertical edge.
        for j in 0..ny {
            for i in 0..=nx {
                inc.push((node(i, j), vedge(i, j)));
                inc.push((node(i, j + 1), vedge(i, j)));
            }
        }
        // Edge ≤ face (and node ≤ face through corners).
        for j in 0..ny {
            for i in 0..nx {
                let f = face(i, j);
                inc.push((hedge(i, j), f));
                inc.push((hedge(i, j + 1), f));
                inc.push((vedge(i, j), f));
                inc.push((vedge(i + 1, j), f));
                inc.push((node(i, j), f));
                inc.push((node(i + 1, j), f));
                inc.push((node(i, j + 1), f));
                inc.push((node(i + 1, j + 1), f));
            }
        }
        let grid = Grid::new(dims, inc)?;
        Ok((
            grid,
            Grid2dIndex {
                nx,
                ny,
                face_base: n_nodes + n_hedges + n_vedges,
            },
        ))
    }

    /// Ids of all cells of dimension `d`, in id order.
    pub fn cells_of_dim(&self, d: u8) -> Vec<usize> {
        (0..self.dims.len())
            .filter(|&c| self.dims[c] == d)
            .collect()
    }

    /// The incidence relation `x ≤ y` (reflexive, plus recorded pairs).
    #[cfg(test)]
    fn leq(&self, x: usize, y: usize) -> bool {
        x == y || self.incidence.contains(&(x, y))
    }

    /// Cells incident to `cell` (either direction).
    #[cfg(test)]
    fn incident(&self, cell: usize) -> Vec<usize> {
        self.incidence
            .iter()
            .filter_map(|&(x, y)| (x == cell).then_some(y).or((y == cell).then_some(x)))
            .collect()
    }
}

/// Index helper for [`Grid::structured_2d`]: locate face ids by (i, j).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid2dIndex {
    /// Faces per row.
    pub nx: usize,
    /// Face rows.
    pub ny: usize,
    /// Id of face (0, 0).
    pub face_base: usize,
}

impl Grid2dIndex {
    /// Cell id of face `(i, j)`.
    pub fn face(&self, i: usize, j: usize) -> usize {
        self.face_base + j * self.nx + i
    }

    /// Inverse of [`Grid2dIndex::face`].
    pub fn face_coords(&self, cell: usize) -> (usize, usize) {
        let k = cell - self.face_base;
        (k % self.nx, k / self.nx)
    }
}

/// A gridfield: data bound to the cells of one dimension of a grid.
/// Restricted-away cells hold `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct GridField {
    grid: Arc<Grid>,
    dim: u8,
    /// `data[k]` is the value bound to the k-th cell of `grid.cells_of_dim(dim)`.
    data: Vec<Option<f64>>,
    cells: Vec<usize>,
    cell_pos: HashMap<usize, usize>,
}

impl GridField {
    /// Bind data to all cells of dimension `dim`, in cell-id order.
    pub fn bind(grid: Arc<Grid>, dim: u8, values: Vec<f64>) -> crate::Result<Self> {
        let cells = grid.cells_of_dim(dim);
        if values.len() != cells.len() {
            return Err(HarmonizeError::grid(format!(
                "{} values for {} cells of dimension {dim}",
                values.len(),
                cells.len()
            )));
        }
        let cell_pos = cells.iter().enumerate().map(|(k, &c)| (c, k)).collect();
        Ok(GridField {
            grid,
            dim,
            data: values.into_iter().map(Some).collect(),
            cells,
            cell_pos,
        })
    }

    /// Value bound to `cell` (None if restricted away or not of this
    /// dimension).
    #[cfg(test)]
    fn value(&self, cell: usize) -> Option<f64> {
        self.cell_pos.get(&cell).and_then(|&k| self.data[k])
    }

    /// Number of cells carrying data.
    #[cfg(test)]
    fn active_len(&self) -> usize {
        self.data.iter().filter(|v| v.is_some()).count()
    }

    /// Restriction by cell id (relational selection on the *cell*): keep
    /// data only on cells satisfying the predicate. This is the restriction
    /// class that commutes with regrid.
    fn restrict_cells(&self, keep: impl Fn(usize) -> bool) -> GridField {
        let mut out = self.clone();
        for (k, &c) in out.cells.clone().iter().enumerate() {
            if !keep(c) {
                out.data[k] = None;
            }
        }
        out
    }
}

/// Aggregation functions for regrid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegridAgg {
    /// Sum of mapped values.
    Sum,
    /// Mean of mapped values.
    Mean,
    /// Maximum of mapped values.
    Max,
    /// Count of mapped values.
    Count,
}

/// A regrid operator: a many-to-one assignment from source cells to target
/// cells, plus an aggregation function.
#[derive(Debug, Clone)]
pub struct Regrid {
    /// `assignment[k]` maps the k-th source cell (of the source dimension,
    /// in cell-id order) to a target cell id, or `None` to drop it.
    pub assignment: Vec<Option<usize>>,
    /// How mapped values combine.
    pub agg: RegridAgg,
}

/// Statistics from a regrid execution, for the rewrite's cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegridCost {
    /// Source values accumulated into target bins.
    pub accumulate_ops: u64,
}

/// Execute `regrid`: map each active source value to its target cell and
/// aggregate. Target cells receiving no values hold `None`.
fn regrid(
    source: &GridField,
    target_grid: &Arc<Grid>,
    target_dim: u8,
    op: &Regrid,
) -> crate::Result<(GridField, RegridCost)> {
    if op.assignment.len() != source.cells.len() {
        return Err(HarmonizeError::grid(format!(
            "assignment covers {} cells but source has {}",
            op.assignment.len(),
            source.cells.len()
        )));
    }
    let target_cells = target_grid.cells_of_dim(target_dim);
    let pos: HashMap<usize, usize> = target_cells
        .iter()
        .enumerate()
        .map(|(k, &c)| (c, k))
        .collect();
    let mut acc: Vec<Option<(f64, u64)>> = vec![None; target_cells.len()];
    let mut cost = RegridCost::default();
    for (k, v) in source.data.iter().enumerate() {
        let (Some(v), Some(t)) = (v, op.assignment[k]) else {
            continue;
        };
        let Some(&tk) = pos.get(&t) else {
            return Err(HarmonizeError::grid(format!(
                "assignment maps to cell {t}, which is not a dim-{target_dim} cell of the target grid"
            )));
        };
        cost.accumulate_ops += 1;
        let slot = &mut acc[tk];
        match slot {
            None => *slot = Some((*v, 1)),
            Some((a, n)) => {
                match op.agg {
                    RegridAgg::Sum | RegridAgg::Mean | RegridAgg::Count => *a += *v,
                    RegridAgg::Max => *a = a.max(*v),
                }
                *n += 1;
            }
        }
    }
    let cell_pos: HashMap<usize, usize> = pos;
    let data: Vec<Option<f64>> = acc
        .into_iter()
        .map(|slot| {
            slot.map(|(a, n)| match op.agg {
                RegridAgg::Sum | RegridAgg::Max => a,
                RegridAgg::Mean => a / n as f64,
                RegridAgg::Count => n as f64,
            })
        })
        .collect();
    Ok((
        GridField {
            grid: Arc::clone(target_grid),
            dim: target_dim,
            data,
            cells: target_cells,
            cell_pos,
        },
        cost,
    ))
}

/// The naive pipeline: regrid everything, then restrict the target.
pub fn regrid_then_restrict(
    source: &GridField,
    target_grid: &Arc<Grid>,
    target_dim: u8,
    op: &Regrid,
    keep_target: impl Fn(usize) -> bool,
) -> crate::Result<(GridField, RegridCost)> {
    let (gf, cost) = regrid(source, target_grid, target_dim, op)?;
    Ok((gf.restrict_cells(keep_target), cost))
}

/// The rewritten pipeline exploiting commutation: restrict the *source* to
/// cells whose target survives, then regrid — aggregating only values that
/// will be kept. Produces the identical gridfield at lower accumulate cost
/// whenever the restriction is selective.
pub fn restrict_then_regrid(
    source: &GridField,
    target_grid: &Arc<Grid>,
    target_dim: u8,
    op: &Regrid,
    keep_target: impl Fn(usize) -> bool,
) -> crate::Result<(GridField, RegridCost)> {
    // Push the target-cell predicate through the assignment.
    let keep_source: Vec<bool> = op
        .assignment
        .iter()
        .map(|t| t.map(&keep_target).unwrap_or(false))
        .collect();
    let restricted = {
        let mut out = source.clone();
        for (k, keep) in keep_source.iter().enumerate() {
            if !keep {
                out.data[k] = None;
            }
        }
        out
    };
    regrid(&restricted, target_grid, target_dim, op)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fine_and_coarse() -> (Arc<Grid>, Grid2dIndex, Arc<Grid>, Grid2dIndex) {
        let (fine, fidx) = Grid::structured_2d(4, 4).unwrap();
        let (coarse, cidx) = Grid::structured_2d(2, 2).unwrap();
        (Arc::new(fine), fidx, Arc::new(coarse), cidx)
    }

    /// Assignment: fine face (i,j) -> coarse face (i/2, j/2).
    fn coarsen_assignment(
        fine: &Arc<Grid>,
        fidx: &Grid2dIndex,
        cidx: &Grid2dIndex,
        agg: RegridAgg,
    ) -> Regrid {
        let faces = fine.cells_of_dim(2);
        let assignment = faces
            .iter()
            .map(|&c| {
                let (i, j) = fidx.face_coords(c);
                Some(cidx.face(i / 2, j / 2))
            })
            .collect();
        Regrid { assignment, agg }
    }

    #[test]
    fn structured_grid_counts_and_incidence() {
        let (g, idx) = Grid::structured_2d(2, 2).unwrap();
        assert_eq!(g.cells_of_dim(0).len(), 9);
        assert_eq!(g.cells_of_dim(1).len(), 12);
        assert_eq!(g.cells_of_dim(2).len(), 4);
        // A corner node is ≤ its face.
        let f = idx.face(0, 0);
        assert!(g.leq(0, f));
        assert!(g.leq(f, f), "≤ is reflexive");
        assert!(!g.leq(f, 0), "≤ is antisymmetric across dims");
        // Each face touches 4 edges + 4 nodes.
        assert_eq!(g.incident(f).len(), 8);
    }

    #[test]
    fn grid_validation() {
        assert!(Grid::new(vec![0, 1], vec![(0, 5)]).is_err());
        assert!(Grid::new(vec![1, 0], vec![(0, 1)]).is_err()); // dim order
        assert!(Grid::new(vec![0, 1], vec![(0, 1)]).is_ok());
        assert!(Grid::structured_2d(0, 2).is_err());
    }

    #[test]
    fn bind_validates_length() {
        let (g, _) = Grid::structured_2d(2, 2).unwrap();
        let g = Arc::new(g);
        assert!(GridField::bind(Arc::clone(&g), 2, vec![1.0; 3]).is_err());
        assert!(GridField::bind(g, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn regrid_sum_coarsens_correctly() {
        let (fine, fidx, coarse, cidx) = fine_and_coarse();
        // Value of fine face (i,j) = 10*j + i.
        let faces = fine.cells_of_dim(2);
        let values: Vec<f64> = faces
            .iter()
            .map(|&c| {
                let (i, j) = fidx.face_coords(c);
                (10 * j + i) as f64
            })
            .collect();
        let gf = GridField::bind(Arc::clone(&fine), 2, values).unwrap();
        let op = coarsen_assignment(&fine, &fidx, &cidx, RegridAgg::Sum);
        let (out, cost) = regrid(&gf, &coarse, 2, &op).unwrap();
        // Coarse face (0,0) aggregates fine faces (0,0),(1,0),(0,1),(1,1):
        // 0 + 1 + 10 + 11 = 22.
        assert_eq!(out.value(cidx.face(0, 0)), Some(22.0));
        // Coarse face (1,1): fine (2,2),(3,2),(2,3),(3,3) = 22+23+32+33 = 110.
        assert_eq!(out.value(cidx.face(1, 1)), Some(110.0));
        assert_eq!(cost.accumulate_ops, 16);
    }

    #[test]
    fn regrid_mean_max_count() {
        let (fine, fidx, coarse, cidx) = fine_and_coarse();
        let faces = fine.cells_of_dim(2);
        let values: Vec<f64> = faces
            .iter()
            .map(|&c| {
                let (i, j) = fidx.face_coords(c);
                (10 * j + i) as f64
            })
            .collect();
        let gf = GridField::bind(Arc::clone(&fine), 2, values).unwrap();
        for (agg, expected00) in [
            (RegridAgg::Mean, 5.5),
            (RegridAgg::Max, 11.0),
            (RegridAgg::Count, 4.0),
        ] {
            let op = coarsen_assignment(&fine, &fidx, &cidx, agg);
            let (out, _) = regrid(&gf, &coarse, 2, &op).unwrap();
            assert_eq!(out.value(cidx.face(0, 0)), Some(expected00), "{agg:?}");
        }
    }

    #[test]
    fn restriction_commutes_with_regrid_and_is_cheaper() {
        let (fine, fidx, coarse, cidx) = fine_and_coarse();
        let faces = fine.cells_of_dim(2);
        let values: Vec<f64> = faces.iter().map(|&c| c as f64).collect();
        let gf = GridField::bind(Arc::clone(&fine), 2, values).unwrap();
        let op = coarsen_assignment(&fine, &fidx, &cidx, RegridAgg::Sum);
        // Keep only coarse face (0,0).
        let keep = |c: usize| c == cidx.face(0, 0);

        let (naive, naive_cost) = regrid_then_restrict(&gf, &coarse, 2, &op, keep).unwrap();
        let (rewritten, rewritten_cost) = restrict_then_regrid(&gf, &coarse, 2, &op, keep).unwrap();

        // Identical results (the commutation).
        assert_eq!(naive, rewritten);
        // 1/4 of the aggregation work (the optimization).
        assert_eq!(naive_cost.accumulate_ops, 16);
        assert_eq!(rewritten_cost.accumulate_ops, 4);
    }

    #[test]
    fn regrid_rejects_bad_assignments() {
        let (fine, fidx, coarse, cidx) = fine_and_coarse();
        let faces = fine.cells_of_dim(2);
        let gf = GridField::bind(Arc::clone(&fine), 2, vec![1.0; faces.len()]).unwrap();
        // Wrong assignment length.
        let op = Regrid {
            assignment: vec![Some(cidx.face(0, 0)); 3],
            agg: RegridAgg::Sum,
        };
        assert!(regrid(&gf, &coarse, 2, &op).is_err());
        // Assignment to a non-face cell.
        let mut op = coarsen_assignment(&fine, &fidx, &cidx, RegridAgg::Sum);
        op.assignment[0] = Some(0); // node 0
        assert!(regrid(&gf, &coarse, 2, &op).is_err());
    }

    #[test]
    fn dropped_source_cells_and_empty_targets() {
        let (fine, fidx, coarse, cidx) = fine_and_coarse();
        let faces = fine.cells_of_dim(2);
        let gf = GridField::bind(Arc::clone(&fine), 2, vec![1.0; faces.len()]).unwrap();
        let mut op = coarsen_assignment(&fine, &fidx, &cidx, RegridAgg::Sum);
        // Drop everything mapping to coarse (0,0).
        for (k, t) in op.assignment.iter_mut().enumerate() {
            let (i, j) = fidx.face_coords(faces[k]);
            if i < 2 && j < 2 {
                *t = None;
            }
        }
        let (out, cost) = regrid(&gf, &coarse, 2, &op).unwrap();
        assert_eq!(out.value(cidx.face(0, 0)), None);
        assert_eq!(out.value(cidx.face(1, 0)), Some(4.0));
        assert_eq!(cost.accumulate_ops, 12);
        assert_eq!(out.active_len(), 3);
    }
}

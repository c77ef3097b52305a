//! E6 — §2.2: the gridfield restrict/regrid commutation rewrite.
//!
//! On a CORIE-scale structured mesh, pushing a target-region restriction
//! below the regrid aggregates only the cells that survive — identical
//! results, a fraction of the work.

use mde_harmonize::gridfield::{
    regrid_then_restrict, restrict_then_regrid, Grid, GridField, Regrid, RegridAgg,
};
use std::sync::Arc;
use std::time::Instant;

/// Regenerate the rewrite cost/equivalence table.
pub(crate) fn gridfield_rewrite_report() -> String {
    let mut out = String::new();
    out.push_str("E6 | §2.2: gridfield algebra — restrict/regrid commutation (Howe & Maier)\n");
    out.push_str("fine mesh -> coarse mesh regrid (Sum), then keep only a query region\n\n");

    let mut rows = Vec::new();
    for &(n, selectivity) in &[(64usize, 0.25f64), (128, 0.25), (128, 0.05), (256, 0.05)] {
        let (fine, fidx) = Grid::structured_2d(n, n).expect("mesh");
        let (coarse, cidx) = Grid::structured_2d(n / 4, n / 4).expect("mesh");
        let fine = Arc::new(fine);
        let coarse = Arc::new(coarse);
        let faces = fine.cells_of_dim(2);
        let gf = GridField::bind(
            Arc::clone(&fine),
            2,
            faces.iter().map(|&c| (c % 97) as f64).collect(),
        )
        .expect("bind");
        let op = Regrid {
            assignment: faces
                .iter()
                .map(|&c| {
                    let (i, j) = fidx.face_coords(c);
                    Some(cidx.face(i / 4, j / 4))
                })
                .collect(),
            agg: RegridAgg::Sum,
        };
        // Query region: the lower-left `selectivity` fraction of coarse rows.
        let keep_rows = ((n / 4) as f64 * selectivity).ceil() as usize;
        let keep = |c: usize| cidx.face_coords(c).1 < keep_rows;

        let t0 = Instant::now();
        let (naive, naive_cost) = regrid_then_restrict(&gf, &coarse, 2, &op, keep).expect("naive");
        let naive_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let (rewritten, rewritten_cost) =
            restrict_then_regrid(&gf, &coarse, 2, &op, keep).expect("rewrite");
        let rewrite_ms = t1.elapsed().as_secs_f64() * 1e3;
        assert_eq!(naive, rewritten, "rewrite changed the answer");

        rows.push(vec![
            format!("{n}x{n} -> {}x{}", n / 4, n / 4),
            format!("{selectivity:.2}"),
            naive_cost.accumulate_ops.to_string(),
            rewritten_cost.accumulate_ops.to_string(),
            format!(
                "{:.1}x",
                naive_cost.accumulate_ops as f64 / rewritten_cost.accumulate_ops.max(1) as f64
            ),
            format!("{naive_ms:.2} / {rewrite_ms:.2}"),
        ]);
    }
    out.push_str(&crate::render_table(
        &[
            "mesh",
            "selectivity",
            "naive agg ops",
            "rewritten agg ops",
            "op reduction",
            "ms naive/rewritten",
        ],
        &rows,
    ));
    out.push_str(
        "\nEquality asserted on every row: the rewrite is an identity (the commutation the\n\
         paper highlights); op reduction ~ 1/selectivity (the optimization opportunity).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_shows_op_reduction() {
        let r = gridfield_rewrite_report();
        assert!(r.contains("op reduction"));
        // The 5%-selectivity rows must show a large reduction.
        assert!(r.contains("x"), "{r}");
    }
}

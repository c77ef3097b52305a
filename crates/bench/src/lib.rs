//! Experiment harness for the PODS 2014 reproduction.
//!
//! Every figure, algorithm, and quantitative claim of the paper has a
//! regeneration function in [`experiments`] that produces a printable
//! report; the one binary, `run_all_experiments`, executes the full battery
//! (the source of the numbers recorded in EXPERIMENTS.md) or, given ids
//! (`run_all_experiments E3 E9`), the named experiments.
//!
//! See DESIGN.md §4 for the experiment ↔ paper-artifact index.

#![forbid(unsafe_code)]

pub mod experiments;

/// Render a simple aligned table: header plus rows of equal arity.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(out.len() - 1));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Format a float compactly for report tables.
pub fn f(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 || v.abs() < 0.01 {
        format!("{v:.3e}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["bbbb".into(), "22".into()],
            ],
        );
        assert!(t.contains("name"));
        assert_eq!(t.lines().count(), 4);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(1.5), "1.500");
        assert!(f(12345.0).contains('e'));
        assert!(f(0.0001).contains('e'));
    }
}

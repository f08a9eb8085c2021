//! Shared table-rendering helpers for the figure-regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one figure (or headline number)
//! of the paper; the Paper → code table of `ARCHITECTURE.md` maps each
//! figure to its binary and to the test that pins it. The [`json`] module
//! backs the machine-readable reports written by the `perf_report`
//! binary.

pub mod json;
pub mod yields;

/// Renders a simple aligned table: a header row plus data rows.
///
/// # Examples
///
/// ```
/// let t = memcim_bench::table(
///     &["tech", "delay"],
///     &[vec!["RRAM".into(), "104 ps".into()]],
/// );
/// assert!(t.contains("RRAM"));
/// ```
pub fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render = |cells: &[String], widths: &[usize], out: &mut String| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(cell);
            for _ in cell.len()..widths.get(i).copied().unwrap_or(0) {
                out.push(' ');
            }
        }
        out.push('\n');
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    render(&header_cells, &widths, &mut out);
    let rule: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
    out.push_str(&"-".repeat(rule));
    out.push('\n');
    for row in rows {
        render(row, &widths, &mut out);
    }
    out
}

/// Formats a float with the given precision (helper for table cells).
pub fn fmt(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["a", "bbbb"],
            &[vec!["xxx".into(), "y".into()], vec!["z".into(), "wwwww".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a    bbbb"));
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    fn fmt_controls_precision() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt(10.0, 0), "10");
    }
}

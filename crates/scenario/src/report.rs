//! Plain-text table rendering for experiment output.
//!
//! `powerburst experiment` prints the same rows/series the paper's figures
//! and tables report; these helpers keep the formatting consistent.

use powerburst_sim::Summary;

/// A simple left-aligned text table.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Table {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Append a row (must match the header count).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                out.push_str(&format!("{:<w$}", c, w = widths[i]));
                if i + 1 < ncols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

/// Format a [`Summary`] the way the paper's error bars read:
/// `mean (min–max)`.
pub fn fmt_summary(s: &Summary) -> String {
    format!("{:5.1} ({:5.1}–{:5.1})", s.mean, s.min, s.max)
}

/// Format a percentage.
pub fn fmt_pct(x: f64) -> String {
    format!("{x:5.1}%")
}

/// Section header for experiment output.
pub fn banner(title: &str) -> String {
    let bar = "=".repeat(title.len().max(8) + 4);
    format!("{bar}\n  {title}\n{bar}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(vec!["a", "column"]);
        t.row(vec!["longer-cell", "x"]);
        t.row(vec!["s", "y"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        // All data lines have the same width alignment for column 2.
        let pos1 = lines[2].find('x').unwrap();
        let pos2 = lines[3].find('y').unwrap();
        assert_eq!(pos1, pos2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn summary_format() {
        let s = Summary::from_iter([50.0, 60.0, 70.0]);
        let f = fmt_summary(&s);
        assert!(f.contains("60.0"));
        assert!(f.contains("50.0"));
        assert!(f.contains("70.0"));
    }

    #[test]
    fn banner_contains_title() {
        assert!(banner("Figure 4").contains("Figure 4"));
    }
}

//! Plain-text table rendering for experiment reports.

/// A simple right-aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; its arity must match the header.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("== {} ==\n", self.title));
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a small probability the way the paper's Table 1 does
/// (`3268.59e-6`-style scientific with sensible precision).
pub fn sci(x: f64) -> String {
    if x == 0.0 {
        return "0".into();
    }
    if x.abs() >= 1e-3 {
        format!("{x:.6}")
    } else {
        format!("{x:.4e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("demo", &["n", "value"]);
        t.row(&["9".into(), "3268.59e-6".into()]);
        t.row(&["12".into(), "1e-10".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("n"));
        assert_eq!(s.lines().count(), 5);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["1".into()]);
    }

    #[test]
    fn sci_formatting() {
        assert_eq!(sci(0.0), "0");
        assert!(sci(3268.59e-6).contains("0.003269"));
        assert!(sci(1.8e-7).contains('e'));
    }
}

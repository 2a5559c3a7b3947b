//! Benchmark harness regenerating every figure of the S2 paper's
//! evaluation (§5) at laptop scale.
//!
//! The paper's testbed is five 64-core/500 GB servers split into 100 GB
//! "logical servers", with FatTrees up to k=90 (10125 switches). This
//! harness sweeps k=4..12 and models the logical server's heap with the
//! verifiers' built-in memory gauges (see DESIGN.md, substitutions 6–7).
//! Absolute numbers therefore differ from the paper; what must (and does)
//! hold is the *shape* of every figure: who wins, by what factor, and
//! where the crossovers fall. `cargo run -p bench --bin repro --release`
//! prints every table; `cargo bench` runs Criterion timings of the same
//! configurations.

pub mod figs;
pub mod workloads;

/// A printable result table (one per paper figure).
#[derive(Debug, Clone)]
pub struct Table {
    /// Figure id and caption.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Rows of rendered cells.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (calibration constants, verdict legend, ...).
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, header: Vec<&str>) -> Self {
        Table {
            title: title.into(),
            header: header.into_iter().map(str::to_string).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Appends a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }
}

/// Pretty-prints a byte count.
pub fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 20 {
        format!("{:.1}MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b}B")
    }
}

/// Pretty-prints a duration in ms.
pub fn fmt_ms(d: std::time::Duration) -> String {
    format!("{:.1}ms", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Fig X", vec!["a", "bbbb"]);
        t.push(vec!["xx".into(), "y".into()]);
        t.note("hello");
        let s = t.render();
        assert!(s.contains("Fig X"));
        assert!(s.contains("xx"));
        assert!(s.contains("note: hello"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new("t", vec!["a"]);
        t.push(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0MiB");
    }
}

//! Plain-text tables and JSON result records for the experiment campaigns.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A fixed-column text table, printed in the style of the paper's tables.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "column mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n=== {} ===", self.title);
        let line = |out: &mut String| {
            let total: usize = widths.iter().map(|w| w + 3).sum::<usize>() + 1;
            let _ = writeln!(out, "{}", "-".repeat(total));
        };
        line(&mut out);
        let _ = write!(out, "|");
        for (h, w) in self.headers.iter().zip(&widths) {
            let _ = write!(out, " {h:<w$} |");
        }
        let _ = writeln!(out);
        line(&mut out);
        for row in &self.rows {
            let _ = write!(out, "|");
            for (c, w) in row.iter().zip(&widths) {
                let _ = write!(out, " {c:<w$} |");
            }
            let _ = writeln!(out);
        }
        line(&mut out);
        out
    }
}

/// Renders a record exactly as [`write_json`] writes it to disk: pretty
/// JSON, no trailing newline.
pub fn render_json(value: &serde_json::Value) -> io::Result<String> {
    serde_json::to_string_pretty(value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Writes a campaign's machine-readable record to `<dir>/<name>.json`,
/// creating `dir` as needed, and returns the path written. A record that
/// cannot be written is an error, never a note: a stale committed record
/// must not survive a run that claims to have regenerated it.
pub fn write_json(dir: &Path, name: &str, value: &serde_json::Value) -> io::Result<PathBuf> {
    let text = render_json(value)?;
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, text)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("=== Demo ==="));
        assert!(s.contains("| long-name | 2"));
        assert!(s.contains("| a         | 1"));
    }

    #[test]
    fn write_json_round_trips_and_fails_loudly() {
        let dir = std::env::temp_dir().join(format!("anvil-bench-records-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let record = serde_json::json!({ "experiment": "demo", "rows": [1, 2] });
        let path = write_json(&dir, "demo", &record).expect("writable directory");
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            render_json(&record).unwrap()
        );

        // `<dir>/<name>.json` cannot be created when a directory already
        // sits at that path: the error must reach the caller.
        fs::create_dir_all(dir.join("blocked.json")).unwrap();
        assert!(write_json(&dir, "blocked", &record).is_err());
        // Nor when the results directory itself is a plain file.
        assert!(write_json(&path, "nested", &record).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "column mismatch")]
    fn row_width_checked() {
        Table::new("t", &["a", "b"]).row(&["only-one".into()]);
    }
}

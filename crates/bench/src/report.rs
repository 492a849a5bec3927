//! Experiment reports: tabular results serializable to JSON and markdown.

use p3c_dataset::json::{self, ToJson, Writer};
use std::io::Write as _;
use std::path::Path;

/// One tabular experiment result.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id, e.g. `"fig5"`.
    pub id: String,
    /// Human title, e.g. `"Effect of redundancy filtering"`.
    pub title: String,
    /// Column names.
    pub columns: Vec<String>,
    /// Rows; cells are strings (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (scale caveats, parameter choices).
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row (must match the column count).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row/column arity mismatch");
        self.rows.push(cells);
    }

    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Renders a GitHub-flavored markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("## {} — {}\n\n", self.id, self.title));
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!(
            "|{}|\n",
            self.columns
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        if !self.notes.is_empty() {
            out.push('\n');
            for note in &self.notes {
                out.push_str(&format!("> {note}\n"));
            }
        }
        out
    }

    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        json::render(self)
    }

    /// Writes `<dir>/<id>.json` and `<dir>/<id>.md`.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::File::create(dir.join(format!("{}.json", self.id)))?
            .write_all(self.to_json().as_bytes())?;
        std::fs::File::create(dir.join(format!("{}.md", self.id)))?
            .write_all(self.to_markdown().as_bytes())?;
        Ok(())
    }
}

impl ToJson for Report {
    fn write_json(&self, w: &mut Writer) {
        w.object(&[
            ("id", &self.id),
            ("title", &self.title),
            ("columns", &self.columns),
            ("rows", &self.rows),
            ("notes", &self.notes),
        ]);
    }
}

/// Formats a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a duration in seconds with 2 decimals.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering() {
        let mut r = Report::new("figX", "Test figure", &["a", "b"]);
        r.push_row(vec!["1".into(), "2".into()]);
        r.push_note("scaled down");
        let md = r.to_markdown();
        assert!(md.contains("## figX — Test figure"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
        assert!(md.contains("> scaled down"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut r = Report::new("x", "t", &["a", "b"]);
        r.push_row(vec!["1".into()]);
    }

    #[test]
    fn json_rendering() {
        let mut r = Report::new("id", "a \"title\"\n", &["c", "d"]);
        r.push_row(vec!["v\\1".into(), "2".into()]);
        assert_eq!(
            r.to_json(),
            r#"{
  "id": "id",
  "title": "a \"title\"\n",
  "columns": [
    "c",
    "d"
  ],
  "rows": [
    [
      "v\\1",
      "2"
    ]
  ],
  "notes": []
}"#
        );
    }

    #[test]
    fn write_files() {
        let dir = std::env::temp_dir().join("p3c-report-test");
        let _ = std::fs::remove_dir_all(&dir);
        let r = Report::new("t1", "x", &["a"]);
        r.write_to(&dir).unwrap();
        assert!(dir.join("t1.json").exists());
        assert!(dir.join("t1.md").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! The one JSON writer: what `p3c cluster -o json`, `--metrics-json` and
//! the bench reports under `results/` are rendered with.
//!
//! A writer only. Nothing in the workspace parses JSON — every format
//! the programs read back is a byte format of [`crate::bytes`] — so
//! there is no reader to keep in step with it.
//!
//! Output is pretty-printed the way `results/*.json` always were: two
//! spaces per level, one element per line, `[]` / `{}` for empty
//! containers, no trailing newline. A type renders itself by
//! implementing [`ToJson`], usually as one [`Writer::object`] call
//! listing its fields.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::Duration;

/// Renders `value` as a JSON document.
pub fn render(value: &dyn ToJson) -> String {
    let mut w = Writer::default();
    value.write_json(&mut w);
    w.out
}

/// A value that can write itself as JSON.
pub trait ToJson {
    /// Writes `self` at the writer's current position.
    fn write_json(&self, w: &mut Writer);
}

/// The document under construction; see [`render`].
#[derive(Default)]
pub struct Writer {
    out: String,
    depth: usize,
}

impl Writer {
    /// Writes an object with the given fields, in the given order.
    pub fn object(&mut self, fields: &[(&str, &dyn ToJson)]) {
        self.container('{', '}', fields.iter(), |w, (key, value)| {
            w.string(key);
            w.out.push_str(": ");
            value.write_json(w);
        });
    }

    /// Writes an array of the items, in iteration order.
    pub fn array<'a, T: ToJson + 'a>(&mut self, items: impl IntoIterator<Item = &'a T>) {
        self.container('[', ']', items.into_iter(), |w, item| item.write_json(w));
    }

    /// Writes a string, quoted and escaped.
    pub fn string(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => self.push_fmt(format_args!("\\u{:04x}", c as u32)),
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    /// Appends formatted text in place (a `String` sink cannot fail).
    fn push_fmt(&mut self, args: std::fmt::Arguments<'_>) {
        let _ = self.out.write_fmt(args);
    }

    fn container<I: Iterator>(
        &mut self,
        open: char,
        close: char,
        items: I,
        mut write: impl FnMut(&mut Self, I::Item),
    ) {
        self.out.push(open);
        self.depth += 1;
        let mut any = false;
        for item in items {
            if any {
                self.out.push(',');
            }
            any = true;
            self.newline();
            write(self, item);
        }
        self.depth -= 1;
        if any {
            self.newline();
        }
        self.out.push(close);
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut Writer) {
        w.string(self);
    }
}

impl ToJson for &str {
    fn write_json(&self, w: &mut Writer) {
        w.string(self);
    }
}

impl ToJson for u64 {
    fn write_json(&self, w: &mut Writer) {
        w.push_fmt(format_args!("{self}"));
    }
}

impl ToJson for usize {
    fn write_json(&self, w: &mut Writer) {
        w.push_fmt(format_args!("{self}"));
    }
}

/// Shortest digits that read back to the same `f64`, always with a
/// fraction or exponent (`1.0`, `1e-7`); JSON has no NaN or infinity, so
/// a non-finite value is `null`.
impl ToJson for f64 {
    fn write_json(&self, w: &mut Writer) {
        if self.is_finite() {
            w.push_fmt(format_args!("{self:?}"));
        } else {
            w.out.push_str("null");
        }
    }
}

/// A duration is its length in seconds.
impl ToJson for Duration {
    fn write_json(&self, w: &mut Writer) {
        self.as_secs_f64().write_json(w);
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut Writer) {
        w.array(self);
    }
}

impl<T: ToJson> ToJson for &[T] {
    fn write_json(&self, w: &mut Writer) {
        w.array(*self);
    }
}

impl<T: ToJson> ToJson for BTreeSet<T> {
    fn write_json(&self, w: &mut Writer) {
        w.array(self);
    }
}

/// A string-keyed map is an object in key order.
impl<T: ToJson> ToJson for BTreeMap<String, T> {
    fn write_json(&self, w: &mut Writer) {
        let fields: Vec<(&str, &dyn ToJson)> = self
            .iter()
            .map(|(k, v)| (k.as_str(), v as &dyn ToJson))
            .collect();
        w.object(&fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sample {
        name: String,
        sizes: Vec<usize>,
        wall: Duration,
        counters: BTreeMap<String, u64>,
    }

    impl ToJson for Sample {
        fn write_json(&self, w: &mut Writer) {
            w.object(&[
                ("name", &self.name),
                ("sizes", &self.sizes),
                ("wall", &self.wall),
                ("counters", &self.counters),
            ]);
        }
    }

    #[test]
    fn nested_document_is_pretty_printed() {
        let sample = Sample {
            name: "a \"quoted\"\\\tname\n\u{1}".to_string(),
            sizes: vec![3, 0],
            wall: Duration::from_millis(1500),
            counters: BTreeMap::from([("z".to_string(), 1), ("a".to_string(), u64::MAX)]),
        };
        assert_eq!(
            render(&sample),
            r#"{
  "name": "a \"quoted\"\\\tname\n\u0001",
  "sizes": [
    3,
    0
  ],
  "wall": 1.5,
  "counters": {
    "a": 18446744073709551615,
    "z": 1
  }
}"#
        );
    }

    #[test]
    fn empty_containers_stay_on_one_line() {
        let sample = Sample {
            name: String::new(),
            sizes: Vec::new(),
            wall: Duration::ZERO,
            counters: BTreeMap::new(),
        };
        assert_eq!(
            render(&sample),
            "{\n  \"name\": \"\",\n  \"sizes\": [],\n  \"wall\": 0.0,\n  \"counters\": {}\n}"
        );
        assert_eq!(render(&Vec::<u64>::new()), "[]");
    }

    #[test]
    fn floats_keep_every_digit_and_never_leave_the_grammar() {
        assert_eq!(render(&0.1), "0.1");
        assert_eq!(render(&1.0), "1.0");
        assert_eq!(render(&-2.5e-7), "-2.5e-7");
        assert_eq!(render(&(1.0 / 3.0)), "0.3333333333333333");
        assert_eq!(render(&f64::NAN), "null");
        assert_eq!(render(&f64::INFINITY), "null");
    }
}

//! What an experiment yields and how it is shown: [`Output`] (the record's
//! JSON bytes plus a titled text table), the [`record!`](crate::record)
//! declaration that gives a record type its struct, its JSON keys and its
//! column headers at once, and [`write_record`], the one function that puts
//! a record under `results/`.

use crate::json::{to_string_pretty, ToJson};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Render an aligned text table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            let w = widths[i];
            if i == 0 {
                let _ = write!(out, "{cell:<w$}");
            } else {
                let _ = write!(out, "  {cell:>w$}");
            }
        }
        out.push('\n');
    };
    line(
        &mut out,
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
    let _ = writeln!(out, "{}", "-".repeat(total));
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Format a float with sensible precision for tables.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Column formatter: a byte count in whole KiB (`240K`).
pub fn kib(bytes: &usize) -> String {
    format!("{}K", bytes >> 10)
}

/// Column formatter: three decimals (ratios, NPB seconds).
pub fn milli(v: &f64) -> String {
    format!("{v:.3}")
}

/// How a record field prints in a table column unless its declaration
/// names a formatter.
pub trait Cell {
    /// The cell text.
    fn cell(&self) -> String;
}

impl Cell for String {
    fn cell(&self) -> String {
        self.clone()
    }
}

impl Cell for usize {
    fn cell(&self) -> String {
        self.to_string()
    }
}

impl Cell for u64 {
    fn cell(&self) -> String {
        self.to_string()
    }
}

impl Cell for f64 {
    fn cell(&self) -> String {
        fmt(*self)
    }
}

/// A record type declared with [`record!`](crate::record): JSON object and
/// table row from the one field list.
pub trait Record: ToJson {
    /// Column headers, one per field that declared one.
    const HEADERS: &'static [&'static str];
    /// This record's table row, one cell per header.
    fn cells(&self) -> Vec<String>;
}

/// Declare a record type once: the struct, its JSON keys (the field names,
/// in order) and its table columns.
///
/// ```
/// viampi_bench::record! {
///     /// One measured point.
///     pub struct Point {
///         /// Message size.
///         size: usize = "bytes",
///         /// Pinned memory, printed in KiB.
///         pinned: usize = "pin" => viampi_bench::report::kib,
///         /// Recorded, but not a column.
///         events: u64,
///     }
/// }
/// use viampi_bench::report::Record;
/// assert_eq!(Point::HEADERS, ["bytes", "pin"]);
/// let p = Point { size: 64, pinned: 4096, events: 7 };
/// assert_eq!(p.cells(), ["64", "4K"]);
/// ```
///
/// `field: Type = "header"` is a key and a column printed through [`Cell`];
/// `=> formatter` (a `fn(&Type) -> String`) overrides how the column
/// prints; a field without a header is a key only.
#[macro_export]
macro_rules! record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $field:ident : $ty:ty $(= $header:literal $(=> $fmt:expr)?)?
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone)]
        $vis struct $name {
            $($(#[$fmeta])* pub $field: $ty,)+
        }
        $crate::impl_json!($name { $($field),+ });
        impl $crate::report::Record for $name {
            const HEADERS: &'static [&'static str] = &[$($($header,)?)+];
            fn cells(&self) -> Vec<String> {
                vec![$($($crate::record!(@cell $header, self.$field $(, $fmt)?),)?)+]
            }
        }
    };
    (@cell $header:literal, $value:expr) => {
        $crate::report::Cell::cell(&$value)
    };
    (@cell $header:literal, $value:expr, $fmt:expr) => {
        $fmt(&$value)
    };
}

/// What computing one experiment yields — a value: producing it touches no
/// file, no global and no environment variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// The record, byte for byte what `results/<name>.json` holds.
    pub json: String,
    /// Title and table for the terminal.
    pub text: String,
}

impl Output {
    /// `records` as the JSON array and, under `title`, as the table their
    /// [`record!`](crate::record) declaration describes.
    pub fn of<R: Record>(title: &str, records: &[R]) -> Output {
        Output::titled(title, R::HEADERS, records)
    }

    /// [`Output::of`] with the column headers named here, for a record type
    /// several sweeps share.
    pub fn titled<R: Record>(title: &str, headers: &[&str], records: &[R]) -> Output {
        Output {
            json: to_string_pretty(records),
            text: format!("{title}\n\n{}", record_table(headers, records)),
        }
    }
}

/// `records` as an aligned table under `headers`.
pub fn record_table<R: Record>(headers: &[&str], records: &[R]) -> String {
    let rows: Vec<Vec<String>> = records.iter().map(Record::cells).collect();
    table(headers, &rows)
}

/// The committed records: `results/` at the workspace root.
pub fn results_dir() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    p
}

/// Write `json` to `dir/<name>.json`, creating `dir` if need be, and return
/// the path. `repro_all` is the only caller that points this at
/// [`results_dir`].
pub fn write_record(dir: &Path, name: &str, json: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, json)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["name", "value"],
            &[
                vec!["a".into(), "1.5".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    fn fmt_precision() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1234.6), "1235");
        assert_eq!(fmt(56.78), "56.8");
        assert_eq!(fmt(4.56789), "4.57");
    }

    record! {
        /// A record with a default column, a formatted one and a bare key.
        struct Probe {
            /// Label.
            name: String = "name",
            /// Bytes.
            pinned: usize = "pin" => kib,
            /// Key only.
            secs: f64,
        }
    }

    #[test]
    fn a_record_is_its_json_keys_and_its_columns() {
        let rows = [Probe {
            name: "x".into(),
            pinned: 8192,
            secs: 0.5,
        }];
        let out = Output::of("Probe — one row", &rows);
        assert_eq!(
            out.json,
            "[\n  {\n    \"name\": \"x\",\n    \"pinned\": 8192,\n    \"secs\": 0.5\n  }\n]"
        );
        assert_eq!(
            out.text,
            "Probe — one row\n\nname  pin\n---------\nx      8K\n"
        );
        let renamed = Output::titled("t", &["who", "mem"], &rows);
        assert!(renamed.text.contains("who  mem"));
        assert_eq!(renamed.json, out.json);
    }

    #[test]
    fn a_failed_record_write_is_an_error_not_a_silent_success() {
        let base = std::env::temp_dir().join(format!("viampi_report_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let written = write_record(&base.join("results"), "probe", "[]").unwrap();
        assert_eq!(std::fs::read_to_string(written).unwrap(), "[]");
        // A results directory whose parent is a regular file cannot exist.
        let file = write_record(&base, "plain_file", "x").unwrap();
        assert!(write_record(&file.join("results"), "probe", "[]").is_err());
        let _ = std::fs::remove_dir_all(&base);
    }
}

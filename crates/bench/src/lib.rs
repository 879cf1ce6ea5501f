//! Shared utilities of the experiment binaries: argument lookup and
//! table rendering.
//!
//! `paper` reproduces the paper's figures and tables as one table of
//! rows, each asserting the paper's claim over the numbers it prints;
//! `autotune`, `serve_trace` and `vm_disasm` are developer tools. None
//! writes a file except the two assert-and-dump tools (`autotune
//! --cache=PATH`, `serve_trace --log=PATH`). Numbers that gate a change
//! come from `perf_ledger/` at the repo root, not from here. Every
//! wall-clock figure is `cora_transformer::mha::time_best_ms` (best of N
//! calls).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Returns true if `--name` appears in the process arguments.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == format!("--{name}"))
}

/// Returns the value of `--name=value` if present.
pub fn opt(name: &str) -> Option<String> {
    let prefix = format!("--{name}=");
    std::env::args()
        .find(|a| a.starts_with(&prefix))
        .map(|a| a[prefix.len()..].to_string())
}

/// Renders an aligned text table.
pub fn print_table(headers: &[impl AsRef<str>], rows: &[Vec<String>]) {
    let headers: Vec<&str> = headers.iter().map(|h| h.as_ref()).collect();
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate().take(ncols) {
            if i > 0 {
                s.push_str("  ");
            }
            s.push_str(&format!("{c:>width$}", width = widths[i]));
        }
        println!("{s}");
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
    println!("{}", "-".repeat(total));
    for row in rows {
        line(row);
    }
}

/// Formats a float with 3 decimal places.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a float with 2 decimal places.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    #[test]
    fn f3_formats() {
        assert_eq!(super::f3(1.23456), "1.235");
        assert_eq!(super::f2(1.235), "1.24");
    }
}

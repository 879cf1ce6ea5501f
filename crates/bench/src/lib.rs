//! Shared utilities for the experiment harnesses: tiny CLI parsing,
//! table rendering, a rep timer, and the matmul experiment builders
//! (Figs. 9/10).
//!
//! The binaries in `src/bin/` print the paper's figures and tables and
//! assert their own correctness gates; none writes a file except the
//! two assert-and-dump tools (`autotune --cache=PATH`, `serve_trace
//! --log=PATH`). Numbers that gate a PR come from `perf_ledger/` at the
//! repo root, not from here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod matmul;

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

/// Parses `--name=value` as a number with a default.
pub fn opt_usize(name: &str, default: usize) -> usize {
    opt(name).and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// The shared `--seed=N` flag of the bench harnesses (default 42).
///
/// A binary that takes it keys its dataset sampling and data
/// initialisation off this value, so two runs with the same seed
/// measure identical work.
pub fn seed() -> u64 {
    opt("seed").and_then(|v| v.parse().ok()).unwrap_or(42)
}

/// Renders an aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
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

/// Times `f` over `reps` calls and returns nanoseconds per call, with
/// one untimed warm-up call (caches, page faults, lazy pools).
///
/// Execution-tier benches must pass a closure that *only executes*:
/// hoist `Program::compile()` (and any other setup) out of the closure,
/// or the measurement charges compilation to the execution tier.
pub fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    assert!(reps > 0, "reps must be positive");
    f();
    let t0 = std::time::Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_nanos() as f64 / reps as f64
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

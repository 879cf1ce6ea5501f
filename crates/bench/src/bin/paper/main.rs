//! The paper's evaluation as one table of rows.
//!
//! Each row reproduces one figure or table: it prints the numbers, then
//! checks the paper's claim as inequalities over the numbers it just
//! computed, one `PASS`/`FAIL` line per check. A claim the numbers here
//! contradict is a `NOTE` line with its numbers, never a check. The
//! process exits non-zero on any `FAIL` and on an unknown argument.
//!
//! ```text
//! paper fig09 tab04      # the named rows, full sizes
//! paper --all --quick    # every row at quick sizes (the CI smoke)
//! ```
//!
//! Analytic and simulated checks are exact, except in `tab04`, `fig11`
//! and `fig12`: CoRa's simulated encoder latency includes the build time
//! of its lowered programs' prelude, measured on the host
//! (`EncoderSim::layer_latency_ms`), so their CoRa figures move in the
//! last digits from run to run (RACE / 128 has read 28.993 and 29.019
//! ms). `sec74` builds that same prelude (`PreludeSpec::build_union`):
//! its memory table is exact, its time table measured. A wall-clock
//! check prints the worst value of at least three quick runs with
//! `CORA_NUM_THREADS=4` (the CI setting) on a 2-CPU Xeon VM; its bound
//! sits at least 1.3x below that, except `fig27`, `tab05` and `tab09`
//! (1.09-1.21x): their CoRa column became the compiled MHA, and their
//! bounds did not move.

mod cpu;
mod matmul;
mod model;

use std::fmt::Display;

use cora_bench::print_table;

/// Prints a row's tables and records its checks; the row picks its quick
/// or full sizes with [`Run::size`].
type RunFn = fn(&mut Run);

/// One row: `(id, paper reference, run)`.
type Row = (&'static str, &'static str, RunFn);

const ROWS: [Row; 19] = [
    ("fig02", "Fig. 2", model::fig02),
    ("fig09", "Fig. 9", matmul::fig09),
    ("fig10", "Fig. 10", matmul::fig10),
    ("fig11", "Fig. 11", model::fig11),
    ("fig12", "Fig. 12", model::fig12),
    ("fig13", "Fig. 13 / Table 10", model::fig13),
    ("fig14", "Fig. 14", model::fig14),
    ("fig18", "Fig. 18", model::fig18),
    ("fig19", "Fig. 19", model::fig19),
    ("fig20", "Figs. 20/21", model::fig20),
    ("fig22", "Fig. 22", model::fig22),
    ("fig23", "Fig. 23", model::fig23),
    ("fig27", "Fig. 27", cpu::fig27),
    ("tab04", "Table 4", model::tab04),
    ("tab05", "Table 5", cpu::tab05),
    ("tab06", "Table 6", cpu::tab06),
    ("tab09", "Table 9", cpu::tab09),
    ("sec74", "§7.4 / Tables 7-8", model::sec74),
    ("tiers", "execution tiers (no figure)", cpu::tiers),
];

/// One row's execution: its size mode and the checks it recorded.
#[derive(Default)]
struct Run {
    quick: bool,
    checks: usize,
    failed: usize,
}

impl Run {
    /// The row's quick or full value of one size.
    fn size<T>(&self, quick: T, full: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Records one check of a claim about `what`.
    fn check(&mut self, what: &str, ok: bool, measured: impl Display) {
        self.checks += 1;
        self.failed += usize::from(!ok);
        println!("{}  {what}: {measured}", if ok { "PASS" } else { "FAIL" });
    }

    /// Records the check `a op b`, `op` one of `<`, `≤`, `>` and `≥`.
    fn cmp(&mut self, what: &str, a: f64, op: &str, b: f64) {
        let ok = match op {
            "<" => a < b,
            "≤" => a <= b,
            ">" => a > b,
            "≥" => a >= b,
            _ => unreachable!("unknown comparison {op}"),
        };
        self.check(what, ok, format!("{} {op} {}", num(a), num(b)));
    }

    /// A wall-clock check `a ≥ bound`; `seen` is the worst `a` of at least
    /// three quick runs on the box the bound was set on (see the module doc).
    fn clock(&mut self, what: &str, a: f64, bound: f64, seen: f64) {
        let seen = format!("wall clock; worst quick run seen: {seen}");
        self.check(what, a >= bound, format!("{} ≥ {bound} ({seen})", num(a)));
    }

    /// A claim of the paper the numbers here do not reproduce: printed
    /// with the numbers, never checked.
    fn note(&self, claim: &str, held: bool, here: impl Display) {
        let verdict = if held { "holds here" } else { "not reproduced" };
        println!("NOTE  {claim}: {verdict} ({here})");
    }
}

/// `v` to 3 decimals, without trailing zeros.
fn num(v: f64) -> String {
    let s = format!("{v:.3}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

fn most(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::NEG_INFINITY, f64::max)
}

fn least(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let logs: Vec<f64> = values.into_iter().map(f64::ln).collect();
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// `items`, comma-separated.
fn joined(items: impl IntoIterator<Item = String>) -> String {
    items.into_iter().collect::<Vec<_>>().join(", ")
}

/// Prints a table whose rows are a label, then values formatted by `fmt`.
fn table<L: Display, V: IntoIterator<Item = f64>>(
    headers: &[impl AsRef<str>],
    rows: impl IntoIterator<Item = (L, V)>,
    fmt: fn(f64) -> String,
) {
    let cells = |(label, values): (L, V)| {
        let values = values.into_iter().map(fmt);
        std::iter::once(label.to_string()).chain(values).collect()
    };
    print_table(headers, &rows.into_iter().map(cells).collect::<Vec<_>>());
}

/// Parses `[--quick] (--all | ID...)` into the size mode and the rows.
fn select(args: &[String]) -> Result<(bool, Vec<Row>), String> {
    let (mut quick, mut all, mut rows) = (false, false, Vec::new());
    for arg in args {
        match arg.as_str() {
            "--quick" => quick = true,
            "--all" => all = true,
            id => match ROWS.iter().find(|row| row.0 == id) {
                Some(row) => rows.push(*row),
                None => return Err(format!("unknown argument `{id}`\n{}", usage())),
            },
        }
    }
    if all {
        rows = ROWS.to_vec();
    }
    if rows.is_empty() {
        return Err(usage());
    }
    Ok((quick, rows))
}

fn usage() -> String {
    let ids = ROWS
        .map(|(id, paper, _)| format!("  {id}  {paper}"))
        .join("\n");
    format!("usage: paper [--quick] (--all | ID...)\nrows:\n{ids}")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (quick, rows) = select(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let (mut checks, mut failed) = (0, 0);
    for (id, paper, run) in &rows {
        println!("\n=== {id}: {paper} ===\n");
        let mut r = Run {
            quick,
            ..Run::default()
        };
        run(&mut r);
        if r.checks == 0 {
            r.check("checks in this row", false, 0);
        }
        checks += r.checks;
        failed += r.failed;
    }
    println!("\n{} rows, {checks} checks, {failed} failed", rows.len());
    if failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rows (or row parts) whose numbers are analytic or simulated,
    /// so their checks may run in a unit test (`tab04`, `fig11` and
    /// `fig12` carry a measured prelude build time far below their
    /// margins).
    const DETERMINISTIC: [(&str, RunFn); 13] = [
        ("fig02", model::fig02),
        ("fig09 simulated", matmul::fig09_sim),
        ("fig10", matmul::fig10),
        ("fig11", model::fig11),
        ("fig12", model::fig12),
        ("fig13", model::fig13),
        ("fig14", model::fig14),
        ("fig19", model::fig19),
        ("fig20", model::fig20),
        ("fig22", model::fig22),
        ("fig23", model::fig23),
        ("tab04", model::tab04),
        ("sec74 memory", model::sec74_memory),
    ];

    #[test]
    fn deterministic_rows_pass_every_check_in_quick_mode() {
        for (name, run) in DETERMINISTIC {
            let mut r = Run {
                quick: true,
                ..Run::default()
            };
            run(&mut r);
            assert!(r.checks > 0, "{name} checks nothing");
            assert_eq!(
                r.failed, 0,
                "{name}: {} of {} checks failed",
                r.failed, r.checks
            );
        }
    }

    #[test]
    fn arguments_select_rows_and_unknown_ones_are_errors() {
        let select = |a: &[&str]| select(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let err = select(&["fig99"]).expect_err("unknown id");
        for (id, _, _) in ROWS {
            assert!(err.contains(id), "{err}");
        }
        assert!(select(&["--seed=42", "fig02"]).is_err());
        assert!(select(&["--quick"]).is_err(), "no rows selected");
        let (quick, rows) = select(&["--all", "--quick"]).expect("valid");
        assert!(quick);
        assert_eq!(rows.len(), ROWS.len());
        let (quick, rows) = select(&["tab04", "fig02"]).expect("valid");
        assert!(!quick);
        assert_eq!(
            rows.iter().map(|r| r.0).collect::<Vec<_>>(),
            ["tab04", "fig02"]
        );
    }
}

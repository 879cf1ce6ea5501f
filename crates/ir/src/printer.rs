//! Pretty-printers rendering lowered IR as C- or CUDA-flavoured source.
//!
//! CoRa generates "target-dependent code such as C or CUDA C++" (§2). Our
//! executable path interprets/dispatches the same IR, but the printers make
//! the compilation result inspectable and are exercised by the examples and
//! golden tests.

use crate::stmt::{ForKind, Stmt, StoreKind};

/// Renders `s` as C-like source.
pub fn print_c(s: &Stmt) -> String {
    let mut p = Printer::new(Dialect::C);
    p.stmt(s);
    p.out
}

/// Renders `s` as CUDA-like source.
///
/// Loops bound to GPU axes print as axis bindings rather than loops, the
/// way a real codegen would emit them.
pub fn print_cuda(s: &Stmt) -> String {
    let mut p = Printer::new(Dialect::Cuda);
    p.stmt(s);
    p.out
}

#[derive(Clone, Copy, PartialEq)]
enum Dialect {
    C,
    Cuda,
}

struct Printer {
    out: String,
    indent: usize,
    dialect: Dialect,
}

impl Printer {
    fn new(dialect: Dialect) -> Self {
        Printer {
            out: String::new(),
            indent: 0,
            dialect,
        }
    }

    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::For {
                var,
                min,
                extent,
                kind,
                body,
            } => {
                let axis = match kind {
                    ForKind::Serial => None,
                    ForKind::GpuBlockX => Some("blockIdx.x"),
                    ForKind::GpuThreadX => Some("threadIdx.x"),
                };
                if let (Dialect::Cuda, Some(axis)) = (self.dialect, axis) {
                    self.line(&format!("// {axis} in [{min}, {min} + {extent})"));
                    self.line(&format!("int {var} = {min} + {axis};"));
                    self.stmt(body);
                } else {
                    self.line(&format!(
                        "for (int {var} = {min}; {var} < {min} + {extent}; ++{var}) {{"
                    ));
                    self.indent += 1;
                    self.stmt(body);
                    self.indent -= 1;
                    self.line("}");
                }
            }
            Stmt::LetInt { var, value, body } => {
                self.line(&format!("int {var} = {value};"));
                self.stmt(body);
            }
            Stmt::Store {
                buffer,
                index,
                value,
                kind,
            } => match kind {
                StoreKind::Assign => self.line(&format!("{buffer}[{index}] = {value};")),
                StoreKind::AddAssign => self.line(&format!("{buffer}[{index}] += {value};")),
                StoreKind::MaxAssign => self.line(&format!(
                    "{buffer}[{index}] = fmaxf({buffer}[{index}], {value});"
                )),
            },
            Stmt::If { cond, then_, else_ } => {
                self.line(&format!("if ({cond}) {{"));
                self.indent += 1;
                self.stmt(then_);
                self.indent -= 1;
                match else_ {
                    Some(e) => {
                        self.line("} else {");
                        self.indent += 1;
                        self.stmt(e);
                        self.indent -= 1;
                        self.line("}");
                    }
                    None => self.line("}"),
                }
            }
            Stmt::Seq(items) => {
                for item in items {
                    self.stmt(item);
                }
            }
            Stmt::Alloc { buffer, size, body } => {
                let qual = if self.dialect == Dialect::Cuda {
                    "__shared__ "
                } else {
                    ""
                };
                self.line(&format!("{qual}float {buffer}[{size}];"));
                self.stmt(body);
            }
            Stmt::Nop => self.line(";"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::fexpr::FExpr;

    fn sample() -> Stmt {
        Stmt::loop_kind(
            "o",
            Expr::var("M"),
            ForKind::GpuBlockX,
            Stmt::loop_(
                "i",
                Expr::var("n"),
                Stmt::store(
                    "B",
                    Expr::var("o") * Expr::var("n") + Expr::var("i"),
                    FExpr::load("A", Expr::var("o") * Expr::var("n") + Expr::var("i")) * 2.0,
                ),
            ),
        )
    }

    #[test]
    fn c_printer_emits_plain_loop() {
        let txt = print_c(&sample());
        assert!(txt.contains("for (int o = 0"));
        assert!(txt.contains("B[((o*n) + i)] = (A[((o*n) + i)]*2.0f);"));
    }

    #[test]
    fn cuda_printer_binds_block_axis() {
        let txt = print_cuda(&sample());
        assert!(txt.contains("int o = 0 + blockIdx.x;"));
        assert!(!txt.contains("for (int o"));
        assert!(txt.contains("for (int i = 0"));
    }

    #[test]
    fn alloc_prints_shared_in_cuda() {
        let s = Stmt::Alloc {
            buffer: "tile".into(),
            size: Expr::int(64),
            body: Box::new(Stmt::Nop),
        };
        assert!(print_cuda(&s).contains("__shared__ float tile[64];"));
        assert!(print_c(&s).contains("float tile[64];"));
    }
}

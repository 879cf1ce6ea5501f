//! The operator tables: what each scalar operator of the IR *is*.
//!
//! [`ExprKind::Bin`](crate::ExprKind::Bin), [`CondKind::Cmp`](crate::CondKind::Cmp),
//! [`FExprKind::Bin`](crate::FExprKind::Bin) and [`FExprKind::Unary`](crate::FExprKind::Unary)
//! carry one of the enums below, and everything an operator means is a
//! column of its enum's `impl`: concrete semantics (`apply` — what the
//! interpreter, [`Env::eval`](crate::Env::eval) and the VM's scalar
//! instructions execute, so the tiers agree by construction), abstract
//! semantics over [`SInt`] (`apply_sint` — what guard elision and the
//! safety verifier evaluate), neutral elements, the print symbol of
//! `Display`/the C and CUDA printers, and the disassembly mnemonic.
//!
//! **Adding an operator** is one variant plus one arm per column here
//! (the compiler lists them) and an entry in `ALL`; every traversal,
//! both execution tiers, the printers and the disassembler pick it up.
//! Only code that gives an operator *algebraic* meaning names it:
//! [`simplify`](crate::simplify), [`linearize`](crate::linearize), the
//! VM compiler's affine screen and its per-operator chunk sweeps.

use std::fmt;

use crate::expr::{floor_div_i64, floor_mod_i64};
use crate::interval::SInt;

/// How a binary operator prints in C-like source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Symbol {
    /// `(lhs<symbol>rhs)`; the symbol carries its own spacing.
    Infix(&'static str),
    /// `name(lhs, rhs)`.
    Call(&'static str),
}

impl Symbol {
    /// Writes the operator applied to two printed operands.
    pub fn write(
        self,
        f: &mut fmt::Formatter<'_>,
        a: &dyn fmt::Display,
        b: &dyn fmt::Display,
    ) -> fmt::Result {
        match self {
            Symbol::Infix(s) => write!(f, "({a}{s}{b})"),
            Symbol::Call(name) => write!(f, "{name}({a}, {b})"),
        }
    }
}

/// Integer binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IBinOp {
    /// `lhs + rhs`.
    Add,
    /// `lhs - rhs`.
    Sub,
    /// `lhs * rhs`.
    Mul,
    /// Floor division (rounds toward negative infinity).
    FloorDiv,
    /// Floor modulo, `lhs - floor_div(lhs, rhs) * rhs`.
    FloorMod,
    /// Binary minimum.
    Min,
    /// Binary maximum.
    Max,
}

impl IBinOp {
    /// Every operator, in declaration order.
    pub const ALL: [IBinOp; 7] = [
        IBinOp::Add,
        IBinOp::Sub,
        IBinOp::Mul,
        IBinOp::FloorDiv,
        IBinOp::FloorMod,
        IBinOp::Min,
        IBinOp::Max,
    ];

    /// Concrete semantics. Overflow behaves as `i64` arithmetic does (a
    /// panic in debug builds); a zero divisor is a lowering bug.
    #[inline]
    pub fn apply(self, x: i64, y: i64) -> i64 {
        match self {
            IBinOp::Add => x + y,
            IBinOp::Sub => x - y,
            IBinOp::Mul => x * y,
            IBinOp::FloorDiv => floor_div_i64(x, y),
            IBinOp::FloorMod => floor_mod_i64(x, y),
            IBinOp::Min => x.min(y),
            IBinOp::Max => x.max(y),
        }
    }

    /// Abstract semantics: a sound strided interval for `apply` over
    /// every pair of members.
    pub fn apply_sint(self, a: SInt, b: SInt) -> SInt {
        match self {
            IBinOp::Add => a.add(b),
            IBinOp::Sub => a.sub(b),
            IBinOp::Mul => a.mul(b),
            IBinOp::FloorDiv => a.floor_div(b),
            IBinOp::FloorMod => a.floor_mod(b),
            IBinOp::Min => a.min_s(b),
            IBinOp::Max => a.max_s(b),
        }
    }

    /// `[left, right]` neutral elements: `apply(l, x) == x` and
    /// `apply(x, r) == x` for every `x`. Lowering leaves `0 + x` and
    /// `x * 1` in every index; the VM compiler and the proof builder
    /// drop such literal operands.
    pub fn identities(self) -> [Option<i64>; 2] {
        match self {
            IBinOp::Add => [Some(0), Some(0)],
            IBinOp::Sub => [None, Some(0)],
            IBinOp::Mul => [Some(1), Some(1)],
            IBinOp::FloorDiv | IBinOp::FloorMod | IBinOp::Min | IBinOp::Max => [None, None],
        }
    }

    /// Print symbol.
    pub fn symbol(self) -> Symbol {
        match self {
            IBinOp::Add => Symbol::Infix(" + "),
            IBinOp::Sub => Symbol::Infix(" - "),
            IBinOp::Mul => Symbol::Infix("*"),
            IBinOp::FloorDiv => Symbol::Infix("/"),
            IBinOp::FloorMod => Symbol::Infix("%"),
            IBinOp::Min => Symbol::Call("min"),
            IBinOp::Max => Symbol::Call("max"),
        }
    }

    /// Disassembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            IBinOp::Add => "iadd",
            IBinOp::Sub => "isub",
            IBinOp::Mul => "imul",
            IBinOp::FloorDiv => "idiv",
            IBinOp::FloorMod => "imod",
            IBinOp::Min => "imin",
            IBinOp::Max => "imax",
        }
    }
}

/// Integer comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `lhs < rhs`.
    Lt,
    /// `lhs <= rhs`.
    Le,
    /// `lhs == rhs`.
    Eq,
    /// `lhs != rhs`.
    Ne,
}

impl CmpOp {
    /// Every comparison, in declaration order.
    pub const ALL: [CmpOp; 4] = [CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ne];

    /// Concrete semantics.
    #[inline]
    pub fn apply(self, x: i64, y: i64) -> bool {
        match self {
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
        }
    }

    /// Abstract semantics: `Some(v)` when `apply` is `v` for every pair
    /// of members, `None` when undecided.
    pub fn apply_sint(self, a: SInt, b: SInt) -> Option<bool> {
        match self {
            CmpOp::Lt => a.lt_s(b),
            CmpOp::Le => a.le_s(b),
            CmpOp::Eq => a.eq_s(b),
            CmpOp::Ne => a.ne_s(b),
        }
    }

    /// Print symbol.
    pub fn symbol(self) -> Symbol {
        match self {
            CmpOp::Lt => Symbol::Infix(" < "),
            CmpOp::Le => Symbol::Infix(" <= "),
            CmpOp::Eq => Symbol::Infix(" == "),
            CmpOp::Ne => Symbol::Infix(" != "),
        }
    }

    /// Disassembly mnemonic (of the `br.<mnemonic>` branch).
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
        }
    }
}

/// Float binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FBinOp {
    /// `lhs + rhs`.
    Add,
    /// `lhs - rhs`.
    Sub,
    /// `lhs * rhs`.
    Mul,
    /// `lhs / rhs`.
    Div,
    /// Binary maximum.
    Max,
}

impl FBinOp {
    /// Every operator, in declaration order.
    pub const ALL: [FBinOp; 5] = [
        FBinOp::Add,
        FBinOp::Sub,
        FBinOp::Mul,
        FBinOp::Div,
        FBinOp::Max,
    ];

    /// Concrete semantics.
    #[inline]
    pub fn apply(self, x: f32, y: f32) -> f32 {
        match self {
            FBinOp::Add => x + y,
            FBinOp::Sub => x - y,
            FBinOp::Mul => x * y,
            FBinOp::Div => x / y,
            FBinOp::Max => x.max(y),
        }
    }

    /// Print symbol.
    pub fn symbol(self) -> Symbol {
        match self {
            FBinOp::Add => Symbol::Infix(" + "),
            FBinOp::Sub => Symbol::Infix(" - "),
            FBinOp::Mul => Symbol::Infix("*"),
            FBinOp::Div => Symbol::Infix("/"),
            FBinOp::Max => Symbol::Call("fmaxf"),
        }
    }

    /// Disassembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FBinOp::Add => "fadd",
            FBinOp::Sub => "fsub",
            FBinOp::Mul => "fmul",
            FBinOp::Div => "fdiv",
            FBinOp::Max => "fmax",
        }
    }
}

/// Unary floating intrinsics needed by the paper's operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FUnaryOp {
    /// Negation.
    Neg,
    /// `e^x` (softmax).
    Exp,
    /// `sqrt(x)` (layer norm).
    Sqrt,
    /// `1/x`.
    Recip,
    /// `tanh(x)` (GELU approximation).
    Tanh,
    /// `max(x, 0)` (ReLU).
    Relu,
}

impl FUnaryOp {
    /// Every intrinsic, in declaration order.
    pub const ALL: [FUnaryOp; 6] = [
        FUnaryOp::Neg,
        FUnaryOp::Exp,
        FUnaryOp::Sqrt,
        FUnaryOp::Recip,
        FUnaryOp::Tanh,
        FUnaryOp::Relu,
    ];

    /// Concrete semantics. (Out of line, unlike the binary tables: the
    /// libm calls dominate, and the VM's dispatch loop stays compact.)
    pub fn apply(self, x: f32) -> f32 {
        match self {
            FUnaryOp::Neg => -x,
            FUnaryOp::Exp => x.exp(),
            FUnaryOp::Sqrt => x.sqrt(),
            FUnaryOp::Recip => 1.0 / x,
            FUnaryOp::Tanh => x.tanh(),
            FUnaryOp::Relu => x.max(0.0),
        }
    }

    /// Print symbol: the text before and after the operand.
    pub fn symbol(self) -> (&'static str, &'static str) {
        match self {
            FUnaryOp::Neg => ("(-", ")"),
            FUnaryOp::Exp => ("expf(", ")"),
            FUnaryOp::Sqrt => ("sqrtf(", ")"),
            FUnaryOp::Recip => ("(1.0f/", ")"),
            FUnaryOp::Tanh => ("tanhf(", ")"),
            FUnaryOp::Relu => ("fmaxf(", ", 0.0f)"),
        }
    }

    /// Disassembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FUnaryOp::Neg => "neg",
            FUnaryOp::Exp => "exp",
            FUnaryOp::Sqrt => "sqrt",
            FUnaryOp::Recip => "recip",
            FUnaryOp::Tanh => "tanh",
            FUnaryOp::Relu => "relu",
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    /// Zero, both divisor signs, non-dividing pairs and the `i64` limits.
    const INTS: [i64; 9] = [i64::MIN + 1, -7, -2, -1, 0, 1, 2, 7, i64::MAX];

    /// `apply` spelled independently, in `i128` so nothing overflows on
    /// the way: `None` for a zero divisor or a result outside `i64`.
    fn reference(op: IBinOp, x: i64, y: i64) -> Option<i64> {
        let (a, b) = (i128::from(x), i128::from(y));
        // ⌊a/b⌋ through Euclidean division of a sign-normalised pair.
        let floor = |a: i128, b: i128| (a * b.signum()).div_euclid(b.abs());
        let exact = match op {
            IBinOp::Add => a + b,
            IBinOp::Sub => a - b,
            IBinOp::Mul => a * b,
            IBinOp::FloorDiv | IBinOp::FloorMod if b == 0 => return None,
            IBinOp::FloorDiv => floor(a, b),
            IBinOp::FloorMod => a - floor(a, b) * b,
            IBinOp::Min => *[a, b].iter().min().unwrap(),
            IBinOp::Max => *[a, b].iter().max().unwrap(),
        };
        i64::try_from(exact).ok()
    }

    #[test]
    fn ibinop_table_matches_the_reference_on_the_edge_grid() {
        for (i, op) in IBinOp::ALL.into_iter().enumerate() {
            assert_eq!(op as usize, i, "ALL is in declaration order");
            for (x, y) in INTS.iter().flat_map(|&x| INTS.map(|y| (x, y))) {
                let abstracted = op.apply_sint(SInt::point(x), SInt::point(y));
                // Where the concrete result overflows (a debug-build
                // panic) or divides by zero, only the abstract side runs.
                let Some(want) = reference(op, x, y) else {
                    continue;
                };
                assert_eq!(op.apply(x, y), want, "{op:?}({x}, {y})");
                assert!(abstracted.contains(want), "{op:?}({x}, {y}): {abstracted}");
            }
            let [left, right] = op.identities();
            for x in INTS {
                assert!(left.map_or(true, |l| op.apply(l, x) == x), "{op:?} left");
                assert!(right.map_or(true, |r| op.apply(x, r) == x), "{op:?} right");
            }
        }
    }

    #[test]
    fn cmpop_table_matches_the_reference_on_the_edge_grid() {
        for (i, op) in CmpOp::ALL.into_iter().enumerate() {
            assert_eq!(op as usize, i, "ALL is in declaration order");
            for (x, y) in INTS.iter().flat_map(|&x| INTS.map(|y| (x, y))) {
                let sign = (i128::from(x) - i128::from(y)).signum();
                let want = match op {
                    CmpOp::Lt => sign < 0,
                    CmpOp::Le => sign <= 0,
                    CmpOp::Eq => sign == 0,
                    CmpOp::Ne => sign != 0,
                };
                assert_eq!(op.apply(x, y), want, "{op:?}({x}, {y})");
                // Two points always decide.
                let abstracted = op.apply_sint(SInt::point(x), SInt::point(y));
                assert_eq!(abstracted, Some(want), "{op:?}({x}, {y})");
            }
        }
    }

    /// Both zeros, a NaN, infinities, a subnormal and ordinary values.
    const FLOATS: [f32; 9] = [
        -0.0,
        0.0,
        1.5,
        -2.25,
        3.0e-41,
        f32::MAX,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];

    /// Bit equality, with every NaN equal to every other.
    fn same(got: f32, want: f32) -> bool {
        (got.is_nan() && want.is_nan()) || got.to_bits() == want.to_bits()
    }

    #[test]
    fn fbinop_table_matches_the_reference_on_the_edge_grid() {
        for (i, op) in FBinOp::ALL.into_iter().enumerate() {
            assert_eq!(op as usize, i, "ALL is in declaration order");
            for (x, y) in FLOATS.iter().flat_map(|&x| FLOATS.map(|y| (x, y))) {
                // f64 holds the exact sum/product of two f32s to well past
                // 2·24 + 2 bits, so rounding its result once more is the
                // correctly rounded f32 result.
                let (a, b) = (f64::from(x), f64::from(y));
                let got = op.apply(x, y);
                let ok = match op {
                    FBinOp::Add => same(got, (a + b) as f32),
                    FBinOp::Sub => same(got, (a - b) as f32),
                    FBinOp::Mul => same(got, (a * b) as f32),
                    FBinOp::Div => same(got, (a / b) as f32),
                    // A NaN operand loses; the zeros' signs are unordered.
                    FBinOp::Max if x.is_nan() || y.is_nan() => {
                        same(got, if x.is_nan() { y } else { x })
                    }
                    FBinOp::Max => got == if a > b { x } else { y },
                };
                assert!(ok, "{op:?}({x}, {y}) = {got}");
            }
        }
    }

    #[test]
    fn funaryop_table_matches_the_reference_on_the_edge_grid() {
        for (i, op) in FUnaryOp::ALL.into_iter().enumerate() {
            assert_eq!(op as usize, i, "ALL is in declaration order");
            for x in FLOATS {
                let (a, got) = (f64::from(x), op.apply(x));
                let close = |want: f64| {
                    same(got, want as f32) || (f64::from(got) - want).abs() <= 1e-6 * want.abs()
                };
                let ok = match op {
                    FUnaryOp::Neg => same(got, f32::from_bits(x.to_bits() ^ (1 << 31))),
                    FUnaryOp::Exp => close(a.exp()),
                    FUnaryOp::Sqrt => same(got, a.sqrt() as f32),
                    FUnaryOp::Recip => same(got, (1.0 / a) as f32),
                    FUnaryOp::Tanh => close(a.tanh()),
                    FUnaryOp::Relu => got == if a > 0.0 { x } else { 0.0 },
                };
                assert!(ok, "{op:?}({x}) = {got}");
            }
        }
    }

    #[test]
    fn symbols_and_mnemonics_are_unique_within_each_table() {
        fn distinct(names: Vec<String>) -> bool {
            names.iter().collect::<HashSet<_>>().len() == names.len()
        }
        let symbols = |all: Vec<Symbol>| all.iter().map(|s| format!("{s:?}")).collect();
        assert!(distinct(symbols(IBinOp::ALL.map(IBinOp::symbol).to_vec())));
        assert!(distinct(symbols(CmpOp::ALL.map(CmpOp::symbol).to_vec())));
        assert!(distinct(symbols(FBinOp::ALL.map(FBinOp::symbol).to_vec())));
        let unary = FUnaryOp::ALL.map(|op| format!("{:?}", op.symbol()));
        assert!(distinct(unary.to_vec()));
        let names = |all: &[&str]| all.iter().map(|s| s.to_string()).collect();
        assert!(distinct(names(&IBinOp::ALL.map(IBinOp::mnemonic))));
        assert!(distinct(names(&CmpOp::ALL.map(CmpOp::mnemonic))));
        assert!(distinct(names(&FBinOp::ALL.map(FBinOp::mnemonic))));
        assert!(distinct(names(&FUnaryOp::ALL.map(FUnaryOp::mnemonic))));
    }
}

//! Chain dispatch: consecutive outlined block bodies that tile the same
//! block values run tile by tile, one stage after another on the worker
//! that owns the tile.
//!
//! A [`ChainStage`] describes one stage: its bound table, its
//! certificate and where each float input comes from. Each stage's
//! program is a *tile body* ([`compile_tile`](super::compile_tile)): the
//! block loop over a tile's blocks is part of the program, so a stage's
//! turn at a tile is **one** dispatch with the tile's bounds bound —
//! one dispatch per stage per tile — and a block loop whose body is a
//! fused nest runs as that nest's row level, natively. Every stage but
//! the last writes a *window* — a buffer private to the worker, holding
//! only the elements the stage stores for the current tile (the hull of
//! the tile's certified regions), filled with the stage's initial value
//! before it runs the tile. Later stages of the chain read the window
//! in place of the full buffer; the bytecode is unchanged, the window
//! slot subtracts its origin ([`super::bufs`]). The last stage stores
//! into the one shared output through the certificate-checked port of
//! [`super::parallel`], where the dispatch itself lives.
//!
//! Reading a window is correct when every load a stage makes of it in a
//! tile lies inside the producing stage's store regions for that tile:
//! those elements are final once the producer has run the tile, because
//! no other tile stores to them. Proving that containment is the
//! caller's part (`cora_core::pipeline` checks it against the
//! verifier's per-tile load sets before it forms a chain); here, every
//! window store is checked against the producer's certified regions and
//! every window access is bounds-checked, so a wrong proof panics.
//!
//! Each stage keeps its own registers — so a packed panel still spans
//! the tiles of a batch — and its own statistics, so per-stage sums
//! stay exact. The stages take turns with one fused-nest chunk scratch
//! (every nest overwrites what it reads of it), so a turn touches one
//! warm scratch instead of one per stage.

use std::ops::Range;

use cora_ir::interval::SInt;

use super::bufs::{Bufs, OutPort, Slot, WindowOut};
use super::cert::StoreCert;
use super::compiler::{TILE_FIRST, TILE_LEN};
use super::dispatch::{dispatch, Regs};
use super::isa::VmProgram;
use super::machine::VmShared;
use crate::cpu::CpuPool;
use crate::interp::InterpStats;

/// One stage of a chain dispatch
/// ([`run_chain_proven`](super::run_chain_proven)).
#[derive(Debug, Clone, Copy)]
pub struct ChainStage<'a> {
    /// The stage's tile body ([`compile_tile`](super::compile_tile)),
    /// bound to its shape; its tile bounds are bound per tile.
    pub table: &'a VmShared,
    /// The buffer the body stores to.
    pub output: &'a str,
    /// The stage's disjoint-store certificate. Every stage of a chain
    /// tiles the same block values the same way.
    pub cert: &'a StoreCert,
    /// The float inputs by program buffer name (bindings the program
    /// never references are ignored).
    pub inputs: &'a [(&'a str, ChainInput<'a>)],
    /// `Some(init)` for every stage but the last: the stage writes a
    /// per-worker window, filled with `init` before each tile. `None`
    /// for the last stage, which writes the shared output.
    pub window_init: Option<f32>,
}

/// Where a chain stage's float input comes from.
#[derive(Debug, Clone, Copy)]
pub enum ChainInput<'a> {
    /// A buffer no stage of the chain writes, shared by every worker.
    Shared(&'a [f32]),
    /// The window of the chain's stage at this (earlier) position.
    Window(usize),
}

impl VmShared {
    /// [`run_chain_proven`](super::run_chain_proven) for a chain of one:
    /// the tile body once per tile of `tiles` (first block values, in
    /// dispatch order, cut into `batches`), under
    /// `cert`, its float `inputs` shared and its stores landing in `out`
    /// (bound to `output`). Returns the summed per-worker statistics.
    ///
    /// # Panics
    ///
    /// As for [`run_chain_proven`](super::run_chain_proven).
    #[allow(clippy::too_many_arguments)]
    pub fn run_blocks_proven(
        &self,
        pool: &CpuPool,
        output: &str,
        out: &mut [f32],
        inputs: &[(&str, &[f32])],
        tiles: &[i64],
        batches: &[Range<usize>],
        cert: &StoreCert,
    ) -> InterpStats {
        let inputs: Vec<(&str, ChainInput<'_>)> = (inputs.iter())
            .map(|&(name, data)| (name, ChainInput::Shared(data)))
            .collect();
        let chain = [ChainStage {
            table: self,
            output,
            cert,
            inputs: &inputs,
            window_init: None,
        }];
        super::run_chain_proven(pool, &chain, out, tiles, batches)[0]
    }
}

/// A chain stage resolved against its program.
pub(super) struct Resolved<'a> {
    pub(super) stage: &'a ChainStage<'a>,
    prog: &'a VmProgram,
    /// The slots of the tile body's first block value and block count.
    tile: [usize; 2],
    out_slot: u32,
    /// Per free float slot: `None` for the output, else its input.
    free: Vec<Option<ChainInput<'a>>>,
    /// `(slot, producing stage, lent)` per window input: the first slot
    /// reading a window borrows its storage, any other one gets a copy.
    windows: Vec<(u32, usize, bool)>,
    /// The widest tile span of the stage's certificate: what its window
    /// must hold (none for the last stage).
    cap: usize,
}

/// The elements `[origin, origin + len)` spanning a tile's regions
/// (`(0, 0)` for a tile that stores nothing).
fn span(regions: &[SInt]) -> (usize, usize) {
    let hull = (regions.iter().filter_map(SInt::hull)).reduce(|a, b| (a.0.min(b.0), a.1.max(b.1)));
    hull.map_or((0, 0), |(lo, hi)| {
        let lo = usize::try_from(lo).expect("certified regions are in bounds");
        (
            lo,
            usize::try_from(hi).expect("certified regions are in bounds") + 1 - lo,
        )
    })
}

/// Resolves every stage's tile bounds, output and inputs, and checks the
/// bindings.
///
/// # Panics
///
/// Panics if a program is not a tile body, an output is unknown to its
/// program, a program reads its output back, a binding is missing, a
/// window input does not name an earlier stage, or a stage other than
/// the last has no window (or the last one has).
pub(super) fn resolve<'a>(chain: &'a [ChainStage<'a>]) -> Vec<Resolved<'a>> {
    assert!(!chain.is_empty(), "a chain holds at least one stage");
    let resolve_one = |(k, stage): (usize, &'a ChainStage<'a>)| {
        let prog = &*stage.table.prog;
        let s = &prog.slots;
        let output = stage.output;
        let tile = [TILE_FIRST, TILE_LEN].map(|name| {
            (s.free_vars.get(name))
                .unwrap_or_else(|| panic!("not a tile body: no free variable `{name}`"))
        });
        let out_slot = (s.free_fbufs.get(output))
            .unwrap_or_else(|| panic!("unknown output buffer `{output}`"));
        // An in-place program could read elements another block is
        // writing — reject it here (not just in the outliner) so the
        // race is unreachable through this entry point.
        assert!(
            !s.fbuf_is_inplace(output),
            "program both loads and stores output `{output}`; \
             the parallel tier forbids in-place output access"
        );
        let last = k + 1 == chain.len();
        assert_eq!(
            stage.window_init.is_none(),
            last,
            "exactly the last chain stage writes the shared output"
        );
        let mut free: Vec<Option<ChainInput<'a>>> = vec![None; s.free_fbufs.len()];
        for (name, input) in stage.inputs {
            if let (Some(slot), true) = (s.free_fbufs.get(name), *name != output) {
                if let ChainInput::Window(j) = input {
                    assert!(*j < k, "stage {k} reads the window of stage {j}");
                }
                free[slot as usize] = Some(*input);
            }
        }
        stage
            .table
            .check_bound(&tile, |i| free[i].is_some() || i == out_slot as usize);
        let mut windows: Vec<(u32, usize, bool)> = Vec::new();
        for (slot, input) in (0..).zip(&free) {
            if let Some(ChainInput::Window(j)) = *input {
                let lent = windows.iter().all(|w| w.1 != j);
                windows.push((slot, j, lent));
            }
        }
        let cert = stage.cert;
        let spans = (0..cert.tiles()).map(|t| span(cert.tile_at(cert.tile_start(t)).1).1);
        Resolved {
            stage,
            prog,
            tile: tile.map(|slot| slot as usize),
            out_slot,
            free,
            windows,
            cap: if last { 0 } else { spans.max().unwrap_or(0) },
        }
    };
    chain.iter().enumerate().map(resolve_one).collect()
}

/// A worker's private state across the tiles of its batch: per stage,
/// its float-buffer table (the stage's own window bound as its output),
/// registers and statistics. Windows move between the tables — lent to
/// a reading stage for its turn and taken back — so a tile allocates
/// nothing.
pub(super) struct Worker<'a, P> {
    /// Every stage but the last.
    mid: Vec<Bufs<'a, WindowOut<'a>>>,
    /// The last stage, its output bound to the caller's port.
    last: Bufs<'a, P>,
    last_out: u32,
    regs: Vec<Regs>,
    pub(super) stats: Vec<InterpStats>,
}

/// `st`'s table with `port` bound to its output and its window inputs
/// empty.
fn table<'a, Q: OutPort>(st: &Resolved<'a>, port: Q) -> Bufs<'a, Q> {
    let mut port = Some(port);
    let free = st.free.iter().map(|input| match *input {
        None => Slot::Out(port.take().expect("one output slot")),
        Some(ChainInput::Shared(data)) => Slot::In(data),
        Some(ChainInput::Window(_)) => Slot::Win(Vec::new(), 0),
    });
    Bufs::new(st.prog, free)
}

impl<'a, P: OutPort> Worker<'a, P> {
    pub(super) fn new(chain: &[Resolved<'a>], port: P) -> Worker<'a, P> {
        let (last, mid) = chain.split_last().expect("resolved");
        let window = |st: &Resolved<'a>| WindowOut {
            data: Vec::with_capacity(st.cap),
            origin: 0,
            regions: &[],
            block: 0,
        };
        Worker {
            mid: mid.iter().map(|st| table(st, window(st))).collect(),
            last: table(last, port),
            last_out: last.out_slot,
            // One chunk scratch, handed from stage to stage.
            regs: (chain.iter().enumerate())
                .map(|(k, st)| match k {
                    0 => Regs::new(st.prog, &st.stage.table.vars),
                    _ => Regs::without_chunk_scratch(st.prog, &st.stage.table.vars),
                })
                .collect(),
            stats: vec![InterpStats::default(); chain.len()],
        }
    }

    /// The last stage's output port, to point at the next tile.
    pub(super) fn last_port(&mut self) -> &mut P {
        self.last.port_mut(self.last_out)
    }

    /// Runs the `len` blocks of the tile at `first` through every stage
    /// in order: each stage but the last into its window (spanning the
    /// tile's certified regions, filled with the stage's initial value),
    /// the last into the caller's port.
    ///
    /// # Panics
    ///
    /// Panics if a stage's certificate tiles the blocks differently.
    pub(super) fn run_tile(&mut self, chain: &[Resolved<'a>], first: i64, len: usize) {
        let mid = &chain[..chain.len() - 1];
        let state = (&mut self.regs[..], &mut self.stats[..]);
        for (k, st) in mid.iter().enumerate() {
            let (tile_len, regions) = st.stage.cert.tile_at(first);
            assert_eq!(tile_len, len, "chain stages tile their blocks alike");
            let (done, rest) = self.mid.split_at_mut(k);
            let port = rest[0].port_mut(st.out_slot);
            let (origin, n) = span(regions);
            port.data.clear();
            port.data.resize(n, st.stage.window_init.expect("resolved"));
            (port.origin, port.regions) = (origin, regions);
            turn(
                (done, &mut rest[0]),
                chain,
                k,
                (&mut *state.0, &mut *state.1),
                (first, len),
            );
        }
        let k = mid.len();
        turn(
            (&mut self.mid, &mut self.last),
            chain,
            k,
            state,
            (first, len),
        );
    }
}

/// Stage `k`'s turn over `len` blocks from `first` — one dispatch of its
/// tile body: its window inputs lent from their producers in `mid` to
/// its table `to`, the shared chunk scratch handed to its registers, and
/// both taken back after.
fn turn<Q: OutPort>(
    (mid, to): (&mut [Bufs<'_, WindowOut<'_>>], &mut Bufs<'_, Q>),
    chain: &[Resolved<'_>],
    k: usize,
    (regs, stats): (&mut [Regs], &mut [InterpStats]),
    (first, len): (i64, usize),
) {
    let st = &chain[k];
    lend(mid, chain, to, &st.windows, false);
    let r = hand_scratch(regs, k);
    r.vars[st.tile[0]] = first;
    r.vars[st.tile[1]] = len as i64;
    dispatch(st.prog, &st.stage.table.ibufs, r, to, &mut stats[k]);
    hand_scratch(regs, k);
    lend(mid, chain, to, &st.windows, true);
}

/// Swaps the chunk scratch a worker's stages share (kept with the first
/// stage's registers) into or out of stage `k`'s; returns stage `k`'s.
fn hand_scratch(regs: &mut [Regs], k: usize) -> &mut Regs {
    let (first, rest) = regs.split_at_mut(1);
    match k.checked_sub(1) {
        Some(k) => {
            rest[k].swap_chunk_scratch(&mut first[0]);
            &mut rest[k]
        }
        None => &mut first[0],
    }
}

/// Moves each window `to` reads between its producer in `mid` and its
/// slot of `to` — out of the producer, or (`back`) back into it. A
/// window read through a second slot is copied there on the way out.
fn lend<Q: OutPort>(
    mid: &mut [Bufs<'_, WindowOut<'_>>],
    chain: &[Resolved<'_>],
    to: &mut Bufs<'_, Q>,
    windows: &[(u32, usize, bool)],
    back: bool,
) {
    // Copies first, while every producer still holds its window.
    for lending in [false, true] {
        for &(slot, j, lent) in windows.iter().filter(|w| w.2 == lending) {
            let window = mid[j].port_mut(chain[j].out_slot);
            let (data, origin) = to.window_mut(slot);
            match (lent, back) {
                (true, _) => std::mem::swap(data, &mut window.data),
                (false, false) => data.clone_from(&window.data),
                (false, true) => continue,
            }
            *origin = window.origin;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use cora_ir::{Expr, FExpr, Stmt, StoreKind};

    use super::super::testutil::outlined_doubling_body;
    use super::super::{compile_tile, run_chain_proven};
    use super::*;

    /// Rows of the 4-block ragged shape: `(row start, length)`.
    const ROWS: [(i64, i64); 4] = [(0, 5), (5, 0), (5, 3), (8, 2)];

    /// `C[b] += B[row[b] + i]` over block `b`'s row: a row sum of the
    /// doubling body's output.
    fn row_sum_body() -> Stmt {
        let idx = Expr::load("row", Expr::var("b")) + Expr::var("i");
        let store = Stmt::Store {
            buffer: "C".into(),
            index: Expr::var("b"),
            value: FExpr::load("B", idx),
            kind: StoreKind::AddAssign,
        };
        Stmt::loop_("i", Expr::load("lens", Expr::var("b")), store)
    }

    fn bound(body: &Stmt) -> VmShared {
        let mut shared = Arc::new(compile_tile(body, "b")).shared();
        shared.set_ibuffer("lens", ROWS.map(|r| r.1).to_vec());
        shared.set_ibuffer("row", ROWS.map(|r| r.0).to_vec());
        shared
    }

    /// Doubling then row sums as one chain: `B` lives only in windows,
    /// at grain 1 and in tiles of 3, in any dispatch order; per-stage
    /// statistics equal each stage run alone.
    #[test]
    fn run_blocks_proven_runs_a_chain_through_windows() {
        let (double, sum) = (bound(&outlined_doubling_body()), bound(&row_sum_body()));
        let a: Vec<f32> = (0..10).map(|x| x as f32 * 0.5 - 2.0).collect();
        let want: Vec<f32> = (ROWS.iter())
            .map(|&(r, n)| (r..r + n).map(|i| a[i as usize] * 2.0).sum())
            .collect();
        let pool = CpuPool::new(2);
        for grain in [1usize, 3] {
            // Per tile, the union of its blocks' regions.
            let cert = |region: fn(i64) -> SInt| {
                let tiles = (0..4usize.div_ceil(grain)).map(|t| {
                    let blocks = (t * grain) as i64..((t + 1) * grain).min(4) as i64;
                    (t, blocks.map(region).fold(SInt::Empty, SInt::union))
                });
                StoreCert::tiled(0, 4, grain, tiles).expect("disjoint tiles")
            };
            let rows = cert(|b| {
                let (r, n) = ROWS[b as usize];
                SInt::range(r, r + n - 1)
            });
            let sums = cert(SInt::point);
            let starts: Vec<i64> = (0..rows.tiles())
                .rev()
                .map(|t| rows.tile_start(t))
                .collect();
            let a_in = [("A", ChainInput::Shared(&a))];
            let b_in = [("B", ChainInput::Window(0))];
            let stage = |table, output, cert, inputs, window_init| ChainStage {
                table,
                output,
                cert,
                inputs,
                window_init,
            };
            let chain = [
                stage(&double, "B", &rows, &a_in[..], Some(0.0)),
                stage(&sum, "C", &sums, &b_in[..], None),
            ];
            let mut c = vec![0.0f32; 4];
            let stats = run_chain_proven(&pool, &chain, &mut c, &starts, &[0..1, 1..starts.len()]);
            assert_eq!(c, want, "grain {grain}");
            let alone = [ChainStage {
                window_init: None,
                ..chain[0]
            }];
            let mut b = vec![0.0f32; 10];
            let alone = run_chain_proven(&pool, &alone, &mut b, &starts, &[0..1, 1..starts.len()]);
            assert_eq!((stats.len(), stats[0]), (2, alone[0]), "grain {grain}");
        }
    }

    /// A stage that reads one window through two of its inputs gets the
    /// window in both: `C = B + D` with `B` and `D` the doubling's window.
    #[test]
    fn run_blocks_proven_lends_a_window_to_two_inputs() {
        let idx = || Expr::load("row", Expr::var("b")) + Expr::var("i");
        let sum = FExpr::load("B", idx()) + FExpr::load("D", idx());
        let body = Stmt::loop_(
            "i",
            Expr::load("lens", Expr::var("b")),
            Stmt::store("C", idx(), sum),
        );
        let (double, add) = (bound(&outlined_doubling_body()), bound(&body));
        let rows = (0..4).map(|b: usize| (b, SInt::range(ROWS[b].0, ROWS[b].0 + ROWS[b].1 - 1)));
        let cert = StoreCert::tiled(0, 4, 1, rows).unwrap();
        let a: Vec<f32> = (0..10).map(|x| x as f32 - 3.0).collect();
        let a_in = [("A", ChainInput::Shared(&a))];
        let bd_in = [("B", ChainInput::Window(0)), ("D", ChainInput::Window(0))];
        let stage = |table, output, inputs, window_init| ChainStage {
            table,
            output,
            cert: &cert,
            inputs,
            window_init,
        };
        let chain = [
            stage(&double, "B", &a_in[..], Some(0.0)),
            stage(&add, "C", &bd_in[..], None),
        ];
        let mut c = vec![0.0f32; 10];
        run_chain_proven(
            &CpuPool::new(2),
            &chain,
            &mut c,
            &[3, 0, 2, 1],
            &[0..2, 2..4],
        );
        assert_eq!(c, a.iter().map(|x| 4.0 * x).collect::<Vec<_>>());
    }
}

//! Parallel block dispatch — the one VM module that contains `unsafe`.
//!
//! A chain of bound tile bodies ([`super::chain`]; one stage is a chain
//! of one) is executed across a [`CpuPool`], dispatched in *tiles* — the
//! consecutive block values a [`StoreCert`](super::StoreCert) certifies
//! together, each run by one dispatch of every stage's tile body. A worker runs a whole tile through every stage,
//! its blocks in ascending order, so only distinct tiles run
//! concurrently. Each worker keeps private registers, loop variables,
//! `Alloc` scratch and windows, reads the float inputs through shared
//! slices, and writes the chain's single shared output through
//! [`SharedOut`]. The worker's [`OutPort`]
//! ([`WorkerOut`]) enforces the disjoint-store contract — bounds, the
//! tile's certified regions and the [`OutOwners`] tracker all run
//! *before* any cell is touched — so the shared dispatch loop and buffer
//! view ([`super::dispatch`], [`super::bufs`]) stay free of `unsafe`.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Mutex, OnceLock};

use cora_ir::interval::SInt;

use super::bufs::OutPort;
use super::chain::{self, ChainStage, Worker};
use crate::cpu::CpuPool;
use crate::interp::InterpStats;

/// True when the per-element owning-block tracker should run: always in
/// debug builds, and in release builds when `CORA_CHECK_DISJOINT=1`
/// opts in — the verifier cross-check the `verify` CI job uses to run
/// a release-speed encoder batch under full dynamic enforcement.
fn dynamic_check_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        cfg!(debug_assertions) || std::env::var("CORA_CHECK_DISJOINT").is_ok_and(|v| v == "1")
    })
}

/// The kernel output buffer shared by every parallel worker.
///
/// Built safely from an exclusive `&mut [f32]` via
/// [`Cell::from_mut`]/[`Cell::as_slice_of_cells`]; the only `unsafe` is
/// the `Sync` impl and the raw-pointer cell accesses below.
///
/// # Safety
///
/// Unsynchronized writes through the cells are sound *given* the
/// disjoint-store contract of [`run_blocks`]: every store
/// executed for a block of tile `t` targets an element owned by `t`,
/// distinct tiles own disjoint element sets, one worker runs all of a
/// tile's blocks, and reads through `SharedOut::get` only observe
/// elements owned by the reading tile (read-modify-write reductions) —
/// so no location is ever accessed from two threads without ordering.
/// The exclusive borrow keeps all other access paths frozen for the
/// region's lifetime, and [`CpuPool::parallel_for`] joins every worker
/// before `run_blocks` returns.
///
/// The contract is discharged in layers (the README's "Safety &
/// verification" story). Statically, the outliner's taint screen is a
/// fast necessary-filter and `cora_core::verify` then *proves*
/// disjointness per tile by abstract interpretation over strided
/// intervals, recording the proof as a [`StoreCert`](super::StoreCert). At run time the
/// only public entry point, [`run_chain_proven`], takes that
/// certificate, dispatches whole tiles, and [`WorkerOut`] checks
/// membership on every store, so even a verifier bug panics
/// deterministically instead of racing; in debug builds — and release
/// builds under `CORA_CHECK_DISJOINT=1` — the [`OutOwners`] tracker
/// additionally records each element's owning tile and panics on any
/// cross-tile overlap. The uncertified [`run_blocks`] is
/// private to this module: only the unit tests below (the suites CI runs
/// under `miri`) reach it, to drive the tracker and the raw cell
/// accesses without a certificate.
struct SharedOut<'a>(&'a [Cell<f32>]);

// SAFETY: see the type-level contract above — concurrent access is
// restricted to disjoint cells by the outliner.
#[allow(unsafe_code)]
unsafe impl Sync for SharedOut<'_> {}

impl<'a> SharedOut<'a> {
    fn new(buf: &'a mut [f32]) -> SharedOut<'a> {
        SharedOut(Cell::from_mut(buf).as_slice_of_cells())
    }

    #[inline]
    #[allow(unsafe_code)]
    fn get(&self, idx: usize) -> f32 {
        // SAFETY: only the block owning this element accesses it (see the
        // type-level contract), so the read cannot race a write.
        unsafe { *self.0[idx].as_ptr() }
    }

    #[inline]
    #[allow(unsafe_code)]
    fn set(&self, idx: usize, v: f32) {
        // SAFETY: as for `get` — this thread is the element's only
        // accessor during the region.
        unsafe { *self.0[idx].as_ptr() = v }
    }

    /// Exclusive mutable view of `[start, start + n)`, for the chunked
    /// store sweeps and panel kernels.
    ///
    /// # Safety
    ///
    /// The executing block must own every element of the range under the
    /// disjoint-store contract (its stores all land there and no other
    /// block touches it), making the access exclusive for the view's
    /// lifetime. Debug builds claim each element beforehand, so a
    /// violated contract panics instead of racing.
    #[inline]
    #[allow(unsafe_code)]
    #[allow(clippy::mut_from_ref)] // exclusivity is the method's safety contract
    unsafe fn slice_mut(&self, start: usize, n: usize) -> &mut [f32] {
        assert!(start + n <= self.0.len(), "panel range out of bounds");
        // SAFETY: cells are layout-identical to f32 and the caller
        // guarantees exclusive ownership of the range (see above).
        unsafe { std::slice::from_raw_parts_mut(self.0[start].as_ptr(), n) }
    }
}

/// Dynamic enforcement of the disjoint-store contract: one atomic
/// owner record per output element, claimed by the first tile (named by
/// its first block value) that stores there. A second tile claiming the
/// same element means the contract the `unsafe impl Sync` relies on is
/// violated — panic
/// deterministically instead of racing. Active in every debug build
/// and, via `CORA_CHECK_DISJOINT=1` (see [`dynamic_check_enabled`]),
/// in release builds as the verifier's runtime cross-check.
struct OutOwners(Vec<AtomicI64>);

impl OutOwners {
    const UNCLAIMED: i64 = i64::MIN;

    fn new(len: usize) -> OutOwners {
        OutOwners((0..len).map(|_| AtomicI64::new(Self::UNCLAIMED)).collect())
    }

    fn claim(&self, idx: usize, tile: i64) {
        if let Err(owner) = self.0[idx].compare_exchange(
            Self::UNCLAIMED,
            tile,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            assert!(
                owner == tile,
                "disjoint-store contract violated: the tiles starting at blocks \
                 {owner} and {tile} both stored to output element {idx}"
            );
        }
    }
}

/// A parallel worker's [`OutPort`]: the shared output, with every store
/// checked — bounds, then certificate membership, then the owner
/// tracker — before the cell is written.
struct WorkerOut<'a> {
    out: &'a SharedOut<'a>,
    /// The output buffer's name (bounds diagnostics).
    name: &'a str,
    /// Per-element owner records, when the dynamic tracker is active
    /// (debug builds, or release under `CORA_CHECK_DISJOINT=1`).
    owners: Option<&'a OutOwners>,
    /// First block value of the executing tile (owner records).
    tile: i64,
    /// Block-variable value currently executing (diagnostics).
    cur_block: i64,
    /// The certified store regions of the executing tile under
    /// [`run_chain_proven`]; `None` only for the in-module uncertified
    /// runs.
    regions: Option<&'a [SInt]>,
}

impl WorkerOut<'_> {
    #[inline]
    fn bounds_check(&self, idx: usize) {
        assert!(
            idx < self.out.0.len(),
            "index {idx} out of bounds for output `{}` (len {})",
            self.name,
            self.out.0.len()
        );
    }

    #[inline]
    fn claim(&self, idx: usize) {
        self.bounds_check(idx);
        if let Some(regions) = self.regions {
            assert!(
                regions.iter().any(|r| r.contains(idx as i64)),
                "store to output element {idx} outside block {}'s certified regions",
                self.cur_block
            );
        }
        if let Some(owners) = self.owners {
            owners.claim(idx, self.tile);
        }
    }

    /// [`WorkerOut::claim`] for a dense run `[o0, o0 + n)` — the
    /// chunked store paths. Certificate membership is checked once per
    /// run ([`SInt::contains_run`]); owner records still claim each
    /// element when the tracker is active.
    #[inline]
    fn claim_run(&self, o0: usize, n: usize) {
        if n == 0 {
            return;
        }
        self.bounds_check(o0 + n - 1);
        if let Some(regions) = self.regions {
            assert!(
                regions.iter().any(|r| r.contains_run(o0 as i64, n as i64)),
                "store run [{o0}, {}) outside block {}'s certified regions",
                o0 + n,
                self.cur_block
            );
        }
        if let Some(owners) = self.owners {
            for idx in o0..o0 + n {
                owners.claim(idx, self.tile);
            }
        }
    }
}

impl OutPort for WorkerOut<'_> {
    /// Reads of the shared output go through [`OutPort::get`], element
    /// by element.
    #[inline]
    fn ro(&self) -> Option<&[f32]> {
        None
    }

    #[inline]
    fn get(&self, idx: usize) -> f32 {
        self.bounds_check(idx);
        self.out.get(idx)
    }

    #[inline]
    fn set(&mut self, idx: usize, v: f32) {
        self.claim(idx);
        self.out.set(idx, v);
    }

    #[inline]
    fn rmw(&mut self, idx: usize, f: impl FnOnce(f32) -> f32) {
        self.claim(idx);
        self.out.set(idx, f(self.out.get(idx)));
    }

    #[allow(unsafe_code)] // exclusive run view of the shared output; see SAFETY below
    fn run_mut(&mut self, o0: usize, n: usize) -> &mut [f32] {
        if n == 0 {
            return &mut [];
        }
        self.claim_run(o0, n);
        // SAFETY: this block stores to exactly `[o0, o0 + n)` of the
        // output (checked against the certificate and claimed above
        // when the tracker is active); under the disjoint-store
        // contract no other block accesses those elements, so the view
        // is exclusive.
        unsafe { self.out.slice_mut(o0, n) }
    }

    /// Only under a certificate: in bounds and inside one region.
    #[inline]
    fn covers(&self, o0: usize, n: usize) -> bool {
        let fits = o0.checked_add(n).is_some_and(|end| end <= self.out.0.len());
        let certified = |r: &[SInt]| r.iter().any(|r| r.contains_run(o0 as i64, n as i64));
        fits && self.regions.is_some_and(certified)
    }

    fn reject_input_store(name: &str) -> ! {
        // The outliner rejects such programs statically; reaching this
        // means a compiler bug, not a user error.
        panic!("parallel block stored to shared input buffer `{name}`")
    }

    #[inline]
    fn enter_block(&mut self, block: i64) {
        self.cur_block = block;
    }
}

/// Executes a chain of outlined tile bodies
/// ([`compile_tile`](super::compile_tile)) across `pool`, tile by tile, under their machine-checked disjoint-store certificates — the
/// one public parallel entry point, and a *safe* one. A single stage is
/// a chain of one.
///
/// `tiles` holds the first block value of each tile
/// ([`StoreCert::tile_start`](super::StoreCert::tile_start)) in dispatch
/// order, and `batches` cuts it into consecutive cost-balanced ranges;
/// each batch runs on one participant of `pool`, which runs every tile
/// of it through every [`ChainStage`] in order — no batch can split a
/// tile. Each stage keeps its own registers, loop variables and `Alloc`
/// scratch per worker; every stage but the last writes a per-worker
/// window, and all stores of the last stage land in `out`. Per-worker
/// [`InterpStats`] are summed per stage, so each stage's aggregate
/// equals its serial statistics exactly.
///
/// Soundness is enforced, not assumed:
/// [`StoreCert::tiled`](super::StoreCert::tiled) has already
/// re-validated that distinct tiles' certified regions are
/// pairwise disjoint, and every store — to `out` or to a window — is
/// checked for membership in the executing tile's regions before it
/// lands. A store outside its certificate — i.e. any disagreement
/// between the static verifier (`cora_core::verify`) and the actual
/// execution — panics deterministically before the write, so no
/// interleaving can produce a data race. That is what makes this
/// function safe to expose despite the internal `unsafe` dispatch.
///
/// # Panics
///
/// Panics on a program that is not a tile body, an unknown output, a
/// program that loads its own output, a missing binding or a malformed
/// chain (a window input naming a later stage, a window on the last
/// stage or none on another), if `batches` overlap or dispatch a tile twice, if a value of
/// `tiles` lies inside a certificate without starting a tile, if the
/// stages tile the blocks differently, on any store outside the
/// executing tile's certified regions, or if a program itself panics
/// (out-of-bounds access, negative index) — propagated after the region
/// drains.
pub fn run_chain_proven(
    pool: &CpuPool,
    chain: &[ChainStage<'_>],
    out: &mut [f32],
    tiles: &[i64],
    batches: &[Range<usize>],
) -> Vec<InterpStats> {
    let last = chain.last().expect("a chain holds at least one stage");
    last.cert.check_dispatch(tiles, batches);
    // SAFETY: no tile is dispatched twice (checked just above), so a
    // tile's blocks run on one worker; every store to `out` is checked
    // against the executing tile's certified regions before it happens,
    // and distinct tiles' regions are pairwise disjoint by `StoreCert`'s
    // construction-time validation — so two threads never touch the same
    // output element, which is exactly the `run_blocks` contract.
    #[allow(unsafe_code)]
    unsafe {
        run_blocks(pool, chain, out, tiles, batches, true)
    }
}

/// The dispatch behind [`run_chain_proven`]; with `certified == false`
/// stores to `out` are checked only by the dynamic tracker (tile lengths
/// still come from the last stage's certificate).
///
/// # Safety
///
/// The caller must guarantee the disjoint-store contract: across all
/// of `tiles`, distinct tiles store to disjoint elements of `out` and
/// never load another tile's elements (see [`SharedOut`]). A
/// certificate discharges it. Without one, two helpers reduce the
/// obligation but do not discharge it: in-place programs (output
/// loaded *and* stored) are rejected up front, and the dynamic
/// tracker (debug builds, or release under `CORA_CHECK_DISJOINT=1`)
/// records each output element's owning tile, panicking
/// deterministically on any cross-tile overlap — untracked release
/// builds run unchecked, so a violated contract is a data race
/// (undefined behaviour). Windows are private to a worker and take no
/// part in the contract.
#[allow(unsafe_code)]
unsafe fn run_blocks(
    pool: &CpuPool,
    chain: &[ChainStage<'_>],
    out: &mut [f32],
    tiles: &[i64],
    batches: &[Range<usize>],
    certified: bool,
) -> Vec<InterpStats> {
    let stages = chain::resolve(chain);
    let last = chain.last().expect("resolved");
    let owners = dynamic_check_enabled().then(|| OutOwners::new(out.len()));
    let shared_out = SharedOut::new(out);
    let total = Mutex::new(vec![InterpStats::default(); chain.len()]);
    pool.parallel_for(batches.len(), |bi| {
        let port = WorkerOut {
            out: &shared_out,
            name: last.output,
            owners: owners.as_ref(),
            tile: 0,
            cur_block: 0,
            regions: None,
        };
        let mut worker = Worker::new(&stages, port);
        for &first in &tiles[batches[bi].clone()] {
            let (len, regions) = last.cert.tile_at(first);
            let port = worker.last_port();
            (port.tile, port.regions) = (first, certified.then_some(regions));
            worker.run_tile(&stages, first, len);
        }
        let mut t = total.lock().unwrap_or_else(|e| e.into_inner());
        for (sum, stats) in t.iter_mut().zip(&worker.stats) {
            *sum += *stats;
        }
    });
    total.into_inner().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use cora_ir::{Expr, FExpr, ForKind, Stmt, StoreKind};

    use super::super::chain::ChainInput;
    use super::super::testutil::outlined_doubling_body;
    use super::super::{compile, compile_tile};
    use super::super::{StoreCert, VmShared};
    use super::*;

    /// `shared` as a one-stage chain writing `output`, under `cert`.
    fn one_stage<'a>(
        shared: &'a VmShared,
        output: &'a str,
        inputs: &'a [(&'a str, ChainInput<'a>)],
        cert: &'a StoreCert,
    ) -> [ChainStage<'a>; 1] {
        [ChainStage {
            table: shared,
            output,
            cert,
            inputs,
            window_init: None,
        }]
    }

    fn shared_inputs<'a>(inputs: &[(&'a str, &'a [f32])]) -> Vec<(&'a str, ChainInput<'a>)> {
        (inputs.iter())
            .map(|&(n, b)| (n, ChainInput::Shared(b)))
            .collect()
    }

    /// The uncertified dispatch: stores are checked only by the dynamic
    /// tracker (always on in these debug-profile tests).
    fn run_raw(
        shared: &VmShared,
        pool: &CpuPool,
        output: &str,
        out: &mut [f32],
        inputs: &[(&str, &[f32])],
        batches: &[Vec<i64>],
    ) -> InterpStats {
        let (blocks, ranges) = flat(batches);
        let (inputs, no_cert) = (
            shared_inputs(inputs),
            StoreCert::tiled(0, 0, 1, []).unwrap(),
        );
        let chain = one_stage(shared, output, &inputs, &no_cert);
        // SAFETY: each caller either upholds the disjoint-store contract
        // or deliberately violates it to check the guards, which fire
        // before any racing write (in-place rejection up front; debug
        // owner check before the store).
        #[allow(unsafe_code)]
        unsafe {
            run_blocks(pool, &chain, out, &blocks, &ranges, false)[0]
        }
    }

    /// The certified dispatch over nested batches of tile starts, on a
    /// 2-thread pool.
    fn run_proven(
        shared: &VmShared,
        output: &str,
        out: &mut [f32],
        inputs: &[(&str, &[f32])],
        batches: &[Vec<i64>],
        cert: &StoreCert,
    ) -> InterpStats {
        let (tiles, ranges) = flat(batches);
        let pool = CpuPool::new(2);
        shared.run_blocks_proven(&pool, output, out, inputs, &tiles, &ranges, cert)
    }

    /// Nested batches as the flat `(blocks, ranges)` pair the dispatch
    /// takes.
    fn flat(batches: &[Vec<i64>]) -> (Vec<i64>, Vec<Range<usize>>) {
        let mut ranges = Vec::new();
        let mut at = 0;
        for b in batches {
            ranges.push(at..at + b.len());
            at += b.len();
        }
        (batches.concat(), ranges)
    }

    /// The doubling body's binding table for the 4-row ragged shape.
    fn doubling_shared() -> VmShared {
        let mut shared = Arc::new(compile_tile(&outlined_doubling_body(), "b")).shared();
        shared.set_ibuffer("lens", vec![5, 0, 3, 2]);
        shared.set_ibuffer("row", vec![0, 5, 5, 8]);
        shared
    }

    /// Runs `outlined_doubling_body` serially (block loop on one machine)
    /// and in parallel over `batches`, asserting identical outputs and
    /// stats.
    fn parallel_matches_serial(pool: &CpuPool, batches: &[Vec<i64>]) {
        let n = 10usize;
        let input: Vec<f32> = (0..n).map(|x| x as f32 - 4.5).collect();

        // Serial reference: wrap the body in the block loop.
        let serial = Stmt::loop_kind(
            "b",
            Expr::int(4),
            ForKind::GpuBlockX,
            outlined_doubling_body(),
        );
        let mut sm = Arc::new(compile(&serial)).machine();
        sm.set_ibuffer("lens", vec![5, 0, 3, 2]);
        sm.set_ibuffer("row", vec![0, 5, 5, 8]);
        sm.set_fbuffer("A", input.clone());
        sm.set_fbuffer("B", vec![0.0; n]);
        sm.run();

        // Parallel: compile only the body, as a tile body.
        let shared = doubling_shared();
        let mut out = vec![0.0f32; n];
        let stats = run_raw(&shared, pool, "B", &mut out, &[("A", &input)], batches);

        assert_eq!(sm.fbuffer("B").unwrap(), out.as_slice());
        // The serial program additionally charges the block loop's own
        // bound evaluation (a constant here: zero aux loads), so the sums
        // must line up exactly.
        assert_eq!(sm.stats, stats);
    }

    #[test]
    fn run_blocks_matches_serial_execution() {
        let pool = CpuPool::new(4);
        parallel_matches_serial(&pool, &[vec![0], vec![1], vec![2], vec![3]]);
        parallel_matches_serial(&pool, &[vec![3, 1], vec![0, 2]]);
        parallel_matches_serial(&pool, &[vec![0, 1, 2, 3]]);
    }

    #[test]
    fn run_blocks_zero_batches_is_noop() {
        let shared = doubling_shared();
        let mut out = vec![7.0f32];
        let pool = CpuPool::new(2);
        let stats = run_raw(&shared, &pool, "B", &mut out, &[("A", &[1.0])], &[]);
        assert_eq!(stats, InterpStats::default());
        assert_eq!(out, vec![7.0]);
    }

    /// The row partition of `outlined_doubling_body`: block `b` owns
    /// `[row[b], row[b] + lens[b])`.
    fn doubling_spans() -> Vec<(usize, SInt)> {
        let lens = [5i64, 0, 3, 2];
        let row = [0i64, 5, 5, 8];
        (0..4)
            .map(|b| (b, SInt::range(row[b], row[b] + lens[b] - 1)))
            .collect()
    }

    fn doubling_cert() -> StoreCert {
        StoreCert::tiled(0, 4, 1, doubling_spans()).expect("rows are disjoint")
    }

    #[test]
    fn run_blocks_proven_matches_unsafe_entry_point() {
        let input: Vec<f32> = (0..10).map(|x| x as f32 - 4.5).collect();
        let inputs: [(&str, &[f32]); 1] = [("A", &input)];
        let shared = doubling_shared();
        let pool = CpuPool::new(3);
        let batches = vec![vec![0, 2], vec![1, 3]];
        let mut reference = vec![0.0f32; 10];
        let ref_stats = run_raw(&shared, &pool, "B", &mut reference, &inputs, &batches);
        let mut proven = vec![0.0f32; 10];
        let cert = doubling_cert();
        let stats = run_proven(&shared, "B", &mut proven, &inputs, &batches, &cert);
        assert_eq!(proven, reference);
        assert_eq!(stats, ref_stats);
    }

    /// Dispatches every block value of the doubling body as a tile
    /// start under `cert`.
    fn run_doubling_under(cert: &StoreCert) {
        let inputs = [("A", &[1.0; 10][..])];
        run_proven(
            &doubling_shared(),
            "B",
            &mut [0.0; 10],
            &inputs,
            &[vec![0, 1, 2, 3]],
            cert,
        );
    }

    #[test]
    #[should_panic(expected = "outside block 3's certified regions")]
    fn run_blocks_proven_rejects_uncertified_stores() {
        // A certificate that certifies every block except 3: the store
        // must panic before it lands, not race.
        let mut spans = doubling_spans();
        spans.retain(|&(b, _)| b != 3);
        run_doubling_under(&StoreCert::tiled(0, 4, 1, spans).unwrap());
    }

    #[test]
    #[should_panic(expected = "store run [8, 10) outside block 3's certified regions")]
    fn run_blocks_proven_rejects_a_certificate_shifted_by_one_element() {
        // Block 3 stores [8, 9]; certify [9, 10] instead — still a valid
        // (pairwise disjoint) certificate, so only the per-store check
        // can catch it, at the block's first store.
        let mut spans = doubling_spans();
        spans[3].1 = SInt::range(9, 10);
        run_doubling_under(&StoreCert::tiled(0, 4, 1, spans).unwrap());
    }

    #[test]
    #[should_panic(expected = "outside block 2's certified regions")]
    fn run_blocks_proven_names_the_block_of_a_bytecode_tile_loop() {
        // `out[b] = b` has no nest to fuse, so the tile body's block loop
        // runs in bytecode; its first instruction announces the block,
        // so the store the certificate rejects names block 2, not the
        // tile's first block.
        let body = Stmt::store("out", Expr::var("b"), FExpr::cast(Expr::var("b")));
        let program = compile_tile(&body, "b");
        assert!(program.to_string().contains("block    b@"), "{program}");
        let shared = Arc::new(program).shared();
        // Tile [2, 4) certifies only element 3.
        let spans = [(0usize, SInt::range(0, 1)), (1, SInt::point(3))];
        let cert = StoreCert::tiled(0, 4, 2, spans).unwrap();
        run_proven(&shared, "out", &mut [0.0; 4], &[], &[vec![0, 2]], &cert);
    }

    #[test]
    fn run_blocks_proven_runs_whole_tiles_in_any_dispatch_order() {
        // Tiles of three rows: [0, 3) owns the hull [0, 7] of rows 0–2,
        // [3, 4) owns row 3's [8, 9]. Dispatched last tile first, in one
        // batch or two, output and statistics equal the per-block run's.
        let input: Vec<f32> = (0..10).map(|x| x as f32 - 4.5).collect();
        let inputs: [(&str, &[f32]); 1] = [("A", &input)];
        let shared = doubling_shared();
        let (mut want, per_block) = (vec![0.0f32; 10], [vec![0], vec![1], vec![2], vec![3]]);
        let pool = CpuPool::new(2);
        let want_stats = run_raw(&shared, &pool, "B", &mut want, &inputs, &per_block);
        let spans = [(0usize, SInt::range(0, 7)), (1, SInt::range(8, 9))];
        let cert = StoreCert::tiled(0, 4, 3, spans).expect("the two tiles are disjoint");
        for batches in [vec![vec![3], vec![0]], vec![vec![3, 0]]] {
            let mut out = vec![0.0f32; 10];
            let stats = run_proven(&shared, "B", &mut out, &inputs, &batches, &cert);
            assert_eq!((out, stats), (want.clone(), want_stats));
        }
    }

    #[test]
    fn run_blocks_tracker_lets_the_blocks_of_one_tile_share_elements() {
        // out[b div 2] += 1 over four blocks: blocks 0 and 1 both reduce
        // into out[0]. Tiles of two own one element each, so one worker
        // runs both writers in order and the tracker — always on in
        // these debug-profile tests — sees one owner per element.
        let body = Stmt::Store {
            buffer: "out".into(),
            index: Expr::var("b").floor_div(Expr::int(2)),
            value: FExpr::constant(1.0),
            kind: StoreKind::AddAssign,
        };
        let shared = Arc::new(compile_tile(&body, "b")).shared();
        let spans = [(0usize, SInt::point(0)), (1, SInt::point(1))];
        let cert = StoreCert::tiled(0, 4, 2, spans).expect("one element per tile");
        let mut out = vec![0.0f32; 2];
        run_proven(&shared, "out", &mut out, &[], &[vec![2], vec![0]], &cert);
        assert_eq!(out, [2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "the tile of block 1 is dispatched twice")]
    fn run_blocks_proven_rejects_a_dispatch_from_inside_a_tile() {
        // Dispatching blocks 0–3 one by one would run block 1 — inside
        // tile [0, 3) — beside the worker that owns that tile.
        let spans = [(0usize, SInt::range(0, 7)), (1, SInt::range(8, 9))];
        run_doubling_under(&StoreCert::tiled(0, 4, 3, spans).unwrap());
    }

    #[test]
    fn run_blocks_gives_each_worker_private_scratch() {
        // Each block fills a scratch tile with its own block index and
        // reduces it into its private output cell; racing scratch would
        // corrupt the sums.
        let fill = Stmt::loop_(
            "i",
            Expr::int(8),
            Stmt::store("tile", Expr::var("i"), FExpr::cast(Expr::var("b"))),
        );
        let acc = Stmt::loop_(
            "i",
            Expr::int(8),
            Stmt::Store {
                buffer: "out".into(),
                index: Expr::var("b"),
                value: FExpr::load("tile", Expr::var("i")),
                kind: StoreKind::AddAssign,
            },
        );
        let body = Stmt::Alloc {
            buffer: "tile".into(),
            size: Expr::int(8),
            body: Box::new(fill.then(acc)),
        };
        let shared = Arc::new(compile_tile(&body, "b")).shared();
        let mut out = vec![0.0f32; 16];
        let batches: Vec<Vec<i64>> = (0..16).map(|b| vec![b]).collect();
        run_raw(&shared, &CpuPool::new(4), "out", &mut out, &[], &batches);
        let want: Vec<f32> = (0..16).map(|b| 8.0 * b as f32).collect();
        assert_eq!(out, want);
    }

    /// Two single-block batches over a 2-thread pool.
    fn run_two_blocks(shared: &VmShared, output: &str, out: &mut [f32], inputs: &[(&str, &[f32])]) {
        let batches = [vec![0], vec![1]];
        run_raw(shared, &CpuPool::new(2), output, out, inputs, &batches);
    }

    #[test]
    #[should_panic(expected = "forbids in-place output access")]
    fn run_blocks_rejects_inplace_output_programs() {
        // out[b] = out[1 - b] * 2: block 0 would read the element block 1
        // writes — rejected up front, in release builds too.
        let body = Stmt::store(
            "out",
            Expr::var("b"),
            FExpr::load("out", Expr::int(1) - Expr::var("b")) * 2.0,
        );
        let shared = Arc::new(compile_tile(&body, "b")).shared();
        run_two_blocks(&shared, "out", &mut [0.0; 2], &[]);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn cross_block_store_overlap_panics_in_debug() {
        // Both blocks store to out[0]: the disjoint-store contract is
        // violated, and debug builds must fail deterministically instead
        // of racing.
        let body = Stmt::store("out", Expr::int(0), FExpr::cast(Expr::var("b")));
        let shared = Arc::new(compile_tile(&body, "b")).shared();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_two_blocks(&shared, "out", &mut [0.0; 1], &[]);
        }));
        let payload = r.expect_err("overlapping stores must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("disjoint-store contract violated"),
            "unexpected panic payload: {msg}"
        );
    }

    #[test]
    #[should_panic(expected = "missing auxiliary buffer `lens`")]
    fn run_blocks_checks_bindings() {
        let mut shared = Arc::new(compile_tile(&outlined_doubling_body(), "b")).shared();
        shared.set_ibuffer("row", vec![0]);
        let pool = CpuPool::new(1);
        run_raw(
            &shared,
            &pool,
            "B",
            &mut [0.0],
            &[("A", &[1.0])],
            &[vec![0]],
        );
    }

    #[test]
    #[should_panic(expected = "not a tile body: no free variable `tile.first`")]
    fn run_blocks_rejects_a_program_that_is_not_a_tile_body() {
        // The block body itself, compiled as a whole program: it has the
        // block variable free, not the tile bounds.
        let shared = Arc::new(compile(&outlined_doubling_body())).shared();
        run_raw(&shared, &CpuPool::new(1), "B", &mut [0.0], &[], &[]);
    }

    #[test]
    fn run_blocks_propagates_body_panics() {
        // Block 1 indexes `lens` out of bounds; the panic must reach the
        // caller instead of poisoning the pool.
        let mut shared = Arc::new(compile_tile(&outlined_doubling_body(), "b")).shared();
        shared.set_ibuffer("lens", vec![1]);
        shared.set_ibuffer("row", vec![0]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_two_blocks(&shared, "B", &mut [0.0; 2], &[("A", &[1.0, 2.0])]);
        }));
        assert!(r.is_err(), "out-of-bounds block must panic the caller");
    }
}

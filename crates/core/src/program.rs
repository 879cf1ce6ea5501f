//! Compiled programs: lowered IR + prelude spec + execution entry points.
//!
//! A [`Program`] is what [`crate::lower::lower`] produces. It can:
//!
//! * render C- or CUDA-flavoured source (the codegen demonstration),
//! * execute numerically through the IR interpreter (prelude on the host,
//!   then the kernel), returning the output buffer and instruction-mix
//!   statistics,
//! * compile to the slot-resolved bytecode VM ([`Program::compile`] /
//!   [`Program::run_compiled`]) for order-of-magnitude faster numeric
//!   execution with bit-identical outputs and statistics,
//! * execute the compiled form in parallel across the work-stealing CPU
//!   runtime ([`Program::run_compiled_parallel`]): the outermost
//!   block-bound loop is outlined ([`crate::outline`]) and its blocks
//!   dispatched in cost-balanced batches, honouring the schedule's
//!   thread-remap policy — the same dispatch-order logic the simulated
//!   GPU applies, and
//! * derive a [`SimKernel`] (per-block cost list) for the simulated GPU.

use std::borrow::Borrow;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

use cora_exec::cost::{GpuModel, KernelTraits};
use cora_exec::cpu::{cost_balanced_batches, CpuPool};
use cora_exec::gpu::SimKernel;
use cora_exec::interp::{InterpStats, Machine};
use cora_exec::microkernel::MathMode;
use cora_exec::vm::{run_chain_proven, ChainInput, ChainStage, VmMachine, VmProgram, VmShared};
use cora_ir::{Env, Expr, Stmt};

use crate::outline::{outline, HoistedLet};
use crate::prelude_gen::{PreludeData, PreludeSpec};
use crate::schedule::{RemapPolicy, ScheduleError};
use crate::verify::{ProofProgram, VerifyCtx, VerifyOutcome};

/// Estimated work of one thread block.
#[derive(Debug, Clone, Copy)]
pub struct BlockCost {
    /// FLOPs the block executes.
    pub flops: f64,
}

/// Result of running a program numerically.
#[derive(Debug)]
pub struct RunResult {
    /// The output buffer.
    pub output: Vec<f32>,
    /// Interpreter statistics (flops, guards, aux loads, stores).
    pub stats: InterpStats,
    /// The prelude data that was built (with timing/bytes accounting).
    pub prelude: PreludeData,
}

/// A compiled ragged operator.
#[derive(Debug)]
pub struct Program {
    name: String,
    stmt: Stmt,
    prelude: PreludeSpec,
    remap: RemapPolicy,
    output_name: String,
    output_size: usize,
    init: f32,
    block_costs: Vec<BlockCost>,
}

impl Program {
    /// Assembles a program (called by the lowering pipeline).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        name: String,
        stmt: Stmt,
        prelude: PreludeSpec,
        remap: RemapPolicy,
        output_name: String,
        output_size: usize,
        init: f32,
        block_costs: Vec<BlockCost>,
    ) -> Program {
        Program {
            name,
            stmt,
            prelude,
            remap,
            output_name,
            output_size,
            init,
            block_costs,
        }
    }

    /// Program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The lowered statement IR.
    pub fn stmt(&self) -> &Stmt {
        &self.stmt
    }

    /// The prelude requirements.
    pub fn prelude_spec(&self) -> &PreludeSpec {
        &self.prelude
    }

    /// Output buffer name.
    pub fn output_name(&self) -> &str {
        &self.output_name
    }

    /// Output buffer length in elements.
    pub fn output_size(&self) -> usize {
        self.output_size
    }

    /// CUDA-flavoured source for the kernel.
    pub fn cuda_source(&self) -> String {
        format!(
            "// kernel `{}` (generated by cora-core)\n{}",
            self.name,
            cora_ir::printer::print_cuda(&self.stmt)
        )
    }

    /// C-flavoured source for the kernel.
    pub fn c_source(&self) -> String {
        format!(
            "// kernel `{}` (generated by cora-core)\n{}",
            self.name,
            cora_ir::printer::print_c(&self.stmt)
        )
    }

    /// Builds the prelude and installs everything into a fresh machine,
    /// together with the given input buffers.
    pub fn prepare(&self, inputs: &[(&str, Vec<f32>)]) -> (Machine, PreludeData) {
        let data = self.prelude.build();
        let mut m = Machine::new();
        for (name, buf) in &data.int_buffers {
            m.env.set_buffer(name.clone(), Arc::clone(buf));
        }
        for (name, v) in &data.params {
            m.env.bind(name.clone(), *v);
        }
        for (name, buf) in inputs {
            m.set_fbuffer(name.to_string(), buf.clone());
        }
        m.set_fbuffer(self.output_name.clone(), vec![self.init; self.output_size]);
        (m, data)
    }

    /// Executes the program numerically: prelude, then kernel.
    ///
    /// # Panics
    ///
    /// Panics if an input buffer the kernel reads was not supplied.
    pub fn run(&self, inputs: &[(&str, Vec<f32>)]) -> RunResult {
        let (mut m, prelude) = self.prepare(inputs);
        m.run(&self.stmt);
        let output = m
            .take_fbuffer(&self.output_name)
            .expect("output buffer exists");
        RunResult {
            output,
            stats: m.stats,
            prelude,
        }
    }

    /// Compiles the kernel to slot-resolved bytecode (reusable across
    /// runs: compile once, execute many). The outermost block axis, if
    /// any, is additionally outlined into a parallel entry point; an
    /// un-outlinable block axis is recorded and surfaced by
    /// [`CompiledProgram::run_parallel`].
    pub fn compile(&self) -> CompiledProgram {
        let parallel = outline(&self.stmt, &self.output_name).map(|opt| {
            opt.map(|o| {
                let body = cora_exec::vm::compile_tile(&o.body, &o.block_var);
                body.validate().unwrap_or_else(|e| {
                    panic!(
                        "compiler bug: outlined bytecode for `{}` failed validation: {e}",
                        self.name
                    )
                });
                ParallelKernel {
                    proof: ProofProgram::build(&o.body, &o.block_var, &self.output_name),
                    body: Arc::new(body),
                    block_var: o.block_var,
                    hoisted: o.hoisted,
                    min: o.min,
                    extent: o.extent,
                    bounds_aux: o.bounds_aux,
                }
            })
        });
        let vm = cora_exec::vm::compile(&self.stmt);
        vm.validate().unwrap_or_else(|e| {
            panic!(
                "compiler bug: bytecode for `{}` failed validation: {e}",
                self.name
            )
        });
        self.bind(Rc::new(ProgramCode {
            stmt: self.stmt.clone(),
            vm: Arc::new(vm),
            parallel,
            remap: self.remap,
            output_name: self.output_name.clone(),
            init: self.init,
        }))
    }

    /// This program at its own shape over `code`'s compiled code: what
    /// [`Program::compile`] returns, minus the compiling. `code` may come
    /// from this operator lowered at any other shape — shape parameters
    /// and prelude tables are all a shape changes, so the two lowered
    /// statements are equal and one compiled program serves both. The
    /// result shares `code`'s bytecode, outlined body, proof program and
    /// math mode, and carries this program's prelude, output size and
    /// block costs.
    ///
    /// # Panics
    ///
    /// Panics if `code` was compiled from a different statement (or
    /// output, initial value or remap policy). For two shapes of one
    /// operator that is a compiler bug: lowering chose code from a
    /// shape-dependent value. There is no fallback compile.
    pub fn rebind(&self, code: &CompiledProgram) -> CompiledProgram {
        let c = &code.code;
        assert!(
            c.stmt == self.stmt
                && c.output_name == self.output_name
                && c.init.to_bits() == self.init.to_bits()
                && c.remap == self.remap,
            "compiler bug: `{}` lowered to a different program than the code it is \
             rebound to, so its lowering depends on a shape value",
            self.name
        );
        self.bind(Rc::clone(c))
    }

    /// `code` with this program's per-shape part.
    fn bind(&self, code: Rc<ProgramCode>) -> CompiledProgram {
        CompiledProgram {
            code,
            prelude: self.prelude.clone(),
            output_size: self.output_size,
            block_costs: self.block_costs.clone(),
        }
    }

    /// Executes the program through the bytecode VM: prelude, then the
    /// compiled kernel. Produces bit-identical output and identical
    /// [`InterpStats`] to [`Program::run`].
    ///
    /// Convenience for one-shot execution: it compiles on every call.
    /// For repeated execution, call [`Program::compile`] once and reuse
    /// the [`CompiledProgram`].
    ///
    /// # Panics
    ///
    /// Panics if an input buffer the kernel reads was not supplied.
    pub fn run_compiled(&self, inputs: &[(&str, Vec<f32>)]) -> RunResult {
        self.compile().run(inputs)
    }

    /// Executes the compiled program with its outermost block axis
    /// dispatched in parallel across `pool` — one-shot convenience over
    /// [`Program::compile`] + [`CompiledProgram::run_parallel`] (which
    /// hoists compilation out of repeated runs).
    ///
    /// Produces bit-identical output and identical aggregated
    /// [`InterpStats`] to [`Program::run`] / [`Program::run_compiled`];
    /// see [`CompiledProgram::run_parallel`] for the safety argument and
    /// scheduling details. Falls back to (equivalent) serial execution
    /// when no loop is bound to a block axis.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::BlockAxisNotOutlinable`] when a block
    /// axis is bound but cannot be outlined (e.g. it is nested inside a
    /// serial loop).
    ///
    /// # Panics
    ///
    /// Panics if an input buffer the kernel reads was not supplied.
    pub fn run_compiled_parallel(
        &self,
        pool: &CpuPool,
        inputs: &[(&str, Vec<f32>)],
    ) -> Result<RunResult, ScheduleError> {
        self.compile().run_parallel(pool, inputs)
    }

    /// Raw per-block FLOP estimates (before remapping).
    pub fn block_costs(&self) -> &[BlockCost] {
        &self.block_costs
    }

    /// Derives the simulated-GPU kernel: block times under `traits`,
    /// permuted by the schedule's thread-remap policy (the same
    /// [`dispatch_order`] the CPU parallel tier batches by).
    pub fn sim_kernel(&self, model: &GpuModel, traits: KernelTraits) -> SimKernel {
        let blocks: Vec<f64> = self
            .block_costs
            .iter()
            .map(|b| model.block_time_us(b.flops, traits))
            .collect();
        let order = dispatch_order(self.remap, &blocks);
        SimKernel::new(self.name.clone(), blocks).remap_with(|i| order[i])
    }
}

/// Block dispatch order under a thread-remap policy: `order[i]` is the
/// original block index dispatched at position `i`. This is the single
/// source of the §4.1 load-balancing permutation, shared by the
/// simulated GPU ([`Program::sim_kernel`]) and the CPU parallel tier
/// ([`CompiledProgram::run_parallel`]), which packs blocks into
/// cost-balanced batches in exactly this order so the heaviest blocks
/// start first.
pub fn dispatch_order(remap: RemapPolicy, costs: &[f64]) -> Vec<usize> {
    let n = costs.len();
    match remap {
        RemapPolicy::Identity => (0..n).collect(),
        RemapPolicy::LongestFirst => {
            let mut idx: Vec<usize> = (0..n).collect();
            idx.sort_by(|&a, &b| {
                costs[b]
                    .partial_cmp(&costs[a])
                    .expect("block costs are finite")
            });
            idx
        }
    }
}

/// A [`Program`] compiled to the slot-resolved bytecode VM.
///
/// Compilation happens once; each [`CompiledProgram::run`] builds the
/// prelude and executes the flat instruction stream — same I/O contract
/// as [`Program::run`], same statistics, no tree walking.
/// [`CompiledProgram::run_parallel`] additionally dispatches the
/// outlined block axis across a [`CpuPool`].
///
/// Two parts: the compiled code, shared by every shape the program is
/// rebound to ([`Program::rebind`]) through an `Rc` (it holds the
/// lowered IR, which is `Rc`-based), and this shape's prelude, output
/// size and block costs.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    code: Rc<ProgramCode>,
    prelude: PreludeSpec,
    output_size: usize,
    block_costs: Vec<BlockCost>,
}

/// The shape-independent part of a compiled program, and the lowered
/// statement it was compiled from (what [`Program::rebind`] checks a new
/// shape's statement against).
#[derive(Debug, Clone)]
struct ProgramCode {
    stmt: Stmt,
    /// Shared with every binding table minted from this program.
    vm: Arc<VmProgram>,
    /// The outlined parallel entry point: `Ok(None)` when no block axis
    /// is bound (serial fallback), `Err` when a block axis exists but
    /// cannot be outlined (surfaced by `run_parallel`).
    parallel: Result<Option<ParallelKernel>, ScheduleError>,
    remap: RemapPolicy,
    output_name: String,
    init: f32,
}

/// The block-indexed entry point of a compiled program: the block loop's
/// body as its own bytecode program (compiled as a tile body), plus the
/// host-evaluated context the serial program would have established
/// before entering the loop.
#[derive(Debug, Clone)]
struct ParallelKernel {
    /// The outlined body compiled as a tile body.
    body: Arc<VmProgram>,
    /// The outlined body resolved into the verifier's shape-independent
    /// proof program, so each session only pays the per-shape walk to
    /// prove the disjoint-store contract.
    proof: ProofProgram,
    block_var: String,
    hoisted: Vec<HoistedLet>,
    min: Expr,
    extent: Expr,
    bounds_aux: u64,
}

impl CompiledProgram {
    /// The underlying bytecode program.
    pub fn vm(&self) -> &VmProgram {
        &self.code.vm
    }

    /// Float semantics the compiled microkernels execute under (set on
    /// both the serial program and the outlined parallel body).
    pub fn math_mode(&self) -> MathMode {
        self.code.vm.math_mode()
    }

    /// Selects the float semantics for every subsequent execution of
    /// this program, serial or parallel. [`MathMode::Strict`] (the
    /// default) stays bit-identical to the interpreter;
    /// [`MathMode::Fast`] enables reassociated reductions and
    /// approximate transcendentals under the tolerances documented in
    /// [`cora_exec::microkernel`]. Charged statistics are identical in
    /// both modes.
    pub fn with_math_mode(mut self, math: MathMode) -> Self {
        self.set_math_mode(math);
        self
    }

    /// In-place variant of [`CompiledProgram::with_math_mode`]. Preps
    /// computed earlier, and programs sharing this one's code
    /// ([`Program::rebind`]), keep the bytecode (and mode) they were
    /// bound to.
    pub fn set_math_mode(&mut self, math: MathMode) {
        let code = Rc::make_mut(&mut self.code);
        Arc::make_mut(&mut code.vm).set_math_mode(math);
        if let Ok(Some(kernel)) = &mut code.parallel {
            Arc::make_mut(&mut kernel.body).set_math_mode(math);
        }
    }

    /// Output buffer name.
    pub fn output_name(&self) -> &str {
        &self.code.output_name
    }

    /// Output buffer length in elements.
    pub fn output_size(&self) -> usize {
        self.output_size
    }

    /// Initial value of the output buffer (`0.0` for `+=` reductions,
    /// `-∞` for `max=`). Callers that manage the output storage
    /// themselves must fill it with this value before each run.
    pub fn output_init(&self) -> f32 {
        self.code.init
    }

    /// Names of the float input buffers the kernel loads (every free
    /// float buffer except the output) — what a pipeline must wire.
    pub fn input_names(&self) -> Vec<&str> {
        self.code
            .vm
            .slots()
            .free_fbufs
            .names()
            .iter()
            .map(String::as_str)
            .filter(|n| *n != self.code.output_name)
            .collect()
    }

    /// Binds an already-built prelude (aux tables, parameters) into a
    /// [`VmShared`] of the *full serial* program, for callers that
    /// execute against borrowed (arena) float buffers via
    /// [`VmShared::run_borrowed`]. `data` must come from this program's
    /// own [`CompiledProgram::build_prelude`]; the tables are shared, not
    /// copied.
    pub fn serial_shared_with(&self, data: &PreludeData) -> VmShared {
        let mut shared = self.code.vm.shared();
        bind_prelude(&mut shared, data);
        shared
    }

    /// Builds this program's prelude tables (aux buffers + parameters).
    pub fn build_prelude(&self) -> PreludeData {
        self.prelude.build()
    }

    /// Builds the prelude and returns a bound VM machine plus the
    /// prelude data — the bytecode analogue of [`Program::prepare`].
    /// Bindings the kernel never references are silently dropped.
    pub fn prepare(&self, inputs: &[(&str, Vec<f32>)]) -> (VmMachine, PreludeData) {
        let data = self.prelude.build();
        let mut m = self.code.vm.machine();
        bind_prelude(&mut m, &data);
        for (name, buf) in inputs {
            m.set_fbuffer(name, buf.clone());
        }
        m.set_fbuffer(
            &self.code.output_name,
            vec![self.code.init; self.output_size],
        );
        (m, data)
    }

    /// Executes the compiled kernel: prelude, then bytecode.
    ///
    /// # Panics
    ///
    /// Panics if an input buffer the kernel reads was not supplied.
    pub fn run(&self, inputs: &[(&str, Vec<f32>)]) -> RunResult {
        let (mut m, prelude) = self.prepare(inputs);
        m.run();
        let output = m
            .take_fbuffer(&self.code.output_name)
            .expect("output buffer exists");
        RunResult {
            output,
            stats: m.stats,
            prelude,
        }
    }

    /// True when the program has an outlined block axis (so
    /// [`CompiledProgram::run_parallel`] will actually parallelize
    /// rather than fall back to serial execution).
    pub fn has_parallel_tier(&self) -> bool {
        matches!(self.code.parallel, Ok(Some(_)))
    }

    /// True when the schedule binds a block axis, outlinable or not.
    pub(crate) fn binds_block_axis(&self) -> bool {
        !matches!(self.code.parallel, Ok(None))
    }

    /// The outlined block body's bytecode, if a parallel tier exists, as
    /// a *tile body* ([`cora_exec::vm::compile_tile`]): the block loop
    /// over `[tile.first, tile.first + tile.len)` around the body, the
    /// two tile bounds its free variables in place of the block
    /// variable. Disassemble it (`Display`) to diff outlining changes.
    pub fn parallel_body(&self) -> Option<&VmProgram> {
        match &self.code.parallel {
            Ok(Some(k)) => Some(&k.body),
            _ => None,
        }
    }

    /// Executes the compiled kernel with its outermost block axis as a
    /// parallel region on `pool`: prelude on the host, then one bytecode
    /// execution of the outlined tile body per tile of block indices.
    ///
    /// **Scheduling.** The unit of dispatch is the proof's tile of
    /// consecutive block values ([`crate::verify::tile_grain`]). Tiles
    /// are ordered by the schedule's thread-remap policy over the summed
    /// [`Program::block_costs`] of their blocks (the simulated GPU's
    /// dispatch order at grain 1 — heaviest-first under
    /// [`RemapPolicy::LongestFirst`]) and packed into cost-balanced
    /// batches, which the pool's work-stealing runtime then rebalances
    /// dynamically; a worker runs a tile's blocks in ascending order.
    ///
    /// **Safety (disjoint stores).** Workers share one output buffer
    /// without locks. This is sound because every session carries a
    /// [`VerifyOutcome`]: the [`crate::verify`] pass abstractly
    /// interprets the outlined body at this shape and proves each store
    /// in-bounds and the per-tile store regions pairwise disjoint. The
    /// proof's [`cora_exec::vm::StoreCert`] is then *enforced* by the
    /// safe executor entry point on every store, so even a verifier bug
    /// surfaces as a deterministic panic rather than a data race.
    /// Reductions (`+=`, `max=`) stay inside a tile, so their
    /// read-modify-writes touch only elements the executing tile owns.
    ///
    /// **Determinism.** Outputs are bit-identical to [`Program::run`]
    /// (every element is written by one tile, whose blocks run in the
    /// serial order, and within a block the serial evaluation order is
    /// preserved), and the aggregated
    /// [`InterpStats`] — host-charged bound/hoist loads plus the summed
    /// per-worker counters — equal the serial statistics exactly.
    ///
    /// Falls back to serial execution when no block axis is bound.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::BlockAxisNotOutlinable`] when a block
    /// axis is bound but could not be outlined.
    ///
    /// # Panics
    ///
    /// Panics if an input buffer the kernel reads was not supplied.
    pub fn run_parallel(
        &self,
        pool: &CpuPool,
        inputs: &[(&str, Vec<f32>)],
    ) -> Result<RunResult, ScheduleError> {
        match self.parallel_session()? {
            None => Ok(self.run(inputs)),
            Some(mut session) => Ok(session.run_slices(pool, &borrow_inputs(inputs))),
        }
    }

    /// Prepares a reusable parallel session that owns its
    /// [`ParallelPrep`]: the prelude is built and every shape-invariant
    /// binding — auxiliary tables, parameters, hoisted host bindings,
    /// the block loop's bounds, the safety proof and the dispatch order
    /// — is resolved *once*. Repeated executions
    /// ([`ParallelSession::run`]) then only bind the float inputs and
    /// dispatch, which is what a per-head/per-layer hot path wants
    /// (the one-shot [`CompiledProgram::run_parallel`] rebuilds all of
    /// this per call, matching the serial tier's per-call cost).
    ///
    /// Returns `Ok(None)` when no block axis is bound (use
    /// [`CompiledProgram::run`]).
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::BlockAxisNotOutlinable`] when a block
    /// axis is bound but could not be outlined.
    pub fn parallel_session(
        &self,
    ) -> Result<Option<ParallelSession<'_, ParallelPrep>>, ScheduleError> {
        Ok(self
            .parallel_prep()?
            .map(|prep| self.parallel_session_with(prep)))
    }

    /// Computes everything shape-dependent about a parallel session:
    /// prelude tables, hoisted-binding evaluation, the block body's
    /// bound table, the safety-verifier proof and the dispatch order. A
    /// [`ParallelPrep`] borrows nothing from the program, so callers
    /// (session pools, caches) can store it beside the
    /// [`CompiledProgram`]; a session is then only a view over it
    /// ([`CompiledProgram::parallel_session_with`]).
    ///
    /// Returns `Ok(None)` when no block axis is bound.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::BlockAxisNotOutlinable`] when a block
    /// axis is bound but could not be outlined, or when the safety
    /// verifier cannot prove the disjoint-store contract.
    pub fn parallel_prep(&self) -> Result<Option<ParallelPrep>, ScheduleError> {
        if matches!(self.code.parallel, Ok(None)) {
            return Ok(None);
        }
        self.parallel_prep_with(&self.prelude.build(), None)
            .map(Some)
    }

    /// [`CompiledProgram::parallel_prep`] with every proof and dispatch
    /// tile exactly `grain` block values (the last one shorter) and no
    /// per-block retry — what the tile-grain rule
    /// ([`crate::verify::tile_grain`]) would do at a grain it does not
    /// pick, for checking the proof, the certificate and the dispatch at
    /// any grain.
    ///
    /// # Errors
    ///
    /// As for [`CompiledProgram::parallel_prep`]; a proof that only the
    /// per-block retry would have found is an error here.
    ///
    /// # Panics
    ///
    /// Panics if `grain` is zero.
    pub fn parallel_prep_at_grain(
        &self,
        grain: usize,
    ) -> Result<Option<ParallelPrep>, ScheduleError> {
        if matches!(self.code.parallel, Ok(None)) {
            return Ok(None);
        }
        self.parallel_prep_with(&self.prelude.build(), Some(grain))
            .map(Some)
    }

    /// [`CompiledProgram::parallel_prep`] against an already-built
    /// prelude (which must come from this program's own
    /// [`CompiledProgram::build_prelude`]): the tables are shared, not
    /// rebuilt or copied. `grain`: as for
    /// [`CompiledProgram::parallel_prep_at_grain`]; `None` is the rule.
    ///
    /// # Panics
    ///
    /// Panics if the program binds no block axis: every caller checks
    /// that first (the public wrappers return `None`, and a pipeline
    /// refuses such a stage when it is added).
    pub(crate) fn parallel_prep_with(
        &self,
        data: &PreludeData,
        grain: Option<usize>,
    ) -> Result<ParallelPrep, ScheduleError> {
        let kernel = (self.code.parallel.as_ref().map_err(Clone::clone)?)
            .as_ref()
            .expect("the caller checked that a block axis is bound");

        // Host side: evaluate the hoisted bindings and the block loop's
        // bounds exactly once, charging the same static aux-load counts
        // the serial program charges at those sites.
        let mut env = Env::new();
        for (name, buf) in &data.int_buffers {
            env.set_buffer(name.clone(), Arc::clone(buf));
        }
        for (name, v) in &data.params {
            env.bind(name.clone(), *v);
        }
        let mut host = InterpStats::default();
        for h in &kernel.hoisted {
            let v = env.eval(&h.value);
            env.bind(h.var.clone(), v);
            host.aux_loads += h.aux;
        }
        let min = env.eval(&kernel.min);
        let extent = env.eval(&kernel.extent);
        host.aux_loads += kernel.bounds_aux;
        let n_blocks = usize::try_from(extent.max(0)).expect("extent fits usize");

        // The safety proof: the per-shape walk of the proof program over
        // every tile of block values. The resulting certificate is what
        // the safe executor entry point enforces; a program the verifier
        // cannot prove safe never runs in parallel.
        let scalars: Vec<(String, i64)> = data
            .params
            .iter()
            .cloned()
            .chain(kernel.hoisted.iter().map(|h| {
                let v = env.lookup(&h.var).expect("hoisted binding was evaluated");
                (h.var.clone(), v)
            }))
            .collect();
        let ctx = VerifyCtx {
            env: &env,
            scalars: &scalars,
            output: &self.code.output_name,
            output_size: self.output_size,
        };
        let proved = match grain {
            None => kernel.proof.verify(min, n_blocks, &ctx),
            Some(grain) => kernel.proof.verify_tiles(min, n_blocks, grain, &ctx),
        };
        let outcome = proved.map_err(|e| ScheduleError::BlockAxisNotOutlinable {
            loop_name: kernel.block_var.clone(),
            reason: format!("the safety verifier could not prove the disjoint-store contract: {e}"),
        })?;

        // Dispatch order (thread remapping) of the certificate's tiles,
        // by the summed cost metadata of their blocks.
        let costs: Vec<f64> = if self.block_costs.len() == n_blocks {
            self.block_costs.iter().map(|b| b.flops).collect()
        } else {
            // Cost metadata counts grid cells of outer non-block loops
            // too; when it does not line up one-to-one, balance blindly.
            vec![1.0; n_blocks]
        };
        let tile_costs: Vec<f64> = costs
            .chunks(outcome.grain)
            .map(|c| c.iter().sum())
            .collect();
        let order = dispatch_order(self.code.remap, &tile_costs);

        // The tile body's table: the tile bounds stay unbound (they are
        // supplied per tile); later scalars shadow earlier ones.
        let mut shared = kernel.body.shared();
        for (name, buf) in &data.int_buffers {
            shared.set_ibuffer(name, Arc::clone(buf));
        }
        for (name, v) in &scalars {
            shared.bind_var(name, *v);
        }

        Ok(ParallelPrep {
            prelude: data.clone(),
            shared,
            host,
            ordered_costs: order.iter().map(|&t| tile_costs[t]).collect(),
            tiles: order.iter().map(|&t| outcome.cert.tile_start(t)).collect(),
            verify: outcome,
        })
    }

    /// The one way to make a [`ParallelSession`]: a view over this
    /// program and a [`ParallelPrep`], held by reference (a cached prep
    /// serving many sessions) or by value (the session owns it — what
    /// [`CompiledProgram::parallel_session`] does). Nothing is computed
    /// or bound here. The prep **must** come from this program's own
    /// [`CompiledProgram::parallel_prep`] (same program, same shape);
    /// pairing it with a different program panics on an unknown buffer
    /// name or fails the enforced store certificate at run time — it
    /// cannot silently corrupt memory.
    ///
    /// # Panics
    ///
    /// Panics if this program has no outlined parallel tier.
    pub fn parallel_session_with<P: Borrow<ParallelPrep>>(
        &self,
        prep: P,
    ) -> ParallelSession<'_, P> {
        assert!(
            self.has_parallel_tier(),
            "program `{}` has no parallel tier",
            self.code.output_name
        );
        ParallelSession {
            compiled: self,
            prep,
            batches: DispatchBatches::default(),
        }
    }
}

/// One stage of a [`run_chain`]: the program, its parallel prep, and
/// where each float input comes from.
pub(crate) type ChainRun<'a> = (
    &'a CompiledProgram,
    &'a ParallelPrep,
    &'a [(&'a str, ChainInput<'a>)],
);

/// Runs consecutive programs as **one** dispatch over `pool`: every tile
/// through every stage in order, the intermediates in per-worker windows
/// ([`ChainInput::Window`] names the producing stage's position), the
/// last stage's output in `out` — the one parallel execution path,
/// shared by [`ParallelSession`] (a chain of one) and pipeline chains.
/// The stages must tile the same block values alike, and each window
/// load must lie in the producer's store regions of the same tile —
/// what `cora_core::pipeline`'s chain pass proves before it forms a
/// chain. Tiles run in the first stage's dispatch order, cut into the
/// batches `batches` caches. `out` is filled with the last stage's
/// initial value first; each stage's statistics include its
/// host-charged prelude/bounds loads.
///
/// # Panics
///
/// Panics if a stage has no parallel tier, `out` or a shared input is
/// shorter than its verified requirement, or on anything
/// [`run_chain_proven`] rejects.
pub(crate) fn run_chain(
    stages: &[ChainRun<'_>],
    batches: &mut DispatchBatches,
    pool: &CpuPool,
    out: &mut [f32],
) -> Vec<InterpStats> {
    let (last, _, _) = stages.last().expect("a chain holds at least one stage");
    assert_eq!(
        out.len(),
        last.output_size,
        "output slice length mismatch for `{}`",
        last.code.output_name
    );
    let chain: Vec<ChainStage<'_>> = (stages.iter().enumerate())
        .map(|(k, &(program, prep, inputs))| {
            for (name, input) in inputs {
                let (ChainInput::Shared(buf), Some(need)) =
                    (input, prep.verify.required_input_len(name))
                else {
                    continue;
                };
                assert!(
                    buf.len() as i64 >= need,
                    "input `{name}` has {} elements but the verified access \
                     hull requires at least {need}",
                    buf.len()
                );
            }
            ChainStage {
                table: &prep.shared,
                output: &program.code.output_name,
                cert: &prep.verify.cert,
                inputs,
                window_init: (k + 1 < stages.len()).then_some(program.code.init),
            }
        })
        .collect();
    out.fill(last.code.init);
    // Safe entry point: each prep holds a `VerifyOutcome` — the verifier
    // proved every store in-bounds and the per-tile store regions
    // pairwise disjoint — and `run_chain_proven` enforces the resulting
    // `StoreCert`s on every store before it lands.
    let head = stages[0].1;
    let cut = batches.cut_for(&head.ordered_costs, pool.threads());
    let stats = run_chain_proven(pool, &chain, out, &head.tiles, cut);
    (stats.into_iter().zip(stages))
        .map(|(stats, (_, prep, _))| prep.host + stats)
        .collect()
}

/// Binds a built prelude's aux tables and parameters into `table`.
fn bind_prelude(table: &mut VmShared, data: &PreludeData) {
    for (name, buf) in &data.int_buffers {
        table.set_ibuffer(name, Arc::clone(buf));
    }
    for (name, v) in &data.params {
        table.bind_var(name, *v);
    }
}

/// Borrowed views of owned `(name, buffer)` inputs.
fn borrow_inputs<'a>(inputs: &'a [(&'a str, Vec<f32>)]) -> Vec<(&'a str, &'a [f32])> {
    inputs.iter().map(|(n, b)| (*n, b.as_slice())).collect()
}

/// Everything shape-dependent about one program's parallel tier:
/// prelude tables, the block body's bound table (parameters and hoisted
/// host scalars resolved), the dispatch order and the safety proof.
/// Borrows nothing and can be cached beside its [`CompiledProgram`] —
/// see [`CompiledProgram::parallel_prep`]. Clones share the prelude
/// tables; only the small per-block vectors and the certificate copy.
#[derive(Debug, Clone)]
pub struct ParallelPrep {
    prelude: PreludeData,
    /// The tile body's binding table; the tile bounds are the free
    /// variables left unbound.
    shared: VmShared,
    host: InterpStats,
    /// First block value of each proven tile, in dispatch order.
    tiles: Vec<i64>,
    /// Per-tile costs in dispatch order (batch packing).
    ordered_costs: Vec<f64>,
    /// The machine-checked safety proof for this program at this shape,
    /// carrying the store certificate the executor enforces.
    verify: VerifyOutcome,
}

impl ParallelPrep {
    /// The machine-checked safety proof computed for this shape.
    pub fn verify_outcome(&self) -> &VerifyOutcome {
        &self.verify
    }
}

/// Cost-balanced batches — consecutive ranges of a prep's
/// dispatch-ordered tiles — cached with the pool width they were cut
/// for (0: not cut yet), so warm runs allocate nothing for dispatch.
/// Lives wherever the mutable per-shape state lives: in a
/// [`ParallelSession`], or per stage in a pipeline prep.
#[derive(Debug, Clone, Default)]
pub(crate) struct DispatchBatches {
    threads: usize,
    batches: Vec<Range<usize>>,
}

impl DispatchBatches {
    /// The pool width the cached batches were cut for (0: never cut).
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// The batches of tiles costing `costs` (in dispatch order) for a
    /// pool of `threads` workers, re-cut only when the width changed. A
    /// one-worker pool has nothing to balance: it runs all tiles as one
    /// batch, so its registers (and packed panels) span them all.
    fn cut_for(&mut self, costs: &[f64], threads: usize) -> &[Range<usize>] {
        if self.threads != threads {
            self.batches = match threads {
                1 => (!costs.is_empty())
                    .then_some(0..costs.len())
                    .into_iter()
                    .collect(),
                _ => cost_balanced_batches(costs, threads),
            };
            self.threads = threads;
        }
        &self.batches
    }
}

/// A parallel execution of one [`CompiledProgram`] at one shape: a view
/// over the program and its [`ParallelPrep`] (borrowed by default,
/// owned when created by [`CompiledProgram::parallel_session`]) plus
/// the dispatch batches cut for the last pool. Call
/// [`ParallelSession::run`] once per set of float inputs.
#[derive(Debug)]
pub struct ParallelSession<'p, P = &'p ParallelPrep> {
    compiled: &'p CompiledProgram,
    prep: P,
    batches: DispatchBatches,
}

impl<P: Borrow<ParallelPrep>> ParallelSession<'_, P> {
    /// Executes the prepared program over `pool` with the given float
    /// inputs — see [`CompiledProgram::run_parallel`] for the safety
    /// argument and determinism guarantees (identical results; only the
    /// shape-invariant setup is amortized here).
    ///
    /// # Panics
    ///
    /// Panics if an input buffer the kernel reads was not supplied or is
    /// shorter than the verifier-proven access hull requires.
    pub fn run(&mut self, pool: &CpuPool, inputs: Vec<(&str, Vec<f32>)>) -> RunResult {
        self.run_slices(pool, &borrow_inputs(&inputs))
    }

    /// [`ParallelSession::run`] over borrowed inputs.
    fn run_slices(&mut self, pool: &CpuPool, inputs: &[(&str, &[f32])]) -> RunResult {
        let mut output = vec![0.0; self.compiled.output_size];
        let stats = self.run_into(pool, inputs, &mut output);
        RunResult {
            output,
            stats,
            prelude: self.prep.borrow().prelude.clone(),
        }
    }

    /// Executes the prepared program with *borrowed* float inputs,
    /// writing into a caller-provided output slice — the zero-copy,
    /// zero-allocation entry point. `out` must be `output_size` long;
    /// the session fills it with the output's initial value before
    /// dispatching. Results and statistics are identical to
    /// [`ParallelSession::run`] (the returned stats include the
    /// host-charged prelude/bounds loads, amortised the same way).
    ///
    /// # Panics
    ///
    /// Panics if an input buffer the kernel reads was not supplied,
    /// `out` has the wrong length, or an input is shorter than the
    /// verifier-proven access hull requires.
    pub fn run_into(
        &mut self,
        pool: &CpuPool,
        inputs: &[(&str, &[f32])],
        out: &mut [f32],
    ) -> InterpStats {
        let inputs: Vec<(&str, ChainInput<'_>)> = (inputs.iter())
            .map(|&(name, data)| (name, ChainInput::Shared(data)))
            .collect();
        let stage = (self.compiled, self.prep.borrow(), &inputs[..]);
        run_chain(&[stage], &mut self.batches, pool, out)[0]
    }

    /// The machine-checked safety proof backing this session: in-bounds
    /// accesses and pairwise-disjoint per-block store regions, verified
    /// at this shape by [`crate::verify`].
    pub fn verify_outcome(&self) -> &VerifyOutcome {
        &self.prep.borrow().verify
    }
}

#[cfg(test)]
mod tests {
    use cora_ir::ForKind;
    use cora_ragged::RaggedLayout;

    use super::*;
    use crate::api::{BodyFn, LoopSpec, Operator, TensorRef};
    use crate::lower::lower;

    /// `Out[r, c] = In[r, c] · k` over `rows` rows of the `rows` shape
    /// parameter, one block per row.
    fn scale_rows(rows: usize, k: f32) -> Operator {
        let input = TensorRef::new("In", RaggedLayout::dense(&[rows, 3]));
        let out = TensorRef::new("Out", RaggedLayout::dense(&[rows, 3]));
        let it = input.clone();
        let body: BodyFn = Rc::new(move |args| it.at(args) * k);
        let loops = vec![LoopSpec::param("r", "rows", rows), LoopSpec::fixed("c", 3)];
        let mut op = Operator::new("scale_rows", loops, vec![], out, vec![input], body);
        op.schedule_mut().bind("r", ForKind::GpuBlockX);
        op
    }

    #[test]
    fn rebind_shares_the_code_and_keeps_its_own_shape() {
        let code = lower(&scale_rows(2, 2.0)).unwrap().compile();
        let five = lower(&scale_rows(5, 2.0)).unwrap();
        let rebound = five.rebind(&code);
        assert!(Rc::ptr_eq(&rebound.code, &code.code));
        assert_eq!(rebound.output_size(), 15);
        assert_eq!(rebound.block_costs.len(), 5);
        let input: Vec<f32> = (0..15).map(|v| v as f32).collect();
        let inputs = [("In", input)];
        let fresh = five.compile();
        assert_eq!(rebound.run(&inputs).output, fresh.run(&inputs).output);
        let pool = CpuPool::new(2);
        let parallel = rebound.run_parallel(&pool, &inputs).unwrap();
        assert_eq!(parallel.output, fresh.run(&inputs).output);
    }

    #[test]
    #[should_panic(expected = "lowered to a different program than the code it is rebound to")]
    fn rebind_refuses_the_code_of_another_statement() {
        let code = lower(&scale_rows(2, 2.0)).unwrap().compile();
        let _ = lower(&scale_rows(2, 3.0)).unwrap().rebind(&code);
    }

    #[test]
    fn dispatch_order_matches_remap_policies() {
        let costs = [1.0, 4.0, 2.0, 4.0];
        assert_eq!(
            dispatch_order(RemapPolicy::Identity, &costs),
            vec![0, 1, 2, 3]
        );
        // Stable descending sort: ties keep loop order.
        assert_eq!(
            dispatch_order(RemapPolicy::LongestFirst, &costs),
            vec![1, 3, 2, 0]
        );
        assert!(dispatch_order(RemapPolicy::LongestFirst, &[]).is_empty());
    }
}

//! Multi-operator compiled pipelines: chaining compiled programs through
//! a statically planned buffer arena, and running consecutive row-local
//! stages as one dispatch.
//!
//! A single [`CompiledProgram`] executes
//! one ragged operator. Real workloads — the paper's §7 transformer
//! encoder layer above all — are sequences of operators whose
//! intermediates exist only to feed the next stage. Running such a
//! sequence through the single-program interface costs, per operator per
//! call: a fresh output `Vec`, a prelude rebuild, aux-table rebinding and
//! dispatch-order resolution. [`CompiledPipeline`] hoists all of it to
//! *once per shape*:
//!
//! * **Wiring** ([`PipelineBuilder`]): stages connect through named
//!   pipeline buffers (interned with [`cora_ir::slots::Interner`], the
//!   same dense-identity machinery the VM uses within one program). Each
//!   buffer has exactly one writer; external inputs are declared up
//!   front and bound per call.
//! * **Chains** ([`Chain`]): when the pipeline is built, every stage is
//!   resolved at its shape (prelude, tables, safety proof) and one pass
//!   groups consecutive stages into chains by a fixed rule, below.
//! * **Buffer plan** ([`BufferPlan`]): every buffer that outlives its
//!   chain gets an arena slot, shared with buffers whose lifetimes are
//!   disjoint; slots are allocated once per session, so repeated calls
//!   allocate no intermediate storage beyond the workers' windows.
//! * **Execution** ([`PipelinePrep`] + [`PipelineSession`]): a prep owns
//!   everything shape-dependent — per stage, the parallel tier's
//!   [`ParallelPrep`] (bound block-body table, proof, dispatch order);
//!   per chain, the dispatch batches cut for the last pool width; and
//!   the arena. A session is a view `{&pipeline, prep}`.
//!   [`PipelineSession::run`] dispatches each chain once across a
//!   [`CpuPool`]. There is one execution order: a serial run is the same
//!   run on `CpuPool::new(1)`, every tile inline on the calling thread.
//!   Its outputs and per-stage [`InterpStats`] equal those of each
//!   stage's program run alone on fresh buffers.
//!
//! Every stage is a tile body: a program that binds no block axis is
//! refused when it is wired ([`PipelineError::NoBlockAxis`]).
//!
//! # Chains
//!
//! The paper keeps ragged operators "ragged on the outside, dense on the
//! inside" (§4) and fuses operators to keep intermediates out of memory
//! (Fig. 12). A chain does the same across stages without changing any
//! stage's program: a worker takes a tile of block values and runs every
//! stage of the chain over that tile's blocks, one stage after another,
//! each with its unchanged outlined body, its own registers and its own
//! statistics. A chain grows from its first stage while the next stage
//!
//! 1. has the same block domain: the same block count and first value,
//!    proven at the same grain, so the tile starts agree
//!    ([`ChainRefusal::TilesDiffer`], [`ChainRefusal::GrainMismatch`]);
//! 2. loads, in every tile, only elements of the chain's outputs that
//!    the producing stage stores in the same tile — each tile's load set
//!    ([`VerifyOutcome::tile_loads`]) inside the producer's certified
//!    store regions for that tile ([`ChainRefusal::NotContained`]);
//!
//! and is then cut back to its longest prefix whose outputs, all but the
//! last, are read by nothing after the chain — not a later stage, not
//! the caller ([`ChainRefusal::ReadOutsideChain`]). A refused stage starts
//! the next chain; [`CompiledPipeline::chains`] records every chain and
//! why it ended. There is no knob: the rule is the proof.
//!
//! **Windows.** Every output a chain reads only internally leaves the
//! arena: each worker keeps it in a *window* spanning the current tile's
//! certified store regions, filled with the producer's initial value
//! before the producer runs the tile and read by later stages at
//! `index − origin` (`cora_exec::vm`'s chain dispatch). Condition 2 is
//! the proof obligation that makes this exact: those elements are final
//! once the producer has run the tile, because no other tile stores to
//! them, so every stage reads the values a stage-by-stage run would. The
//! chain's last stage stores into the arena through its certificate, as
//! a lone stage does; a lone stage is a chain of one.
//!
//! **Plan.** Because a chain interleaves its stages tile by tile, the
//! arena keeps a chain's output live from the chain's first stage, and
//! every arena buffer the chain reads live through its last stage.
//!
//! # Example
//!
//! Two elementwise operators (`Y = 2·X`, `Z = 2·Y`), compiled
//! once and run twice off one session — the reuse pattern a multi-layer
//! model wants, where "layer" means "same shapes, new inputs":
//!
//! ```
//! use cora_core::pipeline::PipelineBuilder;
//! use cora_core::prelude::*;
//! use std::rc::Rc;
//!
//! fn double_op(name: &str, n: usize) -> Operator {
//!     let a = TensorRef::new("In", cora_ragged::RaggedLayout::dense(&[n]));
//!     let out = TensorRef::new("Out", cora_ragged::RaggedLayout::dense(&[n]));
//!     let a2 = a.clone();
//!     let body: BodyFn = Rc::new(move |args| a2.at(args) * 2.0);
//!     let mut op = Operator::new(
//!         name,
//!         vec![LoopSpec::fixed("i", n)],
//!         vec![],
//!         out,
//!         vec![a],
//!         body,
//!     );
//!     op.schedule_mut().bind("i", ForKind::GpuBlockX);
//!     op
//! }
//!
//! let mut b = PipelineBuilder::new("demo");
//! b.input("X", 4).unwrap();
//! let double = lower(&double_op("double", 4)).unwrap().compile();
//! b.stage("double", double.clone(), &[("In", "X")], "Y").unwrap();
//! b.stage("again", double, &[("In", "Y")], "Z").unwrap();
//! let pipeline = b.build("Z").unwrap();
//! // Both stages are row-local over the same rows: one chain, and `Y`
//! // lives only in the workers' windows.
//! assert_eq!(pipeline.chains().len(), 1);
//! assert_eq!(pipeline.plan().arena_elems(), 4);
//!
//! // Everything shape-dependent is resolved here, once.
//! let mut session = pipeline.session().unwrap();
//! let pool = CpuPool::new(2);
//! for _layer in 0..2 {
//!     let run = session.run(&pool, &[("X", &[1.0, 2.0, 3.0, 4.0])]);
//!     assert_eq!(run.output, vec![4.0, 8.0, 12.0, 16.0]);
//!     assert_eq!((run.stages.len(), run.dispatches), (2, 1));
//! }
//! ```

use std::borrow::BorrowMut;
use std::fmt;
use std::mem;
use std::ops::Range;
use std::sync::Arc;

use cora_exec::cpu::CpuPool;
use cora_exec::interp::InterpStats;
use cora_exec::vm::ChainInput;
use cora_ir::interval::SInt;
use cora_ir::slots::Interner;

use crate::program::{run_chain, ChainRun, CompiledProgram, DispatchBatches, ParallelPrep};
use crate::schedule::ScheduleError;
use crate::verify::VerifyOutcome;

/// Errors raised while wiring a pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// A buffer name was declared or produced twice (every pipeline
    /// buffer has exactly one writer).
    DuplicateBuffer(String),
    /// A stage wire references a pipeline buffer that does not exist
    /// (not an external input and not produced by an earlier stage).
    UnknownBuffer {
        /// Stage label.
        stage: String,
        /// The missing pipeline buffer.
        name: String,
    },
    /// A stage wire names a program buffer the program does not read.
    NotAnInput {
        /// Stage label.
        stage: String,
        /// The program-side name.
        name: String,
    },
    /// A program input buffer was left unwired.
    UnwiredInput {
        /// Stage label.
        stage: String,
        /// The program-side name.
        name: String,
    },
    /// A stage wires the same program input twice.
    DuplicateWire {
        /// Stage label.
        stage: String,
        /// The program-side name.
        name: String,
    },
    /// The designated pipeline output is not produced by any stage.
    MissingOutput(String),
    /// The stage's program binds no block axis, so it has no tile body
    /// to dispatch.
    NoBlockAxis(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::DuplicateBuffer(n) => {
                write!(f, "pipeline buffer `{n}` already has a writer")
            }
            PipelineError::UnknownBuffer { stage, name } => {
                write!(
                    f,
                    "stage `{stage}` reads undeclared pipeline buffer `{name}`"
                )
            }
            PipelineError::NotAnInput { stage, name } => {
                write!(
                    f,
                    "stage `{stage}` wires `{name}`, which its program never reads"
                )
            }
            PipelineError::UnwiredInput { stage, name } => {
                write!(f, "stage `{stage}` leaves program input `{name}` unwired")
            }
            PipelineError::DuplicateWire { stage, name } => {
                write!(f, "stage `{stage}` wires program input `{name}` twice")
            }
            PipelineError::MissingOutput(n) => {
                write!(f, "pipeline output `{n}` is not produced by any stage")
            }
            PipelineError::NoBlockAxis(n) => {
                write!(f, "stage `{n}` binds no block axis")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// One pipeline buffer: its element count and (for stage outputs) the
/// producing stage.
#[derive(Debug, Clone)]
struct BufDecl {
    size: usize,
    /// `None` for external inputs, `Some(stage)` for stage outputs.
    def: Option<usize>,
}

/// One wired stage.
#[derive(Debug, Clone)]
struct StageSpec {
    label: String,
    program: CompiledProgram,
    /// `(program buffer name, pipeline buffer id)` for every program
    /// input.
    inputs: Vec<(String, u32)>,
    /// Pipeline buffer id the stage produces.
    output: u32,
}

/// Builder for [`CompiledPipeline`]: declare external inputs, then add
/// stages in execution order, wiring each program's input buffers to
/// pipeline buffers (external inputs or earlier stages' outputs).
#[derive(Debug)]
pub struct PipelineBuilder {
    name: String,
    bufs: Interner,
    decls: Vec<BufDecl>,
    stages: Vec<StageSpec>,
}

impl PipelineBuilder {
    /// Creates an empty pipeline.
    pub fn new(name: impl Into<String>) -> PipelineBuilder {
        PipelineBuilder {
            name: name.into(),
            bufs: Interner::new(),
            decls: Vec::new(),
            stages: Vec::new(),
        }
    }

    /// Declares an external input buffer of `size` elements, bound per
    /// run by the caller.
    ///
    /// # Errors
    ///
    /// [`PipelineError::DuplicateBuffer`] if the name is taken.
    pub fn input(&mut self, name: &str, size: usize) -> Result<&mut Self, PipelineError> {
        if self.bufs.get(name).is_some() {
            return Err(PipelineError::DuplicateBuffer(name.to_string()));
        }
        let id = self.bufs.intern(name);
        debug_assert_eq!(id as usize, self.decls.len());
        self.decls.push(BufDecl { size, def: None });
        Ok(self)
    }

    /// Appends a stage: `program` runs with each of its float inputs
    /// wired to a pipeline buffer (`wires` maps *program* buffer names to
    /// *pipeline* buffer names) and produces the new pipeline buffer
    /// `output` (sized [`CompiledProgram::output_size`]).
    ///
    /// # Errors
    ///
    /// See [`PipelineError`]: a program that binds no block axis,
    /// unknown or duplicate buffers, wires to buffers the program never
    /// reads, or unwired program inputs.
    pub fn stage(
        &mut self,
        label: &str,
        program: CompiledProgram,
        wires: &[(&str, &str)],
        output: &str,
    ) -> Result<&mut Self, PipelineError> {
        if !program.binds_block_axis() {
            return Err(PipelineError::NoBlockAxis(label.to_string()));
        }
        let needed = program.input_names();
        for (i, (pname, _)) in wires.iter().enumerate() {
            if !needed.contains(pname) {
                return Err(PipelineError::NotAnInput {
                    stage: label.to_string(),
                    name: pname.to_string(),
                });
            }
            if wires[..i].iter().any(|(p, _)| p == pname) {
                return Err(PipelineError::DuplicateWire {
                    stage: label.to_string(),
                    name: pname.to_string(),
                });
            }
        }
        let mut inputs = Vec::with_capacity(needed.len());
        for pname in needed {
            let Some((_, target)) = wires.iter().find(|(p, _)| *p == pname) else {
                return Err(PipelineError::UnwiredInput {
                    stage: label.to_string(),
                    name: pname.to_string(),
                });
            };
            let Some(id) = self.bufs.get(target) else {
                return Err(PipelineError::UnknownBuffer {
                    stage: label.to_string(),
                    name: target.to_string(),
                });
            };
            inputs.push((pname.to_string(), id));
        }
        if self.bufs.get(output).is_some() {
            return Err(PipelineError::DuplicateBuffer(output.to_string()));
        }
        let out_id = self.bufs.intern(output);
        debug_assert_eq!(out_id as usize, self.decls.len());
        self.decls.push(BufDecl {
            size: program.output_size(),
            def: Some(self.stages.len()),
        });
        self.stages.push(StageSpec {
            label: label.to_string(),
            program,
            inputs,
            output: out_id,
        });
        Ok(self)
    }

    /// Finalises the pipeline with `output` as the buffer
    /// [`PipelineRun::output`] returns: resolves every stage at its
    /// shape (preludes, tables, safety proofs), forms the chains and
    /// computes the buffer plan. A stage whose proof fails is reported
    /// by [`CompiledPipeline::prepare`].
    ///
    /// # Errors
    ///
    /// [`PipelineError::MissingOutput`] if `output` is not a stage
    /// output.
    pub fn build(self, output: &str) -> Result<CompiledPipeline, PipelineError> {
        let out_id = self
            .bufs
            .get(output)
            .filter(|&id| self.decls[id as usize].def.is_some())
            .ok_or_else(|| PipelineError::MissingOutput(output.to_string()))?;
        let resolved = resolve_stages(&self.decls, &self.stages, None).map(Arc::from);
        let mut pipeline = CompiledPipeline {
            name: self.name,
            bufs: self.bufs,
            decls: self.decls,
            resolved,
            stages: self.stages,
            plan: BufferPlan::default(),
            output: out_id,
            chains: Vec::new(),
        };
        pipeline.chains = match &pipeline.resolved {
            Ok(stages) => pipeline.form_chains(stages),
            // Nothing will run: plan one stage per chain.
            Err(_) => (0..pipeline.stages.len())
                .map(|s| Chain {
                    stages: s..s + 1,
                    refusal: None,
                })
                .collect(),
        };
        let pl = &pipeline;
        pipeline.plan = BufferPlan::assign(&pl.bufs, &pl.decls, &pl.stages, out_id, &pl.chains);
        Ok(pipeline)
    }
}

/// One planned buffer: its lifetime in stage indices and the arena slot
/// it was assigned.
#[derive(Debug, Clone)]
pub struct PlanEntry {
    /// Pipeline buffer name.
    pub name: String,
    /// Element count.
    pub size: usize,
    /// First stage of the producing chain.
    pub def: usize,
    /// Last stage of the last chain that reads the buffer (the pipeline
    /// output stays live through the final stage); the producing chain's
    /// last stage for dead outputs.
    pub last_use: usize,
    /// Assigned arena slot.
    pub slot: u32,
}

/// The static buffer plan: the arena a session allocates once. Only the
/// buffers that outlive their chain — each chain's last output — are
/// planned, each live for the whole chain it is written in (from its
/// first stage) and through the last stage of every chain that reads it;
/// chain intermediates are per-worker windows, outside the arena. Two
/// buffers share a slot only when their lifetimes are disjoint, and
/// each slot is sized for the largest buffer it ever holds.
#[derive(Debug, Clone, Default)]
pub struct BufferPlan {
    entries: Vec<PlanEntry>,
    /// Buffer id → arena slot (externals and windows unmapped).
    slot_of: Vec<Option<u32>>,
    sizes: Vec<usize>,
    /// Σ of every stage output's size.
    unshared: usize,
}

impl BufferPlan {
    /// Best-fit slot assignment of each chain's output, in chain order.
    fn assign(
        bufs: &Interner,
        decls: &[BufDecl],
        stages: &[StageSpec],
        output: u32,
        chains: &[Chain],
    ) -> BufferPlan {
        // Lifetimes in stage indices: a buffer read by a stage of a chain
        // stays live through the chain's last stage (the pipeline output
        // is read "after" the last stage).
        let chain_end: Vec<usize> = (chains.iter())
            .flat_map(|c| c.stages.clone().map(|_| c.stages.end - 1))
            .collect();
        let mut last_chained: Vec<Option<usize>> = vec![None; decls.len()];
        for (si, st) in stages.iter().enumerate() {
            for (_, id) in &st.inputs {
                last_chained[*id as usize] = last_chained[*id as usize].max(Some(chain_end[si]));
            }
        }
        let mut plan = BufferPlan {
            slot_of: vec![None; decls.len()],
            unshared: (stages.iter())
                .map(|st| decls[st.output as usize].size)
                .sum(),
            ..BufferPlan::default()
        };
        let mut free: Vec<u32> = Vec::new();
        for c in chains {
            let id = stages[c.stages.end - 1].output;
            let def = c.stages.start;
            let last_use = if id == output {
                stages.len()
            } else {
                last_chained[id as usize].unwrap_or(0).max(c.stages.end - 1)
            };
            // Release buffers whose last use is strictly before this
            // definition — their slots may be reused by this buffer
            // (but not by anything live *during* their last use).
            for e in &plan.entries {
                if e.last_use < def && !free.contains(&e.slot) {
                    let still_held =
                        (plan.entries.iter()).any(|o| o.slot == e.slot && o.last_use >= def);
                    if !still_held {
                        free.push(e.slot);
                    }
                }
            }
            let size = decls[id as usize].size;
            let sizes = &mut plan.sizes;
            // Best fit: the smallest free slot that already fits, else
            // the free slot needing the least growth, else a new slot.
            let slot = match (free.iter().enumerate())
                .filter(|(_, &s)| sizes[s as usize] >= size)
                .min_by_key(|(_, &s)| sizes[s as usize])
                .or_else(|| {
                    free.iter()
                        .enumerate()
                        .max_by_key(|(_, &s)| sizes[s as usize])
                })
                .map(|(i, _)| i)
            {
                Some(i) => free.swap_remove(i),
                None => {
                    sizes.push(0);
                    (sizes.len() - 1) as u32
                }
            };
            sizes[slot as usize] = sizes[slot as usize].max(size);
            plan.slot_of[id as usize] = Some(slot);
            plan.entries.push(PlanEntry {
                name: bufs.names()[id as usize].clone(),
                size,
                def,
                last_use,
                slot,
            });
        }
        plan
    }

    /// The planned buffers, in chain order.
    pub fn arena(&self) -> &[PlanEntry] {
        &self.entries
    }

    /// Number of arena slots.
    pub fn slot_count(&self) -> usize {
        self.sizes.len()
    }

    /// Total arena size in elements (what a session allocates once).
    pub fn arena_elems(&self) -> usize {
        self.sizes.iter().sum()
    }

    /// Sum of every stage output's size — what per-op fresh allocation
    /// would cost per call; `arena_elems() ≤ unshared_elems()`.
    pub fn unshared_elems(&self) -> usize {
        self.unshared
    }
}

/// Why a chain ends before the next stage: the condition of the chain
/// rule that joining it would break.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainRefusal {
    /// The next stage runs over other block values (another count or
    /// first value), so its tiles start elsewhere.
    TilesDiffer,
    /// The two stages cover the same block values, but their proofs
    /// tile them at different grains (one needed the per-block retry).
    GrainMismatch,
    /// Joining the next stage would leave `buffer`, an output of this
    /// chain, an intermediate that a stage after the chain (or the
    /// caller, for the pipeline output) still reads.
    ReadOutsideChain {
        /// The escaping buffer.
        buffer: String,
    },
    /// In tile `tile`, the next stage may load elements of `buffer`, an
    /// output of this chain, that the producing stage does not store in
    /// the same tile (a neighbour row, say).
    NotContained {
        /// The buffer read out of tile.
        buffer: String,
        /// The first such tile.
        tile: usize,
    },
}

impl fmt::Display for ChainRefusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainRefusal::TilesDiffer => write!(f, "the next stage tiles other blocks"),
            ChainRefusal::GrainMismatch => write!(f, "the next stage's proof has another grain"),
            ChainRefusal::ReadOutsideChain { buffer } => {
                write!(f, "`{buffer}` is read after the chain")
            }
            ChainRefusal::NotContained { buffer, tile } => {
                write!(
                    f,
                    "tile {tile} of the next stage reads `{buffer}` outside its own tile"
                )
            }
        }
    }
}

/// A run of consecutive stages dispatched as one: a worker takes a tile
/// and runs every stage of the chain over its blocks, one stage after
/// another (see the module docs for the rule that forms chains).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chain {
    /// The stage indices of the chain.
    pub stages: Range<usize>,
    /// Why the stage after the chain did not join it; `None` for the
    /// pipeline's last chain.
    pub refusal: Option<ChainRefusal>,
}

/// The chain pass: groups consecutive stages of `par` (per stage, its
/// parallel prep) into chains by the one fixed rule of the module docs.
fn form_chains(
    bufs: &Interner,
    decls: &[BufDecl],
    stages: &[StageSpec],
    output: u32,
    par: &[ParallelPrep],
) -> Vec<Chain> {
    let mut last_read: Vec<Option<usize>> = vec![None; decls.len()];
    for (si, st) in stages.iter().enumerate() {
        for (_, id) in &st.inputs {
            last_read[*id as usize] = last_read[*id as usize].max(Some(si));
        }
    }
    let name = |id: u32| bufs.names()[id as usize].clone();
    // An output of stages `start..end` read after stage `end`: what a
    // chain `start..=end` would leave escaping from a window.
    let escaping = |start: usize, end: usize| {
        (stages[start..end].iter().map(|st| st.output))
            .find(|&id| id == output || last_read[id as usize].is_some_and(|r| r > end))
    };
    // Whether stage `s` may join the chain `start..s`.
    let joins = |start: usize, s: usize| -> Result<(), ChainRefusal> {
        let (a, b) = (par[start].verify_outcome(), par[s].verify_outcome());
        if a.n_blocks != b.n_blocks || a.cert.tile_start(0) != b.cert.tile_start(0) {
            return Err(ChainRefusal::TilesDiffer);
        }
        if a.grain != b.grain {
            return Err(ChainRefusal::GrainMismatch);
        }
        for (pname, id) in &stages[s].inputs {
            let Some(k) = decls[*id as usize].def.filter(|&k| k >= start) else {
                continue;
            };
            let cert = &par[k].verify_outcome().cert;
            let loads = b.loads_of(pname).unwrap_or(&[]);
            let contained = |t: usize| {
                let regions = cert.tile_at(cert.tile_start(t)).1;
                (loads.get(t))
                    .is_some_and(|l| regions.iter().any(|r| l.subset_of(*r)) || *l == SInt::Empty)
            };
            if let Some(tile) = (0..cert.tiles()).find(|&t| !contained(t)) {
                let buffer = name(*id);
                return Err(ChainRefusal::NotContained { buffer, tile });
            }
        }
        Ok(())
    };
    let mut chains = Vec::new();
    let mut start = 0;
    while start < stages.len() {
        // Grow while the tiles agree and every in-chain load is
        // contained, then cut back to the longest prefix whose
        // intermediates nothing outside reads.
        let mut end = start;
        let mut refusal = None;
        while end + 1 < stages.len() {
            match joins(start, end + 1) {
                Ok(()) => end += 1,
                Err(why) => {
                    refusal = Some(why);
                    break;
                }
            }
        }
        let mut cut = end;
        while let Some(id) = escaping(start, cut) {
            cut -= 1;
            refusal = Some(ChainRefusal::ReadOutsideChain { buffer: name(id) });
        }
        chains.push(Chain {
            stages: start..cut + 1,
            refusal,
        });
        start = cut + 1;
    }
    chains
}

/// A wired, buffer-planned sequence of compiled programs, grouped into
/// chains. Create with [`PipelineBuilder`]; execute through
/// [`CompiledPipeline::session`].
#[derive(Debug, Clone)]
pub struct CompiledPipeline {
    name: String,
    bufs: Interner,
    decls: Vec<BufDecl>,
    stages: Vec<StageSpec>,
    plan: BufferPlan,
    output: u32,
    /// Per stage, the shape-resolved state at the tile-grain rule's
    /// grain (what every [`CompiledPipeline::prepare`] shares), or the
    /// error a stage's proof raised.
    resolved: Result<Arc<[ParallelPrep]>, ScheduleError>,
    /// The chains of `resolved` (one stage each when it failed).
    chains: Vec<Chain>,
}

impl CompiledPipeline {
    /// Pipeline name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Stage labels, in execution order.
    pub fn stage_labels(&self) -> Vec<&str> {
        self.stages.iter().map(|s| s.label.as_str()).collect()
    }

    /// `(label, compiled program)` per stage, in execution order.
    pub fn stage_programs(&self) -> impl Iterator<Item = (&str, &CompiledProgram)> {
        self.stages.iter().map(|s| (s.label.as_str(), &s.program))
    }

    /// The buffer plan: the arena a session allocates.
    pub fn plan(&self) -> &BufferPlan {
        &self.plan
    }

    /// The chains a run dispatches, in stage order, each with
    /// the reason the next stage did not join it.
    pub fn chains(&self) -> &[Chain] {
        &self.chains
    }

    /// Element count of the pipeline output.
    pub fn output_size(&self) -> usize {
        self.decls[self.output as usize].size
    }

    /// Prepares a reusable session that owns its [`PipelinePrep`]:
    /// [`CompiledPipeline::prepare`] + [`CompiledPipeline::session_with`]
    /// in one call. To keep the prep (safety proofs, preludes, arena)
    /// alive *across* sessions — e.g. in a session pool that checks
    /// sessions out per request — hold the prep yourself and pass
    /// `&mut prep` instead.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::BlockAxisNotOutlinable`] when a stage's
    /// block axis is one the outliner cannot hoist or the verifier
    /// cannot prove.
    pub fn session(&self) -> Result<PipelineSession<'_, PipelinePrep>, ScheduleError> {
        Ok(self.session_with(self.prepare()?))
    }

    /// Everything shape-dependent about a session — per-stage preludes
    /// and bound tables, parallel dispatch orders, the safety-verifier
    /// proofs, the chains and the arena — without borrowing the
    /// pipeline. A [`PipelinePrep`] can be stored beside its pipeline
    /// (in a cache or session pool); sessions over it
    /// ([`CompiledPipeline::session_with`]) cost nothing to create. The
    /// tables and proofs were resolved when the pipeline was built (the
    /// chain pass needs them); a prep shares them and allocates the
    /// arena.
    ///
    /// # Errors
    ///
    /// As for [`CompiledPipeline::session`].
    pub fn prepare(&self) -> Result<PipelinePrep, ScheduleError> {
        let stages = self.resolved.clone()?;
        Ok(self.prep_of(stages, self.chains.clone(), &self.plan))
    }

    /// [`CompiledPipeline::prepare`] with every stage proven and
    /// dispatched in tiles of exactly `grain` block values
    /// ([`CompiledProgram::parallel_prep_at_grain`]), and chains and
    /// arena formed from those proofs by the same rule — for checking
    /// the chained execution at a grain the rule does not pick.
    ///
    /// # Errors
    ///
    /// As for [`CompiledPipeline::session`]; a proof that only the
    /// per-block retry would have found is an error here.
    ///
    /// # Panics
    ///
    /// Panics if `grain` is zero.
    pub fn prepare_at_grain(&self, grain: usize) -> Result<PipelinePrep, ScheduleError> {
        let stages = resolve_stages(&self.decls, &self.stages, Some(grain))?;
        let chains = self.form_chains(&stages);
        let plan = BufferPlan::assign(&self.bufs, &self.decls, &self.stages, self.output, &chains);
        Ok(self.prep_of(Arc::from(stages), chains, &plan))
    }

    /// The chain pass over resolved stages.
    fn form_chains(&self, stages: &[ParallelPrep]) -> Vec<Chain> {
        form_chains(&self.bufs, &self.decls, &self.stages, self.output, stages)
    }

    fn prep_of(
        &self,
        stages: Arc<[ParallelPrep]>,
        chains: Vec<Chain>,
        plan: &BufferPlan,
    ) -> PipelinePrep {
        PipelinePrep {
            stages,
            chains: (chains.into_iter())
                .map(|chain| (chain, DispatchBatches::default()))
                .collect(),
            arena: plan.slot_of.clone(),
            slots: plan.sizes.iter().map(|&n| vec![0.0f32; n]).collect(),
        }
    }

    /// The safety proof behind each stage of `prep`, in stage order:
    /// the stage's [`VerifyOutcome`] (in-bounds and disjoint-store
    /// proven at this shape).
    pub fn verify_outcomes<'a>(
        &'a self,
        prep: &'a PipelinePrep,
    ) -> Vec<(&'a str, &'a VerifyOutcome)> {
        (self.stages.iter().zip(prep.stages.iter()))
            .map(|(spec, st)| (spec.label.as_str(), st.verify_outcome()))
            .collect()
    }

    /// The one way to make a [`PipelineSession`]: a view over this
    /// pipeline and a [`PipelinePrep`], held as `&mut` (a pooled prep
    /// whose arena, tables and dispatch batches are literally reused
    /// across sessions) or by value (what [`CompiledPipeline::session`]
    /// does). Nothing is computed, bound or allocated here. The prep
    /// **must** come from this pipeline's own
    /// [`CompiledPipeline::prepare`].
    ///
    /// # Panics
    ///
    /// Panics if the prep's stage count does not match this pipeline.
    pub fn session_with<P: BorrowMut<PipelinePrep>>(&self, prep: P) -> PipelineSession<'_, P> {
        let n = prep.borrow().stages.len();
        assert_eq!(
            n,
            self.stages.len(),
            "prep was built for a different pipeline ({n} stages vs {})",
            self.stages.len()
        );
        PipelineSession {
            pipeline: self,
            prep,
        }
    }
}

/// Resolves every stage at its shape: one built prelude per stage, and
/// the parallel prep proven at `grain` (`None`: the tile-grain rule).
fn resolve_stages(
    decls: &[BufDecl],
    specs: &[StageSpec],
    grain: Option<usize>,
) -> Result<Vec<ParallelPrep>, ScheduleError> {
    let mut stages = Vec::with_capacity(specs.len());
    for spec in specs {
        let prelude = spec.program.build_prelude();
        let prep = spec.program.parallel_prep_with(&prelude, grain)?;
        // Cross-check the verifier's proven access hulls against
        // the planner's buffer sizes: every input the stage reads
        // must fit inside the buffer it is wired to. Both derive
        // from the same lowering, so a mismatch is a planner or
        // verifier bug, not a user error.
        let outcome = prep.verify_outcome();
        for (name, buf) in &spec.inputs {
            if let Some(need) = outcome.required_input_len(name) {
                let planned = decls[*buf as usize].size;
                assert!(
                    planned as i64 >= need,
                    "stage `{}`: verified access hull of `{name}` needs \
                     {need} elements but the plan allots {planned}",
                    spec.label
                );
            }
        }
        stages.push(prep);
    }
    Ok(stages)
}

/// Everything shape-dependent about one pipeline: per stage, the
/// parallel prep; the chains with their dispatch batches; and the arena.
/// Borrows nothing; create with [`CompiledPipeline::prepare`], run
/// through [`CompiledPipeline::session_with`].
#[derive(Debug, Clone)]
pub struct PipelinePrep {
    /// Shared with the pipeline (and every prep at the rule's grain).
    stages: Arc<[ParallelPrep]>,
    /// The chains, each with the dispatch batches cut for the last pool
    /// it ran on.
    chains: Vec<(Chain, DispatchBatches)>,
    /// Buffer id → arena slot, for the buffers that outlive their chain.
    arena: Vec<Option<u32>>,
    /// Arena: one buffer per slot, reused across sessions.
    slots: Vec<Vec<f32>>,
}

impl PipelinePrep {
    /// Total arena size in elements (allocated once, reused per session).
    pub fn arena_elems(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }

    /// The chains this prep dispatches (see [`CompiledPipeline::chains`]).
    pub fn chains(&self) -> impl Iterator<Item = &Chain> {
        self.chains.iter().map(|(chain, _)| chain)
    }

    /// Per stage, the pool width its chain's cached dispatch batches
    /// were cut for (0: the chain has not run yet).
    /// Batches are re-cut only when a run's pool width differs from this
    /// tag, so it persisting across sessions is what makes a new session
    /// free.
    pub fn dispatch_widths(&self) -> Vec<usize> {
        (self.chains.iter())
            .flat_map(|(chain, batches)| chain.stages.clone().map(|_| batches.threads()))
            .collect()
    }
}

/// Statistics of one executed stage.
#[derive(Debug, Clone)]
pub struct StageStats {
    /// Stage label.
    pub label: String,
    /// Instruction-mix statistics (summed over workers, so independent
    /// of the pool width).
    pub stats: InterpStats,
}

/// Result of one pipeline execution.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// The pipeline output buffer.
    pub output: Vec<f32>,
    /// Per-stage statistics, in execution order.
    pub stages: Vec<StageStats>,
    /// Passes over the blocks: one per chain.
    pub dispatches: usize,
}

impl PipelineRun {
    /// Sum of all stages' statistics.
    pub fn total_stats(&self) -> InterpStats {
        self.stages
            .iter()
            .fold(InterpStats::default(), |acc, s| acc + s.stats)
    }
}

/// A pipeline execution at one shape: a view over the pipeline and its
/// [`PipelinePrep`] (borrowed by default, owned when created by
/// [`CompiledPipeline::session`]). Reuse one prep for every run of the
/// same shape (per layer, per call) — runs allocate no intermediate
/// buffers beyond their workers' windows.
#[derive(Debug)]
pub struct PipelineSession<'p, P = &'p mut PipelinePrep> {
    pipeline: &'p CompiledPipeline,
    prep: P,
}

impl<'p, P: BorrowMut<PipelinePrep>> PipelineSession<'p, P> {
    /// Runs every chain as one dispatch across `pool`; `CpuPool::new(1)`
    /// runs every tile inline on the calling thread. Outputs and each
    /// stage's summed per-worker statistics are the same at every pool
    /// width.
    ///
    /// # Panics
    ///
    /// Panics if an external input is missing, misnamed or mis-sized.
    pub fn run(&mut self, pool: &CpuPool, inputs: &[(&str, &[f32])]) -> PipelineRun {
        let pl = self.pipeline;
        let ext = pl.externals(inputs);
        let PipelinePrep {
            stages,
            chains,
            arena,
            slots,
        } = self.prep.borrow_mut();
        let mut stage_stats = Vec::with_capacity(stages.len());
        for (chain, batches) in chains.iter_mut() {
            let range = chain.stages.clone();
            let last = &pl.stages[range.end - 1];
            let out_slot = arena[last.output as usize].expect("a chain output is in the arena");
            // Take the output's slot out of the arena (O(1), no
            // allocation) so the remaining slots can be borrowed as
            // inputs; the plan guarantees no buffer the chain reads
            // shares it.
            let mut out = mem::take(&mut slots[out_slot as usize]);
            let out_view = &mut out[..pl.decls[last.output as usize].size];
            let inputs: Vec<Vec<(&str, ChainInput<'_>)>> = (range.clone())
                .map(|s| {
                    let spec = &pl.stages[s];
                    let wire = |(pname, bid): &'p (String, u32)| {
                        let bid = *bid;
                        let input = match pl.decls[bid as usize].def {
                            Some(k) if range.contains(&k) => ChainInput::Window(k - range.start),
                            None => ChainInput::Shared(ext[bid as usize].expect("validated")),
                            Some(_) => {
                                let slot = arena[bid as usize].expect("planned") as usize;
                                assert_ne!(
                                    slot, out_slot as usize,
                                    "buffer plan aliased a live input of stage `{}`",
                                    spec.label
                                );
                                let size = pl.decls[bid as usize].size;
                                ChainInput::Shared(&slots[slot][..size])
                            }
                        };
                        (pname.as_str(), input)
                    };
                    spec.inputs.iter().map(wire).collect()
                })
                .collect();
            let runs: Vec<ChainRun<'_>> = (range.clone().zip(&inputs))
                .map(|(s, ins)| (&pl.stages[s].program, &stages[s], &ins[..]))
                .collect();
            let stats = run_chain(&runs, batches, pool, out_view);
            drop(inputs);
            slots[out_slot as usize] = out;
            for (s, stats) in range.zip(stats) {
                stage_stats.push(StageStats {
                    label: pl.stages[s].label.clone(),
                    stats,
                });
            }
        }
        let out_slot = arena[pl.output as usize].expect("output is planned") as usize;
        PipelineRun {
            output: slots[out_slot][..pl.output_size()].to_vec(),
            stages: stage_stats,
            dispatches: chains.len(),
        }
    }

    /// [`CompiledPipeline::verify_outcomes`] of this session's prep.
    pub fn verify_outcomes(&self) -> Vec<(&str, &VerifyOutcome)> {
        self.pipeline.verify_outcomes(self.prep.borrow())
    }
}

impl CompiledPipeline {
    /// Resolves and validates a run's external inputs, by buffer id.
    fn externals<'a>(&self, inputs: &[(&str, &'a [f32])]) -> Vec<Option<&'a [f32]>> {
        let mut ext: Vec<Option<&[f32]>> = vec![None; self.decls.len()];
        for (name, data) in inputs {
            let id = self
                .bufs
                .get(name)
                .unwrap_or_else(|| panic!("unknown pipeline input `{name}`"));
            let d = &self.decls[id as usize];
            assert!(
                d.def.is_none(),
                "`{name}` is a stage output, not an external input"
            );
            assert_eq!(
                data.len(),
                d.size,
                "pipeline input `{name}` length mismatch"
            );
            ext[id as usize] = Some(*data);
        }
        for (id, d) in self.decls.iter().enumerate() {
            assert!(
                d.def.is_some() || ext[id].is_some(),
                "missing pipeline input `{}`",
                self.bufs.names()[id]
            );
        }
        ext
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use cora_ragged::RaggedLayout;
    use std::rc::Rc;

    /// `Out[i] = In[i] * c + d` over a dense row, block-bound.
    fn affine_op(name: &str, n: usize, c: f32, d: f32) -> Operator {
        let a = TensorRef::new("In", RaggedLayout::dense(&[n]));
        let out = TensorRef::new("Out", RaggedLayout::dense(&[n]));
        let a2 = a.clone();
        let body: BodyFn = Rc::new(move |args| a2.at(args) * c + d);
        let mut op = Operator::new(
            name,
            vec![LoopSpec::fixed("i", n)],
            vec![],
            out,
            vec![a],
            body,
        );
        op.schedule_mut().bind("i", ForKind::GpuBlockX);
        op
    }

    /// `Out[i] = A[i] + B[i]`, block-bound.
    fn add_op(name: &str, n: usize) -> Operator {
        let a = TensorRef::new("A", RaggedLayout::dense(&[n]));
        let b = TensorRef::new("B", RaggedLayout::dense(&[n]));
        let out = TensorRef::new("Out", RaggedLayout::dense(&[n]));
        let (a2, b2) = (a.clone(), b.clone());
        let body: BodyFn = Rc::new(move |args| a2.at(args) + b2.at(args));
        let mut op = Operator::new(
            name,
            vec![LoopSpec::fixed("i", n)],
            vec![],
            out,
            vec![a, b],
            body,
        );
        op.schedule_mut().bind("i", ForKind::GpuBlockX);
        op
    }

    fn compiled(op: &Operator) -> CompiledProgram {
        lower(op).expect("legal schedule").compile()
    }

    /// Stage by stage, each program run alone on fresh owned buffers
    /// ([`CompiledProgram::run`]): the output and per-stage statistics a
    /// pipeline run must reproduce at every pool width.
    fn fresh_run(p: &CompiledPipeline, x: &[f32]) -> (Vec<f32>, Vec<InterpStats>) {
        let mut bufs: Vec<Option<Vec<f32>>> = vec![None; p.decls.len()];
        bufs[p.bufs.get("X").expect("input X") as usize] = Some(x.to_vec());
        let mut stats = Vec::new();
        for spec in &p.stages {
            let ins: Vec<(&str, Vec<f32>)> = (spec.inputs.iter())
                .map(|(name, id)| (name.as_str(), bufs[*id as usize].clone().expect("defined")))
                .collect();
            let run = spec.program.run(&ins);
            stats.push(run.stats);
            bufs[spec.output as usize] = Some(run.output);
        }
        (bufs[p.output as usize].take().expect("produced"), stats)
    }

    /// Runs `p` on `x` off one session at 1 worker, 4 workers and 1
    /// worker again, and checks each run against [`fresh_run`]; returns
    /// the output.
    fn run_matches_fresh_buffers(p: &CompiledPipeline, x: &[f32], dispatches: usize) -> Vec<f32> {
        let (want, want_stats) = fresh_run(p, x);
        let mut session = p.session().unwrap();
        for workers in [1, 4, 1] {
            let run = session.run(&CpuPool::new(workers), &[("X", x)]);
            assert_eq!(run.output, want, "{workers} workers");
            assert_eq!(run.dispatches, dispatches);
            let labels = run.stages.iter().map(|s| s.label.as_str());
            assert_eq!(labels.collect::<Vec<_>>(), p.stage_labels());
            let stats: Vec<InterpStats> = run.stages.iter().map(|s| s.stats).collect();
            assert_eq!(stats, want_stats, "{workers} workers");
        }
        want
    }

    /// X → double → Y → add(Y, X) → Z → halve → W: a diamond with a
    /// long-lived input and reusable intermediate slots.
    fn diamond(n: usize) -> CompiledPipeline {
        let mut b = PipelineBuilder::new("diamond");
        b.input("X", n).unwrap();
        b.stage(
            "double",
            compiled(&affine_op("double", n, 2.0, 0.0)),
            &[("In", "X")],
            "Y",
        )
        .unwrap();
        b.stage(
            "add",
            compiled(&add_op("add", n)),
            &[("A", "Y"), ("B", "X")],
            "Z",
        )
        .unwrap();
        b.stage(
            "halve",
            compiled(&affine_op("halve", n, 0.5, 1.0)),
            &[("In", "Z")],
            "W",
        )
        .unwrap();
        b.build("W").unwrap()
    }

    #[test]
    fn pipeline_computes_the_chain_and_reuses_slots() {
        let n = 6usize;
        let p = diamond(n);
        assert_eq!(p.stage_labels().len(), 3);
        assert_eq!(p.output_size(), n);
        // All three stages are row-local over the same rows: one chain,
        // whose intermediates are windows, so the arena holds W alone.
        let one = Chain {
            stages: 0..3,
            refusal: None,
        };
        assert_eq!(p.chains(), [one]);
        assert_eq!((p.plan().slot_count(), p.plan().arena_elems()), (1, n));
        assert_eq!(p.plan().unshared_elems(), 3 * n);

        let x: Vec<f32> = (0..n).map(|v| v as f32).collect();
        let want: Vec<f32> = x.iter().map(|v| 0.5 * (2.0 * v + v) + 1.0).collect();
        assert_eq!(run_matches_fresh_buffers(&p, &x, 1), want);
    }

    #[test]
    fn plan_never_aliases_overlapping_lifetimes() {
        for p in [diamond(5), head_then_chain(37)] {
            let entries = p.plan().arena();
            for (i, a) in entries.iter().enumerate() {
                assert!(a.last_use >= a.def);
                for b in &entries[i + 1..] {
                    if a.slot == b.slot {
                        assert!(
                            a.last_use < b.def || b.last_use < a.def,
                            "`{}` [{}, {}] and `{}` [{}, {}] share slot {}",
                            a.name,
                            a.def,
                            a.last_use,
                            b.name,
                            b.def,
                            b.last_use,
                            a.slot
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn builder_rejects_bad_wiring() {
        let n = 4;
        let mut b = PipelineBuilder::new("bad");
        b.input("X", n).unwrap();
        assert_eq!(
            b.input("X", n).unwrap_err(),
            PipelineError::DuplicateBuffer("X".into())
        );
        let err = b
            .stage(
                "s",
                compiled(&affine_op("s", n, 1.0, 0.0)),
                &[("In", "nope")],
                "Y",
            )
            .unwrap_err();
        assert!(matches!(err, PipelineError::UnknownBuffer { .. }), "{err}");
        let err = b
            .stage("s", compiled(&affine_op("s", n, 1.0, 0.0)), &[], "Y")
            .unwrap_err();
        assert!(matches!(err, PipelineError::UnwiredInput { .. }), "{err}");
        let err = b
            .stage(
                "s",
                compiled(&affine_op("s", n, 1.0, 0.0)),
                &[("In", "X"), ("Bogus", "X")],
                "Y",
            )
            .unwrap_err();
        assert!(matches!(err, PipelineError::NotAnInput { .. }), "{err}");
        let err = b
            .stage(
                "s",
                compiled(&add_op("s", n)),
                &[("A", "X"), ("B", "X"), ("A", "X")],
                "Y",
            )
            .unwrap_err();
        assert!(matches!(err, PipelineError::DuplicateWire { .. }), "{err}");
        b.stage(
            "ok",
            compiled(&affine_op("ok", n, 1.0, 0.0)),
            &[("In", "X")],
            "Y",
        )
        .unwrap();
        let err = b
            .stage(
                "dup",
                compiled(&affine_op("dup", n, 1.0, 0.0)),
                &[("In", "X")],
                "Y",
            )
            .unwrap_err();
        assert_eq!(err, PipelineError::DuplicateBuffer("Y".into()));
        let err = b.build("X").unwrap_err();
        assert_eq!(err, PipelineError::MissingOutput("X".into()));
    }

    /// `Out[i] = In[n − 1 − i]`, block-bound.
    fn reverse_op(name: &str, n: usize) -> Operator {
        let a = TensorRef::new("In", RaggedLayout::dense(&[n]));
        let out = TensorRef::new("Out", RaggedLayout::dense(&[n]));
        let a2 = a.clone();
        let body: BodyFn = Rc::new(move |args| a2.at(&[Expr::int(n as i64 - 1) - args[0].clone()]));
        let loops = vec![LoopSpec::fixed("i", n)];
        let mut op = Operator::new(name, loops, vec![], out, vec![a], body);
        op.schedule_mut().bind("i", ForKind::GpuBlockX);
        op
    }

    /// Four stages: `X → Y`, then a row chain `Y → A → B → C` whose
    /// first stage reads `Y` back to front.
    fn head_then_chain(n: usize) -> CompiledPipeline {
        let head = compiled(&affine_op("head", n, 3.0, 1.0));
        let mut b = PipelineBuilder::new("regression");
        b.input("X", n).unwrap();
        b.stage("head", head, &[("In", "X")], "Y").unwrap();
        let rev = compiled(&reverse_op("rev", n));
        b.stage("rev", rev, &[("In", "Y")], "A").unwrap();
        let scale = compiled(&affine_op("scale", n, 0.5, 2.0));
        b.stage("scale", scale, &[("In", "A")], "B").unwrap();
        let shift = compiled(&affine_op("shift", n, 1.0, -4.0));
        b.stage("shift", shift, &[("In", "B")], "C").unwrap();
        b.build("C").unwrap()
    }

    /// Stage by stage `Y` would die at stage 1 and `C` be born at stage
    /// 3, so a plan that kept those lifetimes could put `C` in `Y`'s slot
    /// — and the chain's first tile would overwrite the `Y` rows its last
    /// tile reads. The arena keeps `Y` live through the chain and `C`
    /// from its start.
    #[test]
    fn a_chain_keeps_the_arena_buffers_it_reads_live() {
        let n = 37usize;
        let p = head_then_chain(n);
        let chains: Vec<Range<usize>> = p.chains().iter().map(|c| c.stages.clone()).collect();
        assert_eq!(chains, [0..1, 1..4]);
        let refused = ChainRefusal::NotContained {
            buffer: "Y".into(),
            tile: 0,
        };
        assert_eq!(p.chains()[0].refusal, Some(refused));
        let entry = |name: &str| {
            let e = (p.plan().arena().iter())
                .find(|e| e.name == name)
                .expect("planned");
            (e.def, e.last_use, e.slot)
        };
        let (y, c) = (entry("Y"), entry("C"));
        assert_eq!((y.0, y.1, c.0, c.1), (0, 3, 1, 4));
        assert_ne!(y.2, c.2, "the chain reads Y while it writes C");

        let x: Vec<f32> = (0..n).map(|v| v as f32 * 0.75 - 9.0).collect();
        let want: Vec<f32> = (0..n)
            .map(|i| ((3.0 * x[n - 1 - i] + 1.0) * 0.5 + 2.0) * 1.0 - 4.0)
            .collect();
        assert_eq!(run_matches_fresh_buffers(&p, &x, 2), want);
    }

    /// `Out[r] = In[r] + In[(r + 1) mod n]` reads its neighbour row, so
    /// it cannot run inside its producer's tiles: the chain ends with
    /// the refusal naming the buffer and the first tile, and the output
    /// is still right.
    #[test]
    fn a_neighbour_row_read_is_refused_and_still_correct() {
        let n = 9usize;
        let a = TensorRef::new("In", RaggedLayout::dense(&[n]));
        let out = TensorRef::new("Out", RaggedLayout::dense(&[n]));
        let a2 = a.clone();
        let body: BodyFn = Rc::new(move |args| {
            let next = (args[0].clone() + 1).floor_mod(Expr::int(n as i64));
            a2.at(args) + a2.at(&[next])
        });
        let loops = vec![LoopSpec::fixed("i", n)];
        let mut pair = Operator::new("pair", loops, vec![], out, vec![a], body);
        pair.schedule_mut().bind("i", ForKind::GpuBlockX);
        let mut b = PipelineBuilder::new("neighbour");
        b.input("X", n).unwrap();
        let double = compiled(&affine_op("double", n, 2.0, 0.0));
        b.stage("double", double, &[("In", "X")], "Y").unwrap();
        b.stage("pair", compiled(&pair), &[("In", "Y")], "Z")
            .unwrap();
        let p = b.build("Z").unwrap();
        let refused = ChainRefusal::NotContained {
            buffer: "Y".into(),
            tile: 0,
        };
        let chains = [
            Chain {
                stages: 0..1,
                refusal: Some(refused),
            },
            Chain {
                stages: 1..2,
                refusal: None,
            },
        ];
        assert_eq!(p.chains(), chains);
        let x: Vec<f32> = (0..n).map(|v| v as f32).collect();
        let want: Vec<f32> = (0..n).map(|i| 2.0 * x[i] + 2.0 * x[(i + 1) % n]).collect();
        assert_eq!(run_matches_fresh_buffers(&p, &x, 2), want);
    }

    #[test]
    fn a_stage_without_block_axis_is_refused() {
        let n = 4;
        let mut op = affine_op("plain", n, 3.0, 0.0);
        op.schedule = Schedule::default(); // drop the block binding
        let mut b = PipelineBuilder::new("serial");
        b.input("X", n).unwrap();
        let err = b
            .stage("plain", compiled(&op), &[("In", "X")], "Y")
            .unwrap_err();
        assert_eq!(err, PipelineError::NoBlockAxis("plain".into()));
    }
}

//! Multi-operator compiled pipelines: chaining compiled programs through
//! a statically planned buffer arena.
//!
//! A single [`CompiledProgram`] executes
//! one ragged operator. Real workloads — the paper's §7 transformer
//! encoder layer above all — are *chains* of operators whose
//! intermediates exist only to feed the next stage. Running such a chain
//! through the single-program interface costs, per operator per call:
//! a fresh output `Vec`, a prelude rebuild, aux-table rebinding and
//! dispatch-order resolution. [`CompiledPipeline`] hoists all of it to
//! *once per shape*:
//!
//! * **Wiring** ([`PipelineBuilder`]): stages connect through named
//!   pipeline buffers (interned with [`cora_ir::slots::Interner`], the
//!   same dense-identity machinery the VM uses within one program). Each
//!   buffer has exactly one writer; external inputs are declared up
//!   front and bound per call.
//! * **Buffer plan** ([`BufferPlan`]): every stage-produced buffer gets a
//!   lifetime `[def stage, last use stage]`, and buffers with disjoint
//!   lifetimes share an arena *slot*. Slots are allocated once per
//!   session, so repeated calls allocate no intermediate storage at all.
//! * **Execution** ([`PipelinePrep`] + [`PipelineSession`]): a prep owns
//!   everything shape-dependent — per stage, the prelude-bound serial
//!   table, the parallel tier's [`ParallelPrep`] (bound block-body
//!   table, proof, dispatch order) and the dispatch batches cut for the
//!   last pool width, plus the arena. A session is a view
//!   `{&pipeline, prep}` and each run binds arena views through the
//!   VM's borrowed-buffer entry points.
//!   Runs execute serially ([`PipelineSession::run_serial`]) or with
//!   every outlined block axis dispatched across a [`CpuPool`]
//!   ([`PipelineSession::run`]), with identical results — parallel
//!   stages are bit-identical to serial ones — and per-stage
//!   [`InterpStats`].
//!
//! # Example
//!
//! Two chained elementwise operators (`Y = 2·X`, `Z = 2·Y`), compiled
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
//!
//! // Everything shape-dependent is resolved here, once.
//! let mut session = pipeline.session().unwrap();
//! let pool = CpuPool::new(2);
//! for _layer in 0..2 {
//!     let run = session.run(&pool, &[("X", &[1.0, 2.0, 3.0, 4.0])]);
//!     assert_eq!(run.output, vec![4.0, 8.0, 12.0, 16.0]);
//!     assert_eq!(run.stages.len(), 2);
//! }
//! ```

use std::borrow::BorrowMut;
use std::fmt;
use std::mem;

use cora_exec::cpu::CpuPool;
use cora_exec::interp::InterpStats;
use cora_exec::vm::{BoundBuf, VmShared};
use cora_ir::slots::Interner;

use crate::program::{CompiledProgram, DispatchBatches, ParallelPrep};
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
    /// See [`PipelineError`]: unknown or duplicate buffers, wires to
    /// buffers the program never reads, or unwired program inputs.
    pub fn stage(
        &mut self,
        label: &str,
        program: CompiledProgram,
        wires: &[(&str, &str)],
        output: &str,
    ) -> Result<&mut Self, PipelineError> {
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
    /// [`PipelineRun::output`] returns, computing the arena buffer plan.
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
        let plan = BufferPlan::assign(&self.bufs, &self.decls, &self.stages, out_id);
        Ok(CompiledPipeline {
            name: self.name,
            bufs: self.bufs,
            decls: self.decls,
            stages: self.stages,
            plan,
            output: out_id,
        })
    }
}

/// One planned intermediate buffer: its lifetime in stage indices and the
/// arena slot it was assigned.
#[derive(Debug, Clone)]
pub struct PlanEntry {
    /// Pipeline buffer name.
    pub name: String,
    /// Element count.
    pub size: usize,
    /// Producing stage index.
    pub def: usize,
    /// Last stage index that reads the buffer (the pipeline output stays
    /// live through the final stage). Equals `def` for dead outputs.
    pub last_use: usize,
    /// Assigned arena slot.
    pub slot: u32,
}

/// The static arena plan: every stage output is assigned a slot such that
/// two buffers share a slot only when their lifetimes are disjoint, and
/// each slot is sized for the largest buffer it ever holds.
#[derive(Debug, Clone)]
pub struct BufferPlan {
    entries: Vec<PlanEntry>,
    /// Buffer id → planned entry index (externals unmapped).
    entry_of: Vec<Option<usize>>,
    slot_sizes: Vec<usize>,
}

impl BufferPlan {
    fn assign(bufs: &Interner, decls: &[BufDecl], stages: &[StageSpec], output: u32) -> BufferPlan {
        // Lifetimes: def = producing stage; last_use = max reading stage
        // (the pipeline output is read "after" the last stage).
        let mut last_use: Vec<usize> = decls.iter().map(|d| d.def.unwrap_or(0)).collect();
        for (si, st) in stages.iter().enumerate() {
            for (_, id) in &st.inputs {
                last_use[*id as usize] = last_use[*id as usize].max(si);
            }
        }
        last_use[output as usize] = stages.len();

        let mut entries: Vec<PlanEntry> = Vec::new();
        let mut entry_of: Vec<Option<usize>> = vec![None; decls.len()];
        let mut slot_sizes: Vec<usize> = Vec::new();
        let mut free: Vec<u32> = Vec::new();
        // One output per stage, so walking stages walks defs in order.
        for (si, st) in stages.iter().enumerate() {
            // Release buffers whose last use is strictly before this
            // stage — their slots may be reused by this stage's output
            // (but not by anything live *during* their last use).
            for e in &entries {
                if e.last_use < si && !free.contains(&e.slot) {
                    let still_held = entries.iter().any(|o| o.slot == e.slot && o.last_use >= si);
                    if !still_held {
                        free.push(e.slot);
                    }
                }
            }
            let id = st.output as usize;
            let size = decls[id].size;
            // Best fit: the smallest free slot that already fits, else
            // the free slot needing the least growth, else a new slot.
            let slot = match free
                .iter()
                .enumerate()
                .filter(|(_, &s)| slot_sizes[s as usize] >= size)
                .min_by_key(|(_, &s)| slot_sizes[s as usize])
                .or_else(|| {
                    free.iter()
                        .enumerate()
                        .max_by_key(|(_, &s)| slot_sizes[s as usize])
                })
                .map(|(i, _)| i)
            {
                Some(i) => free.swap_remove(i),
                None => {
                    slot_sizes.push(0);
                    (slot_sizes.len() - 1) as u32
                }
            };
            slot_sizes[slot as usize] = slot_sizes[slot as usize].max(size);
            entry_of[id] = Some(entries.len());
            entries.push(PlanEntry {
                name: bufs.names()[id].clone(),
                size,
                def: si,
                last_use: last_use[id],
                slot,
            });
        }
        BufferPlan {
            entries,
            entry_of,
            slot_sizes,
        }
    }

    /// The planned stage outputs, in stage order.
    pub fn entries(&self) -> &[PlanEntry] {
        &self.entries
    }

    /// Number of arena slots.
    pub fn slot_count(&self) -> usize {
        self.slot_sizes.len()
    }

    /// Total arena size in elements (what a session allocates once).
    pub fn arena_elems(&self) -> usize {
        self.slot_sizes.iter().sum()
    }

    /// Sum of all planned buffer sizes — what per-op fresh allocation
    /// would cost per call; `arena_elems() ≤ unshared_elems()`.
    pub fn unshared_elems(&self) -> usize {
        self.entries.iter().map(|e| e.size).sum()
    }

    fn slot_of(&self, buf: u32) -> Option<u32> {
        self.entry_of[buf as usize].map(|i| self.entries[i].slot)
    }
}

/// A wired, buffer-planned chain of compiled programs. Create with
/// [`PipelineBuilder`]; execute through [`CompiledPipeline::session`].
#[derive(Debug, Clone)]
pub struct CompiledPipeline {
    name: String,
    bufs: Interner,
    decls: Vec<BufDecl>,
    stages: Vec<StageSpec>,
    plan: BufferPlan,
    output: u32,
}

impl CompiledPipeline {
    /// Pipeline name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Stage labels, in execution order.
    pub fn stage_labels(&self) -> Vec<&str> {
        self.stages.iter().map(|s| s.label.as_str()).collect()
    }

    /// `(label, compiled program)` per stage, in execution order.
    pub fn stage_programs(&self) -> impl Iterator<Item = (&str, &CompiledProgram)> {
        self.stages.iter().map(|s| (s.label.as_str(), &s.program))
    }

    /// The arena buffer plan.
    pub fn plan(&self) -> &BufferPlan {
        &self.plan
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
    /// Returns [`ScheduleError::BlockAxisNotOutlinable`] when a stage
    /// binds a block axis the outliner cannot hoist (stages with *no*
    /// block axis are legal — they run serially in both modes).
    pub fn session(&self) -> Result<PipelineSession<'_, PipelinePrep>, ScheduleError> {
        Ok(self.session_with(self.prepare()?))
    }

    /// Computes everything shape-dependent about a session — per-stage
    /// preludes and bound tables, parallel dispatch orders, the
    /// safety-verifier proofs and the arena — without borrowing the
    /// pipeline. A [`PipelinePrep`] can be stored beside its pipeline
    /// (in a cache or session pool); sessions over it
    /// ([`CompiledPipeline::session_with`]) cost nothing to create.
    ///
    /// # Errors
    ///
    /// As for [`CompiledPipeline::session`].
    pub fn prepare(&self) -> Result<PipelinePrep, ScheduleError> {
        let mut stages = Vec::with_capacity(self.stages.len());
        for spec in &self.stages {
            // One built prelude per stage: the proof, the serial tier and
            // the parallel tier all share its tables.
            let prelude = spec.program.build_prelude();
            let par = spec.program.parallel_prep_with(&prelude, None)?;
            if let Some(prep) = &par {
                // Cross-check the verifier's proven access hulls against
                // the planner's buffer sizes: every input the stage reads
                // must fit inside the arena slot it is wired to. Both
                // derive from the same lowering, so a mismatch is a
                // planner or verifier bug, not a user error.
                let outcome = prep.verify_outcome();
                for (name, buf) in &spec.inputs {
                    if let Some(need) = outcome.required_input_len(name) {
                        let planned = self.decls[*buf as usize].size;
                        assert!(
                            planned as i64 >= need,
                            "stage `{}`: verified access hull of `{name}` needs \
                             {need} elements but the plan allots {planned}",
                            spec.label
                        );
                    }
                }
            }
            stages.push(StagePrep {
                serial: spec.program.serial_shared_with(&prelude),
                par: par.map(|prep| (prep, DispatchBatches::default())),
            });
        }
        Ok(PipelinePrep {
            stages,
            slots: self
                .plan
                .slot_sizes
                .iter()
                .map(|&n| vec![0.0f32; n])
                .collect(),
        })
    }

    /// The safety proof behind each stage of `prep`, in stage order:
    /// `Some` with the stage's [`VerifyOutcome`] when it runs on the
    /// parallel tier (in-bounds and disjoint-store proven at this
    /// shape), `None` when the stage has no block axis and runs serially
    /// (no shared-output writes to prove anything about).
    pub fn verify_outcomes<'a>(
        &'a self,
        prep: &'a PipelinePrep,
    ) -> Vec<(&'a str, Option<&'a VerifyOutcome>)> {
        self.stages
            .iter()
            .zip(&prep.stages)
            .map(|(spec, st)| {
                let outcome = st.par.as_ref().map(|(prep, _)| prep.verify_outcome());
                (spec.label.as_str(), outcome)
            })
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

/// Everything shape-dependent about one pipeline: per stage, the serial
/// program's prelude-bound table and (for stages with a block axis) the
/// parallel prep with its dispatch batches, plus the arena buffers.
/// Borrows nothing; create with [`CompiledPipeline::prepare`], run
/// through [`CompiledPipeline::session_with`].
#[derive(Debug, Clone)]
pub struct PipelinePrep {
    stages: Vec<StagePrep>,
    /// Arena: one buffer per plan slot, reused across sessions.
    slots: Vec<Vec<f32>>,
}

impl PipelinePrep {
    /// Total arena size in elements (allocated once, reused per session).
    pub fn arena_elems(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }

    /// Per parallel stage, the pool width its cached dispatch batches
    /// were cut for (0: the stage has not run in parallel yet). Batches
    /// are re-cut only when a run's pool width differs from this tag, so
    /// it persisting across sessions is what makes a new session free.
    pub fn dispatch_widths(&self) -> Vec<usize> {
        self.stages
            .iter()
            .filter_map(|st| st.par.as_ref().map(|(_, batches)| batches.threads()))
            .collect()
    }
}

/// Shape-resolved state of one stage.
#[derive(Debug, Clone)]
struct StagePrep {
    /// Full serial program with its prelude bound (borrowed-buffer runs).
    serial: VmShared,
    /// The parallel tier, when the stage has a block axis, with the
    /// dispatch batches cut for the last pool it ran on.
    par: Option<(ParallelPrep, DispatchBatches)>,
}

/// Statistics of one executed stage.
#[derive(Debug, Clone)]
pub struct StageStats {
    /// Stage label.
    pub label: String,
    /// Instruction-mix statistics (parallel runs sum per-worker counters,
    /// equalling the serial run exactly).
    pub stats: InterpStats,
}

/// Result of one pipeline execution.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// The pipeline output buffer.
    pub output: Vec<f32>,
    /// Per-stage statistics, in execution order.
    pub stages: Vec<StageStats>,
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
/// buffers.
#[derive(Debug)]
pub struct PipelineSession<'p, P = &'p mut PipelinePrep> {
    pipeline: &'p CompiledPipeline,
    prep: P,
}

impl<P: BorrowMut<PipelinePrep>> PipelineSession<'_, P> {
    /// Runs every stage with its outlined block axis dispatched across
    /// `pool` (stages without a block axis run serially). Outputs are
    /// bit-identical to [`PipelineSession::run_serial`], and each stage's
    /// summed per-worker statistics equal its serial statistics exactly.
    ///
    /// # Panics
    ///
    /// Panics if an external input is missing, misnamed or mis-sized.
    pub fn run(&mut self, pool: &CpuPool, inputs: &[(&str, &[f32])]) -> PipelineRun {
        self.run_inner(Some(pool), inputs)
    }

    /// [`CompiledPipeline::verify_outcomes`] of this session's prep.
    pub fn verify_outcomes(&self) -> Vec<(&str, Option<&VerifyOutcome>)> {
        self.pipeline.verify_outcomes(self.prep.borrow())
    }

    /// Runs every stage on the calling thread.
    ///
    /// # Panics
    ///
    /// As for [`PipelineSession::run`].
    pub fn run_serial(&mut self, inputs: &[(&str, &[f32])]) -> PipelineRun {
        self.run_inner(None, inputs)
    }

    fn run_inner(&mut self, pool: Option<&CpuPool>, inputs: &[(&str, &[f32])]) -> PipelineRun {
        let pl = self.pipeline;
        // Resolve and validate the external inputs.
        let mut ext: Vec<Option<&[f32]>> = vec![None; pl.decls.len()];
        for (name, data) in inputs {
            let id = pl
                .bufs
                .get(name)
                .unwrap_or_else(|| panic!("unknown pipeline input `{name}`"));
            let d = &pl.decls[id as usize];
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
        for (id, d) in pl.decls.iter().enumerate() {
            assert!(
                d.def.is_some() || ext[id].is_some(),
                "missing pipeline input `{}`",
                pl.bufs.names()[id]
            );
        }

        let PipelinePrep { stages, slots } = self.prep.borrow_mut();
        let mut stage_stats = Vec::with_capacity(stages.len());
        for (spec, st) in pl.stages.iter().zip(stages) {
            let out_size = pl.decls[spec.output as usize].size;
            let out_slot = pl
                .plan
                .slot_of(spec.output)
                .expect("stage outputs are planned") as usize;
            // Take the output's slot out of the arena (O(1), no
            // allocation) so the remaining slots can be borrowed as
            // inputs; the plan guarantees no live input shares it.
            let mut out = mem::take(&mut slots[out_slot]);
            let ins: Vec<(&str, &[f32])> = spec
                .inputs
                .iter()
                .map(|(pname, bid)| {
                    let slice: &[f32] = match pl.decls[*bid as usize].def {
                        None => ext[*bid as usize].expect("validated above"),
                        Some(_) => {
                            let slot = pl.plan.slot_of(*bid).expect("planned") as usize;
                            assert_ne!(
                                slot, out_slot,
                                "buffer plan aliased a live input of stage `{}`",
                                spec.label
                            );
                            &slots[slot][..pl.decls[*bid as usize].size]
                        }
                    };
                    (pname.as_str(), slice)
                })
                .collect();
            let out_view = &mut out[..out_size];
            let stats = match (pool, &mut st.par) {
                (Some(pool), Some((prep, batches))) => {
                    spec.program.run_blocks(prep, batches, pool, &ins, out_view)
                }
                _ => {
                    out_view.fill(spec.program.output_init());
                    let mut bufs: Vec<(&str, BoundBuf<'_>)> =
                        ins.iter().map(|(n, s)| (*n, BoundBuf::In(s))).collect();
                    bufs.push((spec.program.output_name(), BoundBuf::Out(out_view)));
                    st.serial.run_borrowed(bufs)
                }
            };
            drop(ins);
            slots[out_slot] = out;
            stage_stats.push(StageStats {
                label: spec.label.clone(),
                stats,
            });
        }

        let out_slot = pl.plan.slot_of(pl.output).expect("output is planned") as usize;
        PipelineRun {
            output: slots[out_slot][..pl.decls[pl.output as usize].size].to_vec(),
            stages: stage_stats,
        }
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
        assert_eq!(p.stage_count(), 3);
        assert_eq!(p.output_size(), n);
        // Y dies after stage 1, so W (def stage 2) reuses its slot: the
        // arena needs 2 slots, not 3.
        assert_eq!(p.plan().slot_count(), 2);
        assert_eq!(p.plan().arena_elems(), 2 * n);
        assert!(p.plan().arena_elems() < p.plan().unshared_elems());

        let x: Vec<f32> = (0..n).map(|v| v as f32).collect();
        let mut session = p.session().unwrap();
        let pool = CpuPool::new(4);
        let want: Vec<f32> = x.iter().map(|v| 0.5 * (2.0 * v + v) + 1.0).collect();
        // Session reuse: repeated runs, serial and parallel, all agree.
        for _ in 0..2 {
            let serial = session.run_serial(&[("X", &x)]);
            assert_eq!(serial.output, want);
            let par = session.run(&pool, &[("X", &x)]);
            assert_eq!(par.output, serial.output, "parallel must be bit-identical");
            assert_eq!(par.stages.len(), serial.stages.len());
            for (a, b) in par.stages.iter().zip(&serial.stages) {
                assert_eq!(a.label, b.label);
                assert_eq!(a.stats, b.stats, "stage `{}` stats diverge", a.label);
            }
            assert_eq!(par.total_stats(), serial.total_stats());
        }
    }

    #[test]
    fn plan_never_aliases_overlapping_lifetimes() {
        let p = diamond(5);
        let entries = p.plan().entries();
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

    #[test]
    fn serial_stage_without_block_axis_is_legal() {
        let n = 4;
        let mut op = affine_op("plain", n, 3.0, 0.0);
        op.schedule = Schedule::default(); // drop the block binding
        let mut b = PipelineBuilder::new("serial");
        b.input("X", n).unwrap();
        b.stage("plain", compiled(&op), &[("In", "X")], "Y")
            .unwrap();
        let p = b.build("Y").unwrap();
        let mut s = p.session().unwrap();
        let x = vec![1.0f32; n];
        // Parallel mode falls back to serial execution for this stage.
        let run = s.run(&CpuPool::new(2), &[("X", &x)]);
        assert_eq!(run.output, vec![3.0; n]);
    }
}

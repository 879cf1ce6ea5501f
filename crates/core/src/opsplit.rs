//! Operation splitting and horizontal fusion (§4.1, Fig. 5).
//!
//! *Operation splitting* turns one vloop-nest operator into two operators
//! covering disjoint iteration ranges of a vloop: the first runs
//! `[0, s1(o))`, the second `[s1(o), s(o))`. Scheduling them differently
//! lets the bulky first part run guard-free with large tiles while the
//! ragged tail keeps its small extent — no padding needed.
//!
//! *Horizontal fusion* (hfusion, after Li et al. 2020) then executes the
//! two resulting kernels as one launch so the split does not halve
//! parallelism — on the simulated GPU this concatenates their block
//! lists (see [`SimKernel::hfuse`]).
//!
//! [`SimKernel::hfuse`]: cora_exec::gpu::SimKernel::hfuse

use std::rc::Rc;

use cora_exec::cost::{GpuModel, KernelTraits};
use cora_exec::gpu::SimKernel;
use cora_ragged::LengthFn;

use crate::api::{LoopExtent, LoopShift, Operator};
use crate::program::Program;
use crate::schedule::ScheduleError;

/// Splits `op` at vloop `loop_name` with per-slice split points
/// `split_at(dep_index)`.
///
/// Returns `(head, tail)`: `head` iterates `[0, min(split_at(o), s(o)))`,
/// `tail` iterates the remainder. Both inherit empty schedules (the point
/// of the transform is to schedule them differently).
///
/// # Errors
///
/// Returns [`ScheduleError::UnknownLoop`] if `loop_name` is not a vloop of
/// `op`.
pub fn split_operation(
    op: &Operator,
    loop_name: &str,
    split_at: &dyn Fn(usize) -> usize,
) -> Result<(Operator, Operator), ScheduleError> {
    // Locate the loop among spatial + reduce loops.
    let all: Vec<(&crate::api::LoopSpec, bool)> = op
        .loops
        .iter()
        .map(|l| (l, false))
        .chain(op.reduce.iter().map(|l| (l, true)))
        .collect();
    let Some((spec, _is_reduce)) = all.iter().find(|(l, _)| l.name == loop_name) else {
        return Err(ScheduleError::UnknownLoop(loop_name.to_string()));
    };
    let LoopExtent::Variable { dep, lens } = &spec.extent else {
        return Err(ScheduleError::UnknownLoop(format!(
            "{loop_name} is not a vloop; operation splitting targets vloops"
        )));
    };
    let dep = *dep;
    let head_lens: Vec<usize> = (0..lens.domain())
        .map(|o| lens.len_at(o).min(split_at(o)))
        .collect();
    let tail_lens: Vec<usize> = (0..lens.domain())
        .map(|o| lens.len_at(o) - head_lens[o])
        .collect();

    let mut head = clone_operator(op, &format!("{}_head", op.name));
    let mut tail = clone_operator(op, &format!("{}_tail", op.name));
    set_loop_lens(&mut head, loop_name, LengthFn::new(head_lens.clone()));
    set_loop_lens(&mut tail, loop_name, LengthFn::new(tail_lens));
    tail.shifts.push(LoopShift {
        loop_name: loop_name.to_string(),
        dep,
        buffer: format!("{}__split_base", tail.name),
        lens: LengthFn::new(head_lens),
    });
    Ok((head, tail))
}

fn clone_operator(op: &Operator, name: &str) -> Operator {
    Operator {
        name: name.to_string(),
        loops: op.loops.clone(),
        reduce: op.reduce.clone(),
        output: op.output.clone(),
        inputs: op.inputs.clone(),
        body: Rc::clone(&op.body),
        init: op.init,
        reduce_kind: op.reduce_kind,
        schedule: crate::schedule::Schedule::default(),
        shifts: op.shifts.clone(),
        aux_tables: op.aux_tables.clone(),
    }
}

fn set_loop_lens(op: &mut Operator, loop_name: &str, new_lens: LengthFn) {
    for l in op.loops.iter_mut().chain(op.reduce.iter_mut()) {
        if l.name == loop_name {
            if let LoopExtent::Variable { lens, .. } = &mut l.extent {
                *lens = new_lens;
                return;
            }
        }
    }
    unreachable!("loop existence checked by caller");
}

/// Horizontally fuses the simulated kernels of several programs into one
/// launch.
///
/// # Panics
///
/// Panics if `programs` is empty.
pub fn hfuse_sim(programs: &[&Program], model: &GpuModel, traits: KernelTraits) -> SimKernel {
    let kernels = programs.iter().map(|p| p.sim_kernel(model, traits));
    kernels
        .reduce(SimKernel::hfuse)
        .expect("hfusion needs at least one program")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{BodyFn, LoopSpec, TensorRef};
    use cora_ragged::{Dim, RaggedLayout};

    fn ragged_layout(lens: &[usize]) -> RaggedLayout {
        let b = Dim::new("b");
        let l = Dim::new("l");
        RaggedLayout::builder()
            .cdim(b.clone(), lens.len())
            .vdim(l, &b, lens.to_vec())
            .build()
            .unwrap()
    }

    fn double_op(lens: &[usize]) -> Operator {
        let a = TensorRef::new("A", ragged_layout(lens));
        let out = TensorRef::new("B", ragged_layout(lens));
        let a2 = a.clone();
        let body: BodyFn = Rc::new(move |args| a2.at(args) * 2.0);
        Operator::new(
            "double",
            vec![
                LoopSpec::fixed("o", lens.len()),
                LoopSpec::variable("i", 0, lens.to_vec()),
            ],
            vec![],
            out,
            vec![a],
            body,
        )
    }

    #[test]
    fn split_partitions_iteration_space() {
        let lens = [5usize, 2, 7];
        let op = double_op(&lens);
        let (head, tail) = split_operation(&op, "i", &|_| 4).unwrap();
        assert_eq!(head.iteration_count() + tail.iteration_count(), 14);
        assert_eq!(head.iteration_count(), 4 + 2 + 4);
        assert_eq!(tail.shifts.len(), 1);
    }

    #[test]
    fn split_then_execute_covers_everything() {
        let lens = [5usize, 2, 7];
        let op = double_op(&lens);
        let (head, tail) = split_operation(&op, "i", &|_| 4).unwrap();
        let ph = crate::lower::lower(&head).unwrap();
        let pt = crate::lower::lower(&tail).unwrap();
        let total: usize = lens.iter().sum();
        let input: Vec<f32> = (0..total).map(|x| x as f32).collect();
        let rh = ph.run(&[("A", input.clone())]);
        // Feed head's output as the starting state for tail so the pieces
        // combine (tail writes the disjoint remainder).
        let mut m = pt.prepare(&[("A", input.clone())]).0;
        m.set_fbuffer("B", rh.output);
        m.run(pt.stmt());
        let out = m.take_fbuffer("B").unwrap();
        let expect: Vec<f32> = input.iter().map(|x| 2.0 * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn unknown_loop_rejected() {
        let op = double_op(&[1, 2]);
        assert!(split_operation(&op, "zz", &|_| 1).is_err());
        // Constant loops cannot be op-split in this prototype.
        assert!(split_operation(&op, "o", &|_| 1).is_err());
    }

    #[test]
    fn hfuse_concatenates_blocks() {
        let op = double_op(&[4, 4]);
        let (head, tail) = split_operation(&op, "i", &|_| 2).unwrap();
        let ph = crate::lower::lower(&head).unwrap();
        let pt = crate::lower::lower(&tail).unwrap();
        let model = GpuModel::default();
        let fused = hfuse_sim(&[&ph, &pt], &model, KernelTraits::generated());
        let a = ph.sim_kernel(&model, KernelTraits::generated());
        let b = pt.sim_kernel(&model, KernelTraits::generated());
        assert_eq!(
            fused.block_costs_us.len(),
            a.block_costs_us.len() + b.block_costs_us.len()
        );
    }
}

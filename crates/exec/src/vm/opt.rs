//! Block-local common-subexpression elimination and dead-code
//! elimination over the flat instruction stream.

use cora_ir::IBinOp;

use super::isa::Instr;

/// Symbolic value of one pure integer instruction, over value ids rather
/// than register names (so operand overwrites can never produce a stale
/// hit) with per-block-versioned variable reads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ValKey {
    Const(i64),
    Var(u32, u32),
    Bin(IBinOp, u32, u32),
    BinC(IBinOp, u32, i64),
    BinV(IBinOp, u32, u32, u32),
    Load(u32, u32),
    LoadV(u32, u32, u32),
}

/// Calls `f` with every integer register the instruction *reads*.
fn ireg_reads_mut(ins: &mut Instr, f: &mut impl FnMut(&mut u16)) {
    match ins {
        Instr::ICopy { src, .. } => f(src),
        Instr::IBin { a, b, .. } => {
            f(a);
            f(b);
        }
        Instr::IBinC { a, .. } | Instr::IBinV { a, .. } => f(a),
        Instr::ILoad { idx, .. } => f(idx),
        Instr::SetVar { src, .. } | Instr::LetVar { src, .. } | Instr::FCast { src, .. } => f(src),
        Instr::BrVarGe { lim, .. } | Instr::LoopNext { lim, .. } => f(lim),
        Instr::BrCmp { a, b, .. } => {
            f(a);
            f(b);
        }
        Instr::FLoad { idx, .. } | Instr::FStore { idx, .. } => f(idx),
        Instr::FAlloc { size, .. } => f(size),
        Instr::FNest(op) => {
            let probes =
                std::iter::once(&mut op.out_idx).chain(op.sites.iter_mut().map(|s| &mut s.idx));
            for p in probes {
                f(&mut p.base);
                f(&mut p.inner);
                if let Some(r) = &mut p.outer {
                    f(r);
                }
            }
            f(&mut op.n_inner);
            if let Some(r) = &mut op.n_outer {
                f(r);
            }
        }
        Instr::IConst { .. }
        | Instr::IVar { .. }
        | Instr::ILoadV { .. }
        | Instr::Jump { .. }
        | Instr::Guard { .. }
        | Instr::BumpAux { .. }
        | Instr::FConst { .. }
        | Instr::FCopy { .. }
        | Instr::FBin { .. }
        | Instr::FBinC { .. }
        | Instr::FBinCL { .. }
        | Instr::FUn { .. } => {}
    }
}

/// Redirects a pure integer instruction's destination register.
fn set_ireg_dst(ins: &mut Instr, d: u16) {
    match ins {
        Instr::IConst { dst, .. }
        | Instr::IVar { dst, .. }
        | Instr::ICopy { dst, .. }
        | Instr::IBin { dst, .. }
        | Instr::IBinC { dst, .. }
        | Instr::IBinV { dst, .. }
        | Instr::ILoad { dst, .. }
        | Instr::ILoadV { dst, .. } => *dst = d,
        _ => unreachable!("only pure integer instructions are renamed"),
    }
}

/// The integer register the instruction writes, if any.
fn ireg_write(ins: &Instr) -> Option<u16> {
    match ins {
        Instr::IConst { dst, .. }
        | Instr::IVar { dst, .. }
        | Instr::ICopy { dst, .. }
        | Instr::IBin { dst, .. }
        | Instr::IBinC { dst, .. }
        | Instr::IBinV { dst, .. }
        | Instr::ILoad { dst, .. }
        | Instr::ILoadV { dst, .. } => Some(*dst),
        _ => None,
    }
}

/// Block-local value-numbering CSE over the resolved bytecode.
///
/// The compiler's fused-loop lowering evaluates each affine index
/// expression at two or three probe points, re-emitting whole
/// subexpressions (aux-table loads, invariant products) that only differ
/// in the probed loop variable — per *row* of a ragged operator this
/// redundant integer arithmetic dominates the scalar dispatch overhead.
/// This pass value-numbers pure integer instructions (`iconst`, `ivar`,
/// `icopy`, `ibin[.c|.v]`, `iload[.v]`) within each basic block and
/// deletes recomputations, rewriting later reads to the register that
/// already holds the value.
///
/// Soundness:
/// * keys are built over value ids, and variable reads carry a
///   per-block version bumped on every `setvar`/`letvar`, so any state
///   change produces a different key;
/// * integer buffers are bound before execution and never written by
///   the program, so `iload` is pure;
/// * a def of `D` is deleted only when every read of `D` in the whole
///   program sits in the same block at or after the def (reads in other
///   blocks, or upstream of the def on a back-edge re-entry, keep the
///   instruction); if the aliased source register is overwritten while
///   `D` still has later reads, an `icopy` rematerialises `D` first;
/// * statistics are charged by dedicated instructions (`bumpaux`,
///   `guard`, `letvar`, the `aux` fields of float ops), none of which
///   are touched, so interpreter-stats parity is preserved.
pub(super) fn local_cse(code: Vec<Instr>, n_iregs: &mut usize) -> Vec<Instr> {
    let n = code.len();
    if n == 0 {
        return code;
    }
    // Basic-block starts: entry, every branch target, every fall-through
    // successor of a branch.
    let mut is_start = vec![false; n + 1];
    is_start[0] = true;
    for (pc, ins) in code.iter().enumerate() {
        match ins {
            Instr::Jump { to } => {
                is_start[*to as usize] = true;
                is_start[pc + 1] = true;
            }
            Instr::BrVarGe { to, .. } | Instr::LoopNext { back: to, .. } => {
                is_start[*to as usize] = true;
                is_start[pc + 1] = true;
            }
            Instr::BrCmp {
                on_true, on_false, ..
            } => {
                is_start[*on_true as usize] = true;
                is_start[*on_false as usize] = true;
                is_start[pc + 1] = true;
            }
            _ => {}
        }
    }
    let mut block_of = vec![0u32; n];
    let mut bid = 0u32;
    for pc in 0..n {
        if pc > 0 && is_start[pc] {
            bid += 1;
        }
        block_of[pc] = bid;
    }
    // Global read map: which block(s) read each register, and at which
    // positions (sorted by construction).
    const MULTI: u32 = u32::MAX;
    let mut read_in: std::collections::HashMap<u16, u32> = std::collections::HashMap::new();
    let mut read_pos: std::collections::HashMap<u16, Vec<usize>> = std::collections::HashMap::new();
    // Registers whose first access within a block is a read: on a
    // back-edge re-entry such a read observes the value a *later* def in
    // the block produced on the previous trip, so those defs must stay.
    let mut ue_read: std::collections::HashSet<(u32, u16)> = std::collections::HashSet::new();
    let mut written: std::collections::HashSet<u16> = std::collections::HashSet::new();
    for (pc, ins) in code.iter().enumerate() {
        if is_start[pc] {
            written.clear();
        }
        let mut probe = ins.clone();
        ireg_reads_mut(&mut probe, &mut |r| {
            let e = read_in.entry(*r).or_insert(block_of[pc]);
            if *e != block_of[pc] {
                *e = MULTI;
            }
            read_pos.entry(*r).or_default().push(pc);
            if !written.contains(r) {
                ue_read.insert((block_of[pc], *r));
            }
        });
        if let Some(d) = ireg_write(ins) {
            written.insert(d);
        }
    }
    let reads_in_range = |r: u16, lo: usize, hi: usize| -> bool {
        read_pos
            .get(&r)
            .is_some_and(|v| v.iter().any(|&p| p >= lo && p < hi))
    };

    let mut out: Vec<Instr> = Vec::with_capacity(n);
    let mut newpc = vec![0u32; n + 1];
    let mut next_val = 0u32;
    // Fresh registers for block-local renaming (SSA within a block, so
    // the compiler's in-place accumulations stop destroying values the
    // next probe could reuse).
    let mut next_reg = u16::try_from(*n_iregs).unwrap_or(u16::MAX);
    // Per-block state.
    let mut reg_val: std::collections::HashMap<u16, u32> = std::collections::HashMap::new();
    let mut key_id: std::collections::HashMap<ValKey, u32> = std::collections::HashMap::new();
    let mut avail: std::collections::HashMap<u32, u16> = std::collections::HashMap::new();
    let mut var_ver: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    let mut alias: std::collections::HashMap<u16, u16> = std::collections::HashMap::new();
    let mut block_end_pc = n;

    for pc in 0..n {
        if is_start[pc] {
            reg_val.clear();
            key_id.clear();
            avail.clear();
            var_ver.clear();
            alias.clear();
            block_end_pc = (pc + 1..=n).find(|&q| q == n || is_start[q]).unwrap_or(n);
        }
        newpc[pc] = out.len() as u32;
        let mut ins = code[pc].clone();
        // Route reads through live aliases.
        ireg_reads_mut(&mut ins, &mut |r| {
            if let Some(s) = alias.get(r) {
                *r = *s;
            }
        });
        // Variable writes bump the version so later keys can't match
        // values computed from the old variable state.
        match &ins {
            Instr::SetVar { slot, .. }
            | Instr::LetVar { slot, .. }
            | Instr::LoopNext { slot, .. } => {
                *var_ver.entry(*slot).or_insert(0) += 1;
            }
            _ => {}
        }
        let dst = ireg_write(&ins);
        if let Some(d) = dst {
            // Overwriting an alias *source*: rematerialise still-needed
            // aliased registers from it first.
            let stale: Vec<u16> = alias
                .iter()
                .filter(|&(_, s)| *s == d)
                .map(|(x, _)| *x)
                .collect();
            for x in stale {
                alias.remove(&x);
                if reads_in_range(x, pc + 1, block_end_pc) {
                    out.push(Instr::ICopy { dst: x, src: d });
                }
            }
            // Overwriting an aliased register ends its alias.
            alias.remove(&d);
        }
        // Value id a register currently holds (fresh opaque id for
        // registers whose defining instruction precedes the block).
        fn val_of(
            reg_val: &mut std::collections::HashMap<u16, u32>,
            next: &mut u32,
            r: u16,
        ) -> u32 {
            *reg_val.entry(r).or_insert_with(|| {
                *next += 1;
                *next
            })
        }
        let ver = |var_ver: &std::collections::HashMap<u32, u32>, s: u32| -> u32 {
            var_ver.get(&s).copied().unwrap_or(0)
        };
        // Symbolic value of a pure instruction (`None` = impure/other).
        let key: Option<ValKey> = match &ins {
            Instr::IConst { v, .. } => Some(ValKey::Const(*v)),
            Instr::IVar { slot, .. } => Some(ValKey::Var(*slot, ver(&var_ver, *slot))),
            Instr::IBin { op, a, b, .. } => {
                let va = val_of(&mut reg_val, &mut next_val, *a);
                let vb = val_of(&mut reg_val, &mut next_val, *b);
                Some(ValKey::Bin(*op, va, vb))
            }
            Instr::IBinC { op, a, c, .. } => Some(ValKey::BinC(
                *op,
                val_of(&mut reg_val, &mut next_val, *a),
                *c,
            )),
            Instr::IBinV { op, a, vslot, .. } => {
                let va = val_of(&mut reg_val, &mut next_val, *a);
                Some(ValKey::BinV(*op, va, *vslot, ver(&var_ver, *vslot)))
            }
            Instr::ILoad { buf, idx, .. } => Some(ValKey::Load(
                *buf,
                val_of(&mut reg_val, &mut next_val, *idx),
            )),
            Instr::ILoadV { buf, vslot, .. } => {
                Some(ValKey::LoadV(*buf, *vslot, ver(&var_ver, *vslot)))
            }
            _ => None,
        };
        match (key, &ins) {
            (_, Instr::ICopy { dst: d, src }) => {
                // Copies just propagate the source's value id.
                let v = val_of(&mut reg_val, &mut next_val, *src);
                let (d, src) = (*d, *src);
                reg_val.insert(d, v);
                avail.entry(v).or_insert(src);
                out.push(ins);
            }
            (Some(k), _) => {
                let d = dst.expect("pure integer instructions write a register");
                let id = *key_id.entry(k).or_insert_with(|| {
                    next_val += 1;
                    next_val
                });
                // `d` can be retired (deleted or renamed) only when every
                // read of it sits in this block downstream of some def.
                let block_local = read_in.get(&d).map_or(true, |b| *b == block_of[pc])
                    && !ue_read.contains(&(block_of[pc], d));
                let hit = avail
                    .get(&id)
                    .copied()
                    .filter(|s| *s != d && reg_val.get(s) == Some(&id));
                match hit {
                    Some(s) if block_local => {
                        // Drop the recomputation, alias reads to `s`.
                        // `d` keeps its previous runtime value.
                        alias.insert(d, s);
                    }
                    Some(s) => {
                        // `d` may be read elsewhere: keep it live via a
                        // copy instead of recomputing.
                        out.push(Instr::ICopy { dst: d, src: s });
                        reg_val.insert(d, id);
                    }
                    None if block_local && next_reg < u16::MAX => {
                        // First computation: write it to a fresh register
                        // so a later in-place accumulation into `d` can't
                        // destroy the value before another probe needs it.
                        let nd = next_reg;
                        next_reg += 1;
                        set_ireg_dst(&mut ins, nd);
                        alias.insert(d, nd);
                        reg_val.insert(nd, id);
                        avail.insert(id, nd);
                        out.push(ins);
                    }
                    None => {
                        reg_val.insert(d, id);
                        avail.insert(id, d);
                        out.push(ins);
                    }
                }
            }
            // Everything that writes an integer register is pure.
            (None, _) => out.push(ins),
        }
    }
    newpc[n] = out.len() as u32;
    remap_targets(&mut out, &newpc);
    *n_iregs = (*n_iregs).max(next_reg as usize);
    local_dce(out)
}

/// Rewrites every branch target through an old-pc → new-pc map.
fn remap_targets(code: &mut [Instr], newpc: &[u32]) {
    for ins in code {
        match ins {
            Instr::Jump { to } | Instr::BrVarGe { to, .. } | Instr::LoopNext { back: to, .. } => {
                *to = newpc[*to as usize]
            }
            Instr::BrCmp {
                on_true, on_false, ..
            } => {
                *on_true = newpc[*on_true as usize];
                *on_false = newpc[*on_false as usize];
            }
            _ => {}
        }
    }
}

/// Backward dead-code elimination over the pure integer instructions:
/// removes defs whose register is never read again, using the union of
/// every block's upward-exposed reads (reads before any write in that
/// block) as the conservative live-out set of *every* block — sound for
/// any control flow, and enough to sweep the operand chains stranded
/// when [`local_cse`] replaces a recomputation with a copy.
fn local_dce(code: Vec<Instr>) -> Vec<Instr> {
    let n = code.len();
    if n == 0 {
        return code;
    }
    let mut is_start = vec![false; n + 1];
    is_start[0] = true;
    for (pc, ins) in code.iter().enumerate() {
        match ins {
            Instr::Jump { to } => {
                is_start[*to as usize] = true;
                is_start[pc + 1] = true;
            }
            Instr::BrVarGe { to, .. } | Instr::LoopNext { back: to, .. } => {
                is_start[*to as usize] = true;
                is_start[pc + 1] = true;
            }
            Instr::BrCmp {
                on_true, on_false, ..
            } => {
                is_start[*on_true as usize] = true;
                is_start[*on_false as usize] = true;
                is_start[pc + 1] = true;
            }
            _ => {}
        }
    }
    // Upward-exposed reads across all blocks.
    let mut ue: std::collections::HashSet<u16> = std::collections::HashSet::new();
    let mut written: std::collections::HashSet<u16> = std::collections::HashSet::new();
    for (pc, ins) in code.iter().enumerate() {
        if is_start[pc] {
            written.clear();
        }
        let mut probe = ins.clone();
        ireg_reads_mut(&mut probe, &mut |r| {
            if !written.contains(r) {
                ue.insert(*r);
            }
        });
        if let Some(d) = ireg_write(ins) {
            written.insert(d);
        }
    }
    // Backward sweep, block by block.
    let mut keep = vec![true; n];
    let mut live: std::collections::HashSet<u16> = std::collections::HashSet::new();
    let mut block_ranges: Vec<(usize, usize)> = Vec::new();
    let mut start = 0usize;
    for (pc, st) in is_start.iter().enumerate().take(n).skip(1) {
        if *st {
            block_ranges.push((start, pc));
            start = pc;
        }
    }
    if n > 0 {
        block_ranges.push((start, n));
    }
    for &(lo, hi) in &block_ranges {
        live.clear();
        live.extend(ue.iter().copied());
        for pc in (lo..hi).rev() {
            let ins = &code[pc];
            let pure = matches!(
                ins,
                Instr::IConst { .. }
                    | Instr::IVar { .. }
                    | Instr::ICopy { .. }
                    | Instr::IBin { .. }
                    | Instr::IBinC { .. }
                    | Instr::IBinV { .. }
                    | Instr::ILoad { .. }
                    | Instr::ILoadV { .. }
            );
            if pure {
                if let Some(d) = ireg_write(ins) {
                    if !live.contains(&d) {
                        keep[pc] = false;
                        continue;
                    }
                }
            }
            if let Some(d) = ireg_write(ins) {
                live.remove(&d);
            }
            let mut probe = ins.clone();
            ireg_reads_mut(&mut probe, &mut |r| {
                live.insert(*r);
            });
        }
    }
    let mut newpc = vec![0u32; n + 1];
    let mut out = Vec::with_capacity(n);
    for (pc, ins) in code.into_iter().enumerate() {
        newpc[pc] = out.len() as u32;
        if keep[pc] {
            out.push(ins);
        }
    }
    newpc[n] = out.len() as u32;
    remap_targets(&mut out, &newpc);
    out
}

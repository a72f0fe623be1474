//! Figures the harness derives on its own, apart from every engine under
//! test: access totals from the IR's trip counts, and the comparisons
//! every workload's answer checks share.

use sa_ir::{IndexExpr, Program, Stmt};
use sa_machine::Stats;

/// Accesses every partition must report for `program`: writes (one per
/// `Assign` instance) and reads (one per array reference a statement
/// instance evaluates, counting each index-array lookup of a gather or
/// scatter as a read of its own). These follow from trip counts alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrTotals {
    /// Element writes.
    pub writes: u64,
    /// Element reads.
    pub reads: u64,
    /// Statement instances (`Assign` and `Reduce`).
    pub instances: u64,
}

/// Derive [`IrTotals`] from the IR.
pub fn ir_totals(program: &Program) -> IrTotals {
    let mut t = IrTotals {
        writes: 0,
        reads: 0,
        instances: 0,
    };
    for nest in program.nests() {
        let iters = nest.iteration_count() as u64;
        for stmt in &nest.body {
            t.instances += iters;
            let gathers = |r: &sa_ir::ArrayRef| {
                r.indices
                    .iter()
                    .filter(|ix| matches!(ix, IndexExpr::Indirect { .. }))
                    .count() as u64
            };
            let mut reads = 0u64;
            for r in stmt.reads() {
                reads += 1 + gathers(r);
            }
            if let Stmt::Assign { target, .. } = stmt {
                t.writes += iters;
                reads += gathers(target);
            }
            t.reads += iters * reads;
        }
    }
    t
}

/// Compare an engine's writes and reads with the IR-derived totals.
pub fn totals_match(what: &str, totals: &IrTotals, writes: u64, reads: u64) -> Result<(), String> {
    if writes != totals.writes || reads != totals.reads {
        return Err(format!(
            "{what}: {writes} writes / {reads} reads, the IR gives {} / {}",
            totals.writes, totals.reads
        ));
    }
    Ok(())
}

/// Compare two engines' per-PE counters bit for bit.
pub fn same_per_pe(what: &str, got: &Stats, reference: &Stats) -> Result<(), String> {
    if got.per_pe != reference.per_pe {
        return Err(format!(
            "{what}: per-PE counters differ from the interpreter's\n  got {:?}\n  ref {:?}",
            got.per_pe, reference.per_pe
        ));
    }
    Ok(())
}

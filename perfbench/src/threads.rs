//! `threads`: one `sa_runtime::execute` per op on real worker threads at
//! 2 PEs with no cache. The programs take turns — a three-sweep stencil
//! (§5 re-initialization barrier), K13S and K14S (scatter anchors resolved
//! over `IndirectFetch`) — each sized so its ops cost alike.

use sa_core::simulate;
use sa_loops::{Kernel, Size};
use sa_machine::{MachineConfig, Stats};
use sa_runtime::RuntimeConfig;

use crate::check::{ir_totals, same_per_pe, totals_match};
use crate::inputs::{build_kernel, sample, sizes, Vary};
use crate::trace::{total_ms, Span, Tracer};
use crate::Workload;

/// The programs at their base sizes; each op steps the outer extent (grid
/// rows, loop length) by one, so the row width and with it the page
/// alignment stay fixed.
const PROGRAMS: &[(&str, Size)] = &[
    (
        "ST5",
        Size::Grid2 {
            nx: 860,
            ny: 64,
            sweeps: 3,
        },
    ),
    ("K13S", Size::N(5400)),
    ("K14S", Size::N(8800)),
];

/// Rounds prepared per run; one round is one op of each program.
const ROUNDS: usize = 40;
/// Ops re-answered by the reference interpreter per run.
const SAMPLE: usize = 2;
/// Processing elements (one worker thread each).
const PES: usize = 2;

/// The machine every op runs on.
fn machine() -> MachineConfig {
    MachineConfig::new(PES, 32).with_cache_elems(0)
}

/// What one execution reported.
struct Answer {
    stats: Stats,
    modeled: u64,
    wire: u64,
    sync: u64,
    waits: u64,
}

pub struct Threads {
    cfg: RuntimeConfig,
    warm: Vec<Kernel>,
    ops: Vec<Kernel>,
    answers: Vec<Option<Answer>>,
    /// Ops whose answers are kept for the interpreter.
    sample: Vec<usize>,
}

impl Threads {
    pub fn new(seed: u64, tr: &Tracer) -> Threads {
        let size: Vec<Vec<Size>> = PROGRAMS
            .iter()
            .enumerate()
            .map(|(k, (_, base))| sizes(Vary::Outer(*base), ROUNDS + 1, seed, 0x300 + k as u64))
            .collect();
        let build = |kind: usize, slot: usize| build_kernel(PROGRAMS[kind].0, size[kind][slot]);
        let n = PROGRAMS.len();
        let warm = (0..n).map(|k| build(k, 0)).collect();
        let ops: Vec<Kernel> = (0..ROUNDS * n)
            .map(|i| {
                tr.set_op(i as u64 + 1);
                tr.span("loops.build", || build(i % n, i / n + 1))
            })
            .collect();
        let count = ops.len();
        Threads {
            cfg: RuntimeConfig::from_machine(&machine()),
            warm,
            ops,
            answers: (0..count).map(|_| None).collect(),
            sample: sample(seed, 0x7d, SAMPLE),
        }
    }

    fn execute(&self, k: &Kernel, tr: &Tracer) -> Result<Answer, String> {
        let rep = tr
            .span("runtime.execute", || {
                sa_runtime::execute(&k.program, &self.cfg)
            })
            .map_err(|e| format!("{}: {e}", k.code))?;
        Ok(Answer {
            modeled: rep.modeled_messages(),
            wire: rep.messages,
            sync: rep.sync_messages,
            waits: rep.wait_edges.len() as u64,
            stats: rep.stats,
        })
    }
}

impl Workload for Threads {
    fn pool(&self) -> usize {
        self.ops.len()
    }

    fn warm_up(&mut self, tr: &Tracer) -> Result<(), String> {
        for k in &self.warm {
            self.execute(k, tr)?;
        }
        Ok(())
    }

    fn run(&mut self, i: usize, tr: &Tracer) -> Result<(), String> {
        let a = self.execute(&self.ops[i], tr)?;
        self.answers[i] = Some(a);
        Ok(())
    }

    fn check(&mut self, i: usize) -> Result<(), String> {
        let a = self.answers[i].as_ref().ok_or("no answer kept")?;
        let k = &self.ops[i];
        let s = &a.stats;
        totals_match(k.code, &ir_totals(&k.program), s.writes(), s.total_reads())?;
        if !self.sample.contains(&i) {
            self.answers[i] = None;
        }
        Ok(())
    }

    fn verify(&mut self, answered: &[usize]) -> Result<(), String> {
        for &i in self.sample.iter().filter(|i| answered.contains(i)) {
            let k = &self.ops[i];
            let a = self.answers[i].as_ref().ok_or("no answer kept")?;
            let reference = simulate(&k.program, &machine()).map_err(|e| e.to_string())?;
            let what = format!("op {i} {}", k.code);
            same_per_pe(&what, &a.stats, &reference.stats)?;
            if a.modeled != reference.network_messages {
                return Err(format!(
                    "{what}: {} modeled messages, the interpreter gives {}",
                    a.modeled, reference.network_messages
                ));
            }
        }
        Ok(())
    }

    fn layers(&mut self, i: usize, spans: &[Span]) -> Vec<(&'static str, f64)> {
        let exec = total_ms(spans, "runtime.execute");
        let Some(a) = &self.answers[i] else {
            return Vec::new();
        };
        vec![
            ("runtime.execute_ms", exec),
            (
                "runtime.us_per_message",
                exec * 1e3 / (a.wire.max(1)) as f64,
            ),
            ("runtime.wire_messages", a.wire as f64),
            ("runtime.sync_messages", a.sync as f64),
            ("runtime.deferred_waits", a.waits as f64),
        ]
    }

    fn kinds(&self) -> usize {
        PROGRAMS.len()
    }

    fn op_label(&self, i: usize) -> String {
        let k = &self.ops[i];
        format!("execute {} {}", k.code, k.program.total_elements())
    }
}

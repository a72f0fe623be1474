//! `count`: one `sapp sweep`-style question per op — every scale-family
//! program swept through the `auto` counting engine over one fixed grid of
//! 16 points, rendered through `sa_core::report`.

use std::sync::atomic::{AtomicU64, Ordering};

use sa_core::replay::counts_or_simulate;
use sa_core::report::markdown_table;
use sa_core::{
    simulate, Column, CountingOracle, Engine, ExperimentPlan, FastCountingOracle, Oracle,
    OracleError, ResultSet, RunConfig, RunRecord,
};
use sa_ir::Program;
use sa_loops::Kernel;
use sa_machine::{NetworkTopology, PartitionScheme};

use crate::check::{ir_totals, same_per_pe, totals_match};
use crate::inputs::{build_kernel, sample, sizes, Vary};
use crate::trace::{covered_ms, shared_wall_ms, total_ms, Span, Tracer};
use crate::Workload;

/// The programs of every op and how their sizes vary from op to op. The
/// stencils take a different grid shape of about the same cell count each
/// op, the matrices a different column count at fixed rows.
pub const FAMILIES: &[(&str, Vary)] = &[
    (
        "ST5",
        Vary::Shape {
            cells: 25000,
            rank: 2,
            sweeps: 2,
        },
    ),
    (
        "ST9",
        Vary::Shape {
            cells: 16640,
            rank: 2,
            sweeps: 2,
        },
    ),
    (
        "ST7",
        Vary::Shape {
            cells: 5200,
            rank: 3,
            sweeps: 2,
        },
    ),
    ("SPMV", Vary::Cols { rows: 1560, deg: 8 }),
    ("SPMVD", Vary::Cols { rows: 780, deg: 8 }),
];

/// Timed ops prepared per run.
const POOL: usize = 200;
/// Ops re-answered by the reference interpreter per run.
const SAMPLE: usize = 1;

/// Columns of the rendered table (the `sapp sweep` report's fields).
const COLUMNS: &[Column] = &[
    Column::Kernel,
    Column::Partition,
    Column::PageSize,
    Column::Cached,
    Column::Network,
    Column::RemotePct,
    Column::Messages,
    Column::Hops,
    Column::MaxLinkLoad,
];

/// The fixed grid every op sweeps at 16 PEs, as two plans: four schemes ×
/// cache on and off, once with 32-element pages on a mesh and once with
/// 128-element pages on a torus. That spans both page sizes and both
/// topologies in 16 points per program; the full cross product would take
/// 32, and twice the thread fan-outs for the same work.
pub fn grid() -> [ExperimentPlan; 2] {
    let codes: Vec<&str> = FAMILIES.iter().map(|(c, _)| *c).collect();
    let plan = |page: usize, network: NetworkTopology| {
        ExperimentPlan::new()
            .base(RunConfig {
                n_pes: 16,
                page_size: page,
                network,
                ..RunConfig::default()
            })
            .kernels(&codes)
            .partitions(&[
                PartitionScheme::Modulo,
                PartitionScheme::Block,
                PartitionScheme::RowBand,
                PartitionScheme::Tile2D {
                    tile_rows: 16,
                    tile_cols: 16,
                },
            ])
            .cache_flags(&[true, false])
    };
    [
        plan(32, NetworkTopology::Mesh2D),
        plan(128, NetworkTopology::Torus2D),
    ]
}

/// The `auto` engine, decomposed so each call into replay and into the
/// interpreter fallback is its own span — the same answers
/// `FastCountingOracle` gives in a release build.
struct TracedAuto<'t> {
    tr: &'t Tracer,
    unsupported: AtomicU64,
    accesses: AtomicU64,
}

impl Oracle for TracedAuto<'_> {
    fn name(&self) -> &'static str {
        "counting-auto (traced)"
    }

    fn measure(&self, program: &Program, cfg: &RunConfig) -> Result<RunRecord, OracleError> {
        let replay = FastCountingOracle::with_engine(Engine::Replay);
        match self
            .tr
            .span("replay.counts", || replay.measure(program, cfg))
        {
            Ok(rec) => {
                self.accesses
                    .fetch_add(rec.writes + rec.total_reads, Ordering::Relaxed);
                Ok(rec)
            }
            Err(OracleError::Unsupported(_)) => {
                self.unsupported.fetch_add(1, Ordering::Relaxed);
                self.tr
                    .span("exec.simulate", || CountingOracle.measure(program, cfg))
            }
            Err(e) => Err(e),
        }
    }
}

pub struct Count {
    plans: [ExperimentPlan; 2],
    warm: Vec<Kernel>,
    ops: Vec<Vec<Kernel>>,
    answers: Vec<Vec<RunRecord>>,
    /// Ops whose answers are kept for the interpreter.
    sample: Vec<usize>,
    /// Per traced op: points replay refused, accesses replay answered.
    traced: Vec<(u64, u64)>,
}

impl Count {
    pub fn new(seed: u64, tr: &Tracer) -> Count {
        let size: Vec<_> = FAMILIES
            .iter()
            .enumerate()
            .map(|(f, (_, vary))| sizes(*vary, POOL + 1, seed, f as u64 + 1))
            .collect();
        let build = |slot: usize| -> Vec<Kernel> {
            FAMILIES
                .iter()
                .zip(&size)
                .map(|((code, _), s)| build_kernel(code, s[slot]))
                .collect()
        };
        let warm = build(0);
        let ops = (0..POOL)
            .map(|i| {
                tr.set_op(i as u64 + 1);
                tr.span("loops.build", || build(i + 1))
            })
            .collect();
        Count {
            plans: grid(),
            warm,
            ops,
            answers: vec![Vec::new(); POOL],
            sample: sample(seed, 0xc0, SAMPLE),
            traced: vec![(0, 0); POOL],
        }
    }

    fn sweep(
        &self,
        kernels: &[Kernel],
        oracle: &dyn Oracle,
        tr: &Tracer,
    ) -> Result<(Vec<RunRecord>, usize), String> {
        let programs: Vec<(&str, &Program)> =
            kernels.iter().map(|k| (k.code, &k.program)).collect();
        let mut records = Vec::new();
        for plan in &self.plans {
            let rs = tr
                .span("plan.run", || plan.run_kernels(&programs, oracle))
                .map_err(|e| e.to_string())?;
            records.extend(rs.into_records());
        }
        let rs = ResultSet::new(records);
        let table = tr.span("report.render", || {
            markdown_table(&Column::headers(COLUMNS), &rs.rows(COLUMNS))
        });
        Ok((rs.into_records(), table.len()))
    }
}

fn program_of<'k>(kernels: &'k [Kernel], rec: &RunRecord) -> Result<&'k Kernel, String> {
    let code = rec.cfg.kernel.as_deref().unwrap_or("");
    kernels
        .iter()
        .find(|k| k.code.eq_ignore_ascii_case(code))
        .ok_or_else(|| format!("record for unknown kernel {code:?}"))
}

impl Workload for Count {
    fn pool(&self) -> usize {
        POOL
    }

    fn warm_up(&mut self, tr: &Tracer) -> Result<(), String> {
        self.sweep(&self.warm, &FastCountingOracle::default(), tr)
            .map(|_| ())
    }

    fn run(&mut self, i: usize, tr: &Tracer) -> Result<(), String> {
        let (records, rendered) = if tr.enabled() {
            let oracle = TracedAuto {
                tr,
                unsupported: AtomicU64::new(0),
                accesses: AtomicU64::new(0),
            };
            let out = self.sweep(&self.ops[i], &oracle, tr)?;
            self.traced[i] = (
                oracle.unsupported.load(Ordering::Relaxed),
                oracle.accesses.load(Ordering::Relaxed),
            );
            out
        } else {
            self.sweep(&self.ops[i], &FastCountingOracle::default(), tr)?
        };
        let points: usize = self.plans.iter().map(ExperimentPlan::len).sum();
        if records.len() != points || rendered == 0 {
            return Err(format!(
                "{} of {points} grid points answered",
                records.len()
            ));
        }
        self.answers[i] = records;
        Ok(())
    }

    fn check(&mut self, i: usize) -> Result<(), String> {
        let kernels = &self.ops[i];
        let totals: Vec<_> = kernels.iter().map(|k| ir_totals(&k.program)).collect();
        for rec in &self.answers[i] {
            let k = program_of(kernels, rec)?;
            let at = kernels.iter().position(|x| x.code == k.code).unwrap_or(0);
            let what = format!("{} {:?}", k.code, rec.cfg);
            totals_match(&what, &totals[at], rec.writes, rec.total_reads)?;
        }
        if !self.sample.contains(&i) {
            self.answers[i] = Vec::new();
        }
        Ok(())
    }

    fn verify(&mut self, answered: &[usize]) -> Result<(), String> {
        for &i in self.sample.iter().filter(|i| answered.contains(i)) {
            let kernels = &self.ops[i];
            sa_core::par_map(&self.answers[i], |rec| {
                let k = program_of(kernels, rec)?;
                let m = rec.cfg.machine();
                let what = format!("op {i} {} {:?}", k.code, rec.cfg);
                let reference = simulate(&k.program, &m).map_err(|e| e.to_string())?;
                let engine = counts_or_simulate(&k.program, &m).map_err(|e| e.to_string())?;
                same_per_pe(&what, &engine.stats, &reference.stats)?;
                let got = (
                    rec.writes,
                    rec.local_reads,
                    rec.cached_reads,
                    rec.remote_reads,
                    rec.messages,
                    rec.hops,
                    rec.max_link_load,
                );
                let want = (
                    reference.stats.writes(),
                    reference.stats.local_reads(),
                    reference.stats.cached_reads(),
                    reference.stats.remote_reads(),
                    reference.network_messages,
                    Some(reference.network_hops),
                    Some(reference.max_link_load),
                );
                if got != want {
                    return Err(format!(
                        "{what}: answered {got:?}, the interpreter gives {want:?}"
                    ));
                }
                Ok(())
            })?;
        }
        Ok(())
    }

    fn layers(&mut self, i: usize, spans: &[Span]) -> Vec<(&'static str, f64)> {
        let engine: Vec<&Span> = spans
            .iter()
            .filter(|s| s.name == "replay.counts" || s.name == "exec.simulate")
            .collect();
        let shared = shared_wall_ms(&engine);
        let (unsupported, accesses) = self.traced[i];
        let replay_thread_ms = total_ms(spans, "replay.counts");
        vec![
            (
                "replay.counts_ms",
                shared.get("replay.counts").copied().unwrap_or(0.0),
            ),
            (
                "exec.simulate_ms",
                shared.get("exec.simulate").copied().unwrap_or(0.0),
            ),
            (
                "plan.overhead_ms",
                total_ms(spans, "plan.run") - covered_ms(&engine),
            ),
            ("report.render_ms", total_ms(spans, "report.render")),
            ("replay.unsupported", unsupported as f64),
            (
                "replay.accesses_per_ms",
                accesses as f64 / replay_thread_ms.max(1e-9),
            ),
        ]
    }

    fn op_label(&self, i: usize) -> String {
        let sizes: Vec<String> = self.ops[i]
            .iter()
            .map(|k| format!("{} {}", k.code, k.program.total_elements()))
            .collect();
        format!("sweep [{}]", sizes.join(", "))
    }
}

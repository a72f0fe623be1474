//! `search`: one seeded `anneal` walk and one `propagate` walk per op,
//! both on one ST5 program over the 378-candidate space with the cache
//! off, through `StrategyOracle` — so every candidate the walks pay for
//! goes to the static estimator.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sa_core::report::{fmt_pct, markdown_table};
use sa_core::search::strategy::{Candidates, SearchReport, Searcher, Strategy, StrategyParams};
use sa_core::search::{Objective, SearchSpace};
use sa_core::{CountingOracle, Oracle, OracleError, RunConfig, RunRecord, StrategyOracle};
use sa_ir::Program;
use sa_loops::{Kernel, Size};
use sa_machine::{NetworkTopology, PartitionScheme};

use crate::check::{ir_totals, totals_match};
use crate::inputs::{build_kernel, sizes, Vary};
use crate::trace::{total_ms, Span, Tracer};
use crate::Workload;

/// Grid cells of every op's ST5 program; each op has its own shape.
const CELLS: usize = 2400;
/// Relaxation sweeps of every op's program.
const SWEEPS: usize = 2;
/// Walk seed and budget (the `search_bench` settings).
const WALK_SEED: u64 = 7;
const BUDGET: usize = 64;
/// Timed ops prepared per run.
const POOL: usize = 150;

/// The 378-candidate space of `search_bench` with the cache off: nine
/// schemes × six page sizes × seven topologies at 16 PEs.
pub fn space() -> SearchSpace {
    let tile = |n| PartitionScheme::Tile2D {
        tile_rows: n,
        tile_cols: n,
    };
    SearchSpace {
        schemes: vec![
            PartitionScheme::Modulo,
            PartitionScheme::Block,
            PartitionScheme::BlockCyclic { block_pages: 2 },
            PartitionScheme::BlockCyclic { block_pages: 4 },
            PartitionScheme::RowBand,
            tile(16),
            tile(32),
            tile(64),
            tile(128),
        ],
        page_sizes: vec![8, 16, 32, 64, 128, 256],
        networks: vec![
            NetworkTopology::Ideal,
            NetworkTopology::Crossbar,
            NetworkTopology::Bus,
            NetworkTopology::Ring,
            NetworkTopology::Mesh2D,
            NetworkTopology::Torus2D,
            NetworkTopology::Hypercube,
        ],
        n_pes: 16,
        cache_elems: 0,
    }
}

/// The search `Oracle` as the walks see it: `StrategyOracle`, with each
/// call recorded (config and answer) and, when tracing, timed as a span.
struct Recording {
    inner: StrategyOracle,
    tr: &'static Tracer,
    calls: Arc<Mutex<Vec<RunRecord>>>,
}

impl Oracle for Recording {
    fn name(&self) -> &'static str {
        "static+auto (recorded)"
    }

    fn measure(&self, program: &Program, cfg: &RunConfig) -> Result<RunRecord, OracleError> {
        let r = self
            .tr
            .span("search.oracle", || self.inner.measure(program, cfg));
        if let Ok(rec) = &r {
            self.calls
                .lock()
                .expect("call log poisoned")
                .push(rec.clone());
        }
        r
    }
}

struct Answer {
    walks: [SearchReport; 2],
    /// Every answer the oracle gave this op, keyed by config.
    calls: HashMap<String, RunRecord>,
}

/// One op's two walkers (anneal, propagate), each with the space
/// materialized and a memo of its own — one `sapp search` invocation.
type Walkers = [Searcher; 2];

pub struct Search {
    calls: Arc<Mutex<Vec<RunRecord>>>,
    warm: (Kernel, Walkers),
    ops: Vec<Kernel>,
    walkers: Vec<Option<Walkers>>,
    /// The candidate grid, in the walkers' order, for the checks.
    cands: Candidates,
    answers: Vec<Option<Answer>>,
}

fn key(cfg: &RunConfig) -> String {
    format!("{cfg:?}")
}

impl Search {
    pub fn new(seed: u64, tr: &'static Tracer) -> Search {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let searcher = |strategy| {
            Searcher::new(
                &space(),
                Box::new(Recording {
                    inner: StrategyOracle::default(),
                    tr,
                    calls: Arc::clone(&calls),
                }),
                StrategyParams {
                    strategy,
                    seed: WALK_SEED,
                    budget: BUDGET,
                    ..StrategyParams::default()
                },
            )
            .expect("the search space is valid")
        };
        let walkers = || [searcher(Strategy::Anneal), searcher(Strategy::Propagate)];
        let vary = Vary::Shape {
            cells: CELLS,
            rank: 2,
            sweeps: SWEEPS,
        };
        let all = sizes(vary, POOL + 1, seed, 0x5e);
        let build = |s: Size| build_kernel("ST5", s);
        let warm = (build(all[0]), walkers());
        let ops: Vec<Kernel> = all[1..]
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                tr.set_op(i as u64 + 1);
                tr.span("loops.build", || build(s))
            })
            .collect();
        Search {
            walkers: ops.iter().map(|_| Some(walkers())).collect(),
            answers: ops.iter().map(|_| None).collect(),
            cands: Candidates::materialize(&space()).expect("the search space is valid"),
            calls,
            warm,
            ops,
        }
    }

    fn walk(&self, program: &Program, walkers: &Walkers, tr: &Tracer) -> Result<Answer, String> {
        self.calls.lock().expect("call log poisoned").clear();
        let mut walks = Vec::with_capacity(2);
        for s in walkers {
            let rep = tr
                .span("search.walk", || s.search(program))
                .map_err(|e| e.to_string())?;
            walks.push(rep);
        }
        let table = tr.span("report.render", || {
            let rows: Vec<Vec<String>> = walks
                .iter()
                .map(|r| {
                    vec![
                        r.strategy.name().to_string(),
                        r.best.scheme.name(),
                        r.best.page_size.to_string(),
                        r.record.cfg.network.name().to_string(),
                        fmt_pct(r.best.remote_pct),
                        format!("{:.3}", r.best.write_balance),
                        r.best.messages.to_string(),
                        r.best.evaluated.to_string(),
                        r.best.pruned.to_string(),
                        r.oracle_evals.to_string(),
                    ]
                })
                .collect();
            markdown_table(
                &[
                    "strategy",
                    "best_scheme",
                    "best_page_size",
                    "network",
                    "remote_pct",
                    "write_balance",
                    "messages",
                    "evaluated",
                    "pruned",
                    "oracle_evals",
                ],
                &rows,
            )
        });
        if table.is_empty() {
            return Err("empty report".into());
        }
        let calls = std::mem::take(&mut *self.calls.lock().expect("call log poisoned"))
            .into_iter()
            .map(|r| (key(&r.cfg), r))
            .collect();
        let [a, b]: [SearchReport; 2] = walks.try_into().expect("two walks");
        Ok(Answer {
            walks: [a, b],
            calls,
        })
    }
}

impl Workload for Search {
    fn pool(&self) -> usize {
        self.ops.len()
    }

    fn warm_up(&mut self, tr: &Tracer) -> Result<(), String> {
        let (k, walkers) = &self.warm;
        self.walk(&k.program, walkers, tr).map(|_| ())
    }

    fn run(&mut self, i: usize, tr: &Tracer) -> Result<(), String> {
        let walkers = self.walkers[i].take().ok_or("op already answered")?;
        let a = self.walk(&self.ops[i].program, &walkers, tr)?;
        self.answers[i] = Some(a);
        Ok(())
    }

    fn check(&mut self, i: usize) -> Result<(), String> {
        let a = self.answers[i].as_ref().ok_or("no answer kept")?;
        let program = &self.ops[i].program;
        let totals = ir_totals(program);
        let objective = Objective::default();
        for rep in &a.walks {
            let name = rep.strategy.name();
            // The winner is the least of every candidate the walk touched
            // under the total order (score, messages, grid index).
            let mut least: Option<(f64, u64, usize)> = None;
            for &idx in &rep.trace {
                let cfg = self.cands.config(idx);
                let rec = a
                    .calls
                    .get(&key(cfg))
                    .ok_or_else(|| format!("{name}: touched candidate {idx} was never measured"))?;
                let k = (objective.score(rec), rec.messages, idx);
                let better = match least {
                    None => true,
                    Some(l) => {
                        k.0.total_cmp(&l.0)
                            .then(k.1.cmp(&l.1))
                            .then(k.2.cmp(&l.2))
                            .is_lt()
                    }
                };
                if better {
                    least = Some(k);
                }
            }
            let least = least.ok_or_else(|| format!("{name}: the walk touched nothing"))?;
            if least.2 != rep.winner_index {
                return Err(format!(
                    "{name}: winner {} is not the least touched candidate {}",
                    rep.winner_index, least.2
                ));
            }
            // The reference interpreter re-measures the winner.
            let cfg = self.cands.config(rep.winner_index);
            let reference = CountingOracle
                .measure(program, cfg)
                .map_err(|e| format!("{name}: interpreter: {e}"))?;
            let got = &rep.record;
            let same = got.writes == reference.writes
                && got.local_reads == reference.local_reads
                && got.cached_reads == reference.cached_reads
                && got.remote_reads == reference.remote_reads
                && got.total_reads == reference.total_reads
                && got.messages == reference.messages
                && got.remote_pct.to_bits() == reference.remote_pct.to_bits()
                && got.write_balance.to_bits() == reference.write_balance.to_bits();
            if !same {
                return Err(format!(
                    "{name}: winner {cfg:?} measured {got:?}, the interpreter gives {reference:?}"
                ));
            }
            totals_match(name, &totals, got.writes, got.total_reads)?;
        }
        self.answers[i] = None;
        Ok(())
    }

    fn verify(&mut self, _answered: &[usize]) -> Result<(), String> {
        // Every op's winners are re-measured by the interpreter in `check`.
        Ok(())
    }

    fn layers(&mut self, i: usize, spans: &[Span]) -> Vec<(&'static str, f64)> {
        let walk = total_ms(spans, "search.walk");
        let oracle = total_ms(spans, "search.oracle");
        let Some(a) = &self.answers[i] else {
            return Vec::new();
        };
        let calls: f64 = a.walks.iter().map(|r| r.oracle_evals as f64).sum();
        let hits: f64 = a.walks.iter().map(|r| r.cache_hits as f64).sum();
        let pruned: f64 = a.walks.iter().map(|r| r.best.pruned as f64).sum();
        // Re-time the two halves of each paid-for evaluation on their own.
        let program = &self.ops[i].program;
        let (mut est_ms, mut bound_ms) = (0.0, 0.0);
        for rec in a.calls.values() {
            let m = rec.cfg.machine();
            let t = Instant::now();
            let _ = std::hint::black_box(sa_lint::estimate(program, &m));
            est_ms += t.elapsed().as_secs_f64() * 1e3;
            let lc = sa_lint::LintConfig {
                n_pes: rec.cfg.n_pes,
                page_size: rec.cfg.page_size,
                scheme: rec.cfg.partition,
            };
            let t = Instant::now();
            let _ = std::hint::black_box(sa_lint::speedup_bound(program, &lc));
            bound_ms += t.elapsed().as_secs_f64() * 1e3;
        }
        vec![
            ("search.walk_ms", walk),
            ("search.oracle_ms", oracle),
            ("search.walk_self_ms", walk - oracle),
            ("search.oracle_calls", calls),
            ("search.memo_hits", hits),
            ("search.pruned", pruned),
            ("search.ms_per_eval", oracle / calls.max(1.0)),
            ("estimate.ms", est_ms),
            ("depgraph.speedup_bound_ms", bound_ms),
            ("report.render_ms", total_ms(spans, "report.render")),
        ]
    }

    fn op_label(&self, i: usize) -> String {
        let dims = &self.ops[i].program.arrays[0].dims;
        format!("anneal+propagate ST5 {dims:?}")
    }
}

//! `lint`: the whole static pipeline per op — `lint_program` (validate,
//! write-once, progress, partition, deadlock), `DepGraph::build` and
//! `summary`, rendered as `sapp lint K` and `sapp graph K --format json`
//! would. One op lints every Livermore kernel; each scale program is an
//! op of its own, sized to cost alike.

use sa_core::report::markdown_table;
use sa_ir::index::iv;
use sa_ir::{Expr, Program, ProgramBuilder};
use sa_lint::{Code, DepGraph, Diagnostic, GraphSummary, LintConfig, Severity};
use sa_loops::{Kernel, Size};
use sa_machine::{ArrayShape, Placement};

use crate::check::ir_totals;
use crate::inputs::{build_kernel, sizes, Vary};
use crate::trace::{total_ms, Span, Tracer};
use crate::Workload;

/// Livermore kernels are linted at this multiple of their official size.
const LIVERMORE_SCALE: usize = 3;

/// The scale programs, one op each, at base sizes that cost about what
/// the Livermore op costs.
const SCALE: &[(&str, Size)] = &[
    (
        "ST5",
        Size::Grid2 {
            nx: 760,
            ny: 128,
            sweeps: 2,
        },
    ),
    (
        "ST9",
        Size::Grid2 {
            nx: 620,
            ny: 96,
            sweeps: 2,
        },
    ),
    (
        "ST7",
        Size::Grid3 {
            nx: 330,
            ny: 16,
            nz: 16,
            sweeps: 2,
        },
    ),
    (
        "SPMV",
        Size::Sparse {
            rows: 42750,
            cols: 42750,
            deg: 8,
        },
    ),
    (
        "SPMVD",
        Size::Sparse {
            rows: 39750,
            cols: 39750,
            deg: 8,
        },
    ),
];

/// Rounds prepared per run; one round is one op of each kind.
const ROUNDS: usize = 28;

/// What one program's lint produced.
struct Linted {
    diags: Vec<Diagnostic>,
    summary: Option<GraphSummary>,
}

pub struct Lint {
    cfg: LintConfig,
    /// Kinds: the Livermore op first, then one per scale program.
    kinds: usize,
    warm: Vec<Vec<Kernel>>,
    ops: Vec<Vec<Kernel>>,
    answers: Vec<Vec<Linted>>,
}

/// Lint one program as `sapp lint` and `sapp graph --format json` do.
fn lint_one(k: &Kernel, cfg: &LintConfig, tr: &Tracer) -> (Linted, usize) {
    let p = &k.program;
    let diags = if tr.enabled() {
        passes(p, cfg, tr)
    } else {
        sa_lint::lint_program(p, cfg)
    };
    let graph = tr.span("depgraph.build", || DepGraph::build(p));
    let summary = tr.span("depgraph.summary", || sa_lint::summary(p).ok());
    let rendered = tr.span("report.render", || {
        let rows: Vec<Vec<String>> = diags
            .iter()
            .map(|d| {
                vec![
                    k.code.to_string(),
                    d.severity.to_string(),
                    d.code.to_string(),
                    d.span.to_string(),
                    d.message.clone(),
                ]
            })
            .collect();
        markdown_table(&["kernel", "severity", "code", "span", "message"], &rows).len()
            + graph.to_json(p, summary.as_ref()).len()
    });
    (Linted { diags, summary }, rendered)
}

/// `lint_program`, one span per pass.
fn passes(p: &Program, cfg: &LintConfig, tr: &Tracer) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if let Err(e) = tr.span("ir.validate", || sa_ir::validate_program(p)) {
        diags.push(Diagnostic::new(
            Code::Sa007Malformed,
            sa_lint::Span::default(),
            e.to_string(),
        ));
        return diags;
    }
    diags.extend(tr.span("lint.write_once", || {
        sa_lint::check_write_once(p).diagnostics
    }));
    diags.extend(tr.span("lint.progress", || sa_lint::check_progress(p)));
    diags.extend(tr.span("lint.partition", || {
        sa_lint::check_partition(p, cfg.n_pes, cfg.page_size, cfg.scheme)
    }));
    diags.extend(tr.span("lint.deadlock", || sa_lint::check_deadlock(p, cfg)));
    diags.sort_by_key(|d| std::cmp::Reverse(d.severity));
    diags
}

/// PEs that own no page of any array of `p` — counted from the array
/// sizes with the same placement the executors use.
fn orphaned_pes(p: &Program, cfg: &LintConfig) -> usize {
    let mut owns = vec![false; cfg.n_pes];
    for decl in &p.arrays {
        let pl = Placement::new(
            cfg.scheme,
            cfg.page_size,
            cfg.n_pes,
            ArrayShape::from_dims(&decl.dims),
        );
        for page in 0..pl.pages() {
            owns[pl.page_owner(page)] = true;
        }
    }
    owns.iter().filter(|o| !**o).count()
}

/// Can `summary` see through every gather of `p`? Not when an index
/// array is only partly initialized and no statement writes it.
fn statically_resolvable(p: &Program) -> bool {
    p.nests().all(|n| {
        n.body.iter().all(|s| {
            let refs = s.reads().into_iter().chain(s.write_target());
            refs.flat_map(|r| r.indices.iter()).all(|ix| match ix {
                sa_ir::IndexExpr::Indirect { base, .. } => {
                    matches!(p.array(*base).init, sa_ir::program::ArrayInit::Full(_))
                }
                sa_ir::IndexExpr::Affine(_) => true,
            })
        })
    })
}

/// The three seeded mutants: (code that must be raised, program).
fn mutants() -> Vec<(Code, Program)> {
    // A double write: two statements assign X[k].
    let mut b = ProgramBuilder::new("mutant-double-write");
    let x = b.output("X", &[64]);
    b.nest("dup", &[("k", 0, 63)], |nb| {
        nb.assign(x, [iv(0)], Expr::Const(0.0));
        nb.assign(x, [iv(0)], Expr::Const(1.0));
    });
    let double_write = b.finish();

    // A dangling deferral: Y is read but never defined.
    let mut b = ProgramBuilder::new("mutant-dangling");
    let x = b.output("X", &[64]);
    let y = b.output("Y", &[64]);
    b.nest("copy", &[("k", 0, 63)], |nb| {
        let rhs = nb.read(y, [iv(0)]);
        nb.assign(x, [iv(0)], rhs);
    });
    let dangling = b.finish();

    // Consume before produce: two nests exchange through each other's
    // outputs, so each waits on the other.
    let mut b = ProgramBuilder::new("mutant-exchange");
    let w = b.output("W", &[2]);
    let x = b.output("X", &[2]);
    b.nest("xch1", &[("k", 0, 1)], |nb| {
        let rhs = nb.read(x, [iv(0).scale(-1).plus(1)]);
        nb.assign(w, [iv(0)], rhs);
    });
    b.nest("xch2", &[("k", 0, 1)], |nb| {
        let rhs = nb.read(w, [iv(0).scale(-1).plus(1)]);
        nb.assign(x, [iv(0)], rhs);
    });
    let exchange = b.finish();

    vec![
        (Code::Sa001DoubleWrite, double_write),
        (Code::Sa004DanglingRead, dangling),
        (Code::Sa008DeadlockCycle, exchange),
    ]
}

impl Lint {
    pub fn new(seed: u64, tr: &Tracer) -> Lint {
        let livermore: Vec<sa_loops::Workload> = sa_loops::workloads()
            .into_iter()
            .filter(|w| w.family == sa_loops::Family::Livermore)
            .collect();
        let kinds = 1 + SCALE.len();
        // One size list per program; slot 0 sizes the warm-up ops.
        let liv_sizes: Vec<Vec<Size>> = livermore
            .iter()
            .enumerate()
            .map(|(k, w)| {
                let Size::N(n) = w.official else {
                    panic!("{} is not sized by N", w.code)
                };
                let base = Size::N(n * LIVERMORE_SCALE);
                sizes(Vary::Outer(base), ROUNDS + 1, seed, 0x100 + k as u64)
            })
            .collect();
        let scale_sizes: Vec<Vec<Size>> = SCALE
            .iter()
            .enumerate()
            .map(|(k, (_, base))| sizes(Vary::Outer(*base), ROUNDS + 1, seed, 0x200 + k as u64))
            .collect();
        let build = |kind: usize, slot: usize| -> Vec<Kernel> {
            if kind == 0 {
                livermore
                    .iter()
                    .zip(&liv_sizes)
                    .map(|(w, s)| w.build(s[slot]))
                    .collect()
            } else {
                let (code, _) = SCALE[kind - 1];
                vec![build_kernel(code, scale_sizes[kind - 1][slot])]
            }
        };
        let warm = (0..kinds).map(|kind| build(kind, 0)).collect();
        let ops: Vec<Vec<Kernel>> = (0..ROUNDS * kinds)
            .map(|i| {
                tr.set_op(i as u64 + 1);
                tr.span("loops.build", || build(i % kinds, i / kinds + 1))
            })
            .collect();
        let n = ops.len();
        Lint {
            cfg: LintConfig::default(),
            kinds,
            warm,
            ops,
            answers: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    fn lint_all(&self, kernels: &[Kernel], tr: &Tracer) -> Result<Vec<Linted>, String> {
        let mut out = Vec::with_capacity(kernels.len());
        for k in kernels {
            let (l, rendered) = lint_one(k, &self.cfg, tr);
            if rendered == 0 {
                return Err(format!("{}: empty report", k.code));
            }
            out.push(l);
        }
        Ok(out)
    }
}

impl Workload for Lint {
    fn pool(&self) -> usize {
        self.ops.len()
    }

    fn warm_up(&mut self, tr: &Tracer) -> Result<(), String> {
        for kernels in &self.warm {
            self.lint_all(kernels, tr)?;
        }
        Ok(())
    }

    fn run(&mut self, i: usize, tr: &Tracer) -> Result<(), String> {
        self.answers[i] = self.lint_all(&self.ops[i], tr)?;
        Ok(())
    }

    fn check(&mut self, i: usize) -> Result<(), String> {
        for (k, l) in self.ops[i].iter().zip(&self.answers[i]) {
            let p = &k.program;
            if let Some(d) = l.diags.iter().find(|d| d.severity == Severity::Error) {
                return Err(format!(
                    "{}: error finding {} {}",
                    k.code, d.code, d.message
                ));
            }
            // PL001's orphan count must match the array sizes.
            let orphans = orphaned_pes(p, &self.cfg);
            let reported = l
                .diags
                .iter()
                .find(|d| d.code == Code::Pl001OrphanedPes)
                .map_or(Some(0), |d| {
                    d.message
                        .split_whitespace()
                        .next()
                        .and_then(|n| n.parse().ok())
                });
            if reported != Some(orphans) {
                return Err(format!(
                    "{}: PL001 reports {reported:?} orphaned PEs, the array sizes give {orphans}",
                    k.code
                ));
            }
            // Work is the instance count; span cannot exceed it.
            match (&l.summary, statically_resolvable(p)) {
                (Some(s), _) => {
                    let instances = ir_totals(p).instances;
                    if s.work != instances || s.span > s.work {
                        return Err(format!(
                            "{}: summary work {} span {}, the IR gives {instances} instances",
                            k.code, s.work, s.span
                        ));
                    }
                }
                (None, true) => {
                    return Err(format!("{}: no summary for a static program", k.code));
                }
                (None, false) => {}
            }
        }
        self.answers[i] = Vec::new();
        Ok(())
    }

    fn verify(&mut self, _answered: &[usize]) -> Result<(), String> {
        for (code, p) in mutants() {
            let diags = sa_lint::lint_program(&p, &self.cfg);
            if !diags
                .iter()
                .any(|d| d.code == code && d.severity == Severity::Error)
            {
                return Err(format!("mutant {}: no {code} error in {diags:?}", p.name));
            }
        }
        Ok(())
    }

    fn layers(&mut self, _i: usize, spans: &[Span]) -> Vec<(&'static str, f64)> {
        vec![
            ("ir.validate_ms", total_ms(spans, "ir.validate")),
            ("lint.write_once_ms", total_ms(spans, "lint.write_once")),
            ("lint.progress_ms", total_ms(spans, "lint.progress")),
            ("lint.partition_ms", total_ms(spans, "lint.partition")),
            ("lint.deadlock_ms", total_ms(spans, "lint.deadlock")),
            ("depgraph.build_ms", total_ms(spans, "depgraph.build")),
            ("depgraph.summary_ms", total_ms(spans, "depgraph.summary")),
            ("report.render_ms", total_ms(spans, "report.render")),
        ]
    }

    fn kinds(&self) -> usize {
        self.kinds
    }

    fn op_label(&self, i: usize) -> String {
        let ks = &self.ops[i];
        if i.is_multiple_of(self.kinds) {
            format!("lint Livermore x{} ({} kernels)", LIVERMORE_SCALE, ks.len())
        } else {
            format!("lint {} {}", ks[0].code, ks[0].program.total_elements())
        }
    }
}

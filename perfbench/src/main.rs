//! `perfbench` — one closed-loop benchmark for the sapp partitioning
//! system, with four workloads that drive different layers through their
//! public Rust APIs.
//!
//! ```console
//! $ perfbench --workload count --seed 1 --seconds 12 --trace 0
//! $ perfbench --workload search --seed 7 --seconds 12 --trace 1 --trace-out t.json
//! ```
//!
//! One client, one op at a time: the next op starts when the previous one
//! has answered. Set-up builds every program the run can use, materializes
//! the search spaces and answers one untimed warm-up op of each kind; it
//! runs [`SETUP_PASSES`] times and `setup_s` is the median. The timed
//! phase then answers ops until `--seconds` have passed. Every answer is
//! checked after the timed phase against figures the harness derives on
//! its own (IR trip counts, the reference interpreter, order properties of
//! the search, seeded lint mutants); an op whose engine errs or whose
//! answer is wrong counts as failed.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The traced run alternates untraced and traced ops, reports
//! the per-layer figures of the traced ones and the ratio of their median
//! op time to the untraced ones' (`trace.overhead_ratio`).

mod check;
mod count;
mod inputs;
mod lint;
mod search;
mod threads;
mod trace;

use std::time::{Duration, Instant};

use trace::Tracer;

/// How many times set-up runs; `setup_s` is the median.
pub const SETUP_PASSES: usize = 5;

/// A workload: a pool of distinct ops, built once, answered one at a time.
pub trait Workload {
    /// Number of distinct timed ops prepared (the run stops early, with a
    /// note on stderr, if it answers them all before its time is up).
    fn pool(&self) -> usize;
    /// Answer one untimed warm-up op of each kind.
    fn warm_up(&mut self, tr: &Tracer) -> Result<(), String>;
    /// Answer op `i` of the pool, keeping what the checks need.
    fn run(&mut self, i: usize, tr: &Tracer) -> Result<(), String>;
    /// Check op `i`'s answer (outside the timed phase).
    fn check(&mut self, i: usize) -> Result<(), String>;
    /// Run-level checks outside the timed phase: the reference
    /// interpreter on a seeded sample of the answered ops, lint mutants.
    fn verify(&mut self, answered: &[usize]) -> Result<(), String>;
    /// Layer metrics of one traced op (`spans` are its spans). Every
    /// metric name of [`LAYER_METRICS`] the workload does not touch is
    /// reported as 0 by the caller.
    fn layers(&mut self, i: usize, spans: &[trace::Span]) -> Vec<(&'static str, f64)>;
    /// Short description of op `i` (its programs and sizes).
    fn op_label(&self, i: usize) -> String;
    /// How many kinds of op take turns (op `i` is of kind `i % kinds`);
    /// the traced run alternates tracing by whole rounds of kinds.
    fn kinds(&self) -> usize {
        1
    }
}

/// Every per-layer metric, with its unit.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("loops.build_ms", "ms"),
    ("report.render_ms", "ms"),
    ("host.cpu_ms_per_op", "ms"),
    ("replay.counts_ms", "ms"),
    ("replay.unsupported", "count"),
    ("exec.simulate_ms", "ms"),
    ("plan.overhead_ms", "ms"),
    ("replay.accesses_per_ms", "1/ms"),
    ("search.walk_ms", "ms"),
    ("search.oracle_ms", "ms"),
    ("search.walk_self_ms", "ms"),
    ("search.oracle_calls", "count"),
    ("search.memo_hits", "count"),
    ("search.pruned", "count"),
    ("search.ms_per_eval", "ms"),
    ("estimate.ms", "ms"),
    ("depgraph.speedup_bound_ms", "ms"),
    ("ir.validate_ms", "ms"),
    ("lint.write_once_ms", "ms"),
    ("lint.progress_ms", "ms"),
    ("lint.partition_ms", "ms"),
    ("lint.deadlock_ms", "ms"),
    ("depgraph.build_ms", "ms"),
    ("depgraph.summary_ms", "ms"),
    ("runtime.execute_ms", "ms"),
    ("runtime.us_per_message", "us"),
    ("runtime.wire_messages", "count"),
    ("runtime.sync_messages", "count"),
    ("runtime.deferred_waits", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Layer times that partition an op's wall-clock; their per-op sum must
/// not exceed the op's own time.
const DISJOINT_LAYERS: &[&str] = &[
    "report.render_ms",
    "replay.counts_ms",
    "exec.simulate_ms",
    "plan.overhead_ms",
    "search.walk_self_ms",
    "search.oracle_ms",
    "ir.validate_ms",
    "lint.write_once_ms",
    "lint.progress_ms",
    "lint.partition_ms",
    "lint.deadlock_ms",
    "depgraph.build_ms",
    "depgraph.summary_ms",
    "runtime.execute_ms",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload count|search|lint|threads --seed N --seconds S \
         --trace 0|1 [--trace-out FILE]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = val(),
            "--seed" => a.seed = val().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                a.seconds = val()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                a.trace = match val().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--trace-out" => a.trace_out = Some(val()),
            _ => usage(),
        }
    }
    if a.workload.is_empty() {
        usage();
    }
    a
}

fn build(name: &str, seed: u64, tr: &'static Tracer) -> Box<dyn Workload> {
    match name {
        "count" => Box::new(count::Count::new(seed, tr)),
        "search" => Box::new(search::Search::new(seed, tr)),
        "lint" => Box::new(lint::Lint::new(seed, tr)),
        "threads" => Box::new(threads::Threads::new(seed, tr)),
        _ => usage(),
    }
}

/// Is op `i` one of the traced run's traced ops? Every other round of
/// `kinds` ops is, so traced and untraced ops cover every kind alike.
fn is_traced(i: usize, kinds: usize) -> bool {
    (i / kinds) % 2 == 1
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=1).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted slice.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The percentile `op_tail_ms` reports: p75, the highest with at least
/// ten ops beyond it at the 40 or more ops every workload answers in a
/// run (see README.md).
const TAIL: f64 = 0.75;

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU time of this process (all threads) in ms.
fn cpu_ms() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in USER_HZ (100/s) ticks; the
    // command name before them may contain spaces, so split after ')'.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) * 10.0
}

/// Break traced op `i` down by layer into `per_layer` (indexed like
/// [`LAYER_METRICS`]; layers the workload bypasses read 0). False if the
/// disjoint layers add up to more than the op's own `op_ms`.
fn record_layers(
    w: &mut dyn Workload,
    i: usize,
    op_ms: f64,
    tr: &Tracer,
    per_layer: &mut [Vec<f64>],
) -> bool {
    let layers = w.layers(i, &tr.spans_of(i as u64 + 1));
    let disjoint: f64 = layers
        .iter()
        .filter(|(n, _)| DISJOINT_LAYERS.contains(n))
        .map(|(_, v)| v)
        .sum();
    let mut seen = vec![false; LAYER_METRICS.len()];
    for (name, v) in layers {
        let k = LAYER_METRICS
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown layer metric {name}"));
        per_layer[k].push(v);
        seen[k] = true;
    }
    for (k, s) in seen.iter().enumerate() {
        if !s {
            per_layer[k].push(0.0);
        }
    }
    if disjoint > op_ms {
        eprintln!("op {i}: layer times sum to {disjoint:.3} ms, more than the op's {op_ms:.3} ms");
        return false;
    }
    true
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
}

fn main() {
    let started = Instant::now();
    let args = parse_args();
    // The search oracle outlives any borrow, so the recorder lives as long
    // as the process.
    let tr: &'static Tracer = Box::leak(Box::new(Tracer::new()));

    // Set-up, several times; the last pass is the one the run uses. In the
    // traced run the last pass records its program builds.
    let mut setup_s = Vec::with_capacity(SETUP_PASSES);
    let mut wl: Option<Box<dyn Workload>> = None;
    for pass in 0..SETUP_PASSES {
        let t = if pass == 0 { started } else { Instant::now() };
        drop(wl.take());
        tr.set_enabled(args.trace && pass + 1 == SETUP_PASSES);
        tr.set_op(0);
        let mut w = build(&args.workload, args.seed, tr);
        tr.set_enabled(false);
        if let Err(e) = w.warm_up(tr) {
            eprintln!("warm-up failed: {e}");
            std::process::exit(1);
        }
        setup_s.push(t.elapsed().as_secs_f64());
        wl = Some(w);
    }
    let mut w = wl.expect("at least one set-up pass");

    // Timed phase: closed loop, one client. Each answer is checked (and,
    // when traced, broken down by layer) as soon as it arrives; that time
    // is kept out of the phase's length.
    let mut op_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut per_layer: Vec<Vec<f64>> = vec![Vec::new(); LAYER_METRICS.len()];
    let mut answered = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut correct = true;
    let mut cpu_op_ms = 0.0;
    let mut between = Duration::ZERO;
    let t0 = Instant::now();
    let mut i = 0;
    while (t0.elapsed() - between).as_secs_f64() < args.seconds {
        if i == w.pool() {
            eprintln!(
                "note: all {} prepared ops answered before {} s; the run ends early",
                i, args.seconds
            );
            break;
        }
        let traced = args.trace && is_traced(i, w.kinds());
        tr.set_op(i as u64 + 1);
        tr.set_enabled(traced);
        let cpu = cpu_ms();
        let t = Instant::now();
        let r = tr.span("op", || w.run(i, tr));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        cpu_op_ms += cpu_ms() - cpu;
        tr.set_enabled(false);
        let c = Instant::now();
        attempted += 1;
        match r {
            Ok(()) => {
                op_ms.push(ms);
                answered.push(i);
                if traced {
                    traced_ms.push(ms);
                    correct &= record_layers(&mut *w, i, ms, tr, &mut per_layer);
                } else if args.trace {
                    untraced_ms.push(ms);
                }
                if let Err(e) = w.check(i) {
                    failed += 1;
                    correct = false;
                    eprintln!("op {i} ({}) answered wrongly: {e}", w.op_label(i));
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!("op {i} ({}) failed: {e}", w.op_label(i));
            }
        }
        between += c.elapsed();
        i += 1;
    }
    let phase_s = (t0.elapsed() - between).as_secs_f64();
    let cpu_per_op = cpu_op_ms / attempted.max(1) as f64;

    // Run-level checks, outside the timed phase.
    if let Err(e) = w.verify(&answered) {
        correct = false;
        eprintln!("run check failed: {e}");
    }

    let mut metrics = Vec::new();
    if args.trace {
        let builds: Vec<f64> = (1..=w.pool() as u64)
            .map(|op| trace::total_ms(&tr.spans_of(op), "loops.build"))
            .collect();
        for (k, (name, unit)) in LAYER_METRICS.iter().enumerate() {
            let value = match *name {
                "loops.build_ms" => median(&builds),
                "host.cpu_ms_per_op" => cpu_per_op,
                "trace.overhead_ratio" => median(&traced_ms) / median(&untraced_ms),
                _ => median(&per_layer[k]),
            };
            metrics.push(metric(name, value, unit));
        }
        if let Some(path) = &args.trace_out {
            match tr.write_chrome(std::path::Path::new(path)) {
                Ok(n) => eprintln!("wrote {n} spans to {path}"),
                Err(e) => eprintln!("could not write {path}: {e}"),
            }
        }
    } else {
        let mut sorted = op_ms.clone();
        sorted.sort_by(f64::total_cmp);
        if sorted.is_empty() {
            sorted.push(f64::NAN);
        }
        let beyond = op_ms.len() - (TAIL * op_ms.len() as f64).ceil() as usize;
        if beyond < 10 {
            eprintln!(
                "note: {} ops leave fewer than ten beyond p{:.0}",
                op_ms.len(),
                TAIL * 100.0
            );
        }
        metrics.push(metric("setup_s", median(&setup_s), "s"));
        metrics.push(metric("ops_per_s", op_ms.len() as f64 / phase_s, "1/s"));
        metrics.push(metric("op_p50_ms", median(&op_ms), "ms"));
        metrics.push(metric("op_tail_ms", percentile(&sorted, TAIL), "ms"));
        metrics.push(metric("peak_rss_mb", peak_rss_mb(), "MiB"));
    }
    eprintln!(
        "{}: {} ops in {:.2} s, set-up passes {:?} s",
        args.workload,
        attempted,
        phase_s,
        setup_s
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
}

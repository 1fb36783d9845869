//! End-to-end benchmark of the chronolog contract workloads.
//!
//! Each workload repeats a fixed-size *round* that runs every operation
//! type of the contract it models — set-up, batch materialization, one
//! dense-timeline window, goal-driven queries, session events and
//! session corrections — and checks every answer. Rounds repeat until
//! the run's seconds are spent (at least `min_rounds`). Timings come from
//! outside the program: the benchmark times its own calls into the
//! crates' public functions. A traced run (`--trace 1`) alternates plain
//! and traced rounds and reports per-layer figures instead (see
//! [`layers`]). `README.md` in this directory explains the workloads and
//! the layer → end-to-end map.

pub mod compare;
pub mod layers;
pub mod netting;
pub mod perp;
pub mod stats;

use chronolog_core::{Database, IntervalSet, Program, Reasoner, ReasonerConfig, RunStats, Tuple};
use chronolog_obs::Json;
use layers::Layers;
use stats::{beyond, median, percentile, tail_percentile};
use std::time::{Duration, Instant};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["perp-batch", "perp-live", "netting"];

/// Every end-to-end metric with its unit, in report order.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("events_per_s", "1/s"),
    ("dense_window_s", "s"),
    ("materialize_ms_p50", "ms"),
    ("event_ms_p50", "ms"),
    ("event_ms_tail", "ms"),
    ("correction_ms_p50", "ms"),
    ("correction_ms_tail", "ms"),
    ("query_ms_p50", "ms"),
    ("query_ms_tail", "ms"),
];

/// Input sizes: the benchmark's own, or a tiny set for its tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` runs.
    Full,
    /// Seconds-long sizes for the benchmark's own tests.
    Tiny,
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds to keep starting rounds for.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Corrupt the first checked answer (exercises the checks).
    pub perturb: bool,
}

/// Samples and check outcomes of a run.
#[derive(Default)]
pub struct Record {
    /// Operations attempted (every timed operation and every check).
    pub attempted: u64,
    /// Operations that failed or whose answer mismatched.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Seconds per set-up.
    pub setup_s: Vec<f64>,
    /// Input events per second of batch materialization, one per round.
    pub events_per_s: Vec<f64>,
    /// Milliseconds per batch materialization.
    pub materialize_ms: Vec<f64>,
    /// Seconds per dense-timeline window.
    pub dense_s: Vec<f64>,
    /// Milliseconds per goal-driven query.
    pub query_ms: Vec<f64>,
    /// Milliseconds per session event (`submit` through `advance_to`).
    pub event_ms: Vec<f64>,
    /// Milliseconds per session correction.
    pub correction_ms: Vec<f64>,
}

/// What a round writes into.
pub struct Ctx {
    /// Samples and checks.
    pub rec: Record,
    /// Present during a traced round.
    pub layers: Option<Layers>,
    perturb: bool,
}

impl Ctx {
    fn new(perturb: bool) -> Ctx {
        Ctx {
            rec: Record::default(),
            layers: None,
            perturb,
        }
    }

    /// Counts one operation and its check.
    pub fn op(&mut self, what: &str, result: Result<(), String>) {
        self.rec.attempted += 1;
        if let Err(e) = result {
            self.rec.failed += 1;
            if self.rec.failures.len() < 16 {
                self.rec.failures.push(format!("{what}: {e}"));
            }
        }
    }

    /// Compares query answers with the expected ones. The first answer
    /// checked in a perturbed run loses its last tuple first.
    pub fn same_answers(
        &mut self,
        mut got: Vec<(Tuple, IntervalSet)>,
        expected: &[(Tuple, IntervalSet)],
    ) -> Result<(), String> {
        if std::mem::take(&mut self.perturb) && got.pop().is_none() {
            got.push((Box::new([]), IntervalSet::new()));
        }
        let (g, e) = (render(&got), render(expected));
        if g == e {
            Ok(())
        } else {
            Err(format!("{} answers, expected {}", g.len(), e.len()))
        }
    }

    /// The traced round's layer collector, if this round is traced.
    pub fn layers(&mut self) -> Option<&mut Layers> {
        self.layers.as_mut()
    }

    /// Times `f`; when traced, also records the time into `slot`.
    pub fn timed_layer<T>(
        &mut self,
        slot: fn(&mut Layers) -> &mut Vec<f64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let (out, took) = timed(f);
        if let Some(l) = self.layers() {
            slot(l).push(took.as_secs_f64() * 1e6);
        }
        out
    }
}

fn render(answers: &[(Tuple, IntervalSet)]) -> Vec<String> {
    let mut out: Vec<String> = answers
        .iter()
        .map(|(t, ivs)| {
            let args: Vec<String> = t.iter().map(ToString::to_string).collect();
            format!("({})@{ivs}", args.join(","))
        })
        .collect();
    out.sort();
    out
}

/// Runs `f` and returns its result with the wall time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, t.elapsed())
}

/// Set-up samples per round.
const SETUP_SAMPLES: usize = 5;

/// Runs `setup` in [`SETUP_SAMPLES`] blocks of `block` calls and records
/// each block's mean as one `setup_s` sample, so that no sample is a
/// single sub-millisecond reading. Returns the last set-up.
pub fn set_up<T>(ctx: &mut Ctx, block: usize, mut setup: impl FnMut(&mut Ctx) -> T) -> T {
    let mut last = None;
    for _ in 0..SETUP_SAMPLES {
        let t = Instant::now();
        for _ in 0..block {
            last = Some(std::hint::black_box(setup(ctx)));
        }
        ctx.rec
            .setup_s
            .push(t.elapsed().as_secs_f64() / block as f64);
    }
    last.expect("at least one set-up")
}

/// A stable 64-bit FNV-1a digest of `text`, in hex: identifies a run's
/// generated inputs in its report.
pub fn digest(text: &str) -> String {
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{hash:016x}")
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Worker threads of every reasoner in an end-to-end run. In paired
/// five-seed runs on a shared two-core host, netting's two-thread
/// materializations spread 6–15% between runs against at most 4% on one
/// thread; the traced run's pool pass measures two threads against one.
pub const THREADS: usize = 1;

/// A workload: fixed-size rounds over inputs generated from its seed.
pub trait Workload {
    /// Rounds every end-to-end run makes at least.
    fn min_rounds(&self) -> usize;
    /// Samples one round guarantees of queries, events and corrections.
    fn tail_samples_per_round(&self) -> [usize; 3];
    /// Input sizes, for the report.
    fn inputs(&self) -> Json;
    /// One round of every operation type.
    fn round(&mut self, ctx: &mut Ctx);
    /// The workload's main batch materialization at `threads`: median
    /// wall seconds of three runs, and the last run's statistics.
    fn main_batch(&self, threads: usize) -> (f64, RunStats);
}

/// Materializes `input` under `program` over `[lo, hi]` three times at
/// `threads` workers: the median wall seconds and the last run's stats.
pub fn pool_pass(
    program: Program,
    input: &Database,
    (lo, hi): (i64, i64),
    threads: usize,
) -> (f64, RunStats) {
    let config = ReasonerConfig::default()
        .with_horizon(lo, hi)
        .with_threads(threads);
    let r = Reasoner::new(program, config).expect("the workload's program stratifies");
    let mut walls = Vec::new();
    let mut stats = RunStats::default();
    for _ in 0..3 {
        let (m, took) = timed(|| r.materialize(input));
        walls.push(took.as_secs_f64());
        stats = m.expect("the workload's input materializes").stats;
    }
    (median(&walls), stats)
}

/// Builds the named workload.
pub fn workload(opts: &Options) -> Result<Box<dyn Workload>, String> {
    match opts.workload.as_str() {
        "perp-batch" => Ok(Box::new(perp::Batch::new(opts.seed, opts.scale))),
        "perp-live" => Ok(Box::new(perp::Live::new(opts.seed, opts.scale))),
        "netting" => Ok(Box::new(netting::Netting::new(opts.seed, opts.scale))),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// The result of one run.
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed or mismatched.
    pub failed: u64,
    /// `(name, value, unit)` of every reported metric.
    pub metrics: Vec<(String, f64, String)>,
    /// The full report: environment, inputs, samples, tail percentiles.
    pub report: Json,
}

impl Outcome {
    /// The one-line result object: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let mut line = Json::object();
        line.set("correct", self.failed == 0);
        line.set("attempted", self.attempted);
        line.set("failed", self.failed);
        line.set("metrics", metrics_json(&self.metrics));
        line.to_compact()
    }
}

/// `{"name": {"value": v, "unit": u}, …}`.
fn metrics_json(metrics: &[(String, f64, String)]) -> Json {
    let mut out = Json::object();
    for (name, value, unit) in metrics {
        let mut m = Json::object();
        m.set("value", *value);
        m.set("unit", unit.as_str());
        out.set(name, m);
    }
    out
}

/// Runs one benchmark invocation.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut w = workload(opts)?;
    let start = Instant::now();
    let mut ctx = Ctx::new(opts.perturb);
    let mut walls: Vec<f64> = Vec::new();
    let mut detail = Json::object();
    let metrics = if opts.trace {
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut layers: Option<Layers> = None;
        while walls.is_empty() || time_for_another(start, &walls, opts.seconds) {
            let t = Instant::now();
            plain.push(timed(|| w.round(&mut ctx)).1.as_secs_f64());
            ctx.layers = Some(Layers::default());
            traced.push(timed(|| w.round(&mut ctx)).1.as_secs_f64());
            let round = ctx.layers.take().expect("traced round keeps its layers");
            match &mut layers {
                Some(acc) => acc.absorb(round),
                None => layers = Some(round),
            }
            walls.push(t.elapsed().as_secs_f64());
        }
        let mut layers = layers.expect("at least one traced round");
        layers.overhead_ratio = median(&traced) / median(&plain);
        let pool_threads = 2.min(nproc());
        let (one, _) = w.main_batch(1);
        let (many, stats) = w.main_batch(pool_threads);
        layers.pool(&stats, pool_threads, one / many);
        detail.set("pool_pass_threads", pool_threads);
        detail.set(
            "plain_round_s",
            Json::Arr(plain.into_iter().map(Json::from).collect()),
        );
        detail.set(
            "traced_round_s",
            Json::Arr(traced.into_iter().map(Json::from).collect()),
        );
        layers
            .metrics()
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u.to_string()))
            .collect()
    } else {
        while walls.len() < w.min_rounds() || time_for_another(start, &walls, opts.seconds) {
            walls.push(timed(|| w.round(&mut ctx)).1.as_secs_f64());
        }
        end_to_end(&ctx.rec, w.as_ref(), &mut detail)?
    };
    let mut report = Json::object();
    report.set("workload", opts.workload.as_str());
    report.set("seed", opts.seed);
    report.set("trace", opts.trace);
    report.set("environment", environment());
    report.set("inputs", w.inputs());
    report.set("rounds", walls.len());
    report.set("wall_s", start.elapsed().as_secs_f64());
    report.set("detail", detail);
    report.set(
        "failures",
        Json::Arr(
            ctx.rec
                .failures
                .iter()
                .map(|f| Json::from(f.as_str()))
                .collect(),
        ),
    );
    report.set("metrics", metrics_json(&metrics));
    Ok(Outcome {
        attempted: ctx.rec.attempted,
        failed: ctx.rec.failed,
        metrics,
        report,
    })
}

/// Whether another round of the mean length so far still fits in `seconds`.
fn time_for_another(start: Instant, walls: &[f64], seconds: f64) -> bool {
    let mean = walls.iter().sum::<f64>() / walls.len().max(1) as f64;
    start.elapsed().as_secs_f64() + mean <= seconds
}

fn end_to_end(
    rec: &Record,
    w: &dyn Workload,
    detail: &mut Json,
) -> Result<Vec<(String, f64, String)>, String> {
    let guaranteed = w.tail_samples_per_round().map(|n| n * w.min_rounds());
    let mut values = vec![
        median(&rec.setup_s),
        peak_rss_mb()?,
        median(&rec.events_per_s),
        median(&rec.dense_s),
        median(&rec.materialize_ms),
    ];
    let ops = [
        ("event_ms", &rec.event_ms, guaranteed[1]),
        ("correction_ms", &rec.correction_ms, guaranteed[2]),
        ("query_ms", &rec.query_ms, guaranteed[0]),
    ];
    for (name, samples, n) in ops {
        let p = tail_percentile(n);
        values.push(median(samples));
        values.push(percentile(samples, p));
        let mut d = Json::object();
        d.set("samples", samples.len());
        d.set("tail_percentile", p);
        d.set("samples_beyond_tail", beyond(samples.len(), p));
        let deciles = (1..=10).map(|k| Json::from(percentile(samples, k as f64 * 10.0)));
        d.set("deciles", Json::Arr(deciles.collect()));
        detail.set(name, d);
    }
    for (name, samples) in [
        ("setup_s", &rec.setup_s),
        ("events_per_s", &rec.events_per_s),
        ("dense_window_s", &rec.dense_s),
        ("materialize_ms", &rec.materialize_ms),
    ] {
        let mut d = Json::object();
        d.set("samples", samples.len());
        detail.set(name, d);
    }
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n.to_string(), v, u.to_string()))
        .collect())
}

/// The process's resident-set high-water mark, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Cores visible to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn environment() -> Json {
    let mut env = Json::object();
    env.set("nproc", nproc());
    env.set("threads", THREADS);
    env.set("rustc", env!("PERFBENCH_RUSTC"));
    env.set("git_commit", env!("PERFBENCH_GIT_COMMIT"));
    env.set("os", std::env::consts::OS);
    env.set("arch", std::env::consts::ARCH);
    env
}

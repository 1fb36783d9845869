//! The ETH-PERP workloads: `perp-batch` (the paper's §4.2 experiment over
//! the three Figure-3 windows) and `perp-live` (the §3.1 execution model:
//! one long stream of on-chain calls into a `Session`).

use crate::{digest, ms, set_up, timed, Ctx, Scale, Workload};
use chronolog_core::{
    parse_query, rewrite, Database, Fact, Program, Query, Reasoner, ReasonerConfig, RunStats,
    Session, Stratification, Symbol, Value,
};
use chronolog_market::{generate, paper_intervals, GbmPrice, ScenarioConfig};
use chronolog_obs::{Json, SmallRng};
use chronolog_perp::encode::{encode_trace, EncodedTrace};
use chronolog_perp::extract::extract_run;
use chronolog_perp::program::{build_program, TimelineMode};
use chronolog_perp::{Fixed18, MarketParams, MarketRun, Method, ReferenceEngine, Trace};

/// Largest FRS or per-trade difference from the fixed-point reference
/// that still counts as a correct answer.
const REFERENCE_TOLERANCE: f64 = 1e-9;

/// The Figure-3 window materialized on the dense-seconds timeline each
/// round (the 108-event 2022-10-07 window, the cheapest of the three).
const DENSE_WINDOW: usize = 1;

/// Batch checks of a `perp-live` session per round, evenly spaced.
const CHECKPOINTS: usize = 6;

/// Goal-driven queries per Figure-3 window and round.
const QUERIES_PER_WINDOW: i64 = 12;

/// A sub-seed of `seed` for input `salt`, so inputs are independent.
fn sub_seed(seed: u64, salt: u64) -> u64 {
    SmallRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// The calibrated call schedule of `config` (who calls which method
/// when, from the config's own seed) with every value redrawn from
/// `seed`: a fresh oracle price path at the same instants, and deposits
/// and each account's order sizes rescaled by seeded factors. The
/// schedule fixes how much work a window is, so seeds differ in their
/// inputs but not in their cost.
fn seeded_trace(config: &ScenarioConfig, seed: u64) -> Trace {
    let mut trace = generate(config);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut price = GbmPrice::new(
        config.initial_price,
        config.start_time,
        config.drift,
        config.volatility,
    );
    let mut size_factor = std::collections::HashMap::new();
    for e in &mut trace.events {
        e.price = price.advance(e.time, &mut rng);
        match &mut e.method {
            Method::TransferMargin { amount } => *amount *= rng.gen_range_f64(0.5, 2.0),
            Method::ModifyPosition { size } => {
                *size *= *size_factor
                    .entry(e.account)
                    .or_insert_with(|| rng.gen_range_f64(0.5, 2.0));
            }
            Method::ClosePosition | Method::Withdraw => {}
        }
    }
    trace
}

fn reference(trace: &Trace) -> MarketRun {
    ReferenceEngine::<Fixed18>::run_trace(MarketParams::default(), trace)
}

/// Checks a DatalogMTL run against the fixed-point reference, as
/// `harness::validate` reports it: FRS after every event and every trade
/// settlement within [`REFERENCE_TOLERANCE`].
fn check_reference(run: &MarketRun, reference: &MarketRun) -> Result<(), String> {
    if run.frs.len() != reference.frs.len() || run.trades.len() != reference.trades.len() {
        return Err(format!(
            "{} FRS rows and {} trades, reference has {} and {}",
            run.frs.len(),
            run.trades.len(),
            reference.frs.len(),
            reference.trades.len()
        ));
    }
    for (&(t, f), &(rt, rf)) in run.frs.iter().zip(&reference.frs) {
        if t != rt || (f - rf).abs() >= REFERENCE_TOLERANCE {
            return Err(format!("FRS at {t} is {f}, reference {rf} at {rt}"));
        }
    }
    for (a, b) in run.trades.iter().zip(&reference.trades) {
        let worst = [a.pnl - b.pnl, a.fee - b.fee, a.funding - b.funding]
            .iter()
            .fold(0.0f64, |m, d| m.max(d.abs()));
        if a.account != b.account || a.time != b.time || worst >= REFERENCE_TOLERANCE {
            return Err(format!(
                "trade of {} at {} off by {worst}",
                a.account, a.time
            ));
        }
    }
    Ok(())
}

/// Builds the ETH-PERP program; a traced round also times its
/// stratification on its own.
fn build(ctx: &mut Ctx, mode: TimelineMode) -> Program {
    let program = ctx
        .timed_layer(
            |l| &mut l.build_us,
            || build_program(&MarketParams::default(), mode),
        )
        .expect("the ETH-PERP program builds");
    if ctx.layers.is_some() {
        let strat = ctx.timed_layer(|l| &mut l.stratify_us, || Stratification::compute(&program));
        if let (Some(l), Ok(s)) = (ctx.layers(), strat) {
            l.strata = s.count() as u64;
        }
    }
    program
}

fn encode(ctx: &mut Ctx, trace: &Trace, mode: TimelineMode) -> EncodedTrace {
    ctx.timed_layer(|l| &mut l.encode_us, || encode_trace(trace, mode))
}

/// A reasoner over `[lo, hi]`; traced rounds attach the span recorder
/// when `profiled`.
fn reasoner(ctx: &Ctx, program: Program, (lo, hi): (i64, i64), profiled: bool) -> Reasoner {
    let mut config = ReasonerConfig::default().with_horizon(lo, hi);
    if profiled {
        config.profiler = ctx.layers.as_ref().map(|l| l.spans.clone());
    }
    Reasoner::new(program, config).expect("the ETH-PERP program stratifies")
}

/// Boots a live contract session at epoch 0, as `examples/live_contract.rs`
/// does, with a horizon bounded to the stream.
fn boot_session(ctx: &Ctx, program: Program, trace: &Trace) -> Session {
    let mut genesis = Database::new();
    genesis.assert_at("start", &[], 0);
    genesis.assert_at("startSkew", &[Value::num(trace.initial_skew)], 0);
    genesis.assert_at("startFrs", &[Value::num(0.0)], 0);
    genesis.assert_at("ts", &[Value::Int(trace.start_time)], 0);
    reasoner(ctx, program, (0, trace.events.len() as i64), false)
        .into_session(&genesis, 0)
        .expect("the ETH-PERP program is forward-propagating")
}

/// Materializes an epoch-timeline encoding: one `materialize` operation,
/// checked against the reference. Returns the run and its database.
fn materialize_window(
    ctx: &mut Ctx,
    r: &Reasoner,
    enc: &EncodedTrace,
    trace: &Trace,
    reference: &MarketRun,
) -> Option<(MarketRun, Database, f64)> {
    let (m, took) = timed(|| r.materialize(&enc.database));
    let m = match m {
        Ok(m) => m,
        Err(e) => {
            ctx.op("materialize", Err(e.to_string()));
            return None;
        }
    };
    ctx.rec.materialize_ms.push(ms(took));
    if let Some(l) = ctx.layers() {
        l.batch(&m.stats);
        l.database(&m.database, &m.stats);
    }
    let run = ctx.timed_layer(
        |l| &mut l.extract_us,
        || extract_run(&m.database, trace, enc),
    );
    match run {
        Ok(run) => {
            ctx.op("materialize", check_reference(&run, reference));
            Some((run, m.database, took.as_secs_f64()))
        }
        Err(e) => {
            ctx.op("materialize", Err(e.to_string()));
            None
        }
    }
}

/// One dense-seconds window: a `dense` operation checked by `check`.
fn dense_window(
    ctx: &mut Ctx,
    r: &Reasoner,
    enc: &EncodedTrace,
    trace: &Trace,
    check: impl FnOnce(&MarketRun) -> Result<(), String>,
) {
    let (m, took) = timed(|| r.materialize(&enc.database));
    ctx.rec.dense_s.push(took.as_secs_f64());
    let result = m.map_err(|e| e.to_string()).and_then(|m| {
        if let Some(l) = ctx.layers() {
            l.batch(&m.stats);
        }
        let run = ctx.timed_layer(
            |l| &mut l.extract_us,
            || extract_run(&m.database, trace, enc),
        );
        run.map_err(|e| e.to_string())
    });
    ctx.op("dense window", result.and_then(|run| check(&run)));
}

/// A goal-driven query through `answer`, checked against the answers the
/// full model `full` gives over the same window.
fn query_op(
    ctx: &mut Ctx,
    program: &Program,
    reserved: &[Symbol],
    q: &Query,
    full: &Database,
    answer: impl FnOnce() -> chronolog_core::Result<chronolog_core::QueryOutcome>,
) {
    if ctx.layers.is_some() {
        ctx.timed_layer(
            |l| &mut l.rewrite_us,
            || rewrite::rewrite(program, q, reserved),
        );
    }
    let (out, took) = timed(answer);
    ctx.rec.query_ms.push(ms(took));
    let result = match out {
        Ok(out) => {
            if let Some(l) = ctx.layers() {
                l.query(&out, full.tuple_count());
            }
            let expected = full.query(&q.atom, q.window.as_ref());
            ctx.same_answers(out.answers, &expected)
        }
        Err(e) => Err(e.to_string()),
    };
    ctx.op("query", result);
}

/// The facts one on-chain call submits at `epoch`.
fn event_facts(trace: &Trace, i: usize) -> [Fact; 3] {
    let e = &trace.events[i];
    let epoch = i as i64 + 1;
    let acc = Value::sym(&e.account.to_string());
    let call = match e.method {
        Method::TransferMargin { amount } => {
            Fact::at("tranM", vec![acc, Value::num(amount)], epoch)
        }
        Method::Withdraw => Fact::at("withdraw", vec![acc], epoch),
        Method::ModifyPosition { size } => Fact::at("modPos", vec![acc, Value::num(size)], epoch),
        Method::ClosePosition => Fact::at("closePos", vec![acc], epoch),
    };
    [
        call,
        Fact::at("price", vec![Value::num(e.price)], epoch),
        Fact::at("ts", vec![Value::Int(e.time)], epoch),
    ]
}

/// What a session stream does besides its events.
struct StreamPlan<'a> {
    /// A `Session::query` after every this many events (0: none).
    query_every: usize,
    /// A price correction after every this many events.
    correct_every: usize,
    /// Relative price changes the corrections apply, cycled.
    nudges: &'a [f64],
    /// Query window widths in epochs, cycled.
    widths: &'a [i64],
}

/// Streams every call of `trace` into `s`: submit the call, price and ts
/// facts, then `advance_to` — one `event` operation each — with the
/// plan's queries and corrections in between, and `after(ctx, s, k)`
/// once `k` calls are in.
fn stream(
    ctx: &mut Ctx,
    s: &mut Session,
    program: &Program,
    trace: &Trace,
    plan: &StreamPlan,
    mut after: impl FnMut(&mut Ctx, &Session, usize),
) {
    let n = trace.events.len();
    let mut latencies = Vec::with_capacity(n);
    let mut corrections = 0;
    for i in 0..n {
        let epoch = i as i64 + 1;
        let facts = event_facts(trace, i);
        let (res, took) = timed(|| {
            for f in facts {
                s.submit(f)?;
            }
            s.advance_to(epoch).map(|_| ())
        });
        latencies.push(ms(took));
        ctx.rec.event_ms.push(ms(took));
        ctx.op("event", res.map_err(|e| e.to_string()));
        let k = i + 1;
        if plan.query_every > 0 && k % plan.query_every == 0 {
            let width = plan.widths[(k / plan.query_every) % plan.widths.len()];
            let q = parse_query(&format!("frs(F)@[{}, {epoch}]", (epoch - width).max(0)))
                .expect("query text parses");
            let mut reserved: Vec<Symbol> = Vec::new();
            if ctx.layers.is_some() {
                reserved = s.base_facts().iter().map(|f| f.pred).collect();
                reserved.sort();
                reserved.dedup();
            }
            let s = &*s;
            query_op(ctx, program, &reserved, &q, s.database(), || s.query(&q));
        }
        if k % plan.correct_every == 0 && k > 2 {
            let old = &trace.events[i - 2];
            let nudge = plan.nudges[(k / plan.correct_every) % plan.nudges.len()];
            let at = epoch - 2;
            let (res, took) = timed(|| {
                s.correct(
                    Fact::at("price", vec![Value::num(old.price)], at),
                    Fact::at("price", vec![Value::num(old.price * (1.0 + nudge))], at),
                )
            });
            ctx.rec.correction_ms.push(ms(took));
            ctx.op("correction", res.map(|_| ()).map_err(|e| e.to_string()));
            corrections += 1;
        }
        after(ctx, s, k);
    }
    if let Some(l) = ctx.layers() {
        l.session(s.stats(), s.log().len(), corrections, &latencies);
        l.database(s.database(), s.stats());
    }
}

/// Materializes the session's surviving base facts in batch and checks
/// the result equals the session's database. With `timed_op` it is also
/// a `materialize` sample; returns its seconds.
fn batch_equals_session(
    ctx: &mut Ctx,
    program: &Program,
    s: &Session,
    k: usize,
    timed_op: bool,
) -> f64 {
    let mut base = Database::new();
    if let Err(e) = base.extend_facts(s.base_facts()) {
        ctx.op("session check", Err(e.to_string()));
        return 0.0;
    }
    let r = reasoner(ctx, program.clone(), (0, k as i64), timed_op);
    let (m, took) = timed(|| r.materialize(&base));
    let result = m.map_err(|e| e.to_string()).and_then(|m| {
        if timed_op {
            ctx.rec.materialize_ms.push(ms(took));
            if let Some(l) = ctx.layers() {
                l.batch(&m.stats);
            }
        }
        if m.database.to_facts_text() == s.database().to_facts_text() {
            Ok(())
        } else {
            Err(format!(
                "batch of the base facts differs from the session after {k} events"
            ))
        }
    });
    ctx.op("session check", result);
    took.as_secs_f64()
}

/// Seeded query window widths and correction nudges.
fn plan_inputs(rng: &mut SmallRng) -> (Vec<i64>, Vec<f64>) {
    let widths = (0..16).map(|_| rng.gen_range_i64(1, 21)).collect();
    let nudges = (0..16)
        .map(|_| rng.gen_range_f64(0.0005, 0.005) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
        .collect();
    (widths, nudges)
}

struct Window {
    trace: Trace,
    reference: MarketRun,
    /// Queries with the call count their window ends on.
    queries: Vec<(usize, Query)>,
}

/// `perp-batch`: each round materializes the three Figure-3 windows on
/// the epoch timeline (checked against the fixed-point reference), one
/// of them on the dense-seconds timeline (checked equal to its epoch
/// run), goal-driven `frs`/`skew` queries on every window (checked
/// against the full model), and replays every window through a session
/// with a price correction every `correct_every` calls (checked equal to
/// a batch run of the session's base facts).
pub struct Batch {
    windows: Vec<Window>,
    correct_every: usize,
    widths: Vec<i64>,
    nudges: Vec<f64>,
}

struct BatchSetup {
    epoch_program: Program,
    epoch: Vec<(Reasoner, EncodedTrace)>,
    dense: (Reasoner, EncodedTrace),
    sessions: Vec<Session>,
}

impl Batch {
    /// Seeded traces calibrated to the three Figure-3 windows.
    pub fn new(seed: u64, scale: Scale) -> Batch {
        let mut rng = SmallRng::seed_from_u64(sub_seed(seed, 1));
        let configs: Vec<ScenarioConfig> = match scale {
            Scale::Full => paper_intervals(),
            Scale::Tiny => paper_intervals()
                .into_iter()
                .map(|mut c| {
                    c.n_events = 16;
                    c.n_trades = 3;
                    c.duration_secs = 400;
                    c
                })
                .collect(),
        };
        let windows = configs
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                let trace = seeded_trace(&c, sub_seed(seed, 10 + i as u64));
                let n = trace.events.len() as i64;
                let queries = (0..QUERIES_PER_WINDOW)
                    .map(|k| {
                        // Evenly spaced windows of a fixed width, so every
                        // seed asks about the same stretch of history.
                        let hi = (k + 1) * n / QUERIES_PER_WINDOW;
                        let lo = (hi - 10).max(0);
                        let pred = if k % 2 == 0 { "frs(F)" } else { "skew(S)" };
                        let text = format!("{pred}@[{lo}, {hi}]");
                        (hi as usize, parse_query(&text).expect("query text parses"))
                    })
                    .collect();
                Window {
                    reference: reference(&trace),
                    trace,
                    queries,
                }
            })
            .collect();
        let (widths, nudges) = plan_inputs(&mut rng);
        Batch {
            windows,
            correct_every: match scale {
                Scale::Full => 10,
                Scale::Tiny => 4,
            },
            widths,
            nudges,
        }
    }

    fn setup(&self, ctx: &mut Ctx) -> BatchSetup {
        let epoch_program = build(ctx, TimelineMode::EventEpochs);
        let dense_program = build(ctx, TimelineMode::DenseSeconds);
        let mut epoch = Vec::new();
        for w in &self.windows {
            let enc = encode(ctx, &w.trace, TimelineMode::EventEpochs);
            epoch.push((reasoner(ctx, epoch_program.clone(), enc.horizon, true), enc));
        }
        let enc = encode(
            ctx,
            &self.windows[DENSE_WINDOW].trace,
            TimelineMode::DenseSeconds,
        );
        let dense = (reasoner(ctx, dense_program, enc.horizon, false), enc);
        let sessions = self
            .windows
            .iter()
            .map(|w| boot_session(ctx, epoch_program.clone(), &w.trace))
            .collect();
        BatchSetup {
            epoch_program,
            epoch,
            dense,
            sessions,
        }
    }
}

impl Workload for Batch {
    fn min_rounds(&self) -> usize {
        2
    }

    fn tail_samples_per_round(&self) -> [usize; 3] {
        let events: usize = self.windows.iter().map(|w| w.trace.events.len()).sum();
        let corrections: usize = self
            .windows
            .iter()
            .map(|w| w.trace.events.len() / self.correct_every)
            .sum();
        let queries = self.windows.iter().map(|w| w.queries.len()).sum();
        [queries, events, corrections]
    }

    fn inputs(&self) -> Json {
        let mut j = Json::object();
        let generated: Vec<_> = self
            .windows
            .iter()
            .map(|w| (&w.trace, &w.queries))
            .collect();
        j.set("digest", digest(&format!("{generated:?}{:?}", self.nudges)));
        let events: Vec<Json> = self
            .windows
            .iter()
            .map(|w| Json::from(w.trace.events.len()))
            .collect();
        j.set("window_events", Json::Arr(events));
        j.set(
            "dense_window_events",
            self.windows[DENSE_WINDOW].trace.events.len(),
        );
        j.set(
            "dense_window_secs",
            self.windows[DENSE_WINDOW].trace.span_secs(),
        );
        let [queries, events, corrections] = self.tail_samples_per_round();
        j.set("queries_per_round", queries);
        j.set("session_events_per_round", events);
        j.set("corrections_per_round", corrections);
        j
    }

    fn round(&mut self, ctx: &mut Ctx) {
        let mut s = set_up(ctx, 3, |ctx| self.setup(ctx));
        let (mut events, mut secs) = (0usize, 0.0);
        let mut dense_expected = None;
        let mut models = Vec::new();
        for (wi, w) in self.windows.iter().enumerate() {
            let (r, enc) = &s.epoch[wi];
            let done = materialize_window(ctx, r, enc, &w.trace, &w.reference);
            let Some((run, model, took)) = done else {
                models.push(None);
                continue;
            };
            events += w.trace.events.len();
            secs += took;
            models.push(Some(model));
            if wi == DENSE_WINDOW {
                dense_expected = Some(run);
            }
        }
        if secs > 0.0 {
            ctx.rec.events_per_s.push(events as f64 / secs);
        }
        let (r, enc) = &s.dense;
        dense_window(ctx, r, enc, &self.windows[DENSE_WINDOW].trace, |run| {
            let epoch = dense_expected.ok_or("no epoch run of the dense window")?;
            if run.frs == epoch.frs && run.trades == epoch.trades {
                Ok(())
            } else {
                Err("dense and epoch timelines disagree".to_string())
            }
        });
        let plan = StreamPlan {
            query_every: 0,
            correct_every: self.correct_every,
            nudges: &self.nudges,
            widths: &self.widths,
        };
        // Each window's goal-driven queries run during its replay, at the
        // call their window ends on, so they sample the whole round.
        for (wi, (w, session)) in self.windows.iter().zip(&mut s.sessions).enumerate() {
            let (r, enc) = &s.epoch[wi];
            let reserved: Vec<Symbol> = enc.database.predicates().collect();
            let model = &models[wi];
            stream(
                ctx,
                session,
                &s.epoch_program,
                &w.trace,
                &plan,
                |ctx, _, k| {
                    let Some(model) = model else { return };
                    for (_, q) in w.queries.iter().filter(|(at, _)| *at == k) {
                        query_op(ctx, r.program(), &reserved, q, model, || {
                            r.query(&enc.database, q)
                        });
                    }
                },
            );
            batch_equals_session(ctx, &s.epoch_program, session, w.trace.events.len(), false);
        }
    }

    fn main_batch(&self, threads: usize) -> (f64, RunStats) {
        epoch_pool_pass(&self.windows[0].trace, threads)
    }
}

/// `perp-live`: each round boots a contract session and streams a fixed
/// number of seeded calls into it, with a `Session::query` on `frs` and a
/// price correction every `every` calls; checkpoints materialize the
/// session's base facts in batch and check the session against them; at
/// three points of the stream, its opening slice runs on the
/// dense-seconds timeline, checked against the fixed-point reference.
pub struct Live {
    trace: Trace,
    slice: Trace,
    slice_reference: MarketRun,
    every: usize,
    checkpoints: Vec<usize>,
    widths: Vec<i64>,
    nudges: Vec<f64>,
}

impl Live {
    /// A seeded stream of `events` calls over a two-hour window.
    pub fn new(seed: u64, scale: Scale) -> Live {
        let (events, slice_len, every) = match scale {
            Scale::Full => (600, 100, 10),
            Scale::Tiny => (30, 8, 5),
        };
        let mut config = ScenarioConfig::new(
            "live",
            20221012,
            1_665_583_200,
            events,
            events / 5,
            2502.85,
            1290.0,
        );
        config.duration_secs = 7_200;
        let trace = seeded_trace(&config, sub_seed(seed, 2));
        let slice = Trace {
            end_time: trace.events[slice_len].time,
            events: trace.events[..slice_len].to_vec(),
            ..trace.clone()
        };
        let mut rng = SmallRng::seed_from_u64(sub_seed(seed, 3));
        let (widths, nudges) = plan_inputs(&mut rng);
        Live {
            checkpoints: (1..=CHECKPOINTS)
                .map(|k| k * events / CHECKPOINTS)
                .collect(),
            slice_reference: reference(&slice),
            slice,
            trace,
            every,
            widths,
            nudges,
        }
    }
}

impl Workload for Live {
    fn min_rounds(&self) -> usize {
        2
    }

    fn tail_samples_per_round(&self) -> [usize; 3] {
        let n = self.trace.events.len();
        [n / self.every, n, n / self.every]
    }

    fn inputs(&self) -> Json {
        let mut j = Json::object();
        let generated = format!("{:?}{:?}{:?}", self.trace, self.widths, self.nudges);
        j.set("digest", digest(&generated));
        let [queries, events, corrections] = self.tail_samples_per_round();
        j.set("events", events);
        j.set("queries", queries);
        j.set("corrections", corrections);
        j.set(
            "checkpoints",
            Json::Arr(self.checkpoints.iter().map(|&k| Json::from(k)).collect()),
        );
        j.set("dense_slice_events", self.slice.events.len());
        j.set("dense_slice_secs", self.slice.span_secs());
        j
    }

    fn round(&mut self, ctx: &mut Ctx) {
        let (program, mut session, dense, enc) = set_up(ctx, 8, |ctx| {
            let program = build(ctx, TimelineMode::EventEpochs);
            let session = boot_session(ctx, program.clone(), &self.trace);
            let dense_program = build(ctx, TimelineMode::DenseSeconds);
            let enc = encode(ctx, &self.slice, TimelineMode::DenseSeconds);
            let dense = reasoner(ctx, dense_program, enc.horizon, false);
            (program, session, dense, enc)
        });
        let plan = StreamPlan {
            query_every: self.every,
            correct_every: self.every,
            nudges: &self.nudges,
            widths: &self.widths,
        };
        let (mut events, mut secs) = (0usize, 0.0);
        let n = self.trace.events.len();
        // The opening slice runs on the dense timeline at three points of
        // the stream, so its samples spread over the round.
        let dense_at = [n / 4, n / 2, 3 * n / 4];
        let reference = &self.slice_reference;
        stream(
            ctx,
            &mut session,
            &program,
            &self.trace,
            &plan,
            |ctx, s, k| {
                if self.checkpoints.contains(&k) {
                    secs += batch_equals_session(ctx, &program, s, k, true);
                    events += k;
                }
                if dense_at.contains(&k) {
                    dense_window(ctx, &dense, &enc, &self.slice, |run| {
                        check_reference(run, reference)
                    });
                }
            },
        );
        if secs > 0.0 {
            ctx.rec.events_per_s.push(events as f64 / secs);
        }
    }

    fn main_batch(&self, threads: usize) -> (f64, RunStats) {
        epoch_pool_pass(&self.trace, threads)
    }
}

/// [`crate::pool_pass`] over `trace` on the epoch timeline.
fn epoch_pool_pass(trace: &Trace, threads: usize) -> (f64, RunStats) {
    let enc = encode_trace(trace, TimelineMode::EventEpochs);
    let program = build_program(&MarketParams::default(), TimelineMode::EventEpochs)
        .expect("the ETH-PERP program builds");
    crate::pool_pass(program, &enc.database, enc.horizon, threads)
}

//! The `netting` workload: the join-heavy counterparty-exposure program of
//! `corpus/netting.dmtl` on a seeded counterparty graph of the same shape.

use crate::{digest, ms, set_up, timed, Ctx, Scale, Workload};
use chronolog_core::{
    parse_query, parse_source, rewrite, Database, Fact, Interval, Program, Query, Reasoner,
    ReasonerConfig, RunStats, Stratification, Symbol, Value,
};
use chronolog_obs::{Json, SmallRng};

/// The rules of `corpus/netting.dmtl`.
const RULES: &str = "exposure(X, Y) :- trade(X, Y).\n\
                     exposure(X, Z) :- exposure(X, Y), trade(Y, Z).\n\
                     nettable(X, Z) :- exposure(X, Y), exposure(Y, Z).\n";

/// Every trade is live over the margin period `[0, MARGIN_PERIOD]`.
const MARGIN_PERIOD: i64 = 20;

/// A netting point query takes about 0.3 ms, so each `query_ms` sample is
/// the mean of this many consecutive queries rather than one
/// sub-millisecond reading.
const QUERY_BLOCK: usize = 5;

/// A ring of `n` counterparties with three open trades each, at the
/// corpus strides 1, 3 and 7, under seeded labels. Every seed gets the
/// same graph up to renaming, so seeds cost the same work; stride 1 makes
/// it strongly connected, so it closes over all `n²` pairs.
struct Book {
    labels: Vec<String>,
    trades: Vec<(usize, usize)>,
}

impl Book {
    fn new(n: usize, rng: &mut SmallRng) -> Book {
        let strides = [1, 3, 7];
        let mut labels: Vec<String> = (0..n).map(|i| format!("cp{i}")).collect();
        rng.shuffle(&mut labels);
        let trades = (0..n)
            .flat_map(|x| strides.iter().map(move |s| (x, (x + s) % n)))
            .collect();
        Book { labels, trades }
    }

    fn fact(&self, (x, y): (usize, usize), lo: i64, hi: i64) -> Fact {
        Fact::over(
            "trade",
            vec![Value::sym(&self.labels[x]), Value::sym(&self.labels[y])],
            Interval::closed_int(lo, hi),
        )
    }

    /// Exposure and nettable pair counts, by a plain graph closure.
    fn closure_sizes(&self) -> (usize, usize) {
        let n = self.labels.len();
        let mut reach = vec![vec![false; n]; n];
        for &(x, y) in &self.trades {
            reach[x][y] = true;
        }
        for k in 0..n {
            let via = reach[k].clone();
            for row in reach.iter_mut().filter(|row| row[k]) {
                for (r, &v) in row.iter_mut().zip(&via) {
                    *r |= v;
                }
            }
        }
        let exposure = reach.iter().flatten().filter(|&&r| r).count();
        let nettable = (0..n)
            .flat_map(|x| (0..n).map(move |z| (x, z)))
            .filter(|&(x, z)| (0..n).any(|y| reach[x][y] && reach[y][z]))
            .count();
        (exposure, nettable)
    }
}

/// `netting`: each round materializes the book over the margin period
/// (derived tuple count checked against a plain graph closure), answers
/// seeded `exposure(cpK, X)@[lo, hi]` point queries goal-driven (checked
/// against the full model), materializes the book observed once per tick
/// (the dense timeline: punctual trades at every tick, checked to derive
/// the same pairs at every tick), and streams a smaller desk book into a
/// session one tick at a time with a re-booked trade after every tick
/// (checked equal to a batch run of the session's base facts).
pub struct Netting {
    book: Book,
    expected: (usize, usize),
    queries: Vec<Query>,
    materializations: usize,
    dense_ticks: i64,
    desk: Book,
    desk_ticks: i64,
    rebookings: Vec<(usize, usize)>,
}

struct Setup {
    program: Program,
    book: Database,
    reasoner: Reasoner,
    dense_book: Database,
    dense: Reasoner,
    session: chronolog_core::Session,
}

impl Netting {
    /// A seeded book of 60 counterparties and a desk of 16.
    pub fn new(seed: u64, scale: Scale) -> Netting {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x006e_6574_7469_6e67);
        let (n, desk_n, desk_ticks) = match scale {
            Scale::Full => (60, 16, 40),
            Scale::Tiny => (12, 6, 4),
        };
        let book = Book::new(n, &mut rng);
        let queries = (0..desk_ticks as usize * QUERY_BLOCK)
            .map(|_| {
                let k = rng.gen_range_usize(0, n);
                let lo = rng.gen_range_i64(0, MARGIN_PERIOD + 1);
                let hi = rng.gen_range_i64(lo, MARGIN_PERIOD + 1);
                parse_query(&format!("exposure({}, X)@[{lo}, {hi}]", book.labels[k]))
                    .expect("query text parses")
            })
            .collect();
        let desk = Book::new(desk_n, &mut rng);
        let rebookings = (0..desk_ticks)
            .map(|_| {
                let t = rng.gen_range_usize(0, desk.trades.len());
                let (x, y) = desk.trades[t];
                let mut to = rng.gen_range_usize(0, desk_n);
                while to == x || to == y {
                    to = (to + 1) % desk_n;
                }
                (t, to)
            })
            .collect();
        Netting {
            expected: book.closure_sizes(),
            book,
            queries,
            materializations: 2,
            dense_ticks: 4,
            desk,
            desk_ticks,
            rebookings,
        }
    }

    fn config(&self, ctx: &Ctx, hi: i64, profiled: bool) -> ReasonerConfig {
        let mut config = ReasonerConfig::default().with_horizon(0, hi);
        if profiled {
            config.profiler = ctx.layers.as_ref().map(|l| l.spans.clone());
        }
        config
    }

    fn setup(&self, ctx: &mut Ctx) -> Setup {
        let (program, _) = ctx
            .timed_layer(|l| &mut l.build_us, || parse_source(RULES))
            .expect("the netting rules parse");
        if ctx.layers.is_some() {
            let strat =
                ctx.timed_layer(|l| &mut l.stratify_us, || Stratification::compute(&program));
            if let (Some(l), Ok(s)) = (ctx.layers(), strat) {
                l.strata = s.count() as u64;
            }
        }
        let load = |facts: Vec<Fact>| {
            let mut db = Database::new();
            db.extend_facts(&facts).expect("trade facts load");
            db
        };
        let facts = self
            .book
            .trades
            .iter()
            .map(|&t| self.book.fact(t, 0, MARGIN_PERIOD));
        let book = ctx.timed_layer(|l| &mut l.encode_us, || load(facts.collect()));
        let ticks = (0..self.dense_ticks)
            .flat_map(|tick| self.book.trades.iter().map(move |&t| (t, tick)))
            .map(|(t, tick)| self.book.fact(t, tick, tick));
        let dense_book = ctx.timed_layer(|l| &mut l.encode_us, || load(ticks.collect()));
        let new = |config| Reasoner::new(program.clone(), config).expect("netting stratifies");
        let reasoner = new(self.config(ctx, MARGIN_PERIOD, true));
        let dense = new(self.config(ctx, self.dense_ticks - 1, false));
        let session = new(self.config(ctx, self.desk_ticks, false))
            .into_session(&Database::new(), 0)
            .expect("netting is forward-propagating");
        Setup {
            program,
            book,
            reasoner,
            dense_book,
            dense,
            session,
        }
    }

    /// Answers `queries` goal-driven, each checked against the full
    /// model; their mean latency is one `query_ms` sample.
    fn query_block(
        &self,
        ctx: &mut Ctx,
        s: &Setup,
        reserved: &[Symbol],
        model: &Database,
        queries: &[Query],
    ) {
        let mut total_ms = 0.0;
        for q in queries {
            if ctx.layers.is_some() {
                ctx.timed_layer(
                    |l| &mut l.rewrite_us,
                    || rewrite::rewrite(&s.program, q, reserved),
                );
            }
            let (out, took) = timed(|| s.reasoner.query(&s.book, q));
            total_ms += ms(took);
            let result = match out {
                Ok(out) => {
                    if let Some(l) = ctx.layers() {
                        l.query(&out, model.tuple_count());
                    }
                    let expected = model.query(&q.atom, q.window.as_ref());
                    ctx.same_answers(out.answers, &expected)
                }
                Err(e) => Err(e.to_string()),
            };
            ctx.op("query", result);
        }
        ctx.rec.query_ms.push(total_ms / queries.len() as f64);
    }

    fn check_model(&self, derived: usize, exposure: usize) -> Result<(), String> {
        let (e, n) = self.expected;
        if derived == e + n && exposure == e {
            Ok(())
        } else {
            Err(format!(
                "{derived} derived tuples ({exposure} exposures), expected {} ({e})",
                e + n
            ))
        }
    }
}

impl Workload for Netting {
    fn min_rounds(&self) -> usize {
        3
    }

    fn tail_samples_per_round(&self) -> [usize; 3] {
        let ticks = self.desk_ticks as usize;
        [self.queries.len() / QUERY_BLOCK, ticks, ticks - 1]
    }

    fn inputs(&self) -> Json {
        let mut j = Json::object();
        let generated = format!(
            "{:?}{:?}{:?}{:?}",
            self.book.labels, self.queries, self.desk.labels, self.rebookings
        );
        j.set("digest", digest(&generated));
        j.set("counterparties", self.book.labels.len());
        j.set("trades", self.book.trades.len());
        j.set("materializations_per_round", self.materializations);
        j.set("queries_per_round", self.queries.len());
        j.set("dense_ticks", self.dense_ticks);
        j.set("desk_counterparties", self.desk.labels.len());
        j.set("desk_ticks", self.desk_ticks);
        j.set("corrections_per_round", self.desk_ticks - 1);
        j
    }

    fn round(&mut self, ctx: &mut Ctx) {
        let mut s = set_up(ctx, 32, |ctx| self.setup(ctx));
        let exposure_pattern = parse_query("exposure(X, Y)").expect("pattern parses").atom;
        let mut model = None;
        let mut secs = 0.0;
        for _ in 0..self.materializations {
            let (m, took) = timed(|| s.reasoner.materialize(&s.book));
            let m = match m {
                Ok(m) => m,
                Err(e) => {
                    ctx.op("materialize", Err(e.to_string()));
                    continue;
                }
            };
            ctx.rec.materialize_ms.push(ms(took));
            secs += took.as_secs_f64();
            if let Some(l) = ctx.layers() {
                l.batch(&m.stats);
                l.database(&m.database, &m.stats);
            }
            let sets = ctx.timed_layer(
                |l| &mut l.extract_us,
                || m.database.query(&exposure_pattern, None),
            );
            ctx.op(
                "materialize",
                self.check_model(m.stats.derived_tuples, sets.len()),
            );
            model = Some(m.database);
        }
        if secs > 0.0 {
            let trades = self.book.trades.len() * self.materializations;
            ctx.rec.events_per_s.push(trades as f64 / secs);
        }
        let (m, took) = timed(|| s.dense.materialize(&s.dense_book));
        ctx.rec.dense_s.push(took.as_secs_f64());
        let result = m.map_err(|e| e.to_string()).and_then(|m| {
            if let Some(l) = ctx.layers() {
                l.batch(&m.stats);
            }
            let ticks = self.dense_ticks as usize;
            let tuples = self.book.trades.len() + m.stats.derived_tuples;
            let exposure = m.database.query(&exposure_pattern, None).len();
            self.check_model(m.stats.derived_tuples, exposure)?;
            if m.database.component_count() == tuples * ticks {
                Ok(())
            } else {
                Err("a derived pair does not hold at every tick".to_string())
            }
        });
        ctx.op("dense window", result);

        // The point queries run in blocks between the desk's ticks, so
        // they sample the whole round rather than one short burst.
        let reserved: Vec<Symbol> = s.book.predicates().collect();
        let mut blocks = self.queries.chunks(QUERY_BLOCK);
        let mut latencies = Vec::new();
        for tick in 1..=self.desk_ticks {
            let facts: Vec<Fact> = self
                .desk
                .trades
                .iter()
                .map(|&t| self.desk.fact(t, tick, tick))
                .collect();
            let session = &mut s.session;
            let (res, took) = timed(|| {
                for f in facts {
                    session.submit(f)?;
                }
                session.advance_to(tick).map(|_| ())
            });
            latencies.push(ms(took));
            ctx.rec.event_ms.push(ms(took));
            ctx.op("event", res.map_err(|e| e.to_string()));
            if tick > 1 {
                let (t, to) = self.rebookings[tick as usize - 1];
                let (x, y) = self.desk.trades[t];
                let at = tick - 1;
                let (res, took) = timed(|| {
                    session.correct(
                        self.desk.fact((x, y), at, at),
                        self.desk.fact((x, to), at, at),
                    )
                });
                ctx.rec.correction_ms.push(ms(took));
                ctx.op("correction", res.map(|_| ()).map_err(|e| e.to_string()));
            }
            if let (Some(model), Some(block)) = (&model, blocks.next()) {
                self.query_block(ctx, &s, &reserved, model, block);
            }
        }
        let session = &s.session;
        if let Some(l) = ctx.layers() {
            l.session(
                session.stats(),
                session.log().len(),
                latencies.len() - 1,
                &latencies,
            );
            l.database(session.database(), session.stats());
        }
        let mut base = Database::new();
        let result = base
            .extend_facts(session.base_facts())
            .and_then(|_| {
                Reasoner::new(s.program.clone(), self.config(ctx, self.desk_ticks, false))
            })
            .and_then(|r| r.materialize(&base))
            .map_err(|e| e.to_string())
            .and_then(|m| {
                if m.database.to_facts_text() == session.database().to_facts_text() {
                    Ok(())
                } else {
                    Err("batch of the desk's base facts differs from the session".to_string())
                }
            });
        ctx.op("session check", result);
    }

    fn main_batch(&self, threads: usize) -> (f64, RunStats) {
        let mut db = Database::new();
        let facts: Vec<Fact> = self
            .book
            .trades
            .iter()
            .map(|&t| self.book.fact(t, 0, MARGIN_PERIOD))
            .collect();
        db.extend_facts(&facts).expect("trade facts load");
        let (program, _) = parse_source(RULES).expect("the netting rules parse");
        crate::pool_pass(program, &db, (0, MARGIN_PERIOD), threads)
    }
}

//! Per-layer figures of a traced round, measured from outside the program:
//! timed calls into public functions plus the public `RunStats`,
//! `QueryOutcome` and `Session::stats()` counters, and the self time of
//! the engine's own spans when a `SpanRecorder` is attached through
//! `ReasonerConfig::profiler`.

use crate::stats::median;
use chronolog_core::{Database, QueryOutcome, RepairStats, RunStats};
use chronolog_obs::SpanRecorder;
use std::collections::BTreeMap;

/// Span frame classes reported as `span.self_ms.<frame>`; every other
/// frame counts towards the total only.
const FRAMES: [&str; 5] = ["materialize", "stratum", "iteration", "rule", "join"];

/// Frames that hold no work of their own: their self time is time the
/// spans do not attribute to a layer.
const COARSE: [&str; 4] = ["materialize", "stratum", "iteration", "rule"];

/// Every per-layer metric with its unit, in report order. A traced run
/// reports all of them on every workload (zero where a workload does not
/// reach the layer's counter).
pub const PER_LAYER: [(&str, &str); 59] = [
    ("parser.build_us", "us"),
    ("analysis.stratify_us", "us"),
    ("analysis.strata", "count"),
    ("input.encode_us", "us"),
    ("output.extract_us", "us"),
    ("engine.iterations", "count"),
    ("engine.rule_evaluations", "count"),
    ("engine.derivations", "count"),
    ("engine.derived_tuples", "count"),
    ("engine.redundancy", "ratio"),
    ("engine.top_rule_share", "ratio"),
    ("plan.plans_built", "count"),
    ("plan.replans", "count"),
    ("plan.misestimate", "ratio"),
    ("plan.reorders_applied", "count"),
    ("plan.replans_triggered", "count"),
    ("temporal.total_components", "count"),
    ("temporal.derived_components", "count"),
    ("eval.index_probes", "count"),
    ("eval.full_scans", "count"),
    ("eval.scanned_tuples", "count"),
    ("eval.probed_tuples", "count"),
    ("eval.index_scan_avoided", "count"),
    ("eval.time_index_probes", "count"),
    ("eval.interval_clips_avoided", "count"),
    ("eval.bindings_per_candidate", "ratio"),
    ("pool.reuses", "count"),
    ("pool.respawns", "count"),
    ("pool.busy_share", "ratio"),
    ("pool.speedup_vs_1t", "ratio"),
    ("rewrite.rewrite_us", "us"),
    ("rewrite.cone_rules", "count"),
    ("rewrite.rules_rewritten", "count"),
    ("rewrite.demanded_tuples", "count"),
    ("rewrite.demand_ratio", "ratio"),
    ("rewrite.degraded_share", "ratio"),
    ("session.advance_growth", "ratio"),
    ("session.column_clones_per_event", "ratio"),
    ("session.base_log_len", "count"),
    ("repair.attempted", "count"),
    ("repair.incremental", "count"),
    ("repair.fallbacks", "count"),
    ("repair.budget_trips", "count"),
    ("repair.cone_tuples_per_correction", "ratio"),
    ("repair.overdeleted_components", "count"),
    ("database.tuples", "count"),
    ("database.interval_bytes", "bytes"),
    ("database.value_bytes", "bytes"),
    ("database.arena_reuse_ratio", "ratio"),
    ("database.index_rebuilds_avoided", "count"),
    ("intern.values", "count"),
    ("intern.symbols", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("span.self_ms.materialize", "ms"),
    ("span.self_ms.stratum", "ms"),
    ("span.self_ms.iteration", "ms"),
    ("span.self_ms.rule", "ms"),
    ("span.self_ms.join", "ms"),
    ("span.unattributed_share", "ratio"),
];

/// What one traced round saw, layer by layer.
#[derive(Default)]
pub struct Layers {
    /// Program build (parse) times, µs.
    pub build_us: Vec<f64>,
    /// `Stratification::compute` times, µs.
    pub stratify_us: Vec<f64>,
    /// Strata of the workload's main program.
    pub strata: u64,
    /// Input encoding times, µs.
    pub encode_us: Vec<f64>,
    /// Output extraction times, µs.
    pub extract_us: Vec<f64>,
    /// `rewrite::rewrite` times, µs.
    pub rewrite_us: Vec<f64>,
    /// Attached to the workload's batch materializations.
    pub spans: SpanRecorder,
    /// Traced over untraced round wall time.
    pub overhead_ratio: f64,
    batch: Batch,
    pool: Pool,
    queries: Queries,
    sessions: Sessions,
    db: Db,
}

#[derive(Default)]
struct Batch {
    iterations: u64,
    rule_evaluations: u64,
    derivations: u64,
    rule_tuples: u64,
    derived_tuples: u64,
    rule_wall_ns: BTreeMap<String, u128>,
    plans_built: u64,
    replans: u64,
    replans_triggered: u64,
    reorders_applied: u64,
    estimated_rows: u64,
    actual_rows: u64,
    total_components: u64,
    derived_components: u64,
    index_probes: u64,
    full_scans: u64,
    scanned_tuples: u64,
    probed_tuples: u64,
    index_scan_avoided: u64,
    time_index_probes: u64,
    interval_clips_avoided: u64,
}

#[derive(Default)]
struct Pool {
    reuses: u64,
    respawns: u64,
    busy_share: f64,
    speedup: f64,
}

#[derive(Default)]
struct Queries {
    count: u64,
    cone_rules: u64,
    rules_rewritten: u64,
    demanded: u64,
    full_model: u64,
    degraded: u64,
}

#[derive(Default)]
struct Sessions {
    growth: f64,
    longest: usize,
    events: u64,
    column_clones: u64,
    log_len: u64,
    corrections: u64,
    repairs: RepairStats,
    slabs_freed: u64,
    slabs_reused: u64,
}

#[derive(Default)]
struct Db {
    tuples: u64,
    interval_bytes: u64,
    value_bytes: u64,
    index_rebuilds_avoided: u64,
    interned_values: u64,
    interned_symbols: u64,
}

impl Layers {
    /// Adds one batch materialization or dense window.
    pub fn batch(&mut self, stats: &RunStats) {
        let b = &mut self.batch;
        b.iterations += stats.iterations.iter().sum::<usize>() as u64;
        b.rule_evaluations += stats.rule_evaluations as u64;
        for r in &stats.rules {
            b.derivations += r.derivations as u64;
            b.rule_tuples += r.tuples_derived as u64;
            *b.rule_wall_ns.entry(r.label.clone()).or_default() += r.wall.as_nanos();
        }
        b.derived_tuples += stats.derived_tuples as u64;
        b.plans_built += stats.plans_built;
        b.replans += stats.replans;
        b.replans_triggered += stats.replans_triggered;
        b.reorders_applied += stats.reorders_applied;
        b.estimated_rows += stats.planner_estimated_rows;
        b.actual_rows += stats.planner_actual_rows;
        b.total_components += stats.total_components as u64;
        b.derived_components += stats.derived_components as u64;
        b.index_probes += stats.index_probes;
        b.full_scans += stats.full_scans;
        b.scanned_tuples += stats.scanned_tuples;
        b.probed_tuples += stats.probed_tuples;
        b.index_scan_avoided += stats.index_scan_avoided;
        b.time_index_probes += stats.time_index_probes;
        b.interval_clips_avoided += stats.interval_clips_avoided;
        self.db_stats(stats);
    }

    /// Records the pool pass: the workload's main batch materialization at
    /// `threads` workers, and its one-thread wall time over theirs.
    pub fn pool(&mut self, stats: &RunStats, threads: usize, speedup: f64) {
        let busy: u128 = stats.workers.iter().map(|w| w.busy.as_nanos()).sum();
        let capacity = stats.elapsed.as_nanos() * threads as u128;
        self.pool = Pool {
            reuses: stats.pool_reuses,
            respawns: stats.pool_respawns,
            busy_share: if capacity > 0 {
                busy as f64 / capacity as f64
            } else {
                0.0
            },
            speedup,
        };
    }

    /// Adds one goal-driven query; `full_model` is the tuple count of the
    /// full materialization over the same input.
    pub fn query(&mut self, outcome: &QueryOutcome, full_model: usize) {
        let m = &outcome.stats.magic;
        let q = &mut self.queries;
        q.count += 1;
        q.cone_rules += m.cone_rules;
        q.rules_rewritten += m.rules_rewritten;
        q.demanded += m.demanded_tuples;
        q.full_model += full_model as u64;
        q.degraded += u64::from(m.degraded);
    }

    /// Adds one finished session stream: its cumulative stats, base-fact
    /// log length, correction count and per-event latencies in order.
    pub fn session(
        &mut self,
        stats: &RunStats,
        log_len: usize,
        corrections: usize,
        event_ms: &[f64],
    ) {
        let s = &mut self.sessions;
        if event_ms.len() > s.longest {
            s.longest = event_ms.len();
            let tenth = (event_ms.len() / 10).max(1);
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            s.growth = mean(&event_ms[event_ms.len() - tenth..]) / mean(&event_ms[..tenth]);
        }
        s.events += event_ms.len() as u64;
        s.column_clones += stats.storage.column_clones;
        s.log_len += log_len as u64;
        s.corrections += corrections as u64;
        let r = &stats.repairs;
        s.repairs.attempted += r.attempted;
        s.repairs.incremental += r.incremental;
        s.repairs.fallbacks += r.fallbacks;
        s.repairs.budget_trips += r.budget_trips;
        s.repairs.cone_tuples += r.cone_tuples;
        s.repairs.overdeleted_components += r.overdeleted_components;
        s.slabs_freed += stats.storage.arena_slabs_freed;
        s.slabs_reused += stats.storage.arena_slabs_reused;
        self.db_stats(stats);
    }

    /// Records the size of a database the round built; the largest wins.
    pub fn database(&mut self, db: &Database, stats: &RunStats) {
        if db.tuple_count() as u64 >= self.db.tuples {
            self.db.tuples = db.tuple_count() as u64;
            self.db.interval_bytes = stats.storage.interval_bytes as u64;
            self.db.value_bytes = stats.storage.value_bytes as u64;
        }
    }

    fn db_stats(&mut self, stats: &RunStats) {
        self.db.index_rebuilds_avoided += stats.index_rebuilds_avoided;
        self.db.interned_values = self
            .db
            .interned_values
            .max(stats.storage.interned_values as u64);
        self.db.interned_symbols = self
            .db
            .interned_symbols
            .max(stats.storage.interned_symbols as u64);
    }

    /// Folds a later traced round in: time samples accumulate, counters
    /// are taken from the later round (they repeat exactly).
    pub fn absorb(&mut self, later: Layers) {
        let keep = |mine: &mut Vec<f64>, theirs: Vec<f64>| mine.extend(theirs);
        keep(&mut self.build_us, later.build_us);
        keep(&mut self.stratify_us, later.stratify_us);
        keep(&mut self.encode_us, later.encode_us);
        keep(&mut self.extract_us, later.extract_us);
        keep(&mut self.rewrite_us, later.rewrite_us);
        self.strata = later.strata;
        self.batch = later.batch;
        self.pool = later.pool;
        self.queries = later.queries;
        self.sessions = later.sessions;
        self.db = later.db;
        self.spans = later.spans;
    }

    /// Every metric of [`PER_LAYER`], in order, as `(name, value, unit)`.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let b = &self.batch;
        let q = &self.queries;
        let s = &self.sessions;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let total_wall: u128 = b.rule_wall_ns.values().sum();
        let top_wall = b.rule_wall_ns.values().copied().max().unwrap_or(0);
        let (self_ms, unattributed) = span_self_times(&self.spans);
        let qn = q.count as f64;
        let values: Vec<f64> = vec![
            median(&self.build_us),
            median(&self.stratify_us),
            self.strata as f64,
            median(&self.encode_us),
            median(&self.extract_us),
            b.iterations as f64,
            b.rule_evaluations as f64,
            b.derivations as f64,
            b.derived_tuples as f64,
            ratio(b.derivations as f64, b.rule_tuples as f64),
            ratio(top_wall as f64, total_wall as f64),
            b.plans_built as f64,
            b.replans as f64,
            error_factor(b.actual_rows as f64, b.estimated_rows as f64),
            b.reorders_applied as f64,
            b.replans_triggered as f64,
            b.total_components as f64,
            b.derived_components as f64,
            b.index_probes as f64,
            b.full_scans as f64,
            b.scanned_tuples as f64,
            b.probed_tuples as f64,
            b.index_scan_avoided as f64,
            b.time_index_probes as f64,
            b.interval_clips_avoided as f64,
            ratio(
                b.actual_rows as f64,
                (b.scanned_tuples + b.probed_tuples) as f64,
            ),
            self.pool.reuses as f64,
            self.pool.respawns as f64,
            self.pool.busy_share,
            self.pool.speedup,
            median(&self.rewrite_us),
            ratio(q.cone_rules as f64, qn),
            ratio(q.rules_rewritten as f64, qn),
            ratio(q.demanded as f64, qn),
            ratio(q.demanded as f64, q.full_model as f64),
            ratio(q.degraded as f64, qn),
            s.growth,
            ratio(s.column_clones as f64, s.events as f64),
            s.log_len as f64,
            s.repairs.attempted as f64,
            s.repairs.incremental as f64,
            s.repairs.fallbacks as f64,
            s.repairs.budget_trips as f64,
            ratio(s.repairs.cone_tuples as f64, s.corrections as f64),
            s.repairs.overdeleted_components as f64,
            self.db.tuples as f64,
            self.db.interval_bytes as f64,
            self.db.value_bytes as f64,
            ratio(s.slabs_reused as f64, s.slabs_freed as f64),
            self.db.index_rebuilds_avoided as f64,
            self.db.interned_values as f64,
            self.db.interned_symbols as f64,
            self.overhead_ratio,
            self_ms[0],
            self_ms[1],
            self_ms[2],
            self_ms[3],
            self_ms[4],
            unattributed,
        ];
        PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    }
}

/// How far the planner's row estimates were off, either way: the larger
/// of actual over estimated rows and its inverse (1 is exact).
fn error_factor(actual: f64, estimated: f64) -> f64 {
    if actual > 0.0 && estimated > 0.0 {
        (actual / estimated).max(estimated / actual)
    } else {
        1.0
    }
}

/// Self time (ms) of each frame class in [`FRAMES`], and the share of all
/// span self time that sits in the coarse frames of [`COARSE`].
fn span_self_times(spans: &SpanRecorder) -> ([f64; 5], f64) {
    let mut by_class = [0u64; 5];
    let (mut coarse, mut total) = (0u64, 0u64);
    for (_, mut records) in spans.lanes() {
        records.sort_by_key(|r| (r.start_us, r.depth));
        // Open ancestors as (depth, end_us, index); children subtract
        // their duration from the innermost open parent.
        let mut child_us = vec![0u64; records.len()];
        let mut open: Vec<(usize, u64, usize)> = Vec::new();
        for (i, r) in records.iter().enumerate() {
            while open
                .last()
                .is_some_and(|&(d, end, _)| d >= r.depth || end <= r.start_us)
            {
                open.pop();
            }
            if let Some(&(_, _, parent)) = open.last() {
                child_us[parent] += r.dur_us;
            }
            open.push((r.depth, r.start_us + r.dur_us, i));
        }
        for (r, child) in records.iter().zip(child_us) {
            let own = r.dur_us.saturating_sub(child);
            total += own;
            let class = frame_class(&r.name);
            if let Some(k) = FRAMES.iter().position(|&f| f == class) {
                by_class[k] += own;
            }
            if COARSE.contains(&class) {
                coarse += own;
            }
        }
    }
    let ms = by_class.map(|us| us as f64 / 1e3);
    let share = if total > 0 {
        coarse as f64 / total as f64
    } else {
        0.0
    };
    (ms, share)
}

fn frame_class(name: &str) -> &str {
    match name.split(' ').next().unwrap_or(name) {
        "stratum" => "stratum",
        "rule" => "rule",
        "join" => "join",
        other => other,
    }
}

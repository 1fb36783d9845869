//! `perfbench compare OLD NEW`: metric-by-metric comparison of two saved
//! reports (`--report FILE`) against the bounds in `BENCHMARK.json`.

use chronolog_obs::Json;

/// How one metric may move: `(name, lower_is_better, bound)`, where a
/// `None` bound marks a per-layer metric (reported, never gated).
pub type Rule = (String, bool, Option<f64>);

/// The rules of every metric `BENCHMARK.json` declares.
pub fn rules(benchmark: &Json) -> Result<Vec<Rule>, String> {
    let mut out = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        let metrics = benchmark
            .get(section)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no `{section}` list"))?;
        for m in metrics {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let bound = m.get("bound").and_then(Json::as_f64);
            out.push((name.to_string(), lower, bound));
        }
    }
    Ok(out)
}

/// The verdict of a comparison.
pub struct Comparison {
    /// One line per metric present in both reports.
    pub lines: Vec<String>,
    /// Metrics that got worse by more than their bound.
    pub regressions: Vec<String>,
}

/// Compares `new` against `old`. Refuses reports of different workloads,
/// run kinds or core counts: their figures are not comparable.
pub fn compare(old: &Json, new: &Json, rules: &[Rule]) -> Result<Comparison, String> {
    let field = |r: &Json, path: &[&str]| -> String {
        let mut v = Some(r);
        for key in path {
            v = v.and_then(|j| j.get(key));
        }
        v.map(Json::to_compact).unwrap_or_default()
    };
    for path in [&["workload"][..], &["trace"], &["environment", "nproc"]] {
        let (a, b) = (field(old, path), field(new, path));
        if a != b {
            return Err(format!(
                "reports differ in {}: {a} vs {b}; refusing to compare",
                path.join(".")
            ));
        }
    }
    let value = |r: &Json, name: &str| {
        r.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
    };
    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    for (name, lower, bound) in rules {
        let (Some(a), Some(b)) = (value(old, name), value(new, name)) else {
            continue;
        };
        let ratio = b / a;
        let worse = if *lower { ratio - 1.0 } else { 1.0 - ratio };
        let verdict = match bound {
            Some(bound) if worse > *bound => {
                regressions.push(name.clone());
                format!(
                    "WORSE by {:.1}% (bound {:.0}%)",
                    worse * 100.0,
                    bound * 100.0
                )
            }
            Some(bound) => format!("ok (bound {:.0}%)", bound * 100.0),
            None => String::new(),
        };
        lines.push(format!(
            "{name:<36} {a:>14.6} {b:>14.6} x{ratio:<8.4} {verdict}"
        ));
    }
    Ok(Comparison { lines, regressions })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(nproc: u64, setup: f64) -> Json {
        Json::parse(&format!(
            r#"{{"workload": "netting", "trace": false, "environment": {{"nproc": {nproc}}},
               "metrics": {{"setup_s": {{"value": {setup}, "unit": "s"}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn refuses_reports_with_different_core_counts() {
        let rules = vec![("setup_s".to_string(), true, Some(0.25))];
        let err = compare(&report(2, 1.0), &report(4, 1.0), &rules)
            .err()
            .unwrap();
        assert!(err.contains("environment.nproc"), "{err}");
    }

    #[test]
    fn flags_a_metric_worse_than_its_bound() {
        let rules = vec![("setup_s".to_string(), true, Some(0.25))];
        let ok = compare(&report(2, 1.0), &report(2, 1.2), &rules).unwrap();
        assert!(ok.regressions.is_empty());
        let bad = compare(&report(2, 1.0), &report(2, 1.3), &rules).unwrap();
        assert_eq!(bad.regressions, vec!["setup_s".to_string()]);
    }
}

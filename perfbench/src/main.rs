//! `perfbench` — run one workload, or compare two saved reports.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--report FILE]
//! perfbench compare OLD.json NEW.json [--benchmark BENCHMARK.json]
//! ```
//!
//! A run prints its full report (environment, inputs, sample counts, tail
//! percentiles) as one JSON line, then the result line last. It exits 2 on
//! a usage error; `compare` exits 1 when a metric got worse than its bound.

use chronolog_obs::Json;
use perfbench::{compare, run, Options, Scale};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--report FILE]\n       \
         perfbench compare OLD.json NEW.json [--benchmark BENCHMARK.json]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_main(&args[1..]);
    }
    let mut opts = Options {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        scale: Scale::Full,
        perturb: false,
    };
    let mut report_path = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("`{flag}` needs a value"));
        };
        let bad = |e: &dyn std::fmt::Display| usage(&format!("bad `{flag} {value}`: {e}"));
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => match value.parse() {
                Ok(v) => opts.seed = v,
                Err(e) => return bad(&e),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v >= 0.0 => opts.seconds = v,
                Ok(_) => return bad(&"must not be negative"),
                Err(e) => return bad(&e),
            },
            "--trace" => match value.as_str() {
                "0" | "1" => opts.trace = value == "1",
                _ => return bad(&"expected 0 or 1"),
            },
            "--report" => report_path = Some(value.clone()),
            _ => return usage(&format!("unknown flag `{flag}`")),
        }
    }
    if opts.workload.is_empty() {
        return usage("`--workload` is required");
    }
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    let report = outcome.report.to_compact();
    if let Some(path) = report_path {
        if let Err(e) = std::fs::write(&path, &report) {
            eprintln!("perfbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{report}");
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}

fn compare_main(args: &[String]) -> ExitCode {
    let (paths, bench) = match args {
        [a, b] => ([a, b], "BENCHMARK.json"),
        [a, b, flag, bench] if flag == "--benchmark" => ([a, b], bench.as_str()),
        _ => return usage("compare needs OLD and NEW report files"),
    };
    let read = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let result = (|| {
        let rules = compare::rules(&read(bench)?)?;
        compare::compare(&read(paths[0])?, &read(paths[1])?, &rules)
    })();
    match result {
        Ok(c) => {
            for line in &c.lines {
                println!("{line}");
            }
            if c.regressions.is_empty() {
                ExitCode::SUCCESS
            } else {
                println!("worse than bound: {}", c.regressions.join(", "));
                ExitCode::FAILURE
            }
        }
        Err(e) => usage(&e),
    }
}

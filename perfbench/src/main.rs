//! End-to-end benchmark of the dataspace: search, freshness and ingest,
//! with a per-layer traced run. See `perfbench/README.md`.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload lookup --seed 1 --seconds 24 --trace 0
//! ```
//!
//! Prints progress, one `meta` JSON line (git rev, nproc, sf, seed, sync
//! policy, sample counts, the ungated sync p99, failed ratio), and as the
//! last line one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Exits non-zero when any operation failed or
//! returned a wrong result.

mod gen;
mod run;
mod stats;
mod trace;

use std::path::{Path, PathBuf};

use run::{Config, Metric, Workload};

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <lookup|navigate|churn|ingest> --seed <n> --seconds <n> --trace <0|1> [--sf <f>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut sf = None;
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .map(String::as_str)
            .unwrap_or_else(|| usage());
        match argv[i].as_str() {
            "--workload" => workload = Some(Workload::parse(value).unwrap_or_else(|| usage())),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage())),
            "--seconds" => seconds = Some(value.parse::<u64>().unwrap_or_else(|_| usage())),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--sf" => sf = Some(value.parse::<f64>().unwrap_or_else(|_| usage())),
            _ => usage(),
        }
        i += 2;
    }
    let workload = workload.unwrap_or_else(|| usage());
    let sf = sf.unwrap_or_else(|| workload.default_sf());
    if !(sf > 0.0 && sf <= 4.0) {
        usage();
    }
    Config {
        workload,
        seed: seed.unwrap_or_else(|| usage()),
        seconds: seconds.unwrap_or_else(|| usage()),
        trace: trace.unwrap_or_else(|| usage()),
        sf,
        out_dir: PathBuf::from("perfbench-out"),
    }
}

/// The commit of the checkout, read from `.git` when there is one.
fn git_rev() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let cfg = parse_args();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload {} seed {} sf {} for {} s, trace {}, sync policy {:?}, nproc {nproc}",
        cfg.workload.name(),
        cfg.seed,
        cfg.sf,
        cfg.seconds,
        cfg.trace,
        run::SYNC_POLICY
    );
    let outcome = run::run(&cfg);

    let all = outcome.end_to_end.iter().chain(&outcome.ungated);
    for (name, value, unit) in all.chain(&outcome.per_layer) {
        println!("  {name:<32} {value:>14.4} {unit}");
    }
    for failure in &outcome.failures {
        println!("  FAILED: {failure}");
    }
    let samples: Vec<String> = outcome
        .samples
        .iter()
        .map(|(name, n)| format!("{}: {n}", json_string(name)))
        .collect();
    let (mut attempted, mut failed) = (outcome.attempted, outcome.failed);
    let mut meta = format!(
        "{{\"workload\": {}, \"seed\": {}, \"sf\": {}, \"views\": {}, \"git_rev\": {}, \"nproc\": {nproc}, \"sync_policy\": {}, \"run_seconds\": {}, \"trace\": {}, \"setup_reps\": {}, \"samples\": {{{}}}, \"ungated\": {}",
        json_string(cfg.workload.name()),
        cfg.seed,
        cfg.sf,
        outcome.views,
        json_string(&git_rev()),
        json_string(&format!("{:?}", run::SYNC_POLICY)),
        cfg.seconds,
        u8::from(cfg.trace),
        run::SETUP_REPS,
        samples.join(", "),
        metrics_json(&outcome.ungated),
    );
    if cfg.trace {
        attempted += 1;
        let path = cfg.out_dir.join(format!(
            "trace-{}-seed{}.json",
            cfg.workload.name(),
            cfg.seed
        ));
        if let Err(e) = outcome.tracer.write(&path, &format!("{meta}}}")) {
            println!("  FAILED: writing {}: {e}", path.display());
            failed += 1;
        }
    }
    let failed_ratio = failed as f64 / attempted.max(1) as f64;
    meta.push_str(&format!(
        ", \"failed_ratio\": {}}}",
        json_number(failed_ratio)
    ));
    println!("{{\"meta\": {meta}}}");
    let metrics = if cfg.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        attempted.max(1),
        metrics_json(metrics)
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

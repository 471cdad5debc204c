//! Runs one workload in this process and prints its result line.
//!
//! ```text
//! hurricane-benchmark --workload NAME [--seed N] [--seconds S | --jobs N]
//!                     [--trace 0|1] [--smoke] [--out-dir DIR]
//! hurricane-benchmark --reduce SPANS.jsonl
//! ```
//!
//! Progress and the human-readable tables go to standard error; the last
//! line of standard output is the result object.

use hurricane_benchmark::harness::{self, RunLength, WARMUP_JOBS};
use hurricane_benchmark::report::result_line;
use hurricane_benchmark::trace;
use hurricane_benchmark::workloads::{self, Scale, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: hurricane-benchmark --workload NAME [--seed N] [--seconds S | --jobs N] \
[--trace 0|1] [--smoke] [--out-dir DIR]\n       hurricane-benchmark --reduce SPANS.jsonl";

struct Args {
    workload: String,
    seed: u64,
    length: Option<RunLength>,
    trace: bool,
    scale: Scale,
    out_dir: PathBuf,
    reduce: Option<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        length: None,
        trace: false,
        scale: Scale::Full,
        out_dir: PathBuf::from("benchmark/out"),
        reduce: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad value {v:?} for {flag}"))
        }
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = num(&flag, value()?)?,
            "--seconds" => args.length = Some(RunLength::Seconds(num(&flag, value()?)?)),
            "--jobs" => args.length = Some(RunLength::Jobs(num(&flag, value()?)?)),
            "--trace" => args.trace = num::<u8>(&flag, value()?)? != 0,
            "--smoke" => args.scale = Scale::Smoke,
            "--out-dir" => args.out_dir = value()?.into(),
            "--reduce" => args.reduce = Some(value()?.into()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// `--reduce`: the span table and the span-derived metrics of a span
/// file, exactly as the traced run that wrote it reported them.
fn reduce(path: &std::path::Path) -> Result<(), String> {
    let spans = trace::read_jsonl(path).map_err(|e| format!("{}: {e}", path.display()))?;
    print_span_table(&spans);
    for (name, value) in harness::span_metrics(&spans) {
        println!("{name:<40} {value:>16.6}");
    }
    Ok(())
}

fn print_span_table(spans: &[trace::Span]) {
    println!(
        "{:<20} {:>6} {:>14} {:>14}",
        "span", "count", "median_s", "median_self_s"
    );
    for (name, row) in trace::reduce(spans) {
        println!(
            "{name:<20} {:>6} {:>14.6} {:>14.6}",
            row.count, row.median_s, row.median_self_s
        );
    }
}

fn run(args: &Args) -> Result<(), String> {
    let Some(&(name, default_jobs)) = WORKLOADS.iter().find(|(n, _)| *n == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "unknown workload {:?}; one of {names:?}\n{USAGE}",
            args.workload
        ));
    };
    let (warmup, fixed_jobs) = match args.scale {
        Scale::Full => (WARMUP_JOBS, default_jobs),
        Scale::Smoke => (1, 3),
    };
    let length = args.length.unwrap_or(RunLength::Jobs(fixed_jobs));
    let scratch = args.out_dir.join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;

    eprintln!(
        "workload {name}  seed {}  {length:?}  warm-up {warmup}  trace {}  nproc {}",
        args.seed,
        args.trace,
        hurricane_benchmark::sys::nproc()
    );
    if name == "clicklog_skew_rpc_durable" {
        eprintln!(
            "flush policy: the engine's own — journal appends go through the page cache; \
             the in-process engine never fsyncs (only hurricane-node does, at shutdown)"
        );
    }
    let build =
        || workloads::build(name, args.seed, args.scale, &scratch).expect("name was checked");
    let mut setup = harness::Rebuilt::new(&build);
    let facts = setup.workload().facts();
    eprintln!(
        "set up in {:.3} s: {} records, input checksum {}",
        setup.times[0].0, facts.records, facts.input_checksum
    );

    let outcome = if args.trace {
        let spans_path = args
            .out_dir
            .join(format!("spans-{name}-seed{}.jsonl", args.seed));
        let outcome = harness::run_traced(setup.workload(), warmup, length, &spans_path)?;
        eprintln!("spans written to {}", spans_path.display());
        outcome
    } else {
        harness::run_end_to_end(&mut setup, warmup, length)?
    };
    drop(setup);
    std::fs::remove_dir_all(&scratch).map_err(|e| format!("remove {}: {e}", scratch.display()))?;

    for (metric, value, unit) in outcome.metrics.rows() {
        eprintln!("{metric:<40} {value:>16.6} {unit}");
    }
    eprintln!(
        "jobs attempted {}  failed {}",
        outcome.attempted, outcome.failed
    );
    println!(
        "{}",
        result_line(outcome.attempted, outcome.failed, &outcome.metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| match &args.reduce {
        Some(path) => reduce(path),
        None => run(&args),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hurricane-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

//! Runs every workload at smoke size through the built binary and holds
//! its output against `BENCHMARK.json`; checks that a wrong output is a
//! failed job.

use hurricane_benchmark::harness::{EngineEnv, Tally, Variant};
use hurricane_benchmark::report::{is_metric_name, result_line, Metrics, END_TO_END, PER_LAYER};
use hurricane_benchmark::trace::Tracer;
use hurricane_benchmark::workloads::bag_pump::BagPump;
use hurricane_benchmark::workloads::clicklog::ClickLog;
use hurricane_benchmark::workloads::hashjoin::HashJoin;
use hurricane_benchmark::workloads::pagerank::PageRank;
use hurricane_benchmark::workloads::{Scale, UNGATED, WORKLOADS};
use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_hurricane-benchmark");

fn out_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{test}"))
}

/// The quoted strings that follow `"key":` inside the array that follows
/// `"section":` — enough JSON reading for a file this package owns.
fn strings_of(json: &str, section: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section:?} in BENCHMARK.json"));
    let body = &json[start..];
    let body = &body[body.find('[').expect("section is an array")..];
    let body = &body[..body.find(']').expect("array closes")];
    let needle = format!("\"{key}\"");
    body.match_indices(&needle)
        .map(|(at, _)| {
            let rest = &body[at + needle.len()..];
            let open = rest.find('"').expect("string value") + 1;
            let len = rest[open..].find('"').expect("string closes");
            rest[open..open + len].to_owned()
        })
        .collect()
}

fn benchmark_json() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn pairs(json: &str, section: &str) -> Vec<(String, String)> {
    let names = strings_of(json, section, "name");
    let units = strings_of(json, section, "unit");
    assert_eq!(names.len(), units.len(), "{section}: a unit per name");
    names.into_iter().zip(units).collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect()
}

#[test]
fn benchmark_json_and_the_code_list_the_same_names() {
    let json = benchmark_json();
    let code: Vec<&str> = WORKLOADS.iter().map(|&(name, _)| name).collect();
    let gated: Vec<&str> = code
        .iter()
        .copied()
        .filter(|name| !UNGATED.contains(name))
        .collect();
    assert_eq!(strings_of(&json, "workloads", "name"), gated);
    // The suite runs the ungated ones too, and keeps its own list.
    let suite = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/suite.py"))
        .expect("read suite.py");
    let listed = format!("UNGATED = {UNGATED:?}");
    assert!(suite.contains(&listed), "suite.py lacks `{listed}`");
    assert_eq!(pairs(&json, "end_to_end"), owned(END_TO_END));
    assert_eq!(pairs(&json, "per_layer"), owned(PER_LAYER));
    for name in code
        .iter()
        .copied()
        .chain(PER_LAYER.iter().map(|&(n, _)| n))
    {
        assert!(
            is_metric_name(name),
            "{name:?} has a character outside [A-Za-z0-9_.-]"
        );
    }
}

/// Runs one workload at smoke size; returns the result line.
fn smoke(workload: &str, trace: u8) -> String {
    let out = out_dir(&format!("{workload}-{trace}"));
    let run = Command::new(BIN)
        .args(["--workload", workload, "--smoke", "--seed", "7"])
        .args(["--trace", &trace.to_string()])
        .arg("--out-dir")
        .arg(&out)
        .output()
        .expect("spawn the benchmark binary");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        run.status.success(),
        "{workload} --trace {trace} failed:\n{stderr}"
    );
    let stdout = String::from_utf8(run.stdout).expect("utf-8 output");
    std::fs::remove_dir_all(&out).ok();
    stdout.lines().last().expect("a result line").to_owned()
}

#[test]
fn smoke_run_emits_every_metric_of_every_workload() {
    for &(workload, _) in WORKLOADS {
        for (trace, table) in [(0, END_TO_END), (1, PER_LAYER)] {
            let line = smoke(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{workload}: {line}"
            );
            assert!(
                line.contains("\"failed\": 0, \"metrics\": {"),
                "{workload}: {line}"
            );
            for &(name, unit) in table {
                let at = line
                    .find(&format!("\"{name}\": {{\"value\": "))
                    .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}"));
                let entry = &line[at..at + line[at..].find('}').expect("entry closes")];
                assert!(entry.ends_with(&format!("\"unit\": \"{unit}\"")), "{entry}");
            }
            assert_eq!(
                line.matches("\"unit\"").count(),
                table.len(),
                "{workload} --trace {trace} emits a metric BENCHMARK.json does not list"
            );
        }
        // End-to-end metrics are never 0.
        let line = smoke(workload, 0);
        assert!(!line.contains("\"value\": 0,"), "{workload}: {line}");
    }
}

#[test]
fn unknown_workload_prints_no_result() {
    let run = Command::new(BIN)
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("spawn the benchmark binary");
    assert!(!run.status.success());
    assert!(run.stdout.is_empty());
}

/// A job whose output was tampered with between the engine and the check
/// must count as failed and contribute no time.
#[test]
fn corrupted_output_is_a_failed_job() {
    let mut tr = Tracer::new(false);
    let mut tally = Tally::default();

    let clicklog = ClickLog::setup(7, 1.0, Scale::Smoke, EngineEnv::in_memory());
    let (mut counts, sample) = clicklog.execute(Variant::Normal, &mut tr).unwrap();
    clicklog
        .check(Variant::Normal, &counts)
        .expect("untouched output passes");
    counts[0] += 1;
    tally.record(
        clicklog.check(Variant::Normal, &counts).map(|()| sample),
        true,
    );

    let join = HashJoin::setup(7, Scale::Smoke, EngineEnv::in_memory());
    let (mut partitions, sample) = join.execute(Variant::Normal, &mut tr).unwrap();
    join.check(Variant::Normal, &partitions)
        .expect("untouched output passes");
    // Same row count, one payload off: only the checksum can tell.
    let row = partitions
        .iter_mut()
        .find_map(|p| p.first_mut())
        .expect("a joined row");
    row.2 ^= 1;
    tally.record(
        join.check(Variant::Normal, &partitions).map(|()| sample),
        true,
    );

    let pagerank = PageRank::setup(7, Scale::Smoke, EngineEnv::in_memory());
    let (mut ranks, sample) = pagerank.execute(Variant::Normal, &mut tr).unwrap();
    pagerank
        .check(Variant::Normal, &ranks)
        .expect("untouched output passes");
    ranks[3] += 1e-6;
    tally.record(
        pagerank.check(Variant::Normal, &ranks).map(|()| sample),
        true,
    );

    let pump = BagPump::setup(7, Scale::Smoke);
    let (mut drained, sample) = pump.execute(&mut tr).unwrap();
    pump.check(&drained).expect("untouched output passes");
    drained.pop();
    tally.record(pump.check(&drained).map(|()| sample), true);

    assert_eq!((tally.attempted, tally.failed), (4, 4));
    assert!(
        tally.samples.is_empty(),
        "a failed job never counts as fast"
    );
    let line = result_line(tally.attempted, tally.failed, &Metrics::new(END_TO_END));
    assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 4,"));
}

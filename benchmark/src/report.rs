//! The metric names this benchmark emits, and the result line.
//!
//! `BENCHMARK.json` at the repo root lists the same names; the package's
//! tests fail when the two drift apart.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("makespan_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// `(name, unit)` of every per-layer metric, in output order. A layer is
/// a crate of the repo. Every workload emits every name; a metric that
/// does not apply to a workload (no journal in memory, no merge in the
/// join, no engine in the TCP pump) reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_s", "s"),
    ("workloads.records", "count"),
    ("workloads.input_mb", "MB"),
    ("workloads.largest_partition_share", "ratio"),
    ("workloads.input_checksum", "count"),
    ("format.encode_ns_per_record", "ns"),
    ("format.decode_ns_per_record", "ns"),
    ("format.bytes_per_record", "B"),
    ("format.chunks", "count"),
    ("storage.insert_us_per_chunk", "us"),
    ("storage.remove_us_per_chunk", "us"),
    ("storage.insert_batch_p50_us", "us"),
    ("storage.insert_batch_p99_us", "us"),
    ("storage.remove_batch_p50_us", "us"),
    ("storage.remove_batch_p99_us", "us"),
    ("storage.inserts", "count"),
    ("storage.removes", "count"),
    ("storage.batch_ops", "count"),
    ("storage.bytes_in_mb", "MB"),
    ("storage.bytes_out_mb", "MB"),
    ("storage.empty_probes", "count"),
    ("storage.empty_probe_ratio", "ratio"),
    ("storage.chunks_per_batch_op", "ratio"),
    ("storage.insert_envelopes", "count"),
    ("storage.staged_chunks", "count"),
    ("storage.flushes", "count"),
    ("storage.chunks_per_envelope", "ratio"),
    ("storage.journal_mb", "MB"),
    ("storage.journal_amplification", "ratio"),
    ("storage.resident_mb", "MB"),
    ("core.deploy_s", "s"),
    ("core.fill_s", "s"),
    ("core.run_s", "s"),
    ("core.read_s", "s"),
    ("core.unattributed_share", "ratio"),
    ("core.makespan_tail_s", "s"),
    ("core.makespan_tail_pct", "%"),
    ("core.jobs", "count"),
    ("core.clones", "count"),
    ("core.clone_requests", "count"),
    ("core.clone_rejections", "count"),
    ("core.clone_accept_ratio", "ratio"),
    ("core.merges_run", "count"),
    ("core.restarts", "count"),
    ("core.nc_run_s", "s"),
    ("core.clone_gain_x", "ratio"),
    ("core.empty_job_s", "s"),
    ("core.empty_job_share", "ratio"),
    ("core.merge_s", "s"),
    ("core.merge_records", "count"),
    ("apps.reference_s", "s"),
    ("apps.speedup_vs_reference", "ratio"),
    ("baseline.static_makespan_s", "s"),
    ("baseline.reduce_imbalance", "ratio"),
    ("baseline.speedup_vs_static", "ratio"),
    ("trace_overhead_share", "ratio"),
];

/// Whether `name` is made of the characters a metric, workload or span
/// name may use.
pub fn is_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Metric values keyed by name. Every name of the table it was built
/// from is present from the start (at 0), and no other can be set.
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// All of `table`'s metrics, at 0.
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            table,
            values: table.iter().map(|&(name, _)| (name, 0.0)).collect(),
        }
    }

    /// Sets one metric. Panics on a name the table does not list, so a
    /// typo cannot silently drop a number.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the table"));
        // JSON has no NaN or infinity; a ratio over nothing reads 0.
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    /// The current value of `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.values[name]
    }

    /// `(name, value, unit)` in table order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.table
            .iter()
            .map(|&(name, unit)| (name, self.values[name], unit))
    }
}

/// The result object the benchmark contract asks for, as one line.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .rows()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(is_metric_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        assert!(!is_metric_name("has space"));
        assert!(!is_metric_name(""));
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut m = Metrics::new(END_TO_END);
        m.set("makespan_s", 0.25);
        m.set("cpu_s", f64::NAN);
        let line = result_line(12, 1, &m);
        assert!(line
            .starts_with("{\"correct\": false, \"attempted\": 12, \"failed\": 1, \"metrics\": {"));
        assert!(line.contains("\"makespan_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"cpu_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn unknown_metric_name_is_a_bug() {
        Metrics::new(END_TO_END).set("makespan", 1.0);
    }
}

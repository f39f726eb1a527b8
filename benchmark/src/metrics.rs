//! The metric names, units, directions and bounds. `/BENCHMARK.json`
//! declares the same to the driver; a unit test holds the two together.

/// Seconds the measured phases of one run add up to on the host the fixed
/// operation counts were calibrated on (`Workload::measured_ops`):
/// `run_seconds` in `/BENCHMARK.json`, and the only `--seconds` accepted.
pub const RUN_SECONDS: u32 = 20;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Only the test that holds `/BENCHMARK.json` to this table reads it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// What a user of the maps sees, per workload. `failed_ops` is not in this
/// list (it must read 0, and a gated metric may not): it is the `failed`
/// count of every result line, next to `attempted`.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_s", "ops/s", "higher", 0.25),
    e2e("read_p50_ns", "ns", "lower", 0.25),
    e2e("read_p90_ns", "ns", "lower", 0.25),
    e2e("insert_p50_ns", "ns", "lower", 0.25),
    e2e("insert_p90_ns", "ns", "lower", 0.25),
    e2e("remove_p50_ns", "ns", "lower", 0.25),
    e2e("mem_bytes_per_key", "B/key", "lower", 0.10),
];

/// `(name, unit, better)` of every per-layer metric, layer by layer (the
/// prefix is the `skipgraph` module, `numa` the crate, `harness` this
/// package). All come from the traced run; none is gated.
pub const PER_LAYER: [(&str, &str, &str); 47] = [
    ("local.hash_get_ns", "ns", "lower"),
    ("local.pred_ns", "ns", "lower"),
    ("graph.nodes_per_search", "count", "lower"),
    ("graph.cas_fail_share", "share", "lower"),
    ("graph.self_ns", "ns", "lower"),
    ("layered.get_ns", "ns", "lower"),
    ("layered.insert_ns", "ns", "lower"),
    ("layered.remove_ns", "ns", "lower"),
    ("index.hit_share", "share", "higher"),
    ("index.stale_share", "share", "lower"),
    ("index.read_saved_ns", "ns", "higher"),
    ("index.write_cost_ns", "ns", "lower"),
    ("index.bytes_per_key", "B/key", "lower"),
    ("batch.op_ns", "ns", "lower"),
    ("batch.mean_batch", "count", "higher"),
    ("batch.hinted_nodes_per_search", "count", "lower"),
    ("block.get_ns", "ns", "lower"),
    ("block.scan_ns_per_key", "ns", "lower"),
    ("block.entries_per_anchor", "count", "higher"),
    ("block.anchor_hit_share", "share", "higher"),
    ("block.insert_p99_ns", "ns", "lower"),
    ("reclaim.flush_ns", "ns", "lower"),
    ("reclaim.retired", "count", "lower"),
    ("reclaim.recycled_share", "share", "higher"),
    ("reclaim.limbo_peak", "count", "lower"),
    ("replicate.append_lag_mean", "count", "lower"),
    ("replicate.replay_batch_mean", "count", "higher"),
    ("replicate.write_amp", "ratio", "lower"),
    ("replicate.collapsed_share", "share", "higher"),
    ("replicate.sync_ns", "ns", "lower"),
    ("adapt.op_ns", "ns", "lower"),
    ("adapt.mode_switches", "count", "lower"),
    ("adapt.index_probe_grows", "count", "lower"),
    ("numa.remote_read_share", "share", "lower"),
    ("numa.remote_cas_share", "share", "lower"),
    ("numa.lines_per_op", "count", "lower"),
    ("numa.modeled_cost_per_op", "count", "lower"),
    ("numa.resident_bytes", "B", "lower"),
    ("harness.timer_ns", "ns", "lower"),
    ("harness.gen_s", "s", "lower"),
    ("harness.trace_overhead_pct", "%", "lower"),
    ("harness.rep_spread_pct", "%", "lower"),
    ("harness.calib_drift_pct", "%", "lower"),
    ("harness.read_p99_ns", "ns", "lower"),
    ("harness.read_p999_ns", "ns", "lower"),
    ("harness.insert_p99_ns", "ns", "lower"),
    ("harness.pinned", "count", "higher"),
];

/// The unit of a metric of either table.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {name} is in neither table"))
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and the named metrics, values printed with all their digits. A value
/// that is not a number prints as `null`; the run has counted it as a
/// failed check (`workload::usable`).
pub fn result_json(attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".into()
            };
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

/// Reads a result line back: `attempted`, `failed` and the value of each
/// of `names`; `None` when the line lacks one of them or holds a `null`.
pub fn parse_result(line: &str, names: &[&str]) -> Option<(u64, u64, Vec<f64>)> {
    let number_after = |key: &str| {
        let rest = &line[line.find(key)? + key.len()..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let values = names
        .iter()
        .map(|name| {
            number_after(&format!("\"{name}\": {{\"value\": "))?
                .parse()
                .ok()
        })
        .collect::<Option<Vec<f64>>>()?;
    Some((
        number_after("\"attempted\": ")?.parse().ok()?,
        number_after("\"failed\": ")?.parse().ok()?,
        values,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let count = names.len();
        for name in &names {
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    /// `/BENCHMARK.json` declares exactly the metrics and workloads of the
    /// tables in this package, and the run length.
    #[test]
    fn benchmark_json_declares_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let mut entries = Vec::new();
        for m in &END_TO_END {
            entries.push(format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            ));
        }
        for (name, unit, better) in &PER_LAYER {
            entries.push(format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}"
            ));
        }
        for w in &WORKLOADS {
            entries.push(format!("{{\"name\": \"{}\", \"why\": \"", w.name));
        }
        entries.push(format!("\"run_seconds\": {RUN_SECONDS},"));
        for entry in &entries {
            assert!(json.contains(entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len(),
            "BENCHMARK.json names something these tables do not"
        );
    }

    #[test]
    fn result_line_shape() {
        let line = result_json(10, 0, &[("ops_s", 1234.5), ("setup_s", f64::NAN)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"ops_s\": {\"value\": 1234.5, \"unit\": \"ops/s\"}, \
             \"setup_s\": {\"value\": null, \"unit\": \"s\"}}}"
        );
        assert!(result_json(10, 1, &[]).starts_with("{\"correct\": false"));
        // And back again; a `null` is no result.
        assert_eq!(parse_result(&line, &["ops_s"]), Some((10, 0, vec![1234.5])));
        assert_eq!(parse_result(&line, &["ops_s", "setup_s"]), None);
        assert_eq!(parse_result("cargo: error", &["ops_s"]), None);
    }
}

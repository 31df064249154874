//! Metric definitions and output. `END_TO_END` and `PER_LAYER` are the
//! single source of the metric names and units; `BENCHMARK.json` repeats
//! them (`report.py check` compares the two). Every run prints each metric
//! of its mode as `name unit value`, then one JSON object as the last line
//! of standard output.

use std::fmt::Write as _;

use crate::check::Tally;

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: "lower" }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: "higher" }
}

/// What a user of the system sees. Every workload reports every one (the
/// driver's contract), so each is defined on all four; see README.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("qps_1c", "req/s"),
    lower("p50_ms", "ms"),
    lower("p99_ms", "ms"),
    higher("qps_loaded", "req/s"),
    lower("p99_loaded_ms", "ms"),
    lower("sim_io_ms_per_query", "sim_ms"),
    lower("store_bytes_per_text_byte", "ratio"),
    lower("write_bytes_per_text_byte", "ratio"),
    lower("peak_rss_mb", "MB"),
];

/// One layer each (layer = crate.module). A metric that does not apply to
/// a workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    lower("collections.generate_s", "s"),
    lower("inquery.index.build_s", "s"),
    higher("inquery.index.docs_per_s", "doc/s"),
    lower("core.store.build_s", "s"),
    lower("core.service.start_s", "s"),
    lower("inquery.parser.us", "us"),
    lower("inquery.dict.ns_per_lookup", "ns"),
    lower("core.store.fetch_us", "us"),
    lower("core.store.fetch_share", "ratio"),
    lower("core.store.fetches_per_request", "count"),
    lower("core.store.range_fetches_per_request", "count"),
    lower("core.store.kb_per_request", "KB"),
    lower("inquery.daat.rank_us", "us"),
    lower("inquery.daat.self_us", "us"),
    lower("inquery.daat.self_share", "ratio"),
    lower("inquery.postings.decode_ns_per_posting", "ns"),
    lower("inquery.postings.postings_per_request", "count"),
    lower("inquery.daat.merge_us", "us"),
    lower("core.engine.names_us", "us"),
    higher("mneme.buffer_hit_rate.small", "ratio"),
    higher("mneme.buffer_hit_rate.medium", "ratio"),
    higher("mneme.buffer_hit_rate.large", "ratio"),
    lower("mneme.buffer_evictions_per_request", "count"),
    lower("storage.accesses_per_lookup", "ratio"),
    lower("storage.io_inputs_per_request", "count"),
    lower("storage.kb_read_per_request", "KB"),
    higher("storage.os_cache_hit_rate", "ratio"),
    lower("storage.read_8k_us", "us"),
    higher("storage.read_scaling_2t", "ratio"),
    lower("core.shard.execute_p50_us", "us"),
    higher("core.service.qps_1c", "req/s"),
    lower("core.service.p50_1c_us", "us"),
    lower("core.service.p99_1c_us", "us"),
    higher("core.service.qps_2c", "req/s"),
    lower("core.service.p99_2c_us", "us"),
    lower("core.service.overhead_us", "us"),
    higher("core.service.scaling_2c", "ratio"),
    lower("core.service.queue_wait_p50_us", "us"),
    lower("core.service.queue_wait_p99_us", "us"),
    lower("core.service.eval_mean_us", "us"),
    lower("core.service.merge_mean_us", "us"),
    lower("core.service.rejected", "count"),
    lower("core.service.expired", "count"),
    lower("core.service.degraded", "count"),
    lower("core.service.shard_retries", "count"),
    lower("core.service.worker_panics", "count"),
    higher("core.result_cache.hit_rate", "ratio"),
    higher("inquery.block_cache.hit_rate", "ratio"),
    lower("telemetry.on_overhead_share", "ratio"),
    lower("core.engine.add_us", "us"),
    lower("core.engine.remove_us", "us"),
    lower("core.engine.terms_per_update", "count"),
    lower("core.engine.update_p50_ms", "ms"),
    lower("core.engine.update_p90_ms", "ms"),
    higher("core.engine.updates_per_s", "op/s"),
    lower("storage.write_amp_updates", "ratio"),
    lower("storage.kb_written_per_update", "KB"),
    lower("storage.file_writes_per_update", "count"),
    lower("storage.io_outputs_per_update", "count"),
    lower("storage.kb_read_per_update", "KB"),
    lower("mneme.file_growth_kb_per_update", "KB"),
    lower("inquery.postings.recode_us_per_update", "us"),
    lower("inquery.eval.taat_us", "us"),
    lower("inquery.eval.structured_us", "us"),
    lower("bench.trace_overhead_share", "ratio"),
];

/// The metrics of one run, filled in as the run proceeds.
pub struct Report {
    defs: &'static [MetricDef],
    values: Vec<Option<(f64, String)>>,
}

impl Report {
    pub fn new(defs: &'static [MetricDef]) -> Report {
        Report { defs, values: vec![None; defs.len()] }
    }

    fn slot(&mut self, name: &str) -> &mut Option<(f64, String)> {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not defined for this mode"));
        &mut self.values[i]
    }

    /// Sets a metric, with a note printed beside it (a ratio's base, a
    /// sample count).
    pub fn set_with(&mut self, name: &str, value: f64, note: impl Into<String>) {
        assert!(value.is_finite(), "metric {name} is not finite");
        let slot = self.slot(name);
        assert!(slot.is_none(), "metric {name} set twice");
        *slot = Some((value, note.into()));
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.set_with(name, value, "");
    }

    /// `num / den` with the base printed; 0 over an empty base.
    pub fn set_ratio(&mut self, name: &str, num: f64, den: f64) {
        self.set_with(name, crate::stats::ratio(num, den), format!("= {num} / {den}"));
    }

    /// Every metric not set by now does not apply to this workload.
    pub fn rest_not_applicable(&mut self) {
        for v in &mut self.values {
            v.get_or_insert((0.0, "n/a on this workload".into()));
        }
    }

    /// Prints every metric as `name unit value`, then the result object.
    /// Returns the JSON line.
    pub fn finish(self, tally: &Tally, correct: bool) -> String {
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            correct,
            tally.attempted.max(1),
            tally.failed
        );
        for (i, (def, value)) in self.defs.iter().zip(&self.values).enumerate() {
            let (v, note) =
                value.as_ref().unwrap_or_else(|| panic!("metric {} was never measured", def.name));
            println!(
                "{} {} {}{}{}",
                def.name,
                def.unit,
                v,
                if note.is_empty() { "" } else { "   # " },
                note
            );
            let sep = if i == 0 { "" } else { ", " };
            write!(json, "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", def.name, def.unit)
                .expect("write to a String");
        }
        json.push_str("}}");
        println!("{json}");
        json
    }
}

/// `--list-metrics`: the definitions, one per line, for `report.py check`.
pub fn list_metrics() {
    for (kind, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        for d in defs {
            println!("{kind} {} {} {}", d.name, d.unit, d.better);
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("VmHWM in /proc/self/status")
}

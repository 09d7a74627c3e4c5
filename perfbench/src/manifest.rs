//! The metrics `BENCHMARK.json` names, and the result line built from
//! them.
//!
//! The result line holds exactly the manifest's metrics of its mode, in
//! the manifest's order. A workload reports the per-layer metrics of the
//! layers it reaches; a per-layer metric of a layer it never enters (the
//! serve queue on a single multiply, the fetch cache under broadcast
//! exchange, a broadcast on one rank) reads 0 there.

use crate::report::{Kind, Metric};

/// End-to-end metrics: every workload reports each, with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_latency_p50_s", "s"),
    ("rss_peak_mb", "MiB"),
];

/// Per-layer metrics of the traced runs.
pub const PER_LAYER: [(&str, &str); 76] = [
    ("trace.overhead_s", "s"),
    ("core.harness.self_s", "s"),
    ("simgrid.run_ranks.self_s", "s"),
    ("core.dist.scatter_s", "s"),
    ("core.dist.gather_s", "s"),
    ("sparse.local_multiply_s", "s"),
    ("sparse.merge_layer_s", "s"),
    ("sparse.merge_fiber_s", "s"),
    ("sparse.symbolic_s", "s"),
    ("core.outside_kernels_s", "s"),
    ("sparse.multiply_ns_per_flop", "ns"),
    ("sparse.multiply_1t_ns_per_flop", "ns"),
    ("sparse.par_speedup", "ratio"),
    ("sparse.thread_imbalance", "ratio"),
    ("sparse.allocs", "count"),
    ("sparse.memcpy_bytes", "B"),
    ("sparse.peak_scratch_bytes", "B"),
    ("sparse.flops", "count"),
    ("core.batched.batch_ms_p50", "ms"),
    ("core.batched.batch_ms_max", "ms"),
    ("core.batched.first_batch_ms", "ms"),
    ("simgrid.rendezvous_us", "us"),
    ("simgrid.modeled.Symbolic-Comm_s", "s"),
    ("simgrid.modeled.Symbolic-Comp_s", "s"),
    ("simgrid.modeled.A-Bcast_s", "s"),
    ("simgrid.modeled.B-Bcast_s", "s"),
    ("simgrid.modeled.Local-Multiply_s", "s"),
    ("simgrid.modeled.Merge-Layer_s", "s"),
    ("simgrid.modeled.AllToAll-Fiber_s", "s"),
    ("simgrid.modeled.Merge-Fiber_s", "s"),
    ("simgrid.modeled.Other_s", "s"),
    ("simgrid.modeled.Wait_s", "s"),
    ("simgrid.bytes.Symbolic-Comm", "B"),
    ("simgrid.msgs.Symbolic-Comm", "count"),
    ("simgrid.bytes.A-Bcast", "B"),
    ("simgrid.msgs.A-Bcast", "count"),
    ("simgrid.bytes.B-Bcast", "B"),
    ("simgrid.msgs.B-Bcast", "count"),
    ("simgrid.bytes.AllToAll-Fiber", "B"),
    ("simgrid.msgs.AllToAll-Fiber", "count"),
    ("modeled_s", "s"),
    ("comm_bytes", "B"),
    ("core.memory.peak_bytes_max", "B"),
    ("core.symbolic.batches", "count"),
    ("simgrid.modeled.Fetch-Request_s", "s"),
    ("simgrid.modeled.Fetch-Reply_s", "s"),
    ("simgrid.bytes.Fetch-Request", "B"),
    ("simgrid.msgs.Fetch-Request", "count"),
    ("simgrid.bytes.Fetch-Reply", "B"),
    ("simgrid.msgs.Fetch-Reply", "count"),
    ("apps.mcl.first_iter_modeled_s", "s"),
    ("apps.mcl.warm_iter_modeled_s", "s"),
    ("apps.mcl.prune_modeled_s", "s"),
    ("core.exchange.fetch_hits", "count"),
    ("core.exchange.fetch_misses", "count"),
    ("core.exchange.fetch_hit_base", "count"),
    ("core.exchange.fetch_hit_rate", "ratio"),
    ("core.exchange.invalidated_cols", "count"),
    ("apps.mcl.iterations", "count"),
    ("apps.mcl.final_nnz", "count"),
    ("core.serve.queue_s_p50", "s"),
    ("core.serve.queue_s_p99", "s"),
    ("core.serve.run_s_p50", "s"),
    ("core.serve.run_s_p99", "s"),
    ("core.serve.latency_s_p99", "s"),
    ("core.serve.job.self_s", "s"),
    ("core.planner.plan_ms", "ms"),
    ("simgrid.world_spawn_ms_p4", "ms"),
    ("simgrid.world_spawn_ms_p16", "ms"),
    ("core.serve.plan_hit_rate", "ratio"),
    ("core.serve.plan_hit_base", "count"),
    ("core.serve.probe_hit_rate", "ratio"),
    ("core.serve.probe_hit_base", "count"),
    ("core.serve.shrunk_admissions", "count"),
    ("core.serve.peak_queue_depth", "count"),
    ("core.serve.peak_reserved_frac", "ratio"),
];

/// The result line's metrics: one per entry of `table`, taken from
/// `reported` or 0 when the workload did not report it. A reported metric
/// that `table` lacks, or whose unit differs, is an error: the manifest
/// and the benchmark have drifted apart.
pub fn result_metrics(
    table: &[(&str, &'static str)],
    reported: &[Metric],
) -> Result<Vec<Metric>, String> {
    for m in reported {
        match table.iter().find(|(name, _)| *name == m.name) {
            None => return Err(format!("metric {} is not in BENCHMARK.json", m.name)),
            Some((_, unit)) if *unit != m.unit => {
                return Err(format!(
                    "metric {} is in {}, BENCHMARK.json says {unit}",
                    m.name, m.unit
                ))
            }
            Some(_) => {}
        }
    }
    Ok(table
        .iter()
        .map(|&(name, unit)| {
            reported
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or(Metric {
                    name: name.to_string(),
                    unit,
                    kind: Kind::Count,
                    value: 0.0,
                })
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric in one list of the manifest, read
    /// with plain string search (the crate has no JSON parser).
    fn manifest_list(key: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text.find(&format!("\"{key}\"")).expect("list in manifest");
        let end = start + text[start..].find(']').expect("list closes");
        let field = |obj: &str, k: &str| -> String {
            let at = obj.find(&format!("\"{k}\"")).expect("field") + k.len() + 2;
            let rest = &obj[at..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = open + rest[open..].find('"').expect("value closes");
            rest[open..close].to_string()
        };
        text[start..end]
            .split('}')
            .filter(|obj| obj.contains("\"name\""))
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn tables_match_the_manifest() {
        assert_eq!(owned(&END_TO_END), manifest_list("end_to_end"));
        assert_eq!(owned(&PER_LAYER), manifest_list("per_layer"));
    }

    #[test]
    fn result_fills_absent_layers_and_rejects_strays() {
        let table = [("a_s", "s"), ("b", "count")];
        let got = |name: &str, unit| Metric {
            name: name.into(),
            unit,
            kind: Kind::Measured,
            value: 1.5,
        };
        let line = result_metrics(&table, &[got("a_s", "s")]).unwrap();
        let values: Vec<(&str, f64)> = line.iter().map(|m| (m.name.as_str(), m.value)).collect();
        assert_eq!(values, [("a_s", 1.5), ("b", 0.0)]);
        assert!(result_metrics(&table, &[got("c", "s")]).is_err());
        assert!(result_metrics(&table, &[got("a_s", "ms")]).is_err());
    }
}

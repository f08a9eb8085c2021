//! What the benchmark measures, and the check that `BENCHMARK.json`
//! declares exactly that.
//!
//! The program is the source of truth for its workload and metric
//! names; `BENCHMARK.json` must list every one of them (and nothing
//! else) with the same unit, so a renamed or dropped metric fails the
//! run instead of silently vanishing from the comparison.

use memcim_bench::json::{self, JsonValue};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["bitmap_wire", "ap_stream_wire", "corr_stream_wire"];

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("work_per_s", "1/s"),
    ("req_p50_us", "us"),
    ("req_p90_us", "us"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_energy_nj_per_work", "nJ"),
    ("sim_time_ns_per_work", "sim_ns"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("crossbar.program_row.ns_p50", "ns"),
    ("crossbar.scouting.ns_p50", "ns"),
    ("crossbar.read_row.ns_p50", "ns"),
    ("crossbar.program_row.per_req", "count"),
    ("crossbar.scouting.per_req", "count"),
    ("crossbar.read_row.per_req", "count"),
    ("crossbar.self_us_per_req", "us"),
    ("mvp.run_program_us_p50", "us"),
    ("mvp.self_us_p50", "us"),
    ("mvp.instructions_per_req", "count"),
    ("mvp.corr_plan_us_p50", "us"),
    ("verify.program_us_p50", "us"),
    ("verify.calls_per_req", "count"),
    ("serve.call_us_p50", "us"),
    ("serve.self_us_p50", "us"),
    ("serve.burst_jobs_mean", "count"),
    ("serve.verify_cache_hit_ratio", "ratio"),
    ("serve.ap_cache_hit_ratio", "ratio"),
    ("serve.routing_fallbacks", "count"),
    ("placement.scatter_us_p50", "us"),
    ("placement.subqueries_per_req", "count"),
    ("net.call_us_p50", "us"),
    ("net.self_us_p50", "us"),
    ("net.refused", "count"),
    ("automata.compile_us_p50", "us"),
    ("automata.states_per_set", "count"),
    ("ap.compile_us_p50", "us"),
    ("ap.feed_many_ns_per_symbol", "ns"),
    ("ap.feed_sliced_ns_per_symbol", "ns"),
    ("ap.finish_us_p50", "us"),
    ("trace.req_p50_us", "us"),
    ("trace.untraced_req_p50_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("trace.path_self_sum_us", "us"),
    ("trace.path_gap_us", "us"),
];

/// A workload or metric name: starts with a letter or digit, at most 64
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Checks a `BENCHMARK.json` text against the program's own lists:
/// every workload and metric must be declared once, with the program's
/// unit, and nothing undeclared may appear. Errors name the culprit.
pub fn check_benchmark_json(text: &str) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names = |key: &str| -> Result<Vec<(String, Option<String>)>, String> {
        let entries = doc
            .get(key)
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("BENCHMARK.json: missing {key:?} array"))?;
        entries
            .iter()
            .map(|e| {
                let name = e
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("BENCHMARK.json: {key} entry without a name"))?;
                if !valid_name(name) {
                    return Err(format!("BENCHMARK.json: {key} name {name:?} is malformed"));
                }
                Ok((name.to_string(), e.get("unit").and_then(JsonValue::as_str).map(String::from)))
            })
            .collect()
    };
    let declared_workloads = names("workloads")?;
    let expected_workloads: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (*w, "")).collect();
    compare("workload", &declared_workloads, &expected_workloads, false)?;
    compare("end_to_end metric", &names("end_to_end")?, END_TO_END, true)?;
    compare("per_layer metric", &names("per_layer")?, PER_LAYER, true)?;
    Ok(())
}

fn compare(
    what: &str,
    declared: &[(String, Option<String>)],
    expected: &[(&str, &str)],
    with_units: bool,
) -> Result<(), String> {
    for (name, unit) in expected {
        let hits: Vec<_> = declared.iter().filter(|(n, _)| n == name).collect();
        match hits.as_slice() {
            [] => return Err(format!("BENCHMARK.json: missing {what} {name:?}")),
            [(_, declared_unit)] => {
                if with_units && declared_unit.as_deref() != Some(*unit) {
                    return Err(format!(
                        "BENCHMARK.json: {what} {name:?} has unit {declared_unit:?}, expected {unit:?}"
                    ));
                }
            }
            _ => return Err(format!("BENCHMARK.json: {what} {name:?} is declared twice")),
        }
    }
    if let Some((extra, _)) = declared.iter().find(|(n, _)| !expected.iter().any(|(e, _)| e == n)) {
        return Err(format!("BENCHMARK.json: unknown {what} {extra:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(list: &[(&str, &str)], with_unit: bool) -> String {
        let items: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                if with_unit {
                    format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"lower\"}}")
                } else {
                    format!("{{\"name\": \"{name}\", \"why\": \"w\"}}")
                }
            })
            .collect();
        format!("[{}]", items.join(", "))
    }

    fn document(workloads: &[&str], e2e: &[(&str, &str)], layers: &[(&str, &str)]) -> String {
        let w: Vec<(&str, &str)> = workloads.iter().map(|w| (*w, "")).collect();
        format!(
            "{{\"workloads\": {}, \"end_to_end\": {}, \"per_layer\": {}}}",
            entries(&w, false),
            entries(e2e, true),
            entries(layers, true)
        )
    }

    #[test]
    fn the_complete_declaration_validates() {
        check_benchmark_json(&document(&WORKLOADS, END_TO_END, PER_LAYER)).expect("complete");
    }

    #[test]
    fn the_committed_file_matches_the_program() {
        let text = include_str!("../../BENCHMARK.json");
        check_benchmark_json(text).expect("BENCHMARK.json declares what the program measures");
    }

    #[test]
    fn a_missing_workload_is_named() {
        for victim in WORKLOADS {
            let rest: Vec<&str> = WORKLOADS.iter().copied().filter(|w| *w != victim).collect();
            let err = check_benchmark_json(&document(&rest, END_TO_END, PER_LAYER))
                .expect_err("a workload is missing");
            assert!(err.contains(victim), "{err:?} names {victim:?}");
        }
    }

    #[test]
    fn a_missing_metric_is_named() {
        for (victim, _) in END_TO_END.iter().chain(PER_LAYER) {
            let drop =
                |list: &[(&'static str, &'static str)]| -> Vec<(&'static str, &'static str)> {
                    list.iter().copied().filter(|(n, _)| n != victim).collect()
                };
            let err =
                check_benchmark_json(&document(&WORKLOADS, &drop(END_TO_END), &drop(PER_LAYER)))
                    .expect_err("a metric is missing");
            assert!(err.contains(victim), "{err:?} names {victim:?}");
        }
    }

    #[test]
    fn a_wrong_unit_or_an_unknown_metric_is_refused() {
        let mut e2e = END_TO_END.to_vec();
        e2e[0].1 = "ms";
        let err =
            check_benchmark_json(&document(&WORKLOADS, &e2e, PER_LAYER)).expect_err("wrong unit");
        assert!(err.contains("work_per_s"), "{err}");

        let mut layers = PER_LAYER.to_vec();
        layers.push(("mystery.metric", "count"));
        let err = check_benchmark_json(&document(&WORKLOADS, END_TO_END, &layers))
            .expect_err("unknown metric");
        assert!(err.contains("mystery.metric"), "{err}");
    }

    #[test]
    fn metric_names_are_letters_digits_and_three_marks() {
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
        }
        for good in ["a", "9lives", "x.y-z_w", &"a".repeat(64)] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".hidden", "_x", "has space", "semi;colon", "slash/x", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}

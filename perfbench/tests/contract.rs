//! `BENCHMARK.json` at the repository root names exactly the metrics this
//! benchmark reports, with the same units, in the same order.

use cme_core::api::json::{self, Json};
use cme_perfbench::report::END_TO_END;
use cme_perfbench::trace::LAYER_METRICS;

fn declared(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect("field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_matches_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let spec = json::parse(&text).expect("valid JSON");
    assert_eq!(declared(&spec, "end_to_end"), owned(END_TO_END));
    assert_eq!(declared(&spec, "per_layer"), owned(LAYER_METRICS));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, cme_perfbench::WORKLOADS);
}

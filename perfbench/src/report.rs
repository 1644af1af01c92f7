//! Turning a [`Report`] into the printed table, the result file, and the
//! one-line JSON summary that ends standard output.

use crate::harness::{median, quantile, Report};
use crate::trace::LAYER_METRICS;
use cme_core::api::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A gated metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The metrics `BENCHMARK.json` gates: the end-to-end set for an untraced
/// run, the per-layer set for a traced one.
pub fn metrics(r: &Report) -> Vec<Metric> {
    if r.config.trace {
        return LAYER_METRICS
            .iter()
            .map(|(name, unit)| {
                (
                    name.to_string(),
                    r.layers.get(name).copied().unwrap_or(0.0),
                    *unit,
                )
            })
            .collect();
    }
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "setup_s" => median(&r.setup_s),
                "pass_s" => median(&r.pass_s),
                "op_ms_p50" => quantile(&r.op_ms, 0.5),
                "op_ms_tail" => quantile(&r.op_ms, r.tail),
                _ => r.peak_rss_mb,
            };
            (name.to_string(), value, unit)
        })
        .collect()
}

/// Samples left beyond the tail percentile.
pub fn beyond_tail(r: &Report) -> usize {
    ((1.0 - r.tail) * r.op_ms.len() as f64).floor() as usize
}

/// Human-readable lines: every gated metric and every named row, each
/// with its unit.
pub fn table(r: &Report) -> Vec<String> {
    let mut out = vec![format!(
        "workload {} seed {} ({} untraced + {} traced passes, {} ops)",
        r.workload,
        r.config.seed,
        r.pass_s.len(),
        r.traced_pass_s.len(),
        r.op_ms.len()
    )];
    for (name, value, unit) in metrics(r) {
        let note = match name.as_str() {
            "op_ms_p50" | "op_ms_tail" => format!(
                "  [{}; p{} of n={}, {} beyond]",
                r.op,
                if name == "op_ms_p50" {
                    50.0
                } else {
                    r.tail * 100.0
                },
                r.op_ms.len(),
                if name == "op_ms_p50" {
                    r.op_ms.len() / 2
                } else {
                    beyond_tail(r)
                }
            ),
            "setup_s" => format!("  [median of {} set-ups]", r.setup_s.len()),
            "pass_s" => format!("  [median of {} passes]", r.pass_s.len()),
            _ => String::new(),
        };
        out.push(format!("metric {name} = {value:.6} {unit}{note}"));
    }
    for row in &r.rows {
        let note = if row.note.is_empty() {
            String::new()
        } else {
            format!("  [{}]", row.note)
        };
        out.push(format!(
            "row {} = {:.6} {}{note}",
            row.name, row.value, row.unit
        ));
    }
    out.push(format!(
        "row failure_ratio = {:.6} ratio  [{} failed of {} attempted]",
        if r.ledger.attempted == 0 {
            0.0
        } else {
            r.ledger.failed as f64 / r.ledger.attempted as f64
        },
        r.ledger.failed,
        r.ledger.attempted
    ));
    out.push(format!(
        "provenance nproc={} pool_widths={:?} git={} profile={}",
        nproc(),
        r.threads,
        git_sha(),
        profile()
    ));
    if !r.unstable_counts.is_empty() {
        out.push(format!(
            "note: counts differed between passes (memo hits may race at pool width > 1): {}",
            r.unstable_counts.join(", ")
        ));
    }
    out.extend(r.ledger.messages.iter().map(|m| format!("failure: {m}")));
    out
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The commit the benchmark was built from, read from `.git` without
/// running git; `unknown` outside a git checkout.
pub fn git_sha() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(name) => std::fs::read_to_string(git.join(name))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                std::fs::read_to_string(git.join("packed-refs"))
                    .ok()
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(name))
                            .and_then(|l| l.split_whitespace().next())
                            .map(str::to_string)
                    })
            }),
        None => Some(head.to_string()),
    };
    sha.filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn num(v: f64) -> Json {
    Json::Float(v)
}

fn obj(pairs: Vec<(String, Json)>) -> Json {
    Json::Obj(pairs.into_iter().collect::<BTreeMap<_, _>>())
}

fn metric_obj(ms: &[Metric]) -> Json {
    obj(ms
        .iter()
        .map(|(name, value, unit)| {
            (
                name.clone(),
                obj(vec![
                    ("value".into(), num(*value)),
                    ("unit".into(), Json::Str((*unit).into())),
                ]),
            )
        })
        .collect())
}

/// The summary line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn summary(r: &Report) -> Json {
    obj(vec![
        (
            "correct".into(),
            Json::Bool(r.ledger.failed == 0 && r.ledger.attempted > 0),
        ),
        ("attempted".into(), Json::UInt(r.ledger.attempted)),
        ("failed".into(), Json::UInt(r.ledger.failed)),
        ("metrics".into(), metric_obj(&metrics(r))),
    ])
}

/// The full result record: summary, named rows, samples, deterministic
/// counts, provenance, and (traced) the spans.
pub fn record(r: &Report) -> Json {
    let floats = |v: &[f64]| Json::Arr(v.iter().copied().map(num).collect());
    let rows = r
        .rows
        .iter()
        .map(|row| {
            obj(vec![
                ("name".into(), Json::Str(row.name.clone())),
                ("value".into(), num(row.value)),
                ("unit".into(), Json::Str(row.unit.into())),
                ("note".into(), Json::Str(row.note.clone())),
            ])
        })
        .collect();
    let spans = r
        .spans
        .iter()
        .map(|s| {
            obj(vec![
                ("name".into(), Json::Str(s.name.into())),
                ("start_ns".into(), Json::UInt(s.start_ns)),
                ("end_ns".into(), Json::UInt(s.end_ns)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                ),
                ("request".into(), Json::UInt(s.request)),
                (
                    "counts".into(),
                    obj(s
                        .counts
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::UInt(*v)))
                        .collect()),
                ),
            ])
        })
        .collect();
    obj(vec![
        ("workload".into(), Json::Str(r.workload.into())),
        ("seed".into(), Json::UInt(r.config.seed)),
        ("seconds".into(), num(r.config.seconds)),
        ("trace".into(), Json::Bool(r.config.trace)),
        ("summary".into(), summary(r)),
        ("rows".into(), Json::Arr(rows)),
        ("op".into(), Json::Str(r.op.into())),
        ("tail_percentile".into(), num(r.tail * 100.0)),
        ("setup_s".into(), floats(&r.setup_s)),
        ("pass_s".into(), floats(&r.pass_s)),
        ("traced_pass_s".into(), floats(&r.traced_pass_s)),
        ("op_ms".into(), floats(&r.op_ms)),
        (
            "counts".into(),
            obj(r
                .counts
                .iter()
                .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                .collect()),
        ),
        (
            "unstable_counts".into(),
            Json::Arr(r.unstable_counts.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "failures".into(),
            Json::Arr(r.ledger.messages.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "provenance".into(),
            obj(vec![
                ("nproc".into(), Json::UInt(nproc() as u64)),
                (
                    "pool_widths".into(),
                    Json::Arr(r.threads.iter().map(|&t| Json::UInt(t as u64)).collect()),
                ),
                ("git_sha".into(), Json::Str(git_sha())),
                ("profile".into(), Json::Str(profile().into())),
            ]),
        ),
        ("spans".into(), Json::Arr(spans)),
    ])
}

/// Where a run's record is written: `out/` beside this package.
pub fn record_path(r: &Report) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "{}-seed{}-trace{}.json",
            r.workload,
            r.config.seed,
            u8::from(r.config.trace)
        ))
}

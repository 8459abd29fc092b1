//! What a run reports: its outcome, the metric specification it must
//! cover (read from `BENCHMARK.json`), its host and build metadata, and
//! the result lines.

use pwnd::core::hash::Sha256;
use pwnd::telemetry::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The benchmark definition, compiled in so the harness and the file can
/// never disagree about metric names, units or bounds.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` defines it.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Allowed worsening as a share of the base median (end-to-end only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Spec {
    /// End-to-end metrics, reported by untraced runs.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics, reported by traced runs.
    pub per_layer: Vec<MetricSpec>,
}

fn metric_specs(doc: &Json, key: &str) -> Vec<MetricSpec> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|m| MetricSpec {
            name: m
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            unit: m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            better: m
                .get("better")
                .and_then(Json::as_str)
                .unwrap_or("lower")
                .to_string(),
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

/// The compiled-in benchmark definition.
pub fn spec() -> Spec {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    Spec {
        end_to_end: metric_specs(&doc, "end_to_end"),
        per_layer: metric_specs(&doc, "per_layer"),
    }
}

/// What one workload run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (runs, passes or requests).
    pub attempted: u64,
    /// Operations whose output check failed, or that errored.
    pub failed: u64,
    /// Named correctness checks: (name, passed, detail).
    pub checks: Vec<(String, bool, String)>,
    /// End-to-end metrics by name.
    pub metrics: BTreeMap<String, f64>,
    /// Per-layer metrics by name.
    pub layers: BTreeMap<String, f64>,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record an end-to-end metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Record a per-layer metric (a later value replaces an earlier one).
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// Record a correctness check.
    pub fn check(&mut self, name: &str, passed: bool, detail: &str) {
        self.checks
            .push((name.to_string(), passed, detail.to_string()));
    }

    /// Add a line to the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Whether every operation and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.1)
    }

    /// The metrics this run reports, in `BENCHMARK.json` order: every
    /// end-to-end metric untraced, every per-layer metric traced. A
    /// layer the workload does not exercise reads 0. A missing or
    /// non-finite end-to-end value, or a name the specification does
    /// not know, fails a check instead of being papered over.
    pub fn select(&mut self, spec: &Spec, traced: bool) -> Vec<(MetricSpec, f64)> {
        let (specs, values) = if traced {
            (&spec.per_layer, &self.layers)
        } else {
            (&spec.end_to_end, &self.metrics)
        };
        let unknown: Vec<String> = values
            .keys()
            .filter(|k| !specs.iter().any(|s| &s.name == *k))
            .cloned()
            .collect();
        let mut bad = Vec::new();
        let selected = specs
            .iter()
            .map(|s| {
                let v = values.get(&s.name).copied();
                let v = match (traced, v) {
                    (true, None) => 0.0,
                    (_, Some(v)) if v.is_finite() => v,
                    (_, v) => {
                        bad.push(s.name.clone());
                        v.unwrap_or(f64::NAN)
                    }
                };
                (s.clone(), v)
            })
            .collect();
        if !unknown.is_empty() {
            self.check(
                "metrics are all defined in BENCHMARK.json",
                false,
                &unknown.join(", "),
            );
        }
        if !bad.is_empty() {
            self.check("every metric has a finite value", false, &bad.join(", "));
        }
        selected
    }
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`. Non-finite values (only ever alongside a failed check)
/// are written as -1 to keep the line valid JSON.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { -1.0 };
            (
                name.clone(),
                Json::Obj(vec![
                    ("value".to_string(), Json::F(v)),
                    ("unit".to_string(), Json::Str(unit.clone())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::U(attempted)),
        ("failed".to_string(), Json::U(failed)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
    .compact()
}

/// The repository root: the harness package's parent directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// The checked-out commit, read from `.git` without running git; `none`
/// outside a git checkout.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// sha256 over the program's sources (`Cargo.toml`, `src/`, `crates/`,
/// `vendor/`), file names and bytes in path order: identifies the code
/// measured even where there is no git metadata.
pub fn source_sha256(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml")];
    for dir in ["src", "crates", "vendor"] {
        walk(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h = Sha256::new();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            let rel = f.strip_prefix(root).unwrap_or(&f);
            h.update(rel.to_string_lossy().as_bytes());
            h.update(&[0]);
            h.update(&bytes);
        }
    }
    pwnd::core::hash::hex(&h.finalize())
}

/// Host, build and run metadata. Results are comparable only when the
/// `host` objects agree.
pub fn meta(workload: &str, seed: u64, seconds: f64, traced: bool, jobs: usize) -> Json {
    let root = repo_root();
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let s = |v: &str| Json::Str(v.to_string());
    Json::Obj(vec![(
        "pwndbench_meta".to_string(),
        Json::Obj(vec![
            ("workload".to_string(), s(workload)),
            ("seed".to_string(), Json::U(seed)),
            ("seconds".to_string(), Json::F(seconds)),
            ("trace".to_string(), Json::U(u64::from(traced))),
            (
                "host".to_string(),
                Json::Obj(vec![
                    (
                        "available_parallelism".to_string(),
                        Json::U(parallelism as u64),
                    ),
                    ("jobs".to_string(), Json::U(jobs as u64)),
                    (
                        "profile".to_string(),
                        s(if cfg!(debug_assertions) {
                            "debug"
                        } else {
                            "release"
                        }),
                    ),
                    ("rustc".to_string(), s(env!("PWNDBENCH_RUSTC"))),
                    ("os".to_string(), s(std::env::consts::OS)),
                    ("arch".to_string(), s(std::env::consts::ARCH)),
                ]),
            ),
            ("commit".to_string(), Json::Str(commit(&root))),
            ("source_sha256".to_string(), Json::Str(source_sha256(&root))),
        ]),
    )])
}

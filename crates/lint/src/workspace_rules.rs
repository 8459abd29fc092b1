//! Pass 2 of the workspace engine: rules that need cross-file facts.
//!
//! These run over the distilled [`FileModel`]s, never over tokens:
//!
//! - `layering` — every declared `pwnd-*` dependency and every
//!   `pwnd_*` reference in non-test code must be an edge the
//!   `LAYERING.toml` manifest allows; declared deps must be used.
//! - `schema-drift` — every JSONL record tag in the `lint:jsonl-tags`
//!   table is both written and read; no emit/consume site re-inlines a
//!   tag literal; no telemetry metric is read under a name nothing
//!   emits.
//! - `lock-discipline` — locks, atomics, and threads only in the
//!   modules the manifest's `[locks]` section approves.

use crate::findings::Finding;
use crate::manifest::LayeringManifest;
use crate::model::FileModel;
use crate::rules;
use std::collections::BTreeSet;

/// Workspace-level inputs for pass 2.
#[derive(Clone, Debug, Default)]
pub struct WorkspaceCtx {
    /// The parsed `LAYERING.toml`, when one was found and valid.
    pub manifest: Option<LayeringManifest>,
    /// Per-crate `Cargo.toml` dependency declarations.
    pub cargo: Vec<crate::manifest::CrateDeps>,
    /// Findings produced while loading the context itself (a missing or
    /// unparseable manifest), reported under `layering`.
    pub extra: Vec<Finding>,
}

/// Crate kinds pass 2 never applies to: free-floating test trees.
fn is_test_crate(krate: &str) -> bool {
    matches!(krate, "tests" | "examples" | "unknown")
}

/// Run every workspace rule; the engine filters by enabled rule ids.
pub fn run(models: &[FileModel], ctx: &WorkspaceCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    out.extend(ctx.extra.iter().cloned());
    check_layering(models, ctx, &mut out);
    check_schema_drift(models, &mut out);
    check_lock_discipline(models, ctx, &mut out);
    out
}

/// Enforce the manifest DAG over Cargo declarations and source imports.
fn check_layering(models: &[FileModel], ctx: &WorkspaceCtx, out: &mut Vec<Finding>) {
    let Some(manifest) = &ctx.manifest else {
        return;
    };
    let finding = |path: &str, line: u32, message: String| Finding {
        path: path.to_string(),
        line,
        rule: rules::LAYERING.to_string(),
        message,
    };
    // Cargo.toml side: declared edges must be allowed, and used.
    for cd in &ctx.cargo {
        let Some(allowed) = manifest.allowed_deps(&cd.krate) else {
            out.push(finding(
                &cd.manifest_path,
                1,
                format!(
                    "crate `{}` is not listed in LAYERING.toml [deps]; every crate's \
                     place in the architecture must be declared",
                    cd.krate
                ),
            ));
            continue;
        };
        for (dep, line) in &cd.deps {
            if !allowed.contains(dep) {
                out.push(finding(
                    &cd.manifest_path,
                    *line,
                    format!(
                        "`pwnd-{dep}` is not an allowed dependency of `{}` per \
                         LAYERING.toml — adding this edge requires editing the manifest",
                        cd.krate
                    ),
                ));
            }
            // Usage: any reference anywhere in the crate's files,
            // including test code (a test-only use still justifies the
            // Cargo edge). The root package's integration tests and
            // examples live in their own trees but link against the root
            // `[dependencies]`, so they count toward `bin`.
            let used = models.iter().any(|m| {
                (m.krate == cd.krate
                    || (cd.krate == "bin" && matches!(m.krate.as_str(), "tests" | "examples")))
                    && m.all_refs.contains(dep)
            });
            if !used {
                out.push(finding(
                    &cd.manifest_path,
                    *line,
                    format!(
                        "`pwnd-{dep}` is declared but `{}` never references \
                         `pwnd_{dep}` — remove the dead edge",
                        cd.krate
                    ),
                ));
            }
        }
    }
    // Source side: non-test references must be allowed edges.
    for m in models {
        if is_test_crate(&m.krate) {
            continue;
        }
        let Some(allowed) = manifest.allowed_deps(&m.krate) else {
            continue; // the missing-crate finding already covers this
        };
        for (short, line) in &m.imports {
            if *short != m.krate && !allowed.contains(short) {
                out.push(finding(
                    &m.path,
                    *line,
                    format!(
                        "`pwnd_{short}` is not an allowed dependency of `{}` per \
                         LAYERING.toml",
                        m.krate
                    ),
                ));
            }
        }
    }
}

/// JSONL record tags and telemetry metric names: emit and consume sites
/// must agree.
fn check_schema_drift(models: &[FileModel], out: &mut Vec<Finding>) {
    let finding = |path: &str, line: u32, message: String| Finding {
        path: path.to_string(),
        line,
        rule: rules::SCHEMA_DRIFT.to_string(),
        message,
    };
    // --- record tags ---------------------------------------------------
    let defs: Vec<(&FileModel, &crate::model::TagDef)> = models
        .iter()
        .flat_map(|m| m.tag_defs.iter().map(move |d| (m, d)))
        .collect();
    let prod_fns = || {
        models.iter().flat_map(|m| {
            m.fns
                .iter()
                .filter(move |f| !f.is_test && !is_test_crate(&m.krate))
                .map(move |f| (m, f))
        })
    };
    if defs.is_empty() {
        // Emit/consume markers without any tag table are themselves
        // drift: the writer half of the contract is unverifiable.
        for (m, f) in prod_fns() {
            if f.jsonl_emit || f.jsonl_consume {
                out.push(finding(
                    &m.path,
                    f.line,
                    format!(
                        "`{}` is marked lint:jsonl-{} but no lint:jsonl-tags table \
                         exists in the file set",
                        f.name,
                        if f.jsonl_emit { "emit" } else { "consume" }
                    ),
                ));
            }
        }
    }
    for (dm, d) in &defs {
        let refs_tag = |f: &crate::model::FnModel| {
            f.tag_refs.contains(&d.name) || f.str_lits.iter().any(|(s, _)| s == &d.value)
        };
        let emitted = prod_fns().any(|(_, f)| f.jsonl_emit && refs_tag(f));
        let consumed = prod_fns().any(|(_, f)| f.jsonl_consume && refs_tag(f));
        if !emitted {
            out.push(finding(
                &dm.path,
                d.line,
                format!(
                    "record tag `{}` ({}) is never written by any lint:jsonl-emit \
                     site — dead schema, or an unmarked writer",
                    d.value, d.name
                ),
            ));
        }
        if !consumed {
            out.push(finding(
                &dm.path,
                d.line,
                format!(
                    "record tag `{}` ({}) is never read by any lint:jsonl-consume \
                     site — emit-only records silently drop on the floor",
                    d.value, d.name
                ),
            ));
        }
    }
    // Inline literals equal to a table value inside marked fns.
    for (m, f) in prod_fns() {
        if !(f.jsonl_emit || f.jsonl_consume) {
            continue;
        }
        for (s, line) in &f.str_lits {
            if let Some((_, d)) = defs.iter().find(|(_, d)| &d.value == s) {
                out.push(finding(
                    &m.path,
                    *line,
                    format!(
                        "inline record-tag literal \"{s}\" — use the `{}` const from \
                         the tag table so renames stay atomic",
                        d.name
                    ),
                ));
            }
        }
    }
    // --- telemetry metric names ----------------------------------------
    let emitted: BTreeSet<&str> = models
        .iter()
        .filter(|m| !is_test_crate(&m.krate))
        .flat_map(|m| m.metric_emits.iter().map(|(n, _)| n.as_str()))
        .collect();
    for m in models {
        if is_test_crate(&m.krate) {
            continue;
        }
        for (name, line) in &m.metric_consumes {
            if !emitted.contains(name.as_str()) {
                out.push(finding(
                    &m.path,
                    *line,
                    format!(
                        "metric `{name}` is read here but nothing emits it — stale \
                         name, or the emitter renamed it"
                    ),
                ));
            }
        }
    }
}

/// Locks/atomics/threads only in manifest-approved modules.
fn check_lock_discipline(models: &[FileModel], ctx: &WorkspaceCtx, out: &mut Vec<Finding>) {
    let Some(manifest) = &ctx.manifest else {
        return;
    };
    for m in models {
        if is_test_crate(&m.krate) || manifest.allows_lock(&m.krate, &m.path) {
            continue;
        }
        for (line, what) in &m.lock_sites {
            out.push(Finding {
                path: m.path.clone(),
                line: *line,
                rule: rules::LOCK_DISCIPLINE.to_string(),
                message: format!(
                    "`{what}` in a module not approved for concurrency; the \
                     simulation is single-threaded by contract — add the module to \
                     LAYERING.toml [locks] only with a determinism argument"
                ),
            });
        }
    }
}

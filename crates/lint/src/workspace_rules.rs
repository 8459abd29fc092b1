//! Pass 2 of the workspace engine: rules that need cross-file facts.
//!
//! These run over the distilled [`FileModel`]s, never over tokens:
//!
//! - `layering` — every declared `pwnd-*` dependency and every
//!   `pwnd_*` reference in non-test code must be an edge the
//!   `LAYERING.toml` manifest allows; declared deps must be used.
//! - `lock-discipline` — locks, atomics, and threads only in the
//!   modules the manifest's `[locks]` section approves.

use crate::findings::Finding;
use crate::manifest::LayeringManifest;
use crate::model::FileModel;
use crate::rules;

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

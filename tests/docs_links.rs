//! Docs link check: every relative markdown link in `README.md` and
//! `docs/*.md` must resolve to a file that exists, every page the docs
//! tree is supposed to contain must be present and non-trivial, and
//! every markdown file the Rust sources name must exist.
//! Runs in `cargo test` (and as an explicit CI step), so a renamed
//! test file or a dropped docs page breaks the build instead of
//! silently 404ing readers.

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Extracts `](target)` link targets from markdown.
fn link_targets(md: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = md.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == b']' && bytes[i + 1] == b'(' {
            if let Some(end) = md[i + 2..].find(')') {
                out.push(md[i + 2..i + 2 + end].to_string());
                i += 2 + end;
                continue;
            }
        }
        i += 1;
    }
    out
}

fn check_file(path: &Path, failures: &mut Vec<String>) {
    let md =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let dir = path.parent().expect("markdown file has a parent");
    for target in link_targets(&md) {
        // External links and pure anchors are out of scope.
        if target.starts_with("http://")
            || target.starts_with("https://")
            || target.starts_with('#')
        {
            continue;
        }
        // Strip an anchor suffix; resolve relative to the file.
        let file_part = target.split('#').next().unwrap_or(&target);
        if file_part.is_empty() {
            continue;
        }
        let resolved = dir.join(file_part);
        if !resolved.exists() {
            failures.push(format!(
                "{}: broken link `{target}` (missing {})",
                path.display(),
                resolved.display()
            ));
        }
    }
}

#[test]
fn all_relative_doc_links_resolve() {
    let root = repo_root();
    let mut failures = Vec::new();
    check_file(&root.join("README.md"), &mut failures);
    let docs = root.join("docs");
    assert!(docs.is_dir(), "docs/ tree is missing");
    for entry in std::fs::read_dir(&docs).expect("read docs/") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            check_file(&path, &mut failures);
        }
    }
    assert!(
        failures.is_empty(),
        "broken docs links:\n{}",
        failures.join("\n")
    );
}

#[test]
fn the_docs_tree_is_complete() {
    let docs = repo_root().join("docs");
    for page in [
        "architecture.md",
        "wal-format.md",
        "testing.md",
        "observability.md",
        "model-checking.md",
        "async-runtime.md",
    ] {
        let path = docs.join(page);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("docs page {page} missing: {e}"));
        assert!(
            text.len() > 2000,
            "docs page {page} looks like a stub ({} bytes)",
            text.len()
        );
    }
}

#[test]
fn docs_references_to_code_paths_exist() {
    // The docs name concrete test files and binaries as evidence;
    // keep those paths honest.
    let root = repo_root();
    for rel in [
        "crates/cluster/tests/determinism.rs",
        "crates/cluster/tests/xshard_faults.rs",
        "crates/cluster/tests/file_wal.rs",
        "crates/cluster/tests/xshard_props.rs",
        "crates/core/src/wal_codec.rs",
        "crates/cluster/tests/obs_blocking.rs",
        "crates/cluster/tests/model_check.rs",
        "crates/cluster/tests/mc_regressions.rs",
        "crates/cluster/tests/xshard_discovery.rs",
        "crates/cluster/examples/mc_probe.rs",
        "crates/mc/src/lib.rs",
        "crates/cluster/src/mc_harness.rs",
        "crates/core/tests/rule_safety.rs",
        "crates/harness/src/bin/paper_figures.rs",
        "crates/cluster/tests/snapshot_reads.rs",
        "crates/db/tests/read_tables.rs",
        "crates/reactor/src/poller.rs",
        "crates/reactor/src/frame.rs",
        "crates/reactor/src/wire.rs",
        "crates/cluster/tests/reactor.rs",
        "crates/cluster/tests/reactor_burst.rs",
        "crates/db/src/durable_log.rs",
        "crates/cluster/src/plan.rs",
    ] {
        assert!(
            root.join(rel).exists(),
            "docs reference a missing path: {rel}"
        );
    }
}

/// Markdown file names (`[A-Za-z0-9_./-]+.md`) mentioned anywhere in
/// `text` — comments and string literals alike.
fn md_names(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let is_name = |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'/' | b'-');
    let mut out = Vec::new();
    for (dot, _) in text.match_indices(".md") {
        let end = dot + 3;
        let start = bytes[..dot]
            .iter()
            .rposition(|&b| !is_name(b))
            .map_or(0, |i| i + 1);
        if start < dot {
            out.push(&text[start..end]);
        }
    }
    out
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn markdown_files_named_in_rust_sources_exist() {
    // A comment or a printed line that sends the reader to a document
    // is a link too: the name must resolve from the repo root or from
    // `docs/`.
    let root = repo_root();
    let mut sources = Vec::new();
    rust_sources(&root.join("crates"), &mut sources);
    rust_sources(&root.join("src"), &mut sources);
    let mut failures = Vec::new();
    for path in sources {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        for name in md_names(&text) {
            if !root.join(name).exists() && !root.join("docs").join(name).exists() {
                failures.push(format!("{}: names `{name}`", path.display()));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "Rust sources name markdown files that do not exist:\n{}",
        failures.join("\n")
    );
}

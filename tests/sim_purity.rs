//! Tier-1 gate at the workspace root: plain `cargo test -q` runs the
//! sim-purity lint (the same pass as `cargo run -p powerburst-lint` and
//! the `sim-purity` CI job). See DESIGN.md §11 for the rule catalog.

use std::path::Path;

use powerburst_lint::graph::{check_workspace_graph, Contract, ImportGraph};
use powerburst_lint::lint_workspace;

#[test]
fn workspace_passes_sim_purity_lint() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = lint_workspace(root).expect("workspace readable");
    let rendered: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert!(rendered.is_empty(), "sim-purity violations:\n{}", rendered.join("\n"));
    assert!(
        report.stale.is_empty(),
        "stale lint-allow.txt entries (remove them): {:?}",
        report.stale
    );
}

#[test]
fn workspace_satisfies_the_layering_contract() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let violations = check_workspace_graph(root).expect("workspace readable");
    let rendered: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
    assert!(rendered.is_empty(), "layering violations:\n{}", rendered.join("\n"));
}

#[test]
fn crate_graph_dot_golden_is_current() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let g = ImportGraph::build(root).expect("workspace readable");
    let golden =
        std::fs::read_to_string(root.join("docs/crate-graph.dot")).expect("golden committed");
    assert_eq!(
        g.to_dot(&Contract::powerburst()),
        golden,
        "docs/crate-graph.dot is stale — regenerate with \
         `cargo run -p powerburst-lint -- graph --dot > docs/crate-graph.dot`"
    );
}

#[test]
fn every_library_crate_forbids_unsafe_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut libs = vec![root.join("src/lib.rs")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ readable") {
        let lib = entry.expect("crates/ entry readable").path().join("src/lib.rs");
        if lib.is_file() {
            libs.push(lib);
        }
    }
    assert!(libs.len() > 10, "found only {} library roots", libs.len());
    let missing: Vec<String> = libs
        .iter()
        .filter(|lib| {
            let src = std::fs::read_to_string(lib).expect("lib.rs readable");
            !src.lines().any(|l| l.trim() == "#![forbid(unsafe_code)]")
        })
        .map(|lib| lib.strip_prefix(root).unwrap_or(lib).display().to_string())
        .collect();
    assert!(missing.is_empty(), "library roots without #![forbid(unsafe_code)]: {missing:?}");
}

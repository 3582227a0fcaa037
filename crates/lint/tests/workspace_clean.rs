//! The gate the rest of the workspace lives under: the real repository
//! must analyze clean, both through the library API and through the
//! `cargo run -p greednet-lint -- --json` entry point CI uses.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    greednet_lint::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("crates/lint lives inside the workspace")
}

#[test]
fn real_workspace_is_clean() {
    let analysis = greednet_lint::analyze(&workspace_root()).expect("workspace analyzable");
    let live: Vec<_> = analysis.live().collect();
    assert!(
        live.is_empty(),
        "workspace must pass its own lint, found:\n{}",
        analysis.human()
    );
    // Sanity: the walk actually visited the workspace (all 12 first-party
    // crates plus the facade), not an empty directory.
    assert!(
        analysis.files_scanned > 100,
        "suspiciously few files scanned: {}",
        analysis.files_scanned
    );
}

#[test]
fn allow_budget_is_respected() {
    // The acceptance bar: at most 10 annotated allow sites across the
    // workspace, every one carrying a reason.
    let analysis = greednet_lint::analyze(&workspace_root()).expect("workspace analyzable");
    let suppressed: Vec<_> = analysis.suppressed().collect();
    assert!(
        suppressed.len() <= 10,
        "allow budget exceeded ({} sites): {suppressed:?}",
        suppressed.len()
    );
    for f in suppressed {
        let reason = f.suppressed.as_deref().unwrap_or("");
        assert!(
            !reason.trim().is_empty(),
            "allow at {}:{} carries no reason",
            f.file,
            f.line
        );
    }
}

#[test]
fn des_entity_modules_are_in_deterministic_scope() {
    // The event-calendar engine's entity/engine/calendar/units modules
    // carry the determinism contract (GN01/GN09 scope): "des" must stay
    // in the deterministic-crate set and the walk must actually visit
    // the modules, so a rename cannot silently drop them from scope.
    assert!(
        greednet_lint::rules::DETERMINISTIC_CRATES.contains(&"des"),
        "des left the deterministic-crate set"
    );
    let root = workspace_root();
    for module in [
        "crates/des/src/engine.rs",
        "crates/des/src/entities.rs",
        "crates/des/src/calendar.rs",
        "crates/des/src/units.rs",
    ] {
        assert!(root.join(module).is_file(), "missing module {module}");
    }
}

#[test]
fn largen_solver_modules_are_in_deterministic_scope() {
    // The large-N engine promises bitwise thread-invariant equilibria,
    // so its kernel/solver modules must stay under the deterministic
    // rules (GN01/GN02/GN09) and a rename must not drop them from the
    // walk.
    assert!(
        greednet_lint::rules::DETERMINISTIC_CRATES.contains(&"largen"),
        "largen left the deterministic-crate set"
    );
    let root = workspace_root();
    for module in [
        "crates/largen/src/kernel.rs",
        "crates/largen/src/finite.rs",
        "crates/largen/src/meanfield.rs",
        "crates/largen/src/model.rs",
    ] {
        assert!(root.join(module).is_file(), "missing module {module}");
    }
}

#[test]
fn gn09_allow_budget_is_at_most_four() {
    // Lossy-cast allows are the narrowest budget: the typed-unit API
    // routes conversions through numerics::conv, so new GN09 sites
    // should be conversions added there deliberately, not drive-bys.
    let analysis = greednet_lint::analyze(&workspace_root()).expect("workspace analyzable");
    let gn09: Vec<_> = analysis.suppressed().filter(|f| f.rule == "GN09").collect();
    assert!(
        gn09.len() <= 4,
        "GN09 allow budget exceeded ({} sites): {gn09:?}",
        gn09.len()
    );
}

#[test]
fn reports_are_byte_identical_at_1_4_8_threads() {
    // The sharded per-file pass merges in task-index order, so the JSON
    // and SARIF reports on the real workspace must not depend on the
    // thread count.
    let root = workspace_root();
    let reports = |threads| {
        let analysis = greednet_lint::analyze_with(
            &root,
            &greednet_lint::AnalyzeOptions {
                threads,
                changed: None,
            },
        )
        .expect("workspace analyzable");
        (analysis.json(), analysis.sarif())
    };
    let (json_1, sarif_1) = reports(1);
    for threads in [4, 8] {
        let (json, sarif) = reports(threads);
        assert!(json == json_1, "JSON report at {threads} threads differs");
        assert!(
            sarif == sarif_1,
            "SARIF report at {threads} threads differs"
        );
    }
}

#[test]
fn cargo_run_json_exits_zero_on_the_workspace() {
    let root = workspace_root();
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let output = std::process::Command::new(cargo)
        .args(["run", "-q", "-p", "greednet-lint", "--", "--json", "--root"])
        .arg(&root)
        .current_dir(&root)
        .output()
        .expect("cargo run -p greednet-lint");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "greednet-lint exited {:?}:\n{stdout}\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("\"clean\": true"), "JSON report: {stdout}");
    assert!(stdout.contains("\"findings\": []"), "JSON report: {stdout}");
}

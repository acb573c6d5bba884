//! The golden-hash file shared by `golden_artifacts.rs` and
//! `planner_golden.rs`: one `name hash` line per pinned output in
//! `tests/golden/artifact_hashes.txt`, FNV-1a 64 over its bytes.

// Compiled into each test crate that declares `mod common`; neither
// uses every item.
#![allow(dead_code)]

use wifi_core::telemetry::codec::Fnv1a;

/// FNV-1a 64 over the artifact bytes: stable, dependency-free, and more
/// than enough to detect drift (these are equality pins, not security).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/artifact_hashes.txt"
);

/// Compare `name -> hash` lines against the committed golden file, or
/// rewrite the file when `IMC_UPDATE_GOLDENS` is set. Every entry's name
/// starts with `<owner>.`; a refresh replaces exactly the owner's lines.
/// Entries missing from the file fail (pin everything), and per-entry
/// drift reports the artifact name so the failure says *what* diverged.
pub fn check_goldens(owner: &str, entries: &[(String, u64)]) {
    let owned = format!("{owner}.");
    assert!(entries.iter().all(|(name, _)| name.starts_with(&owned)));
    let rendered: String = entries
        .iter()
        .map(|(name, h)| format!("{name} {h:016x}\n"))
        .collect();
    if std::env::var_os("IMC_UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
        // Merge with the entries the other golden tests wrote: each test
        // owns the lines bearing its prefix, everything else is kept.
        let existing = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_default();
        let kept: String = existing
            .lines()
            .filter(|l| !l.starts_with(&owned))
            .map(|l| format!("{l}\n"))
            .collect();
        let mut all: Vec<&str> = Vec::new();
        let merged = format!("{kept}{rendered}");
        all.extend(merged.lines());
        all.sort_unstable();
        let out: String = all.iter().map(|l| format!("{l}\n")).collect();
        std::fs::write(GOLDEN_PATH, out).unwrap();
        eprintln!("updated {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!("missing golden file {GOLDEN_PATH}: {e} (run with IMC_UPDATE_GOLDENS=1 to create)")
    });
    for (name, h) in entries {
        let want = golden
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .unwrap_or_else(|| panic!("artifact {name} not pinned in {GOLDEN_PATH}"));
        assert_eq!(
            format!("{h:016x}"),
            want,
            "artifact {name} drifted from its golden hash — the simulation \
             trajectory changed. If intentional, refresh with \
             IMC_UPDATE_GOLDENS=1 cargo test --test <this test> -- --test-threads=1"
        );
    }
}

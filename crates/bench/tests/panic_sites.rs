//! The panic-site budget: non-test source lines under `crates/*/src` that
//! contain `unwrap()`, `expect(` or `panic!`. Each file is read up to its
//! first `#[cfg(test)]` line, so unit-test modules at the end of a file do
//! not count; a line with several sites counts once.
//!
//! Robustness ratchet: the typed-error refactor drove non-test panic sites
//! down to this count; new code must not grow it. Lower the pin when you
//! remove sites; raising it needs a reviewed justification.
//! The count includes the single intentional `panic!` in serve/daemon.rs that
//! injects a supervised job-worker death under seeded ANT_CHAOS — it is the
//! fault the catch_unwind supervision exists to absorb, not an error path.
//! 103: ANT's conv pair unwraps its two anticipator paths in one place.
//! 99: the process-wide flame table and its four lock unwraps are gone.
//! 85: trace pairs are borrowed from planes validated once per trace, so the
//! binaries' per-phase `expect`s on pair construction are gone.

use std::path::{Path, PathBuf};

const MAX_PANIC_SITES: usize = 85;

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The panic-site lines of one file's source, up to its first
/// `#[cfg(test)]`.
fn panic_sites(source: &str) -> usize {
    source
        .lines()
        .take_while(|line| !line.contains("#[cfg(test)]"))
        .filter(|line| {
            ["unwrap()", "expect(", "panic!"]
                .iter()
                .any(|site| line.contains(site))
        })
        .count()
}

#[test]
fn non_test_panic_sites_stay_within_budget() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates).expect("crates directory") {
        let src = entry.expect("directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.sort();
    assert!(!files.is_empty(), "no sources under {}", crates.display());
    let mut counts: Vec<(usize, PathBuf)> = files
        .into_iter()
        .map(|path| {
            let source = std::fs::read_to_string(&path).expect("source is UTF-8");
            let name = path.strip_prefix(&crates).unwrap_or(&path).to_path_buf();
            (panic_sites(&source), name)
        })
        .collect();
    let total: usize = counts.iter().map(|(n, _)| n).sum();
    println!("panic sites: {total} (budget {MAX_PANIC_SITES})");
    counts.sort_by_key(|(n, _)| std::cmp::Reverse(*n));
    assert!(
        total <= MAX_PANIC_SITES,
        "{total} panic sites, budget {MAX_PANIC_SITES}: prefer typed AntError returns over \
         unwrap()/expect()/panic!. Heaviest files: {:?}",
        &counts[..counts.len().min(5)]
    );
}

#[test]
fn the_count_stops_at_the_test_module_and_counts_a_line_once() {
    let source = "let a = x.unwrap();\n\
                  let b = y.expect(\"b\").unwrap();\n\
                  let c = z.unwrap_or(0);\n\
                  #[cfg(test)]\n\
                  panic!(\"test only\");\n";
    assert_eq!(panic_sites(source), 2);
}

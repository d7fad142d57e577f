//! `microbench`: time the simulator's hot kernels in isolation and record
//! per-kernel ledger entries.
//!
//! ```text
//! microbench [--grid full|tiny] [--repeats K] [--file PATH]
//!            [--filter SUBSTR] [--no-record]
//! ```
//!
//! Runs the standard kernel set (`ant_bench::kernels`) over synthesized
//! inputs at the chosen sparsity grid, prints a per-kernel table, and
//! appends one `microbench`-labelled entry of `kernel/<name>/<case>/...`
//! metrics to the bench-history ledger (default `BENCH_history.jsonl`)
//! unless `--no-record`. `bench_history compare` then gates those metrics
//! per kernel, so a whole-run wall regression in the fig09 entries can be
//! attributed to the kernel that slowed down.
//!
//! `--filter` keeps only benches whose `kernel/case` contains the
//! substring (useful while iterating on one kernel); filtered runs are
//! not recorded, since a partial metric set would skew the rolling-median
//! baseline.

use std::path::PathBuf;
use std::process::ExitCode;

use ant_bench::history::{self, DEFAULT_LEDGER};
use ant_bench::kernels::{self, Grid};
use ant_bench::obs::Experiment;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let grid = match take_flag(&mut args, "--grid") {
        Ok(v) => {
            let label = v.unwrap_or_else(|| "full".to_string());
            match Grid::from_label(&label) {
                Some(g) => g,
                None => return fail(&format!("unknown grid {label:?} (want full or tiny)")),
            }
        }
        Err(e) => return fail(&e),
    };
    let repeats = match take_flag(&mut args, "--repeats") {
        Ok(v) => match v.as_deref().map(str::parse::<u32>).transpose() {
            Ok(n) => n.unwrap_or(5).max(1),
            Err(_) => return fail("--repeats wants an integer"),
        },
        Err(e) => return fail(&e),
    };
    let path = match take_flag(&mut args, "--file") {
        Ok(v) => v
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(DEFAULT_LEDGER)),
        Err(e) => return fail(&e),
    };
    let filter = match take_flag(&mut args, "--filter") {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let no_record = take_switch(&mut args, "--no-record");
    if !args.is_empty() {
        return fail(&format!("unexpected arguments: {args:?}"));
    }

    let mut exp = Experiment::start("microbench", "Per-kernel microbenchmarks");
    exp.config("grid", grid.label())
        .config("repeats", u64::from(repeats))
        .config("ledger", path.display().to_string());

    let mut benches = kernels::standard_benches(grid);
    if let Some(f) = &filter {
        exp.config("filter", f.as_str());
        benches.retain(|b| format!("{}/{}", b.kernel(), b.case()).contains(f.as_str()));
        if benches.is_empty() {
            return fail(&format!("--filter {f:?} matches no bench"));
        }
    }
    let results = kernels::run_benches(benches, repeats);

    println!(
        "{:<24} {:>6} {:>12} {:>8}",
        "kernel", "case", "ns/op", "spread"
    );
    for r in &results {
        println!(
            "{:<24} {:>6} {:>12.1} {:>7.1}%",
            r.kernel,
            r.case,
            r.measurement.ns_per_op,
            r.measurement.spread * 100.0
        );
    }

    let entry = kernels::entry_from(&results, repeats);
    for (name, value) in &entry.metrics {
        exp.manifest().host_stat(name.clone(), *value);
    }
    exp.stat("benches", results.len() as u64);

    // A filtered run records nothing: a partial metric set would be
    // compared against full-set baselines and skew the rolling median.
    if no_record || filter.is_some() {
        println!(
            "(not recorded: {})",
            if no_record { "--no-record" } else { "--filter" }
        );
    } else {
        if let Err(err) = history::append(&path, &entry) {
            eprintln!("microbench: cannot append to {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "recorded {} ({} metrics, {} repeats) -> {}",
            entry.describe(),
            entry.metrics.len(),
            entry.repeats,
            path.display()
        );
        exp.manifest().output(path.display().to_string());
    }
    exp.finish_without_table();
    ExitCode::SUCCESS
}

/// Pulls `--name value` out of `args`, returning the value.
fn take_flag(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    if let Some(pos) = args.iter().position(|a| a == name) {
        if pos + 1 >= args.len() {
            return Err(format!("{name} needs a value"));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        return Ok(Some(value));
    }
    Ok(None)
}

/// Pulls a bare `--name` switch out of `args`.
fn take_switch(args: &mut Vec<String>, name: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == name) {
        args.remove(pos);
        return true;
    }
    false
}

fn fail(message: &str) -> ExitCode {
    eprintln!("microbench: {message}");
    ExitCode::FAILURE
}

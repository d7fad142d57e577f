//! `obsctl`: unified offline analysis over the observability sidecars.
//!
//! ```text
//! obsctl trace      FILE [--name N] [--layer L] [--phase P] [--network NET]
//!                        [--machine M] [--top K] [--json]
//! obsctl flame      fold TRACE.jsonl
//! obsctl flame      diff A.folded B.folded [--top K] [--json]
//! obsctl status     [PATH|URL] [--follow] [--interval-ms N]
//! obsctl jobs       URL|FILE [--follow] [--interval-ms N]
//! obsctl redundancy FILE [--network NET] [--machine M] [--layer L]
//!                        [--phase P] [--top K] [--json]
//! obsctl cache      MANIFEST [--network NET] [--machine M] [--json]
//! ```
//!
//! Analysis only — every subcommand exits zero unless its input is
//! unusable; the ledger's trends and regression *gating* are both
//! `bench_history compare`. `flame fold` prints collapsed stacks of a span
//! trace for `flame diff`, speedscope or inferno. The `--json` reports
//! carry stable schemas (`ant-trace-stats/1`, `ant-flame-diff/1`,
//! `ant-redundancy-stats/1`, `ant-cache-stats/1`); see
//! `docs/OBSERVABILITY.md` for a walkthrough.

use std::process::ExitCode;
use std::time::Duration;

use ant_bench::obsctl::{
    cache, flame, jobs, redundancy, status, take_flag, take_parsed, take_switch, trace, Source,
};

const USAGE: &str = "usage: obsctl <trace|flame|status|jobs|redundancy|cache> [options]
  trace      FILE [--name N] [--layer L] [--phase P] [--network NET] [--machine M] [--top K] [--json]
  flame      fold TRACE.jsonl
  flame      diff A.folded B.folded [--top K] [--json]
  status     [PATH|URL] [--follow] [--interval-ms N]
  jobs       URL|FILE [--follow] [--interval-ms N]
  redundancy FILE [--network NET] [--machine M] [--layer L] [--phase P] [--top K] [--json]
  cache      MANIFEST [--network NET] [--machine M] [--json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let outcome = match command.as_str() {
        "trace" => cmd_trace(rest),
        "flame" => cmd_flame(rest),
        "status" => cmd_status(rest),
        "jobs" => cmd_jobs(rest),
        "redundancy" => cmd_redundancy(rest),
        "cache" => cmd_cache(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("obsctl: {message}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let filter = trace::TraceFilter {
        name: take_flag(&mut args, "--name")?,
        layer: take_flag(&mut args, "--layer")?,
        phase: take_flag(&mut args, "--phase")?,
        network: take_flag(&mut args, "--network")?,
        machine: take_flag(&mut args, "--machine")?,
    };
    let top = take_parsed(&mut args, "--top", 30usize)?;
    let json = take_switch(&mut args, "--json");
    let [file] = args.as_slice() else {
        return Err(format!("trace wants exactly one FILE, got {args:?}"));
    };
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let report = trace::analyze(&text, &filter);
    if json {
        println!("{}", trace::to_json(&report, top));
    } else {
        print!("{}", trace::to_markdown(&report, top));
    }
    Ok(())
}

fn cmd_flame(args: &[String]) -> Result<(), String> {
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let mut args = match args.split_first() {
        Some((sub, [file])) if sub == "fold" => {
            let report = trace::analyze(&read(file)?, &trace::TraceFilter::default());
            print!("{}", flame::fold(&report));
            return Ok(());
        }
        Some((sub, rest)) if sub == "diff" => rest.to_vec(),
        _ => return Err("flame wants `fold TRACE.jsonl` or `diff A.folded B.folded`".to_string()),
    };
    let top = take_parsed(&mut args, "--top", 30usize)?;
    let json = take_switch(&mut args, "--json");
    let [a, b] = args.as_slice() else {
        return Err(format!(
            "flame diff wants exactly two .folded files, got {args:?}"
        ));
    };
    let report = flame::diff(
        &flame::FoldedProfile::parse(&read(a)?),
        &flame::FoldedProfile::parse(&read(b)?),
    );
    if json {
        println!("{}", flame::to_json(&report, a, b));
    } else {
        print!("{}", flame::to_markdown(&report, a, b, top));
    }
    Ok(())
}

fn cmd_redundancy(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let filter = redundancy::RedundancyFilter {
        network: take_flag(&mut args, "--network")?,
        machine: take_flag(&mut args, "--machine")?,
        layer: take_flag(&mut args, "--layer")?,
        phase: take_flag(&mut args, "--phase")?,
    };
    let top = take_parsed(&mut args, "--top", 30usize)?;
    let json = take_switch(&mut args, "--json");
    let [file] = args.as_slice() else {
        return Err(format!("redundancy wants exactly one FILE, got {args:?}"));
    };
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let report = redundancy::analyze(&text, &filter);
    if report.rows_matched == 0 && report.lines_skipped > 0 {
        return Err(format!(
            "{file} holds no ant-redundancy/1 rows ({} unusable line(s))",
            report.lines_skipped
        ));
    }
    if json {
        println!("{}", redundancy::to_json(&report, top));
    } else {
        print!("{}", redundancy::to_markdown(&report, top));
    }
    Ok(())
}

fn cmd_cache(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let filter = cache::CacheFilter {
        network: take_flag(&mut args, "--network")?,
        machine: take_flag(&mut args, "--machine")?,
    };
    let json = take_switch(&mut args, "--json");
    let [file] = args.as_slice() else {
        return Err(format!("cache wants exactly one MANIFEST, got {args:?}"));
    };
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let report = cache::analyze(&text, &filter).map_err(|e| format!("{file}: {e}"))?;
    if json {
        println!("{}", cache::to_json(&report));
    } else {
        print!("{}", cache::to_markdown(&report));
    }
    Ok(())
}

fn cmd_status(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let follow = take_follow(&mut args)?;
    let operand = match args.as_slice() {
        [] => None,
        [one] => Some(one.as_str()),
        _ => return Err(format!("status wants at most one PATH|URL, got {args:?}")),
    };
    let source = Source::resolve(operand, "/status");
    watch(&source, follow, status::render, status::is_done)
}

fn cmd_jobs(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let follow = take_follow(&mut args)?;
    let [operand] = args.as_slice() else {
        return Err(format!("jobs wants exactly one URL|FILE, got {args:?}"));
    };
    let source = Source::resolve(Some(operand), "/jobs");
    watch(&source, follow, jobs::render, jobs::all_terminal)
}

/// `--follow [--interval-ms N]`: the re-read interval when following.
fn take_follow(args: &mut Vec<String>) -> Result<Option<Duration>, String> {
    let follow = take_switch(args, "--follow");
    let interval_ms = take_parsed(args, "--interval-ms", 500u64)?.max(50);
    Ok(follow.then(|| Duration::from_millis(interval_ms)))
}

/// Prints `source` through `render`; when following, re-reads it at the
/// interval until `finished` holds for what it read.
fn watch(
    source: &Source,
    follow: Option<Duration>,
    render: fn(&str) -> Result<String, String>,
    finished: fn(&str) -> bool,
) -> Result<(), String> {
    loop {
        let text = source.fetch()?;
        print!("{}", render(&text)?);
        match follow {
            Some(interval) if !finished(&text) => {
                println!("---");
                std::thread::sleep(interval);
            }
            _ => return Ok(()),
        }
    }
}

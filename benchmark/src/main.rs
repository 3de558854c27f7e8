//! `benchmark` - the repeatable end-to-end and per-layer benchmark of the
//! hpcmon monitoring pipeline.  See `README.md` beside this package.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one pass (the contract's form)
//! benchmark [--seed N]                                      every workload, both passes
//! benchmark --self-check [--runs N] [--workload W]          two alternating sets, spread and drift against the bounds
//! benchmark --smoke                                         1,024 nodes, one cycle per shape, checks only
//! ```
//!
//! Each pass runs in a child process of its own, so `peak_rss_mb` and page
//! placement belong to one workload.

mod dashboard;
mod layers;
mod medium;
mod report;
mod spans;
mod stats;
mod workloads;

use hpcmon::metrics::alloc_count::CountingAllocator;
use report::{Metric, END_TO_END};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::{RunOpts, Shape, SHAPES};

// Installed for both passes: `metrics.allocs_per_tick` needs an exact count,
// and a different allocator per pass would make the passes incomparable.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                 [--out-dir DIR] [--self-check [--runs N]] [--smoke]";

struct Args {
    workload: Option<String>,
    seed: u64,
    trace: bool,
    out_dir: PathBuf,
    self_check: bool,
    runs: usize,
    smoke: bool,
    /// Set by the runner on the processes it spawns.
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 2018,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
        self_check: false,
        runs: 10,
        smoke: false,
        child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot read `{v}` as a number"))
        }
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = num(&flag, value()?)?,
            // Accepted for the contract.  Windows are whole cycles of fixed
            // tick counts, never time-boxed: `run_seconds` in BENCHMARK.json
            // states what they come to on the reference host.
            "--seconds" => {
                num::<f64>(&flag, value()?)?;
            }
            "--trace" => a.trace = num::<u8>(&flag, value()?)? != 0,
            "--out-dir" => a.out_dir = PathBuf::from(value()?),
            "--self-check" => a.self_check = true,
            "--runs" => a.runs = num(&flag, value()?)?,
            "--smoke" => a.smoke = true,
            "--child" => a.child = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &a.workload {
        if !SHAPES.iter().any(|s| s.name == w) {
            let names: Vec<&str> = SHAPES.iter().map(|s| s.name).collect();
            return Err(format!("unknown workload `{w}`; one of {}", names.join(", ")));
        }
    }
    if a.self_check && a.runs < 5 {
        return Err("--self-check needs at least 5 runs per set".into());
    }
    Ok(a)
}

fn shape(name: &str) -> &'static Shape {
    SHAPES.iter().find(|s| s.name == name).expect("validated in parse_args")
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// What a number from this run was measured on.
fn print_header(a: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# hpcmon benchmark: nproc={nproc} rustc=\"{}\" git={} profile={} seed={}",
        command_line("rustc", &["-V"]),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        a.seed,
    );
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The workloads `--workload` selects (all of them without it).
fn selected(a: &Args) -> impl Iterator<Item = &'static Shape> + '_ {
    SHAPES.iter().filter(|s| a.workload.as_deref().is_none_or(|w| w == s.name))
}

/// The process one pass runs in.
fn child_main(a: &Args) -> ExitCode {
    let shape = shape(a.workload.as_deref().expect("the runner names the workload"));
    let opts =
        RunOpts { seed: a.seed, traced: a.trace, smoke: a.smoke, out_dir: a.out_dir.clone() };
    if a.trace {
        println!("== {} (traced pass: a plain reference cycle, then a traced one)", shape.name);
    } else {
        let cycles = shape.cycles_for(&opts);
        let repeats = if a.smoke { 1 } else { shape.repeats };
        println!(
            "== {} (end-to-end pass: {cycles} measured cycles of {} ticks, best of {repeats} run(s))",
            shape.name, shape.cycle
        );
    }
    println!("   {}", shape.why);
    let outcome = workloads::run(shape, &opts);
    let mut table = String::new();
    outcome.render(&mut table);
    print!("{table}");
    println!("{}", outcome.to_json());
    exit_code(outcome.violations.is_empty())
}

/// What the runner keeps of a finished child.
struct PassResult {
    ok: bool,
    metrics: Vec<Metric>,
}

/// Spawn one pass.  With `capture` the child's report is echoed and its
/// result line parsed; without, the child writes straight to our stdout
/// (its last line is then the last line of ours).
fn spawn_pass(a: &Args, workload: &str, seed: u64, trace: bool, capture: bool) -> PassResult {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&a.out_dir);
    if a.smoke {
        cmd.arg("--smoke");
    }
    if !capture {
        let status = cmd.status().expect("the benchmark can start a copy of itself");
        return PassResult { ok: status.success(), metrics: Vec::new() };
    }
    let output =
        cmd.stderr(Stdio::inherit()).output().expect("the benchmark can start a copy of itself");
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    let metrics = text.lines().last().and_then(parse_result).unwrap_or_default();
    PassResult { ok: output.status.success() && !metrics.is_empty(), metrics }
}

/// Read the metrics back out of a child's result line.
fn parse_result(line: &str) -> Option<Vec<Metric>> {
    let doc: serde::Value = serde_json::from_str(line).ok()?;
    let serde::Value::Map(entries) = doc.get("metrics")? else { return None };
    let mut out = Vec::new();
    for (name, body) in entries {
        let value = match body.get("value")? {
            serde::Value::Float(f) => *f,
            serde::Value::UInt(u) => *u as f64,
            serde::Value::Int(i) => *i as f64,
            _ => return None,
        };
        out.push(Metric { name: report::catalogued(name)?, value, samples: 0 });
    }
    Some(out)
}

/// Every workload, end-to-end pass then traced pass.
fn suite(a: &Args) -> ExitCode {
    let mut ok = true;
    for s in selected(a) {
        let passes: &[bool] = if a.smoke { &[false] } else { &[false, true] };
        for &trace in passes {
            ok &= spawn_pass(a, s.name, a.seed, trace, true).ok;
        }
    }
    println!("# {}", if ok { "all output checks passed" } else { "AN OUTPUT CHECK FAILED" });
    exit_code(ok)
}

/// Two sets of runs of the same code, alternating, each run on another
/// seed; per cell the spread of each set (interquartile range over median)
/// and the drift between the sets' medians, against the metric's bound -
/// the acceptance driver's own test.
fn self_check(a: &Args) -> ExitCode {
    let mut ok = true;
    let mut rows = Vec::new();
    for s in selected(a) {
        let mut sets: [Vec<Vec<Metric>>; 2] = [Vec::new(), Vec::new()];
        for run in 0..a.runs {
            for (set, results) in sets.iter_mut().enumerate() {
                let seed = a.seed + run as u64;
                let pass = spawn_pass(a, s.name, seed, false, true);
                ok &= pass.ok;
                eprintln!("self-check: {} set {} run {} done", s.name, ["A", "B"][set], run + 1);
                results.push(pass.metrics);
            }
        }
        for m in END_TO_END {
            let values = |set: &Vec<Vec<Metric>>| -> Vec<f64> {
                set.iter()
                    .filter_map(|r| r.iter().find(|x| x.name == m.name))
                    .map(|x| x.value)
                    .collect()
            };
            let (va, vb) = (values(&sets[0]), values(&sets[1]));
            let (Some(qa), Some(qb)) = (stats::quartiles(&va), stats::quartiles(&vb)) else {
                ok = false;
                continue;
            };
            let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1];
            let worse = if m.better == "lower" { qb[1] - qa[1] } else { qa[1] - qb[1] };
            let drift = worse / qa[1];
            // setup_s is judged on drift alone, as the driver judges it.
            let within = drift <= m.bound
                && (m.name == "setup_s" || (spread(qa) <= m.bound && spread(qb) <= m.bound));
            ok &= within;
            // What the cell held in this self-check: the smallest bound it
            // would have passed under.
            let held = spread(qa).max(spread(qb)).max(drift);
            rows.push(format!(
                "| {} | {} | {} | {:.4} / {:.4} / {:.4} | {:.4} / {:.4} / {:.4} | {:.2}% | {:.2}% | {:+.2}% | {:.2}% | {:.1}% | {} |",
                s.name, m.name, m.unit, qa[0], qa[1], qa[2], qb[0], qb[1], qb[2],
                spread(qa) * 100.0, spread(qb) * 100.0, drift * 100.0, held * 100.0,
                m.bound * 100.0, if within { "ok" } else { "EXCEEDED" }
            ));
        }
    }
    println!("| workload | metric | unit | A: q1 / median / q3 | B: q1 / median / q3 | spread A | spread B | drift B vs A | held | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    for r in rows {
        println!("{r}");
    }
    println!(
        "# self-check: {}",
        if ok { "every cell within its bound" } else { "A CELL EXCEEDED ITS BOUND" }
    );
    exit_code(ok)
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if a.child {
        return child_main(&a);
    }
    print_header(&a);
    if a.self_check {
        return self_check(&a);
    }
    match (&a.workload, a.smoke) {
        (Some(w), false) => exit_code(spawn_pass(&a, w, a.seed, a.trace, false).ok),
        _ => suite(&a),
    }
}

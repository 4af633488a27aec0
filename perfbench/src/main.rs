//! End-to-end benchmark of the `drp solve` and `drp serve` pipelines.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! A run generates the workload's inputs from the seed, then splits
//! `--seconds` over [`WORKERS`] worker processes run one after another,
//! each pinned to one thread: set-up, one untimed warm-up, timed passes,
//! every output checked. A process keeps its speed for seconds to minutes
//! on a shared host, so pooling the passes of several fresh processes
//! steadies the run's medians; host-speed reference kernels run around
//! every timed sample, and the end-to-end times are divided by the
//! slowdown they show (see reference.rs). With `--trace 1` one more
//! worker runs the traced passes. The last stdout line is one JSON object
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! See README.md for the workloads and metrics.

mod measure;
mod reference;
mod serve;
mod solve;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use drp_core::format::write_instance;
use drp_workload::WorkloadSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

use measure::{median, Report, Sample, END_TO_END, PER_LAYER};
use reference::Reference;
use serve::{ServeKind, ServeWorkload};
use solve::{SolveWorkload, Solver};

/// The pinned worker-pool size (`DRP_THREADS`; `ServeConfig::threads` is
/// pinned to the same value in serve.rs).
const THREADS: &str = "1";

/// Worker processes per run; each measures `--seconds / WORKERS`.
const WORKERS: usize = 3;

#[derive(Debug, Clone, Copy)]
enum Workload {
    Solve(SolveWorkload),
    Serve(ServeWorkload),
}

const FAILOVER: ServeKind = ServeKind::FailoverWal;
const INVERSION: ServeKind = ServeKind::RwInversion;

/// Every workload `--workload` accepts. BENCHMARK.json declares the first
/// three; the two single-configuration serve fleets stay for comparing the
/// serving paths one at a time.
///
/// A workload's elasticity is how its pass time grows with the host's
/// slowdown: the slope of log median pass time over log median slowdown
/// across five 30 s runs per declared workload, in which the host's speed
/// varied by 1.6× (solve-gra 1.3, solve-sra-m1000 1.75, serve-mixed 0.9,
/// taken as 1). The single-configuration serve fleets take 1 unfitted.
const WORKLOADS: [(&str, Workload); 5] = [
    (
        "solve-gra",
        Workload::Solve(SolveWorkload {
            sites: 100,
            objects: 200,
            update: 5.0,
            capacity: 15.0,
            solver: Solver::Gra,
            elasticity: 1.3,
        }),
    ),
    (
        "solve-sra-m1000",
        Workload::Solve(SolveWorkload {
            sites: 1000,
            objects: 200,
            update: 0.2,
            capacity: 15.0,
            solver: Solver::Sra,
            elasticity: 1.75,
        }),
    ),
    (
        "serve-mixed",
        Workload::Serve(ServeWorkload {
            sites: 20,
            objects: 30,
            fleet: &[
                FAILOVER, INVERSION, FAILOVER, INVERSION, FAILOVER, INVERSION, FAILOVER,
            ],
            elasticity: 1.0,
        }),
    ),
    (
        "serve-failover-wal",
        Workload::Serve(ServeWorkload {
            sites: 20,
            objects: 30,
            fleet: &[FAILOVER; 6],
            elasticity: 1.0,
        }),
    ),
    (
        "serve-rw-inversion",
        Workload::Serve(ServeWorkload {
            sites: 20,
            objects: 30,
            fleet: &[INVERSION; 4],
            elasticity: 1.0,
        }),
    ),
];

impl Workload {
    fn find(name: &str) -> Result<Workload, String> {
        WORKLOADS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, w)| w)
            .ok_or_else(|| format!("unknown workload `{name}`"))
    }

    /// The paper-generator instance this workload runs on.
    fn spec(&self) -> WorkloadSpec {
        match self {
            Workload::Solve(w) => WorkloadSpec::paper(w.sites, w.objects, w.update, w.capacity),
            Workload::Serve(w) => WorkloadSpec::paper(w.sites, w.objects, 5.0, 15.0),
        }
    }

    fn elasticity(&self) -> f64 {
        match self {
            Workload::Solve(w) => w.elasticity,
            Workload::Serve(w) => w.elasticity,
        }
    }

    fn instances(&self) -> usize {
        match self {
            Workload::Solve(_) => 1,
            Workload::Serve(w) => w.fleet.len(),
        }
    }

    /// Seed of instance `i`: the workload seed itself for the first.
    fn instance_seed(seed: u64, i: usize) -> u64 {
        seed.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    fn loop_model(&self) -> &'static str {
        match self {
            Workload::Solve(_) => "sequential pipeline passes, one at a time",
            Workload::Serve(_) => {
                "batch replay in simulated time: each epoch's whole trace is generated, \
                 admitted and served (neither open- nor closed-loop)"
            }
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run as a worker on the instance files in this directory.
    worker: Option<PathBuf>,
    /// Internal: the static-policy NTC a serve worker divides by.
    frozen_ntc: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        worker: None,
        frozen_ntc: 0,
    };
    let (mut workload, mut seed, mut seconds, mut trace) = (false, false, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => (args.workload, workload) = (value.clone(), true),
            "--seed" => (args.seed, seed) = (value.parse().map_err(|e| bad(&e))?, true),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| bad(&e))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err(bad(&"expected a non-negative number"));
                }
                (args.seconds, seconds) = (s, true);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                };
                trace = true;
            }
            "--worker" => args.worker = Some(PathBuf::from(&value)),
            "--frozen-ntc" => args.frozen_ntc = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(workload && seed && seconds && trace) {
        return Err(
            "usage: perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>".into(),
        );
    }
    Ok(args)
}

/// The commit of the checkout in the working directory, if it is a git
/// checkout.
fn git_commit() -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let git = Path::new(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A per-run scratch directory inside the build directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(workload: &str) -> Result<Self, String> {
        let build = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
        let dir = PathBuf::from(build)
            .join("perfbench-scratch")
            .join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover directory only costs disk space.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn json_metrics(out: &mut String, list: &[(&str, &str)], value: impl Fn(&str) -> Option<f64>) {
    out.push('{');
    for (i, (name, unit)) in list.iter().enumerate() {
        let value = value(name).filter(|v| v.is_finite()).unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
}

/// The merged result of a run's workers.
struct Summary {
    end_to_end: std::collections::BTreeMap<&'static str, f64>,
    /// The timed passes' median and fastest wall time and their median
    /// slowdown: printed, but they follow the host's speed phases, so in
    /// JSON they are per-layer metrics of traced runs.
    raw: [f64; 3],
    /// Timed passes per worker, in run order.
    samples: Vec<Vec<Sample>>,
    attempted: u64,
    failed: u64,
    traced: Option<Report>,
    failures: Vec<String>,
}

fn summarize(
    reports: Vec<Report>,
    traced: Option<Report>,
    mut failures: Vec<String>,
    elasticity: f64,
) -> Summary {
    let first = &reports[0];
    let all: Vec<Sample> = reports
        .iter()
        .flat_map(|r| r.samples.iter().copied())
        .collect();
    let normalised: Vec<f64> = all.iter().map(|s| s.normalised(elasticity)).collect();
    let walls: Vec<f64> = all.iter().map(|s| s.wall).collect();
    let slowdowns: Vec<f64> = all.iter().map(|s| s.slowdown).collect();
    let sum = |f: fn(&Report) -> [u64; 2]| {
        reports
            .iter()
            .map(f)
            .fold([0, 0], |a, b| [a[0] + b[0], a[1] + b[1]])
    };
    let (ok, fresh) = (sum(|r| r.ok), sum(|r| r.fresh));
    let pct = |[num, den]: [u64; 2]| 100.0 * num as f64 / den.max(1) as f64;
    for r in reports.iter().chain(&traced) {
        if r.ntc_ratio != first.ntc_ratio || r.digest != first.digest {
            failures.push("worker processes disagree on the outputs".into());
        }
        failures.extend(r.failures.iter().cloned());
    }
    let pass_norm_s = median(&normalised);
    let raw = [median(&walls), measure::min(&walls), median(&slowdowns)];
    let setup: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.setup.iter().map(|s| s.normalised(elasticity)))
        .collect();
    let end_to_end = [
        ("setup_s", median(&setup)),
        ("pass_norm_s", pass_norm_s),
        ("ntc_ratio", first.ntc_ratio),
        ("ok_pct", pct(ok)),
        ("fresh_pct", pct(fresh)),
        (
            "peak_rss_mb",
            reports.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max),
        ),
    ]
    .into_iter()
    .collect();
    let traced = traced.map(|mut t| {
        let overhead = 100.0 * (t.samples[0].normalised(elasticity) / pass_norm_s - 1.0);
        t.set("trace.overhead_pct", overhead);
        t.set("pass_s", raw[0]);
        t.set("pass_min_s", raw[1]);
        t.set("host.slowdown", raw[2]);
        t
    });
    Summary {
        end_to_end,
        raw,
        samples: reports.iter().map(|r| r.samples.clone()).collect(),
        attempted: all.len() as u64,
        failed: reports.iter().map(|r| r.failed).sum(),
        traced,
        failures,
    }
}

/// Prints the human-readable report and returns the final JSON line.
fn render(args: &Args, w: &Workload, s: &Summary) -> String {
    println!(
        "# perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# env nproc={} threads={} profile={} features=default commit={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        drp_core::pool::WorkerPool::global().threads(),
        if cfg!(debug_assertions) {
            "dev"
        } else {
            "release"
        },
        git_commit()
    );
    println!("# loop: {}", w.loop_model());
    println!(
        "# timed passes: {} in {WORKERS} worker processes, each after one untimed warm-up; \
         pass_s is their median wall time, pass_min_s the fastest; pass_norm_s the median \
         of each pass's wall time over the host's slowdown (the reference kernels' times \
         around the pass over their nominal times) to the power {}",
        s.attempted,
        w.elasticity()
    );
    let by_worker = |f: fn(&Sample) -> f64| {
        s.samples
            .iter()
            .map(|xs| {
                xs.iter()
                    .map(|x| format!("{:.4}", f(x)))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect::<Vec<_>>()
            .join(" | ")
    };
    println!("# pass wall seconds by worker: {}", by_worker(|x| x.wall));
    println!("# host slowdown by worker: {}", by_worker(|x| x.slowdown));
    for (metric, unit) in END_TO_END {
        println!("{metric:<26} {:>16.6} {unit}", s.end_to_end[metric]);
    }
    for (metric, value, note) in [
        ("pass_s", s.raw[0], "s (median pass, wall time)"),
        ("pass_min_s", s.raw[1], "s (fastest pass, wall time)"),
        ("host.slowdown", s.raw[2], "ratio (median)"),
    ] {
        println!("{metric:<26} {value:>16.6} {note}");
    }
    if let Some(t) = &s.traced {
        let total = t.per_layer["trace.pass_s"];
        println!("# traced split of trace.pass_s: disjoint rows that add up to it");
        for (row, value) in &t.split {
            println!(
                "split {row:<26} {value:>12.9} s {:>6.2}%",
                100.0 * value / total
            );
        }
        println!("total trace.pass_s {total:>26.6} s");
        for (row, value) in &t.split_detail {
            println!("detail {row:<25} {value:>12.6} s (part of the rows above, not added)");
        }
        for (metric, unit) in PER_LAYER {
            let value = t.per_layer.get(*metric).copied().unwrap_or(0.0);
            println!("layer {metric:<30} {value:>16.6} {unit}");
        }
    }
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": ",
        s.failures.is_empty(),
        s.attempted,
        s.failed
    );
    match &s.traced {
        Some(t) => json_metrics(&mut json, PER_LAYER, |m| t.per_layer.get(m).copied()),
        None => json_metrics(&mut json, END_TO_END, |m| s.end_to_end.get(m).copied()),
    }
    json.push('}');
    json
}

fn instance_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("instance-{i}.drp"))
}

/// Runs one worker process and reads its report.
fn spawn_worker(
    args: &Args,
    dir: &Path,
    seconds: f64,
    trace: bool,
    frozen_ntc: u64,
) -> Result<Report, String> {
    let out = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .arg("--worker")
        .arg(dir)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args(["--frozen-ntc", &frozen_ntc.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a worker: {e}"))?;
    if !out.status.success() {
        return Err(format!("worker failed: {}", out.status));
    }
    Report::decode(&String::from_utf8_lossy(&out.stdout))
}

fn run_workload(args: &Args) -> Result<ExitCode, String> {
    let w = Workload::find(&args.workload)?;
    let scratch = Scratch::new(&args.workload)?;
    // The inputs are generated here; workers only see the instance files.
    let seeds: Vec<u64> = (0..w.instances())
        .map(|i| Workload::instance_seed(args.seed, i))
        .collect();
    let mut problems = Vec::with_capacity(seeds.len());
    for (i, &seed) in seeds.iter().enumerate() {
        let problem = w
            .spec()
            .generate(&mut StdRng::seed_from_u64(seed))
            .map_err(|e| format!("generating the instance: {e}"))?;
        let path = instance_path(&scratch.0, i);
        std::fs::write(&path, write_instance(&problem))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        problems.push(problem);
    }
    let (frozen, failures) = match &w {
        Workload::Solve(_) => (0, Vec::new()),
        Workload::Serve(s) => serve::references(s, &problems, &seeds)?,
    };
    drop(problems);

    let slice = args.seconds / WORKERS as f64;
    let reports = (0..WORKERS)
        .map(|_| spawn_worker(args, &scratch.0, slice, false, frozen))
        .collect::<Result<Vec<_>, _>>()?;
    let traced = if args.trace {
        Some(spawn_worker(args, &scratch.0, 0.0, true, frozen)?)
    } else {
        None
    };
    let summary = summarize(reports, traced, failures, w.elasticity());
    let json = render(args, &w, &summary);
    let mut failures = summary.failures.clone();
    failures.dedup();
    for f in &failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!("{json}");
    Ok(if summary.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Worker mode: measure, then print the report for the parent.
fn run_worker(args: &Args, dir: &Path) -> Result<ExitCode, String> {
    let w = Workload::find(&args.workload)?;
    let instances: Vec<(PathBuf, u64)> = (0..w.instances())
        .map(|i| (instance_path(dir, i), Workload::instance_seed(args.seed, i)))
        .collect();
    let reference = Reference::new();
    let mut report = match &w {
        Workload::Solve(s) => solve::worker(
            s,
            &instances[0].0,
            args.seed,
            args.seconds,
            args.trace,
            &reference,
        ),
        Workload::Serve(s) => serve::worker(
            s,
            &instances,
            dir,
            args.frozen_ntc,
            args.seconds,
            args.trace,
            &reference,
        ),
    }?;
    // The reference kernels' inputs are the benchmark's, not the program's.
    report.peak_rss_mb = measure::peak_rss_mb() - reference.resident_mb();
    print!("{}", report.encode());
    Ok(ExitCode::SUCCESS)
}

/// `--workload all`: every workload in its own child process, one after
/// the other; fails if any of them does.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut code = ExitCode::SUCCESS;
    for (name, _) in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("spawning {name}: {e}"))?;
        if !status.success() {
            eprintln!("perfbench: {name} failed: {status}");
            code = ExitCode::FAILURE;
        }
    }
    Ok(code)
}

fn main() -> ExitCode {
    // Pin the worker pool before anything initialises it.
    std::env::set_var("DRP_THREADS", THREADS);
    let result = parse_args().and_then(|args| match &args.worker {
        Some(dir) => run_worker(&args, dir),
        None if args.workload == "all" => run_all(&args),
        None => run_workload(&args),
    });
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    })
}

//! The `drp solve` pipeline: instance text → `read_instance` → solver →
//! `SolutionReport` → `write_scheme`, as the CLI runs it in one process.

use std::sync::Arc;
use std::time::Duration;

use drp_algo::{Gra, Sra};
use drp_core::format::{read_instance, read_scheme, write_scheme};
use drp_core::telemetry::{InMemoryRecorder, Recorder};
use drp_core::{Problem, ReplicationAlgorithm, ReplicationScheme, SolutionReport};
use drp_net::CostMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::measure::{self, median_index, timed, Report, Sample, TRACED_PASSES};
use crate::reference::Reference;

/// Which solver a solve workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solver {
    /// Genetic Replication Algorithm, paper defaults (pop 50, gens 80).
    Gra,
    /// Static Replication Algorithm.
    Sra,
}

/// One solve workload: a paper-generator instance and a solver.
#[derive(Debug, Clone, Copy)]
pub struct SolveWorkload {
    pub sites: usize,
    pub objects: usize,
    /// Update ratio in percent (`drp generate --update`).
    pub update: f64,
    /// Capacity in percent of the total object size (`--capacity`).
    pub capacity: f64,
    pub solver: Solver,
    /// How the pass time grows with the host's slowdown (see
    /// [`crate::measure::Sample::normalised`]).
    pub elasticity: f64,
}

/// What one pass hands to the checks.
struct PassOut {
    problem: Problem,
    scheme: ReplicationScheme,
    report: SolutionReport,
    text: String,
}

/// Layer timings of one traced pass, in seconds.
struct Traced {
    pass: f64,
    /// The host's slowdown around the pass.
    slowdown: f64,
    read: f64,
    solve: f64,
    write: f64,
    out: PassOut,
    recorder: Arc<InMemoryRecorder>,
}

fn solver_for(
    kind: Solver,
    recorder: Option<&Arc<InMemoryRecorder>>,
) -> Box<dyn ReplicationAlgorithm> {
    match (kind, recorder) {
        (Solver::Gra, None) => Box::new(Gra::new()),
        (Solver::Gra, Some(rec)) => {
            Box::new(Gra::new().with_recorder(Arc::clone(rec) as Arc<dyn Recorder>))
        }
        (Solver::Sra, None) => Box::new(Sra::new()),
        (Solver::Sra, Some(rec)) => Box::new(RecordedSra(Arc::clone(rec))),
    }
}

/// Routes the trait-object call to [`Sra::solve_recorded`].
struct RecordedSra(Arc<InMemoryRecorder>);

impl ReplicationAlgorithm for RecordedSra {
    fn name(&self) -> &str {
        "SRA"
    }

    fn solve(
        &self,
        problem: &Problem,
        rng: &mut dyn rand::RngCore,
    ) -> drp_core::Result<ReplicationScheme> {
        Sra::new().solve_recorded(problem, rng, self.0.as_ref())
    }
}

/// One pipeline pass; returns the layer times `(read, solve, write)`.
fn pass(
    text: &str,
    solver: &dyn ReplicationAlgorithm,
    seed: u64,
) -> Result<((f64, f64, f64), PassOut), String> {
    let (read, problem) = timed(|| read_instance(text));
    let problem = problem.map_err(|e| format!("read_instance: {e}"))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let (solve, scheme) = timed(|| solver.solve(&problem, &mut rng));
    let scheme = scheme.map_err(|e| format!("{}: {e}", solver.name()))?;
    let report = SolutionReport::evaluate(
        solver.name(),
        &problem,
        &scheme,
        Duration::from_secs_f64(solve),
    );
    let (write, text) = timed(|| write_scheme(&scheme));
    Ok((
        (read, solve, write),
        PassOut {
            problem,
            scheme,
            report,
            text,
        },
    ))
}

/// The per-pass checks. Returns whether the written scheme read back as
/// the solver's scheme (freshness) and every failed check.
fn check(out: &PassOut, reference: &str) -> (bool, Vec<String>) {
    let mut failures = Vec::new();
    let mut fresh = false;
    match read_scheme(&out.text, &out.problem) {
        Err(e) => failures.push(format!("written scheme does not read back: {e}")),
        Ok(reread) => {
            if let Err(e) = reread.validate(&out.problem) {
                failures.push(format!("scheme breaks a primary or capacity: {e}"));
            }
            let cost = out.problem.total_cost(&reread);
            if cost != out.report.cost {
                failures.push(format!(
                    "re-read scheme costs {cost}, solver reported {}",
                    out.report.cost
                ));
            }
            fresh = reread == out.scheme;
            if !fresh {
                failures.push("re-read scheme differs from the solver's".into());
            }
        }
    }
    if out.text != reference {
        failures.push("pass produced a different scheme than the first pass".into());
    }
    (fresh, failures)
}

fn traced_pass(
    text: &str,
    kind: Solver,
    seed: u64,
    reference: &Reference,
) -> Result<Traced, String> {
    let recorder = Arc::new(InMemoryRecorder::new());
    let solver = solver_for(kind, Some(&recorder));
    let (sample, result) = measure::reference_pass(reference, || pass(text, solver.as_ref(), seed));
    let ((read, solve, write), out) = result?;
    Ok(Traced {
        pass: sample.wall,
        slowdown: sample.slowdown,
        read,
        solve,
        write,
        out,
        recorder,
    })
}

/// Fastest seconds of `CostMatrix::from_rows` and of `Problem::build` on
/// the parsed instance: the two parts of `read_instance` the split names.
fn validate_and_build(problem: &Problem) -> Result<(f64, f64), String> {
    let m = problem.num_sites();
    let flat: Vec<u64> = (0..m)
        .flat_map(|i| problem.costs().row(i).to_vec())
        .collect();
    let (mut validate, mut build) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..TRACED_PASSES {
        let rows = flat.clone();
        let (dt, costs) = timed(|| CostMatrix::from_rows(m, rows));
        validate = validate.min(dt);
        let costs = costs.map_err(|e| format!("from_rows: {e}"))?;
        let mut builder = Problem::builder(costs);
        builder.objects_bulk(
            problem.objects().map(|k| problem.object_size(k)).collect(),
            problem.objects().map(|k| problem.primary(k)).collect(),
        );
        builder.capacities(problem.sites().map(|i| problem.capacity(i)).collect());
        builder.read_matrix(problem.read_matrix().clone());
        builder.write_matrix(problem.write_matrix().clone());
        let (dt, rebuilt) = timed(|| builder.build());
        build = build.min(dt);
        if rebuilt.map_err(|e| format!("build: {e}"))? != *problem {
            return Err("rebuilt problem differs from the parsed one".into());
        }
    }
    Ok((validate, build))
}

/// One worker: set-up, an untimed warm-up pass, then either timed passes
/// for `seconds` or, with `trace`, the traced passes and their split.
pub fn worker(
    w: &SolveWorkload,
    path: &std::path::Path,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: &Reference,
) -> Result<Report, String> {
    let mut report = Report::default();
    let load = || {
        drp_core::pool::WorkerPool::global();
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
    };
    let text = measure::time_setup(&mut report.setup, reference, load)?;

    // Untimed warm-up pass; its scheme is the reference every pass matches.
    let solver = solver_for(w.solver, None);
    let (_, warm) = pass(&text, solver.as_ref(), seed)?;
    let expected = warm.text.clone();
    report.digest = measure::fnv(measure::FNV_START, expected.as_bytes());
    report.ntc_ratio = warm.report.cost as f64 / warm.problem.d_prime() as f64;
    drop(warm);

    if trace {
        let mut runs = Vec::with_capacity(TRACED_PASSES);
        for _ in 0..TRACED_PASSES {
            runs.push(traced_pass(&text, w.solver, seed, reference)?);
        }
        let passes: Vec<f64> = runs.iter().map(|t| t.pass).collect();
        let fastest_read = measure::min(&runs.iter().map(|t| t.read).collect::<Vec<_>>());
        let t = runs.swap_remove(median_index(&passes));
        report.samples = vec![Sample {
            wall: t.pass,
            slowdown: t.slowdown,
        }];
        report.failures.extend(check(&t.out, &expected).1);
        // `read_instance` validates and builds internally, so its time in
        // the traced pass is split in the proportions of the fastest
        // separately timed runs of each part.
        let (validate, build) = validate_and_build(&t.out.problem)?;
        let whole = fastest_read.max(validate + build);
        let (validate, build) = (t.read * validate / whole, t.read * build / whole);
        split(&mut report, w, &t, text.len(), validate, build);
        return Ok(report);
    }

    let (mut ok, mut fresh) = (0u64, 0u64);
    report.samples = measure::timed_passes(seconds, |_| {
        let (sample, result) =
            measure::reference_pass(reference, || pass(&text, solver.as_ref(), seed));
        match result {
            Ok((_, out)) => {
                let (is_fresh, failures) = check(&out, &expected);
                ok += u64::from(failures.is_empty());
                fresh += u64::from(is_fresh);
                report.failures.extend(failures);
            }
            Err(e) => report.failures.push(e),
        }
        if let Err(e) = measure::time_setup(&mut report.setup, reference, load) {
            report.failures.push(e);
        }
        sample
    });
    let passes = report.samples.len() as u64;
    report.failed = passes - ok;
    report.ok = [ok, passes];
    report.fresh = [fresh, passes];
    Ok(report)
}

/// Fills the per-layer metrics and the split of one traced pass.
fn split(
    report: &mut Report,
    w: &SolveWorkload,
    t: &Traced,
    text_bytes: usize,
    validate: f64,
    build: f64,
) {
    let rec = t.recorder.as_ref();
    let parse = (t.read - validate - build).max(0.0);
    let unattributed = t.pass - t.read - t.solve - t.write;
    for (name, value) in [
        ("format.read_instance_s", t.read),
        ("format.parse_s", parse),
        ("format.write_scheme_s", t.write),
        ("format.mb_per_s", text_bytes as f64 / 1e6 / t.read),
        ("cost.validate_s", validate),
        ("cost.validate_share_pct", 100.0 * validate / t.pass),
        ("problem.build_s", build),
        ("trace.pass_s", t.pass),
        ("trace.unattributed_s", unattributed),
    ] {
        report.set(name, value);
    }
    let ga = measure::solver_counters(report, rec);

    let mut rows = vec![
        ("format.parse_s", parse),
        ("cost.validate_s", validate),
        ("problem.build_s", build),
    ];
    match w.solver {
        Solver::Sra => {
            report.set("sra.solve_s", t.solve);
            report.set("sra.sweeps", rec.span_count("sra.sweep") as f64);
            report.set("sra.replicas", t.out.scheme.extra_replica_count() as f64);
            rows.push(("sra.solve_s", t.solve));
        }
        Solver::Gra => {
            let unspanned = t.solve - ga.iter().sum::<f64>();
            report.set("gra.solve_s", t.solve);
            report.set("gra.unspanned_s", unspanned);
            rows.extend([
                ("ga.evaluate_s", ga[0]),
                ("ga.selection_s", ga[1]),
                ("ga.crossover_s", ga[2]),
                ("ga.mutation_s", ga[3]),
                ("gra.unspanned_s", unspanned),
            ]);
        }
    }
    rows.push(("format.write_scheme_s", t.write));
    rows.push(("trace.unattributed_s", unattributed));
    report.split = rows.into_iter().map(|(n, v)| (n.to_string(), v)).collect();
    report.split_detail = vec![("format.read_instance_s".to_string(), t.read)];
}

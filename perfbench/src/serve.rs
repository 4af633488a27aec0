//! The `drp serve` pipeline: `run_service*` over parsed instances, each
//! epoch's whole trace generated, admitted and served in simulated time
//! (a batch replay: neither an open nor a closed loop).
//!
//! One pass serves a small fleet of independent instances back to back.
//! A single 20-site, 30-object instance is too small to be typical: across
//! seeds its request volume and NTC ratio vary by ±30%, so a pass sums
//! over several instances derived from the seed. A fleet may mix the two
//! service configurations.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use drp_core::format::read_instance;
use drp_core::telemetry::{InMemoryRecorder, Recorder};
use drp_core::{DenseMatrix, Problem};
use drp_serve::{
    ingest_epoch, run_service, run_service_durable, run_service_durable_recorded,
    run_service_recorded, EpochReport, FaultSpec, FileWalStore, HotKeyConfig, IngestScratch,
    IngestSpec, Policy, ServeConfig, ServiceReport, WalStore, WalTuning,
};
use drp_workload::{PatternChange, Scenario};

use crate::measure::{self, median, median_index, span_s, timed, Report, Sample, TRACED_PASSES};
use crate::reference::Reference;

/// The two service configurations an instance can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    /// Monitor policy under drift, crash windows and a file-backed WAL.
    FailoverWal,
    /// Predictive EWMA policy plus hot-key boosts, read-write inversion.
    RwInversion,
}

/// One serve workload: a fleet of paper-generator instances, each with
/// its service configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeWorkload {
    pub sites: usize,
    pub objects: usize,
    /// The configuration of each instance served per pass, in order.
    pub fleet: &'static [ServeKind],
    /// How the pass time grows with the host's slowdown (see
    /// [`crate::measure::Sample::normalised`]).
    pub elasticity: f64,
}

impl ServeKind {
    /// The service configuration of an instance seeded `seed`, with one
    /// ingest thread.
    pub fn config(self, seed: u64) -> ServeConfig {
        let base = ServeConfig {
            period: 256,
            seed,
            threads: 1,
            ..ServeConfig::default()
        };
        match self {
            ServeKind::FailoverWal => ServeConfig {
                policy: Policy::Monitor,
                epochs: 4,
                night_every: 3,
                drift: Some(PatternChange {
                    change_percent: 500.0,
                    objects_percent: 40.0,
                    read_share: 0.9,
                }),
                faults: Some(FaultSpec {
                    crashes: vec![(1, 40, 160), (10, 100, 220)],
                    drop_probability: 0.0,
                    jitter: 0,
                }),
                wal: WalTuning {
                    checkpoint_every: 2,
                },
                ..base
            },
            ServeKind::RwInversion => ServeConfig {
                policy: Policy::PredictiveEwma,
                epochs: 6,
                scenario: Some(Scenario::ReadWriteInversion),
                hot: Some(HotKeyConfig::default()),
                ..base
            },
        }
    }
}

/// Counts and seconds of the WAL calls of a traced pass.
#[derive(Debug, Default)]
struct WalStats {
    appends: u64,
    resets: u64,
    bytes: u64,
    seconds: f64,
}

/// A [`WalStore`] that counts and times every call into the file store.
struct TimedStore<'a> {
    inner: FileWalStore,
    stats: &'a mut WalStats,
}

impl TimedStore<'_> {
    fn time<T>(&mut self, f: impl FnOnce(&mut FileWalStore) -> T) -> T {
        let (dt, out) = timed(|| f(&mut self.inner));
        self.stats.seconds += dt;
        out
    }
}

impl WalStore for TimedStore<'_> {
    fn load(&mut self) -> io::Result<Vec<u8>> {
        self.time(FileWalStore::load)
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stats.appends += 1;
        self.stats.bytes += bytes.len() as u64;
        self.time(|s| s.append(bytes))
    }

    fn reset(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stats.resets += 1;
        self.stats.bytes += bytes.len() as u64;
        self.time(|s| s.reset(bytes))
    }
}

/// Inputs shared by every pass of one run: one config per instance.
struct Run<'a> {
    problems: &'a [Problem],
    kinds: &'a [ServeKind],
    configs: Vec<ServeConfig>,
    scratch: &'a Path,
}

/// Pass number of the untimed warm-up (it only names WAL directories).
const WARM_UP: usize = usize::MAX;

impl Run<'_> {
    fn wal_dir(&self, pass: usize, instance: usize) -> PathBuf {
        let pid = std::process::id();
        self.scratch.join(format!("wal-{pid}-{pass}-{instance}"))
    }

    fn open_wal(&self, pass: usize, instance: usize) -> Result<FileWalStore, String> {
        FileWalStore::open(&self.wal_dir(pass, instance))
            .map_err(|e| format!("opening the WAL: {e}"))
    }

    /// Serves instance `i` once; the WAL workload journals to a fresh
    /// directory. A traced call passes a recorder and WAL counters.
    fn serve(
        &self,
        pass: usize,
        i: usize,
        traced: Option<(&Arc<InMemoryRecorder>, &mut WalStats)>,
    ) -> Result<ServiceReport, String> {
        let (problem, config) = (&self.problems[i], &self.configs[i]);
        match (self.kinds[i], traced) {
            (ServeKind::RwInversion, None) => run_service(problem, config),
            (ServeKind::RwInversion, Some((rec, _))) => {
                run_service_recorded(problem, config, Arc::clone(rec) as Arc<dyn Recorder>)
            }
            (ServeKind::FailoverWal, None) => {
                run_service_durable(problem, config, &mut self.open_wal(pass, i)?).map(|o| o.report)
            }
            (ServeKind::FailoverWal, Some((rec, stats))) => {
                let mut store = TimedStore {
                    inner: self.open_wal(pass, i)?,
                    stats,
                };
                let rec = Arc::clone(rec) as Arc<dyn Recorder>;
                run_service_durable_recorded(problem, config, &mut store, rec).map(|o| o.report)
            }
        }
        .map_err(|e| format!("service run: {e}"))
    }

    /// One pass: every instance served once.
    fn pass(
        &self,
        pass: usize,
        mut traced: Option<(&Arc<InMemoryRecorder>, &mut WalStats)>,
    ) -> Result<Vec<ServiceReport>, String> {
        (0..self.problems.len())
            .map(|i| {
                let traced = traced.as_mut().map(|(rec, stats)| (*rec, &mut **stats));
                self.serve(pass, i, traced)
            })
            .collect()
    }

    /// One untraced pass with a run of `reference` before the first
    /// instance and after each: a pass lasts seconds, so each instance's
    /// wall time is normalised by the slowdown around that instance alone,
    /// and the sample's slowdown is the one that normalises the whole pass
    /// to the sum.
    fn timed_pass(
        &self,
        pass: usize,
        reference: &Reference,
        elasticity: f64,
    ) -> (Sample, Result<Vec<ServiceReport>, String>) {
        let (mut wall, mut normalised) = (0.0, 0.0);
        let mut before = reference.slowdown();
        let mut reports = Vec::with_capacity(self.problems.len());
        for i in 0..self.problems.len() {
            let (dt, report) = timed(|| self.serve(pass, i, None));
            let after = reference.slowdown();
            wall += dt;
            normalised += Sample {
                wall: dt,
                slowdown: (before + after) / 2.0,
            }
            .normalised(elasticity);
            before = after;
            match report {
                Ok(report) => reports.push(report),
                Err(e) => {
                    return (
                        Sample {
                            wall,
                            slowdown: 1.0,
                        },
                        Err(e),
                    )
                }
            }
        }
        let slowdown = (wall / normalised).powf(elasticity.recip());
        (Sample { wall, slowdown }, Ok(reports))
    }

    /// The per-pass checks; a WAL pass's directories are removed afterwards.
    fn check(&self, pass: usize, reports: &[ServiceReport], references: &[u64]) -> Vec<String> {
        let mut failures = Vec::new();
        for (i, (report, &reference)) in reports.iter().zip(references).enumerate() {
            let tag = |f: String| format!("instance {i}: {f}");
            failures.extend(conservation(report).into_iter().map(tag));
            if report.fingerprint() != reference {
                failures.push(tag(format!(
                    "fingerprint {:016x} differs from the first pass's {reference:016x}",
                    report.fingerprint()
                )));
            }
            if self.kinds[i] == ServeKind::FailoverWal {
                let reopened = self.open_wal(pass, i).and_then(|mut store| {
                    run_service_durable(&self.problems[i], &self.configs[i], &mut store)
                        .map_err(|e| e.to_string())
                });
                match reopened {
                    Ok(o) if o.recovery.is_some() && o.report.fingerprint() == reference => {}
                    Ok(_) => failures.push(tag(
                        "reopening the finished WAL did not reproduce the run".into(),
                    )),
                    Err(e) => failures.push(tag(format!("reopening the finished WAL: {e}"))),
                }
                // Best effort: a leftover directory only costs disk space.
                let _ = std::fs::remove_dir_all(self.wal_dir(pass, i));
            }
        }
        failures
    }
}

/// Per-epoch request conservation.
fn conservation(report: &ServiceReport) -> Vec<String> {
    let mut failures = Vec::new();
    for e in &report.epochs {
        let epoch = e.epoch;
        if e.offered != e.admitted + e.shed {
            failures.push(format!("epoch {epoch}: offered != admitted + shed"));
        }
        if e.admitted != e.reads_issued + e.writes_issued {
            failures.push(format!("epoch {epoch}: admitted != reads + writes"));
        }
        if e.reads_served > e.reads_issued || e.reads_issued != e.reads_served + e.reads_lost {
            failures.push(format!("epoch {epoch}: reads issued != served + lost"));
        }
        if e.writes_committed > e.writes_issued
            || e.writes_issued != e.writes_committed + e.writes_lost
        {
            failures.push(format!("epoch {epoch}: writes issued != committed + lost"));
        }
        if e.reads_stale > e.reads_served {
            failures.push(format!("epoch {epoch}: more stale reads than served"));
        }
    }
    failures
}

/// Sum of `f` over every epoch of every report.
fn total(reports: &[ServiceReport], f: impl Fn(&EpochReport) -> u64) -> u64 {
    reports.iter().flat_map(|r| &r.epochs).map(f).sum()
}

/// `(succeeded, issued, fresh reads, served reads)` over a pass.
fn tally(reports: &[ServiceReport]) -> (u64, u64, u64, u64) {
    (
        total(reports, |e| e.reads_served + e.writes_committed),
        total(reports, |e| e.reads_issued + e.writes_issued),
        total(reports, |e| e.reads_served - e.reads_stale),
        total(reports, |e| e.reads_served),
    )
}

/// One `ingest_epoch` call on an instance with its period and seed;
/// returns its seconds and any per-site conservation failure.
fn ingest_once(problem: &Problem, config: &ServeConfig) -> (f64, Result<(), String>) {
    let (m, n) = (problem.num_sites(), problem.num_objects());
    let mut scratch = IngestScratch::new();
    let mut reads = DenseMatrix::zeros(m, n);
    let mut writes = DenseMatrix::zeros(m, n);
    let spec = IngestSpec {
        problem,
        period: config.period,
        seed: config.seed,
        admission_limit: config.admission_limit,
        threads: 1,
        batch: 0,
        depth: 0,
    };
    let (dt, out) = timed(|| ingest_epoch(&spec, &mut scratch, &mut reads, &mut writes));
    let r = &out.report;
    let queued: u64 = scratch.queues.iter().map(|q| q.len() as u64).sum();
    let ok = if !r.balanced() {
        Err("ingest: some site has offered != admitted + shed".into())
    } else if queued != r.admitted() || out.admitted_reads + out.admitted_writes != queued {
        Err("ingest: queued requests differ from the admitted count".into())
    } else {
        Ok(())
    };
    (dt, ok)
}

/// The parent's untimed references: the summed NTC of every instance
/// under the `static` policy without hot-key boosts (a frozen placement),
/// and any per-site `ingest_epoch` conservation failure.
pub fn references(
    w: &ServeWorkload,
    problems: &[Problem],
    seeds: &[u64],
) -> Result<(u64, Vec<String>), String> {
    let mut frozen = 0;
    let mut failures = Vec::new();
    for ((problem, &seed), kind) in problems.iter().zip(seeds).zip(w.fleet) {
        let config = ServeConfig {
            policy: Policy::Static,
            hot: None,
            ..kind.config(seed)
        };
        let report =
            run_service(problem, &config).map_err(|e| format!("static reference run: {e}"))?;
        frozen += report.totals.total_ntc;
        if let Err(e) = ingest_once(problem, &config).1 {
            failures.push(e);
        }
    }
    Ok((frozen, failures))
}

/// One worker on the instance files, each with its seed (WAL directories
/// under `scratch`): set-up, an untimed
/// warm-up serving the first instance, then either timed passes for
/// `seconds` or, with `trace`, the traced passes and their split.
/// `frozen_ntc` is the parent's static-policy reference.
pub fn worker(
    w: &ServeWorkload,
    instances: &[(PathBuf, u64)],
    scratch: &Path,
    frozen_ntc: u64,
    seconds: f64,
    trace: bool,
    reference: &Reference,
) -> Result<Report, String> {
    let mut report = Report::default();
    let load = || {
        drp_core::pool::WorkerPool::global();
        instances
            .iter()
            .map(|(path, _)| {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("reading {}: {e}", path.display()))?;
                read_instance(&text).map_err(|e| format!("read_instance: {e}"))
            })
            .collect::<Result<Vec<Problem>, String>>()
    };
    let problems = measure::time_setup(&mut report.setup, reference, load)?;
    let run = Run {
        problems: &problems,
        configs: instances
            .iter()
            .zip(w.fleet)
            .map(|(&(_, seed), k)| k.config(seed))
            .collect(),
        kinds: w.fleet,
        scratch,
    };
    run.serve(WARM_UP, 0, None)?;
    // Best effort: a leftover directory only costs disk space.
    let _ = std::fs::remove_dir_all(run.wal_dir(WARM_UP, 0));

    if trace {
        traced(&mut report, &run, frozen_ntc, reference)?;
        return Ok(report);
    }

    // The first pass's fingerprints are the references later passes match.
    let mut references = Vec::new();
    let (mut succeeded, mut issued, mut fresh, mut served, mut ok) = (0u64, 0u64, 0u64, 0u64, 0u64);
    report.samples = measure::timed_passes(seconds, |i| {
        let (sample, reports) = run.timed_pass(i, reference, w.elasticity);
        let failures = match &reports {
            Ok(reports) => {
                if references.is_empty() {
                    references = reports.iter().map(ServiceReport::fingerprint).collect();
                    report.ntc_ratio = ntc_ratio(reports, frozen_ntc);
                }
                run.check(i, reports, &references)
            }
            Err(e) => vec![e.clone()],
        };
        if let Ok(reports) = &reports {
            // A pass that fails a check counts all of its operations as failed.
            let (s, n, f, r) = tally(reports);
            if failures.is_empty() {
                ok += 1;
                (succeeded, fresh) = (succeeded + s, fresh + f);
            }
            (issued, served) = (issued + n, served + r);
        }
        report.failures.extend(failures);
        if let Err(e) = measure::time_setup(&mut report.setup, reference, load) {
            report.failures.push(e);
        }
        sample
    });
    report.failed = report.samples.len() as u64 - ok;
    report.ok = [succeeded, issued];
    report.fresh = [fresh, served];
    report.digest = digest(&references);
    Ok(report)
}

/// The pass's summed NTC over the frozen-placement reference.
fn ntc_ratio(reports: &[ServiceReport], frozen_ntc: u64) -> f64 {
    let online: u64 = reports.iter().map(|r| r.totals.total_ntc).sum();
    online as f64 / frozen_ntc as f64
}

fn digest(fingerprints: &[u64]) -> u64 {
    fingerprints
        .iter()
        .fold(measure::FNV_START, |h, f| measure::fnv(h, &f.to_le_bytes()))
}

/// The traced passes: per-layer metrics and the split of the median one.
fn traced(
    report: &mut Report,
    run: &Run<'_>,
    frozen_ntc: u64,
    reference: &Reference,
) -> Result<(), String> {
    let mut runs = Vec::with_capacity(TRACED_PASSES);
    let mut references = Vec::new();
    for i in 0..TRACED_PASSES {
        let recorder = Arc::new(InMemoryRecorder::new());
        let mut wal = WalStats::default();
        let (sample, reports) =
            measure::reference_pass(reference, || run.pass(i, Some((&recorder, &mut wal))));
        let reports = reports?;
        if references.is_empty() {
            references = reports.iter().map(ServiceReport::fingerprint).collect();
            report.ntc_ratio = ntc_ratio(&reports, frozen_ntc);
        }
        report.failures.extend(run.check(i, &reports, &references));
        runs.push((sample, reports, wal, recorder));
    }
    report.digest = digest(&references);
    let passes: Vec<f64> = runs.iter().map(|r| r.0.wall).collect();
    let (sample, reports, wal, recorder) = runs.swap_remove(median_index(&passes));
    report.samples = vec![sample];
    let pass = sample.wall;
    let rec = recorder.as_ref();

    let mut ingest = Vec::with_capacity(TRACED_PASSES);
    for _ in 0..TRACED_PASSES {
        let (dt, ok) = ingest_once(&run.problems[0], &run.configs[0]);
        ok?;
        ingest.push(dt);
    }
    let ingest_s = median(&ingest);

    let run_s = span_s(rec, "serve.run");
    let epoch_s = span_s(rec, "serve.epoch");
    let sim_s = span_s(rec, "sim.run");
    let bootstrap = run_s - epoch_s;
    let unspanned = epoch_s - sim_s;
    let unattributed = pass - run_s;
    let admitted = total(&reports, |e| e.admitted);
    let totals = |f: fn(&ServiceReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let summed = |f: fn(&EpochReport) -> u64| total(&reports, f) as f64;
    let count = |name: &str| rec.counter(name) as f64;
    let events = count("sim.events");
    let messages = count("sim.messages");
    measure::solver_counters(report, rec);
    for (name, value) in [
        ("serve.run_s", run_s),
        ("serve.bootstrap_s", bootstrap),
        ("serve.epoch_s", epoch_s),
        ("serve.epoch_unspanned_s", unspanned),
        ("serve.adaptations", totals(|r| r.totals.adaptations)),
        ("serve.rebuilds", totals(|r| r.totals.rebuilds)),
        ("sim.run_s", sim_s),
        ("sim.events", events),
        ("sim.messages", messages),
        ("sim.events_per_s", events / sim_s),
        (
            "sim.messages_per_request",
            messages / admitted.max(1) as f64,
        ),
        ("ingest.offered", count("ingest.offered")),
        ("ingest.admitted", count("ingest.admitted")),
        ("ingest.shed", count("ingest.shed")),
        ("ingest.batches", count("ingest.batches")),
        ("ingest.epoch_s", ingest_s),
        ("migration.moves", totals(|r| r.totals.migration_moves)),
        (
            "migration.installed",
            summed(|e| e.migration_installed as u64),
        ),
        (
            "migration.deferred",
            summed(|e| e.migration_deferred as u64),
        ),
        ("migration.retries", summed(|e| e.migration_retries)),
        ("migration.ntc", totals(|r| r.totals.migration_ntc)),
        ("fault.crashes", count("fault.crashes")),
        ("serve.reads_lost", totals(|r| r.totals.reads_lost)),
        ("serve.reads_stale", totals(|r| r.totals.reads_stale)),
        ("sim.messages_lost", summed(|e| e.messages_lost)),
        ("hot.promotions", totals(|r| r.totals.hot_promotions)),
        ("hot.demotions", totals(|r| r.totals.hot_demotions)),
        ("serve.hot_boosts_added", count("serve.hot_boosts_added")),
        (
            "serve.hot_boosts_removed",
            count("serve.hot_boosts_removed"),
        ),
        ("wal.appends", wal.appends as f64),
        ("wal.resets", wal.resets as f64),
        ("wal.bytes", wal.bytes as f64),
        ("wal.store_s", wal.seconds),
        (
            "wal.bytes_per_request",
            wal.bytes as f64 / admitted.max(1) as f64,
        ),
        ("trace.pass_s", pass),
        ("trace.unattributed_s", unattributed),
    ] {
        report.set(name, value);
    }
    let named = |rows: &[(&str, f64)]| rows.iter().map(|&(n, v)| (n.to_string(), v)).collect();
    report.split = named(&[
        ("serve.bootstrap_s", bootstrap),
        ("sim.run_s", sim_s),
        ("serve.epoch_unspanned_s", unspanned),
        ("trace.unattributed_s", unattributed),
    ]);
    report.split_detail = named(&[
        ("serve.run_s", run_s),
        ("serve.epoch_s", epoch_s),
        ("ingest.epoch_s", ingest_s),
    ]);
    if run.kinds.contains(&ServeKind::FailoverWal) {
        report
            .split_detail
            .push(("wal.store_s".into(), wal.seconds));
    }
    Ok(())
}

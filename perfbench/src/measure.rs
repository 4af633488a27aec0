//! Timing, summaries, and the report a worker process hands its parent.

use std::collections::BTreeMap;
use std::time::Instant;

use drp_core::telemetry::InMemoryRecorder;

use crate::reference::Reference;

/// Set-up is timed this many times when a worker starts and again after
/// each timed pass, so its samples span the run like the passes do.
pub const SETUP_REPS: usize = 5;
/// Traced passes per traced run; the split comes from the median one.
pub const TRACED_PASSES: usize = 3;

/// Every per-layer metric, by name and unit. A traced run prints all of
/// them on every workload (0 where the layer did not run), in this order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("format.read_instance_s", "s"),
    ("format.parse_s", "s"),
    ("format.write_scheme_s", "s"),
    ("format.mb_per_s", "MB/s"),
    ("cost.validate_s", "s"),
    ("cost.validate_share_pct", "%"),
    ("problem.build_s", "s"),
    ("sra.solve_s", "s"),
    ("sra.sweeps", "count"),
    ("sra.replicas", "count"),
    ("gra.solve_s", "s"),
    ("gra.unspanned_s", "s"),
    ("ga.generations", "count"),
    ("ga.evaluations", "count"),
    ("ga.evaluate_s", "s"),
    ("ga.selection_s", "s"),
    ("ga.crossover_s", "s"),
    ("ga.mutation_s", "s"),
    ("ga.ns_per_evaluation", "ns"),
    ("evaluator.flips", "count"),
    ("evaluator.rescans", "count"),
    ("evaluator.rescan_ratio", "ratio"),
    ("serve.run_s", "s"),
    ("serve.bootstrap_s", "s"),
    ("serve.epoch_s", "s"),
    ("serve.epoch_unspanned_s", "s"),
    ("serve.adaptations", "count"),
    ("serve.rebuilds", "count"),
    ("sim.run_s", "s"),
    ("sim.events", "count"),
    ("sim.messages", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.messages_per_request", "ratio"),
    ("ingest.offered", "count"),
    ("ingest.admitted", "count"),
    ("ingest.shed", "count"),
    ("ingest.batches", "count"),
    ("ingest.epoch_s", "s"),
    ("migration.moves", "count"),
    ("migration.installed", "count"),
    ("migration.deferred", "count"),
    ("migration.retries", "count"),
    ("migration.ntc", "cost"),
    ("fault.crashes", "count"),
    ("serve.reads_lost", "count"),
    ("serve.reads_stale", "count"),
    ("sim.messages_lost", "count"),
    ("hot.promotions", "count"),
    ("hot.demotions", "count"),
    ("serve.hot_boosts_added", "count"),
    ("serve.hot_boosts_removed", "count"),
    ("wal.appends", "count"),
    ("wal.resets", "count"),
    ("wal.bytes", "bytes"),
    ("wal.store_s", "s"),
    ("wal.bytes_per_request", "bytes"),
    ("pass_s", "s"),
    ("pass_min_s", "s"),
    ("host.slowdown", "ratio"),
    ("trace.pass_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// Every end-to-end metric, by name and unit, in print order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_norm_s", "s"),
    ("ntc_ratio", "ratio"),
    ("ok_pct", "%"),
    ("fresh_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// One timed pass or set-up, with the host's slowdown around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Wall seconds.
    pub wall: f64,
    /// The host's slowdown ([`Reference::slowdown`]) around the sample.
    pub slowdown: f64,
}

impl Sample {
    /// The wall time scaled to the nominal host speed, the speed at which
    /// the reference kernels take their nominal times, for a workload
    /// whose times grow as the slowdown to the power `elasticity`.
    pub fn normalised(&self, elasticity: f64) -> f64 {
        self.wall / self.slowdown.powf(elasticity)
    }
}

/// What one worker process measured, and the line format it reports in.
#[derive(Debug, Default)]
pub struct Report {
    /// Each timed set-up.
    pub setup: Vec<Sample>,
    /// Each timed pass, in the order they ran (traced workers: the traced
    /// pass the split is made of).
    pub samples: Vec<Sample>,
    /// Timed passes that failed a correctness check.
    pub failed: u64,
    /// `[succeeded, attempted]` operations behind `ok_pct`.
    pub ok: [u64; 2],
    /// `[fresh, served]` reads (serve) or passes (solve) behind `fresh_pct`.
    pub fresh: [u64; 2],
    pub ntc_ratio: f64,
    /// FNV-1a digest of the outputs every pass must reproduce.
    pub digest: u64,
    pub peak_rss_mb: f64,
    /// Per-layer values keyed by [`PER_LAYER`] name (traced workers only).
    pub per_layer: BTreeMap<String, f64>,
    /// The traced pass split into disjoint rows that add up to
    /// `trace.pass_s`; the last row is `trace.unattributed_s`.
    pub split: Vec<(String, f64)>,
    /// Parts of the rows above, shown but not added.
    pub split_detail: Vec<(String, f64)>,
    /// One message per failed check.
    pub failures: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.per_layer.insert(name.to_string(), value);
    }

    /// The report as `key value…` lines; floats keep every digit.
    pub fn encode(&self) -> String {
        let mut out = format!(
            "failed {}\nok {} {}\nfresh {} {}\nntc {}\ndigest {}\nrss {}\n",
            self.failed,
            self.ok[0],
            self.ok[1],
            self.fresh[0],
            self.fresh[1],
            self.ntc_ratio,
            self.digest,
            self.peak_rss_mb
        );
        for s in &self.setup {
            out.push_str(&format!("setup {} {}\n", s.wall, s.slowdown));
        }
        for s in &self.samples {
            out.push_str(&format!("sample {} {}\n", s.wall, s.slowdown));
        }
        let mut line = |key: &str, name: &str, value: f64| {
            out.push_str(&format!("{key} {name} {value}\n"));
        };
        for (name, value) in &self.per_layer {
            line("layer", name, *value);
        }
        for (name, value) in &self.split {
            line("split", name, *value);
        }
        for (name, value) in &self.split_detail {
            line("detail", name, *value);
        }
        for f in &self.failures {
            out.push_str(&format!("fail {}\n", f.replace('\n', " ")));
        }
        out
    }

    /// Parses [`Self::encode`] output.
    pub fn decode(text: &str) -> Result<Self, String> {
        let mut r = Report::default();
        for line in text.lines() {
            let bad = || format!("bad worker line `{line}`");
            let (key, rest) = line.split_once(' ').ok_or_else(bad)?;
            let words: Vec<&str> = rest.split(' ').collect();
            let num = |i: usize| {
                words
                    .get(i)
                    .and_then(|w| w.parse::<f64>().ok())
                    .ok_or_else(bad)
            };
            let int = |i: usize| {
                words
                    .get(i)
                    .and_then(|w| w.parse::<u64>().ok())
                    .ok_or_else(bad)
            };
            let sample = || {
                Ok::<_, String>(Sample {
                    wall: num(0)?,
                    slowdown: num(1)?,
                })
            };
            match key {
                "setup" => r.setup.push(sample()?),
                "failed" => r.failed = int(0)?,
                "ok" => r.ok = [int(0)?, int(1)?],
                "fresh" => r.fresh = [int(0)?, int(1)?],
                "ntc" => r.ntc_ratio = num(0)?,
                "digest" => r.digest = int(0)?,
                "rss" => r.peak_rss_mb = num(0)?,
                "sample" => r.samples.push(sample()?),
                "layer" => r.set(words[0], num(1)?),
                "split" => r.split.push((words[0].to_string(), num(1)?)),
                "detail" => r.split_detail.push((words[0].to_string(), num(1)?)),
                "fail" => r.failures.push(rest.to_string()),
                _ => return Err(bad()),
            }
        }
        Ok(r)
    }
}

/// FNV-1a over `bytes`, continuing from `hash` (start at [`FNV_START`]).
pub fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest of `xs`.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Runs `pass` repeatedly until `seconds` have elapsed, at least once.
/// `pass` returns its own timed sample, so checks it makes after stopping
/// its clock stay out of it.
pub fn timed_passes(seconds: f64, mut pass: impl FnMut(usize) -> Sample) -> Vec<Sample> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.is_empty() || start.elapsed().as_secs_f64() < seconds {
        samples.push(pass(samples.len()));
    }
    samples
}

/// Times one pass with a run of `reference` before and after it.
pub fn reference_pass<T>(reference: &Reference, pass: impl FnOnce() -> T) -> (Sample, T) {
    let before = reference.slowdown();
    let (wall, out) = timed(pass);
    let slowdown = (before + reference.slowdown()) / 2.0;
    (Sample { wall, slowdown }, out)
}

/// Runs `setup` once untimed, so the samples do not depend on what the
/// caches held before, then times [`SETUP_REPS`] repetitions into
/// `samples`, with one run of `reference` after them (the repetitions
/// take milliseconds at most); returns the last repetition's result.
pub fn time_setup<T>(
    samples: &mut Vec<Sample>,
    reference: &Reference,
    mut setup: impl FnMut() -> T,
) -> T {
    let mut last = setup();
    let mut walls = [0.0; SETUP_REPS];
    for wall in &mut walls {
        let (dt, out) = timed(&mut setup);
        *wall = dt;
        last = out;
    }
    let slowdown = reference.slowdown();
    samples.extend(walls.map(|wall| Sample { wall, slowdown }));
    last
}

/// The process's peak resident set (`VmHWM`) in MB, or 0 where the kernel
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Index of the median element of `xs` (the lower middle for even lengths).
pub fn median_index(xs: &[f64]) -> usize {
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    order[(xs.len() - 1) / 2]
}

/// Total seconds the span `name` recorded.
pub fn span_s(rec: &InMemoryRecorder, name: &str) -> f64 {
    rec.span_stats(name)
        .map_or(0.0, |s| s.total_ns as f64 / 1e9)
}

/// The GA engine and cost-evaluator metrics a recorder collected; returns
/// the GA phase span totals `[evaluate, selection, crossover, mutation]`.
pub fn solver_counters(report: &mut Report, rec: &InMemoryRecorder) -> [f64; 4] {
    let flips = rec.counter("evaluator.flips");
    let rescans = rec.counter("evaluator.rescans");
    let ga = ["ga.evaluate", "ga.selection", "ga.crossover", "ga.mutation"].map(|n| span_s(rec, n));
    let evaluations = rec.counter("ga.evaluations");
    for (name, value) in [
        ("evaluator.flips", flips as f64),
        ("evaluator.rescans", rescans as f64),
        (
            "evaluator.rescan_ratio",
            rescans as f64 / flips.max(1) as f64,
        ),
        ("ga.generations", rec.span_count("ga.generation") as f64),
        ("ga.evaluations", evaluations as f64),
        ("ga.evaluate_s", ga[0]),
        ("ga.selection_s", ga[1]),
        ("ga.crossover_s", ga[2]),
        ("ga.mutation_s", ga[3]),
        (
            "ga.ns_per_evaluation",
            ga[0] * 1e9 / evaluations.max(1) as f64,
        ),
    ] {
        report.set(name, value);
    }
    ga
}

//! The three timed workloads. Each runs its set-up several times (the
//! reported `setup_s` is the median), then a closed loop of items until
//! `--seconds` have passed, one item at a time, checking every item
//! against its oracle.

use crate::oracle::{self, table_failures, IMPLEMENTATIONS};
use crate::{median, peak_rss_mib, pinned_config, pool_threads, tail, Args, Metric, Outcome, Rng};
use procheck::pipeline::{
    analyze_extracted, extract_models, ue_config_for, AnalysisConfig, AnalysisReport, BackendKind,
    ExtractedModels,
};
use procheck_conformance::generator::generate_suite;
use procheck_conformance::runner::run_suite;
use procheck_conformance::suites::full_suite;
use procheck_conformance::TestCase;
use procheck_extractor::{extract_fsm, ExtractorConfig};
use procheck_stack::quirks::{Implementation, QuirkSet};
use procheck_stack::UeConfig;
use procheck_telemetry::Collector;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const NAMES: [&str; 3] = ["registry_cold", "patch_loop", "xval"];

/// Set-up runs per invocation; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Seeded cases added to the 35 scripted ones: 7087 cases in all, the
/// paper's commercial-scale conformance suite.
pub const GENERATED_CASES: usize = 7052;

pub fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "registry_cold" => registry_cold(args),
        "patch_loop" => patch_loop(args),
        "xval" => xval(args),
        w => Err(format!("unknown workload {w}")),
    }
}

/// What a timed loop measured.
#[derive(Default)]
struct Loop {
    item_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    settled: u64,
}

impl Loop {
    fn record(&mut self, report: &AnalysisReport, elapsed: f64) {
        self.item_s.push(elapsed);
        self.attempted += report.results.len() as u64;
        self.settled += report
            .results
            .iter()
            .filter(|r| !r.outcome.is_degraded())
            .count() as u64;
    }

    fn finish(self, setup_s: &[f64]) -> Result<Outcome, String> {
        let report_s = median(&self.item_s);
        match tail(&self.item_s) {
            Some((p, v)) => eprintln!(
                "perfbench: items={} report_s(p50)={report_s:.4} report_tail_s(p{p})={v:.4}",
                self.item_s.len()
            ),
            None => eprintln!(
                "perfbench: items={} report_s(p50)={report_s:.4} (too few items for a tail percentile)",
                self.item_s.len()
            ),
        }
        eprintln!("perfbench: setup_s samples {setup_s:.4?}");
        Ok(Outcome {
            correct: self.failed == 0 && self.attempted > 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics: vec![
                Metric::new("report_s", report_s, "s"),
                Metric::new(
                    "properties_per_s",
                    self.settled as f64 / self.item_s.iter().sum::<f64>(),
                    "1/s",
                ),
                Metric::new("setup_s", median(setup_s), "s"),
                Metric::new("peak_rss_mib", peak_rss_mib()?, "MiB"),
            ],
        })
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times, returning the last result and
/// every duration.
fn repeated_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), times))
}

/// Extracts each implementation's models and runs one untimed warm-up
/// report per implementation (the first report in a process fills the
/// global intern table, a cost a one-shot user pays). The warm-up
/// reports are checked against the table too.
fn extract_and_warm(
    imps: &[Implementation],
) -> Result<BTreeMap<&'static str, ExtractedModels>, String> {
    let cfg = pinned_config(
        pool_threads(),
        BackendKind::Explicit,
        None,
        Collector::disabled(),
    );
    let mut models = BTreeMap::new();
    for &imp in imps {
        let m = extract_models(imp, &cfg);
        let failed = table_failures(&analyze_extracted(imp, &m, &cfg));
        if failed > 0 {
            return Err(format!(
                "{}: warm-up report fails the oracle on {failed} properties",
                imp.name()
            ));
        }
        models.insert(imp.name(), m);
    }
    Ok(models)
}

/// A closed loop of rounds; each round runs one report per
/// implementation in a seeded order. Whole rounds keep every run's item
/// mix identical, so the seed moves the order, never the mix.
fn report_rounds(
    args: &Args,
    imps: &[Implementation],
    models: &BTreeMap<&'static str, ExtractedModels>,
    cfg: &AnalysisConfig,
) -> Loop {
    let mut rng = Rng::new(args.seed);
    let mut lp = Loop::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        let mut order = imps.to_vec();
        rng.shuffle(&mut order);
        for imp in order {
            let t = Instant::now();
            let report = analyze_extracted(imp, &models[imp.name()], cfg);
            let elapsed = t.elapsed().as_secs_f64();
            lp.failed += table_failures(&report);
            lp.record(&report, elapsed);
        }
    }
    lp
}

fn registry_cold(args: &Args) -> Result<Outcome, String> {
    let (models, setup_s) = repeated_setup(|| extract_and_warm(&IMPLEMENTATIONS))?;
    let cfg = pinned_config(
        pool_threads(),
        BackendKind::Explicit,
        None,
        Collector::disabled(),
    );
    report_rounds(args, &IMPLEMENTATIONS, &models, &cfg).finish(&setup_s)
}

/// srsLTE is outside `xval`'s timed loop: its symbolic leg takes about
/// 90 s on one property (S16), longer than every other run combined.
/// The traced run includes it once.
pub const XVAL_IMPLEMENTATIONS: [Implementation; 2] =
    [Implementation::Reference, Implementation::Oai];

fn xval(args: &Args) -> Result<Outcome, String> {
    let (models, setup_s) = repeated_setup(|| extract_and_warm(&XVAL_IMPLEMENTATIONS))?;
    let cfg = pinned_config(
        pool_threads(),
        BackendKind::Both,
        None,
        Collector::disabled(),
    );
    report_rounds(args, &XVAL_IMPLEMENTATIONS, &models, &cfg).finish(&setup_s)
}

// ---------------------------------------------------------------------
// patch_loop
// ---------------------------------------------------------------------

/// Number of public `QuirkSet` flags.
pub const QUIRK_FLAGS: usize = 7;

/// The quirk set with flag `i` on when bit `i` of `bits` is set.
pub fn quirks_of(bits: u8) -> QuirkSet {
    let on = |i: usize| bits & (1 << i) != 0;
    QuirkSet {
        replay_accept_any_and_reset: on(0),
        replay_accept_last: on(1),
        accept_plain_after_context: on(2),
        accept_repeated_sqn: on(3),
        reject_keeps_security_context: on(4),
        identity_leak_after_context: on(5),
        accepts_replayed_smc: on(6),
    }
}

/// The patch-loop inputs: the Reference UE configuration and the
/// paper-scale suite (35 scripted + 7052 seeded cases).
pub struct PatchInputs {
    pub base: UeConfig,
    pub cases: Vec<TestCase>,
}

impl PatchInputs {
    pub fn new(seed: u64) -> Self {
        let cfg = pinned_config(1, BackendKind::Explicit, None, Collector::disabled());
        let base = ue_config_for(Implementation::Reference, &cfg);
        let mut cases = full_suite(&base);
        cases.extend(generate_suite(&base, seed, GENERATED_CASES));
        PatchInputs { base, cases }
    }

    /// The UE configuration with quirk set `bits` applied.
    pub fn ue_config(&self, bits: u8) -> UeConfig {
        UeConfig {
            quirks: quirks_of(bits),
            ..self.base.clone()
        }
    }

    /// Replays the suite on the patched stack and extracts its models.
    pub fn extract(&self, bits: u8) -> ExtractedModels {
        let ue_cfg = self.ue_config(bits);
        let suite = run_suite(&ue_cfg, &self.cases);
        ExtractedModels {
            ue: extract_fsm(
                "ue",
                &suite.ue_log,
                &ExtractorConfig::for_ue(&ue_cfg.signatures),
            ),
            mme: extract_fsm("mme", &suite.mme_log, &ExtractorConfig::for_mme()),
            coverage: suite.coverage,
            log_records: suite.ue_log.len() + suite.mme_log.len(),
            extraction_errors: Vec::new(),
        }
    }
}

/// A store directory that is removed when dropped.
pub struct TempStore(pub PathBuf);

impl TempStore {
    pub fn fresh(out: &Path, tag: &str) -> Result<Self, String> {
        let dir = out.join(format!("store-{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(TempStore(dir))
    }

    /// A fresh directory holding a copy of `src`'s files.
    pub fn copy_of(src: &TempStore, out: &Path, tag: &str) -> Result<Self, String> {
        fn copy(from: &Path, to: &Path) -> std::io::Result<()> {
            std::fs::create_dir_all(to)?;
            for entry in std::fs::read_dir(from)? {
                let entry = entry?;
                let target = to.join(entry.file_name());
                if entry.file_type()?.is_dir() {
                    copy(&entry.path(), &target)?;
                } else {
                    std::fs::copy(entry.path(), target)?;
                }
            }
            Ok(())
        }
        let dir = TempStore::fresh(out, tag)?;
        copy(&src.0, &dir.0).map_err(|e| format!("{}: {e}", dir.0.display()))?;
        Ok(dir)
    }

    /// Bytes of every file under the store.
    pub fn bytes(&self) -> u64 {
        fn walk(p: &Path) -> u64 {
            std::fs::read_dir(p).map_or(0, |rd| {
                rd.flatten()
                    .map(|e| match e.file_type() {
                        Ok(t) if t.is_dir() => walk(&e.path()),
                        Ok(_) => e.metadata().map_or(0, |m| m.len()),
                        Err(_) => 0,
                    })
                    .sum()
            })
        }
        walk(&self.0)
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The seeded quirk walk: a cycle over the seven flags in a seeded
/// order. For each flag it patches the unpatched Reference stack with
/// that flag alone (a fresh re-check), reverts it (a full replay from
/// the store), re-applies it and reverts it again (two more replays).
/// Every step toggles exactly one flag, one step in four is fresh, and
/// every cycle visits the same quirk sets whatever the seed: the seed
/// moves the order, never the mix.
pub struct Walk {
    order: Vec<usize>,
    step: usize,
}

/// Steps per flag (patch, revert, re-apply, revert) and per cycle.
pub const FLAG_STEPS: usize = 4;
pub const CYCLE_STEPS: usize = FLAG_STEPS * QUIRK_FLAGS;

impl Walk {
    pub fn new(seed: u64) -> Self {
        let mut order: Vec<usize> = (0..QUIRK_FLAGS).collect();
        Rng::new(seed.rotate_left(17) ^ 0x5EED).shuffle(&mut order);
        Walk { order, step: 0 }
    }

    /// The quirk set of the next step.
    pub fn next_step(&mut self) -> u8 {
        let at = self.step % CYCLE_STEPS;
        self.step += 1;
        if at.is_multiple_of(2) {
            1 << self.order[at / FLAG_STEPS]
        } else {
            0
        }
    }
}

fn patch_loop(args: &Args) -> Result<Outcome, String> {
    let ((inputs, baseline), setup_s) = repeated_setup(|| {
        let inputs = PatchInputs::new(args.seed);
        let store = TempStore::fresh(&args.out, "patch_baseline")?;
        let cfg = pinned_config(
            pool_threads(),
            BackendKind::Explicit,
            Some(store.0.clone()),
            Collector::disabled(),
        );
        let report = analyze_extracted(Implementation::Reference, &inputs.extract(0), &cfg);
        let failed = table_failures(&report);
        if failed > 0 {
            return Err(format!(
                "baseline report fails the oracle on {failed} properties"
            ));
        }
        Ok((inputs, store))
    })?;
    let mut walk = Walk::new(args.seed);
    let mut lp = Loop::default();
    let mut store_bytes = 0;
    // Per distinct quirk set: its models and each step's report.
    let mut seen: BTreeMap<u8, (ExtractedModels, Vec<AnalysisReport>)> = BTreeMap::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        // Each cycle starts from the baseline store, so every cycle does
        // the same fresh and replayed work however many cycles run.
        let store = TempStore::copy_of(&baseline, &args.out, "patch_loop")?;
        let cfg = pinned_config(
            pool_threads(),
            BackendKind::Explicit,
            Some(store.0.clone()),
            Collector::disabled(),
        );
        for _ in 0..CYCLE_STEPS {
            let bits = walk.next_step();
            let t = Instant::now();
            let models = inputs.extract(bits);
            let report = analyze_extracted(Implementation::Reference, &models, &cfg);
            let elapsed = t.elapsed().as_secs_f64();
            lp.record(&report, elapsed);
            seen.entry(bits)
                .or_insert_with(|| (models, Vec::new()))
                .1
                .push(report);
        }
        store_bytes = store.bytes();
    }
    drop(baseline);
    // Oracle, outside the timed loop: each distinct set re-analysed
    // without the store must render exactly as every store-backed step.
    let storeless = pinned_config(
        pool_threads(),
        BackendKind::Explicit,
        None,
        Collector::disabled(),
    );
    for (bits, (models, reports)) in &seen {
        let cold = analyze_extracted(Implementation::Reference, models, &storeless);
        let want = oracle::render(&cold);
        for report in reports {
            lp.failed += property_mismatches(&want, &oracle::render(report), *bits);
        }
    }
    eprintln!(
        "perfbench: distinct quirk sets={} store_mib={:.3}",
        seen.len(),
        store_bytes as f64 / (1024.0 * 1024.0)
    );
    lp.finish(&setup_s)
}

/// Lines of two renderings that differ, attributed to properties (a
/// difference in the summary counts once).
fn property_mismatches(want: &str, got: &str, bits: u8) -> u64 {
    let w: Vec<&str> = want.lines().collect();
    let g: Vec<&str> = got.lines().collect();
    let mut failed = w.len().abs_diff(g.len()) as u64;
    for (a, b) in w.iter().zip(&g) {
        if a != b {
            eprintln!(
                "perfbench: quirk set {bits:#09b}: store-backed {b:.120} != storeless {a:.120}"
            );
            failed += 1;
        }
    }
    failed
}

//! End-to-end and per-layer benchmark for the ProChecker pipeline.
//!
//! ```text
//! procheck-perfbench --workload <registry_cold|patch_loop|xval> --seed <n>
//!                    --seconds <s> --trace <0|1> [--out <dir>]
//! procheck-perfbench --print-expected
//! ```
//!
//! With `--trace 0` the workload's timed loop runs and the end-to-end
//! metrics are printed; with `--trace 1` the traced run goes through one item
//! per implementation (or per walk step) layer by layer and prints the
//! per-layer metrics. Either way the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; human-
//! readable detail goes to standard error. See `README.md`.

mod oracle;
mod trace;
mod workloads;

use procheck::pipeline::{AnalysisConfig, BackendKind};
use procheck_smv::budget::Budget;
use procheck_smv::checker::DEFAULT_STATE_LIMIT;
use procheck_symbolic::DEFAULT_BMC_BOUND;
use procheck_telemetry::Collector;
use std::path::PathBuf;
use std::process::ExitCode;

/// Property-checking pool width: two workers, never more than the host
/// has cores, so that `threads × explore_threads ≤ nproc`.
pub const POOL_THREADS: usize = 2;
/// Intra-graph exploration width, pinned to the serial path.
pub const EXPLORE_THREADS: usize = 1;

/// Pool width actually used on this host.
pub fn pool_threads() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    POOL_THREADS.min(cores)
}

/// A fully explicit configuration. `AnalysisConfig::default()` reads the
/// `PROCHECK_*` environment variables; every field is set here instead so
/// that no ambient setting can change a workload.
pub fn pinned_config(
    threads: usize,
    backend: BackendKind,
    store_dir: Option<PathBuf>,
    collector: Collector,
) -> AnalysisConfig {
    AnalysisConfig {
        imsi: "001010123456789".into(),
        key_material: 0x1122_3344_5566_7788,
        state_limit: DEFAULT_STATE_LIMIT,
        max_cegar_iterations: 24,
        property_filter: None,
        threads,
        explore_threads: EXPLORE_THREADS,
        graph_cache: true,
        slice: true,
        por: true,
        collector,
        budget: Budget::unlimited(),
        store_dir,
        backend,
        bmc_bound: DEFAULT_BMC_BOUND,
    }
}

/// One metric value with its unit, as printed in the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one invocation reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut it = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("perfbench_out");
    while let Some(flag) = it.next() {
        if flag == "--print-expected" {
            return Ok(None);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        out,
    }))
}

fn json_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", oracle::render_expected());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = oracle::check_reference_against_golden() {
        eprintln!("perfbench: expected-verdict table disagrees with the golden snapshot: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} threads={} explore_threads={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        pool_threads(),
        EXPLORE_THREADS
    );
    let result = match (args.workload.as_str(), args.trace) {
        (w, false) if workloads::NAMES.contains(&w) => workloads::run(&args),
        (w, true) if workloads::NAMES.contains(&w) => trace::run(&args),
        (w, _) => Err(format!("unknown workload {w}")),
    };
    match result {
        Ok(outcome) => {
            println!("{}", json_line(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest whole percentile with at least ten samples above it, as
/// `(percentile, value)`; `None` when there are too few samples.
pub fn tail(xs: &[f64]) -> Option<(u32, f64)> {
    let n = xs.len();
    if n <= 10 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest-rank: the p-th percentile is the sample at rank ceil(p·n);
    // ten samples above it means rank ≤ n − 10.
    let p = (50..100u32)
        .rev()
        .find(|&p| (p as usize * n).div_ceil(100) <= n - 10)?;
    let rank = (p as usize * n).div_ceil(100);
    Some((p, v[rank - 1]))
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("malformed VmHWM line")?;
    Ok(kib / 1024.0)
}

/// SplitMix64: a small deterministic generator for seeded input orders.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

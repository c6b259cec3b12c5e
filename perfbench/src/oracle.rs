//! Correctness oracles for timed items.
//!
//! `expected_verdicts.tsv` is the committed expected-verdict table:
//! one `implementation<TAB>property<TAB>outcome tag` line per property
//! per implementation. Its Reference rows are cross-checked at start-up
//! against the verdict lines of the core crate's golden registry
//! snapshot, so the table cannot drift from the repository's own
//! behaviour contract unnoticed.

use crate::{pinned_config, pool_threads};
use procheck::pipeline::{analyze_extracted, extract_models, AnalysisReport, BackendKind};
use procheck_stack::quirks::Implementation;
use procheck_telemetry::Collector;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

const EXPECTED: &str = include_str!("../expected_verdicts.tsv");
const GOLDEN: &str = include_str!("../../crates/core/tests/golden/registry.snap");

pub const IMPLEMENTATIONS: [Implementation; 3] = [
    Implementation::Reference,
    Implementation::Srs,
    Implementation::Oai,
];

fn table_key(imp: Implementation) -> &'static str {
    match imp {
        Implementation::Reference => "reference",
        Implementation::Srs => "srslte",
        Implementation::Oai => "oai",
    }
}

type Table = BTreeMap<(&'static str, &'static str), &'static str>;

fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| {
        EXPECTED
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .map(|l| {
                let mut f = l.split('\t');
                match (f.next(), f.next(), f.next(), f.next()) {
                    (Some(imp), Some(id), Some(tag), None) => ((imp, id), tag),
                    _ => panic!("malformed expected_verdicts.tsv line: {l:?}"),
                }
            })
            .collect()
    })
}

/// The expected outcome tag of every property of `imp`, keyed by id.
pub fn expected(imp: Implementation) -> BTreeMap<&'static str, &'static str> {
    let key = table_key(imp);
    table()
        .iter()
        .filter(|((i, _), _)| *i == key)
        .map(|((_, id), tag)| (*id, *tag))
        .collect()
}

/// Maps the `Debug` variant name a golden verdict line starts with to
/// the report's outcome tag.
fn golden_tag(variant: &str) -> Option<&'static str> {
    Some(match variant {
        "Verified" => "verified",
        "Attack" => "attack",
        "GoalReachable" => "reachable",
        "GoalUnreachable" => "unreachable",
        "BoundReached" => "bound-reached",
        "Equivalent" => "equivalent",
        "Distinguishable" => "distinguishable",
        "Skipped" => "skipped",
        "BudgetExhausted" => "budget-exhausted",
        "Error" => "error",
        _ => return None,
    })
}

/// Compares the table's Reference rows with the `== results: Reference ==`
/// section of the golden snapshot.
pub fn check_reference_against_golden() -> Result<(), String> {
    let mut golden = BTreeMap::new();
    let section = GOLDEN
        .lines()
        .skip_while(|l| *l != "== results: Reference ==")
        .skip(1)
        .take_while(|l| !l.starts_with("=="));
    for line in section {
        let (id, rest) = line
            .split_once('|')
            .ok_or(format!("malformed golden line {line:?}"))?;
        let variant = rest.split(['(', '|']).next().unwrap_or_default();
        let tag = golden_tag(variant).ok_or(format!("unknown golden outcome {variant:?}"))?;
        golden.insert(id, tag);
    }
    let table = expected(Implementation::Reference);
    if golden.is_empty() {
        return Err("golden snapshot has no Reference results".into());
    }
    if golden != table {
        let diffs: Vec<String> = golden
            .keys()
            .chain(table.keys())
            .filter(|id| golden.get(*id) != table.get(*id))
            .map(|id| {
                format!(
                    "{id}: golden={:?} table={:?}",
                    golden.get(id),
                    table.get(id)
                )
            })
            .collect();
        return Err(diffs.join(", "));
    }
    Ok(())
}

/// Properties of `report` that fail the table oracle: a degraded
/// outcome, a tag other than the expected one, or an expected property
/// missing from the report.
pub fn table_failures(report: &AnalysisReport) -> u64 {
    let want = expected(report.implementation);
    let mut failed = 0u64;
    for r in &report.results {
        if r.outcome.is_degraded() || want.get(r.property_id) != Some(&r.outcome.tag()) {
            eprintln!(
                "perfbench: {} {} = {} (expected {:?})",
                report.implementation.name(),
                r.property_id,
                r.outcome.tag(),
                want.get(r.property_id)
            );
            failed += 1;
        }
    }
    failed + want.len().saturating_sub(report.results.len()) as u64
}

/// Everything a user sees of a report: the text summary plus every
/// property's full outcome (with counterexample traces) and CEGAR
/// trajectory. Store-backed and storeless runs must agree on all of it.
pub fn render(report: &AnalysisReport) -> String {
    let mut out = report.render_text();
    for r in &report.results {
        let _ = writeln!(
            out,
            "{}|{:?}|iters={}|refs={}|cpv={}",
            r.property_id, r.outcome, r.cegar_iterations, r.refinements, r.cpv_queries
        );
    }
    out
}

/// The table text for the current code: one pinned explicit report per
/// implementation. Used to regenerate `expected_verdicts.tsv` after an
/// intended verdict change.
pub fn render_expected() -> String {
    let mut out = String::from("# implementation\tproperty\toutcome tag\n");
    for imp in IMPLEMENTATIONS {
        let cfg = pinned_config(
            pool_threads(),
            BackendKind::Explicit,
            None,
            Collector::disabled(),
        );
        let report = analyze_extracted(imp, &extract_models(imp, &cfg), &cfg);
        for r in &report.results {
            let _ = writeln!(
                out,
                "{}\t{}\t{}",
                table_key(imp),
                r.property_id,
                r.outcome.tag()
            );
        }
    }
    out
}

//! Per-run telemetry aggregation.
//!
//! [`TelemetryReport`] condenses one pipeline run into the shape the
//! paper reports its measurements in: a per-property row set mirroring
//! Table II (states explored, CEGAR iterations, CPV queries, cache
//! behaviour, wall-clock), plus pipeline-stage totals read off the
//! run's [`Collector`] counters and spans. The bench binaries render
//! it next to their existing outputs as `BENCH_telemetry.json`, and
//! `scripts/check_bench_regression.sh` gates CI on the totals.
//!
//! Everything in the report except the `elapsed_ms`/`*_us` fields is
//! deterministic: identical for every `threads` value and across runs
//! on the same inputs.

use crate::pipeline::AnalysisReport;
use procheck_telemetry::{json, Collector, Event};

/// One per-property row (Table II shape).
#[derive(Debug, Clone, PartialEq)]
pub struct PropertyTelemetry {
    /// Property id (`S01`…, `PR01`…).
    pub property_id: String,
    /// Outcome tag (`verified`, `attack`, …).
    pub outcome: String,
    /// States the model checker explored across all CEGAR iterations.
    pub states_explored: u64,
    /// Peak frontier depth during exploration.
    pub peak_queue: u64,
    /// CEGAR iterations performed.
    pub cegar_iterations: u64,
    /// CPV-driven refinements applied.
    pub refinements: u64,
    /// Counterexample-feasibility queries submitted to the CPV.
    pub cpv_queries: u64,
    /// Cached reachability-graph nodes the property's queries visited
    /// instead of re-exploring.
    pub nodes_reused: u64,
    /// Whether the property's threat-model composition was a cache hit.
    pub cache_hit: bool,
    /// Reachability-graph cache outcome (`None` when the property never
    /// consulted the graph cache).
    pub graph_cache_hit: Option<bool>,
    /// Wall-clock milliseconds for the check (non-deterministic).
    pub elapsed_ms: f64,
}

/// Pipeline-stage totals for one run, read off the collector.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageTotals {
    /// Conformance cases replayed.
    pub conformance_cases: u64,
    /// Total message-exchange rounds across the suite.
    pub conformance_rounds: u64,
    /// Information-rich log records dissected (UE + MME).
    pub extract_log_records: u64,
    /// Blocks `DivideBlock` opened during dissection.
    pub extract_blocks: u64,
    /// Threat-model compositions requested.
    pub compose_lookups: u64,
    /// Compositions actually built (cache misses).
    pub compose_builds: u64,
    /// Id-space model compilations requested.
    pub compile_lookups: u64,
    /// Compilations actually performed (cache misses).
    pub compile_builds: u64,
    /// Distinct symbols in the process-global intern table at the end
    /// of the run (high-water `ident.symbols_interned` gauge).
    pub symbols_interned: u64,
    /// States explored by the model checker — with the graph cache on,
    /// this counts *distinct* exploration work only (one build per
    /// distinct threat configuration).
    pub smv_states_explored: u64,
    /// Transitions taken by the model checker.
    pub smv_transitions: u64,
    /// Widest intra-graph exploration frontier pool used by any build
    /// (high-water `explore.workers` gauge; 1 = everything serial).
    pub explore_workers: u64,
    /// BFS levels walked across all graph builds. Level structure is a
    /// property of the model, so this total is identical at any
    /// `explore_threads` width.
    pub explore_levels: u64,
    /// Widest single BFS level any build encountered (high-water
    /// `explore.peak_level` gauge) — the available intra-graph
    /// parallelism at its best moment.
    pub explore_peak_level: u64,
    /// Reachability-graph cache lookups.
    pub graph_cache_lookups: u64,
    /// Graphs actually explored (graph-cache misses).
    pub graph_cache_builds: u64,
    /// Lookups served from an already-explored graph.
    pub graph_cache_hits: u64,
    /// Cached graph nodes visited by property queries instead of
    /// re-explored — the states the run *would* have re-explored
    /// without the cache show up here, not in `smv_states_explored`.
    pub graph_cache_nodes_reused: u64,
    /// CEGAR iterations, summed over properties.
    pub cegar_iterations: u64,
    /// CPV feasibility queries, summed over properties.
    pub cpv_queries: u64,
    /// Adversarial steps the CPV validated.
    pub cpv_steps: u64,
    /// Properties degraded by budget exhaustion (deadline or state
    /// caps). Zero on a clean run.
    pub degraded_budget_exhausted: u64,
    /// Properties degraded by an isolated panic. Zero on a clean run.
    pub degraded_panics_isolated: u64,
    /// Properties skipped (inapplicable, state limit, CEGAR bound).
    pub degraded_skipped: u64,
    /// CNF clauses the symbolic (BMC) backend emitted across all
    /// encodings. Zero on explicit-only runs.
    pub backend_clauses: u64,
    /// SAT-solver decisions made by the symbolic backend.
    pub backend_decisions: u64,
    /// Unit propagations performed by the symbolic backend.
    pub backend_propagations: u64,
    /// Conflicts the symbolic backend's CDCL loop analysed.
    pub backend_conflicts: u64,
    /// Solver restarts.
    pub backend_restarts: u64,
    /// Learned clauses retained by the solver.
    pub backend_learned: u64,
    /// Summed length of those learned clauses, after minimisation.
    pub backend_learned_lits: u64,
    /// Bound-limited answers (`BoundReached`) the symbolic backend
    /// returned instead of a definite verdict.
    pub backend_bound_reached: u64,
    /// Cross-validation divergences between the explicit and symbolic
    /// backends (`Both` mode). Non-zero means an engine bug; CI gates
    /// this at zero.
    pub backend_divergences: u64,
    /// Wall-clock microseconds per recorded stage span, summed by name
    /// (non-deterministic), sorted by name.
    pub stage_elapsed_us: Vec<(String, u64)>,
}

impl StageTotals {
    /// Composition-cache hit rate in `[0, 1]` (0 when never used).
    pub fn compose_hit_rate(&self) -> f64 {
        if self.compose_lookups == 0 {
            0.0
        } else {
            (self.compose_lookups - self.compose_builds) as f64 / self.compose_lookups as f64
        }
    }

    /// Reachability-graph cache hit rate in `[0, 1]` (0 when the cache
    /// was never consulted, e.g. disabled).
    pub fn graph_cache_hit_rate(&self) -> f64 {
        if self.graph_cache_lookups == 0 {
            0.0
        } else {
            self.graph_cache_hits as f64 / self.graph_cache_lookups as f64
        }
    }

    /// All degraded property outcomes together — the number CI requires
    /// to be zero on a clean run.
    pub fn degraded_total(&self) -> u64 {
        self.degraded_budget_exhausted + self.degraded_panics_isolated + self.degraded_skipped
    }

    /// Total state visits across the run: distinct exploration
    /// (`smv_states_explored`) plus cached nodes re-used by queries —
    /// the "total states" side of the distinct-vs-total comparison the
    /// graph cache exists to improve.
    pub fn total_state_visits(&self) -> u64 {
        self.smv_states_explored + self.graph_cache_nodes_reused
    }

    /// Reads the totals off a collector's counters and spans.
    pub fn from_collector(collector: &Collector) -> Self {
        let counters = collector.counters();
        let get = |name: &str| counters.get(name).copied().unwrap_or(0);
        let mut spans: std::collections::BTreeMap<String, u64> = Default::default();
        for event in collector.events() {
            if let Event::Span { name, elapsed_us } = event {
                *spans.entry(name).or_default() += elapsed_us;
            }
        }
        StageTotals {
            conformance_cases: get("conformance.cases"),
            conformance_rounds: get("conformance.rounds"),
            extract_log_records: get("extract.log_records"),
            extract_blocks: get("extract.blocks"),
            compose_lookups: get("compose.lookups"),
            compose_builds: get("compose.builds"),
            compile_lookups: get("compile.lookups"),
            compile_builds: get("compile.builds"),
            symbols_interned: get("ident.symbols_interned"),
            smv_states_explored: get("smv.states_explored"),
            smv_transitions: get("smv.transitions"),
            explore_workers: get("explore.workers"),
            explore_levels: get("explore.levels"),
            explore_peak_level: get("explore.peak_level"),
            graph_cache_lookups: get("graph_cache.lookups"),
            graph_cache_builds: get("graph_cache.builds"),
            graph_cache_hits: get("graph_cache.hits"),
            graph_cache_nodes_reused: get("graph_cache.nodes_reused"),
            cegar_iterations: get("cegar.iterations"),
            cpv_queries: get("cpv.queries"),
            cpv_steps: get("cpv.steps"),
            degraded_budget_exhausted: get("degraded.budget_exhausted"),
            degraded_panics_isolated: get("degraded.panics_isolated"),
            degraded_skipped: get("degraded.skipped"),
            backend_clauses: get("backend.clauses"),
            backend_decisions: get("backend.decisions"),
            backend_propagations: get("backend.propagations"),
            backend_conflicts: get("backend.conflicts"),
            backend_restarts: get("backend.restarts"),
            backend_learned: get("backend.learned"),
            backend_learned_lits: get("backend.learned_lits"),
            backend_bound_reached: get("backend.bound_reached"),
            backend_divergences: get("backend.divergences"),
            stage_elapsed_us: spans.into_iter().collect(),
        }
    }
}

/// Aggregated telemetry for one pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// Implementation analysed (`reference`, `srsue`, `oai`).
    pub implementation: String,
    /// Per-property rows, in registry order.
    pub properties: Vec<PropertyTelemetry>,
    /// Stage totals for the whole run.
    pub totals: StageTotals,
    /// Raw counter snapshot (name-sorted), for consumers that want
    /// counters this struct does not break out.
    pub counters: Vec<(String, u64)>,
}

impl TelemetryReport {
    /// Builds the report from a finished run: deterministic per-property
    /// numbers come from the [`AnalysisReport`], stage totals from the
    /// [`Collector`] the run recorded into.
    pub fn from_run(report: &AnalysisReport, collector: &Collector) -> Self {
        let properties = report
            .results
            .iter()
            .map(|r| PropertyTelemetry {
                property_id: r.property_id.to_string(),
                outcome: r.outcome.tag().to_string(),
                states_explored: r.states_explored,
                peak_queue: r.peak_queue,
                cegar_iterations: r.cegar_iterations as u64,
                refinements: r.refinements as u64,
                cpv_queries: r.cpv_queries as u64,
                nodes_reused: r.nodes_reused,
                cache_hit: r.cache_hit,
                graph_cache_hit: r.graph_cache_hit,
                elapsed_ms: r.elapsed.as_secs_f64() * 1e3,
            })
            .collect();
        TelemetryReport {
            implementation: report.implementation.name().to_string(),
            properties,
            totals: StageTotals::from_collector(collector),
            counters: collector.counters().into_iter().collect(),
        }
    }

    /// Table II-style text rendering.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "telemetry — {}", self.implementation);
        let _ = writeln!(
            out,
            "  {:6} {:>15} {:>10} {:>6} {:>5} {:>5} {:>6} {:>10}",
            "prop", "outcome", "states", "queue", "cegar", "cpv", "cache", "ms"
        );
        for p in &self.properties {
            let _ = writeln!(
                out,
                "  {:6} {:>15} {:>10} {:>6} {:>5} {:>5} {:>6} {:>10.2}",
                p.property_id,
                p.outcome,
                p.states_explored,
                p.peak_queue,
                p.cegar_iterations,
                p.cpv_queries,
                if p.cache_hit { "hit" } else { "miss" },
                p.elapsed_ms,
            );
        }
        let t = &self.totals;
        let _ = writeln!(
            out,
            "  totals: {} cases / {} rounds replayed, {} records -> {} blocks dissected",
            t.conformance_cases, t.conformance_rounds, t.extract_log_records, t.extract_blocks
        );
        let _ = writeln!(
            out,
            "          {} compositions for {} lookups (hit rate {:.1}%), \
             {} states / {} transitions explored",
            t.compose_builds,
            t.compose_lookups,
            t.compose_hit_rate() * 100.0,
            t.smv_states_explored,
            t.smv_transitions
        );
        let _ = writeln!(
            out,
            "          graph cache: {} builds for {} lookups (hit rate {:.1}%), \
             {} nodes re-used / {} total state visits",
            t.graph_cache_builds,
            t.graph_cache_lookups,
            t.graph_cache_hit_rate() * 100.0,
            t.graph_cache_nodes_reused,
            t.total_state_visits()
        );
        let _ = writeln!(
            out,
            "          explore: {} worker(s), {} BFS levels, peak level width {}",
            t.explore_workers, t.explore_levels, t.explore_peak_level
        );
        let _ = writeln!(
            out,
            "          {} compilations for {} lookups, {} symbols interned",
            t.compile_builds, t.compile_lookups, t.symbols_interned
        );
        if t.backend_clauses > 0 || t.backend_bound_reached > 0 || t.backend_divergences > 0 {
            let _ = writeln!(
                out,
                "          symbolic: {} clauses, {} decisions, {} propagations, \
                 {} conflicts, {} restarts, {} learned ({} literals), {} bound-reached, \
                 {} divergences",
                t.backend_clauses,
                t.backend_decisions,
                t.backend_propagations,
                t.backend_conflicts,
                t.backend_restarts,
                t.backend_learned,
                t.backend_learned_lits,
                t.backend_bound_reached,
                t.backend_divergences
            );
        }
        let _ = writeln!(
            out,
            "          {} CEGAR iterations, {} CPV queries ({} adversarial steps)",
            t.cegar_iterations, t.cpv_queries, t.cpv_steps
        );
        let _ = writeln!(
            out,
            "          degraded: {} ({} budget-exhausted, {} isolated panics, {} skipped)",
            t.degraded_total(),
            t.degraded_budget_exhausted,
            t.degraded_panics_isolated,
            t.degraded_skipped
        );
        for (name, us) in &t.stage_elapsed_us {
            let _ = writeln!(out, "          span {:20} {:>10} us", name, us);
        }
        out
    }

    /// JSON rendering (the `BENCH_telemetry.json` payload for one run).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"implementation\": {},\n",
            json::escape(&self.implementation)
        ));
        out.push_str("  \"properties\": [\n");
        for (i, p) in self.properties.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"property_id\": {}, \"outcome\": {}, \"states_explored\": {}, \
                 \"peak_queue\": {}, \"cegar_iterations\": {}, \"refinements\": {}, \
                 \"cpv_queries\": {}, \"nodes_reused\": {}, \"cache_hit\": {}, \
                 \"graph_cache_hit\": {}, \"elapsed_ms\": {:.3}}}{}\n",
                json::escape(&p.property_id),
                json::escape(&p.outcome),
                p.states_explored,
                p.peak_queue,
                p.cegar_iterations,
                p.refinements,
                p.cpv_queries,
                p.nodes_reused,
                p.cache_hit,
                match p.graph_cache_hit {
                    Some(true) => "true",
                    Some(false) => "false",
                    None => "null",
                },
                p.elapsed_ms,
                if i + 1 < self.properties.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ],\n");
        let t = &self.totals;
        out.push_str("  \"totals\": {\n");
        out.push_str(&format!(
            "    \"conformance_cases\": {},\n",
            t.conformance_cases
        ));
        out.push_str(&format!(
            "    \"conformance_rounds\": {},\n",
            t.conformance_rounds
        ));
        out.push_str(&format!(
            "    \"extract_log_records\": {},\n",
            t.extract_log_records
        ));
        out.push_str(&format!("    \"extract_blocks\": {},\n", t.extract_blocks));
        out.push_str(&format!(
            "    \"compose_lookups\": {},\n",
            t.compose_lookups
        ));
        out.push_str(&format!("    \"compose_builds\": {},\n", t.compose_builds));
        out.push_str(&format!(
            "    \"compose_hit_rate\": {:.6},\n",
            t.compose_hit_rate()
        ));
        out.push_str(&format!(
            "    \"compile_lookups\": {},\n",
            t.compile_lookups
        ));
        out.push_str(&format!("    \"compile_builds\": {},\n", t.compile_builds));
        out.push_str(&format!(
            "    \"symbols_interned\": {},\n",
            t.symbols_interned
        ));
        out.push_str(&format!(
            "    \"smv_states_explored\": {},\n",
            t.smv_states_explored
        ));
        out.push_str(&format!(
            "    \"smv_transitions\": {},\n",
            t.smv_transitions
        ));
        out.push_str(&format!(
            "    \"explore_workers\": {},\n",
            t.explore_workers
        ));
        out.push_str(&format!("    \"explore_levels\": {},\n", t.explore_levels));
        out.push_str(&format!(
            "    \"explore_peak_level\": {},\n",
            t.explore_peak_level
        ));
        out.push_str(&format!(
            "    \"graph_cache_lookups\": {},\n",
            t.graph_cache_lookups
        ));
        out.push_str(&format!(
            "    \"graph_cache_builds\": {},\n",
            t.graph_cache_builds
        ));
        out.push_str(&format!(
            "    \"graph_cache_hits\": {},\n",
            t.graph_cache_hits
        ));
        out.push_str(&format!(
            "    \"graph_cache_hit_rate\": {:.6},\n",
            t.graph_cache_hit_rate()
        ));
        out.push_str(&format!(
            "    \"graph_cache_nodes_reused\": {},\n",
            t.graph_cache_nodes_reused
        ));
        out.push_str(&format!(
            "    \"total_state_visits\": {},\n",
            t.total_state_visits()
        ));
        out.push_str(&format!(
            "    \"cegar_iterations\": {},\n",
            t.cegar_iterations
        ));
        out.push_str(&format!("    \"cpv_queries\": {},\n", t.cpv_queries));
        out.push_str(&format!("    \"cpv_steps\": {},\n", t.cpv_steps));
        out.push_str(&format!(
            "    \"degraded_budget_exhausted\": {},\n",
            t.degraded_budget_exhausted
        ));
        out.push_str(&format!(
            "    \"degraded_panics_isolated\": {},\n",
            t.degraded_panics_isolated
        ));
        out.push_str(&format!(
            "    \"degraded_skipped\": {},\n",
            t.degraded_skipped
        ));
        out.push_str(&format!(
            "    \"degraded_total\": {},\n",
            t.degraded_total()
        ));
        out.push_str(&format!(
            "    \"backend_clauses\": {},\n",
            t.backend_clauses
        ));
        out.push_str(&format!(
            "    \"backend_decisions\": {},\n",
            t.backend_decisions
        ));
        out.push_str(&format!(
            "    \"backend_propagations\": {},\n",
            t.backend_propagations
        ));
        out.push_str(&format!(
            "    \"backend_conflicts\": {},\n",
            t.backend_conflicts
        ));
        out.push_str(&format!(
            "    \"backend_restarts\": {},\n",
            t.backend_restarts
        ));
        out.push_str(&format!(
            "    \"backend_learned\": {},\n",
            t.backend_learned
        ));
        out.push_str(&format!(
            "    \"backend_learned_lits\": {},\n",
            t.backend_learned_lits
        ));
        out.push_str(&format!(
            "    \"backend_bound_reached\": {},\n",
            t.backend_bound_reached
        ));
        out.push_str(&format!(
            "    \"backend_divergences\": {},\n",
            t.backend_divergences
        ));
        out.push_str("    \"stage_elapsed_us\": {");
        out.push_str(
            &t.stage_elapsed_us
                .iter()
                .map(|(name, us)| format!("{}: {}", json::escape(name), us))
                .collect::<Vec<_>>()
                .join(", "),
        );
        out.push_str("}\n");
        out.push_str("  },\n");
        out.push_str("  \"counters\": {");
        out.push_str(
            &self
                .counters
                .iter()
                .map(|(name, value)| format!("{}: {}", json::escape(name), value))
                .collect::<Vec<_>>()
                .join(", "),
        );
        out.push_str("}\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{analyze_implementation, AnalysisConfig};
    use procheck_stack::quirks::Implementation;

    fn run(ids: &[&'static str], threads: usize) -> (TelemetryReport, Collector) {
        let collector = Collector::enabled();
        let cfg = AnalysisConfig {
            property_filter: Some(ids.to_vec()),
            threads,
            collector: collector.clone(),
            ..AnalysisConfig::default()
        };
        let report = analyze_implementation(Implementation::Reference, &cfg);
        (TelemetryReport::from_run(&report, &collector), collector)
    }

    /// The checker-side counters and the per-property rows describe the
    /// same run, so their sums must agree.
    #[test]
    fn rows_sum_to_counter_totals() {
        let (report, collector) = run(&["S01", "S02", "S12"], 2);
        assert_eq!(report.properties.len(), 3);
        let row_states: u64 = report.properties.iter().map(|p| p.states_explored).sum();
        assert_eq!(row_states, collector.counter_value("smv.states_explored"));
        let row_iters: u64 = report.properties.iter().map(|p| p.cegar_iterations).sum();
        assert_eq!(row_iters, collector.counter_value("cegar.iterations"));
        let row_queries: u64 = report.properties.iter().map(|p| p.cpv_queries).sum();
        assert_eq!(row_queries, collector.counter_value("cpv.queries"));
        assert!(row_states > 0, "model checks explore states");
    }

    /// Cache hits in the rows agree with the compose counters: misses
    /// (builds) = rows with cache_hit=false among model properties.
    #[test]
    fn cache_hit_rows_match_compose_counters() {
        let (report, _) = run(&["S01", "S02", "S03"], 1);
        let misses = report.properties.iter().filter(|p| !p.cache_hit).count() as u64;
        assert_eq!(misses, report.totals.compose_builds);
        assert_eq!(
            report.properties.len() as u64,
            report.totals.compose_lookups
        );
    }

    /// Graph-cache accounting in the rows agrees with the collector:
    /// designated builders = graphs explored, consulting rows = lookups,
    /// and the per-row node re-use sums to the counter total.
    #[test]
    fn graph_cache_rows_match_counters() {
        let (report, collector) = run(&["S01", "S07", "S08", "S12"], 2);
        let t = &report.totals;
        let builders = report
            .properties
            .iter()
            .filter(|p| p.graph_cache_hit == Some(false))
            .count() as u64;
        let consulted = report
            .properties
            .iter()
            .filter(|p| p.graph_cache_hit.is_some())
            .count() as u64;
        assert_eq!(builders, t.graph_cache_builds);
        assert_eq!(consulted, t.graph_cache_lookups);
        assert_eq!(t.graph_cache_hits, consulted - builders);
        let row_reuse: u64 = report.properties.iter().map(|p| p.nodes_reused).sum();
        assert_eq!(row_reuse, t.graph_cache_nodes_reused);
        assert_eq!(
            row_reuse,
            collector.counter_value("graph_cache.nodes_reused")
        );
        assert!(
            t.graph_cache_hits > 0,
            "shared slices must produce graph-cache hits"
        );
        assert_eq!(
            t.total_state_visits(),
            t.smv_states_explored + t.graph_cache_nodes_reused
        );
    }

    /// The interning layer is visible in the totals: the symbol gauge is
    /// populated and a `compile` span is recorded.
    #[test]
    fn interning_totals_reported() {
        let (report, collector) = run(&["S01", "S02"], 1);
        let t = &report.totals;
        assert!(t.symbols_interned > 0, "symbol gauge must be recorded");
        assert!(t.compile_builds >= 1, "at least one model compiled");
        assert!(t.compile_lookups >= t.compile_builds);
        assert!(
            t.stage_elapsed_us.iter().any(|(name, _)| name == "compile"),
            "compile span present in stage totals"
        );
        assert_eq!(
            t.symbols_interned,
            collector.counter_value("ident.symbols_interned")
        );
        let json = report.to_json();
        assert!(json.contains("\"symbols_interned\""));
    }

    /// An explicit-only run reports an all-zero `backend.*` section —
    /// the symbolic counters exist in the payload but record no work.
    #[test]
    fn explicit_runs_report_zero_backend_counters() {
        let (report, _) = run(&["S01", "S02"], 1);
        let t = &report.totals;
        assert_eq!(t.backend_clauses, 0);
        assert_eq!(t.backend_decisions, 0);
        assert_eq!(t.backend_bound_reached, 0);
        assert_eq!(t.backend_divergences, 0);
        let json = report.to_json();
        assert!(json.contains("\"backend_clauses\": 0"));
        assert!(json.contains("\"backend_divergences\": 0"));
        assert!(
            !report.render_text().contains("symbolic:"),
            "text rendering omits the symbolic line when the backend did no work"
        );
    }

    /// A symbolic-backend run surfaces non-zero solver counters in the
    /// totals, the JSON payload, and the text rendering.
    #[test]
    fn symbolic_runs_report_backend_counters() {
        let collector = Collector::enabled();
        let cfg = AnalysisConfig {
            property_filter: Some(vec!["S01", "S12"]),
            threads: 1,
            collector: collector.clone(),
            backend: crate::pipeline::BackendKind::Symbolic,
            ..AnalysisConfig::default()
        };
        let report = analyze_implementation(Implementation::Reference, &cfg);
        let telemetry = TelemetryReport::from_run(&report, &collector);
        let t = &telemetry.totals;
        assert!(t.backend_clauses > 0, "BMC encodings emit clauses");
        assert!(t.backend_propagations > 0, "solver propagates");
        assert_eq!(t.backend_divergences, 0, "single backend cannot diverge");
        assert!(
            t.backend_learned_lits >= t.backend_learned,
            "every learned clause keeps its asserting literal"
        );
        assert!(telemetry.to_json().contains("\"backend_clauses\""));
        assert!(telemetry.to_json().contains("\"backend_learned_lits\""));
        assert!(telemetry.render_text().contains("symbolic:"));
    }

    /// A clean run reports a zero degraded section — in the totals, the
    /// JSON payload (which CI gates on), and the text rendering.
    #[test]
    fn clean_runs_report_zero_degraded() {
        let (report, _) = run(&["S01", "S02", "PR07"], 2);
        let t = &report.totals;
        assert_eq!(t.degraded_total(), 0);
        assert_eq!(t.degraded_budget_exhausted, 0);
        assert_eq!(t.degraded_panics_isolated, 0);
        assert_eq!(t.degraded_skipped, 0);
        let json = report.to_json();
        assert!(json.contains("\"degraded_total\": 0"));
        assert!(json.contains("\"degraded_budget_exhausted\": 0"));
        assert!(report
            .render_text()
            .contains("degraded: 0 (0 budget-exhausted, 0 isolated panics, 0 skipped)"));
    }

    /// Rendered JSON parses with the crate's own parser and preserves
    /// the row count and key totals.
    #[test]
    fn json_rendering_round_trips() {
        let (report, _) = run(&["S01", "PR07"], 1);
        let text = report.to_json();
        let value = json::parse(&text).expect("telemetry JSON parses");
        let obj = value.as_object().unwrap();
        let props = obj
            .iter()
            .find(|(k, _)| k == "properties")
            .and_then(|(_, v)| v.as_array())
            .unwrap();
        assert_eq!(props.len(), 2);
        let first = props[0].as_object().unwrap();
        for key in [
            "property_id",
            "outcome",
            "states_explored",
            "cegar_iterations",
            "cache_hit",
            "elapsed_ms",
        ] {
            assert!(first.iter().any(|(k, _)| k == key), "row has {key}");
        }
        let totals = obj
            .iter()
            .find(|(k, _)| k == "totals")
            .and_then(|(_, v)| v.as_object())
            .unwrap();
        assert!(totals.iter().any(|(k, _)| k == "compose_hit_rate"));
        assert!(totals.iter().any(|(k, _)| k == "explore_workers"));
        assert!(totals.iter().any(|(k, _)| k == "explore_levels"));
        assert!(report.totals.explore_workers >= 1, "worker gauge recorded");
        assert!(report.totals.explore_levels >= 1, "BFS levels recorded");
        assert!(report.totals.explore_peak_level >= 1, "peak level recorded");
        let rendered = report.render_text();
        assert!(rendered.contains("S01"));
        assert!(rendered.contains("CPV queries"));
        assert!(rendered.contains("explore:"));
    }
}

//! The traced run: per-layer numbers measured from outside the program.
//!
//! The traced run re-walks each item of a workload single-threaded through
//! the same public entry points `analyze_extracted` uses — the
//! `ThreatModelCache` lookups, the CEGAR loop over a `CheckBackend`, the
//! `RunStore` loads and saves, `run_suite`, `extract_fsm`, `run_scenario`
//! and `procheck_fsm::diff` — and records a span (name, start, end,
//! parent) around each call. A layer's self time is its spans' duration
//! minus their children's. Query answers are timed by wrapping the
//! backend; the time the CEGAR loop spends between a violating answer
//! and the next answer (or its return) is the crypto-feasibility check
//! (`cpv`). Work counts come from the program's own `Collector`
//! counters. Every traced verdict is compared with the untraced
//! pipeline's, and each item is also run untraced, single-threaded, for
//! the tracing overhead.

use crate::oracle::{table_failures, IMPLEMENTATIONS};
use crate::workloads::{PatchInputs, TempStore, Walk, FLAG_STEPS, XVAL_IMPLEMENTATIONS};
use crate::{median, pinned_config, pool_threads, Args, Metric, Outcome};
use procheck::cache::ThreatModelCache;
use procheck::cegar::{cegar_check_backend_budgeted, CegarOutcome, FinalVerdict};
use procheck::pipeline::{
    analyze_extracted, analyze_implementation, ue_config_for, AnalysisConfig, AnalysisReport,
    BackendKind, ExtractedModels,
};
use procheck::report::PropertyOutcome;
use procheck::store::{
    baseline_key, checked_model_fps, graph_key, knobs_fingerprint, link_key, outcome_from_data,
    outcome_to_data, threat_fingerprint, verdict_key, RunStore, BACKEND_TAG_EXPLICIT,
};
use procheck_conformance::runner::run_suite_traced;
use procheck_conformance::suites::full_suite;
use procheck_conformance::TestCase;
use procheck_extractor::{extract_fsm_traced, ExtractorConfig};
use procheck_ident::CmdIdSet;
use procheck_props::{registry, BaseProfile, Check, LinkScenario, NasProperty};
use procheck_smv::budget::{Budget, BudgetMeter};
use procheck_smv::checker::{
    por_commute_hits_total, CheckError, CompiledModel, CompiledProperty, Property, QueryStats,
    Verdict,
};
use procheck_smv::{
    expand_counterexample, slice_for_property, BackendVerdict, CheckBackend, ConeSig,
    ExplicitBackend, ReachGraph, SlicedModel,
};
use procheck_stack::quirks::Implementation;
use procheck_stack::UeConfig;
use procheck_store::{Fingerprint, VerdictRecord};
use procheck_symbolic::BmcBackend;
use procheck_telemetry::Collector;
use procheck_testbed::linkability::{run_scenario, Scenario};
use procheck_threat::{StepSemantics, ThreatConfig};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock allowance for each property's symbolic leg in the one
/// srsLTE `Both` report of the `xval` traced run. srsLTE's S16 takes
/// about 90 s under the symbolic engine; the allowance keeps the run
/// under its time limit while the straggler still shows.
const OUTLIER_DEADLINE: Duration = Duration::from_secs(10);

/// Flags of the `patch_loop` walk the traced run covers (four steps
/// each, the same fresh/replay mix as a whole cycle).
const TRACED_FLAGS: usize = 3;

/// Span names that are layers (everything except the `item` and
/// `property` frames the traced run opens itself).
const LAYERS: [&str; 13] = [
    "conformance",
    "extractor",
    "threat.compose",
    "smv.compile",
    "smv.explore",
    "smv.query",
    "cegar",
    "cpv",
    "testbed",
    "store.load",
    "store.save",
    "fsm.diff",
    "symbolic",
];

struct SpanRec {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    /// Whether the span belongs to an item with an untraced twin (the
    /// srsLTE outlier report has none).
    accounted: bool,
}

struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    accounted: bool,
}

impl Tracer {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn enter(&mut self, name: &'static str) {
        let start = self.now();
        self.push(name, start, f64::NAN);
        self.stack.push(self.spans.len() - 1);
    }

    fn exit(&mut self) {
        let i = self.stack.pop().expect("exit without enter");
        self.spans[i].end = self.now();
    }

    /// Records an already-finished span under the innermost open one.
    fn push(&mut self, name: &'static str, start: f64, end: f64) {
        self.spans.push(SpanRec {
            name,
            start,
            end,
            parent: self.stack.last().copied(),
            accounted: self.accounted,
        });
    }

    /// Self time per span name over accounted (or all) spans.
    fn self_times(&self, accounted_only: bool) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            if s.accounted || !accounted_only {
                *out.entry(s.name).or_insert(0.0) += s.end - s.start - c;
            }
        }
        out
    }

    fn durations<'a>(
        &'a self,
        name: &'a str,
        accounted_only: bool,
    ) -> impl Iterator<Item = f64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name && (s.accounted || !accounted_only))
            .map(|s| s.end - s.start)
    }

    /// The spans as JSON lines, for offline inspection.
    fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {parent}}}",
                s.name, s.start, s.end
            );
        }
        out
    }
}

/// Runs `f` inside a span named `name`.
fn span<T>(tracer: &RefCell<Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    tracer.borrow_mut().enter(name);
    let out = f();
    tracer.borrow_mut().exit();
    out
}

/// A backend wrapper that spans every answer and attributes the gap
/// after a violating answer to the crypto-feasibility check.
struct Timed<'a, B> {
    inner: B,
    name: &'static str,
    tracer: &'a RefCell<Tracer>,
    answers: Cell<u64>,
    cpv_since: Cell<Option<f64>>,
}

impl<'a, B: CheckBackend> Timed<'a, B> {
    fn new(inner: B, name: &'static str, tracer: &'a RefCell<Tracer>) -> Self {
        Timed {
            inner,
            name,
            tracer,
            answers: Cell::new(0),
            cpv_since: Cell::new(None),
        }
    }

    fn close_cpv(&self) {
        if let Some(start) = self.cpv_since.take() {
            let mut t = self.tracer.borrow_mut();
            let end = t.now();
            t.push("cpv", start, end);
        }
    }
}

impl<B: CheckBackend> CheckBackend for Timed<'_, B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn answer(
        &self,
        model: &CompiledModel,
        property: &CompiledProperty,
        excluded: &CmdIdSet,
        limit: usize,
        meter: &BudgetMeter,
        stats: &mut QueryStats,
    ) -> Result<BackendVerdict, CheckError> {
        self.close_cpv();
        self.answers.set(self.answers.get() + 1);
        let out = span(self.tracer, self.name, || {
            self.inner
                .answer(model, property, excluded, limit, meter, stats)
        });
        if let Ok(BackendVerdict::Definite(Verdict::Violated(_) | Verdict::Reachable(_))) = &out {
            self.cpv_since.set(Some(self.tracer.borrow().now()));
        }
        out
    }
}

/// Work the traced run counts itself (everything else comes from the
/// program's `Collector`).
#[derive(Default)]
struct Counts {
    queries: u64,
    symbolic_queries: u64,
    symbolic_legs: u64,
    symbolic_bound_reached: u64,
    symbolic_budget: u64,
    graph_lookups: u64,
    graph_hits: u64,
    compose_lookups: u64,
    compose_hits: u64,
    scenarios: u64,
    delta_transitions: u64,
    bytes_verdicts: u64,
    bytes_graphs: u64,
    bytes_baselines: u64,
    store_lookups: u64,
    store_hits: u64,
    store_invalidated: u64,
    failed: BTreeMap<&'static str, u64>,
    straggler: (f64, String),
}

impl Counts {
    fn fail(&mut self, layer: &'static str) {
        *self.failed.entry(layer).or_insert(0) += 1;
    }
}

/// Shared state of one traced run.
struct TracedRun {
    tracer: RefCell<Tracer>,
    collector: Collector,
    counts: RefCell<Counts>,
    cfg: AnalysisConfig,
}

/// A shared graph's slot: the threat configuration and, when the
/// property was sliced, its cone.
type GraphSlot = (ThreatConfig, Option<ConeSig>);

/// One item's analysis context (a fresh cache, like one pipeline call).
struct Item<'d> {
    d: &'d TracedRun,
    implementation: Implementation,
    models: &'d ExtractedModels,
    cache: ThreatModelCache,
    graphs: RefCell<HashMap<GraphSlot, Arc<ReachGraph>>>,
    store: Option<Arc<RunStore>>,
    symbolic_deadline: Option<Duration>,
}

impl TracedRun {
    fn new() -> Self {
        let collector = Collector::enabled();
        TracedRun {
            tracer: RefCell::new(Tracer {
                origin: Instant::now(),
                spans: Vec::new(),
                stack: Vec::new(),
                accounted: true,
            }),
            cfg: pinned_config(1, BackendKind::Explicit, None, collector.clone()),
            collector,
            counts: RefCell::new(Counts::default()),
        }
    }

    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        span(&self.tracer, name, f)
    }

    /// Conformance replay and extraction, as `extract_models` does them.
    fn extract(&self, ue_cfg: &UeConfig, cases: &[TestCase]) -> ExtractedModels {
        let suite = self.span("conformance", || {
            run_suite_traced(ue_cfg, cases, &self.collector)
        });
        let (ue, mme) = self.span("extractor", || {
            (
                extract_fsm_traced(
                    "ue",
                    &suite.ue_log,
                    &ExtractorConfig::for_ue(&ue_cfg.signatures),
                    &self.collector,
                ),
                extract_fsm_traced(
                    "mme",
                    &suite.mme_log,
                    &ExtractorConfig::for_mme(),
                    &self.collector,
                ),
            )
        });
        let models = ExtractedModels {
            ue,
            mme,
            log_records: suite.ue_log.len() + suite.mme_log.len(),
            coverage: suite.coverage.clone(),
            extraction_errors: Vec::new(),
        };
        // Freeing the information-rich log (millions of records at paper
        // scale) is part of what the conformance replay costs. glibc's
        // malloc coalesces the freed records at its next large request;
        // one is made here so that deferred work lands in this span too.
        self.span("conformance", || {
            drop(suite);
            drop(std::hint::black_box(Vec::<u8>::with_capacity(1 << 16)));
        });
        models
    }
}

impl Item<'_> {
    /// Every registry property, in order, as the pipeline would report it.
    fn analyze(&self) -> Vec<(&'static str, PropertyOutcome)> {
        let d = self.d;
        let out: Vec<_> = registry()
            .iter()
            .map(|prop| {
                let t0 = d.tracer.borrow().now();
                let outcome = d.span("property", || self.property(prop));
                let dt = d.tracer.borrow().now() - t0;
                let mut c = d.counts.borrow_mut();
                if dt > c.straggler.0 {
                    c.straggler = (dt, format!("{} {}", self.implementation.name(), prop.id));
                }
                (prop.id, outcome)
            })
            .collect();
        if let Some(store) = &self.store {
            self.record_baseline(store);
        }
        let cs = self.cache.stats();
        let mut c = d.counts.borrow_mut();
        c.compose_lookups += cs.lookups as u64;
        c.compose_hits += cs.hits() as u64;
        if let Some(store) = &self.store {
            let s = store.stats();
            c.store_lookups += s.lookups;
            c.store_hits += s.hits;
            c.store_invalidated += s.invalidated;
        }
        out
    }

    fn property(&self, prop: &NasProperty) -> PropertyOutcome {
        match &prop.check {
            Check::Model(p) => {
                let explicit = self.explicit_leg(prop, p);
                if self.d.cfg.backend != BackendKind::Both {
                    return explicit;
                }
                let symbolic = self.symbolic_leg(prop, p);
                match divergence(&explicit, &symbolic) {
                    Some(msg) => {
                        self.d.counts.borrow_mut().fail("symbolic");
                        PropertyOutcome::Error(msg)
                    }
                    None => explicit,
                }
            }
            Check::Linkability(scenario) => self.linkability(prop, *scenario),
        }
    }

    fn compose_and_compile(
        &self,
        threat_cfg: &ThreatConfig,
    ) -> Result<Arc<CompiledModel>, CheckError> {
        let d = self.d;
        let model = d
            .span("threat.compose", || {
                self.cache.get_or_build_traced(
                    &self.models.ue,
                    &self.models.mme,
                    threat_cfg,
                    &d.collector,
                )
            })
            .inspect_err(|_| d.counts.borrow_mut().fail("threat"))?;
        d.span("smv.compile", || {
            self.cache
                .get_or_compile_traced(&model, threat_cfg, &d.collector)
        })
        .inspect_err(|_| d.counts.borrow_mut().fail("smv"))
    }

    fn explicit_leg(&self, prop: &NasProperty, p: &Property) -> PropertyOutcome {
        let d = self.d;
        let cfg = &d.cfg;
        let threat_cfg = prop.slice.threat_config();
        let compiled = match self.compose_and_compile(&threat_cfg) {
            Ok(c) => c,
            Err(e) => return error_outcome(p, e, cfg),
        };
        let (cp, sliced) = d.span("smv.compile", || {
            let cp = compiled.compile_property(p);
            let sliced = match &cp {
                Ok(cp) => slice_for_property(&compiled, cp)
                    .filter(|s| s.sig.cmd_count() < compiled.command_count()),
                Err(_) => None,
            };
            (cp, sliced)
        });
        let checked: &CompiledModel = sliced.as_ref().map_or(&compiled, |s| &s.model);
        // The persistent store, consulted before any graph work under the
        // as-checked model's key.
        let pending = self.store.as_ref().map(|store| {
            d.span("store.load", || {
                let fps = checked_model_fps(checked);
                let key = verdict_key(
                    fps.semantic,
                    threat_fingerprint(&threat_cfg),
                    prop.id,
                    knobs_fingerprint(
                        cfg.state_limit,
                        cfg.max_cegar_iterations,
                        BACKEND_TAG_EXPLICIT,
                        0,
                    ),
                );
                let record = store.load_verdict(key);
                (key, fps, record)
            })
        });
        if let Some((_, fps, Some(record))) = &pending {
            if record.property_id == prop.id && RunStore::verdict_usable(record, fps.exact) {
                return outcome_from_data(record.outcome.clone());
            }
        }
        let mut trajectory = [0; 3];
        let outcome = match cp {
            Err(e) => error_outcome(p, e, cfg),
            Ok(_) => {
                let semantics = StepSemantics::new(threat_cfg.clone());
                let graph = self.graph(
                    &threat_cfg,
                    &compiled,
                    sliced.as_ref(),
                    pending.as_ref().map(|(_, fps, _)| fps.semantic),
                );
                let checked = graph.and_then(|graph| {
                    d.span("cegar", || {
                        let backend =
                            Timed::new(ExplicitBackend { graph: &graph }, "smv.query", &d.tracer);
                        let out = cegar_check_backend_budgeted(
                            checked,
                            &backend,
                            p,
                            &semantics,
                            cfg.state_limit,
                            cfg.max_cegar_iterations,
                            &BudgetMeter::unlimited(),
                            &d.collector,
                        );
                        backend.close_cpv();
                        d.counts.borrow_mut().queries += backend.answers.get();
                        // Sliced traces are re-expanded to the full model
                        // before anything user-visible is built from them.
                        out.map(|o| match &sliced {
                            Some(_) => expand(o, &compiled),
                            None => o,
                        })
                    })
                });
                match &checked {
                    Ok(o) => trajectory = [o.iterations, o.refinements.len(), o.cpv_queries],
                    Err(_) => d.counts.borrow_mut().fail("smv"),
                }
                cegar_outcome(p, checked, cfg)
            }
        };
        if let (Some(store), Some((key, fps, _))) = (&self.store, &pending) {
            self.save_verdict(store, *key, prop, &outcome, fps.exact, trajectory);
        }
        outcome
    }

    /// The shared reachability graph for the property's slot: the
    /// traced run's own map, then the store, then an exploration through the
    /// cache (written back to the store).
    fn graph(
        &self,
        threat_cfg: &ThreatConfig,
        compiled: &Arc<CompiledModel>,
        sliced: Option<&SlicedModel>,
        semantic_fp: Option<Fingerprint>,
    ) -> Result<Arc<ReachGraph>, CheckError> {
        let d = self.d;
        let cfg = &d.cfg;
        let slot = (threat_cfg.clone(), sliced.map(|s| s.sig.clone()));
        d.counts.borrow_mut().graph_lookups += 1;
        if let Some(graph) = self.graphs.borrow().get(&slot) {
            d.counts.borrow_mut().graph_hits += 1;
            return Ok(Arc::clone(graph));
        }
        let checked: &CompiledModel = sliced.map_or(compiled, |s| &s.model);
        let store_key = semantic_fp.map(graph_key);
        if let (Some(store), Some(key)) = (&self.store, store_key) {
            if let Some(graph) = d.span("store.load", || {
                store.load_graph(key, checked, cfg.state_limit)
            }) {
                let graph = Arc::new(graph);
                self.graphs.borrow_mut().insert(slot, Arc::clone(&graph));
                return Ok(graph);
            }
        }
        let meter = BudgetMeter::unlimited();
        let graph = d.span("smv.explore", || match sliced {
            Some(s) => self.cache.get_or_build_sliced_graph_budgeted(
                s,
                threat_cfg,
                cfg.state_limit,
                &meter,
                cfg.explore_threads,
                cfg.por,
                &d.collector,
            ),
            None => self.cache.get_or_build_graph_budgeted_opts(
                compiled,
                threat_cfg,
                cfg.state_limit,
                &meter,
                cfg.explore_threads,
                cfg.por,
                &d.collector,
            ),
        })?;
        if let (Some(store), Some(key)) = (&self.store, store_key) {
            let before = store.stats().bytes_written;
            d.span("store.save", || store.save_graph(key, &graph));
            d.counts.borrow_mut().bytes_graphs += store.stats().bytes_written - before;
        }
        self.graphs.borrow_mut().insert(slot, Arc::clone(&graph));
        Ok(graph)
    }

    fn symbolic_leg(&self, prop: &NasProperty, p: &Property) -> PropertyOutcome {
        let d = self.d;
        let cfg = &d.cfg;
        let threat_cfg = prop.slice.threat_config();
        let compiled = match self.compose_and_compile(&threat_cfg) {
            Ok(c) => c,
            Err(e) => return error_outcome(p, e, cfg),
        };
        if let Err(e) = d.span("smv.compile", || compiled.compile_property(p)) {
            return error_outcome(p, e, cfg);
        }
        let meter = match self.symbolic_deadline {
            Some(deadline) => Budget::unlimited().with_deadline(deadline).start(),
            None => BudgetMeter::unlimited(),
        };
        let semantics = StepSemantics::new(threat_cfg);
        let checked = d.span("cegar", || {
            let backend = Timed::new(
                BmcBackend::with_collector(cfg.bmc_bound, d.collector.clone()),
                "symbolic",
                &d.tracer,
            );
            let out = cegar_check_backend_budgeted(
                &compiled,
                &backend,
                p,
                &semantics,
                cfg.state_limit,
                cfg.max_cegar_iterations,
                &meter,
                &d.collector,
            );
            backend.close_cpv();
            d.counts.borrow_mut().symbolic_queries += backend.answers.get();
            out
        });
        let mut c = d.counts.borrow_mut();
        c.symbolic_legs += 1;
        match &checked {
            Ok(o) if matches!(o.verdict, FinalVerdict::BoundReached(_)) => {
                c.symbolic_bound_reached += 1
            }
            Err(CheckError::Budget(_)) => c.symbolic_budget += 1,
            Err(_) => c.fail("symbolic"),
            Ok(_) => {}
        }
        drop(c);
        cegar_outcome(p, checked, cfg)
    }

    fn linkability(&self, prop: &NasProperty, scenario: LinkScenario) -> PropertyOutcome {
        let d = self.d;
        let cfg = &d.cfg;
        let key = link_key(
            self.implementation.name(),
            &cfg.imsi,
            cfg.key_material,
            prop.id,
        );
        if let Some(store) = &self.store {
            let stored = d.span("store.load", || store.load_verdict(key));
            if let Some(record) = stored.filter(|r| r.property_id == prop.id) {
                return outcome_from_data(record.outcome);
            }
        }
        let mut ue_cfg = ue_config_for(self.implementation, cfg);
        if prop.slice.base == BaseProfile::LteFreshnessLimit {
            ue_cfg.sqn_config.freshness_limit = Some(4);
        }
        d.counts.borrow_mut().scenarios += 1;
        let outcome = d.span("testbed", || run_scenario(scenario_of(scenario), &ue_cfg));
        let mapped = if outcome.distinguishable {
            PropertyOutcome::Distinguishable(outcome.summary)
        } else {
            PropertyOutcome::Equivalent
        };
        if let Some(store) = &self.store {
            self.save_verdict(store, key, prop, &mapped, Fingerprint::ZERO, [0; 3]);
        }
        mapped
    }

    fn save_verdict(
        &self,
        store: &RunStore,
        key: Fingerprint,
        prop: &NasProperty,
        outcome: &PropertyOutcome,
        model_fp: Fingerprint,
        [iterations, refinements, cpv_queries]: [usize; 3],
    ) {
        let Some(data) = outcome_to_data(outcome) else {
            return;
        };
        let record = VerdictRecord {
            property_id: prop.id.to_string(),
            outcome: data,
            cegar_iterations: iterations as u64,
            refinements: refinements as u64,
            cpv_queries: cpv_queries as u64,
            model_fp,
        };
        let before = store.stats().bytes_written;
        self.d
            .span("store.save", || store.save_verdict(key, &record));
        self.d.counts.borrow_mut().bytes_verdicts += store.stats().bytes_written - before;
    }

    /// Diffs the extracted machines against the stored baseline, then
    /// makes them the new baseline.
    fn record_baseline(&self, store: &RunStore) {
        let d = self.d;
        let key = baseline_key(self.implementation.name(), &d.cfg.imsi, d.cfg.key_material);
        if let Some((ue, mme)) = d.span("store.load", || store.load_baseline(key)) {
            let n = d.span("fsm.diff", || {
                let u = procheck_fsm::diff::diff(&ue, &self.models.ue);
                let m = procheck_fsm::diff::diff(&mme, &self.models.mme);
                u.added.len() + u.removed.len() + m.added.len() + m.removed.len()
            });
            d.counts.borrow_mut().delta_transitions += n as u64;
        }
        let before = store.stats().bytes_written;
        d.span("store.save", || {
            store.save_baseline(key, &self.models.ue, &self.models.mme)
        });
        d.counts.borrow_mut().bytes_baselines += store.stats().bytes_written - before;
    }
}

fn expand(mut o: CegarOutcome, full: &CompiledModel) -> CegarOutcome {
    o.verdict = match o.verdict {
        FinalVerdict::Attack(ce) => FinalVerdict::Attack(expand_counterexample(full, &ce)),
        FinalVerdict::GoalReachable(ce) => {
            FinalVerdict::GoalReachable(expand_counterexample(full, &ce))
        }
        v => v,
    };
    o
}

fn scenario_of(s: LinkScenario) -> Scenario {
    match s {
        LinkScenario::StaleAuthReplay => Scenario::StaleAuthReplay,
        LinkScenario::ConsumedAuthReplay => Scenario::ConsumedAuthReplay,
        LinkScenario::ForgedAuthRequest => Scenario::ForgedAuthRequest,
        LinkScenario::SmcReplay => Scenario::SmcReplay,
        LinkScenario::ImsiPaging => Scenario::ImsiPaging,
        LinkScenario::GutiPagingPresence => Scenario::GutiPagingPresence,
        LinkScenario::GutiReuse => Scenario::GutiReuse,
        LinkScenario::AttachAcceptReplay => Scenario::AttachAcceptReplay,
    }
}

/// The report outcome of a check error, as the pipeline maps it.
fn error_outcome(p: &Property, e: CheckError, cfg: &AnalysisConfig) -> PropertyOutcome {
    match e {
        CheckError::InvalidModel(problems) => {
            if matches!(p, Property::Reachable { .. }) {
                PropertyOutcome::GoalUnreachable
            } else {
                PropertyOutcome::Skipped(format!(
                    "not applicable to this model: {}",
                    problems.join("; ")
                ))
            }
        }
        CheckError::StateLimit(n) if n < cfg.state_limit => {
            PropertyOutcome::BudgetExhausted(format!("per-property state cap {n} exhausted"))
        }
        CheckError::StateLimit(n) => PropertyOutcome::Skipped(format!("state limit {n} exceeded")),
        CheckError::Budget(e) => PropertyOutcome::BudgetExhausted(e.to_string()),
        CheckError::Panic(msg) => PropertyOutcome::Error(msg),
        CheckError::BackendDivergence(msg) => {
            PropertyOutcome::Error(format!("backend divergence: {msg}"))
        }
    }
}

fn cegar_outcome(
    p: &Property,
    checked: Result<CegarOutcome, CheckError>,
    cfg: &AnalysisConfig,
) -> PropertyOutcome {
    match checked {
        Ok(o) => match o.verdict {
            FinalVerdict::Verified => PropertyOutcome::Verified,
            FinalVerdict::Attack(ce) => PropertyOutcome::Attack(ce),
            FinalVerdict::GoalReachable(ce) => PropertyOutcome::GoalReachable(ce),
            FinalVerdict::GoalUnreachable => PropertyOutcome::GoalUnreachable,
            FinalVerdict::BoundReached(k) => PropertyOutcome::BoundReached(k),
            FinalVerdict::Inconclusive => {
                PropertyOutcome::Skipped("CEGAR iteration bound exhausted".into())
            }
        },
        Err(e) => error_outcome(p, e, cfg),
    }
}

/// The pipeline's `Both`-mode agreement rule: `Some(message)` on a
/// divergence; degraded legs have nothing to compare.
fn divergence(explicit: &PropertyOutcome, symbolic: &PropertyOutcome) -> Option<String> {
    use PropertyOutcome as O;
    if explicit.is_degraded() || symbolic.is_degraded() {
        return None;
    }
    let agree = match (explicit, symbolic) {
        (O::Verified, O::Verified | O::BoundReached(_)) => true,
        (O::GoalUnreachable, O::GoalUnreachable | O::BoundReached(_)) => true,
        (O::Attack(_), O::Attack(_)) => true,
        (O::GoalReachable(_), O::GoalReachable(_)) => true,
        (O::Attack(ce) | O::GoalReachable(ce), O::BoundReached(k)) => ce.steps.len() - 1 > *k,
        _ => false,
    };
    (!agree).then(|| {
        format!(
            "backend divergence: explicit={} symbolic={}",
            explicit.tag(),
            symbolic.tag()
        )
    })
}

/// Traced verdicts that differ from the untraced pipeline's.
fn verdict_mismatches(
    traced: &[(&'static str, PropertyOutcome)],
    untraced: &AnalysisReport,
) -> u64 {
    let mut failed = traced.len().abs_diff(untraced.results.len()) as u64;
    for ((id, outcome), r) in traced.iter().zip(&untraced.results) {
        if *id != r.property_id || format!("{outcome:?}") != format!("{:?}", r.outcome) {
            eprintln!(
                "perfbench: traced {id} = {} but the pipeline reports {} = {}",
                outcome.tag(),
                r.property_id,
                r.outcome.tag()
            );
            failed += 1;
        }
    }
    failed
}

/// Totals over the traced items.
#[derive(Default)]
struct Totals {
    attempted: u64,
    failed: u64,
    traced_s: f64,
    untraced_s: f64,
    /// Σ property elapsed and wall × threads of pinned-pool reports.
    pool_busy: f64,
    pool_capacity: f64,
}

impl Totals {
    /// Compares traced with untraced verdicts, and (`tabled`) the
    /// untraced report with the expected-verdict table.
    fn check(
        &mut self,
        traced: &[(&'static str, PropertyOutcome)],
        untraced: &AnalysisReport,
        tabled: bool,
    ) {
        self.attempted += traced.len() as u64;
        self.failed += verdict_mismatches(traced, untraced);
        if tabled {
            self.failed += table_failures(untraced);
        }
    }

    /// One pinned-pool report of `models` (untimed by the trace), for
    /// the pool's utilisation.
    fn pool(&mut self, imp: Implementation, models: &ExtractedModels, backend: BackendKind) {
        let threads = pool_threads();
        let cfg = pinned_config(threads, backend, None, Collector::disabled());
        let t = Instant::now();
        let report = analyze_extracted(imp, models, &cfg);
        let wall = t.elapsed().as_secs_f64();
        self.pool_busy += report
            .results
            .iter()
            .map(|r| r.elapsed.as_secs_f64())
            .sum::<f64>();
        self.pool_capacity += wall * threads as f64;
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut d = TracedRun::new();
    let por_before = por_commute_hits_total();
    let mut tot = Totals::default();
    match args.workload.as_str() {
        "registry_cold" | "xval" => {
            let (imps, backend): (&[Implementation], _) = if args.workload == "xval" {
                (&XVAL_IMPLEMENTATIONS, BackendKind::Both)
            } else {
                (&IMPLEMENTATIONS, BackendKind::Explicit)
            };
            d.cfg.backend = backend;
            let untraced_cfg = pinned_config(1, backend, None, Collector::disabled());
            // Warm-up: the same untimed set-up the timed workload runs.
            for &imp in imps {
                analyze_implementation(
                    imp,
                    &pinned_config(1, BackendKind::Explicit, None, Collector::disabled()),
                );
            }
            for &imp in imps {
                let t = Instant::now();
                let traced = d.span("item", || {
                    let ue_cfg = ue_config_for(imp, &d.cfg);
                    let models = d.extract(&ue_cfg, &full_suite(&ue_cfg));
                    let item = Item {
                        d: &d,
                        implementation: imp,
                        models: &models,
                        cache: ThreatModelCache::new(),
                        graphs: RefCell::default(),
                        store: None,
                        symbolic_deadline: None,
                    };
                    (item.analyze(), models)
                });
                tot.traced_s += t.elapsed().as_secs_f64();
                let t = Instant::now();
                let untraced = analyze_implementation(imp, &untraced_cfg);
                tot.untraced_s += t.elapsed().as_secs_f64();
                tot.check(&traced.0, &untraced, true);
                tot.pool(imp, &traced.1, backend);
            }
            if args.workload == "xval" {
                outlier(&d, &mut tot);
            }
        }
        "patch_loop" => patch_steps(args, &d, &mut tot)?,
        w => return Err(format!("unknown workload {w}")),
    }
    let por = por_commute_hits_total() - por_before;
    let trace_path = args.out.join(format!("trace_{}.jsonl", args.workload));
    std::fs::write(&trace_path, d.tracer.borrow().to_jsonl())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    eprintln!("perfbench: spans written to {}", trace_path.display());
    let metrics = per_layer_metrics(&d, &tot, por);
    Ok(Outcome {
        correct: tot.failed == 0,
        attempted: tot.attempted,
        failed: tot.failed,
        metrics,
    })
}

/// The one srsLTE `Both` report: no untraced twin (it would take minutes),
/// and each symbolic leg is cut at [`OUTLIER_DEADLINE`]. A cut leg is not
/// a verdict, so — as in the pipeline — the explicit leg is reported and
/// checked against the table.
fn outlier(d: &TracedRun, tot: &mut Totals) {
    let imp = Implementation::Srs;
    d.tracer.borrow_mut().accounted = false;
    let traced = d.span("item", || {
        let ue_cfg = ue_config_for(imp, &d.cfg);
        let models = d.extract(&ue_cfg, &full_suite(&ue_cfg));
        Item {
            d,
            implementation: imp,
            models: &models,
            cache: ThreatModelCache::new(),
            graphs: RefCell::default(),
            store: None,
            symbolic_deadline: Some(OUTLIER_DEADLINE),
        }
        .analyze()
    });
    d.tracer.borrow_mut().accounted = true;
    let explicit = analyze_implementation(
        imp,
        &pinned_config(
            pool_threads(),
            BackendKind::Explicit,
            None,
            Collector::disabled(),
        ),
    );
    tot.check(&traced, &explicit, true);
    eprintln!(
        "perfbench: srsLTE Both: {} symbolic legs cut at {:?} (reported as symbolic.budget_exhausted)",
        d.counts.borrow().symbolic_budget,
        OUTLIER_DEADLINE
    );
}

/// The walk's steps for its first [`TRACED_FLAGS`] flags, each step traced on one store
/// and run untraced on a twin store that holds the same records.
fn patch_steps(args: &Args, d: &TracedRun, tot: &mut Totals) -> Result<(), String> {
    let inputs = PatchInputs::new(args.seed);
    let traced_store = TempStore::fresh(&args.out, "trace_a")?;
    let untraced_store = TempStore::fresh(&args.out, "trace_b")?;
    let cfg_for = |dir: &TempStore| {
        pinned_config(
            1,
            BackendKind::Explicit,
            Some(dir.0.clone()),
            Collector::disabled(),
        )
    };
    // Set-up, as in the timed workload: the baseline from the unpatched
    // stack, in both stores.
    let baseline = inputs.extract(0);
    for dir in [&traced_store, &untraced_store] {
        analyze_extracted(Implementation::Reference, &baseline, &cfg_for(dir));
    }
    let mut walk = Walk::new(args.seed);
    let mut last = None;
    for _ in 0..TRACED_FLAGS * FLAG_STEPS {
        let bits = walk.next_step();
        let t = Instant::now();
        let traced = d.span("item", || {
            let models = d.extract(&inputs.ue_config(bits), &inputs.cases);
            let store = d
                .span("store.load", || RunStore::open(&traced_store.0))
                .map_err(|e| format!("store: {e}"))?;
            let item = Item {
                d,
                implementation: Implementation::Reference,
                models: &models,
                cache: ThreatModelCache::new(),
                graphs: RefCell::default(),
                store: Some(Arc::clone(&store)),
                symbolic_deadline: None,
            };
            Ok::<_, String>((item.analyze(), models))
        })?;
        tot.traced_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let untraced = analyze_extracted(
            Implementation::Reference,
            &inputs.extract(bits),
            &cfg_for(&untraced_store),
        );
        tot.untraced_s += t.elapsed().as_secs_f64();
        // Only the unpatched stack has a table; every step is compared
        // with the pipeline's own verdicts.
        tot.check(&traced.0, &untraced, bits == 0);
        last = Some(traced.1);
    }
    if let Some(models) = last {
        tot.pool(Implementation::Reference, &models, BackendKind::Explicit);
    }
    Ok(())
}

fn per_layer_metrics(d: &TracedRun, tot: &Totals, por: u64) -> Vec<Metric> {
    let t = d.tracer.borrow();
    let all = t.self_times(false);
    let main = t.self_times(true);
    let c = d.counts.borrow();
    let counter = |name: &str| d.collector.counter_value(name) as f64;
    let s = |name: &str| all.get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let failed = |layer: &str| c.failed.get(layer).copied().unwrap_or(0) as f64;
    let traced_main: f64 = t.durations("item", true).sum();
    let accounted: f64 = LAYERS.iter().filter_map(|l| main.get(l)).sum();
    let mut m = vec![
        Metric::new("conformance.run_s", s("conformance"), "s"),
        Metric::new(
            "conformance.cases_per_s",
            ratio(counter("conformance.cases"), s("conformance")),
            "1/s",
        ),
        Metric::new(
            "conformance.log_records",
            counter("conformance.log_records"),
            "count",
        ),
        Metric::new("extractor.extract_s", s("extractor"), "s"),
        Metric::new(
            "extractor.records_per_s",
            ratio(counter("extract.log_records"), s("extractor")),
            "1/s",
        ),
        Metric::new("threat.compose_s", s("threat.compose"), "s"),
        Metric::new("threat.models_built", counter("compose.builds"), "count"),
        Metric::new("threat.failed", failed("threat"), "count"),
        Metric::new("smv.compile_s", s("smv.compile"), "s"),
        Metric::new("smv.models_compiled", counter("compile.builds"), "count"),
        Metric::new("smv.explore_s", s("smv.explore"), "s"),
        Metric::new("smv.states", counter("smv.states_explored"), "count"),
        Metric::new(
            "smv.states_per_s",
            ratio(counter("smv.states_explored"), s("smv.explore")),
            "1/s",
        ),
        Metric::new("smv.por_skipped_guards", por as f64, "count"),
        Metric::new("smv.query_s", s("smv.query"), "s"),
        Metric::new("smv.queries", c.queries as f64, "count"),
        Metric::new("smv.failed", failed("smv"), "count"),
        Metric::new("cegar.s", s("cegar"), "s"),
        Metric::new("cegar.iterations", counter("cegar.iterations"), "count"),
        Metric::new("cegar.refinements", counter("cegar.refinements"), "count"),
        Metric::new("cpv.queries", counter("cpv.queries"), "count"),
        Metric::new("cpv.s", s("cpv"), "s"),
        Metric::new(
            "cache.compose_hit_rate",
            ratio(c.compose_hits as f64, c.compose_lookups as f64),
            "ratio",
        ),
        Metric::new(
            "cache.graph_hit_rate",
            ratio(c.graph_hits as f64, c.graph_lookups as f64),
            "ratio",
        ),
        Metric::new(
            "pipeline.pool_busy_frac",
            ratio(tot.pool_busy, tot.pool_capacity),
            "ratio",
        ),
        Metric::new("pipeline.straggler_s", c.straggler.0, "s"),
        Metric::new("testbed.scenarios", c.scenarios as f64, "count"),
        Metric::new(
            "store.hit_rate",
            ratio(c.store_hits as f64, c.store_lookups as f64),
            "ratio",
        ),
        Metric::new("store.bytes_written.verdicts", c.bytes_verdicts as f64, "B"),
        Metric::new("store.bytes_written.graphs", c.bytes_graphs as f64, "B"),
        Metric::new(
            "store.bytes_written.baselines",
            c.bytes_baselines as f64,
            "B",
        ),
        Metric::new("store.failed", c.store_invalidated as f64, "count"),
        Metric::new("fsm.delta_transitions", c.delta_transitions as f64, "count"),
        Metric::new("symbolic.queries", c.symbolic_queries as f64, "count"),
        Metric::new("symbolic.clauses", counter("backend.clauses"), "count"),
        Metric::new("symbolic.conflicts", counter("backend.conflicts"), "count"),
        Metric::new(
            "symbolic.bound_reached_share",
            ratio(c.symbolic_bound_reached as f64, c.symbolic_legs as f64),
            "ratio",
        ),
        Metric::new(
            "symbolic.budget_exhausted",
            c.symbolic_budget as f64,
            "count",
        ),
        Metric::new("symbolic.failed", failed("symbolic"), "count"),
        Metric::new("trace.traced_s", tot.traced_s, "s"),
        Metric::new("trace.untraced_s", tot.untraced_s, "s"),
        Metric::new(
            "trace.overhead",
            ratio(traced_main, tot.untraced_s) - 1.0,
            "ratio",
        ),
        Metric::new(
            "trace.accounted_share",
            ratio(accounted, tot.untraced_s),
            "ratio",
        ),
        Metric::new(
            "trace.unaccounted_share",
            1.0 - ratio(accounted, traced_main),
            "ratio",
        ),
    ];
    for layer in LAYERS {
        m.push(Metric::new(
            format!("share.{layer}"),
            ratio(main.get(layer).copied().unwrap_or(0.0), traced_main),
            "ratio",
        ));
    }
    eprintln!(
        "perfbench: traced {traced_main:.3} s (accounted items), untraced {:.3} s; straggler {} ({:.3} s); median property {:.4} s",
        tot.untraced_s,
        c.straggler.1,
        c.straggler.0,
        median(&t.durations("property", false).collect::<Vec<_>>()),
    );
    // Seconds per layer; the last column adds the srsLTE outlier report.
    for layer in LAYERS {
        let own = main.get(layer).copied().unwrap_or(0.0);
        eprintln!(
            "perfbench:   {layer:<15} self {own:>9.4} s  share {:>6.2}%  with outlier {:>9.4} s",
            100.0 * ratio(own, traced_main),
            s(layer)
        );
    }
    m
}

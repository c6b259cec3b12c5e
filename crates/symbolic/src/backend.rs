//! [`CheckBackend`] implementation over the BMC engine.
//!
//! The backend owns the bound `k` and a telemetry handle; each `answer`
//! call encodes, solves, replay-validates, and records `backend.*`
//! solver counters. Per the crate contract, a SAT answer only becomes a
//! verdict after [`crate::replay`] confirms the decoded path on the
//! source model, and an UNSAT answer is always the weaker
//! [`BackendVerdict::BoundReached`] — never a proof.

use crate::encode::{bmc_check, BmcAnswer};
use crate::replay::validate_and_render;
use crate::solver::SolverStats;
use procheck_ident::CmdIdSet;
use procheck_smv::budget::BudgetMeter;
use procheck_smv::checker::{
    CProp, CheckError, CompiledModel, CompiledProperty, QueryStats, Verdict,
};
use procheck_smv::{BackendVerdict, CheckBackend};
use procheck_telemetry::Collector;

/// Bounded-model-checking backend: bit-blasts the compiled model into
/// CNF and solves with the in-repo CDCL solver, for paths of length up
/// to `bound` transitions.
pub struct BmcBackend {
    /// Maximum number of transitions in any considered path.
    pub bound: usize,
    /// Telemetry sink for `backend.*` solver counters.
    pub collector: Collector,
}

impl BmcBackend {
    /// A backend with the given bound and a disabled telemetry handle.
    pub fn new(bound: usize) -> Self {
        BmcBackend {
            bound,
            collector: Collector::disabled(),
        }
    }

    /// A backend recording solver counters on `collector`.
    pub fn with_collector(bound: usize, collector: Collector) -> Self {
        BmcBackend { bound, collector }
    }

    fn record(&self, stats: &SolverStats, bound_reached: bool) {
        self.collector.add("backend.clauses", stats.clauses);
        self.collector.add("backend.decisions", stats.decisions);
        self.collector
            .add("backend.propagations", stats.propagations);
        self.collector.add("backend.conflicts", stats.conflicts);
        self.collector.add("backend.restarts", stats.restarts);
        self.collector.add("backend.learned", stats.learned);
        self.collector
            .add("backend.learned_lits", stats.learned_lits);
        if bound_reached {
            self.collector.add("backend.bound_reached", 1);
        }
    }
}

impl CheckBackend for BmcBackend {
    fn name(&self) -> &'static str {
        "bmc"
    }

    fn answer(
        &self,
        model: &CompiledModel,
        property: &CompiledProperty,
        excluded: &CmdIdSet,
        _limit: usize,
        meter: &BudgetMeter,
        stats: &mut QueryStats,
    ) -> Result<BackendVerdict, CheckError> {
        let mut solver_stats = SolverStats::default();
        let answer = bmc_check(
            model,
            property,
            excluded,
            self.bound,
            meter,
            &mut solver_stats,
        );
        // Decisions stand in for interned states in the shared query
        // accounting: both count "search work the engine performed".
        stats.product_states += solver_stats.decisions;
        stats.transitions += solver_stats.propagations;
        match answer {
            Ok(BmcAnswer::Violation(path)) => {
                self.record(&solver_stats, false);
                let ce = validate_and_render(model, property, excluded, &path)?;
                let verdict = match property.kind() {
                    CProp::Reachable { .. } => Verdict::Reachable(ce),
                    _ => Verdict::Violated(ce),
                };
                Ok(BackendVerdict::Definite(verdict))
            }
            Ok(BmcAnswer::BoundReached(k)) => {
                self.record(&solver_stats, true);
                Ok(BackendVerdict::BoundReached(k))
            }
            Err(e) => {
                self.record(&solver_stats, false);
                Err(e)
            }
        }
    }
}

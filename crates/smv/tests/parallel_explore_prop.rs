//! Property-based worker-count invariance of exploration: for random
//! small models, the level-synchronized frontier must produce the
//! *same* [`ReachGraph`] at every `explore_threads` — same state arena
//! (node ids and their states), same CSR successor layout, same BFS
//! parents, same predecessor lists, same build stats. Not "isomorphic":
//! identical, node id by node id. Builds aborted by the state limit or
//! the budget must fail with the same error and the same partial stats
//! at every worker count too.

use procheck_smv::checker::{
    build_reach_graph_budgeted_opts, CheckError, CheckStats, CompiledModel,
};
use procheck_smv::expr::Expr;
use procheck_smv::model::{GuardedCmd, Model};
use procheck_smv::{Budget, BudgetMeter, ReachGraph};
use proptest::prelude::*;

const DOMAIN: [&str; 3] = ["v0", "v1", "v2"];

fn arb_model() -> impl Strategy<Value = Model> {
    let n_vars = 2usize..5;
    let cmds = proptest::collection::vec(
        (
            0usize..5, // guard var
            0usize..3, // guard value
            0usize..5, // update var
            0usize..3, // update value
        ),
        1..12,
    );
    (n_vars, cmds).prop_map(|(vars, cmds)| random_model(vars, &[], cmds))
}

/// Models whose BFS levels span several frontier chunks, so wider builds
/// really fan out: every variable counts `v0 → v1 → v2`, which makes
/// the full `3^vars` product reachable (a widest level of ≥ 393 states
/// at 7 variables), plus random extra local moves and a few random
/// cross-variable commands that vary the edges, parents and levels.
fn arb_wide_model() -> impl Strategy<Value = Model> {
    let moves = proptest::collection::vec(
        proptest::collection::vec((0usize..3, 0usize..3), 0..3)
            .prop_map(|extra| [(0, 1), (1, 2)].into_iter().chain(extra).collect()),
        8..9,
    );
    let cross = proptest::collection::vec((0usize..8, 0usize..3, 0usize..8, 0usize..3), 0..8);
    (7usize..9, moves, cross).prop_map(|(vars, moves, cross)| random_model(vars, &moves, cross))
}

/// `vars` three-valued variables; `moves[i]` lists variable `i`'s local
/// `(from, to)` moves, and each `cross` entry is a command
/// `(guard var, guard value, update var, update value)`.
fn random_model(
    vars: usize,
    moves: &[Vec<(usize, usize)>],
    cross: Vec<(usize, usize, usize, usize)>,
) -> Model {
    let mut model = Model::new("random");
    for i in 0..vars {
        model.declare_var(&format!("x{i}"), &DOMAIN, &[DOMAIN[0]]);
    }
    let local = moves
        .iter()
        .take(vars)
        .enumerate()
        .flat_map(|(v, m)| m.iter().map(move |&(from, to)| (v, from, v, to)));
    for (i, (gv, gx, uv, ux)) in local.chain(cross).enumerate() {
        let gv = gv % vars;
        let uv = uv % vars;
        model.add_command(
            GuardedCmd::new(format!("c{i}"), Expr::var_eq(format!("x{gv}"), DOMAIN[gx]))
                .set(format!("x{uv}"), DOMAIN[ux]),
        );
    }
    model
}

/// One build of `c` at `explore_threads` workers: the graph (or the
/// error it aborted with) plus the stats it absorbed.
fn try_build(
    c: &CompiledModel,
    limit: usize,
    meter: &BudgetMeter,
    explore_threads: usize,
) -> (Result<ReachGraph, CheckError>, CheckStats) {
    let mut stats = CheckStats::default();
    let g = build_reach_graph_budgeted_opts(c, limit, meter, &mut stats, explore_threads, true);
    (g, stats)
}

fn build(model: &Model, explore_threads: usize) -> (ReachGraph, CheckStats) {
    let c = CompiledModel::new(model).expect("generated models are valid");
    let (g, stats) = try_build(&c, 100_000, &BudgetMeter::unlimited(), explore_threads);
    (g.expect("random 3^8 models are far below the limit"), stats)
}

/// Asserts graph identity down to node ids — arena contents, CSR edges,
/// parents, predecessors, and exploration stats.
fn assert_identical(serial: &ReachGraph, parallel: &ReachGraph, width: usize) {
    assert_eq!(serial.node_count(), parallel.node_count(), "width={width}");
    assert_eq!(serial.edge_count(), parallel.edge_count(), "width={width}");
    assert_eq!(serial.init_count(), parallel.init_count(), "width={width}");
    assert_eq!(serial.is_packed(), parallel.is_packed(), "width={width}");
    assert_eq!(serial.levels(), parallel.levels(), "width={width}");
    assert_eq!(serial.peak_level(), parallel.peak_level(), "width={width}");
    assert_eq!(
        serial.build_stats(),
        parallel.build_stats(),
        "width={width}"
    );
    for id in 0..serial.node_count() as u32 {
        assert_eq!(
            serial.state_of(id),
            parallel.state_of(id),
            "arena diverges at node {id}, width={width}"
        );
        assert_eq!(
            serial.parent_edge(id),
            parallel.parent_edge(id),
            "BFS parent diverges at node {id}, width={width}"
        );
        let s: Vec<(u32, u32)> = serial.successors(id).collect();
        let p: Vec<(u32, u32)> = parallel.successors(id).collect();
        assert_eq!(s, p, "CSR successors diverge at node {id}, width={width}");
        assert_eq!(
            serial.predecessors(id),
            parallel.predecessors(id),
            "predecessors diverge at node {id}, width={width}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every worker count yields the one-worker graph, bit for bit.
    #[test]
    fn parallel_graph_equals_serial_graph(model in arb_model()) {
        let (serial, serial_stats) = build(&model, 1);
        for width in [2usize, 3, 4, 8] {
            let (parallel, parallel_stats) = build(&model, width);
            prop_assert_eq!(&serial_stats, &parallel_stats, "stats diverge at width {}", width);
            assert_identical(&serial, &parallel, width);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On models whose levels fan out, the graph is identical at every
    /// worker count, and a build cut short at half its states — by the
    /// state limit or by a run-wide budget cap — fails with the same
    /// error and the same partial stats at every worker count.
    #[test]
    fn wide_models_are_worker_count_invariant(model in arb_wide_model()) {
        let c = CompiledModel::new(&model).expect("generated models are valid");
        let (one, one_stats) = try_build(&c, 100_000, &BudgetMeter::unlimited(), 1);
        let one = one.expect("random 3^8 models are far below the limit");
        let half = one.node_count() / 2;
        let capped = |width: usize| {
            let meter = Budget::unlimited().with_total_states(half as u64).start();
            let (r, stats) = try_build(&c, 100_000, &meter, width);
            (r.map(|g| g.build_stats()), stats)
        };
        let limited = |width: usize| {
            let (r, stats) = try_build(&c, half, &BudgetMeter::unlimited(), width);
            (r.map(|g| g.build_stats()), stats)
        };
        let (capped_one, limited_one) = (capped(1), limited(1));
        prop_assert!(matches!(limited_one.0, Err(CheckError::StateLimit(_))));
        for width in [2usize, 4, 8] {
            let (g, stats) = try_build(&c, 100_000, &BudgetMeter::unlimited(), width);
            let g = g.expect("same model, same limit");
            prop_assert_eq!(&one_stats, &stats, "stats diverge at width {}", width);
            assert_identical(&one, &g, width);
            prop_assert_eq!(&capped_one, &capped(width), "budget path at width {}", width);
            prop_assert_eq!(&limited_one, &limited(width), "state-limit path at width {}", width);
        }
    }
}

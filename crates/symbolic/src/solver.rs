//! An in-repo CDCL SAT solver (std-only, vendored-discipline: no
//! external solver crates, same rule as `vendor/README.md`).
//!
//! The design is the classic MiniSat core, scaled to this workspace's
//! instances (bit-blasted NAS threat models — tens of thousands of
//! variables, sub-million clauses):
//!
//! * **two watched literals** per clause, so propagation only visits
//!   clauses whose watch just became false;
//! * **first-UIP conflict analysis** with learned-clause recording and
//!   non-chronological backjumping;
//! * **recursive learned-clause minimisation** (MiniSat's
//!   `ccmin_mode 2`): a literal is dropped when every other literal of
//!   its reason clause is already in the learned clause or is itself
//!   redundant; an abstraction of the clause's decision levels cuts the
//!   recursion short for literals implied at a level the clause does
//!   not touch;
//! * **VSIDS variable activity** (bump on conflict participation,
//!   geometric decay) ordered by an indexed binary max-heap: a position
//!   table lets a bump move its variable up in place, and a variable is
//!   inserted only when absent, so the heap never holds more entries
//!   than there are variables;
//! * **phase saving** (re-decide a variable with its last value; the
//!   initial phase is *false*, which on one-hot state encodings steers
//!   the search away from multi-hot dead ends);
//! * **geometric restarts** (first after 100 conflicts, ×1.5).
//!
//! Invariants the implementation maintains (DESIGN.md §5i):
//!
//! 1. watch invariant — a clause's two watched literals are its first
//!    two; neither is false unless the clause is satisfied or the other
//!    watch is being propagated this round;
//! 2. trail invariant — `trail[..qhead]` is fully propagated; every
//!    assigned non-decision literal's reason clause is unit under the
//!    assignment prefix before it, with the implied literal first;
//! 3. learned clauses are implied by the original formula (resolution
//!    chains only, minimisation included), so deleting or keeping them
//!    never changes verdicts;
//! 4. heap invariant — every unassigned variable is in the order heap,
//!    at most once.

use crate::cnf::{Cnf, Lit, Var};

/// Monotonic solver work counters, surfaced as `backend.*` telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Input clauses loaded (before learning).
    pub clauses: u64,
    /// Decision literals picked.
    pub decisions: u64,
    /// Literals propagated off the trail.
    pub propagations: u64,
    /// Conflicts analyzed.
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learned.
    pub learned: u64,
    /// Summed length of the learned clauses, after minimisation.
    pub learned_lits: u64,
}

impl SolverStats {
    /// Folds another solve's counters into this one.
    pub fn absorb(&mut self, other: SolverStats) {
        self.clauses += other.clauses;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.conflicts += other.conflicts;
        self.restarts += other.restarts;
        self.learned += other.learned;
        self.learned_lits += other.learned_lits;
    }
}

/// Outcome of a solve call.
#[derive(Debug)]
pub enum SolveOutcome {
    /// Satisfiable; the witness assigns every variable.
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
    /// The caller's budget callback stopped the search.
    Interrupted,
}

const UNDEF: u8 = 2;
const NO_REASON: u32 = u32::MAX;
const ABSENT: u32 = u32::MAX;

/// The value of `l` under `assigns`, `None` while unassigned.
fn lit_value(assigns: &[u8], l: Lit) -> Option<bool> {
    match assigns[l.var() as usize] {
        UNDEF => None,
        a => Some((a == 1) != l.is_neg()),
    }
}

/// Indexed binary max-heap of variables ordered by activity, ties
/// broken towards the larger variable. `pos[v]` is `v`'s slot in
/// `heap`, or [`ABSENT`].
struct VarHeap {
    heap: Vec<Var>,
    pos: Vec<u32>,
}

/// True if `a` belongs above `b` in the order heap.
fn above(activity: &[f64], a: Var, b: Var) -> bool {
    let (x, y) = (activity[a as usize], activity[b as usize]);
    x > y || (x == y && a > b)
}

impl VarHeap {
    /// A heap holding all `n` variables at equal activity: descending
    /// variable order already satisfies the heap property.
    fn full(n: usize) -> Self {
        VarHeap {
            heap: (0..n as Var).rev().collect(),
            pos: (0..n as u32).rev().collect(),
        }
    }

    fn insert(&mut self, v: Var, activity: &[f64]) {
        if self.pos[v as usize] == ABSENT {
            self.heap.push(v);
            self.sift_up(self.heap.len() - 1, activity);
        }
    }

    /// Restores the heap order after `v`'s activity grew.
    fn increased(&mut self, v: Var, activity: &[f64]) {
        let i = self.pos[v as usize];
        if i != ABSENT {
            self.sift_up(i as usize, activity);
        }
    }

    fn pop_max(&mut self, activity: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty heap");
        self.pos[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !above(activity, v, p) {
                break;
            }
            self.heap[i] = p;
            self.pos[p as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && above(activity, self.heap[right], self.heap[left]) {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !above(activity, c, v) {
                break;
            }
            self.heap[i] = c;
            self.pos[c as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }
}

/// Clause storage: the literals of every clause, input and learned,
/// back to back in one arena, addressed by `(start, len)` spans. Loading
/// copies literals without a per-clause allocation, and propagation
/// reads clauses from contiguous memory.
#[derive(Default)]
struct ClauseDb {
    arena: Vec<Lit>,
    spans: Vec<(u32, u32)>,
}

impl ClauseDb {
    fn lits(&self, cref: u32) -> &[Lit] {
        let (start, len) = self.spans[cref as usize];
        &self.arena[start as usize..(start + len) as usize]
    }

    fn lits_mut(&mut self, cref: u32) -> &mut [Lit] {
        let (start, len) = self.spans[cref as usize];
        &mut self.arena[start as usize..(start + len) as usize]
    }
}

/// The CDCL solver. One-shot: load a [`Cnf`], call [`Solver::solve`].
pub struct Solver {
    clauses: ClauseDb,
    watches: Vec<Vec<u32>>,
    assigns: Vec<u8>,
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    order: VarHeap,
    seen: Vec<bool>,
    /// Scratch for minimisation: the DFS stack, and every literal whose
    /// `seen` mark must be cleared when analysis ends.
    min_stack: Vec<Lit>,
    to_clear: Vec<Lit>,
    stats: SolverStats,
    ok: bool,
}

impl Solver {
    /// Loads a formula. Clauses are normalized on the way in: duplicate
    /// literals dropped, tautologies skipped, empty clauses and
    /// contradicting units mark the instance trivially unsat.
    pub fn from_cnf(cnf: &Cnf) -> Self {
        let n = cnf.num_vars() as usize;
        let mut s = Solver {
            clauses: ClauseDb::default(),
            watches: vec![Vec::new(); 2 * n],
            assigns: vec![UNDEF; n],
            phase: vec![false; n],
            level: vec![0; n],
            reason: vec![NO_REASON; n],
            trail: Vec::with_capacity(n),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: vec![0.0; n],
            var_inc: 1.0,
            order: VarHeap::full(n),
            seen: vec![false; n],
            min_stack: Vec::new(),
            to_clear: Vec::new(),
            stats: SolverStats::default(),
            ok: true,
        };
        s.stats.clauses = cnf.num_clauses() as u64;
        let mut marks = vec![false; 2 * n];
        for clause in cnf.clauses() {
            if !s.add_clause(clause, &mut marks) {
                s.ok = false;
                break;
            }
        }
        s
    }

    /// The work counters accumulated so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    fn value(&self, l: Lit) -> Option<bool> {
        lit_value(&self.assigns, l)
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Normalizes and installs one input clause; false if it makes the
    /// instance trivially unsat. The clause is normalized in place at
    /// the arena's tail; `marks` (one flag per literal, all clear
    /// between calls) finds duplicates in linear time.
    fn add_clause(&mut self, clause: &[Lit], marks: &mut [bool]) -> bool {
        let start = self.clauses.arena.len();
        let mut tautology = false;
        for &l in clause {
            if marks[l.negate().index()] {
                tautology = true;
                break;
            }
            if !marks[l.index()] {
                marks[l.index()] = true;
                self.clauses.arena.push(l);
            }
        }
        for l in &self.clauses.arena[start..] {
            marks[l.index()] = false;
        }
        if tautology {
            self.clauses.arena.truncate(start);
            return true;
        }
        match self.clauses.arena.len() - start {
            0 => false,
            1 => {
                let unit = self.clauses.arena.pop().expect("one literal");
                match self.value(unit) {
                    Some(true) => true,
                    Some(false) => false,
                    None => {
                        self.enqueue(unit, NO_REASON);
                        true
                    }
                }
            }
            _ => {
                self.attach(start);
                true
            }
        }
    }

    /// Registers the clause occupying `arena[start..]` (two or more
    /// literals), watching its first two.
    fn attach(&mut self, start: usize) -> u32 {
        let cref = self.clauses.spans.len() as u32;
        let span = |x: usize| u32::try_from(x).expect("clause arena within u32 range");
        let len = self.clauses.arena.len() - start;
        self.clauses.spans.push((span(start), span(len)));
        let lits = self.clauses.lits(cref);
        self.watches[lits[0].index()].push(cref);
        self.watches[lits[1].index()].push(cref);
        cref
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        let v = l.var() as usize;
        debug_assert_eq!(self.assigns[v], UNDEF);
        self.assigns[v] = u8::from(!l.is_neg());
        self.phase[v] = !l.is_neg();
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Propagates everything queued; returns the conflicting clause if
    /// one arises.
    fn propagate(&mut self) -> Option<u32> {
        let mut conflict = None;
        while conflict.is_none() && self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = p.negate();
            let mut ws = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut kept = 0;
            let mut i = 0;
            'clauses: while i < ws.len() {
                let cref = ws[i];
                i += 1;
                if conflict.is_some() {
                    ws[kept] = cref;
                    kept += 1;
                    continue;
                }
                let lits = self.clauses.lits_mut(cref);
                // Ensure the just-falsified watch sits at position 1.
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                let first = lits[0];
                let first_value = lit_value(&self.assigns, first);
                if first_value == Some(true) {
                    ws[kept] = cref;
                    kept += 1;
                    continue;
                }
                for k in 2..lits.len() {
                    let lk = lits[k];
                    if lit_value(&self.assigns, lk) != Some(false) {
                        lits.swap(1, k);
                        self.watches[lk.index()].push(cref);
                        continue 'clauses;
                    }
                }
                // No replacement watch: unit under the prefix, or conflict.
                ws[kept] = cref;
                kept += 1;
                if first_value == Some(false) {
                    conflict = Some(cref);
                } else {
                    self.enqueue(first, cref);
                }
            }
            ws.truncate(kept);
            debug_assert!(self.watches[false_lit.index()].is_empty());
            self.watches[false_lit.index()] = ws;
        }
        conflict
    }

    fn bump(&mut self, v: Var) {
        let a = &mut self.activity[v as usize];
        *a += self.var_inc;
        if *a > 1e100 {
            // Uniform rescaling keeps the heap order.
            for act in &mut self.activity {
                *act *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.increased(v, &self.activity);
    }

    /// First-UIP conflict analysis: resolves the conflict clause
    /// backwards along the trail until exactly one literal of the
    /// current decision level remains, then minimises the result.
    /// Returns the learned clause (asserting literal first) and the
    /// backjump level.
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, u32) {
        let mut learned: Vec<Lit> = vec![Lit::pos(0)]; // slot for the UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut cref = confl;
        let mut trail_idx = self.trail.len();
        loop {
            let (start, len) = self.clauses.spans[cref as usize];
            let skip = u32::from(p.is_some()); // skip lits[0] except first round
            for k in start + skip..start + len {
                let q = self.clauses.arena[k as usize];
                let v = q.var();
                if !self.seen[v as usize] && self.level[v as usize] > 0 {
                    self.seen[v as usize] = true;
                    self.bump(v);
                    if self.level[v as usize] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // Walk the trail back to the next marked literal.
            loop {
                trail_idx -= 1;
                if self.seen[self.trail[trail_idx].var() as usize] {
                    break;
                }
            }
            let q = self.trail[trail_idx];
            self.seen[q.var() as usize] = false;
            counter -= 1;
            if counter == 0 {
                learned[0] = q.negate();
                break;
            }
            cref = self.reason[q.var() as usize];
            debug_assert_ne!(cref, NO_REASON);
            p = Some(q);
        }
        // `seen` now marks exactly the variables of `learned[1..]`.
        self.to_clear.clear();
        self.to_clear.extend_from_slice(&learned[1..]);
        let levels = learned[1..]
            .iter()
            .fold(0, |acc, l| acc | self.abstract_level(l.var()));
        let mut kept = 1;
        for i in 1..learned.len() {
            let l = learned[i];
            if self.reason[l.var() as usize] == NO_REASON || !self.redundant(l, levels) {
                learned[kept] = l;
                kept += 1;
            }
        }
        learned.truncate(kept);
        for l in &self.to_clear {
            self.seen[l.var() as usize] = false;
        }
        // Backjump to the second-highest level in the clause; put that
        // literal at position 1 so it is watched.
        let mut bj = 0;
        if learned.len() > 1 {
            let mut max_i = 1;
            for i in 2..learned.len() {
                if self.level[learned[i].var() as usize] > self.level[learned[max_i].var() as usize]
                {
                    max_i = i;
                }
            }
            learned.swap(1, max_i);
            bj = self.level[learned[1].var() as usize];
        }
        (learned, bj)
    }

    /// One bit per decision level (mod 32), so a set of levels is a mask.
    fn abstract_level(&self, v: Var) -> u32 {
        1 << (self.level[v as usize] & 31)
    }

    /// True if learned literal `p` is implied by the clause's other
    /// literals: a depth-first walk over reason clauses that only
    /// reaches marked literals or level-0 assignments. Literals proved
    /// redundant stay marked (and queued in `to_clear`) so later checks
    /// reuse them; a failed walk unmarks what it marked.
    fn redundant(&mut self, p: Lit, levels: u32) -> bool {
        self.min_stack.clear();
        self.min_stack.push(p);
        let top = self.to_clear.len();
        while let Some(q) = self.min_stack.pop() {
            let reason = self.clauses.lits(self.reason[q.var() as usize]);
            for &l in &reason[1..] {
                let v = l.var() as usize;
                if self.seen[v] || self.level[v] == 0 {
                    continue;
                }
                if self.reason[v] != NO_REASON && self.abstract_level(l.var()) & levels != 0 {
                    self.seen[v] = true;
                    self.min_stack.push(l);
                    self.to_clear.push(l);
                } else {
                    for l in self.to_clear.drain(top..) {
                        self.seen[l.var() as usize] = false;
                    }
                    return false;
                }
            }
        }
        true
    }

    fn cancel_until(&mut self, lvl: u32) {
        while self.decision_level() > lvl {
            let lim = self.trail_lim.pop().expect("level to unwind");
            for &l in &self.trail[lim..] {
                let v = l.var();
                self.assigns[v as usize] = UNDEF;
                self.reason[v as usize] = NO_REASON;
                self.order.insert(v, &self.activity);
            }
            self.trail.truncate(lim);
        }
        self.qhead = self.qhead.min(self.trail.len());
    }

    fn decide(&mut self) -> bool {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.assigns[v as usize] == UNDEF {
                self.trail_lim.push(self.trail.len());
                self.stats.decisions += 1;
                let l = if self.phase[v as usize] {
                    Lit::pos(v)
                } else {
                    Lit::neg(v)
                };
                self.enqueue(l, NO_REASON);
                return true;
            }
        }
        false
    }

    /// Runs the search. `budget` is called with the number of conflicts
    /// analyzed since the previous call; returning `false` stops the
    /// solve with [`SolveOutcome::Interrupted`].
    pub fn solve(&mut self, budget: &mut dyn FnMut(u64) -> bool) -> SolveOutcome {
        if !self.ok {
            return SolveOutcome::Unsat;
        }
        let mut restart_limit = 100u64;
        let mut conflicts_since_restart = 0u64;
        let mut unbilled_conflicts = 0u64;
        loop {
            match self.propagate() {
                Some(confl) => {
                    self.stats.conflicts += 1;
                    conflicts_since_restart += 1;
                    unbilled_conflicts += 1;
                    if self.decision_level() == 0 {
                        return SolveOutcome::Unsat;
                    }
                    let (learned, bj) = self.analyze(confl);
                    self.cancel_until(bj);
                    self.stats.learned += 1;
                    self.stats.learned_lits += learned.len() as u64;
                    let asserting = learned[0];
                    if learned.len() == 1 {
                        self.enqueue(asserting, NO_REASON);
                    } else {
                        let start = self.clauses.arena.len();
                        self.clauses.arena.extend_from_slice(&learned);
                        let cref = self.attach(start);
                        self.enqueue(asserting, cref);
                    }
                    self.var_inc *= 1.0 / 0.95;
                    if unbilled_conflicts >= 256 {
                        if !budget(unbilled_conflicts) {
                            return SolveOutcome::Interrupted;
                        }
                        unbilled_conflicts = 0;
                    }
                    if conflicts_since_restart >= restart_limit {
                        self.stats.restarts += 1;
                        restart_limit += restart_limit / 2;
                        conflicts_since_restart = 0;
                        self.cancel_until(0);
                    }
                }
                None => {
                    if !self.decide() {
                        let _ = budget(unbilled_conflicts);
                        let model = self
                            .assigns
                            .iter()
                            .map(|&a| {
                                debug_assert_ne!(a, UNDEF);
                                a == 1
                            })
                            .collect();
                        return SolveOutcome::Sat(model);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(i: i32) -> Lit {
        let v = (i.unsigned_abs() - 1) as Var;
        if i < 0 {
            Lit::neg(v)
        } else {
            Lit::pos(v)
        }
    }

    fn solve_clauses(num_vars: u32, clauses: &[&[i32]]) -> SolveOutcome {
        let mut cnf = Cnf::new();
        for _ in 0..num_vars {
            cnf.fresh();
        }
        for c in clauses {
            cnf.add(c.iter().map(|&i| lit(i)).collect());
        }
        Solver::from_cnf(&cnf).solve(&mut |_| true)
    }

    fn check_model(num_vars: u32, clauses: &[&[i32]]) {
        match solve_clauses(num_vars, clauses) {
            SolveOutcome::Sat(m) => {
                for c in clauses {
                    assert!(
                        c.iter().any(|&i| {
                            let v = (i.unsigned_abs() - 1) as usize;
                            (i > 0) == m[v]
                        }),
                        "model must satisfy {c:?}"
                    );
                }
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn trivial_sat_and_unsat() {
        check_model(2, &[&[1, 2], &[-1, 2], &[1, -2]]);
        assert!(matches!(
            solve_clauses(1, &[&[1], &[-1]]),
            SolveOutcome::Unsat
        ));
        assert!(matches!(solve_clauses(0, &[&[]]), SolveOutcome::Unsat));
    }

    #[test]
    fn unit_chains_propagate() {
        // x1 → x2 → x3 → x4, x1 forced.
        check_model(4, &[&[1], &[-1, 2], &[-2, 3], &[-3, 4]]);
    }

    /// Pigeonhole PHP(4,3): 4 pigeons, 3 holes — classically UNSAT and
    /// requires genuine conflict-driven search, not just propagation.
    #[test]
    fn pigeonhole_unsat() {
        let mut cnf = Cnf::new();
        let var = |p: usize, h: usize| (p * 3 + h) as Var;
        for _ in 0..12 {
            cnf.fresh();
        }
        for p in 0..4 {
            cnf.add((0..3).map(|h| Lit::pos(var(p, h))).collect());
        }
        for h in 0..3 {
            for p1 in 0..4 {
                for p2 in p1 + 1..4 {
                    cnf.add(vec![Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]);
                }
            }
        }
        let mut s = Solver::from_cnf(&cnf);
        assert!(matches!(s.solve(&mut |_| true), SolveOutcome::Unsat));
        assert!(s.stats().conflicts > 0, "PHP needs real search");
    }

    /// Random 3-SAT at sub-threshold density, cross-checked against the
    /// formula (SAT models verified) — a smoke test for the watch and
    /// learning machinery on non-structured instances.
    #[test]
    fn random_3sat_models_verify() {
        // Deterministic LCG so the test is reproducible.
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        for round in 0..20 {
            let n = 20 + (round % 5);
            let m = n * 3;
            let mut cnf = Cnf::new();
            for _ in 0..n {
                cnf.fresh();
            }
            let mut clauses = Vec::new();
            for _ in 0..m {
                let mut c = Vec::new();
                while c.len() < 3 {
                    let v = next() % n;
                    let l = if next() % 2 == 0 {
                        Lit::pos(v)
                    } else {
                        Lit::neg(v)
                    };
                    if !c.contains(&l) && !c.contains(&l.negate()) {
                        c.push(l);
                    }
                }
                clauses.push(c.clone());
                cnf.add(c);
            }
            if let SolveOutcome::Sat(model) = Solver::from_cnf(&cnf).solve(&mut |_| true) {
                for c in &clauses {
                    assert!(c.iter().any(|l| model[l.var() as usize] != l.is_neg()));
                }
            }
            // UNSAT is acceptable at this density; no oracle to compare.
        }
    }

    #[test]
    fn interrupt_stops_search() {
        // A hard-enough instance that at least one budget callback fires.
        let mut cnf = Cnf::new();
        let var = |p: usize, h: usize| (p * 6 + h) as Var;
        for _ in 0..42 {
            cnf.fresh();
        }
        for p in 0..7 {
            cnf.add((0..6).map(|h| Lit::pos(var(p, h))).collect());
        }
        for h in 0..6 {
            for p1 in 0..7 {
                for p2 in p1 + 1..7 {
                    cnf.add(vec![Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]);
                }
            }
        }
        let mut s = Solver::from_cnf(&cnf);
        let outcome = s.solve(&mut |_| false);
        assert!(matches!(
            outcome,
            SolveOutcome::Interrupted | SolveOutcome::Unsat
        ));
    }

    /// Deterministic generator for the randomized tests (an LCG, so
    /// every failure reproduces from its seed).
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u32) -> u32 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) as u32) % n
        }
    }

    /// True if the assignment `bits` (bit `v` = value of variable `v`)
    /// satisfies `clause`.
    fn satisfies(bits: u32, clause: &[Lit]) -> bool {
        clause
            .iter()
            .any(|l| ((bits >> l.var()) & 1 == 1) != l.is_neg())
    }

    /// Every satisfying assignment of `clauses` over `n` variables,
    /// by enumeration.
    fn models(n: u32, clauses: &[Vec<Lit>]) -> Vec<u32> {
        (0..1u32 << n)
            .filter(|&bits| clauses.iter().all(|c| satisfies(bits, c)))
            .collect()
    }

    /// A random formula over `n` variables: clause lengths 1..=4, with
    /// duplicate literals and tautologies left in for the loader to
    /// normalize.
    fn random_formula(rng: &mut Lcg, n: u32, m: u32) -> Cnf {
        let mut cnf = Cnf::new();
        for _ in 0..n {
            cnf.fresh();
        }
        for _ in 0..m {
            let len = if rng.below(16) == 0 {
                1
            } else {
                2 + rng.below(3)
            };
            let clause = (0..len)
                .map(|_| {
                    let v = rng.below(n);
                    if rng.below(2) == 0 {
                        Lit::pos(v)
                    } else {
                        Lit::neg(v)
                    }
                })
                .collect();
            cnf.add(clause);
        }
        cnf
    }

    /// Formulas per randomized test: full size in release (CI's
    /// symbolic suite), smaller under debug assertions.
    fn rounds() -> u64 {
        if cfg!(debug_assertions) {
            1_000
        } else {
            20_000
        }
    }

    /// The checks below need the heap and clause store as the solver
    /// left them; this asserts the heap's structure (invariant 4).
    fn assert_heap_sound(s: &Solver) {
        let n = s.assigns.len();
        let heap = &s.order.heap;
        assert!(
            heap.len() <= n,
            "heap holds {} entries for {n} variables",
            heap.len()
        );
        // Allocated once for `n` entries: a push past `n` would have
        // grown the buffer, so this bounds the peak, not just the end.
        assert_eq!(
            heap.capacity(),
            n,
            "heap buffer grew past the variable count"
        );
        for (i, &v) in heap.iter().enumerate() {
            assert_eq!(
                s.order.pos[v as usize], i as u32,
                "position table out of sync"
            );
            if i > 0 {
                assert!(
                    !above(&s.activity, v, heap[(i - 1) / 2]),
                    "heap order violated at slot {i}"
                );
            }
        }
        for v in 0..n {
            if s.assigns[v] == UNDEF {
                assert_ne!(s.order.pos[v], ABSENT, "unassigned variable {v} missing");
            }
        }
        assert_eq!(
            s.order.pos.iter().filter(|&&p| p != ABSENT).count(),
            heap.len(),
            "every heap entry is a distinct variable"
        );
    }

    /// Random formulas over at most 12 variables, decided by the solver
    /// and by enumeration: the answers must agree and every model must
    /// satisfy every input clause.
    #[test]
    fn random_formulas_match_exhaustive_oracle() {
        let mut rng = Lcg(0x5eed_0001);
        let (mut sat, mut unsat) = (0, 0);
        for _ in 0..rounds() {
            let n = 1 + rng.below(12);
            let m = 1 + rng.below(5 * n + 4);
            let cnf = random_formula(&mut rng, n, m);
            let oracle = models(n, cnf.clauses());
            let mut s = Solver::from_cnf(&cnf);
            match s.solve(&mut |_| true) {
                SolveOutcome::Sat(model) => {
                    sat += 1;
                    assert!(!oracle.is_empty(), "SAT answer on an unsatisfiable formula");
                    let bits = (0..n).fold(0u32, |b, v| b | (u32::from(model[v as usize]) << v));
                    for c in cnf.clauses() {
                        assert!(satisfies(bits, c), "model violates {c:?}");
                    }
                }
                SolveOutcome::Unsat => {
                    unsat += 1;
                    assert!(oracle.is_empty(), "UNSAT answer on a satisfiable formula");
                }
                SolveOutcome::Interrupted => panic!("unlimited budget interrupted"),
            }
            assert_heap_sound(&s);
        }
        assert!(
            sat > 0 && unsat > 0,
            "corpus covers both answers ({sat}/{unsat})"
        );
    }

    /// Every learned clause, as minimised, is implied by the input
    /// formula: it holds in each of the formula's satisfying
    /// assignments (checked by enumeration), and so do the literals
    /// fixed at level 0.
    #[test]
    fn learned_clauses_hold_in_every_model() {
        let mut rng = Lcg(0x5eed_0002);
        let mut checked = 0u64;
        for _ in 0..rounds() {
            let n = 8 + rng.below(5);
            // Near the 3-SAT threshold: satisfiable formulas that still
            // take conflicts to solve.
            let m = 3 * n + rng.below(2 * n);
            let cnf = random_formula(&mut rng, n, m);
            let oracle = models(n, cnf.clauses());
            let mut s = Solver::from_cnf(&cnf);
            let first_learned = s.clauses.spans.len();
            s.solve(&mut |_| true);
            let level0 = s
                .trail
                .iter()
                .filter(|l| s.level[l.var() as usize] == 0)
                .map(|&l| vec![l]);
            let learned = (first_learned..s.clauses.spans.len())
                .map(|cref| s.clauses.lits(cref as u32).to_vec());
            for clause in level0.chain(learned) {
                for &bits in &oracle {
                    assert!(satisfies(bits, &clause), "{clause:?} excludes a model");
                }
                checked += u64::from(!oracle.is_empty());
            }
        }
        assert!(checked > 100, "too few learned clauses checked: {checked}");
    }

    /// PHP(p, p-1) as a CNF: every pigeon in some hole, no two pigeons
    /// sharing one.
    fn pigeonhole(pigeons: usize) -> Cnf {
        let holes = pigeons - 1;
        let var = |p: usize, h: usize| (p * holes + h) as Var;
        let mut cnf = Cnf::new();
        for _ in 0..pigeons * holes {
            cnf.fresh();
        }
        for p in 0..pigeons {
            cnf.add((0..holes).map(|h| Lit::pos(var(p, h))).collect());
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    cnf.add(vec![Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]);
                }
            }
        }
        cnf
    }

    /// Regression test for the order heap: however many conflicts,
    /// backjumps and restarts a solve goes through, the heap never
    /// holds more entries than there are variables.
    #[test]
    fn heap_never_outgrows_the_variable_count() {
        let mut s = Solver::from_cnf(&pigeonhole(5));
        assert!(matches!(s.solve(&mut |_| true), SolveOutcome::Unsat));
        assert!(s.stats().conflicts > 0);
        assert_heap_sound(&s);

        let mut s = Solver::from_cnf(&pigeonhole(8));
        assert!(matches!(s.solve(&mut |_| true), SolveOutcome::Unsat));
        assert!(s.stats().restarts >= 5, "restart-heavy: {:?}", s.stats());
        assert_heap_sound(&s);
    }
}

"""A conflict-driven clause-learning (CDCL) SAT solver.

This is a from-scratch, pure-Python replacement for the lingeling solver
the paper used.  It implements the standard modern architecture:

* two-literal watching for unit propagation;
* VSIDS-style variable activities with a lazy max-heap;
* first-UIP conflict analysis with cheap clause minimisation;
* non-chronological backjumping;
* Luby-sequence restarts;
* learned-clause database reduction;
* incremental use: clauses may be added between ``solve`` calls, and each
  call may carry a list of assumption literals.

Literal encoding (internal): variable ``v`` (1-based) maps to codes
``2*v`` (positive) and ``2*v + 1`` (negative); ``code ^ 1`` negates.
Public APIs use DIMACS-signed literals.

Data layout, chosen for the interpreter's cost model: a clause *is* its
list of literal codes, with the watched literals at positions 0 and 1;
watch lists and reasons hold those lists directly, and each clause sits
in exactly the watch lists of its two watched literals.  Truth values
are indexed by literal code (``_lit_value``: 1 true, 0 false, -1
unassigned), so the hot loops test a literal with one list read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from heapq import heappush, heappop
from typing import Iterable, Sequence

from repro.sat.cnf import Cnf

_UNASSIGNED = -1


class _Clause:
    """Bookkeeping for one learned clause; ``lits`` is the clause itself.

    ``lbd`` (literal block distance, the number of distinct decision
    levels in the clause when it was learned) ranks learned clauses for
    database reduction: low-LBD "glue" clauses are kept forever.
    """

    __slots__ = ("lits", "lbd")

    def __init__(self, lits: list[int], lbd: int):
        self.lits = lits
        self.lbd = lbd


@dataclass
class SolverStats:
    """Cumulative search counters across all solve calls."""
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned: int = 0
    deleted: int = 0
    solve_calls: int = 0
    solve_time: float = 0.0


@dataclass
class SolveResult:
    """Outcome of one ``solve`` call.

    On UNSAT answers reached under assumptions, ``core`` holds a subset
    of the assumption literals that is already jointly inconsistent with
    the formula (the *failed assumptions*); it is ``[]`` when the formula
    is unsatisfiable regardless of assumptions.
    """

    satisfiable: bool | None  # None means resource limit reached
    model: list[int] | None = None  # index 0 unused; values 0/1
    stats: SolverStats = field(default_factory=SolverStats)
    core: list[int] | None = None  # failed assumptions (DIMACS), UNSAT only

    def value(self, var: int) -> int:
        if self.model is None:
            raise RuntimeError("no model available")
        return self.model[var]


class CdclSolver:
    """Incremental CDCL solver.

    ``var_decay``, ``restart_base`` and ``reduce_base`` expose the usual
    heuristic knobs (VSIDS decay, Luby restart unit, learned-DB budget);
    the defaults behave well on the locked-circuit instances this project
    generates.
    """

    def __init__(
        self,
        cnf: Cnf | None = None,
        var_decay: float = 0.95,
        restart_base: int = 128,
        reduce_base: int = 4000,
    ):
        self.n_vars = 0
        self._learnts: list[_Clause] = []
        self._watches: list[list[list[int]]] = [[], []]  # index by lit code
        self._lit_value: list[int] = [_UNASSIGNED, _UNASSIGNED]  # by lit code
        # Per variable; level and reason are stale while unassigned.
        self._level: list[int] = [0]
        self._reason: list[list[int] | None] = [None]
        # Saved polarity: the literal last set true (initially the negative).
        self._phase: list[int] = [0]
        self._activity: list[float] = [0.0]
        self._heap: list[tuple[float, int]] = []
        self._in_heap: list[bool] = [False]
        self._seen = bytearray(1)  # conflict-analysis marks, all 0 between uses
        self._var_inc = 1.0
        self._var_decay = 1.0 / var_decay
        self._restart_base = restart_base
        self._reduce_base = reduce_base
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._ok = True  # False once a top-level conflict is derived
        self.stats = SolverStats()
        if cnf is not None:
            self.add_cnf(cnf)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        self.n_vars += 1
        var = self.n_vars
        self._lit_value += (_UNASSIGNED, _UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._phase.append((var << 1) | 1)
        self._activity.append(0.0)
        self._in_heap.append(True)
        self._seen.append(0)
        self._watches += ([], [])
        heappush(self._heap, (-0.0, var))
        return var

    def _ensure_vars(self, max_var: int) -> None:
        while self.n_vars < max_var:
            self.new_var()

    def add_cnf(self, cnf: Cnf) -> None:
        self._ensure_vars(cnf.n_vars)
        for clause in cnf.clauses:
            self.add_clause(clause)

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Add a clause of DIMACS literals.

        Must be called at decision level 0 (between solve calls this always
        holds).  Returns False when the formula became trivially UNSAT.
        """
        if not self._ok:
            return False
        if self._trail_lim:
            self._backtrack(0)

        # At level 0 every assigned literal is a top-level fact.
        lit_value = self._lit_value
        codes: list[int] = []
        seen: set[int] = set()
        for lit in lits:
            var = abs(lit)
            if var == 0:
                raise ValueError("literal 0 is not allowed")
            if var > self.n_vars:
                self._ensure_vars(var)
            code = (var << 1) | (lit < 0)
            if code ^ 1 in seen:
                return True  # tautology
            if code in seen:
                continue
            value = lit_value[code]
            if value == 1:
                return True  # already satisfied at top level
            if value == 0:
                continue  # falsified at top level; drop the literal
            seen.add(code)
            codes.append(code)

        if not codes:
            self._ok = False
            return False
        if len(codes) == 1:
            self._enqueue(codes[0], None)
            self._ok = self._propagate() is None
            return self._ok
        self._watches[codes[0]].append(codes)
        self._watches[codes[1]].append(codes)
        return True

    # ------------------------------------------------------------------
    # values / trail
    # ------------------------------------------------------------------
    def _enqueue(self, code: int, reason: list[int] | None) -> None:
        """Make the unassigned literal ``code`` true at the current level."""
        var = code >> 1
        self._lit_value[code] = 1
        self._lit_value[code ^ 1] = 0
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = code
        self._trail.append(code)

    def _backtrack(self, target_level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= target_level:
            return
        trail = self._trail
        lit_value = self._lit_value
        in_heap = self._in_heap
        activity = self._activity
        heap = self._heap
        boundary = trail_lim[target_level]
        for code in reversed(trail[boundary:]):
            lit_value[code] = _UNASSIGNED
            lit_value[code ^ 1] = _UNASSIGNED
            var = code >> 1
            if not in_heap[var]:
                heappush(heap, (-activity[var], var))
                in_heap[var] = True
        del trail[boundary:]
        del trail_lim[target_level:]
        self._qhead = len(trail)

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def _propagate(self) -> list[int] | None:
        """Unit-propagate the trail; returns a conflicting clause or None."""
        # Hot path: attribute lookups hoisted, watch lists compacted in
        # place (watch order and clause literal order steer the search).
        trail = self._trail
        watches = self._watches
        lit_value = self._lit_value
        level = self._level
        reason = self._reason
        phase = self._phase
        trail_append = trail.append
        current_level = len(self._trail_lim)
        start = qhead = self._qhead
        while qhead < len(trail):
            falsified = trail[qhead] ^ 1
            qhead += 1
            watch_list = watches[falsified]
            j = 0  # watchers kept so far, compacted to the front
            visiting = iter(watch_list)
            for lits in visiting:
                # Normalise: the falsified watch moves to position 1.
                other = lits[0]
                if other == falsified:
                    other = lits[1]
                    lits[0] = other
                    lits[1] = falsified
                value = lit_value[other]
                if value == 1:
                    watch_list[j] = lits
                    j += 1
                    continue
                # Look for a replacement watch: true or unassigned.
                k = 2
                for lk in lits[2:]:
                    if lit_value[lk] != 0:
                        lits[1] = lk
                        lits[k] = falsified
                        watches[lk].append(lits)
                        break
                    k += 1
                else:
                    # No replacement: clause is unit or conflicting.
                    watch_list[j] = lits
                    j += 1
                    if value != 0:  # unassigned: enqueue `other`
                        var = other >> 1
                        lit_value[other] = 1
                        lit_value[other ^ 1] = 0
                        level[var] = current_level
                        reason[var] = lits
                        phase[var] = other
                        trail_append(other)
                    else:
                        # The unvisited watchers follow the kept ones.
                        watch_list[j:] = list(visiting)
                        self.stats.propagations += qhead - start
                        self._qhead = len(trail)
                        return lits
            del watch_list[j:]
        self.stats.propagations += qhead - start
        self._qhead = qhead
        return None

    # ------------------------------------------------------------------
    # conflict analysis
    # ------------------------------------------------------------------
    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP analysis; returns (learnt clause codes, backjump level).

        ``learnt[0]`` is the asserting literal.  Every variable marked in
        the conflict graph gets its VSIDS bump here.
        """
        trail = self._trail
        level = self._level
        reason = self._reason
        seen = self._seen
        activity = self._activity
        heap = self._heap
        in_heap = self._in_heap
        var_inc = self._var_inc
        current_level = len(self._trail_lim)
        learnt: list[int] = [0]
        counter = 0
        p = -1
        reason_lits = conflict
        index = len(trail) - 1

        while True:
            for q in reason_lits:
                if q == p:
                    continue
                var = q >> 1
                if not seen[var]:
                    var_level = level[var]
                    if var_level > 0:
                        seen[var] = 1
                        act = activity[var] + var_inc
                        activity[var] = act
                        if act > 1e100:
                            activity[:] = [a * 1e-100 for a in activity]
                            var_inc *= 1e-100
                            act = activity[var]
                        heappush(heap, (-act, var))
                        in_heap[var] = True
                        if var_level >= current_level:
                            counter += 1
                        else:
                            learnt.append(q)
            # Walk the trail back to the next marked variable.
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            index -= 1
            var = p >> 1
            seen[var] = 0
            counter -= 1
            if counter == 0:
                learnt[0] = p ^ 1
                break
            reason_lits = reason[var]
            assert reason_lits is not None, "non-decision must have a reason"
        self._var_inc = var_inc

        # Cheap minimisation: drop a literal whose reason's other literals
        # are all marked (in the clause) or fixed at level 0.
        minimised = [learnt[0]]
        for q in learnt[1:]:
            q_var = q >> 1
            reason_lits = reason[q_var]
            if reason_lits is None:
                minimised.append(q)
                continue
            for r in reason_lits:
                var = r >> 1
                if var != q_var and not seen[var] and level[var] > 0:
                    minimised.append(q)
                    break
        for q in learnt[1:]:
            seen[q >> 1] = 0

        # Backjump to the highest level in the clause (first one found),
        # whose literal moves to position 1.
        back_level = 0
        if len(minimised) > 1:
            max_idx = 1
            back_level = level[minimised[1] >> 1]
            for idx in range(2, len(minimised)):
                var_level = level[minimised[idx] >> 1]
                if var_level > back_level:
                    back_level = var_level
                    max_idx = idx
            minimised[1], minimised[max_idx] = minimised[max_idx], minimised[1]
        return minimised, back_level

    def _analyze_final(self, failed_code: int) -> list[int]:
        """Assumption core of a failed assumption (MiniSat's analyzeFinal).

        ``failed_code`` is an assumption literal whose negation is implied
        by the formula plus earlier assumptions.  Walks the implication
        graph backwards from it and collects the assumption decisions the
        derivation actually used; returns them (including the failed
        literal itself) as DIMACS literals.
        """
        core_codes = [failed_code]
        if self._trail_lim:
            seen = bytearray(self.n_vars + 1)
            seen[failed_code >> 1] = 1
            level = self._level
            reason_of = self._reason
            for idx in range(len(self._trail) - 1, self._trail_lim[0] - 1, -1):
                p = self._trail[idx]
                var = p >> 1
                if not seen[var]:
                    continue
                seen[var] = 0
                reason = reason_of[var]
                if reason is None:
                    # An assumption decision this derivation used.  (When
                    # p == failed_code^1 both polarities were assumed and
                    # the opposite assumption is the whole core.)
                    core_codes.append(p)
                else:
                    for q in reason:
                        if level[q >> 1] > 0:
                            seen[q >> 1] = 1
        return [
            -(code >> 1) if code & 1 else (code >> 1) for code in core_codes
        ]

    def _record_learnt(self, learnt: list[int]) -> None:
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        # The asserting literal is unassigned; its stale level is the
        # conflict level, which the LBD counts.
        level = self._level
        lbd = len({level[code >> 1] for code in learnt})
        self._learnts.append(_Clause(learnt, lbd))
        self.stats.learned += 1
        self._watches[learnt[0]].append(learnt)
        self._watches[learnt[1]].append(learnt)
        self._enqueue(learnt[0], learnt)

    # ------------------------------------------------------------------
    # decision heuristics
    # ------------------------------------------------------------------
    def _pick_branch_var(self) -> int | None:
        heap = self._heap
        lit_value = self._lit_value
        activity = self._activity
        in_heap = self._in_heap
        while heap:
            neg_act, var = heappop(heap)
            if lit_value[var << 1] != _UNASSIGNED:
                in_heap[var] = False
            elif -neg_act == activity[var]:
                in_heap[var] = False
                return var
            # else: a stale entry of an unassigned variable.  It stays
            # marked in the heap, so it re-enters only when bumped.
        # Heap exhausted: linear scan.
        for var in range(1, self.n_vars + 1):
            if lit_value[var << 1] == _UNASSIGNED:
                return var
        return None

    # ------------------------------------------------------------------
    # learned clause reduction
    # ------------------------------------------------------------------
    def _reduce_db(self) -> None:
        """Drop the worst half of the learned clauses.

        Ranking is by literal block distance, then clause size (glue-style
        heuristics): binary and LBD<=2 clauses are kept unconditionally,
        as are clauses currently locked as a propagation reason.  Dropped
        clauses leave their watch lists at once; the other watchers keep
        their order.
        """
        reason = self._reason
        locked = {id(reason[code >> 1]) for code in self._trail}
        ranked = sorted(self._learnts, key=lambda c: (c.lbd, len(c.lits)))
        dead: set[int] = set()
        watched: set[int] = set()
        for clause in ranked[len(ranked) // 2 :]:
            lits = clause.lits
            if clause.lbd <= 2 or len(lits) <= 2 or id(lits) in locked:
                continue
            dead.add(id(lits))
            watched.add(lits[0])
            watched.add(lits[1])
        watches = self._watches
        for code in watched:
            watches[code] = [c for c in watches[code] if id(c) not in dead]
        self._learnts = [c for c in self._learnts if id(c.lits) not in dead]
        self.stats.deleted += len(dead)

    # ------------------------------------------------------------------
    # main search
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Iterable[int] = (),
        max_conflicts: int | None = None,
        timeout_s: float | None = None,
    ) -> SolveResult:
        """Search for a model; returns a :class:`SolveResult`.

        ``satisfiable`` is None when ``max_conflicts``/``timeout_s`` was
        exhausted before an answer was reached.
        """
        started = time.perf_counter()
        stats = self.stats
        stats.solve_calls += 1
        if not self._ok:
            return SolveResult(satisfiable=False, stats=stats, core=[])

        assumption_codes: list[int] = []
        for lit in assumptions:
            var = abs(lit)
            self._ensure_vars(var)
            assumption_codes.append((var << 1) | (lit < 0))

        self._backtrack(0)
        if self._propagate() is not None:
            self._ok = False
            return SolveResult(satisfiable=False, stats=stats, core=[])

        lit_value = self._lit_value
        trail = self._trail
        trail_lim = self._trail_lim
        phase = self._phase
        conflicts_here = 0
        luby_index = 1
        restart_base = self._restart_base
        restart_budget = restart_base * _luby(luby_index)
        conflicts_since_restart = 0
        reduce_budget = self._reduce_base

        while True:
            conflict = self._propagate()
            if conflict is not None:
                stats.conflicts += 1
                conflicts_here += 1
                conflicts_since_restart += 1
                if not trail_lim:
                    self._ok = False
                    self._finish_timer(started)
                    return SolveResult(satisfiable=False, stats=stats, core=[])
                learnt, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                self._record_learnt(learnt)
                self._var_inc *= self._var_decay
                if max_conflicts is not None and conflicts_here >= max_conflicts:
                    self._backtrack(0)
                    self._finish_timer(started)
                    return SolveResult(satisfiable=None, stats=stats)
                if timeout_s is not None and (
                    conflicts_here % 64 == 0
                    and time.perf_counter() - started > timeout_s
                ):
                    self._backtrack(0)
                    self._finish_timer(started)
                    return SolveResult(satisfiable=None, stats=stats)
                if len(self._learnts) > reduce_budget:
                    self._reduce_db()
                    reduce_budget += 1000
                if conflicts_since_restart >= restart_budget:
                    stats.restarts += 1
                    luby_index += 1
                    restart_budget = restart_base * _luby(luby_index)
                    conflicts_since_restart = 0
                    self._backtrack(0)
                continue

            # Assumption handling: decide the first unassigned assumption.
            for code in assumption_codes:
                value = lit_value[code]
                if value == 0:
                    failed_core = self._analyze_final(code)
                    self._backtrack(0)
                    self._finish_timer(started)
                    return SolveResult(
                        satisfiable=False, stats=stats, core=failed_core
                    )
                if value == _UNASSIGNED:
                    trail_lim.append(len(trail))
                    self._enqueue(code, None)
                    break
            else:
                # Every assumption holds: branch on the saved polarity.
                var = self._pick_branch_var()
                if var is None:
                    model = [1 if value == 1 else 0 for value in lit_value[::2]]
                    self._backtrack(0)
                    self._finish_timer(started)
                    return SolveResult(satisfiable=True, model=model, stats=stats)
                stats.decisions += 1
                trail_lim.append(len(trail))
                self._enqueue(phase[var], None)

    def _finish_timer(self, started: float) -> None:
        self.stats.solve_time += time.perf_counter() - started


def _luby(i: int) -> int:
    """The Luby restart sequence 1,1,2,1,1,2,4,..."""
    k = 1
    while (1 << (k + 1)) - 1 <= i:
        k += 1
    while i > (1 << k) - 1:
        i -= (1 << k) - 1
        k = 1
        while (1 << (k + 1)) - 1 <= i:
            k += 1
    return 1 << (k - 1) if k > 0 else 1

"""The oracle-guided SAT attack on locked combinational circuits.

Given a locked netlist ``C(X, K)`` with designated key inputs ``K`` and an
input/output oracle for the original function ``f(X)``, the attack
iterates:

1. build a *miter*: two copies of ``C`` sharing ``X`` but holding
   independent keys ``K_A``, ``K_B``, constrained so that at least one
   output differs — a satisfying assignment yields a *distinguishing
   input pattern* (DIP).  The miter also requires ``K_A != K_B``: each
   copy is a function of ``(X, K)`` (undriven nets are rejected), so
   equal keys give equal outputs and this lemma removes no model, but
   it spares the solver from proving that by search -- once the DIP
   constraints force ``K_A = K_B``, unit propagation refutes the miter;
2. query the oracle with the DIP and constrain both key copies to
   reproduce the observed response (one more circuit copy per key side
   and DIP);
3. repeat until the miter is unsatisfiable or only one key remains:
   every key still satisfying the accumulated constraints is
   functionally correct on all inputs distinguished so far, and no
   further DIP exists.  The final miter proof is usually the costliest
   solve of the attack, so once a miter solve after the first DIP has
   spent a fixed conflict budget, the loop instead checks, with the
   miter off, whether at most one key satisfies every DIP constraint.
   By the lemma of step 1 the miter needs two different such keys, so
   if one or none is left the loop has converged and that check has
   already listed the complete candidate set; otherwise the miter solve
   resumes without a budget.

The whole loop runs in **one** :class:`repro.sat.IncrementalSolver`
session: the miter CNF is built once from the cached Tseitin template of
the locked netlist, each DIP stamps two more template copies plus unit
constraints into the same solver, and learned clauses/variable
activities persist across iterations.  The template is compiled with the
key inputs, so its key-only logic (:mod:`repro.sat.tseitin`) is encoded
once per key side, in that side's miter copy: a DIP copy shares those
variables and stamps only the rest of the circuit.  That is sound
because a key-only net is a function of its side's key alone (undriven
nets are rejected), so every copy on that side computes the same value
for it.  The miter clause carries an activation literal so the same
session can afterwards enumerate the surviving key assignments with the
miter switched off (the paper's "seed candidates" when driven by
DynUnlock).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from repro.netlist.netlist import Netlist, NetlistError
from repro.netlist.validate import validate_netlist
from repro.observability import spans as obs
from repro.opt import OptResult, optimize, resolve_level
from repro.sat.enumerate import enumerate_models
from repro.sat.incremental import IncrementalSolver
from repro.sat.solver import SolverStats
from repro.sat.tseitin import CircuitEncoder, encoding_for
from repro.util.timing import Stopwatch

OracleFn = Callable[[list[int]], list[int]]

#: Conflicts a miter solve after the first DIP may spend before the loop
#: checks whether only one key is left (module docstring, step 3; the
#: value is measured in DESIGN.md).
_UNIQUENESS_CHECK_CONFLICTS = 200


@dataclass
class SatAttackConfig:
    """Attack knobs.

    ``opt_level`` selects the :mod:`repro.opt` preprocessing level the
    locked netlist is rewritten at before encoding (None = the default
    level, 0 = encode the raw netlist).  Because the optimizer pins
    the full I/O interface, recovered keys are unaffected -- only the
    encoded clause count and simulation cost change.
    """

    max_iterations: int = 10_000
    candidate_limit: int = 1024  # stop enumerating key candidates here
    timeout_s: float | None = None  # wall-clock budget for the whole attack
    iteration_hook: Callable[["IterationRecord"], None] | None = None
    opt_level: int | None = None


@dataclass
class IterationRecord:
    """Per-DIP trace entry (the paper dumps the CNF at this point)."""

    iteration: int
    dip: list[int]
    response: list[int]
    n_clauses: int
    n_vars: int
    elapsed_s: float


@dataclass
class SatAttackResult:
    """Outcome of the DIP loop: convergence, DIP trace, key candidates.

    ``timed_out`` is True when the loop stopped because
    :attr:`SatAttackConfig.timeout_s` ran out: the outcome then depends
    on the machine's speed, so it must not be cached as a verdict.
    """
    converged: bool
    iterations: int
    dips: list[tuple[list[int], list[int]]]
    key_candidates: list[list[int]]
    candidates_exhausted: bool  # True when enumeration hit candidate_limit
    fixed_key_bits: dict[int, int]
    runtime_s: float
    timed_out: bool = False
    stopwatch: Stopwatch = field(repr=False, default_factory=Stopwatch)
    solver_stats: SolverStats = field(repr=False, default_factory=SolverStats)

    @property
    def n_candidates(self) -> int:
        return len(self.key_candidates)


@dataclass
class AttackResult:
    """Outcome of a key-recovery attack built on :class:`SatAttack`.

    ``key_candidates`` are the keys the SAT attack left and
    ``recovered_key`` the one the attack settled on (an LFSR seed for
    the seed-keyed schemes).  ``timed_out`` is
    :attr:`SatAttackResult.timed_out`: the outcome then depends on the
    machine's speed.
    """

    success: bool
    recovered_key: list[int] | None
    key_candidates: list[list[int]]
    iterations: int
    runtime_s: float
    timed_out: bool


class SatAttack:
    """One attack instance bound to a locked netlist and an oracle.

    ``key_inputs`` must be a subset of the netlist's primary inputs; the
    remaining inputs form ``X`` in their original order, which is also the
    order ``oracle_fn`` receives bits in.  ``oracle_fn`` returns output
    bits in the netlist's output order.

    The incremental session is exposed for callers that drive the loop
    themselves (CNF dumping, probing): ``solver`` is the live
    :class:`IncrementalSolver`, ``encoder`` the shared CNF namespace,
    ``act_var`` the miter activation literal, and ``x_vars`` /
    ``key_vars_a`` / ``key_vars_b`` the variable vectors of the shared
    inputs and the two key copies.
    """

    def __init__(
        self,
        locked: Netlist,
        key_inputs: Sequence[str],
        oracle_fn: OracleFn,
        config: SatAttackConfig | None = None,
        fixed_key_bits: dict[int, int] | None = None,
    ):
        self.key_inputs = list(key_inputs)
        key_set = set(self.key_inputs)
        missing = key_set - set(locked.inputs)
        if missing:
            raise ValueError(f"key inputs not in netlist: {sorted(missing)}")
        self.oracle_fn = oracle_fn
        self.config = config or SatAttackConfig()

        # Optimization preprocessing: every miter/constraint copy stamps
        # from the rewritten netlist.  The optimizer pins inputs (hence
        # key inputs) and outputs by name, so DIPs, responses and
        # recovered keys live in the original netlist's terms.
        self.opt_result: OptResult | None = None
        if resolve_level(self.config.opt_level) > 0:
            self.opt_result = optimize(locked, level=self.config.opt_level)
            locked = self.opt_result.netlist
        # The miter's key-difference lemma is sound only when each copy
        # is a function of (X, K); an undriven net would be a free
        # variable in each copy.
        try:
            validate_netlist(locked)
        except NetlistError as exc:
            raise ValueError(f"cannot attack {locked.name!r}: {exc}") from exc
        self.locked = locked
        self.x_inputs = [net for net in locked.inputs if net not in key_set]

        # Compile the locked circuit's Tseitin template once; every miter
        # copy and every per-DIP constraint copy stamps from it.
        with obs.phase("encode"):
            self._template = encoding_for(locked, key_set)
            self.encoder = CircuitEncoder()
            self.solver = IncrementalSolver()
            self._copy_count = 0
            self._build_miter()
        # Seed information carried over from earlier attack rounds (the
        # paper's restart step) enters as unit clauses on both key copies,
        # through the CNF so that its snapshots and sizes include them.
        if fixed_key_bits:
            cnf = self.encoder.cnf
            for index, value in sorted(fixed_key_bits.items()):
                for var in (self.key_vars_a[index], self.key_vars_b[index]):
                    cnf.add_clause([var if value else -var])
            self._sync_solver()

    # ------------------------------------------------------------------
    def _build_miter(self) -> None:
        # Shared X variables across the two miter copies.
        for net in self.x_inputs:
            var = self.encoder.var_for(f"X::{net}")
            self.encoder.alias(f"A::{net}", var)
            self.encoder.alias(f"B::{net}", var)
        map_a, table_a = self.encoder.stamp(self._template, prefix="A::")
        map_b, table_b = self.encoder.stamp(self._template, prefix="B::")
        # Each side's local -> variable table: DIP copies stamp over it.
        self._sides = (("A", table_a), ("B", table_b))

        cnf = self.encoder.cnf
        self.act_var = cnf.new_var()
        diff_lits: list[int] = []
        for net in self.locked.outputs:
            ya, yb = map_a[net], map_b[net]
            d = cnf.new_var()
            # d <-> ya xor yb
            cnf.add_clause([-d, ya, yb])
            cnf.add_clause([-d, -ya, -yb])
            cnf.add_clause([d, ya, -yb])
            cnf.add_clause([d, -ya, yb])
            diff_lits.append(d)
        cnf.add_clause([-self.act_var] + diff_lits)

        self.x_vars = [self.encoder.var_for(f"X::{net}") for net in self.x_inputs]
        self.key_vars_a = [
            self.encoder.var_for(f"A::{net}") for net in self.key_inputs
        ]
        self.key_vars_b = [
            self.encoder.var_for(f"B::{net}") for net in self.key_inputs
        ]
        # Key-difference lemma (module docstring, step 1): the active
        # miter needs some e_i, and e_i -> ka_i xor kb_i.
        key_diff_lits: list[int] = []
        for ka, kb in zip(self.key_vars_a, self.key_vars_b):
            e = cnf.new_var()
            cnf.add_clause([-e, ka, kb])
            cnf.add_clause([-e, -ka, -kb])
            key_diff_lits.append(e)
        cnf.add_clause([-self.act_var] + key_diff_lits)
        self._synced_clauses = self.solver.absorb(cnf)

    def _sync_solver(self) -> None:
        """Push clauses added to the CNF since the last sync."""
        self._synced_clauses = self.solver.absorb(
            self.encoder.cnf, already_synced=self._synced_clauses
        )

    def add_dip_constraint(self, dip: list[int], response: list[int]) -> None:
        """Both key copies must reproduce the oracle response on this DIP.

        Stamps one template copy per key side over that side's miter
        copy (key inputs and key-only logic shared, everything else
        fresh) and pins its X inputs and outputs to the observed
        pattern, then streams the new clauses into the incremental
        session.
        """
        cnf = self.encoder.cnf
        for side, table in self._sides:
            self._copy_count += 1
            prefix = f"{side}{self._copy_count}::"
            mapping, _ = self.encoder.stamp(self._template, prefix, over=table)
            for net, bit in zip(self.x_inputs, dip):
                var = mapping[net]
                cnf.add_clause([var if bit else -var])
            for net, bit in zip(self.locked.outputs, response):
                var = mapping[net]
                cnf.add_clause([var if bit else -var])
        self._sync_solver()

    def _keys_left(
        self, limit: int, timeout_s: float | None = None
    ) -> list[list[int]] | None:
        """Up to ``limit`` keys satisfying every constraint (miter off).

        Blocking clauses go into a retractable group so enumeration does
        not poison the session: the resumed miter solve and later DIP
        copies keep seeing every surviving key.  The activation variable must
        come from the shared CNF namespace -- allocating it in the
        solver alone would let the next stamped copy reuse the same id
        for a circuit net.  Returns None when ``timeout_s`` ran out
        before the list was complete.
        """
        group = self.encoder.cnf.new_var()
        self._sync_solver()
        keys = list(
            enumerate_models(
                self.solver,
                self.key_vars_a,
                limit=limit,
                assumptions=[-self.act_var, group],
                group=group,
                timeout_s=timeout_s,
            )
        )
        self.solver.release_group(group)
        if len(keys) < limit and self.solver.last_result.satisfiable is None:
            return None
        return keys

    def _next_dip(
        self, budgeted: bool, deadline: float | None
    ) -> tuple[bool | None, list[list[int]] | None]:
        """Solve the miter once, checking for a unique key when it runs long.

        Returns ``(found, keys)``.  ``found`` is True when the solver's
        model holds a DIP, False when none is left and None when the
        deadline ran out.  ``keys`` is the complete candidate list when
        the uniqueness check (module docstring, step 3) settled
        convergence, else None.
        """
        result = self.solver.solve(
            assumptions=[self.act_var],
            max_conflicts=_UNIQUENESS_CHECK_CONFLICTS if budgeted else None,
            timeout_s=_time_left(deadline),
        )
        if result.satisfiable is not None or not budgeted:
            return result.satisfiable, None
        # The same answer comes back when the clock ran out; only a
        # spent conflict budget leads to the check.
        remaining = _time_left(deadline)
        if remaining == 0.0:
            return None, None
        keys = self._keys_left(2, timeout_s=remaining)
        if keys is None:
            return None, None
        if len(keys) < 2:
            return False, keys
        remaining = _time_left(deadline)
        if remaining == 0.0:
            return None, None
        result = self.solver.solve(assumptions=[self.act_var], timeout_s=remaining)
        return result.satisfiable, None

    # ------------------------------------------------------------------
    def run(self) -> SatAttackResult:
        """Execute the DIP loop, then enumerate surviving key candidates."""
        cfg = self.config
        watch = Stopwatch().start()
        deadline = (
            time.perf_counter() + cfg.timeout_s if cfg.timeout_s is not None else None
        )
        started = time.perf_counter()
        dips: list[tuple[list[int], list[int]]] = []
        converged = False
        timed_out = False
        keys: list[list[int]] | None = None

        iteration = 0
        while iteration < cfg.max_iterations:
            if _time_left(deadline) == 0.0:
                # The solver reads its clock only every few conflicts,
                # so a spent budget must not reach it: a small instance
                # would converge inside the first check interval.
                timed_out = True
                break
            with watch.lap("solve_dip"):
                found, keys = self._next_dip(iteration > 0, deadline)
            if found is None:
                timed_out = True  # budget exhausted
                break
            if found is False:
                converged = True
                break
            iteration += 1
            dip = self.solver.values(self.x_vars)
            with watch.lap("oracle"):
                response = self.oracle_fn(dip)
            if len(response) != len(self.locked.outputs):
                raise ValueError("oracle returned wrong number of output bits")
            dips.append((dip, list(response)))
            with watch.lap("constrain"):
                self.add_dip_constraint(dip, list(response))
            if cfg.iteration_hook is not None:
                cfg.iteration_hook(
                    IterationRecord(
                        iteration=iteration,
                        dip=dip,
                        response=list(response),
                        n_clauses=self.encoder.cnf.n_clauses,
                        n_vars=self.encoder.cnf.n_vars,
                        elapsed_s=time.perf_counter() - started,
                    )
                )

        key_candidates: list[list[int]] = []
        exhausted = False
        if converged:
            if keys is None:
                with watch.lap("enumerate"):
                    # Without a time limit the list is complete, never None.
                    keys = self._keys_left(cfg.candidate_limit)
            key_candidates = keys
            exhausted = len(key_candidates) >= cfg.candidate_limit
            # Model enumeration order is a solver internal (it shifts
            # with encoding details such as the optimization level);
            # the *set* of surviving keys is the semantic result, so
            # canonicalise.  Downstream consumers -- refinement's
            # survivors[0], the restart consensus -- thereby return
            # identical keys for every equivalent encoding, as long as
            # enumeration ran to completion.
            key_candidates.sort()

        fixed: dict[int, int] = {}
        if key_candidates and not exhausted:
            for index in range(len(self.key_inputs)):
                column = {cand[index] for cand in key_candidates}
                if len(column) == 1:
                    fixed[index] = key_candidates[0][index]

        watch.stop()
        # Snapshot: the live session keeps mutating its stats object
        # when the caller continues using it after run().
        solver_stats = replace(self.solver.stats)
        if obs.active():
            # Map stopwatch laps onto the span phase catalogue
            # (docs/observability.md); a single dict merge per attack,
            # nothing on the per-DIP path.
            obs.add_phase("solve", watch.laps.get("solve_dip", 0.0))
            obs.add_phase("oracle", watch.laps.get("oracle", 0.0))
            obs.add_phase("encode", watch.laps.get("constrain", 0.0))
            obs.add_phase("enumerate", watch.laps.get("enumerate", 0.0))
            obs.incr("dips", iteration)
            obs.incr("oracle_queries", iteration)
            obs.incr("key_candidates", len(key_candidates))
            obs.incr("solver_conflicts", solver_stats.conflicts)
            obs.incr("solver_decisions", solver_stats.decisions)
            obs.incr("solver_propagations", solver_stats.propagations)
        return SatAttackResult(
            converged=converged,
            iterations=iteration,
            dips=dips,
            key_candidates=key_candidates,
            candidates_exhausted=exhausted,
            fixed_key_bits=fixed,
            runtime_s=watch.total,
            timed_out=timed_out,
            stopwatch=watch,
            solver_stats=solver_stats,
        )


def _time_left(deadline: float | None) -> float | None:
    """Seconds until ``deadline`` (never negative); None without one.

    Reads this module's clock, like the deadline itself, so a test can
    stand in for both.
    """
    return None if deadline is None else max(0.0, deadline - time.perf_counter())

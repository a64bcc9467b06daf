"""The attack x defense plugin registry.

The paper's central artifact is a *landscape* table (Table I): every
scan-obfuscation defense positioned against the attack that breaks it.
This module makes that landscape executable: defenses and attacks
register themselves with enough metadata that a grid driver
(:mod:`repro.matrix.grid`) can enumerate every applicable (attack,
defense) pairing mechanically, run it through the cached parallel
scheduler, and compare the measured verdicts with the paper's claims.

A **defense** is a lock factory: ``lock_fn(netlist, key_bits, rng,
**params)`` returning a lock object that exposes ``public_view()`` and
``make_oracle()`` (every scheme in :mod:`repro.locking` already follows
this shape).  ``oracle_model`` names the query interface the resulting
oracle speaks -- e.g. ``"comb-io"`` for plain input/output access or
``"scan-static"`` for a statically scrambled scan chain -- so attacks
can declare applicability to whole interface families instead of
hard-coding defense names.

An **attack** is a runner: ``run_fn(lock, profile=..., timeout_s=...)``
returning a normalised :class:`AttackOutcome`.  ``applicable_to`` lists
defense *names* and/or ``oracle_model`` values; a pair outside that set
is an ``n/a`` cell of the matrix -- never executed, rendered as such.

Registration order is preserved (it is the row order of the rendered
matrix); duplicate names are rejected loudly.  The built-in schemes
live in :mod:`repro.matrix.plugins` and are loaded lazily by
:func:`ensure_builtins` so that importing the registry costs nothing.
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping


class RegistryError(ValueError):
    """Raised on duplicate registrations or malformed plugin specs."""


@dataclass
class AttackOutcome:
    """Normalised result of one attack run -- the matrix cell's payload.

    ``verified`` is the equivalence bit: the recovered key/seed was
    replayed against the live oracle (or checked against ground truth
    where the attack already embeds replay refinement) and reproduced
    its responses.  ``queries`` counts oracle invocations where the
    oracle exposes a counter (0 otherwise).  ``timed_out`` is True when
    the attack ran out of its wall-clock budget: the outcome then
    depends on the machine's speed and is never stored.
    """

    success: bool
    recovered_key: list[int] | None
    iterations: int
    queries: int
    runtime_s: float
    verified: bool
    detail: str = ""
    timed_out: bool = False


LockFactory = Callable[..., Any]
AttackFn = Callable[..., AttackOutcome]


@dataclass(frozen=True)
class DefenseSpec:
    """One registered locking scheme.

    ``params`` are extra keyword arguments passed to every ``lock_fn``
    call (e.g. DOS's update period); ``default_key_bits`` overrides the
    grid's per-cell key width for schemes whose natural key size differs
    from the XOR-overlay defenses (a scramble lock spends one key bit
    per chain swap, a point function wants few bits to stay tractable).
    """

    name: str
    lock_fn: LockFactory
    oracle_model: str
    params: Mapping[str, Any] = field(default_factory=dict)
    display: str = ""
    obfuscation: str = ""
    paper_attack: str | None = None
    default_key_bits: int | None = None

    def build(self, netlist, key_bits: int, rng) -> Any:
        """Instantiate the lock on ``netlist`` with this spec's params."""
        return self.lock_fn(netlist, key_bits=key_bits, rng=rng, **dict(self.params))


@dataclass(frozen=True)
class AttackSpec:
    """One registered attack and the defenses/oracle models it targets."""

    name: str
    run_fn: AttackFn
    applicable_to: tuple[str, ...]
    display: str = ""


_DEFENSES: dict[str, DefenseSpec] = {}
_ATTACKS: dict[str, AttackSpec] = {}


def register_defense(
    name: str,
    lock_fn: LockFactory,
    oracle_model: str,
    params: Mapping[str, Any] | None = None,
    *,
    display: str = "",
    obfuscation: str = "",
    paper_attack: str | None = None,
    default_key_bits: int | None = None,
) -> DefenseSpec:
    """Register a locking scheme; raises :class:`RegistryError` on duplicates."""
    if name in _DEFENSES:
        raise RegistryError(f"defense {name!r} is already registered")
    if not name or not oracle_model:
        raise RegistryError("defense name and oracle_model must be non-empty")
    spec = DefenseSpec(
        name=name,
        lock_fn=lock_fn,
        oracle_model=oracle_model,
        params=dict(params or {}),
        display=display or name,
        obfuscation=obfuscation,
        paper_attack=paper_attack,
        default_key_bits=default_key_bits,
    )
    _DEFENSES[name] = spec
    return spec


def register_attack(
    name: str,
    run_fn: AttackFn,
    applicable_to: tuple[str, ...] | list[str],
    *,
    display: str = "",
) -> AttackSpec:
    """Register an attack; raises :class:`RegistryError` on duplicates."""
    if name in _ATTACKS:
        raise RegistryError(f"attack {name!r} is already registered")
    if not applicable_to:
        raise RegistryError(f"attack {name!r} must target at least one defense")
    spec = AttackSpec(
        name=name,
        run_fn=run_fn,
        applicable_to=tuple(applicable_to),
        display=display or name,
    )
    _ATTACKS[name] = spec
    return spec


def ensure_builtins() -> None:
    """Load the built-in defense/attack plugins (idempotent)."""
    import repro.matrix.plugins  # noqa: F401  (registers on import)


def get_defense(name: str) -> DefenseSpec:
    """Look up a registered defense, raising KeyError with the known names."""
    ensure_builtins()
    try:
        return _DEFENSES[name]
    except KeyError:
        raise KeyError(
            f"unknown defense {name!r}; known: {sorted(_DEFENSES)}"
        ) from None


def get_attack(name: str) -> AttackSpec:
    """Look up a registered attack, raising KeyError with the known names."""
    ensure_builtins()
    try:
        return _ATTACKS[name]
    except KeyError:
        raise KeyError(f"unknown attack {name!r}; known: {sorted(_ATTACKS)}") from None


def defense_names() -> list[str]:
    """Registered defense names in registration (= table row) order."""
    ensure_builtins()
    return list(_DEFENSES)


def attack_names() -> list[str]:
    """Registered attack names in registration order."""
    ensure_builtins()
    return list(_ATTACKS)


def _accepts_kwarg(fn: Callable, name: str) -> bool:
    try:
        parameters = inspect.signature(fn).parameters
    except (TypeError, ValueError):  # builtins / C callables
        return False
    if name in parameters:
        return True
    return any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )


def call_attack(
    attack: AttackSpec,
    lock: Any,
    *,
    profile,
    timeout_s: float | None,
    opt_level: int | None = None,
) -> AttackOutcome:
    """Invoke an attack runner with the registry's calling convention.

    ``opt_level`` (the netlist-optimization preprocessing level, see
    :mod:`repro.opt`) is forwarded only when the runner's signature
    accepts it, so plugins written before the optimizer existed -- and
    test fakes with the minimal ``(lock, *, profile, timeout_s)`` shape
    -- keep working; they simply run at the attack's own default level.
    """
    kwargs: dict[str, Any] = {"profile": profile, "timeout_s": timeout_s}
    if opt_level is not None and _accepts_kwarg(attack.run_fn, "opt_level"):
        kwargs["opt_level"] = opt_level
    return attack.run_fn(lock, **kwargs)


def is_applicable(attack: AttackSpec, defense: DefenseSpec) -> bool:
    """Whether the pair is a real matrix cell (else it is ``n/a``).

    An attack targets a defense when its ``applicable_to`` names either
    the defense itself or the defense's oracle model.
    """
    return (
        defense.name in attack.applicable_to
        or defense.oracle_model in attack.applicable_to
    )


def applicable_pairs(
    attacks: list[str] | None = None, defenses: list[str] | None = None
) -> list[tuple[str, str]]:
    """Every runnable (attack, defense) pair, defense-major order."""
    ensure_builtins()
    attack_list = attacks if attacks is not None else attack_names()
    defense_list = defenses if defenses is not None else defense_names()
    return [
        (a, d)
        for d in defense_list
        for a in attack_list
        if is_applicable(get_attack(a), get_defense(d))
    ]


def sample_applicable_pair(
    rng,
    attacks: list[str] | None = None,
    defenses: list[str] | None = None,
) -> tuple[str, str]:
    """Draw one runnable (attack, defense) pair uniformly from ``rng``.

    Sampling happens over :func:`applicable_pairs`'s deterministic
    defense-major order, so a given rng state always yields the same
    pair -- the property the fuzz campaign's seeded trial stream needs.
    """
    pairs = applicable_pairs(attacks=attacks, defenses=defenses)
    if not pairs:
        raise RegistryError("no applicable (attack, defense) pair to sample")
    return pairs[rng.randrange(len(pairs))]


@contextmanager
def temporary_registrations() -> Iterator[None]:
    """Snapshot the registry and restore it on exit (for tests)."""
    saved_defenses = dict(_DEFENSES)
    saved_attacks = dict(_ATTACKS)
    try:
        yield
    finally:
        _DEFENSES.clear()
        _DEFENSES.update(saved_defenses)
        _ATTACKS.clear()
        _ATTACKS.update(saved_attacks)

"""Declarative experiment config profiles (TOML/JSON).

A config file is a small table of dotted keys -- ``profile``,
``opt_level``, plus the ``[cache]``, ``[filters]``, ``[farm]`` and
``[grid]`` sections -- that captures everything a large campaign needs
to be reproducible as one reviewable artifact: seeds, trial counts,
concurrency, time budgets, cache location, optimization level, and
attack/defense/benchmark filters.

Three layers, strictly ordered::

    explicit CLI flag  >  config file value  >  built-in default

``dynunlock farm/matrix/table*/run --config FILE`` resolves every
covered flag through that chain; flag-vs-file conflicts are reported as
dotted paths (``farm.round_trials``) and the resolved config -- file
path, values, overrides -- is stamped into artifact provenance.

Validation is schema-driven and collects *every* problem, each tagged
with its precise dotted path (``farm.round_trials: must be >= 1``).
``dynunlock config check --strict`` additionally rejects unknown keys,
so a typo'd ``[farm] round_trails = 500`` cannot silently run the
default.

TOML parsing uses :mod:`tomllib` where available (Python >= 3.11) and
falls back to a minimal single-line-value subset parser on 3.10 -- the
schema is flat enough that the subset covers every valid config.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "ConfigError",
    "ConfigIssue",
    "ResolvedConfig",
    "SCHEMA",
    "check_config",
    "load_config_file",
    "load_and_check",
    "apply_config",
    "parse_duration",
]

MAX_SEED = 2**63 - 1
MAX_CONCURRENCY = 256


@dataclass(frozen=True)
class ConfigIssue:
    """One validation problem, tagged with its dotted key path."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


class ConfigError(ValueError):
    """Raised when a config file cannot be loaded or fails validation."""

    def __init__(self, source: str, issues: list[ConfigIssue]):
        self.source = source
        self.issues = issues
        lines = "\n".join(f"  {issue}" for issue in issues)
        super().__init__(f"invalid config {source}:\n{lines}")


@dataclass(frozen=True)
class Field:
    """Schema row: expected type, optional policy check, doc string."""

    kind: str  # "int" | "float" | "str" | "bool" | "str_list"
    help: str
    check: Callable[[Any], str | None] | None = None


def _int_range(lo: int, hi: int) -> Callable[[Any], str | None]:
    def check(value: Any) -> str | None:
        if not (lo <= value <= hi):
            return f"must be between {lo} and {hi}, got {value}"
        return None

    return check


def _positive(value: Any) -> str | None:
    if value <= 0:
        return f"must be > 0, got {value}"
    return None


def _opt_level(value: Any) -> str | None:
    from repro.opt import MAX_LEVEL

    return _int_range(0, MAX_LEVEL)(value)


def _known_profile(value: Any) -> str | None:
    from repro.reports.profiles import PROFILES

    if value not in PROFILES:
        return f"unknown profile {value!r}; known: {', '.join(sorted(PROFILES))}"
    return None


def _known_attacks(value: Any) -> str | None:
    from repro.matrix.registry import attack_names

    unknown = [name for name in value if name not in attack_names()]
    if unknown:
        return (
            f"unknown attack(s) {', '.join(unknown)}; "
            f"known: {', '.join(attack_names())}"
        )
    return None


def _known_defenses(value: Any) -> str | None:
    from repro.matrix.registry import defense_names

    unknown = [name for name in value if name not in defense_names()]
    if unknown:
        return (
            f"unknown defense(s) {', '.join(unknown)}; "
            f"known: {', '.join(defense_names())}"
        )
    return None


def _known_benchmarks(value: Any) -> str | None:
    from repro.bench_suite.registry import PAPER_BENCHMARKS

    unknown = [name for name in value if name not in PAPER_BENCHMARKS]
    if unknown:
        return (
            f"unknown benchmark(s) {', '.join(unknown)}; "
            f"known: {', '.join(PAPER_BENCHMARKS)}"
        )
    return None


#: Every key a config file may set, by dotted path.  Policy checks are
#: closures with lazy imports so loading this module stays cheap.
SCHEMA: dict[str, Field] = {
    "profile": Field("str", "experiment size profile", _known_profile),
    "opt_level": Field("int", "netlist-optimization level", _opt_level),
    "cache.dir": Field("str", "result-store location"),
    "cache.resume": Field("bool", "reuse cached cells"),
    "filters.attacks": Field(
        "str_list", "restrict to these attacks", _known_attacks
    ),
    "filters.defenses": Field(
        "str_list", "restrict to these defenses", _known_defenses
    ),
    "filters.benchmarks": Field(
        "str_list", "restrict to these benchmarks", _known_benchmarks
    ),
    "farm.seed": Field("int", "farm seed", _int_range(0, MAX_SEED)),
    "farm.concurrency": Field(
        "int", "worker processes (0 = per core)",
        _int_range(0, MAX_CONCURRENCY),
    ),
    "farm.round_trials": Field(
        "int", "trials per farm round", _int_range(1, 10_000)
    ),
    "farm.max_rounds": Field(
        "int", "stop after N rounds (0 = unbounded)",
        _int_range(0, 1_000_000),
    ),
    "farm.budget_s": Field(
        "float", "wall-clock budget per invocation", _positive
    ),
    "farm.state_dir": Field("str", "farm state/corpus directory"),
    "farm.bias": Field(
        "float", "scheduler hot-cell bias weight", _int_range(0, 1000)
    ),
    "farm.stability_every": Field(
        "int", "stability probe period (0 = off)", _int_range(0, 10_000)
    ),
    "farm.shrink_limit": Field(
        "int", "minimize at most N violations per round",
        _int_range(0, 10_000),
    ),
    "grid.concurrency": Field(
        "int", "worker processes (0 = per core)",
        _int_range(0, MAX_CONCURRENCY),
    ),
}

_SECTIONS = sorted({path.split(".")[0] for path in SCHEMA if "." in path})
_TOP_KEYS = sorted(path for path in SCHEMA if "." not in path)


def _type_issue(path: str, kind: str, value: Any) -> ConfigIssue | None:
    """Type-check one value; bool is checked before int on purpose
    (``isinstance(True, int)`` holds in Python)."""
    got = type(value).__name__
    if kind == "bool":
        if not isinstance(value, bool):
            return ConfigIssue(path, f"expected a boolean, got {got}")
    elif kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            return ConfigIssue(path, f"expected an integer, got {got}")
    elif kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return ConfigIssue(path, f"expected a number, got {got}")
    elif kind == "str":
        if not isinstance(value, str):
            return ConfigIssue(path, f"expected a string, got {got}")
    elif kind == "str_list":
        if not isinstance(value, list) or any(
            not isinstance(item, str) for item in value
        ):
            return ConfigIssue(path, f"expected a list of strings, got {got}")
    return None


def check_config(
    data: Any, *, strict: bool = True
) -> tuple[dict[str, Any], list[ConfigIssue]]:
    """Validate a parsed config; returns (flat dotted values, issues).

    Collects *every* issue rather than stopping at the first, so one
    ``config check`` run reports the whole repair list.  ``strict``
    additionally rejects unknown keys/sections; non-strict ignores them
    (but still type- and policy-checks the known ones).
    """
    issues: list[ConfigIssue] = []
    values: dict[str, Any] = {}
    if not isinstance(data, dict):
        return values, [
            ConfigIssue("<root>", "config must be a table/object")
        ]

    def visit(path: str, value: Any) -> None:
        spec = SCHEMA.get(path)
        if spec is None:
            if strict:
                issues.append(
                    ConfigIssue(
                        path,
                        "unknown key (known sections: "
                        f"{', '.join(_SECTIONS)}; top-level: "
                        f"{', '.join(_TOP_KEYS)})",
                    )
                )
            return
        issue = _type_issue(path, spec.kind, value)
        if issue is not None:
            issues.append(issue)
            return
        if spec.check is not None:
            message = spec.check(value)
            if message is not None:
                issues.append(ConfigIssue(path, message))
                return
        values[path] = float(value) if spec.kind == "float" else value

    for key, value in data.items():
        if isinstance(value, dict):
            if key not in _SECTIONS:
                if strict:
                    issues.append(
                        ConfigIssue(
                            key,
                            f"unknown section (known: {', '.join(_SECTIONS)})",
                        )
                    )
                continue
            for sub_key, sub_value in value.items():
                if isinstance(sub_value, dict):
                    issues.append(
                        ConfigIssue(
                            f"{key}.{sub_key}",
                            "nested tables are not allowed here",
                        )
                    )
                    continue
                visit(f"{key}.{sub_key}", sub_value)
        elif key in _SECTIONS:
            issues.append(
                ConfigIssue(key, f"expected a [{key}] table, got a value")
            )
        else:
            visit(key, value)
    return values, issues


# --------------------------------------------------------------------------
# File loading: tomllib where available, a minimal TOML subset otherwise.


def _parse_toml_value(text: str, where: str) -> Any:
    text = text.strip()
    if not text:
        raise ValueError(f"{where}: missing value")
    if text[0] in "\"'":
        quote = text[0]
        end = text.find(quote, 1)
        if end < 0:
            raise ValueError(f"{where}: unterminated string")
        rest = text[end + 1 :].strip()
        if rest and not rest.startswith("#"):
            raise ValueError(f"{where}: trailing junk after string")
        return text[1:end]
    # Non-string values may carry a trailing comment.
    text = text.split("#", 1)[0].strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValueError(f"{where}: unterminated array")
        inner = text[1:-1].strip()
        if not inner:
            return []
        items = []
        depth = 0
        current = ""
        in_str: str | None = None
        for char in inner:
            if in_str:
                if char == in_str:
                    in_str = None
                current += char
            elif char in "\"'":
                in_str = char
                current += char
            elif char == "[":
                depth += 1
                current += char
            elif char == "]":
                depth -= 1
                current += char
            elif char == "," and depth == 0:
                items.append(current)
                current = ""
            else:
                current += char
        if current.strip():
            items.append(current)
        return [_parse_toml_value(item, where) for item in items]
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{where}: cannot parse value {text!r}")


def _parse_toml_minimal(text: str) -> dict[str, Any]:
    """Parse the TOML subset the config schema needs (3.10 fallback).

    Sections, ``key = value`` with strings/ints/floats/bools and
    single-line flat arrays, full-line and trailing comments.  Anything
    fancier (multi-line values, dotted keys, inline tables) is rejected
    loudly rather than mis-parsed.
    """
    data: dict[str, Any] = {}
    table = data
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"line {lineno}"
        if line.startswith("["):
            if not line.split("#", 1)[0].strip().endswith("]"):
                raise ValueError(f"{where}: malformed section header")
            name = line.split("#", 1)[0].strip()[1:-1].strip()
            if not name or "." in name or '"' in name:
                raise ValueError(f"{where}: unsupported section {name!r}")
            table = data.setdefault(name, {})
            if not isinstance(table, dict):
                raise ValueError(f"{where}: section {name!r} clashes with a key")
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key or "." in key or '"' in key:
            raise ValueError(f"{where}: expected 'key = value'")
        table[key] = _parse_toml_value(value, where)
    return data


def _loads_toml(text: str) -> dict[str, Any]:
    try:
        import tomllib
    except ImportError:  # Python 3.10: use the subset parser
        return _parse_toml_minimal(text)
    return tomllib.loads(text)


def load_config_file(path: str | Path) -> dict[str, Any]:
    """Read and parse a ``.toml``/``.json`` config file (no validation)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(str(path), [ConfigIssue("<file>", str(exc))])
    suffix = path.suffix.lower()
    try:
        if suffix == ".json":
            data = json.loads(text)
        elif suffix == ".toml":
            data = _loads_toml(text)
        else:
            raise ValueError(
                f"unsupported config format {suffix or path.name!r} "
                "(use .toml or .json)"
            )
    except ValueError as exc:
        raise ConfigError(str(path), [ConfigIssue("<parse>", str(exc))])
    if not isinstance(data, dict):
        raise ConfigError(
            str(path), [ConfigIssue("<root>", "config must be a table/object")]
        )
    return data


@dataclass
class ResolvedConfig:
    """A validated config file, flattened to dotted-path values."""

    path: str
    values: dict[str, Any] = field(default_factory=dict)
    overrides: list[str] = field(default_factory=list)

    def provenance(self) -> dict[str, Any]:
        """The JSON block stamped into artifact meta."""
        return {
            "path": self.path,
            "values": {key: self.values[key] for key in sorted(self.values)},
            "overrides": list(self.overrides),
        }


def load_and_check(path: str | Path, *, strict: bool = True) -> ResolvedConfig:
    """Load + validate one file; raises :class:`ConfigError` on issues."""
    data = load_config_file(path)
    values, issues = check_config(data, strict=strict)
    if issues:
        raise ConfigError(str(path), issues)
    return ResolvedConfig(path=str(path), values=values)


# --------------------------------------------------------------------------
# CLI resolution: explicit flag > config value > built-in default.

#: Per-command (argparse attr, dotted config path, built-in default).
#: Attrs without a CLI flag (e.g. farm.bias) still resolve -- argparse
#: simply never sets them, so the config/default chain decides.
_COMMON = [
    ("profile", "profile", None),
    ("opt_level", "opt_level", None),
    ("resume", "cache.resume", True),
    ("cache_dir", "cache.dir", None),
]

COMMAND_MAPS: dict[str, list[tuple[str, str, Any]]] = {
    "farm": _COMMON
    + [
        ("jobs", "farm.concurrency", 1),
        ("seed", "farm.seed", 0),
        ("round_trials", "farm.round_trials", 24),
        ("max_rounds", "farm.max_rounds", 0),
        ("budget", "farm.budget_s", None),
        ("state", "farm.state_dir", ".repro_farm"),
        ("bias", "farm.bias", 4.0),
        ("stability_every", "farm.stability_every", 8),
        ("shrink_limit", "farm.shrink_limit", 8),
        ("attacks", "filters.attacks", []),
        ("defenses", "filters.defenses", []),
    ],
    "matrix": _COMMON
    + [
        ("jobs", "grid.concurrency", 1),
        ("attacks", "filters.attacks", []),
        ("defenses", "filters.defenses", []),
        ("benchmarks", "filters.benchmarks", []),
    ],
    "grid": _COMMON
    + [
        ("jobs", "grid.concurrency", 1),
        ("benchmarks", "filters.benchmarks", []),
    ],
}


def apply_config(
    args,
    command: str,
    *,
    warn: Callable[[str], None] | None = None,
) -> dict[str, Any] | None:
    """Resolve every config-covered flag on ``args`` in place.

    ``args.config`` (the ``--config`` flag) names the file; without it
    only built-in defaults are applied (covered flags use ``None`` /
    ``[]`` argparse defaults so explicit-vs-absent stays detectable).
    Returns the provenance block to stamp into artifacts, or ``None``
    when no config file was given.  Flag-vs-file conflicts are recorded
    by dotted path and reported through ``warn``.
    """
    say = warn if warn is not None else (lambda _msg: None)
    resolved: ResolvedConfig | None = None
    config_path = getattr(args, "config", None)
    if config_path:
        # Non-strict here: running with a forward-compatible file is
        # fine; `config check --strict` is the gate for unknown keys.
        resolved = load_and_check(config_path, strict=False)
    for attr, path, default in COMMAND_MAPS[command]:
        cli = getattr(args, attr, None)
        explicit = bool(cli) if isinstance(cli, list) else cli is not None
        from_file = resolved.values.get(path) if resolved is not None else None
        has_file = resolved is not None and path in resolved.values
        if explicit:
            if has_file and from_file != cli:
                resolved.overrides.append(path)
                say(
                    f"config {path}={from_file!r} overridden by "
                    f"command line ({cli!r})"
                )
            continue
        setattr(args, attr, from_file if has_file else default)
    if resolved is None:
        return None
    resolved.overrides.sort()
    return resolved.provenance()


def parse_duration(text: str) -> float:
    """Parse ``90``, ``90s``, ``10m``, ``1h30m`` etc. into seconds."""
    cleaned = str(text).strip().lower()
    try:
        return float(cleaned)
    except ValueError:
        pass
    units = {"h": 3600.0, "m": 60.0, "s": 1.0}
    total = 0.0
    number = ""
    matched = False
    for char in cleaned:
        if char.isdigit() or char == ".":
            number += char
        elif char in units and number:
            total += float(number) * units[char]
            number = ""
            matched = True
        else:
            raise ValueError(f"not a duration: {text!r}")
    if number or not matched:
        raise ValueError(f"not a duration: {text!r}")
    return total

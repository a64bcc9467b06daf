"""Tests for declarative experiment config profiles (repro.config).

The contract pinned here:

* every validation failure is tagged with its precise dotted key path
  (``farm.concurrency``, not "bad value somewhere");
* strict mode rejects unknown keys/sections, non-strict ignores them
  but still checks the known ones;
* resolution order is explicit CLI flag > config file > built-in
  default, with flag-vs-file conflicts recorded as overrides;
* the shipped example profiles in ``examples/configs/`` all pass
  ``config check --strict``.
"""

import json
from pathlib import Path

import pytest

from repro.config import (
    COMMAND_MAPS,
    ConfigError,
    SCHEMA,
    apply_config,
    check_config,
    load_and_check,
    load_config_file,
    parse_duration,
)
from repro.cli import build_parser, main

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples" / "configs"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.toml"))


def issue_paths(issues):
    return [issue.path for issue in issues]


class TestSchemaValidation:
    def test_valid_config_flattens_to_dotted_values(self):
        values, issues = check_config(
            {
                "profile": "quick",
                "opt_level": 1,
                "farm": {"round_trials": 50, "seed": 3},
                "cache": {"resume": False},
            }
        )
        assert not issues
        assert values == {
            "profile": "quick",
            "opt_level": 1,
            "farm.round_trials": 50,
            "farm.seed": 3,
            "cache.resume": False,
        }

    def test_unknown_key_rejected_with_dotted_path(self):
        _, issues = check_config({"farm": {"bogus": 1}}, strict=True)
        assert issue_paths(issues) == ["farm.bogus"]
        assert "unknown key" in issues[0].message

    def test_unknown_section_rejected(self):
        _, issues = check_config({"frm": {"seed": 1}}, strict=True)
        assert issue_paths(issues) == ["frm"]
        assert "unknown section" in issues[0].message

    def test_non_strict_ignores_unknown_but_checks_known(self):
        values, issues = check_config(
            {"farm": {"bogus": 1, "seed": -1}}, strict=False
        )
        assert issue_paths(issues) == ["farm.seed"]
        assert "bogus" not in str(values)

    def test_wrong_type_names_the_path(self):
        _, issues = check_config({"farm": {"round_trials": "lots"}})
        assert issue_paths(issues) == ["farm.round_trials"]
        assert "expected an integer" in issues[0].message

    def test_bool_is_not_an_integer(self):
        # isinstance(True, int) holds in Python; the schema must not
        # let a stray `round_trials = true` slip through as 1.
        _, issues = check_config({"farm": {"round_trials": True}})
        assert issue_paths(issues) == ["farm.round_trials"]

    def test_out_of_range_seed(self):
        _, issues = check_config({"farm": {"seed": -1}})
        assert issue_paths(issues) == ["farm.seed"]
        assert "between" in issues[0].message

    def test_out_of_range_concurrency(self):
        _, issues = check_config({"farm": {"concurrency": -3}})
        assert issue_paths(issues) == ["farm.concurrency"]
        _, issues = check_config({"grid": {"concurrency": 100_000}})
        assert issue_paths(issues) == ["grid.concurrency"]

    def test_round_trials_floor(self):
        _, issues = check_config({"farm": {"round_trials": 0}})
        assert issue_paths(issues) == ["farm.round_trials"]

    def test_policy_checks_name_registry_members(self):
        _, issues = check_config(
            {
                "profile": "huge",
                "filters": {"attacks": ["scansat", "nosuch"]},
            }
        )
        assert sorted(issue_paths(issues)) == ["filters.attacks", "profile"]
        by_path = {issue.path: issue.message for issue in issues}
        assert "nosuch" in by_path["filters.attacks"]
        assert "scansat" in by_path["filters.attacks"]  # the known list

    def test_removed_store_engine_key_is_unknown(self):
        _, issues = check_config({"cache": {"backend": "json"}}, strict=True)
        assert issue_paths(issues) == ["cache.backend"]
        assert "unknown key" in issues[0].message

    def test_section_given_a_scalar_value(self):
        _, issues = check_config({"cache": 5})
        assert issue_paths(issues) == ["cache"]
        assert "table" in issues[0].message

    def test_nested_tables_rejected(self):
        _, issues = check_config({"farm": {"deep": {"round_trials": 1}}})
        assert issue_paths(issues) == ["farm.deep"]

    def test_all_issues_collected_not_just_first(self):
        _, issues = check_config(
            {"farm": {"round_trials": "x", "seed": -1, "concurrency": 9999}}
        )
        assert sorted(issue_paths(issues)) == [
            "farm.concurrency",
            "farm.round_trials",
            "farm.seed",
        ]

    def test_non_table_root_rejected(self):
        _, issues = check_config([1, 2])
        assert issue_paths(issues) == ["<root>"]


class TestLoading:
    def test_json_config_loads(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"farm": {"round_trials": 7}}))
        assert load_config_file(path) == {"farm": {"round_trials": 7}}
        resolved = load_and_check(path)
        assert resolved.values == {"farm.round_trials": 7}

    def test_toml_config_loads(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text('profile = "quick"\n[farm]\nround_trials = 7\n')
        assert load_config_file(path) == {
            "profile": "quick",
            "farm": {"round_trials": 7},
        }

    def test_unsupported_suffix_raises(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("a: 1\n")
        with pytest.raises(ConfigError) as excinfo:
            load_config_file(path)
        assert excinfo.value.issues[0].path == "<parse>"

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigError) as excinfo:
            load_config_file(tmp_path / "none.toml")
        assert excinfo.value.issues[0].path == "<file>"

    def test_load_and_check_raises_with_paths(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text("[farm]\nseed = -1\n")
        with pytest.raises(ConfigError) as excinfo:
            load_and_check(path)
        assert "farm.seed" in str(excinfo.value)


class TestShippedExamples:
    def test_examples_exist(self):
        assert [p.name for p in EXAMPLES] == ["nightly-deep.toml", "quick-smoke.toml"]

    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=[p.name for p in EXAMPLES]
    )
    def test_example_passes_strict_check(self, path):
        resolved = load_and_check(path, strict=True)
        assert resolved.values  # non-empty: the profile says something

    def test_cli_check_strict_accepts_examples(self, capsys):
        assert (
            main(
                ["config", "check", "--strict"]
                + [str(path) for path in EXAMPLES]
            )
            == 0
        )
        out = capsys.readouterr().out
        for path in EXAMPLES:
            assert f"{path}: OK" in out


class TestCliCheck:
    def test_invalid_file_exits_1_with_dotted_paths(self, tmp_path, capsys):
        path = tmp_path / "bad.toml"
        path.write_text(
            "opt_level = 2\n"
            "[farm]\nconcurrency = -3\nround_trails = 500\nseed = -1\n"
        )
        assert main(["config", "check", "--strict", str(path)]) == 1
        out = capsys.readouterr().out
        assert f"{path}: opt_level: must be between 0 and 1, got 2" in out
        assert f"{path}: farm.concurrency:" in out
        assert f"{path}: farm.round_trails: unknown key" in out
        assert f"{path}: farm.seed:" in out

    def test_non_strict_allows_unknown_keys(self, tmp_path, capsys):
        path = tmp_path / "fwd.toml"
        path.write_text("[farm]\nround_trials = 5\nfuture_knob = 1\n")
        assert main(["config", "check", str(path)]) == 0
        assert main(["config", "check", "--strict", str(path)]) == 1

    def test_parse_error_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.toml"
        path.write_text("[farm\nround_trials = 5\n")
        assert main(["config", "check", str(path)]) == 1
        assert "<parse>" in capsys.readouterr().out

    def test_show_prints_flat_values(self, tmp_path, capsys):
        path = tmp_path / "c.toml"
        path.write_text('profile = "quick"\n[farm]\nround_trials = 9\n')
        assert main(["config", "show", str(path)]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown == {"profile": "quick", "farm.round_trials": 9}


def _farm_namespace(**overrides):
    """A namespace shaped like parsed ``dynunlock farm run`` args."""
    ns = build_parser().parse_args(["farm", "run"])
    for key, value in overrides.items():
        setattr(ns, key, value)
    return ns


class TestResolution:
    def test_defaults_applied_without_a_file(self):
        ns = _farm_namespace()
        assert apply_config(ns, "farm") is None
        assert ns.round_trials == 24 and ns.seed == 0 and ns.jobs == 1
        assert ns.resume is True and ns.profile is None

    def test_file_values_fill_unset_flags(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text(
            'profile = "quick"\n[farm]\nround_trials = 12\nconcurrency = 2\n'
        )
        ns = _farm_namespace(config=str(path))
        provenance = apply_config(ns, "farm")
        assert ns.round_trials == 12 and ns.jobs == 2 and ns.profile == "quick"
        assert ns.seed == 0  # untouched by the file -> built-in default
        assert provenance["path"] == str(path)
        assert provenance["overrides"] == []
        assert provenance["values"]["farm.round_trials"] == 12

    def test_explicit_flag_overrides_file_and_is_recorded(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text("[farm]\nround_trials = 12\nseed = 5\n")
        warnings = []
        ns = _farm_namespace(config=str(path), round_trials=3)
        provenance = apply_config(ns, "farm", warn=warnings.append)
        assert ns.round_trials == 3  # the CLI wins
        assert ns.seed == 5  # the file still fills the rest
        assert provenance["overrides"] == ["farm.round_trials"]
        assert any("farm.round_trials" in message for message in warnings)

    def test_flag_equal_to_file_value_is_not_an_override(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text("[farm]\nround_trials = 12\n")
        ns = _farm_namespace(config=str(path), round_trials=12)
        provenance = apply_config(ns, "farm")
        assert provenance["overrides"] == []

    def test_invalid_file_raises_config_error(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text("[farm]\nseed = -1\n")
        ns = _farm_namespace(config=str(path))
        with pytest.raises(ConfigError, match="farm.seed"):
            apply_config(ns, "farm")

    def test_grid_command_resolves_filters_and_concurrency(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text(
            "[grid]\nconcurrency = 2\n"
            '[filters]\nbenchmarks = ["s5378", "s13207"]\n'
        )
        args = build_parser().parse_args(["table2", "--config", str(path)])
        apply_config(args, "grid")
        assert args.jobs == 2
        assert args.benchmarks == ["s5378", "s13207"]

    def test_farm_map_covers_attrs_without_flags(self, tmp_path):
        # bias/stability_every/shrink_limit have no farm-run CLI flags;
        # the config/default chain alone must resolve them.
        path = tmp_path / "c.toml"
        path.write_text("[farm]\nbias = 9.0\nstability_every = 0\n")
        args = build_parser().parse_args(
            ["farm", "run", "--config", str(path)]
        )
        apply_config(args, "farm")
        assert args.bias == 9.0
        assert args.stability_every == 0
        assert args.shrink_limit == 8  # built-in default

    def test_command_maps_reference_real_schema_paths(self):
        for command, rows in COMMAND_MAPS.items():
            for _attr, path, _default in rows:
                assert path in SCHEMA, f"{command} maps unknown path {path}"


class TestParseDuration:
    @pytest.mark.parametrize(
        "text,seconds",
        [
            ("90", 90.0),
            ("90s", 90.0),
            ("10m", 600.0),
            ("1h30m", 5400.0),
            ("2.5m", 150.0),
            ("1h", 3600.0),
        ],
    )
    def test_valid(self, text, seconds):
        assert parse_duration(text) == seconds

    @pytest.mark.parametrize("text", ["", "10x", "m", "1hm", "h30"])
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_duration(text)

"""docs/cli.md must match the live argparse tree (`make docs`).

The same check CI's docs-drift job performs, kept in tier-1 so a flag
added without regenerating the reference fails locally first.
"""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load_generator():
    spec = importlib.util.spec_from_file_location(
        "gen_cli_docs", REPO / "scripts" / "gen_cli_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_reference_is_current():
    generated = load_generator().render_cli_markdown()
    committed = (REPO / "docs" / "cli.md").read_text()
    assert generated == committed, (
        "docs/cli.md is stale -- regenerate with `make docs` and commit the diff"
    )


def test_reference_covers_every_subcommand():
    text = (REPO / "docs" / "cli.md").read_text()
    for command in (
        "attack", "table2", "matrix", "farm run", "fuzz-replay",
        "cache gc", "top",
    ):
        assert f"## `dynunlock {command}`" in text

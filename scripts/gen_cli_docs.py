#!/usr/bin/env python
"""Generate docs/cli.md from the live argparse tree.

The reference is derived, never hand-edited: ``make docs`` regenerates
it and the CI ``docs-drift`` job fails when the committed file differs
from what ``repro.cli.build_parser()`` actually exposes.  Keeping the
generator dependency-free (argparse's own help formatter, wrapped at a
pinned width) makes the output byte-stable across machines.

Usage::

    PYTHONPATH=src python scripts/gen_cli_docs.py [docs/cli.md]

With no argument the markdown is written to stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# Argparse wraps help text at the terminal width (COLUMNS wins over the
# ioctl probe), so pin it before the parser module is ever imported --
# otherwise the generated file would differ between a CI runner and a
# developer's wide terminal.
os.environ["COLUMNS"] = "80"

HEADER = """\
# CLI reference

<!-- Generated by scripts/gen_cli_docs.py -- do not edit by hand.
     Regenerate with `make docs`; CI's docs-drift job diffs this file
     against the live argparse tree. -->

Every command is reachable both ways:

```
dynunlock <command> ...              # installed entry point
PYTHONPATH=src python -m repro.cli <command> ...
```
"""


def _subparser_actions(parser: argparse.ArgumentParser):
    return [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]


def _command_sections(
    parser: argparse.ArgumentParser, trail: tuple[str, ...] = ()
) -> list[tuple[tuple[str, ...], str, argparse.ArgumentParser]]:
    """Flatten the parser tree into (command path, help, parser) rows.

    ``choices`` maps aliases to the same parser object; the dict is
    insertion-ordered, so the walk follows registration order and a
    seen-set drops aliases.
    """
    sections = []
    for action in _subparser_actions(parser):
        help_by_name = {
            choice.dest: choice.help or "" for choice in action._choices_actions
        }
        seen: set[int] = set()
        for name, sub in action.choices.items():
            if id(sub) in seen:
                continue
            seen.add(id(sub))
            path = trail + (name,)
            sections.append((path, help_by_name.get(name, ""), sub))
            sections.extend(_command_sections(sub, path))
    return sections


def render_cli_markdown() -> str:
    """The full docs/cli.md content for the current parser tree."""
    from repro.cli import build_parser

    parser = build_parser()
    parser.prog = "dynunlock"
    lines = [HEADER]

    lines.append("## Command index\n")
    sections = _command_sections(parser)
    for path, help_text, _ in sections:
        anchor = "dynunlock-" + "-".join(path)
        display = "dynunlock " + " ".join(path)
        lines.append(f"- [`{display}`](#{anchor}) -- {help_text}")
    lines.append("")

    lines.append("## Top level\n")
    lines.append("```text\n" + parser.format_help().rstrip() + "\n```\n")

    for path, _, sub in sections:
        display = "dynunlock " + " ".join(path)
        lines.append(f"## `{display}`\n")
        lines.append("```text\n" + sub.format_help().rstrip() + "\n```\n")

    return "\n".join(lines).rstrip() + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gen_cli_docs.py",
        description="Generate the CLI reference from the live argparse tree.",
    )
    parser.add_argument(
        "output",
        nargs="?",
        type=Path,
        help="file to write (default: standard output)",
    )
    args = parser.parse_args(argv)
    text = render_cli_markdown()
    if args.output is not None:
        out = args.output
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
        print(f"wrote {out} ({len(text.splitlines())} lines)")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    raise SystemExit(main())

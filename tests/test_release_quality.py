"""Release-quality gates: documentation coverage and doc consistency.

A reproduction repo lives or dies by its documentation; these tests keep
it honest: every public module/class/function carries a docstring, the
top-level docs exist and reference files that are actually in the tree,
the examples advertised by the README are runnable scripts, every
example runs to completion, and no ``src/`` definition is reached only
by tests.
"""

import ast
import contextlib
import io
import re
import runpy
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


#: Directories whose code counts as a caller of ``src/`` definitions.
CALLER_DIRS = ("perfbench", "examples", "scripts", "benchmarks")

#: ``module:name`` definitions that only tests call, kept on purpose.
TEST_ONLY_KEEP = {
    "repro.core.analysis:is_affine_space":
        "test oracle: is a candidate set an affine space",
    "repro.prng.matrix:lfsr_state_after":
        "test oracle: a matrix jump equals stepping the LFSR",
    "repro.prng.polynomials:is_maximal_length":
        "test oracle: the tap-table entries are maximal-length",
    "repro.sat.enumerate:count_models":
        "test oracle: solver model counts agree with GF(2)",
    "repro.gf2.solve:enumerate_affine_solutions":
        "GF(2) reference, kept with the rest of repro.gf2 as a test oracle",
    "repro.netlist.verilog_io:parse_verilog":
        "test oracle: reads write_verilog output back for round-trip checks",
    "repro.netlist.bench_io:load_bench_file":
        "top-level public API (repro.load_bench_file)",
    "repro.matrix.registry:temporary_registrations":
        "plugin test helper that docs/fuzzing.md documents",
}


def public_python_files():
    return sorted(
        p for p in SRC.rglob("*.py") if not p.name.startswith("_")
        or p.name == "__init__.py"
    )


class TestDocstringCoverage:
    @pytest.mark.parametrize(
        "path", public_python_files(), ids=lambda p: str(p.relative_to(SRC))
    )
    def test_module_has_docstring(self, path):
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree), f"{path} lacks a module docstring"

    def test_public_classes_and_functions_documented(self):
        undocumented: list[str] = []
        for path in public_python_files():
            tree = ast.parse(path.read_text())
            for node in tree.body:
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                    if node.name.startswith("_"):
                        continue
                    if not ast.get_docstring(node):
                        undocumented.append(
                            f"{path.relative_to(SRC)}::{node.name}"
                        )
        assert not undocumented, f"missing docstrings: {undocumented}"


class TestTopLevelDocs:
    def test_required_documents_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            assert (REPO / name).is_file(), f"{name} is missing"

    def test_design_references_existing_modules(self):
        text = (REPO / "DESIGN.md").read_text()
        for module in re.findall(r"`repro\.([a-z_0-9.]+)`", text):
            parts = module.split(".")
            candidate = SRC.joinpath(*parts)
            assert (
                candidate.with_suffix(".py").exists()
                or (candidate / "__init__.py").exists()
            ), f"DESIGN.md references repro.{module} which does not exist"

    def test_experiments_references_existing_paths(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for rel in re.findall(r"`((?:tests|benchmarks|examples)/[\w./]+)`", text):
            assert (REPO / rel).exists(), f"EXPERIMENTS.md references {rel}"

    def test_readme_examples_exist_and_are_scripts(self):
        text = (REPO / "README.md").read_text()
        examples = set(re.findall(r"`(examples/[\w_]+\.py)`", text))
        assert len(examples) >= 3, "README must advertise >= 3 examples"
        for rel in examples:
            path = REPO / rel
            assert path.is_file(), f"README references {rel}"
            source = path.read_text()
            assert "def main" in source and "__main__" in source

    @pytest.mark.parametrize(
        "path",
        sorted((REPO / "examples").glob("*.py")),
        ids=lambda p: p.name,
    )
    def test_example_runs(self, path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(path), run_name="__main__")
        assert out.getvalue(), f"{path.name} printed nothing"

    def test_design_lists_every_subpackage(self):
        text = (REPO / "DESIGN.md").read_text()
        for pkg in sorted(p.name for p in SRC.iterdir() if p.is_dir()):
            if pkg.startswith("__"):
                continue
            assert f"repro.{pkg}" in text, (
                f"DESIGN.md does not mention subpackage repro.{pkg}"
            )


class TestPackagingMetadata:
    def test_version_exposed(self):
        import repro

        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)

    def test_cli_entry_point_matches_module(self):
        text = (REPO / "pyproject.toml").read_text()
        assert 'dynunlock = "repro.cli:main"' in text
        from repro.cli import main  # noqa: F401  (importable)

    def test_c_sources_ship_as_package_data(self):
        # The native solver core is compiled from its source at run time.
        text = (REPO / "pyproject.toml").read_text()
        section = text.split("[tool.setuptools.package-data]\n", 1)[1]
        section = section.split("\n[", 1)[0]
        match = re.search(r"^repro = \[(.*)\]$", section, re.MULTILINE)
        assert match, "no package data declared for repro"
        patterns = re.findall(r'"([^"]+)"', match.group(1))
        sources = sorted(SRC.rglob("*.c"))
        assert sources, "expected the native core's C source under src/repro"
        for path in sources:
            rel = path.relative_to(SRC)
            assert any(rel.match(pattern) for pattern in patterns), (
                f"{rel} is not shipped as package data"
            )


def _definition_lines(node) -> set[int]:
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return set(range(first - 1, node.end_lineno))


def _words(text: str) -> set[str]:
    return set(re.findall(r"\w+", text))


def test_every_src_definition_has_a_non_test_caller():
    """Tripwire: code that only tests reach does not creep back into src/.

    Each top-level function or class must appear as a whole word in its
    own module outside its definition and ``__all__``, in another
    ``src/`` module that is not a package ``__init__``, or under
    :data:`CALLER_DIRS`.  :data:`TEST_ONLY_KEEP` names the exceptions.
    """
    sources = {path: path.read_text() for path in sorted(SRC.rglob("*.py"))}
    callers = {
        path: _words(text)
        for path, text in sources.items()
        if path.name != "__init__.py"
    }
    for directory in CALLER_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            callers[path] = _words(path.read_text())
    orphans = []
    for path, text in sources.items():
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        tree = ast.parse(text)
        lines = text.splitlines()
        exports = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exports |= set(range(node.lineno - 1, node.end_lineno))
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            skip = exports | _definition_lines(node)
            rest = "\n".join(line for i, line in enumerate(lines) if i not in skip)
            if node.name in _words(rest) or any(
                node.name in words
                for other, words in callers.items()
                if other != path
            ):
                continue
            if f"{module}:{node.name}" not in TEST_ONLY_KEEP:
                orphans.append(f"{module}:{node.name}")
    assert not orphans, f"src/ definitions with no caller outside tests: {orphans}"

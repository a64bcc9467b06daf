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

#: ``module:name`` or ``module:Class.method`` definitions that only tests
#: reach, kept on purpose: test oracles and paper artefacts.
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
    "repro.core.algorithm1:algorithm1":
        "paper artefact: Algorithm 1, the reference for the closed forms",
    "repro.core.cnf_dump:CnfDumper":
        "paper artefact: the paper's per-iteration CNF dump",
    "repro.gf2.matrix:GF2Matrix.transpose":
        "GF(2) reference, kept with the rest of repro.gf2 as a test oracle",
    "repro.runner.artifacts:load_artifact":
        "test oracle: reads write_artifact output back to pin the schema "
        "that docs/observability.md documents",
    "repro.sim.logicsim:CombinationalSimulator.run_outputs":
        "test oracle: the scalar reference the packed simulator is checked against",
    "repro.util.bitvec:unpack_lanes":
        "test oracle: the inverse of pack_lanes for packing round trips",
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


#: A string constant that names code: perfbench patches entry points by
#: their dotted path.
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _references(tree: ast.Module) -> list[tuple[str, int]]:
    """``(name, line)`` for every name the code in ``tree`` refers to.

    A reference is a ``Name``, an ``Attribute``, a ``from ... import``
    name or a part of a dotted identifier in a string constant.
    Docstrings and ``__all__`` are not code; comments never reach the AST.
    """
    skip = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            skip.add(id(node.body[0].value))
    for node in tree.body:
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            skip.update(id(child) for child in ast.walk(node))
    refs = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            refs += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                refs += [(part, node.lineno) for part in node.value.split(".")]
    return refs


def _definitions(tree: ast.Module):
    """``(qualified name, node)`` of each top-level function and class and
    of each method of a top-level class, dunder methods (which Python
    calls) left out."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def _orphans() -> set[str]:
    """Definitions no code outside ``tests/`` refers to, by name.

    Callers are ``src/`` modules other than package ``__init__``s and
    every module under :data:`CALLER_DIRS`; a reference inside the
    definition itself does not count.  Matching by name can only err
    toward keeping code.
    """
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    callers = [path for path in trees if path.name != "__init__.py"]
    for directory in CALLER_DIRS:
        callers += sorted((REPO / directory).rglob("*.py"))
    where: dict[str, list[tuple[Path, int]]] = {}
    for path in callers:
        tree = trees.get(path) or ast.parse(path.read_text())
        for name, line in _references(tree):
            where.setdefault(name, []).append((path, line))
    orphans = set()
    for path, tree in trees.items():
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for qualname, node in _definitions(tree):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if not any(
                other != path or not first <= line <= node.end_lineno
                for other, line in where.get(node.name, ())
            ):
                orphans.add(f"{module}:{qualname}")
    return orphans


def test_references_skip_docstrings_comments_and_all():
    tree = ast.parse(
        '"""Module docstring naming gone_a."""\n'
        "__all__ = ['gone_b']\n"
        "def f():\n"
        "    'gone_c'\n"
        "    return x.meth('pkg.mod.target', 'two words')  # gone_d\n"
        "from m import imported\n"
    )
    names = {name for name, _ in _references(tree)}
    assert {"x", "meth", "pkg", "mod", "target", "imported"} <= names
    assert not names & {"gone_a", "gone_b", "gone_c", "gone_d", "two", "words"}


def test_every_src_definition_has_a_non_test_caller():
    """Tripwire: code that only tests reach does not creep back into src/.

    :data:`TEST_ONLY_KEEP` names the exceptions, and each of them must
    still be one.
    """
    orphans = _orphans()
    keep = set(TEST_ONLY_KEEP)
    assert not orphans - keep, (
        f"src/ definitions with no caller outside tests: {sorted(orphans - keep)}"
    )
    assert not keep - orphans, (
        f"keep-list entries that are gone or have a caller: {sorted(keep - orphans)}"
    )

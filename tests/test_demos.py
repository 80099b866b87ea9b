import argparse
import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import sbbd

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


# every fenced python block of README.md, in order
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M)


def run_python(args, cwd) -> subprocess.CompletedProcess:
    """Run python with args in cwd, with the checkout's src first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("code", README_BLOCKS, ids=[f"block{k}" for k in range(1, len(README_BLOCKS) + 1)])
def test_readme_python_block_runs(code, tmp_path):
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_names_every_export():
    exports = sbbd.__all__
    readme = (ROOT / "README.md").read_text()
    missing = [name for name in exports if not re.search(rf"\b{name}\b", readme)]
    assert exports and not missing, missing


def test_every_export_is_used_outside_its_definition():
    # unused API is deleted: each export is referenced by a module of the
    # package other than __init__ (outside its own top-level definition) or by a demo
    modules = [path for path in (ROOT / "src" / "sbbd").glob("*.py") if path.name != "__init__.py"]
    used = set()
    for path in [*modules, *DEMOS]:
        for stmt in ast.parse(path.read_text()).body:
            names = {
                node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else node.name
                for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
            }
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
            used |= names
    unused = [name for name in sbbd.__all__ if name not in used]
    assert sbbd.__all__ and not unused, unused


def test_every_export_resolves_to_its_defining_module():
    assert len(set(sbbd.__all__)) == len(sbbd.__all__)
    for name in sbbd.__all__:
        obj = getattr(sbbd, name)
        assert obj.__module__.startswith("sbbd.") and getattr(sys.modules[obj.__module__], name) is obj
        assert name in dir(sbbd)
    star: dict = {}
    exec("from sbbd import *", star)
    assert star.keys() - {"__builtins__"} == set(sbbd.__all__)
    assert "__version__" in vars(sbbd)  # a plain attribute, not an export
    with pytest.raises(AttributeError, match="no_such_name"):
        sbbd.no_such_name
    with pytest.raises(ImportError):
        exec("from sbbd import no_such_name", {})


def test_no_module_relies_on_a_bare_assert():
    # python -O strips assert statements, so no correctness check may be one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "sbbd").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def _command_paths(parser, path=()):
    """(subcommand path, its parser) for every leaf of parser's subcommand tree."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _command_paths(child, (*path, name))


def test_readme_synopsis_names_every_cli_option():
    from sbbd.cli import build_parser

    readme = (ROOT / "README.md").read_text()
    (synopsis,) = re.findall(r"^## Command line\n\n```\n(.*?)^```$", readme, re.S | re.M)
    missing = []
    for path, parser in _command_paths(build_parser()):
        prefix = "sbbd " + " ".join(path)
        lines = [line for line in synopsis.splitlines() if line == prefix or line.startswith(prefix + " ")]
        options = {opt for a in parser._actions for opt in a.option_strings} - {"-h", "--help"}
        for opt in sorted(options):
            if not any(re.search(rf"(?<![\w-]){re.escape(opt)}(?![\w-])", line) for line in lines):
                missing.append(f"{prefix} {opt}")
        if not lines:
            missing.append(prefix)
    assert not missing, missing


def test_readme_pipelines_parse():
    from sbbd.cli import build_parser

    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"Pipelines compose:\n\n```\n(.*?)^```$", readme, re.S | re.M)
    stages = [shlex.split(stage) for line in block.splitlines() for stage in line.split("|")]
    assert len(stages) > 2 and all(argv[0] == "sbbd" for argv in stages)
    for argv in stages:
        build_parser().parse_args(argv[1:])  # a usage error raises SystemExit

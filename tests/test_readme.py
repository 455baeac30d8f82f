"""README's quick start runs as written, its comments hold, its command
line examples print the same bytes on every run, and its flag table matches
the command line."""

import argparse
import ast
import pathlib
import re
import shlex

import numpy as np
import pytest

import coulomb_chain
from coulomb_chain import Classification, cli
from coulomb_chain.closed_form import Phase

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def quick_start_values() -> dict:
    """Run the quick start; map each expression statement's source to its value."""
    section = README.read_text().split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    values = {}
    for stmt in ast.parse(code).body:
        if isinstance(stmt, ast.Expr):
            expr = compile(ast.Expression(stmt.value), "README.md", "eval")
            values[ast.get_source_segment(code, stmt)] = eval(expr, namespace)
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    return values


def test_quick_start_claims():
    values = quick_start_values()
    assert values["sol.classification"] is Classification.INTERIOR
    positions = values["sol.config.positions"]
    assert positions[0] == 0.0 and positions[-1] > -1.0
    assert np.all(np.diff(values["sol.config.gaps"]) > 0.0)
    assert values["critical_force_exact(100, 1.0)"] == pytest.approx(345.5733, abs=1e-4)
    assert values["np.max(np.abs(orc.config.positions - sol.config.positions))"] <= 1e-11
    assert values["classify_phase(scaled, solve_fixed_point(scaled)).detected"] is Phase.DETACHED


def test_command_line_flag_table_lists_every_flag():
    parser = cli._build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    registered = {
        name: {opt for a in p._actions for opt in a.option_strings if opt.startswith("--")}
        - {"--help", "--format", "--output"}
        for name, p in sub.choices.items()
    }
    listed = {}
    for name, cell in re.findall(r"^\| `(\w+)` \| (.*) \|$", README.read_text(), re.M):
        flags = set(re.findall(r"--[a-z-]+", cell))
        if (base := re.match(r"as `(\w+)`", cell)) is not None:
            flags |= listed[base.group(1)]
        listed[name] = flags
    assert listed == registered


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", re.findall(r"^coulomb-chain (.*)$", README.read_text(), re.M))
def test_command_line_example_prints_the_same_bytes_twice(command, fmt, capsys):
    # Every output byte is a function of the arguments: no clock, no state
    # carried from one run to the next.
    argv = [*shlex.split(command), "--format", fmt]
    outputs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_every_exported_name_has_a_user():
    # The package exports only what the CLI, the demos, the benchmark, the
    # tests or the README name.
    users = [ROOT / "src" / "coulomb_chain" / "cli.py", README]
    users += [*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py"), *ROOT.glob("tests/*.py")]
    text = "\n".join(path.read_text() for path in users)
    assert [name for name in coulomb_chain.__all__ if not re.search(rf"\b{name}\b", text)] == []

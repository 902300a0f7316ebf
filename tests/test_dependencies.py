"""Runtime dependencies: the package runs on numpy alone.

No test needs scipy either: the fringe fit is one numpy linear solve.
Importing scipy.optimize at run time would cost every process ~0.5 s of
start-up and ~45 MB of resident memory, so a guard keeps it out.

No module imports a foreign-function interface (ctypes, cffi): a library
must not change process-wide state of the program that imports it, such
as the C allocator's settings, and through one it can.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fransonsim

PACKAGE = Path(fransonsim.__file__).resolve().parent
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"

# a fringe scan long enough to fit, the closed form and a CLI command
CHILD = """
import sys
from dataclasses import replace

from fransonsim import cli, predict_rates, preset, run_scenario
from fransonsim.scenarios import ScanPlan, phase_grid

scenario = preset("ideal", master_seed=3)
scenario = replace(scenario, plan=ScanPlan(settings=phase_grid(6),
                                           acquisition_s_per_point=0.01))
report = run_scenario(scenario)
assert report.estimate is not None and not report.fit_degenerate
predict_rates(scenario.config)
assert cli.main(["budget", "--preset", "back-to-back"]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_fringe_fit_budget_and_cli_leave_scipy_unimported():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# foreign-function interfaces no module may import (module docstring)
FOREIGN = {"ctypes", "cffi"}


def _imports():
    """Top-level names of every module the package imports, inside
    functions too."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            names.update(tops)
    return names


def test_imports_match_declared_dependencies():
    imported = _imports()
    assert not imported & FOREIGN
    tomllib = pytest.importorskip("tomllib")
    if not PYPROJECT.is_file():
        pytest.skip("fransonsim is not imported from a source checkout")
    with open(PYPROJECT, "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", d).group(0) for d in declared}
    assert names == {"numpy"}
    assert {n for n in imported if n not in sys.stdlib_module_names
            and n != "fransonsim"} == names

"""Every function defined in the package has a consumer on the CLI path.

A fresh interpreter installs a profiler before importing the package,
then runs `validate` on an empty config, all ten scenarios at seed 0, and
one small Monte Carlo propagation checked against its analytic phase
variance.  Any function or method in ``src/entangle_sense`` that none of
these calls reaches fails the test, unless it is allowlisted below.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "entangle_sense"

# reached only from the tests, each on purpose
ALLOWED = {
    "analysis.check_jacobian": "acceptance criterion 11 checks the analytic Jacobians with it",
    "dynamics.propagate": "noise-free reference that monte_carlo_propagate must reproduce",
}

DRIVER = """
import json
import sys
import tempfile
from pathlib import Path

reached = set()


def profile(frame, event, arg):
    if event == "call":
        reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


src, report = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)
sys.setprofile(profile)
from entangle_sense import cli, dynamics, spinsys
from entangle_sense.config import SCENARIOS

with tempfile.TemporaryDirectory() as tmp:
    config = Path(tmp) / "empty.json"
    config.write_text("{}")
    assert cli.main(["validate", str(config)]) == 0
    for fig in SCENARIOS:
        assert cli.main(["run", "--scenario", fig, "--seed", "0", "--out", tmp, "--quiet"]) == 0
pair = spinsys.layout("NV", "Xe")
bell = spinsys.pure_state(pair, [1.0, 0.0, 0.0, 1.0])
ham = dynamics.HamiltonianSpec(pair, coupling_hz=58.0e3)
noise = dynamics.OUNoiseModel(2.0e-3, 5.0e-6, trajectories=2)
out = dynamics.monte_carlo_propagate(bell, ham, 20.0e-6, noise, seed=0)
variance = dynamics.ou_phase_variance(noise, 20.0e-6)
sys.setprofile(None)
assert 0.0 < abs(out.matrix[0, 3]) <= 0.5 and variance > 0.0
Path(report).write_text(json.dumps(sorted(reached)))
"""


def _definitions(node, prefix, path):
    """(qualified name, (file, first line)) of every def under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
            # a decorated function's code starts at its first decorator
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield name, (path, first)
            yield from _definitions(child, name, path)
        elif isinstance(child, ast.ClassDef):
            yield from _definitions(child, f"{prefix}.{child.name}", path)
        else:
            yield from _definitions(child, prefix, path)


def test_every_definition_is_reached_from_the_cli(tmp_path):
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined.update(_definitions(tree, path.stem, os.path.realpath(path)))
    report = tmp_path / "reached.json"
    subprocess.run(
        [sys.executable, "-c", DRIVER, str(SRC), str(report)],
        check=True,
        stdout=subprocess.DEVNULL,
        cwd=tmp_path,
    )
    reached = {(os.path.realpath(f), line) for f, line in json.loads(report.read_text())}
    unreached = {name for name, where in defined.items() if where not in reached}
    assert not unreached - set(ALLOWED), f"no CLI consumer: {sorted(unreached - set(ALLOWED))}"
    assert set(ALLOWED) <= unreached, f"allowlisted but reached: {sorted(set(ALLOWED) - unreached)}"

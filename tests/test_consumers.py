"""Every function and every defaulted parameter has a consumer on the CLI path.

A fresh interpreter installs a profiler before importing the package,
then runs `validate` on an empty config, all ten scenarios at seed 0, and
one small Monte Carlo propagation checked against its analytic phase
variance.  Any function or method in ``src/entangle_sense`` that none of
these calls reaches fails the test, and so does any parameter with a
default that no call binds to a different value, unless it is
allowlisted below.
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

# defaults that no call on the path overrides, each on purpose
ALLOWED_DEFAULTS = {
    "config.resolve.trajectories": "no CLI flag sets it; the acceptance tests pass shot counts through it",
}

DRIVER = """
import inspect
import json
import numbers
import sys
import tempfile
from pathlib import Path

src, report = sys.argv[1], sys.argv[2]
package = str(Path(src).resolve() / "entangle_sense")
reached = set()
moved = set()  # (file, first line, parameter) bound to a non-default value
defaults = {}  # code object -> {parameter: default}


def resolve_defaults(frame):
    # the called function is a global of its module, a wrapper of one, or
    # a method of a class there; a nested function resolves to {} and its
    # defaulted parameters are reported as never moved
    for obj in list(frame.f_globals.values()):
        members = list(vars(obj).values()) if isinstance(obj, type) else [obj]
        for func in members:
            func = getattr(func, "__func__", func)
            while hasattr(func, "__wrapped__"):
                func = func.__wrapped__
            if getattr(func, "__code__", None) is frame.f_code:
                return {
                    name: p.default
                    for name, p in inspect.signature(func).parameters.items()
                    if p.default is not p.empty
                }
    return {}


def same(value, default):
    if value is default:
        return True
    return isinstance(value, (numbers.Number, str)) and value == default


def profile(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    reached.add((code.co_filename, code.co_firstlineno))
    if not code.co_filename.startswith(package):
        return
    if code not in defaults:
        defaults[code] = resolve_defaults(frame)
    if defaults[code]:
        args = frame.f_locals
        for name, default in defaults[code].items():
            if not same(args[name], default):
                moved.add((code.co_filename, code.co_firstlineno, name))


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
ham = dynamics.HamiltonianSpec(layout=pair, coupling_hz=58.0e3)
noise = dynamics.OUNoiseModel(2.0e-3, 5.0e-6, trajectories=2)
out = dynamics.monte_carlo_propagate(bell, ham, 20.0e-6, noise, seed=0)
variance = dynamics.ou_phase_variance(noise, 20.0e-6)
sys.setprofile(None)
assert 0.0 < abs(out.matrix[0, 3]) <= 0.5 and variance > 0.0
Path(report).write_text(json.dumps({"reached": sorted(reached), "moved": sorted(moved)}))
"""


def _definitions(node, prefix, path):
    """(qualified name, (file, first line), defaulted parameters) of every def under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
            # a decorated function's code starts at its first decorator
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            positional = child.args.posonlyargs + child.args.args
            defaulted = [a.arg for a in positional[len(positional) - len(child.args.defaults):]]
            defaulted += [a.arg for a, d in zip(child.args.kwonlyargs, child.args.kw_defaults) if d]
            yield name, (path, first), defaulted
            yield from _definitions(child, name, path)
        elif isinstance(child, ast.ClassDef):
            yield from _definitions(child, f"{prefix}.{child.name}", path)
        else:
            yield from _definitions(child, prefix, path)


def test_every_definition_is_reached_from_the_cli(tmp_path):
    defined = {}
    defaulted = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for name, where, params in _definitions(tree, path.stem, os.path.realpath(path)):
            defined[name] = where
            defaulted.update({f"{name}.{p}": (*where, p) for p in params})
    report = tmp_path / "reached.json"
    subprocess.run(
        [sys.executable, "-c", DRIVER, str(SRC), str(report)],
        check=True,
        stdout=subprocess.DEVNULL,
        cwd=tmp_path,
    )
    run = json.loads(report.read_text())
    reached = {(os.path.realpath(f), line) for f, line in run["reached"]}
    unreached = {name for name, where in defined.items() if where not in reached}
    assert not unreached - set(ALLOWED), f"no CLI consumer: {sorted(unreached - set(ALLOWED))}"
    assert set(ALLOWED) <= unreached, f"allowlisted but reached: {sorted(set(ALLOWED) - unreached)}"
    moved = {(os.path.realpath(f), line, p) for f, line, p in run["moved"]}
    stuck = {name for name, where in defaulted.items() if where not in moved}
    assert not stuck - set(ALLOWED_DEFAULTS), (
        f"defaults no CLI call overrides: {sorted(stuck - set(ALLOWED_DEFAULTS))}"
    )
    assert set(ALLOWED_DEFAULTS) <= stuck, f"allowlisted but overridden: {sorted(set(ALLOWED_DEFAULTS) - stuck)}"

"""The package surface: lazy public names, the modules each entry point loads, pickles."""

import ast
import glob
import importlib
import importlib.util
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import oqwalk
from oqwalk import _trajectory as tr
from oqwalk import thermalization as th
from oqwalk.linear import LinearWalkSpec

SRC = os.path.dirname(os.path.dirname(oqwalk.__file__))

# what every CLI run loads: the harness, its number formatter and the chain's series
CLI = {"oqwalk", "oqwalk.cli", "oqwalk._numtext", "oqwalk._trajectory", "oqwalk.equilibrium",
       "oqwalk.linear"}


def _loaded(code, tmp_path):
    """The oqwalk modules in sys.modules after `code` runs in a fresh interpreter."""
    script = (code + "\nimport sys\nprint(' '.join(name for name in sys.modules "
                     "if name.split('.')[0] == 'oqwalk'), file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stderr.splitlines()[-1].split())


def _main(argv):
    return f"from oqwalk.cli import main\nassert main({argv + ['--out', 'out.csv']!r}) == 0"


@pytest.mark.parametrize("code, expected", [
    ("import oqwalk", {"oqwalk"}),
    ("import oqwalk.cli", CLI),
    # the benchmark worker's imports, all of its set-up time
    ("import oqwalk\nfrom oqwalk import channel, cli, linear", CLI | {"oqwalk.channel"}),
    (_main(["equilibrium", "--n-nodes", "10", "--omega", "0.3:0.7:0.1"]), CLI),
    (_main(["trajectory", "--n-nodes", "10", "--omega", "0.7", "--steps", "20",
            "--dump-distributions", "dump.csv"]), CLI),
    (_main(["steady-state", "--n-nodes", "10", "--omega", "0.3:0.7:0.1"]), CLI),
    (_main(["window", "--n-nodes", "10", "--omega", "0.7"]), CLI | {"oqwalk.thermalization"}),
    ("import oqwalk.linear as lin\nlin.build_channel(lin.LinearWalkSpec(5, 0.7))",
     {"oqwalk", "oqwalk.linear", "oqwalk.equilibrium", "oqwalk.channel"}),
], ids=["package", "cli", "bench-worker", "equilibrium", "trajectory", "steady-state", "window",
        "build_channel"])
def test_entry_points_load_only_what_they_run(code, expected, tmp_path):
    assert _loaded(code, tmp_path) == expected


@pytest.mark.parametrize("how", ["attribute", "from-import"])
@pytest.mark.parametrize("name", oqwalk.__all__)
def test_public_name_resolves_on_access_to_its_defining_object(name, how, monkeypatch):
    monkeypatch.delitem(vars(oqwalk), name, raising=False)  # resolve through the hook again
    if how == "attribute":
        value = getattr(oqwalk, name)
    else:
        value = {}
        exec(f"from oqwalk import {name} as value", value)
        value = value["value"]
    if isinstance(value, type(oqwalk)):
        assert value is sys.modules[f"oqwalk.{name}"]
    else:
        assert value.__module__.startswith("oqwalk.")
        assert getattr(importlib.import_module(value.__module__), name) is value
    assert vars(oqwalk)[name] is value  # cached: the next lookup is a plain global


def test_package_dir_and_unknown_names():
    assert set(oqwalk.__all__) <= set(dir(oqwalk))
    assert {"__version__", "__all__"} <= set(dir(oqwalk))
    with pytest.raises(AttributeError, match="^module 'oqwalk' has no attribute 'nope'$"):
        oqwalk.nope
    with pytest.raises(ImportError):
        exec("from oqwalk import nope", {})


MOVED = ["TrajectoryRecord", "_xlogx", "entropy_production", "iter_distributions",
         "shannon_entropy", "simulate_trajectory"]


@pytest.mark.parametrize("name", MOVED)
def test_thermalization_names_the_series_objects(name):
    assert getattr(th, name) is getattr(tr, name)


def _unread_private_imports(source):
    """The `_`-prefixed names that a relative from-import in `source` binds
    and the module never loads."""
    tree = ast.parse(source)
    bound = {alias.asname or alias.name
             for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
             for alias in node.names if alias.name.startswith("_")}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SRC, "oqwalk", "*.py"))),
                         ids=os.path.basename)
def test_no_module_binds_a_private_name_it_never_reads(path):
    # a private name has one home; a module that imports one must use it
    with open(path, encoding="utf-8") as f:
        assert _unread_private_imports(f.read()) == []


def test_the_private_import_guard_sees_only_unread_names():
    source = ("from ._a import _used, _unused, public\n"
              "from ._b import _x as _alias\n"
              "from os import _exit\n"        # absolute: not the package's own
              "print(_used)\n")
    assert _unread_private_imports(source) == ["_alias", "_unused"]


def test_thermalization_all_is_its_public_api():
    assert len(th.__all__) == 22
    for name in th.__all__:
        assert getattr(th, name).__module__ in ("oqwalk.thermalization", "oqwalk._trajectory")


@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_trajectory_record_pickles_under_either_module_name(protocol, monkeypatch):
    record = th.simulate_trajectory(LinearWalkSpec(12, 0.7), 40, keep_distributions=True)
    fields = ["entropy", "energy", "temperature_estimate", "entropy_generated",
              "final_distribution", "distributions"]

    def check(data):
        back = pickle.loads(data)
        assert type(back) is tr.TrajectoryRecord
        assert back.spec == record.spec
        for f in fields:
            assert np.array_equal(getattr(back, f), getattr(record, f), equal_nan=True), f
        for f in ["equilibrium_temperature", "mass_drift", "min_entropy_production_step",
                  "final_l1_to_steady"]:
            assert getattr(back, f) == getattr(record, f), f

    data = pickle.dumps(record, protocol=protocol)
    assert b"oqwalk._trajectory" in data
    check(data)
    # a pickle written before the series had its own module names the class there
    monkeypatch.setattr(tr.TrajectoryRecord, "__module__", "oqwalk.thermalization")
    old = pickle.dumps(record, protocol=protocol)
    monkeypatch.undo()
    assert b"oqwalk.thermalization" in old and b"oqwalk._trajectory" not in old
    check(old)


def test_every_name_the_benchmark_tracer_wraps_exists():
    # bench/spans.py patches these (module, attribute) pairs by name before a traced run
    path = os.path.join(os.path.dirname(SRC), "bench", "spans.py")
    if not os.path.exists(path):
        pytest.skip("no bench/ beside src/")
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr in spans.TRACED:
        assert callable(getattr(importlib.import_module(f"oqwalk.{module}"), attr)), (module, attr)

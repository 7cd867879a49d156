"""The benchmark's hooks into the library, exercised without running it.

``bench/tracing.py`` wraps library functions by name and ``bench/workloads.py``
calls others directly, so a renamed or deleted name breaks the benchmark
only when it runs.  These tests load both files by path, read-only, and
reach every name they use.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_install_wraps_and_uninstall_restores():
    tracing = _load("tracing")
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
    finally:
        # the first patch of an attribute holds its value before install
        originals = {}
        for owner, attr, value in tracer._patches:
            originals.setdefault((id(owner), attr), (owner, attr, value))
        tracer.uninstall()
    assert originals
    for owner, attr, value in originals.values():
        assert getattr(owner, attr) is value, (owner, attr)


@pytest.mark.parametrize("workload", ["Staircase", "Spectral"])
def test_workload_warm_up_runs(workload):
    workloads = _load("workloads")
    getattr(workloads, workload)(0).warm_up()

"""The benchmark's workloads run and pass every check.

Each workload of ``perfbench/workloads.py`` runs once at seed 1, as one
benchmark pass runs it, so a change that breaks a call the benchmark makes
(a deleted function, a renamed keyword) fails here, before the benchmark.
"""

import importlib.util
import pathlib

import pytest

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" \
    / "workloads.py"
CHECKS = {"cli_readme": 16, "walk_mc": 16, "susy": 26}  # 58 in all


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", CHECKS)
def test_workload_passes_every_check(workloads, name):
    checks = workloads[name](1, {})
    failed = [(check, detail) for check, ok, detail in checks if not ok]
    assert len(checks) == CHECKS[name] and not failed, failed

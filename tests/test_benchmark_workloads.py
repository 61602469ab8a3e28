"""The library names that perfbench/workloads.py calls still exist and answer.

The benchmark imports the package by name, outside the tests, so a
renamed function would first show as a refused benchmark run.  Round 0 of
each workload is walked here, and the first operation of each kind is
called and checked as the generator yields it: the hole workload's
closures read state that later operations change.
"""

import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import workloads

        yield workloads


@pytest.mark.parametrize("workload", ["decompose", "queries", "hole"])
def test_first_operation_of_each_kind_passes_its_check(workloads, workload):
    seen = set()
    for name, call, check in workloads.WORKLOADS[workload](seed=0, r=0):
        kind = re.sub(r" [\dx/]+$", "", name)  # "symmetrise 2x2", "gpc orbit 3/17"
        if kind not in seen:
            seen.add(kind)
            assert check(call()) == [], name
    assert seen

"""The workload generator is deterministic per seed and keeps each pass's shape."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import pytest  # noqa: E402

import workloads  # noqa: E402


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    workloads.generate(workload, 7).write(tmp_path / "a")
    workloads.generate(workload, 7).write(tmp_path / "b")
    workloads.generate(workload, 8).write(tmp_path / "c")
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pass_shape_does_not_depend_on_seed(workload):
    def shape(seed):
        plan = workloads.generate(workload, seed)
        return sorted(j.label for j in plan.jobs), sorted(j.label for j in plan.warmup)

    assert shape(1) == shape(2) == shape(12345)

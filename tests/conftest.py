"""Shared builders for the test suite."""

import os
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from qsilab.instances import QsiInstance, build_instance


@pytest.fixture(autouse=True, scope="session")
def _subprocesses_import_src():
    """CLI subprocesses import the same source tree as the tests, also in a bare
    `python -m pytest` where only pyproject's pythonpath puts src on sys.path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", str(Path(__file__).resolve().parents[1] / "src"),
                     prepend=os.pathsep)
        yield


def count_label_rows(monkeypatch) -> list[int]:
    """Patch ``QsiInstance.labels`` to note the n of each instance whose label
    row it computes; reads of a cached row are not noted."""
    calls: list[int] = []
    compute = QsiInstance.labels.func

    def counted(inst):
        calls.append(inst.n)
        return compute(inst)

    labels = cached_property(counted)
    labels.__set_name__(QsiInstance, "labels")
    monkeypatch.setattr(QsiInstance, "labels", labels)
    return calls


def two_block(n: int, l: int, dim: int = 2, rotation=None):
    """Canonical two-block instance: first l indices equal, rest orthogonal."""
    return build_instance([0] * l + [1] * (n - l), dim, rotation)


def yes_instance(n: int, dim: int = 2):
    return build_instance([0] * n, dim)


def all_orthogonal(n: int):
    return build_instance(list(range(n)), dim=n)


def basis_state(dim: int, index: int) -> np.ndarray:
    """Computational basis vector e_index."""
    return np.eye(dim, dtype=complex)[index]


def unit(amps) -> np.ndarray:
    """The vector scaled to unit norm."""
    arr = np.asarray(amps, dtype=complex)
    return arr / np.linalg.norm(arr)


def random_psd_density(dim: int, rng: np.random.Generator):
    """Random density matrix from a Gaussian square root."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T
    from oracles import DensityMatrix

    return DensityMatrix(m / np.trace(m).real)

"""Shared graph fixtures.

All five tailed graphs used by the acceptance suite, plus a couple of
shapes the suite does not cover (multiple tails on one vertex, a graph
with no tails at all).  Session-scoped because TailedGraph is immutable.
"""

import contextlib
import functools
import hashlib

import numpy as np
import pytest

from tailwalk import acceptance, cli, internal_spectral, perturbation
from tailwalk import attach_tails, build_E, preset_graph
from tailwalk.smt_laplacian import LaplacianT
from tailwalk.tailed_graph import TailSpec


@pytest.fixture(scope="session")
def c4a():
    return attach_tails(preset_graph("cycle:4"), (0, 1, 2))


@pytest.fixture(scope="session")
def c4b():
    return attach_tails(preset_graph("cycle:4"), (0, 1, 3))


@pytest.fixture(scope="session")
def c4_full():
    return attach_tails(preset_graph("cycle:4"), (0, 1, 2, 3))


@pytest.fixture(scope="session")
def k4a():
    return attach_tails(preset_graph("complete:4"), (0, 1, 2))


@pytest.fixture(scope="session")
def k4_full():
    return attach_tails(preset_graph("complete:4"), (0, 1, 2, 3))


@pytest.fixture(scope="session")
def k4_multi():
    # two tails on vertex 0, one on vertex 1
    return attach_tails(preset_graph("complete:4"), (TailSpec(0, 2), 1))


@pytest.fixture(scope="session")
def c4_bare():
    return attach_tails(preset_graph("cycle:4"), ())


@pytest.fixture(scope="session")
def suite_graphs(c4a, c4b, c4_full, k4a, k4_full):
    return {
        "c4-3tails-a": c4a,
        "c4-3tails-b": c4b,
        "c4-4tails": c4_full,
        "k4-3tails": k4a,
        "k4-4tails": k4_full,
    }


@pytest.fixture(scope="session")
def im_c4a(c4a):
    return build_E(c4a)


@pytest.fixture(scope="session")
def im_k4a(k4a):
    return build_E(k4a)


def _matrix_key(E):
    """(hash of a matrix, its size): equal for equal matrices."""
    E = np.ascontiguousarray(E, dtype=complex)
    return hashlib.blake2b(repr(E.shape).encode() + E.tobytes()).hexdigest(), E.shape[0]


@pytest.fixture(scope="session")
def count_factorisations():
    """Context manager recording every ``spectral_decompose`` and
    ``np.linalg.eig`` call made inside it as (hash of the input, its size)."""

    @contextlib.contextmanager
    def counting():
        seen = {"decompose": [], "eig": []}
        real_sd, real_eig = internal_spectral.spectral_decompose, np.linalg.eig

        def decompose(E, *args, **kwargs):
            seen["decompose"].append(_matrix_key(E))
            return real_sd(E, *args, **kwargs)

        def eig(a):
            seen["eig"].append(_matrix_key(a))
            return real_eig(a)

        with pytest.MonkeyPatch.context() as mp:
            for mod in (internal_spectral, perturbation, acceptance, cli):
                mp.setattr(mod, "spectral_decompose", decompose)
            mp.setattr(np.linalg, "eig", eig)
            yield seen

    return counting


@pytest.fixture(scope="session")
def count_t_diagonalisations():
    """Context manager recording every diagonalisation of a graph's T made
    inside it (``LaplacianT.spectrum``, T's one ``eigh``) as (hash of T,
    its size)."""

    @contextlib.contextmanager
    def counting():
        seen = []
        real_spectrum = LaplacianT.spectrum.func

        def spectrum(lt):
            seen.append(_matrix_key(lt.T))
            return real_spectrum(lt)

        counted = functools.cached_property(spectrum)
        counted.__set_name__(LaplacianT, "spectrum")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(LaplacianT, "spectrum", counted)
            yield seen

    return counting

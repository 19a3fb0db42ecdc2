"""Unit tests for column norms and pre-pivot permutations."""

import numpy as np
import pytest

from repro.linalg import (
    column_norms,
    prepivot_permutation,
)


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestColumnNorms:
    def test_matches_numpy(self, rng):
        a = rng.normal(size=(40, 23))
        np.testing.assert_allclose(
            column_norms(a), np.linalg.norm(a, axis=0), rtol=1e-13
        )

    def test_rejects_vector(self):
        with pytest.raises(ValueError):
            column_norms(np.ones(5))

    def test_zero_columns(self):
        a = np.zeros((5, 3))
        np.testing.assert_array_equal(column_norms(a), np.zeros(3))

    def test_fortran_order_input(self, rng):
        a = np.asfortranarray(rng.normal(size=(20, 20)))
        np.testing.assert_allclose(
            column_norms(a), np.linalg.norm(a, axis=0), rtol=1e-13
        )


class TestPrepivot:
    def test_sorts_descending(self, rng):
        a = rng.normal(size=(10, 10)) * np.logspace(-5, 5, 10)[None, :]
        piv = prepivot_permutation(a)
        nrm = np.linalg.norm(a[:, piv], axis=0)
        assert np.all(np.diff(nrm) <= 1e-12)

    def test_already_graded_is_identity(self, rng):
        """The property the whole pre-pivoting idea rests on: a graded
        matrix needs no interchanges at all."""
        a = rng.normal(size=(12, 12)) * np.logspace(0, -11, 12)[None, :]
        assert np.array_equal(prepivot_permutation(a), np.arange(12))

    def test_stable_under_ties(self):
        a = np.eye(6)  # all columns have norm 1
        assert np.array_equal(prepivot_permutation(a), np.arange(6))

    def test_is_permutation(self, rng):
        a = rng.normal(size=(8, 15))
        piv = prepivot_permutation(a)
        assert np.array_equal(np.sort(piv), np.arange(15))


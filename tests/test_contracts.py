"""Tests for the runtime shape/dtype/finiteness contracts layer."""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import contracts
from repro.contracts import ContractViolation, contracts_enabled, shape_contract
from repro.core.wrapping import wrap_forward
from repro.linalg import qr_prepivoted

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def make_checked():
    @shape_contract("(n,n)", "(n,)", dtype=np.float64, finite=True)
    def solve_like(a: np.ndarray, b: np.ndarray, label: str = "x"):
        return a @ b

    return solve_like


class TestActiveContracts:
    """conftest.py exports REPRO_CONTRACTS=1, so contracts are live here."""

    def test_enabled_under_pytest(self):
        assert contracts_enabled()

    def test_passes_valid_input(self):
        f = make_checked()
        out = f(np.eye(3), np.ones(3))
        np.testing.assert_allclose(out, np.ones(3))

    def test_catches_wrong_ndim(self):
        f = make_checked()
        with pytest.raises(ContractViolation, match="expected 2-d"):
            f(np.ones(3), np.ones(3))

    def test_catches_symbol_mismatch_across_arguments(self):
        f = make_checked()
        with pytest.raises(ContractViolation, match="already bound"):
            f(np.eye(3), np.ones(4))

    def test_catches_nonsquare(self):
        f = make_checked()
        with pytest.raises(ContractViolation, match="already bound"):
            f(np.ones((3, 4)), np.ones(3))

    def test_catches_wrong_dtype(self):
        f = make_checked()
        with pytest.raises(ContractViolation, match="dtype"):
            f(np.eye(3, dtype=np.float32), np.ones(3))

    def test_catches_nan_and_inf(self):
        f = make_checked()
        a = np.eye(3)
        a[1, 1] = np.nan
        with pytest.raises(ContractViolation, match="non-finite"):
            f(a, np.ones(3))
        a[1, 1] = np.inf
        with pytest.raises(ContractViolation, match="non-finite"):
            f(a, np.ones(3))

    def test_fixed_integer_dims(self):
        @shape_contract("(2,n)")
        def two_rows(a: np.ndarray):
            return a.shape

        assert two_rows(np.ones((2, 5))) == (2, 5)
        with pytest.raises(ContractViolation, match="expected 2"):
            two_rows(np.ones((3, 5)))

    def test_where_mapping_names_parameters(self):
        @shape_contract(where={"b": "(n,)"})
        def f(a: np.ndarray, b: np.ndarray):
            return b

        f(np.ones((9, 9)), np.ones(4))  # a unconstrained
        with pytest.raises(ContractViolation):
            f(np.ones((9, 9)), np.ones((4, 4)))

    def test_non_ndarray_arguments_are_skipped(self):
        f = make_checked()
        # label is not an ndarray; lists are left to the function's own
        # coercion rather than rejected at the boundary.
        assert f(np.eye(2), np.ones(2), label="ok") is not None

    def test_too_many_specs_is_a_decoration_error(self):
        with pytest.raises(ValueError, match="shape spec"):

            @shape_contract("(n,n)", "(n,)")
            def only_one(a: np.ndarray):
                return a

    def test_malformed_spec_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            shape_contract("n,n")

    def test_wrapped_function_keeps_metadata(self):
        f = make_checked()
        assert f.__name__ == "solve_like"
        assert f.__contract__["finite"] is True


class TestDecoratedEntryPoints:
    """The hot paths in core/ and linalg/ really are under contract."""

    def test_wrap_forward_rejects_nan_greens(self, factory4x4, field4x4):
        g = np.full((16, 16), np.nan)
        with pytest.raises(ContractViolation, match="non-finite"):
            wrap_forward(factory4x4, field4x4, g, 0, 1)

    def test_wrap_forward_rejects_nonsquare(self, factory4x4, field4x4):
        with pytest.raises(ContractViolation, match="already bound"):
            wrap_forward(factory4x4, field4x4, np.ones((16, 4)), 0, 1)

    def test_wrap_forward_rejects_float32(self, factory4x4, field4x4):
        g = np.eye(16, dtype=np.float32)
        with pytest.raises(ContractViolation, match="dtype"):
            wrap_forward(factory4x4, field4x4, g, 0, 1)

    def test_qr_rejects_nan(self):
        a = np.eye(8)
        a[0, 0] = np.nan
        with pytest.raises(ContractViolation, match="non-finite"):
            qr_prepivoted(a)

    def test_decorated_functions_carry_contract_metadata(self):
        assert hasattr(wrap_forward, "__contract__")
        assert hasattr(qr_prepivoted, "__contract__")


class TestDisabledContracts:
    """REPRO_CONTRACTS unset -> the decorator is the identity function."""

    def test_decorator_returns_function_unchanged(self, monkeypatch):
        monkeypatch.delenv(contracts.ENV_VAR, raising=False)

        def raw(a: np.ndarray):
            return a

        wrapped = shape_contract("(n,n)", dtype=np.float64)(raw)
        assert wrapped is raw  # zero wrapper, therefore zero overhead

    def test_falsy_values_disable(self, monkeypatch):
        for value in ("0", "false", "off", "", "no"):
            monkeypatch.setenv(contracts.ENV_VAR, value)
            assert not contracts_enabled()
        monkeypatch.setenv(contracts.ENV_VAR, "1")
        assert contracts_enabled()

    def test_disabled_import_leaves_hot_paths_bare(self):
        """In a fresh interpreter without REPRO_CONTRACTS, the decorated
        entry points import as plain functions (no __wrapped__)."""
        code = (
            "import os; os.environ.pop('REPRO_CONTRACTS', None)\n"
            "from repro.core.wrapping import wrap_forward\n"
            "from repro.linalg import qr_prepivoted\n"
            "assert not hasattr(wrap_forward, '__wrapped__')\n"
            "assert not hasattr(qr_prepivoted, '__wrapped__')\n"
            "print('BARE')\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
        )
        assert out.returncode == 0, out.stderr
        assert "BARE" in out.stdout


class TestOverhead:
    def test_enabled_contract_overhead_is_small_at_n64(self):
        """A contracted wrap on N=64-scale matrices costs well under 1%
        of a stratified Green's evaluation at the same size."""
        from repro.core.wrapping import wrap_forward as contracted

        n = 64
        rng = np.random.default_rng(7)
        g = rng.standard_normal((n, n))

        # Cost of one contract validation (shape + dtype + isfinite).
        reps = 200
        t0 = time.perf_counter()
        for _ in range(reps):
            contracted.__contract__  # touch, keep loop honest
            np.all(np.isfinite(g))
        contract_cost = (time.perf_counter() - t0) / reps

        # Cost of one stratified-Green's-scale linear-algebra step.
        a = rng.standard_normal((n, n))
        t0 = time.perf_counter()
        for _ in range(20):
            np.linalg.qr(a)
        qr_cost = (time.perf_counter() - t0) / 20

        assert contract_cost < 0.25 * qr_cost, (
            f"contract validation {contract_cost:.2e}s vs QR {qr_cost:.2e}s"
        )

"""Reference implementations the production paths are checked against.

Nothing under ``src/`` imports these; tests and the paper-figure
benches do (``from tests.oracles.displaced import displaced_greens``).
An oracle never calls the code it checks: ``displaced_series_fast``, for
one, builds its chains from fresh cluster products instead of reading
the engine's kept stacks.

* :mod:`.stratifier` - the ``"nopivot"``, ``"svd"`` and ``"jacobi"``
  chain steps, against which Algorithms 2 and 3 are ablated
  (``bench_ablation_pivoting.py``).
* :mod:`.jacobi` - the one-sided Jacobi SVD behind ``"jacobi"``.
* :mod:`.displaced` - ``G(tau, 0)`` per tau (Bai sum-inverse) and per
  cluster boundary (prefix/suffix series): what the engine's
  ``boundary_greens(..., displaced=True)`` hands the dynamic sample.
* :mod:`.ratio` - the jackknife sign-corrected ratio and split-R-hat,
  references for ``propagate_ratio_error`` and ``rhat_from_estimates``.
* :mod:`.ed` - continuum-time exact diagonalization of <= 4 sites.
* :mod:`.enumeration` - exact sums over every HS configuration of a
  tiny Trotterized system.
"""

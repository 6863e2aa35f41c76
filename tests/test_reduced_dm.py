"""``reduced_dm_check`` against the density-matrix route it replaced.

The check reads every marginal off the k code vectors; the oracle
(``helpers.dense_reduced_dm_check``) forms each n x n density matrix and
takes two ``partial_trace``s of it per qubit subset.
"""

import pytest

from qeckit import builtin_code, random_code, reduced_dm_check
from qeckit import codes, linalg

from helpers import dense_reduced_dm_check

TIE = 1e-12


def _tied(values):
    """Whether two locations reach the maximum within ``TIE``, so the witness may differ by rounding."""
    top = max(values, default=0.0)
    return sum(v >= top - TIE for v in values) > 1


def _assert_matches_oracle(code, e):
    report, (oracle, rows) = reduced_dm_check(code, e), dense_reduced_dm_check(code, e)
    assert report.max_marginal_mismatch == pytest.approx(oracle.max_marginal_mismatch, abs=TIE)
    assert report.max_support_overlap == pytest.approx(oracle.max_support_overlap, abs=TIE)
    assert report.passed == oracle.passed
    assert report.tol == oracle.tol
    if not _tied([row[2] for row in rows]) and not _tied([row[3] for row in rows]):
        assert (report.witness_subset, report.witness_pair) == (oracle.witness_subset, oracle.witness_pair)


@pytest.mark.parametrize("r", range(2, 9))
def test_random_codes_match_the_density_matrix_route(r):
    for k in range(1, min(4, 2**r) + 1):
        for e in range(r // 2 + 1):
            for seed in (0, 1):
                _assert_matches_oracle(random_code(2**r, k, seed, shape=(2,) * r), e)


@pytest.mark.parametrize("name", ["phase3", "phase5", "phase7"])
def test_phase_codes_match_the_density_matrix_route(name):
    code = builtin_code(name)
    for e in range(len(code.shape) // 2 + 1):
        _assert_matches_oracle(code, e)


def test_the_check_forms_no_density_matrix_and_no_partial_trace(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a density matrix or a partial trace was formed")

    assert not hasattr(codes, "partial_trace") and not hasattr(codes, "DensityMatrix")
    assert not hasattr(linalg, "partial_trace") and not hasattr(linalg.PureState, "density")
    monkeypatch.setattr(linalg.DensityMatrix, "__post_init__", refused)
    report = reduced_dm_check(random_code(64, 3, 2, shape=(2,) * 6), 1)
    assert not report.passed and report.witness_pair is not None

import numpy as np
import pytest
import scipy.linalg as sla

from qdeco import _lapack


def symmetric(n, seed):
    x = np.random.default_rng(seed).standard_normal((n, n))
    return (x + x.T) / 2


def hermitian(n, seed):
    g = np.random.default_rng(seed)
    x = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
    return (x + x.conj().T) / 2


@pytest.mark.parametrize("n", [7, 512, 1024])
def test_real_eigenpairs_equal_numpy_bit_for_bit(n):
    # 7 rows take LAPACK's QL/QR route inside dsyevd, 512 and 1024 divide
    # and conquer: both are the dsyevd call numpy makes on its own copy
    a = symmetric(n, n)
    energies, q = np.linalg.eigh(a)
    work = a.copy()
    got_energies, got_q = _lapack.eigh(work)
    assert np.array_equal(got_energies, energies)
    assert np.array_equal(got_q, q) and got_q.flags.c_contiguous
    assert got_q is work  # the eigenvectors overwrote it
    assert np.array_equal(_lapack.eigvalsh(a.copy()), np.linalg.eigvalsh(a))


@pytest.mark.parametrize("n", [7, 200])
def test_complex_eigenpairs_equal_scipy_bit_for_bit(n):
    # the same zheevr and zheevd calls scipy makes on its Fortran copy
    h = hermitian(n, n)
    energies, q = sla.eigh(h, driver="evr")
    got_energies, got_q = _lapack.eigh(h.copy())
    assert np.array_equal(got_energies, energies)
    assert np.array_equal(got_q, q)
    assert np.array_equal(_lapack.eigvalsh(h.copy()),
                          sla.eigvalsh(h, driver="evd"))


@pytest.mark.parametrize("matrix", [symmetric(6, 1), hermitian(6, 2)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_is_refused(matrix, bad):
    for solve in (_lapack.eigh, _lapack.eigvalsh):
        a = matrix.copy()
        a[2, 4] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve(a)


@pytest.mark.parametrize("matrix", [symmetric(40, 3), hermitian(40, 4)])
def test_input_matrix_is_overwritten(matrix):
    for solve in (_lapack.eigh, _lapack.eigvalsh):
        a = matrix.copy()
        solve(a)
        assert not np.array_equal(a, matrix)


def test_refuses_what_lapack_cannot_take_in_place():
    for a in (np.eye(4)[:, :3], np.asfortranarray(symmetric(4, 5))[:, ::2],
              np.eye(4, dtype=np.float32), np.eye(4).T[::-1]):
        with pytest.raises(ValueError, match="C-ordered square"):
            _lapack.eigh(a)

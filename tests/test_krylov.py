import numpy as np
import pytest

from helmsweep.krylov import DIVERGENCE_RATIO, gmres_right, richardson
from conftest import blas_threads


def dense_problem(rng, n=20):
    a = np.eye(n) + 0.3 * (rng.standard_normal((n, n))
                           + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return a, b


def test_dense_oracle(rng):
    a, b = dense_problem(rng)
    rep = gmres_right(lambda v: a @ v, b, tol=1e-12, maxit=50)
    assert rep.converged
    assert rep.iterations <= 20
    err = np.linalg.norm(a @ rep.solution - b) / np.linalg.norm(b)
    assert err <= 1e-10


def test_history_monotone_and_normalized(rng):
    a, b = dense_problem(rng)
    rep = gmres_right(lambda v: a @ v, b, tol=1e-12, maxit=50)
    assert rep.history[0] == 1.0
    diffs = np.diff(rep.history)
    assert np.all(diffs <= 1e-14)
    assert rep.history[-1] <= 1e-12


def test_orthonormal_basis(rng):
    a, b = dense_problem(rng)
    rep = gmres_right(lambda v: a @ v, b, tol=1e-12, maxit=50)
    assert rep.ortho_defect <= 1e-8


def test_identity_operator_one_step(rng):
    n = 15
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    rep = gmres_right(lambda v: v, b, tol=1e-10, maxit=10)
    assert rep.converged
    assert rep.iterations == 1
    assert np.allclose(rep.solution, b)


def test_zero_rhs(rng):
    rep = gmres_right(lambda v: 2.0 * v, np.zeros(8, dtype=np.complex128))
    assert rep.converged
    assert rep.iterations == 0
    assert np.max(np.abs(rep.solution)) == 0.0


def test_loose_tolerance_returns_zero_iterations(rng):
    a, b = dense_problem(rng)
    rep = gmres_right(lambda v: a @ v, b, tol=1.0, maxit=50)
    assert rep.converged
    assert rep.iterations == 0
    assert rep.history == [1.0]


def test_identity_preconditioner_changes_nothing(rng):
    a, b = dense_problem(rng)
    plain = gmres_right(lambda v: a @ v, b, tol=1e-10, maxit=50)
    prec = gmres_right(lambda v: a @ v, b, apply_precond=lambda v: v.copy(),
                       tol=1e-10, maxit=50)
    assert plain.iterations == prec.iterations
    assert np.allclose(plain.history, prec.history, rtol=0.0, atol=0.0)
    assert np.allclose(plain.solution, prec.solution)


def test_right_preconditioning_semantics(rng):
    a, b = dense_problem(rng)
    d = 1.0 + np.arange(len(b)) / len(b)
    minv = lambda v: v / d
    rep = gmres_right(lambda v: a @ v, b, apply_precond=minv, tol=1e-11, maxit=50)
    assert rep.converged
    # stopping is on the true residual of the returned (unpreconditioned) x
    err = np.linalg.norm(a @ rep.solution - b) / np.linalg.norm(b)
    assert err <= 1e-11
    assert err == pytest.approx(rep.history[-1], rel=1e-6, abs=1e-15)


def test_maxit_reported_not_converged(rng):
    a, b = dense_problem(rng)
    rep = gmres_right(lambda v: a @ v, b, tol=1e-14, maxit=3)
    assert not rep.converged
    assert rep.iterations == 3
    assert len(rep.history) == 4


def test_happy_breakdown(rng):
    b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    rep = gmres_right(lambda v: 3.0 * v, b, tol=1e-30, maxit=10)
    # Krylov space closes after one vector; treated as convergence
    assert rep.converged
    assert rep.iterations == 1
    assert np.allclose(rep.solution, b / 3.0)


def test_rotation_of_a_zero_diagonal_entry():
    # A e1 = e2, so the first Hessenberg column is (0, 1): its rotation
    # swaps the two rows, step 1 reduces nothing and step 2 is exact
    a = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    b = np.array([1, 0], dtype=np.complex128)
    rep = gmres_right(lambda v: a @ v, b, tol=1e-12, maxit=5)
    assert rep.converged and rep.iterations == 2
    assert rep.history[:2] == [1.0, 1.0] and rep.history[2] <= 1e-15
    assert np.allclose(rep.solution, [0, 1], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("a, b, residual", [
    # op(b) = 0: the Krylov space closes at once and nothing reduces the residual
    ([[0, 1, 0], [0, 0, 0], [0, 0, 1]], [1, 0, 0], 1.0),
    # it closes at the second step, on the part of b the operator cannot reach
    ([[0, 1, 0], [0, 0, 0], [0, 0, 1]], [1, 0, 1], np.sqrt(0.5)),
], ids=["closes-at-once", "closes-at-step-2"])
def test_singular_breakdown_is_not_convergence(a, b, residual):
    a = np.array(a, dtype=np.complex128)
    b = np.array(b, dtype=np.complex128)
    rep = gmres_right(lambda v: a @ v, b, tol=1e-6, maxit=10)
    assert not rep.converged
    assert np.all(np.isfinite(rep.solution))
    assert rep.history[-1] == pytest.approx(residual, rel=1e-14)
    assert rep.history[-1] == rep.history[-2]
    err = np.linalg.norm(b - a @ rep.solution) / np.linalg.norm(b)
    assert err == pytest.approx(residual, rel=1e-14)


def test_wall_time_recorded(rng):
    a, b = dense_problem(rng)
    rep = gmres_right(lambda v: a @ v, b, tol=1e-8, maxit=50)
    assert rep.wall_time >= 0.0


def test_non_finite_vectors_raise_naming_the_iteration(rng):
    a, b = dense_problem(rng)
    calls = []

    def poisoned(v):
        calls.append(1)
        out = a @ v
        if len(calls) == 3:
            out[0] = np.nan
        return out

    with pytest.raises(FloatingPointError, match="operator at iteration 3"):
        gmres_right(poisoned, b, tol=1e-14, maxit=50)
    with pytest.raises(FloatingPointError, match="preconditioner at iteration 1"):
        gmres_right(lambda v: a @ v, b, apply_precond=lambda v: np.full_like(v, np.inf),
                    tol=1e-14, maxit=50)


@pytest.mark.parametrize("tol, maxit", [(1e-11, 50), (1e-14, 4)],
                         ids=["converged", "maxit"])
def test_preconditioner_runs_once_per_iteration(rng, tol, maxit):
    # the solution is the combination of the stored M v_j: no closing M
    a, b = dense_problem(rng)
    d = 1.0 + np.arange(len(b)) / len(b)
    calls = []

    def minv(v):
        calls.append(1)
        return v / d

    rep = gmres_right(lambda v: a @ v, b, apply_precond=minv, tol=tol, maxit=maxit)
    assert len(calls) == rep.iterations
    assert np.linalg.norm(b - a @ rep.solution) / np.linalg.norm(b) == pytest.approx(
        rep.history[-1], rel=1e-6, abs=1e-15)


def test_richardson_exact_inverse_is_one_step(rng):
    a, b = dense_problem(rng)
    ainv = np.linalg.inv(a)
    rep = richardson(lambda v: a @ v, b, apply_precond=lambda v: ainv @ v,
                     tol=1e-12, maxit=10)
    assert rep.converged
    assert rep.iterations == 1
    assert rep.history[0] == 1.0 and rep.history[1] <= 1e-13
    assert np.allclose(rep.solution, np.linalg.solve(a, b), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("preconditioned", [False, True], ids=["plain", "diagonal"])
def test_richardson_history_is_residual_of_each_iterate(rng, preconditioned):
    a, b = dense_problem(rng)
    d = 1.0 + np.arange(len(b)) / len(b)
    iterates = []

    def op(v):
        iterates.append(v.copy())
        return a @ v

    rep = richardson(op, b, apply_precond=(lambda v: v / d) if preconditioned else None,
                     tol=1e-10, maxit=200)
    assert rep.converged
    assert len(rep.history) == len(iterates) + 1 == rep.iterations + 1
    expect = [1.0] + [np.linalg.norm(b - a @ x) / np.linalg.norm(b) for x in iterates]
    assert rep.history == pytest.approx(expect, rel=1e-14, abs=0.0)
    assert np.array_equal(rep.solution, iterates[-1])
    # x_{j+1} = x_j + M(b - A x_j), from x_0 = 0
    m = (lambda v: v / d) if preconditioned else (lambda v: v)
    x = np.zeros_like(b)
    for got in iterates[:3]:
        x = x + m(b - a @ x)
        assert np.allclose(got, x, rtol=1e-13, atol=0.0)


def test_richardson_zero_rhs():
    calls = []
    rep = richardson(lambda v: calls.append(1) or 2.0 * v, np.zeros(8, dtype=np.complex128))
    assert rep.converged
    assert rep.iterations == 0 and rep.history == [0.0]
    assert np.max(np.abs(rep.solution)) == 0.0
    assert calls == []


def test_richardson_maxit_reported_not_converged(rng):
    a, b = dense_problem(rng)
    rep = richardson(lambda v: a @ v, b, tol=1e-14, maxit=3)
    assert not rep.converged
    assert rep.iterations == 3
    assert len(rep.history) == 4
    assert rep.history[-1] > 1e-14


def test_richardson_stops_once_it_diverges(rng):
    # op = Id - T with T 1.5 times a unitary matrix: x <- x + (b - op(x))
    # leaves the residual T^j b, 1.5^j ||b||, so it passes the ratio at j = 35
    n = 12
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    a = np.eye(n) - 1.5 * q
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    iterates = []

    def op(v):
        iterates.append(v.copy())
        return a @ v

    rep = richardson(op, b, tol=1e-8, maxit=400)
    assert (rep.stop, rep.converged, rep.iterations) == ("diverged", False, 35)
    assert rep.history[-2] <= DIVERGENCE_RATIO < rep.history[-1]
    expect = [1.0] + [np.linalg.norm(b - a @ x) / np.linalg.norm(b) for x in iterates]
    assert rep.history == pytest.approx(expect, rel=1e-12, abs=0.0)
    assert rep.history == pytest.approx(1.5 ** np.arange(36), rel=1e-10)
    assert np.array_equal(rep.solution, iterates[-1])


def test_richardson_non_finite_vectors_raise_naming_the_iteration(rng):
    a, b = dense_problem(rng)
    calls = []

    def poisoned(v):
        calls.append(1)
        out = a @ v
        if len(calls) == 3:
            out[0] = np.nan
        return out

    with pytest.raises(FloatingPointError, match="operator at iteration 3"):
        richardson(poisoned, b, tol=1e-14, maxit=50)
    with pytest.raises(FloatingPointError, match="preconditioner at iteration 1"):
        richardson(lambda v: a @ v, b, apply_precond=lambda v: np.full_like(v, np.inf),
                   tol=1e-14, maxit=50)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("solver, name", [(gmres_right, "GMRES"), (richardson, "Richardson")])
def test_non_finite_rhs_raises_before_any_iteration(rng, solver, name, bad):
    # a NaN norm once passed as a zero right-hand side, "converged" with x = 0
    a, b = dense_problem(rng)
    b[3] = bad
    calls = []

    def op(v):
        calls.append(1)
        return a @ v

    with pytest.raises(FloatingPointError, match=f"^{name}: right-hand side"):
        solver(op, b, apply_precond=op, tol=1e-8, maxit=50)
    assert calls == []


@pytest.mark.parametrize("solver", [gmres_right, richardson])
def test_stop_reasons_tol_and_maxit(rng, solver):
    a, b = dense_problem(rng)
    zero = solver(lambda v: a @ v, np.zeros_like(b), tol=1e-8, maxit=10)
    assert (zero.stop, zero.converged) == ("tol", True)
    capped = solver(lambda v: a @ v, b, tol=1e-14, maxit=1)
    assert (capped.stop, capped.converged) == ("maxit", False)


def test_stop_reason_breakdown():
    # op(b) = 0: the Krylov space closes at once on a singular operator
    a = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 1]], dtype=np.complex128)
    rep = gmres_right(lambda v: a @ v, np.array([1, 0, 0], dtype=np.complex128))
    assert (rep.stop, rep.converged) == ("breakdown", False)


@pytest.mark.parametrize("solver", [gmres_right, richardson])
def test_seconds_stamp_every_history_entry(rng, solver):
    a, b = dense_problem(rng)
    rep = solver(lambda v: a @ v, b, tol=1e-8, maxit=50)
    assert len(rep.seconds) == len(rep.history)
    assert all(0.0 <= s <= t for s, t in zip(rep.seconds, rep.seconds[1:]))
    assert rep.seconds[-1] <= rep.wall_time


def test_gmres_is_bitwise_on_one_and_two_blas_threads(rng):
    # vectors long enough for numpy's BLAS to split a reduction across
    # threads: the history, solution and orthogonality defect keep their
    # bits whatever the library's thread count is outside the run
    n = 30000
    d = 3 + rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    runs = []
    for threads in (1, 2):
        with blas_threads(threads):
            runs.append(gmres_right(lambda x: d * x, b, tol=1e-12, maxit=25))
    one, two = runs
    assert one.iterations == two.iterations == 25
    assert one.history == two.history and one.ortho_defect == two.ortho_defect
    assert one.solution.tobytes() == two.solution.tobytes()

import mpmath
import numpy as np
import pytest

from helmsweep.symbols import (SymbolParams, lambda_symbol, lambda_waveguide,
                               symbol_matrices, rho_factor, C_factor)
from conftest import part_masks
from oracles import find_vanishing_overlap, verify_symbol_algebra


def equal_strips(n, width=1.0):
    return tuple((0.0, width) for _ in range(n))


def test_lambda_plane_values():
    lam, cut = lambda_symbol(0.0, 20.0)
    assert not cut
    assert lam == pytest.approx(20.0j)
    lam, cut = lambda_symbol(20.0 * np.sqrt(2.0), 20.0)
    assert not cut
    assert lam == pytest.approx(20.0)
    _, cut = lambda_symbol(20.0, 20.0)
    assert cut


@pytest.mark.parametrize("xi", [3.0, 12.0, 19.0, 21.0, 35.0, 80.0])
def test_lambda_squares_to_symbol(xi):
    k = 20.0
    lam, _ = lambda_symbol(xi, k)
    assert lam * lam == pytest.approx(xi * xi - k * k, rel=1e-12)
    # propagating modes decay nowhere, vanishing modes decay forward
    if xi < k:
        assert lam.real == pytest.approx(0.0, abs=1e-12)
        assert lam.imag > 0.0
    else:
        assert lam.real > 0.0


def test_lambda_waveguide_substitution():
    k, length = 20.0, 1.0
    lam_w, res = lambda_waveguide(3, k, length)
    lam_p, _ = lambda_symbol(3.0 * np.pi / length, k)
    assert not res
    assert lam_w == pytest.approx(lam_p, rel=1e-13)


def mp_lambda(xi, k):
    """sqrt(xi^2 - k^2) on the outgoing branch, in 50 digits."""
    t = mpmath.mpf(xi) ** 2 - mpmath.mpf(k) ** 2
    return mpmath.sqrt(t) if t > 0 else 1j * mpmath.sqrt(-t)


def relative_error(lam, xi, k):
    with mpmath.workdps(50):
        ref = mp_lambda(xi, k)
        return float(abs(mpmath.mpc(lam) - ref) / abs(ref))


# relative distances to the cutoff, down to ten times the flagging tolerance
NEAR_CUTOFF = [s * d for s in (-1, 1) for d in np.logspace(-8, -6, 9)]


@pytest.mark.parametrize("k", [0.3, 20.0, 20.0 * np.pi, 1e3])
def test_lambda_accurate_near_cutoff(k):
    for xi in [k * (1 + d) for d in NEAR_CUTOFF] + [0.0, 0.5 * k, 3.0 * k]:
        lam, cut = lambda_symbol(xi, k)
        assert not cut
        assert relative_error(lam, xi, k) <= 1e-15, xi


@pytest.mark.parametrize("length", [1.0, 0.7])
def test_lambda_waveguide_accurate_near_resonance(length):
    # k just off the resonance of mode m, and each mode m' <= 30 at that k
    for m in (1, 3, 17):
        for d in NEAR_CUTOFF:
            k = m * np.pi / length * (1 + d)
            for mode in range(1, 31):
                lam, cut = lambda_waveguide(mode, k, length)
                assert (lam, cut) == lambda_symbol(mode * np.pi / length, k)
                assert not cut
                xi = mode * np.pi / length
                assert relative_error(lam, xi, k) <= 1e-15, (mode, k)


def test_waveguide_resonance_flag():
    length = 1.0
    k = 3.0 * np.pi / length
    lam, res = lambda_waveguide(3, k, length)
    assert res
    assert abs(lam) <= 1e-9 * k


def test_interface_reflection_coefficient():
    k = 20.0

    def rho_j(xi):
        return SymbolParams(k=k, xi=xi, strips=equal_strips(2), delta=0.1).rho_j()

    assert rho_j(0.0) == pytest.approx(0.0)
    # vanishing modes reflect with modulus exactly one
    assert abs(rho_j(1.5 * k)) == pytest.approx(1.0, rel=1e-13)
    for xi in (5.0, 12.0, 19.5):
        assert abs(rho_j(xi)) < 1.0
    # at cutoff the interface condition reflects everything, sign flipped
    assert rho_j(k) == pytest.approx(-1.0)


def test_params_validation():
    base = dict(k=20.0, xi=5.0, strips=equal_strips(3), delta=0.1)
    for fields, message in [(dict(strips=equal_strips(1)), "at least 2 strips"),
                            (dict(delta=0.5), "twice the overlap"),
                            (dict(xi=2.0, mode="waveguide"), "positive height"),
                            (dict(mode="spherical"), "mode must be"),
                            (dict(k=0.0), "wavenumber must be positive"),
                            (dict(strips=((0.0, 1.0), (1.0, 1.0), (0.0, 1.0))), "strip widths"),
                            (dict(delta=-0.1), "overlap must be nonnegative")]:
        with pytest.raises(ValueError, match=message):
            SymbolParams(**{**base, **fields})
    with pytest.raises(ValueError, match="wavenumber must be positive"):
        lambda_symbol(5.0, -20.0)
    with pytest.raises(ValueError, match="height must be positive"):
        lambda_waveguide(2, 20.0, 0.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["k", "xi", "delta", "length", "strips"])
def test_non_finite_params_rejected_by_name(name, value):
    fields = dict(k=20.0, xi=5.0, strips=equal_strips(3), delta=0.1, length=1.0)
    fields[name] = ((0.0, value), (0.0, 1.0), (0.0, 1.0)) if name == "strips" else value
    with pytest.raises(ValueError, match=f"{name} must"):
        SymbolParams(**fields)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_symbols_reject_non_finite_k_xi_and_height(value):
    with pytest.raises(ValueError, match="k must be finite"):
        lambda_symbol(5.0, value)
    with pytest.raises(ValueError, match="xi must be finite"):
        lambda_symbol(value, 20.0)
    # an infinite height used to give the xi = 0 symbol
    with pytest.raises(ValueError, match="length must be finite"):
        lambda_waveguide(2, 20.0, value)


def test_waveguide_mode_number_must_be_a_positive_integer():
    def params(xi):
        return SymbolParams(k=20.0, xi=xi, strips=equal_strips(3), delta=0.1,
                            mode="waveguide", length=1.0)

    for xi in (2.7, 0.0, -3.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive integer"):
            params(xi)
    # an integral float is that mode
    assert params(3.0).lam() == lambda_waveguide(3, 20.0, 1.0)


def test_two_strip_matrices():
    p = SymbolParams(k=20.0, xi=7.0, strips=equal_strips(2), delta=0.1)
    m = symbol_matrices(p)
    assert m.a_l.shape == (2, 2)
    assert np.max(np.abs(m.m_l)) == 0.0
    assert np.max(np.abs(m.m_r)) == 0.0
    # equal widths make the two reflection entries coincide
    assert m.a_r[1, 0] == pytest.approx(m.a_l[0, 1], rel=1e-13)
    assert rho_factor(p) == pytest.approx(abs(m.a_r[1, 0]) * abs(m.a_l[0, 1]),
                                          rel=1e-13)


def test_matrix_sparsity_matches_trace_masks():
    n = 4
    p = SymbolParams(k=20.0, xi=7.0, strips=equal_strips(n), delta=0.1)
    m = symbol_matrices(p)
    masks = part_masks((2, n - 1, 1))
    for mat, name in ((m.a_l, "al"), (m.a_r, "ar"), (m.m_l, "ml"), (m.m_r, "mr")):
        assert np.max(np.abs(mat[~masks[name]])) == 0.0
    # the parts do not overlap, so the exchange symbol holds each one's entries
    total = m.a_l + m.a_r + m.m_l + m.m_r
    for mat, name in ((m.a_l, "al"), (m.a_r, "ar"), (m.m_l, "ml"), (m.m_r, "mr")):
        assert np.array_equal(total[masks[name]], mat[masks[name]])


def test_transmission_entry_modulus_at_normal_incidence():
    p = SymbolParams(k=20.0, xi=0.0, strips=equal_strips(4), delta=0.1)
    m = symbol_matrices(p)
    vals = m.m_l[np.abs(m.m_l) > 0]
    assert np.allclose(np.abs(vals), 1.0, rtol=1e-13)
    # reflections vanish at normal incidence
    assert np.max(np.abs(m.a_l)) == 0.0
    assert np.max(np.abs(m.a_r)) == 0.0


def test_cutoff_rejected():
    p = SymbolParams(k=20.0, xi=20.0, strips=equal_strips(3), delta=0.1)
    with pytest.raises(ValueError, match="cutoff"):
        symbol_matrices(p)
    with pytest.raises(ValueError, match="cutoff"):
        rho_factor(p)


def test_contraction_and_quality_factors():
    p = SymbolParams(k=20.0, xi=7.0, strips=equal_strips(2), delta=0.1)
    m = symbol_matrices(p)
    na_r, na_l = np.max(np.abs(m.a_r)), np.max(np.abs(m.a_l))
    rho = rho_factor(p)
    c = C_factor(p)
    expect = (1.0 + rho / na_l) * (1.0 + rho / na_r + rho / (na_r * na_l))
    assert c == pytest.approx(expect, rel=1e-13)
    # normal incidence leaves nothing to reflect, the factor degenerates
    p0 = SymbolParams(k=20.0, xi=0.0, strips=equal_strips(2), delta=0.1)
    assert C_factor(p0) == float("inf")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_symbol_cancellation_relations(n):
    p = SymbolParams(k=20.0, xi=7.0, strips=equal_strips(n), delta=0.05)
    report = verify_symbol_algebra(p)
    assert report.passed, report.failures
    assert len(report.relations) == 10
    assert all(err <= 1e-13 for err in report.relations.values())
    assert all(err <= 1e-12 for err in report.power_errors.values())


def test_propagative_contraction_bound():
    # sweep-factor bound in terms of the two-domain reflection coefficient
    k, n = 20.0, 4
    for xi in np.linspace(0.5, 0.9 * k, 9):
        p = SymbolParams(k=k, xi=float(xi), strips=equal_strips(n), delta=0.05)
        rho = rho_factor(p)
        rj2 = abs(p.rho_j()) ** 2
        bound = rj2 * 4.0 / (1.0 - rj2) ** 2 * (n - 1) ** 2
        assert rho <= bound * (1.0 + 1e-12)


def test_quality_factor_limit_from_below():
    for n in (2, 4, 8):
        p = SymbolParams(k=20.0, xi=1e-4, strips=equal_strips(n), delta=0.05)
        assert C_factor(p) >= (n - 1) ** 2


def test_vanishing_overlap_search_fields():
    res = find_vanishing_overlap(20.0, 1.0, 3)
    assert 0.0 < res.delta <= 0.5 + 1e-12
    assert isinstance(res.holds, bool)
    assert res.worst_excess >= 0.0


def test_vanishing_bound_excess_is_not_roundoff():
    # find_vanishing_overlap's bound |rho| < e^{-2 delta lambda} fails by a
    # positive margin that 50-digit arithmetic reproduces: |A_r||A_l| is
    # e^{-2 lambda delta} (1 + 2 e^{-lambda (w - delta)}) to leading order,
    # above the bound at every overlap, and the float64 factor is accurate
    mp = pytest.importorskip("mpmath")
    k, width = 20.0, 1.0
    deltas = [width / 32 * 2 ** i for i in range(4)] + [np.nextafter(width / 2, 0.0)]

    def excesses(xi, delta, n):
        """Relative excess over e^{-2 delta lambda} of |A_r||A_l| and of rho_factor."""
        with mp.workdps(50):
            kk, x, d, w = (mp.mpf(v) for v in (k, xi, delta, width))
            lam = mp.sqrt(x * x - kk * kk)
            rj = (lam - 1j * kk) / (lam + 1j * kk)
            den = 1 - rj * rj * mp.exp(-2 * lam * w)
            a = abs(rj * (mp.exp(-lam * d) + mp.exp(-lam * w)) / den) ** 2
            m = abs(mp.exp(-lam * (w - d)) * (1 - rj * rj) / den) if n > 2 else 0
            rho = a * sum(m ** i for i in range(n - 1)) ** 2
            bound = mp.exp(-2 * d * lam)
            return lam, a / bound - 1, rho, rho / bound - 1

    for n in (2, 4, 8):
        strips = tuple((i * width, (i + 1) * width) for i in range(n))
        for delta in deltas:
            for xi in np.linspace(1.5 * k, 4.0 * k, 50):
                lam, excess_a, rho, excess = excesses(float(xi), delta, n)
                leading = 2 * mp.exp(-lam * (width - delta))
                assert 0 < excess_a and excess_a <= excess
                assert abs(excess_a / leading - 1) <= 1e-4
                got = rho_factor(SymbolParams(k=k, xi=float(xi), strips=strips, delta=delta))
                assert abs(got - rho) <= 1e-13 * rho
        assert not find_vanishing_overlap(k, width, n).holds
    # the measured margins: 7.8e-10 at delta = w/32 and 2.8e-5 at w/2, xi = 1.5k
    assert float(excesses(1.5 * k, width / 32, 2)[1]) == pytest.approx(7.823e-10, rel=1e-3)
    assert float(excesses(1.5 * k, deltas[-1], 2)[1]) == pytest.approx(2.789e-5, rel=1e-3)

"""Narayana families, their specializations, the binomial product,
q-polynomial families, and hypergeometric series oracles."""

import pytest
from fractions import Fraction as F

from hankelpf.errors import (NegativeIndex, NonTerminating,
                             PochhammerPoleInC, UnsupportedArgument,
                             ZeroDenominatorBinomial, ZeroQForG)
from hankelpf.scalars import derive_rng, omega, poly_gen, unipoly
from hankelpf.sequences import (binomial, ftilde, ftilde_recurrence,
                                gx_hypergeometric_series, hyp2f1_series,
                                hyp2f1_terminating, narayana_gf_series,
                                narayana_number, narayana_poly,
                                omega_specialization, phi_product,
                                rogers_szego, sequence_value)

A = poly_gen("a")


def test_binomial_convention():
    assert binomial(4, 2) == 6
    assert binomial(19, 6) == 27132
    assert binomial(-1, 0) == 1
    assert binomial(-7, 0) == 1
    assert binomial(3, -1) == 0
    assert binomial(3, 5) == 0
    assert binomial(-2, 1) == -2  # falling-factorial extension


def test_narayana_numbers():
    assert narayana_number("A", 3, 2) == 3
    assert [narayana_number("B", 2, k) for k in range(3)] == [1, 4, 1]
    assert narayana_number("D", 2, 1) == 2
    assert [narayana_number("D", 2, k) for k in range(3)] == [1, 2, 1]
    assert narayana_number("A", 0, 0) == 1
    assert narayana_number("A", 0, 1) == 0
    assert narayana_number("D", 1, 0) == F(1, 2)
    with pytest.raises(NegativeIndex):
        narayana_number("A", -1, 0)
    with pytest.raises(UnsupportedArgument):
        narayana_number("E", 2, 1)


def test_narayana_polys():
    assert narayana_poly("A", 2) == A + A ** 2
    assert narayana_poly("B", 2) == 1 + 4 * A + A ** 2
    assert narayana_poly("D", 1) == unipoly("a", [F(1, 2), F(1, 2)])
    assert narayana_poly("A", 0) == 1
    assert narayana_poly("D", 0) == 1


def test_classical_sequences():
    cat = [sequence_value("catalan", n) for n in range(7)]
    assert cat == [1, 1, 2, 5, 14, 42, 132]
    mot = [sequence_value("motzkin", n) for n in range(7)]
    assert mot == [1, 1, 2, 4, 9, 21, 51]
    sch = [sequence_value("schroeder", n) for n in range(5)]
    assert sch == [1, 2, 6, 22, 90]
    de = [sequence_value("delannoy", n) for n in range(5)]
    assert de == [1, 3, 13, 63, 321]
    assert sequence_value("cbc", 3) == 20
    ctc = [sequence_value("ctc", n) for n in range(7)]
    assert ctc == [1, 1, 3, 7, 19, 51, 141]
    with pytest.raises(NegativeIndex):
        sequence_value("catalan", -1)
    # the q-families are reached through rogers_szego alone
    with pytest.raises(UnsupportedArgument, match="unknown sequence"):
        sequence_value("rogersSzegoF", 2)


def test_type_d_motzkin_values():
    vals = [sequence_value("motzkinD", n) for n in range(6)]
    assert vals == [1, F(1, 2), 1, 4, 11, 31]


def test_specializations_match_polynomials():
    for n in range(13):
        pa = narayana_poly("A", n)
        pb = narayana_poly("B", n)
        ev = pa.evaluate if n else (lambda x, pa=pa: pa)
        evb = pb.evaluate if n else (lambda x, pb=pb: pb)
        assert ev(1) == sequence_value("catalan", n)
        assert ev(2) == sequence_value("schroeder", n)
        assert evb(1) == sequence_value("cbc", n)
        assert evb(2) == sequence_value("delannoy", n)
    assert narayana_poly("D", 2).evaluate(1) == 4 * sequence_value(
        "catalan", 1)
    for n in range(1, 8):
        expect = (3 * n - 2) * sequence_value("catalan", n - 1)
        pd = narayana_poly("D", n)
        val = pd.evaluate(1) if n > 0 else pd
        assert val == expect


def test_omega_specializations():
    w = omega()
    assert w ** 2 * (1 + 4 * w + w ** 2) == 3
    for n in range(11):
        assert omega_specialization("motzkin", n) == sequence_value(
            "motzkin", n)
        assert omega_specialization("ctc", n) == sequence_value("ctc", n)
    for n in range(2, 11):
        assert omega_specialization("motzkinD", n) == sequence_value(
            "motzkinD", n)
    assert omega_specialization("motzkinD", 1) == F(1, 2)
    with pytest.raises(UnsupportedArgument):
        omega_specialization("catalan", 2)


def test_gx_closed_forms():
    assert [sequence_value("gx1", n) for n in range(7)] == [
        1, 1, 3, 12, 55, 273, 1428]
    assert [sequence_value("gx2", n) for n in range(5)] == [1, 2, 7, 30, 143]
    assert [sequence_value("gx3", n) for n in range(5)] == [2, 3, 10, 42, 198]
    assert [sequence_value("gx4", n) for n in range(6)] == [2, 1, 2, 6, 22, 91]
    assert [sequence_value("gx5", n) for n in range(5)] == [5, 7, 23, 96, 451]


def test_gx_series_match_closed_forms():
    for i in range(1, 6):
        series = gx_hypergeometric_series(i, 8)
        for n in range(9):
            assert series[n] == sequence_value(f"gx{i}", n)
    with pytest.raises(UnsupportedArgument):
        gx_hypergeometric_series(6, 4)


def test_phi_product_values():
    assert phi_product(1, 1, 1, 2) == 2
    assert phi_product(2, 1, 1, 2) == 40
    for r in range(4):
        for s in range(4):
            for m in (1, 2, 3):
                expect = F(binomial(2 * r, r) * binomial(2 * s, s),
                           binomial(r + s, r))
                assert phi_product(1, r, s, m) == expect
    with pytest.raises(ZeroDenominatorBinomial):
        phi_product(1, -1, 0, 2)
    with pytest.raises(NegativeIndex):
        phi_product(0, 1, 1, 2)


def test_rogers_szego_polys():
    assert rogers_szego("F", 0, F(1, 2)) == 1
    assert rogers_szego("G", 0, F(1, 2)) == 1
    q = F(1, 3)
    assert rogers_szego("F", 2, q) == unipoly("a", [1, 1 + q, 1])
    assert rogers_szego("G", 2, F(1, 2)) == unipoly("a", [1, 3, 1])
    assert rogers_szego("F", 2, 0) == 1 + A + A ** 2
    with pytest.raises(ZeroQForG):
        rogers_szego("G", 2, 0)
    with pytest.raises(UnsupportedArgument):
        rogers_szego("H", 2, F(1, 2))
    with pytest.raises(UnsupportedArgument):
        rogers_szego("F", 2, poly_gen("q"))


def _gauss_binomial(n, k, q):
    # the product formula, independent of the q-Pascal row
    out = F(1)
    for i in range(k):
        out *= (1 - q ** (n - i)) / (1 - q ** (i + 1))
    return out


def test_whole_row_families_match_per_k_binomials():
    # rogers_szego and ftilde read one q_binomial_row; each coefficient
    # must equal the Gaussian binomial built for its own k
    rng = derive_rng("q-binomial-rows")
    for _ in range(20):
        q = F(rng.randint(-9, 9) or 1, rng.randint(10, 12))
        n = rng.randint(0, 7)
        assert rogers_szego("F", n, q) == unipoly(
            "a", [_gauss_binomial(n, k, q) for k in range(n + 1)])
        assert rogers_szego("G", n, q) == unipoly(
            "a", [_gauss_binomial(n, k, q) * q ** (k * (k - n))
                  for k in range(n + 1)])
        assert ftilde(n, q) == unipoly(
            "a", [_gauss_binomial(n, j, q)
                  * q ** (j * (j - 1) // 2 + (n - j) * (n - j - 1) // 2)
                  for j in range(n + 1)])


def test_ftilde_values():
    t = F(1, 5)
    assert ftilde(0, t) == 1
    assert ftilde(1, t) == 1 + A
    assert ftilde(2, t) == unipoly("a", [t, 1 + t, t])
    with pytest.raises(NegativeIndex):
        ftilde(-1, t)


def test_ftilde_matches_recurrence():
    rng = derive_rng("ftilde")
    for _ in range(5):
        t = F(rng.randint(-6, 6), rng.randint(1, 6))
        for i in range(11):
            assert ftilde(i, t) == ftilde_recurrence(i, t)


def test_hyp2f1_terminating():
    assert hyp2f1_terminating(0, F(7, 3), F(1, 2), 5) == 1
    assert hyp2f1_terminating(-1, 3, 2, F(1, 2)) == F(1, 4)
    assert hyp2f1_terminating(-2, -2, 1, 1) == 6
    with pytest.raises(NonTerminating):
        hyp2f1_terminating(F(1, 2), F(1, 3), 1, 1)
    with pytest.raises(PochhammerPoleInC):
        hyp2f1_terminating(-3, 1, -1, 1)


def test_type_d_motzkin_cross_identity():
    # the hypergeometric combination agrees with the cube-root
    # specialization route
    for n in (2, 3, 4, 7, 10):
        assert sequence_value("motzkinD", n) == omega_specialization(
            "motzkinD", n)


def test_hyp2f1_series():
    geom = hyp2f1_series(1, 1, 1, 1, 3)
    assert list(geom.coeffs) == [1, 1, 1, 1]
    const = hyp2f1_series(F(1, 2), F(3, 2), 2, 0, 4)
    assert const == 1
    quotient = gx_hypergeometric_series(1, 4)
    assert list(quotient.coeffs) == [1, 1, 3, 12, 55]
    with pytest.raises(PochhammerPoleInC):
        hyp2f1_series(F(1, 2), F(1, 3), -2, 1, 5)


def test_hypergeometric_series_reject_a_negative_order():
    assert list(hyp2f1_series(1, 1, 1, 1, 0).coeffs) == [1]
    assert list(gx_hypergeometric_series(1, 0).coeffs) == [1]
    with pytest.raises(NegativeIndex, match="order must be nonnegative"):
        hyp2f1_series(1, 1, 1, 1, -1)
    for i in range(1, 6):
        with pytest.raises(NegativeIndex):
            gx_hypergeometric_series(i, -1)


def test_narayana_gf_series():
    b1 = narayana_gf_series("B", 1, 4)
    assert list(b1.coeffs) == [1, 2, 6, 20, 70]
    a1 = narayana_gf_series("A", 1, 4)
    assert list(a1.coeffs) == [1, 1, 2, 5, 14]
    d1 = narayana_gf_series("D", 1, 3)
    assert d1[3] == 14
    assert d1[1] == 1  # (a+1)/2 at a=1


def test_gf_matches_polynomials():
    for X in ("A", "B", "D"):
        for a in (1, 2, F(1, 3), -2):
            series = narayana_gf_series(X, a, 12)
            for n in range(13):
                p = narayana_poly(X, n)
                expect = p.evaluate(a) if n else p
                assert series[n] == expect, (X, a, n)


def test_unknown_names_raise():
    assert sequence_value("gx3", 2) == 10
    for call in (lambda: sequence_value("nope", 2),
                 lambda: omega_specialization("catalan", 2),
                 lambda: narayana_number("C", 2, 1),
                 lambda: narayana_poly("C", 2),
                 lambda: narayana_gf_series("C", 1, 4)):
        with pytest.raises(UnsupportedArgument):
            call()
    assert issubclass(UnsupportedArgument, ValueError)

"""Moment-matrix and ordered-integral bridges over finite measures."""

import functools
import math
from fractions import Fraction

from ..engines import hyperhafnian, hyperpfaffian
from ..errors import UnsupportedArgument
from ..qcalc import (DiscreteMeasure, debruijn_kernel,
                     debruijn_ordered_integral, delta_product,
                     discrete_cube_integral, discrete_moment, q_pochhammer)
from ..scalars import q_gamma_int, sdiv
from ..scalars.poly import horner, num_den, scale_to_ints
from ..tensors import BlockArray
from .common import (Outcome, factorial_tower, hankel_pf, outcome_all,
                     outcome_eq, rand_measure, rand_points, rand_q)


def _poly_family(rng, rows, l):
    """rows x l random polynomials of degree <= 2 with int
    coefficients in [-2, 2], each a function of one point."""
    fam = []
    for _ in range(rows):
        row = []
        for _ in range(l):
            cs = [rng.randint(-2, 2) for _ in range(3)]
            row.append(functools.partial(horner, cs))
        fam.append(row)
    return fam


def check_debruijn_discrete(params, rng, opts):
    """Ordered integral of a product of big determinants equals the
    hyperpfaffian of the one-point kernel array.

    The classical two-column case (one family, l=2) additionally pins
    the kernel to the antisymmetric matrix of 2x2 cross integrals; it
    takes n alone, and r, l or count raise UnsupportedArgument. The
    general case needs r, l and count too, else UnsupportedArgument.
    """
    if params.get("classical"):
        extra = [k for k in ("r", "l", "count") if k in params]
        if extra:
            raise UnsupportedArgument(
                f"the classical case takes n alone, not {', '.join(extra)}")
        n = params["n"]
        phi = [_poly_family(rng, 2 * n, 1)[i][0] for i in range(2 * n)]
        psi = [_poly_family(rng, 2 * n, 1)[i][0] for i in range(2 * n)]
        mu = rand_measure(rng, 2 * n - 1)
        fam = [[phi[i], psi[i]] for i in range(2 * n)]
        lhs = debruijn_ordered_integral([fam], mu, n)

        def cross(I):
            i, j = I[0] - 1, I[1] - 1
            return sum(w * (phi[i](x) * psi[j](x) - phi[j](x) * psi[i](x))
                       for x, w in mu.atoms)
        rhs = hyperpfaffian(BlockArray.from_function(2, 1, 2 * n, cross))
        return outcome_eq(lhs, rhs, terms=len(mu.atoms))
    missing = [k for k in ("r", "l", "count") if k not in params]
    if missing:
        raise UnsupportedArgument(
            f"the non-classical case needs {', '.join(missing)}")
    r, l, n = params["r"], params["l"], params["n"]
    pairs = []
    for _ in range(params["count"]):
        fams = [_poly_family(rng, l * n, l) for _ in range(r)]
        mu = rand_measure(rng, n + rng.randint(0, 2))
        Qk = debruijn_kernel(fams, mu)
        pairs.append((debruijn_ordered_integral(fams, mu, n),
                      hyperpfaffian(Qk)))
    return outcome_all(pairs)


def check_debruijn_even_r(params, rng, opts):
    """Even slot counts: the signed kernel sum still matches the
    ordered integral, while the unsigned variant visibly does not.

    The printed source states the unsigned form for this parity; the
    check documents the corrected reading next to a witness value.
    """
    fams = [_poly_family(rng, 4, 2) for _ in range(2)]
    mu = rand_measure(rng, 3)
    Qk = debruijn_kernel(fams, mu)
    ordered = debruijn_ordered_integral(fams, mu, 2)
    signed = hyperpfaffian(Qk)
    unsigned = hyperhafnian(Qk)
    if not ordered == signed:
        return Outcome("counterexample", ordered, signed, 3,
                       "signed kernel sum broke on an even slot count")
    note = ("signed kernel sum matches; printed unsigned form gives "
            f"{unsigned} against ordered integral {ordered}")
    if ordered == unsigned:
        note = "unsigned form agreed on this draw; mismatch is generic"
    return Outcome("discrepancy-reported", ordered, signed, 3, note)


def _cube_over_ints(mu, n, e, degree, pairs):
    """The cube integral of prod_i x_i^e times pairs(xs), for `pairs`
    homogeneous of `degree` in each pair of points, over ints.

    x^e moves into the weights, and the points and the new weights go
    over their common denominators L and W, so `pairs` runs on int
    points and the sum divides once by L^(C(n, 2) degree) W^n.
    """
    (xs,), L = scale_to_ints([[x for x, _ in mu.atoms]])
    (ws,), W = scale_to_ints([[w * x ** e for x, w in mu.atoms]])
    ints = DiscreteMeasure(tuple(zip(xs, ws)))
    return sdiv(discrete_cube_integral(ints, n, pairs),
                L ** (math.comb(n, 2) * degree) * W ** n)


def _gap_pairs(n, power, shifts=()):
    """xs -> prod_{i<j} (x_j - x_i)^power, times
    ((dv x_j - av x_i)(av x_j - dv x_i))^e for each (dv, av, e) in
    shifts."""
    def pairs(xs):
        t = 1
        for i in range(n):
            for j in range(i + 1, n):
                t *= (xs[j] - xs[i]) ** power
                for dv, av, e in shifts:
                    t *= ((dv * xs[j] - av * xs[i])
                          * (av * xs[j] - dv * xs[i])) ** e
        return t
    return pairs


def check_q_hankel(params, rng, opts):
    """Hyperpfaffian of q-difference-weighted moments against the cube
    integral of the cancelled pair product."""
    l, n, u = params["l"], params["n"], params["u"]
    q = rand_q(rng)
    mu = rand_measure(rng, max(n, 2))
    lhs = hankel_pf(l, n, lambda d: discrete_moment(mu, d), u - l, q)
    scale = q ** (math.comb(l, 3) * math.comb(n + 1, 2)
                  + 2 * math.comb(l + 1, 3) * math.comb(n, 2))
    for k in range(1, l + 1):
        scale *= q_pochhammer(q, q, k - 1) ** n

    # at q = a/D, (x_j - q^v x_i)(x_j - q^-v x_i) is the int
    # (D^v x_j - a^v x_i)(a^v x_j - D^v x_i) over (a D)^v
    a, D = num_den(q)
    shifts = [(D ** v, a ** v, l - v) for v in range(1, l)]
    cube = _cube_over_ints(mu, n, u + math.comb(l, 2), l * l,
                           _gap_pairs(n, l, shifts))
    rhs = sdiv(scale * cube, math.factorial(n) * (a * D) ** (
        math.comb(n, 2) * math.comb(l + 1, 3)))
    return outcome_eq(lhs, rhs, terms=len(mu.atoms) ** n)


def _enough_atoms(atoms, n):
    # with fewer atoms than n every point of the cube repeats a
    # coordinate, so both sides vanish and the check shows nothing
    if atoms < n:
        raise UnsupportedArgument(
            f"need at least n={n} atoms, got {atoms}")


def check_hankel_classical(params, rng, opts):
    """Index-gap-weighted moment hyperpfaffian against the cube
    integral of the even power of the Vandermonde product."""
    l, n, u = params["l"], params["n"], params["u"]
    if "atoms" in params:
        _enough_atoms(len(params["atoms"]), n)
        mu = DiscreteMeasure(tuple(
            (Fraction(x), Fraction(w)) for x, w in params["atoms"]))
    else:
        mu = rand_measure(rng, max(n, 2) + 1)
    lhs = hankel_pf(l, n, lambda d: discrete_moment(mu, d), u - l)
    cube = _cube_over_ints(mu, n, u + math.comb(l, 2), l * l,
                           _gap_pairs(n, l * l))
    rhs = sdiv(factorial_tower(l, n) * cube, math.factorial(n))
    return outcome_eq(lhs, rhs, terms=len(mu.atoms) ** n)


def check_delta_relations(params, rng, opts):
    """The three pairwise rewrites between the pair-interaction
    products: symmetrized closed form, symmetrized against the signed
    double product, and shifted-factorial form of the one-sided
    product."""
    pairs = []
    for n in params["sizes"]:
        for k in params["ks"]:
            xs = rand_points(rng, n)
            q = rand_q(rng)
            dsym = delta_product(xs, q, k, "Dsym")
            prod = 1
            for i in range(n):
                for j in range(n):
                    if i != j:
                        prod *= q_pochhammer(xs[i] / xs[j], q, k)
            ratio = sdiv(q_gamma_int(n, q ** k), math.factorial(n))
            pairs.append((dsym, ratio * prod))
            pref = (Fraction(-1) ** (k * math.comb(n, 2))
                    * q ** (math.comb(k, 2) * math.comb(n, 2)) * ratio)
            for xi in xs:
                pref *= xi ** (-k * (n - 1))
            pairs.append((dsym, pref * delta_product(xs, q, k, "D1")))
            pair_form = 1
            for i in range(n):
                for j in range(i + 1, n):
                    pair_form *= xs[i] ** (2 * k) * q_pochhammer(
                        q ** (1 - k) * xs[j] / xs[i], q, 2 * k)
            pairs.append((delta_product(xs, q, k, "D2"), pair_form))
    return outcome_all(pairs)


def check_delta_integral(params, rng, opts):
    """Cube integrals of the two double products differ by the factor
    n! over the q^k-integer factorial of n, measure-independently."""
    n, k = params["n"], params["k"]
    _enough_atoms(params["atoms"], n)
    mu = rand_measure(rng, params["atoms"])
    q = rand_q(rng)
    r = rng.randint(0, 2)
    lhs, rhs = (_cube_over_ints(mu, n, r + 1, 2 * k, functools.partial(
        delta_product, q=q, k=k, variant=variant)) for variant in ("D1", "D2"))
    return outcome_eq(lhs,
                      sdiv(math.factorial(n), q_gamma_int(n, q ** k)) * rhs,
                      terms=len(mu.atoms) ** n)


def check_pf_delta2(params, rng, opts):
    """Pfaffian of q-coupled moments as a weighted cube integral of the
    k=2 double product."""
    n, r = params["n"], params["r"]
    mu = rand_measure(rng, max(2, n))
    q = rand_q(rng)
    lhs = hankel_pf(2, n, lambda d: discrete_moment(mu, d), r - 2, q)
    cube = _cube_over_ints(mu, n, r + 1, 4, functools.partial(
        delta_product, q=q, k=2, variant="D2"))
    rhs = (q ** (n * (n - 1)) * (1 - q) ** n
           * sdiv(cube, q_gamma_int(n, q ** 2)))
    return outcome_eq(lhs, rhs, terms=len(mu.atoms) ** n)

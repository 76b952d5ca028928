"""Beta-type integral evaluations: closed forms against brute-force
polynomial integration, the half-integer binomial bridge, and the
q-analogue with its Pfaffian consequence."""

from ..errors import MomentPole, PoleEncountered
from ..qcalc import (QJacobiParams, SelbergParams, aomoto_bruteforce,
                     aomoto_closed, askey_A_n, askey_lhs_exact, lqj_moment,
                     q_pochhammer, selberg_bruteforce, selberg_closed,
                     selberg_phi_bridge)
from .common import (hankel_pf, outcome_all, outcome_eq, q_gap_prefactor,
                     rand_fraction, rand_q)

import math


def check_selberg(params, rng, opts):
    n, alpha, beta, gamma = (params["n"], params["alpha"], params["beta"],
                             params["gamma"])
    closed = selberg_closed(SelbergParams(n, alpha, beta, gamma))
    brute = selberg_bruteforce(n, alpha, beta, gamma)
    return outcome_eq(closed, brute, terms=n)


def check_aomoto(params, rng, opts):
    n, k = params["n"], params["k"]
    alpha, beta, gamma = params["alpha"], params["beta"], params["gamma"]
    closed = aomoto_closed(n, k, alpha, beta, gamma)
    brute = aomoto_bruteforce(n, k, alpha, beta, gamma)
    return outcome_eq(closed, brute, terms=n)


def check_selberg_phi(params, rng, opts):
    """Half-integer parameters turn the gamma product into the binomial
    product."""
    n, r, s, m = params["n"], params["r"], params["s"], params["m"]
    lhs, rhs = selberg_phi_bridge(n, r, s, m)
    return outcome_eq(lhs, rhs, terms=n)


def check_ahk(params, rng, opts):
    """Exact Jackson-integral evaluation of the q-deformed beta-type
    integral against the q-gamma product, at sampled rational q."""
    n, k, x, y = params["n"], params["k"], params["x"], params["y"]
    pairs = []
    for _ in range(opts.trials):
        q = rand_q(rng)
        lhs = askey_lhs_exact(n, x, y, k, q)
        pref = q ** (k * x * math.comb(n, 2) + 2 * k * k * math.comb(n, 3))
        pairs.append((lhs, pref * askey_A_n(n, x, y, k, q)))
    return outcome_all(pairs)


def check_little_qjacobi(params, rng, opts):
    """Pfaffian of coupled shifted-factorial quotient moments against
    its closed product, at random rational (a, b, q) triples."""
    n, r = params["n"], params["r"]
    pairs = []
    for _ in range(opts.trials):
        for attempt in range(50):
            q = rand_q(rng)
            a = rand_fraction(rng, lo=1, hi=9, den=7)
            b = rand_fraction(rng, lo=1, hi=9, den=7)
            # a b q^m = 1 is reachable for positive samples, so retry
            # on any vanishing moment denominator
            try:
                pairs.append(_lqj_instance(n, r, a, b, q))
                break
            except MomentPole:
                continue
        else:
            raise PoleEncountered(
                "little q-Jacobi sampling kept hitting abq^m = 1")
    return outcome_all(pairs)


def _lqj_instance(n, r, a, b, q):
    p = QJacobiParams(a, b, q)
    lhs = hankel_pf(2, n, q_gap_prefactor(q), lambda d: lqj_moment(d, p),
                    r - 2)
    e = n * (n - 1) * (4 * n + 1) // 3 + n * (n - 1) * r
    rhs = a ** (n * (n - 1)) * q ** e
    for k in range(1, n + 1):
        rhs = rhs * q_pochhammer(a * q, q, 2 * k + r - 1)
        rhs = rhs * q_pochhammer(b * q, q, 2 * (k - 1))
        rhs = rhs * q_pochhammer(q, q, 2 * k - 1)
        den = q_pochhammer(a * b * q * q, q, 2 * (k + n) + r - 3)
        if den == 0:
            raise MomentPole("closed-form denominator vanished")
        rhs = rhs / den
    return lhs, rhs

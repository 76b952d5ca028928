"""Exact arithmetic in quadratic extensions, two ways it earns its keep.

First: the block-moment closed form whose weight is a primitive cube
root of unity; the 2x2-block hyperpfaffian collapses to the single
extension element w. Second: the shifted bracketing-number Pfaffian
whose closed form lives in Q(sqrt 2); the engine value matches the
display up to the recorded sign, with no floating point anywhere.
Exits 1 when a check reports a status other than verified.
"""

import sys

from hankelpf.harness import CheckParams, run_check
from hankelpf.scalars import format_scalar, omega, quadext


def main():
    w = omega()
    print("omega arithmetic: w^2 =", format_scalar(w * w),
          " w^3 =", format_scalar(w * w * w))
    r2 = quadext(0, 2, 0, 1, sym="t")
    print("with t = sqrt 2:  (1+t)^2 =", format_scalar((1 + r2) ** 2))
    print()
    failed = False
    for identity, params in (
            ("tilden-d2", {"case": "d2", "l": 2, "n": 1}),
            ("tilden-d2", {"case": "d2", "l": 2, "n": 3}),
            ("schroeder-shift", {"n": 3}),
            ("delannoy-shift", {"n": 3})):
        report = run_check(CheckParams(identity, params))
        failed |= report.status != "verified"
        tail = f"  [{report.note}]" if report.note else ""
        print(f"{identity} {params}: {report.status}, "
              f"lhs = {report.lhs}{tail}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Pfaffians of gap-weighted lattice-path numbers, from first principles.

Builds the antisymmetric matrices entry by entry with the sequence
module, evaluates them with the generic Pfaffian engine, and prints the
values next to their closed product forms. Run from the repository
root:

    python3 demos/headline_products.py

Exits 1 when a Pfaffian differs from its product form.
"""

import math
import sys

from hankelpf import pfaffian
from hankelpf.sequences import sequence_value


def gap_weighted_pfaffian(seq, shift, n):
    """Pf of the 2n x 2n matrix with entries (j - i) * seq(i + j + shift)."""
    entries = {}
    for i in range(1, 2 * n + 1):
        for j in range(i + 1, 2 * n + 1):
            entries[(i, j)] = (j - i) * sequence_value(seq, i + j + shift)
    return pfaffian(entries, size=2 * n)


def main():
    print("gap-weighted Motzkin Pfaffians against the product form")
    failed = False
    for n in range(1, 6):
        pf = gap_weighted_pfaffian("motzkin", -3, n)
        prod = math.prod(4 * k + 1 for k in range(n))
        failed |= pf != prod
        flag = "ok" if pf == prod else "MISMATCH"
        print(f"  n={n}: Pf = {str(pf):>6}  product = {str(prod):>6}  {flag}")

    print("\nking-walk (central Delannoy) and bracketing (Schroeder) rows")
    for seq, shift, label in (("delannoy", -3, "delannoy"),
                              ("schroeder", -2, "schroeder")):
        row = [gap_weighted_pfaffian(seq, shift, n) for n in range(1, 5)]
        print(f"  {label:<10} {row}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

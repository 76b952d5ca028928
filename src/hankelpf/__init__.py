"""hankelpf: exact hyperdeterminants, hyperpfaffians, q-calculus, and a
mechanical checker for Hankel-type Pfaffian identities.

The subpackages build on each other in this order:

    scalars     exact coefficient arithmetic (Fraction and friends)
    blocks      ordered set partitions, signs, block permutations
    tensors     dense tensors, antisymmetric block arrays, JSON readers
    engines     hyperdeterminants, (hyper)pfaffians, minor summation
    qcalc       q-Pochhammer, Jackson integrals, Selberg/Aomoto values
    sequences   Narayana polynomials, lattice-path sequences, 2F1
    harness     the identity registry, checkers, CLI
"""

__version__ = "0.1.0"

from .engines import (det_matrix, hyperdet, hyperhafnian, hyperpfaffian,
                      pfaffian)
from .errors import HpfError
from .tensors import BlockArray, Tensor

__all__ = [
    "HpfError", "__version__",
    "Tensor", "BlockArray",
    "det_matrix", "pfaffian", "hyperdet", "hyperpfaffian", "hyperhafnian",
]

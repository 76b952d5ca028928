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

The exports below resolve on first access (PEP 562), so importing the
package, or a subpackage such as `hankelpf.harness`, loads no engine.
"""

import importlib

__version__ = "0.1.0"


def _lazy_exports(namespace, modules):
    """Give a package namespace a module `__getattr__` and `__dir__`
    (PEP 562) that import each name of `modules`, {submodule: names},
    from its submodule on first access and keep it. Returns the names."""
    where = {name: module for module, names in modules.items()
             for name in names}

    def __getattr__(name):
        if name not in where:
            raise AttributeError(f"module {namespace['__name__']!r} has no "
                                 f"attribute {name!r}")
        value = getattr(importlib.import_module(
            f".{where[name]}", namespace["__name__"]), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *where})

    namespace.update(__getattr__=__getattr__, __dir__=__dir__)
    return list(where)


__all__ = ["__version__", *_lazy_exports(globals(), {
    "errors": ("HpfError",),
    "tensors": ("Tensor", "BlockArray"),
    "engines": ("det_matrix", "pfaffian", "hyperdet", "hyperpfaffian",
                "hyperhafnian"),
})]

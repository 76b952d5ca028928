"""Registry of every identity the harness can check.

Each entry names a statement by what it computes, names its checker as
"<checks module>.<function>" (imported the first time `spec.check` is
read, so listing or planning a suite loads no checker), and carries two
parameter grids: a smoke grid (one smallest instance) and a full grid
(the complete desk-scale coverage). The grids state what a check runs.
With `_SIZES` and the entry's `accepts` they also state what it takes,
and `run_check` holds every params dict to that schema
(`IdentitySpec.validate`): a size-like key takes its `_SIZES` range,
any other key only the values the grids give it, and a params dict
names every key that all grid instances name. Anything else raises one
UnsupportedArgument. Checkers hold no parameter defaults but the float
checks' `a`, `q` and `K`, which `accepts` declares and no grid names.
"""

import functools
import importlib
import itertools
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from ..errors import UnknownIdentity, UnknownTag, UnsupportedArgument

STATUSES = ("theorem", "corollary", "conjecture", "reported-discrepancy")

# statuses whose checks gate the process exit code
GATING_STATUSES = ("theorem", "corollary")


def _from(start, step=1):
    return range(start, sys.maxsize, step)


# the values each size-like key takes, by name. Block lengths are even
# (an odd l makes every hyperpfaffian here 0), and below these starts a
# formula no longer holds or nothing is left to compare.
_SIZES = {
    "count": _from(1), "n": _from(1), "max_n": _from(1), "l": _from(2, 2),
    "dim": _from(2), "pairs": _from(2), "max_pairs": _from(1),
    "max_i": _from(0), "max_m": _from(0), "order": _from(0),
}


@dataclass(frozen=True)
class Rationals:
    """The rationals in (lo, hi) with a finite, nonzero float, written
    as anything Fraction() reads."""
    lo: object
    hi: object

    def __contains__(self, value):
        try:
            x = Fraction(value)
            return self.lo < x < self.hi and float(x) != 0.0
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            return False

    def __str__(self):
        return f"a rational in ({self.lo}, {self.hi})"


# a < 0 keeps the float checks' [a, 1] weight clear of its poles at
# a = q^j and q^-j, and |a| within [1/100, 100] keeps its 400-factor
# products finite; q < 4/5 and K >= 100 keep the truncation term q^K
# below (4/5)^100, about 2e-10; K <= 1000 bounds the (2K + 2)^2 pair sum
# to about a second. Each grid instance of both checks passes at every
# corner of a in [-100, -1/100], q in [1e-300, 4/5 - 1e-12] and K in
# {100, 1000}. The box is per key, so it turns away some pairs, such as
# q = 9/10 with K = 200, whose q^K is small enough.
_FLOAT_KEYS = {"a": Rationals(-100, Fraction(-1, 100)),
               "q": Rationals(0, Fraction(4, 5)), "K": range(100, 1001)}


def _admits(accepted, value):
    if isinstance(accepted, range):
        return type(value) is int and value in accepted
    if isinstance(accepted, tuple):
        return any(type(v) is type(value) and v == value for v in accepted)
    return value in accepted


def _describe(accepted):
    if isinstance(accepted, tuple):
        return "one of " + ", ".join(map(repr, accepted))
    if not isinstance(accepted, range):
        return str(accepted)
    text = f"an integer >= {accepted.start}"
    if accepted.stop < sys.maxsize:
        text += f" and <= {accepted[-1]}"
    if accepted.step > 1:
        text += f" in steps of {accepted.step}"
    return text


@dataclass(frozen=True)
class IdentitySpec:
    id: str
    title: str
    status: str
    strategy: str
    checker: str     # "<module in this package>.<function>"
    smoke: tuple
    full: tuple
    tags: tuple = ()
    # what a key takes in place of its `_SIZES` range or grid values
    accepts: dict = field(default_factory=dict, compare=False)
    schema: dict = field(init=False, repr=False, compare=False)
    required: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"bad status {self.status!r} for {self.id}")
        if not self.smoke or not self.full:
            raise ValueError(f"{self.id} needs nonempty parameter grids")
        grids = self.smoke + self.full
        values = {}
        for inst in grids:
            for key, value in inst.items():
                values.setdefault(key, {})[value] = None
        object.__setattr__(self, "schema", {
            **{k: _SIZES.get(k, tuple(v)) for k, v in values.items()},
            **self.accepts})
        object.__setattr__(self, "required",
                           frozenset.intersection(*map(frozenset, grids)))

    @functools.cached_property
    def check(self):
        """The checker function, imported on first use."""
        module, _, name = self.checker.partition(".")
        return getattr(importlib.import_module(f"{__package__}.{module}"),
                       name)

    def validate(self, params):
        """UnsupportedArgument unless params names every key that all
        grid instances name, no key outside the schema, and only values
        the schema accepts."""
        unknown = sorted(set(params) - set(self.schema))
        if unknown:
            raise UnsupportedArgument(
                f"{self.id} has no parameter {', '.join(unknown)}; "
                f"it takes {', '.join(sorted(self.schema)) or 'none'}")
        missing = [f"{key} ({_describe(self.schema[key])})"
                   for key in sorted(self.required - set(params))]
        if missing:
            raise UnsupportedArgument(
                f"{self.id} needs parameter {', '.join(missing)}")
        for key, value in params.items():
            if not _admits(self.schema[key], value):
                shown = repr(value) if isinstance(value, str) else value
                raise UnsupportedArgument(
                    f"{self.id} does not accept {key}={shown}; {key} "
                    f"takes {_describe(self.schema[key])}")


def _grid(**axes):
    """Cartesian product of keyword ranges as a tuple of param dicts."""
    names = list(axes)
    out = []
    for combo in itertools.product(*(axes[n] for n in names)):
        out.append(dict(zip(names, combo)))
    return tuple(out)


_MSF_SHAPES = ((2, 2, 1, 1), (2, 2, 2, 1), (2, 2, 1, 2), (4, 2, 1, 1),
               (2, 4, 1, 2))

_TILDEN_FULL_FIXED = (
    {"l": 2, "n": 1}, {"l": 2, "n": 2}, {"l": 2, "n": 3}, {"l": 2, "n": 4},
    {"l": 4, "n": 1}, {"l": 4, "n": 2},
)


def _tilden_grid(case):
    smoke = ({"case": case, "l": 2, "n": 2},)
    full = tuple({"case": case, **inst} for inst in _TILDEN_FULL_FIXED)
    return smoke, full


def _tilden_free_r(case, r2, r4):
    """Grids for the cases with a free shift parameter r."""
    smoke = ({"case": case, "l": 2, "n": 2, "r": r2[0]},)
    full = []
    for inst in _TILDEN_FULL_FIXED:
        rs = r2 if inst["l"] == 2 else r4
        for r in (rs if inst["n"] <= 3 else rs[:1]):
            full.append({"case": case, **inst, "r": r})
    return smoke, tuple(full)


_SPECS = []


def _register(**kw):
    _SPECS.append(IdentitySpec(**kw))


# ----------------------------------------------------------- structural layer

_register(
    id="laplace-expansion",
    title="subset expansion of the hyperdeterminant along leading axes",
    status="theorem", strategy="random-rational-points(entries, count)",
    checker="checks_structural.check_laplace",
    smoke=({"count": 3, "orders": (2, 4), "dim": 3},),
    full=({"count": 50, "orders": (2, 4), "dim": 3},),
    tags=("structural",))

_register(
    id="hyper-minor",
    title="minors of a tensor assembled from positional index lists",
    status="theorem", strategy="random-rational-points(entries, count)",
    checker="checks_structural.check_hyper_minor",
    smoke=({"count": 3, "orders": (2, 4)},),
    full=({"count": 50, "orders": (2, 4)},),
    tags=("structural",))

_register(
    id="subpf-indicator",
    title="sub-Pfaffians of aligned-pair arrays reduce to 0/1 indicators",
    status="theorem", strategy="random-rational-points(entries, count)",
    checker="checks_structural.check_subpf_indicator",
    smoke=({"count": 3, "pairs": 2},),
    full=({"count": 50, "pairs": 3},),
    tags=("structural",))

_register(
    id="msf-general",
    title="minor summation: subset sum of weighted minors equals a "
          "kernel hyperpfaffian",
    status="theorem", strategy="random-rational-points(entries, count)",
    checker="checks_structural.check_msf_general",
    smoke=({"count": 2, "shapes": _MSF_SHAPES[:2], "max_n": 5},),
    full=({"count": 50, "shapes": _MSF_SHAPES, "max_n": 6},),
    tags=("structural",),
    # every shape's l*n block rows fit
    accepts={"max_n": _from(4)})

_register(
    id="msf-det",
    title="matrix case of the minor summation: kernel entries are "
          "weighted 2x2 minors",
    status="theorem", strategy="random-rational-points(entries, count)",
    checker="checks_structural.check_msf_det",
    smoke=({"count": 3},),
    full=({"count": 50},),
    tags=("structural",))

_register(
    id="pf-hf",
    title="diagonal weight arrays split by slot parity into signed and "
          "unsigned subset sums",
    status="theorem", strategy="random-rational-points(entries, count)",
    checker="checks_structural.check_pf_hf",
    smoke=({"count": 3, "slot_counts": (1, 2)},),
    full=({"count": 50, "slot_counts": (1, 2, 3)},),
    tags=("structural",))

_register(
    id="matsumoto",
    title="flattening a block array into long blocks preserves the "
          "hyperpfaffian",
    status="theorem", strategy="random-rational-points(entries, count)",
    checker="checks_structural.check_matsumoto",
    smoke=({"count": 2},),
    full=({"count": 50},),
    tags=("structural",))

_register(
    id="engine-exterior",
    title="enumeration engine against the exterior-algebra evaluation "
          "of the hyperdeterminant",
    status="theorem", strategy="random-rational-points(entries, count)",
    checker="checks_structural.check_engine_exterior",
    smoke=({"count": 5, "orders": (2, 4)},),
    full=({"count": 50, "orders": (2, 4)},),
    tags=("structural",))

_register(
    id="pf-definition",
    title="fast Pfaffian against the literal signed block-permutation sum",
    status="theorem", strategy="random-rational-points(entries, count)",
    checker="checks_structural.check_pf_definition",
    smoke=({"count": 3, "max_pairs": 2},),
    full=({"count": 50, "max_pairs": 3},),
    tags=("structural",))

# --------------------------------------------------------------- bridge layer

_register(
    id="debruijn-discrete",
    title="ordered integral of determinant products equals the kernel "
          "hyperpfaffian over a finite measure",
    status="theorem", strategy="discrete-measure",
    checker="checks_bridges.check_debruijn_discrete",
    smoke=({"classical": True, "n": 2},),
    full=({"classical": True, "n": 2}, {"classical": True, "n": 3},
          {"r": 1, "l": 2, "n": 2, "count": 3},
          {"r": 1, "l": 2, "n": 3, "count": 2},
          {"r": 1, "l": 4, "n": 2, "count": 2},
          {"r": 2, "l": 2, "n": 2, "count": 2},
          {"r": 2, "l": 2, "n": 4, "count": 1}),
    tags=("bridge",),
    # r counts the families here
    accepts={"classical": (True, False), "r": _from(1)})

_register(
    id="debruijn-even-r",
    title="even family counts: the signed kernel sum matches the ordered "
          "integral where the printed unsigned form does not",
    status="reported-discrepancy", strategy="discrete-measure",
    checker="checks_bridges.check_debruijn_even_r",
    smoke=({},),
    full=({},),
    tags=("bridge", "conjecture"))

_register(
    id="q-hankel",
    title="q-difference-weighted moment hyperpfaffian equals the scaled "
          "cube integral of the cancelled pair product",
    status="theorem", strategy="discrete-measure",
    checker="checks_bridges.check_q_hankel",
    smoke=({"l": 2, "n": 2, "u": 0},),
    full=_grid(l=(2, 4), n=(1, 2, 3), u=(0, 1, 2)),
    tags=("bridge",))

_register(
    id="hankel-classical",
    title="index-gap-weighted moment hyperpfaffian equals the cube "
          "integral of an even Vandermonde power",
    status="theorem", strategy="discrete-measure",
    checker="checks_bridges.check_hankel_classical",
    smoke=({"l": 2, "n": 2, "u": 0, "atoms": ((2, 1), (3, 1))},),
    full=_grid(l=(2, 4), n=(1, 2, 3), u=(0, 1, 2))
    + ({"l": 2, "n": 2, "u": 0, "atoms": ((2, 1), (3, 1))},),
    tags=("bridge",))

_register(
    id="delta-relations",
    title="rewrites among the four pair-interaction products",
    status="theorem", strategy="random-rational-points(points, count)",
    checker="checks_bridges.check_delta_relations",
    smoke=({"sizes": (2,), "ks": (1,)},),
    full=({"sizes": (2, 3), "ks": (1, 2)},),
    tags=("bridge",))

_register(
    id="delta-integral",
    title="cube integrals of the squared and doubled pair products agree",
    status="theorem", strategy="discrete-measure",
    checker="checks_bridges.check_delta_integral",
    smoke=({"n": 2, "k": 1, "atoms": 3},),
    full=({"n": 2, "k": 1, "atoms": 4}, {"n": 2, "k": 2, "atoms": 4},
          {"n": 3, "k": 1, "atoms": 4}),
    tags=("bridge",))

_register(
    id="pf-delta2",
    title="q-difference-weighted moment Pfaffian equals the normalized "
          "cube integral of the doubled pair product",
    status="theorem", strategy="discrete-measure",
    checker="checks_bridges.check_pf_delta2",
    smoke=({"n": 2, "r": 0},),
    full=_grid(n=(1, 2, 3), r=(0, 1, 2)),
    tags=("bridge",))

# ------------------------------------------------------------- integral layer

_register(
    id="selberg",
    title="closed beta-type n-fold integral against brute-force "
          "polynomial integration",
    status="theorem", strategy="exact-rational",
    checker="checks_integrals.check_selberg",
    smoke=({"n": 2, "alpha": 1, "beta": 1, "gamma": 1},),
    full=_grid(n=(1, 2, 3), alpha=(1, 2), beta=(1, 2), gamma=(1, 2)),
    tags=("integral",))

_register(
    id="aomoto",
    title="closed form of the k-marked beta-type integral against "
          "brute force",
    status="theorem", strategy="exact-rational",
    checker="checks_integrals.check_aomoto",
    smoke=({"n": 2, "k": 1, "alpha": 1, "beta": 1, "gamma": 1},),
    full=tuple(p for p in _grid(n=(1, 2, 3), k=(1, 2, 3), alpha=(1, 2),
                                beta=(1, 2), gamma=(1, 2))
               if p["k"] <= p["n"]),
    tags=("integral",))

_register(
    id="selberg-phi",
    title="binomial-product form of the half-integer beta-type integral",
    status="theorem", strategy="exact-rational",
    checker="checks_integrals.check_selberg_phi",
    smoke=({"n": 1, "r": 0, "s": 0, "m": 1},),
    full=_grid(n=(1, 2), r=(0, 1, 2), s=(0, 1, 2), m=(1, 2)),
    tags=("integral",))

_register(
    id="ahk",
    title="q-analogue of the integer-parameter beta-type integral with "
          "doubled interaction",
    status="theorem", strategy="random-rational-points(q, trials)",
    checker="checks_integrals.check_ahk",
    smoke=({"n": 2, "k": 1, "x": 1, "y": 1},),
    full=_grid(n=(1, 2, 3), k=(1, 2), x=(1, 2, 3), y=(1, 2, 3)),
    tags=("integral",))

_register(
    id="little-qjacobi-pf",
    title="shifted Pfaffian of q-difference-weighted little q-Jacobi "
          "moments in closed form",
    status="theorem", strategy="random-rational-points(a,b,q, trials)",
    checker="checks_integrals.check_little_qjacobi",
    smoke=({"n": 1, "r": 0},),
    full=_grid(n=(1, 2, 3), r=(0, 1, 2, 3)),
    tags=("integral",))

# ------------------------------------------------------------ q-polynomial layer

for _variant, _vtitle in (
        ("u-rm1", "first-kind entries at shift -1"),
        ("u-r0", "first-kind entries at shift 0"),
        ("v-rm1", "second-kind entries at shift -1"),
        ("v-r0", "second-kind entries at shift 0")):
    _register(
        id=f"asc-{_variant}",
        title=f"Pfaffian of q-difference-weighted Rogers-Szego type "
              f"polynomials, {_vtitle}",
        status="theorem", strategy="exact-symbolic-in-a",
        checker="checks_qpoly.check_asc",
        smoke=({"variant": _variant, "n": 1},),
        full=tuple({"variant": _variant, "n": n} for n in (1, 2, 3)),
        tags=("q",))

_register(
    id="ftilde-rec",
    title="closed form of the moment polynomials against their "
          "three-term recurrence",
    status="theorem", strategy="random-rational-points(t, trials)",
    checker="checks_qpoly.check_ftilde_rec",
    smoke=({"max_i": 4},),
    full=({"max_i": 8},),
    tags=("q",))

_register(
    id="rs-moment-u",
    title="discrete weight moments on [a,1] against the Rogers-Szego "
          "polynomial, floating point",
    status="theorem", strategy="numeric(1e-6)",
    checker="checks_qpoly.check_rs_moment_u",
    smoke=({"max_m": 2},),
    full=({"max_m": 4},),
    tags=("q", "numeric"),
    accepts=_FLOAT_KEYS)

_register(
    id="bf-u-integral",
    title="n-fold interaction integral of the [a,1] weight in closed "
          "form, floating point",
    status="theorem", strategy="numeric(1e-6)",
    checker="checks_qpoly.check_bf_u_integral",
    smoke=({"n": 2, "k": 1},),
    full=_grid(n=(1, 2), k=(1, 2)),
    tags=("q", "numeric"),
    accepts={**_FLOAT_KEYS, "n": range(1, 3)})

for _gx in range(1, 6):
    _register(
        id=f"gx-{_gx}",
        title=f"conjectured Pfaffian evaluation for ternary-tree "
              f"sequence {_gx}",
        status="conjecture", strategy="exact-rational",
        checker="checks_qpoly.check_gx",
        smoke=({"index": _gx, "max_n": 2},),
        full=({"index": _gx, "max_n": 5},),
        tags=("q", "conjecture"))

_register(
    id="gx-defs",
    title="ternary-tree sequences against their hypergeometric "
          "quotient series",
    status="theorem", strategy="exact-rational",
    checker="checks_qpoly.check_gx_defs",
    smoke=({"order": 6},),
    full=({"order": 8},),
    tags=("q",))

# ------------------------------------------------------- block-moment theorem

_TILDEN_META = {
    "a1": ("first family at weight one, free shift",
           "exact-rational"),
    "a2": ("first family with symbolic weight at the pinned shift",
           "exact-symbolic-in-a"),
    "a3": ("first family at a squared weight, one shift higher",
           "substitution a=s^2"),
    "b1": ("second family at weight one, free shift",
           "exact-rational"),
    "b2": ("second family with symbolic weight at the pinned shift",
           "exact-symbolic-in-a"),
    "b3": ("second family at a squared weight, one shift higher",
           "substitution a=s^2"),
    "d1": ("third family at weight one, free shift",
           "exact-rational"),
    "d2": ("third family at a cube root of unity, one shift higher",
           "quad-ext(omega)"),
}

for _case, (_subtitle, _strategy) in _TILDEN_META.items():
    if _case in ("a1", "d1"):
        _smoke, _full = _tilden_free_r(_case, (1, 3), (-2, -4))
    elif _case == "b1":
        _smoke, _full = _tilden_free_r(_case, (0, 3), (-2, -5))
    else:
        _smoke, _full = _tilden_grid(_case)
    _tags = ("narayana",)
    if _case == "d2":
        _tags = ("narayana", "tilden-d-omega")
    _register(
        id=f"tilden-{_case}",
        title=f"block-moment hyperpfaffian in closed form: {_subtitle}",
        status="theorem", strategy=_strategy,
        checker="checks_narayana.check_tilden",
        smoke=_smoke, full=_full, tags=_tags)

# ------------------------------------------------------- classical corollaries

for _seq in ("motzkin", "delannoy", "schroeder"):
    _register(
        id=f"{_seq}-pf",
        title=f"Hankel-type Pfaffian of gap-weighted {_seq} numbers in "
              f"product form",
        status="corollary", strategy="exact-rational",
        checker=f"checks_narayana.check_{_seq}_pf",
        smoke=({"n": 2},),
        full=tuple({"n": n} for n in (1, 2, 3, 4, 5)),
        tags=("narayana",))

for _seq, _strategy in (("motzkin", "exact-rational"),
                        ("delannoy", "quad-ext(sqrt2)"),
                        ("schroeder", "quad-ext(sqrt2)")):
    _register(
        id=f"{_seq}-shift",
        title=f"shifted {_seq} Pfaffian against the absolute-value "
              f"display, sign recorded",
        status="corollary", strategy=_strategy,
        checker=f"checks_narayana.check_{_seq}_shift",
        smoke=({"n": 2},),
        full=tuple({"n": n} for n in (1, 2, 3, 4)),
        tags=("narayana",))

_register(
    id="catalan-r",
    title="r-shifted Catalan Pfaffian display (size read as 2n)",
    status="reported-discrepancy", strategy="exact-rational",
    checker="checks_narayana.check_catalan_r",
    smoke=({"n": 2, "r": 1},),
    full=_grid(n=(1, 2, 3), r=(0, 1, 2, 3)),
    tags=("narayana", "conjecture"))

_register(
    id="cbc-r",
    title="r-shifted central-binomial Pfaffian display against the "
          "theorem-derived value",
    status="reported-discrepancy", strategy="exact-rational",
    checker="checks_narayana.check_cbc_r",
    smoke=({"n": 1, "r": 1},),
    full=_grid(n=(1, 2, 3), r=(0, 1, 2, 3)),
    tags=("narayana", "conjecture"))

_register(
    id="typeD-r",
    title="r-shifted third-family Pfaffian display against the signed "
          "theorem-derived value",
    status="reported-discrepancy", strategy="exact-rational",
    checker="checks_narayana.check_typed_r",
    smoke=({"n": 1, "r": 2},),
    full=_grid(n=(1, 2, 3), r=(0, 1, 2, 3)),
    tags=("narayana", "conjecture"))

for _x in ("a", "b", "d"):
    _register(
        id=f"gf-narayana-{_x}",
        title=f"algebraic generating function of the type-{_x.upper()} "
              f"polynomials against direct values",
        status="corollary", strategy="exact-rational",
        checker="checks_narayana.check_gf_narayana",
        smoke=({"type": _x.upper(), "order": 8, "a": 1},),
        full=({"type": _x.upper(), "order": 12, "a": 1},
              {"type": _x.upper(), "order": 12, "a": "random"}),
        tags=("gf",))

_SPECIAL_META = (
    ("cat", "first family at weight one gives the ballot numbers",
     "exact-rational"),
    ("sch", "first family at weight two gives the bracketing numbers",
     "exact-rational"),
    ("cbc", "second family at weight one gives the central binomials",
     "exact-rational"),
    ("del", "second family at weight two gives the king-walk numbers",
     "exact-rational"),
    ("dcount", "third family at weight one in closed product form",
     "exact-rational"),
    ("motzkin", "cube-root route to the unit-step path numbers",
     "quad-ext(omega)"),
    ("ctc", "cube-root route to the central trinomials",
     "quad-ext(omega)"),
    ("motd", "cube-root route to the third-family path numbers",
     "quad-ext(omega)"),
)

for _which, _subtitle, _strategy in _SPECIAL_META:
    _register(
        id=f"special-{_which}",
        title=f"sequence specialization: {_subtitle}",
        status="corollary", strategy=_strategy,
        checker="checks_narayana.check_special",
        smoke=({"which": _which, "max_n": 5},),
        full=({"which": _which, "max_n": 10},),
        tags=("gf",))


REGISTRY = tuple(_SPECS)
_BY_ID = {spec.id: spec for spec in REGISTRY}
if len(_BY_ID) != len(REGISTRY):
    raise RuntimeError("duplicate identity ids in registry")


def all_identities():
    return REGISTRY


def get_identity(identity: str) -> IdentitySpec:
    try:
        return _BY_ID[identity]
    except KeyError:
        raise UnknownIdentity(f"no registered identity {identity!r}") \
            from None


def filter_identities(tag=None):
    """Specs whose id, status, or tag set matches the filter."""
    if tag is None:
        return REGISTRY
    hits = tuple(spec for spec in REGISTRY
                 if spec.id == tag or spec.status == tag or tag in spec.tags)
    if not hits:
        raise UnknownTag(f"filter {tag!r} matches no identity, status, "
                         "or tag")
    return hits

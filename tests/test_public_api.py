import inspect

import permotzkin
from permotzkin import algebra, identities, motzkin, permutations

# Each name removed as a second spelling of another or as a wrapper, with the
# module or class that held it: four_stats(p) is image_stats(p.images),
# depth(p) and the three counts are its entries, p.n is len(p), perm(i) is
# perm.images[i - 1], poly.is_zero() is `not poly`, iterating a poly is
# sorted(poly.terms().items(), reverse=True), binomial is math.comb, a
# WeightedStep and path.steps are the path's records (to_records) or flat
# tuples, str(kind) is kind.value, a TableCell is a (k, expected,
# computed) tuple, and packed_key and from_packed, which exposed the key
# layout, are the tuple constructor MultiPoly({exponents: coeff}).  That
# constructor is also the one way to build a polynomial: MultiPoly.zero() is
# MultiPoly(), one() is MultiPoly.constant(1), monomial(e) is
# MultiPoly({e: 1}), variable(name) is Q, P, S or T, and poly.coefficient(m)
# is poly.terms().get(m, 0).  Permutation.identity(n) is
# Permutation(tuple(range(1, n + 1))); inverse and is_alternating, which only
# the tests called, are test oracles in tests/oracles.py.  unpack_q, which
# only expand's DP calls, is algebra._unpack_q.
REMOVED = {
    permutations: (
        "four_stats", "inv_count", "fix_count", "exc_count", "depth", "is_alternating"
    ),
    permutations.Permutation: ("n", "identity", "inverse"),
    algebra.MultiPoly: (
        "is_zero",
        "__iter__",
        "packed_key",
        "from_packed",
        "zero",
        "one",
        "monomial",
        "variable",
        "coefficient",
        "unpack_q",
        "constant_value",
    ),
    algebra: ("binomial",),
    motzkin: ("WeightedStep",),
    motzkin.WeightedMotzkinPath: ("steps",),
    identities: ("TableCell",),
    permotzkin: (
        "four_stats",
        "inv_count",
        "fix_count",
        "exc_count",
        "depth",
        "binomial",
        "WeightedStep",
        "is_alternating",
    ),
}


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(permotzkin).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(permotzkin.__all__) == sorted(public)


def test_removed_names_stay_removed():
    for owner, names in REMOVED.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)


def test_removed_methods_stay_removed():
    # hasattr finds __call__ and __str__ on every class: test an instance, and the enum's own namespace
    assert not callable(permutations.Permutation((1, 2)))
    assert "__str__" not in vars(motzkin.StepKind)

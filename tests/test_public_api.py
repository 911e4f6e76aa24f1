import inspect

import permotzkin
from permotzkin import algebra, identities, motzkin, permutations

# Each name removed as a second spelling of another or as a wrapper, with the
# module or class that held it: four_stats(p) is image_stats(p.images),
# depth(p) and the three counts are its entries, p.n is len(p), perm(i) is
# perm.images[i - 1], poly.is_zero() is `not poly`, iterating a poly is
# sorted(poly.terms().items(), reverse=True), binomial is math.comb, a
# WeightedStep and path.steps are the path's records (to_records) or flat
# tuples, str(kind) is kind.value, and a TableCell is a (k, expected,
# computed) tuple.
REMOVED = {
    permutations: ("four_stats", "inv_count", "fix_count", "exc_count", "depth"),
    permutations.Permutation: ("n",),
    algebra.MultiPoly: ("is_zero", "__iter__"),
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
    assert not callable(permutations.Permutation.identity(2))
    assert "__str__" not in vars(motzkin.StepKind)

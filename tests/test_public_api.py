import inspect

import permotzkin
from permotzkin import algebra, permutations

# Each name removed as a second spelling of another, with the module or
# class that held it: four_stats(p) is image_stats(p.images), depth(p) and
# the three counts are its entries, p.n is len(p), poly.is_zero() is
# `not poly`, iterating a poly is sorted(poly.terms().items(), reverse=True),
# and binomial is math.comb.
REMOVED = {
    permutations: ("four_stats", "inv_count", "fix_count", "exc_count", "depth"),
    permutations.Permutation: ("n",),
    algebra.MultiPoly: ("is_zero", "__iter__"),
    algebra: ("binomial",),
    permotzkin: ("four_stats", "inv_count", "fix_count", "exc_count", "depth", "binomial"),
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

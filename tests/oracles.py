"""Permutation oracles that only the tests use: the library never needs them."""

from permotzkin.permutations import Permutation


def inverse(perm: Permutation) -> Permutation:
    """The inverse permutation: sigma^-1(sigma(i)) = i."""
    images = [0] * len(perm)
    for i, v in enumerate(perm.images, start=1):
        images[v - 1] = i
    return Permutation(tuple(images))


def is_alternating(perm: Permutation) -> bool:
    """True for the down-up pattern sigma(1) > sigma(2) < sigma(3) > ...;
    S_n holds E_n such permutations."""
    images = perm.images
    return all((a > b) == (i % 2 == 0) for i, (a, b) in enumerate(zip(images, images[1:])))

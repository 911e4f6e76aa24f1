"""Encoding permutations as weighted 3-colored Motzkin paths, and back.

Position i of sigma becomes a step by comparing sigma(i) and sigma^-1(i)
with i:

* both larger   -> U   (cycle valley: the position opens an out-arc i -> sigma(i)
                        and an in-arc that a later position will close);
* both smaller  -> D   (cycle peak: closes one out-arc and one in-arc);
* sigma^-1(i) < i < sigma(i) -> H1 (double ascent: closes an out-arc, opens one);
* sigma(i) < i < sigma^-1(i) -> H2 (double descent: closes an in-arc, opens one);
* sigma(i) = i  -> H3.

Heights then match the number of arcs open over each gap, so the step kinds
and heights are forced; the information content of sigma sits in which open
arc each closing step picks.  Choice indices record those picks as nesting
ranks:

* a step closing an out-arc (D or H1) at position m stores the rank of the
  arc's opener among all out-arc openers still open at m;
* a step closing an in-arc (D or H2) at position m stores the rank of the
  in-arc's endpoint among all in-arc endpoints still open at m; for a D step
  this second rank is carried by the matching U step (U and D steps pair up
  like parentheses level by level), which keeps every choice index inside
  the menu range 0..height-1.

Under this labeling the path weight multiplies out to exactly
q^inv * p^fix * s^exc * t^depth; the test suite checks bijectivity and
weight preservation exhaustively through n = 8.
"""

from __future__ import annotations

from .motzkin import (
    KIND_D,
    KIND_H1,
    KIND_H2,
    KIND_H3,
    KIND_U,
    WeightedMotzkinPath,
    _flat_path,
    ensure_valid,
)
from .permutations import Permutation


def encode(perm: Permutation) -> WeightedMotzkinPath:
    """Map a permutation to its weighted Motzkin path."""
    images = perm.images
    n = len(images)
    inverse = [0] * (n + 1)
    for i, v in enumerate(images, start=1):
        inverse[v] = i

    kinds: list[int] = []
    heights: list[int] = []
    choices = [0] * n
    stack: list[int] = []  # open U indexes, for level pairing
    running = 0
    for m in range(1, n + 1):
        v = images[m - 1]
        w = inverse[m]
        if v == m:
            kinds.append(KIND_H3)
            heights.append(running)
            continue
        if v > m and w > m:
            running += 1
            kinds.append(KIND_U)
            heights.append(running)
            stack.append(m - 1)
            continue
        if v < m and w < m:
            kinds.append(KIND_D)
            heights.append(running)
            running -= 1
        else:
            kinds.append(KIND_H1 if v > m else KIND_H2)
            heights.append(running)
        if w < m:  # D or H1: rank of the opener among the out-arcs open at m
            choices[m - 1] = sum(1 for k in range(1, w) if images[k - 1] > m)
        if v < m:  # D or H2: rank of the endpoint among the in-arcs open at m
            in_rank = sum(1 for c in range(1, v) if inverse[c] > m)
            if w < m:
                choices[stack.pop()] = in_rank
            else:
                choices[m - 1] = in_rank

    return _flat_path(tuple(kinds), tuple(heights), tuple(choices))


def decode(path: WeightedMotzkinPath) -> Permutation:
    """Invert :func:`encode`; rejects invalid paths."""
    ensure_valid(path)
    images = [0] * (len(path) + 1)
    # Positions only grow, so appending keeps these lists sorted.
    open_out: list[int] = []  # positions awaiting their image
    open_in: list[int] = []  # positions awaiting their preimage
    pending: list[int] = []  # choices of the unmatched U steps: their D's in-arc rank
    for m, (kind, choice) in enumerate(zip(path.kinds, path.choices), start=1):
        if kind == KIND_U:
            open_out.append(m)
            open_in.append(m)
            pending.append(choice)
        elif kind == KIND_H3:
            images[m] = m
        elif kind == KIND_H1:
            images[open_out.pop(choice)] = m
            open_out.append(m)
        elif kind == KIND_H2:
            images[m] = open_in.pop(choice)
            open_in.append(m)
        else:  # D
            images[open_out.pop(choice)] = m
            images[m] = open_in.pop(pending.pop())

    return Permutation(tuple(images[1:]))

"""The verification battery behind ``permotzkin verify``.

Each check replays one family of identities at desk scale and emits one
record per parameter value.  Everything is exact: a record passes only when
the expected and computed texts are identical.

``CHECK_TABLE`` is the battery: it maps each check name to a function of
one n, which returns the expected and computed texts for that n, and to the
n it covers for a given ``max_n``: from its first n through an entry of
``errors.LIMITS``, where every last n is written.  One runner times each n,
including all the work behind it, and builds its ``ReportRecord``;
``CHECKS`` holds one runner per name.

The S_n walks do each permutation's work once, and share one table:
``involution._stats_by_rank(n)``, the packed (inv, fix, exc, depth) of every
permutation by lexicographic rank, the order of ``itertools.permutations``,
built once per n by a recurrence that never looks at a permutation.
``bijection`` validates each image once, in ``motzkin.path_exponents``,
which also sums its weight, compares that weight with the table's entry,
and compares the decode kernel's images with the permutation's.  So it
checks every entry of the table too.  It keeps no path set: validation,
the round trip and the n! of ``cardinality`` make its image the whole set.
``involution`` reads ``_pairing(n)``, built from the same table, and the
table itself, loops over ranks, keeps no permutation and unranks one only
to name a failure.  A partner rank outside 0 .. n! - 1 is reported as not
involutive.  Neither walk calls ``image_stats``; ``depth-min-cost`` holds
it to the factorization oracle.
``level-weights`` holds the step menus to ``expand``'s own coefficients.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

from . import bijection, identities, involution, jfraction, motzkin
from .algebra import MultiPoly, S, T
from .errors import LIMITS, check_size
from .motzkin import StepKind
from .permutations import Permutation, depth_via_factorization, image_stats, iter_group


@dataclass(frozen=True)
class ReportRecord:
    check: str
    n: int
    expected: str
    computed: str
    status: str
    elapsed_ms: float

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def as_record(self, timings: bool = False) -> dict:
        record = {
            "check": self.check,
            "n": self.n,
            "expected": self.expected,
            "computed": self.computed,
            "status": self.status,
        }
        if timings:
            record["elapsed_ms"] = round(self.elapsed_ms, 3)
        return record


def _bijection(n: int) -> tuple[str, str]:
    expected = f"bijective onto the {n}! weighted paths, weights preserved"
    for perm, stats in zip(iter_group(n), involution._stats_by_rank(n)):
        path = bijection.encode(perm)
        # a valid path's exponents are some permutation's statistics, each below 256
        if involution._pack(motzkin.path_exponents(path)) != stats:
            return expected, f"weight mismatch at {perm.to_text()!r}"
        if bijection._decode_images(path) != perm.images:
            return expected, f"round trip failed at {perm.to_text()!r}"
    return expected, expected


def _cardinality(n: int) -> tuple[str, str]:
    count = sum(1 for _ in motzkin.enumerate_weighted(n))
    return f"{math.factorial(n)} paths", f"{count} paths"


def _refined_cf(n: int) -> tuple[str, str]:
    series = jfraction.expand(jfraction.preset_refined(), n)
    return str(jfraction.brute_force_gf(n)), str(series[n])


def _depth_cf(n: int) -> tuple[str, str]:
    series = jfraction.expand(jfraction.preset_depth(), n)
    return str(jfraction.brute_force_depth_gf(n)), str(series[n])


def _imbalance_depth(n: int) -> tuple[str, str]:
    expected = involution.euler_numbers(n)[n] if n % 2 else 0
    return str(expected), str(involution.sign_imbalance_depth(n))


def _imbalance_exc(n: int) -> tuple[str, str]:
    expected = (-1) ** ((n - 1) // 2) * involution.euler_numbers(n)[n] if n % 2 else 0
    return str(expected), str(involution.sign_imbalance_exc(n))


def _involution(n: int) -> tuple[str, str]:
    summary = "involutive, equal deltas in {{1,0,-1}}, {} fixed points".format
    expected = summary(involution.euler_numbers(n)[n] if n % 2 else 0)
    partner = involution._pairing(n)
    stats = involution._stats_by_rank(n)
    triple, deltas = involution._TRIPLE, (-involution._UNIT, 0, involution._UNIT)
    fixed = 0
    for rank, other in enumerate(partner):
        if 0 <= other < len(stats) and partner[other] == rank:
            # fields stay below 128 at n <= 9, so this packed difference is 0 or
            # +-_UNIT only when inv, exc and depth all move by the same delta in {-1, 0, 1}
            delta = (stats[other] & triple) - (stats[rank] & triple)
            if delta not in deltas:
                problem = "delta law broken"
            elif (delta == 0) != (other == rank):
                problem = "delta/fixed mismatch"
            else:
                fixed += other == rank
                continue
        else:
            problem = "not involutive"
        return expected, f"{problem} at {Permutation(involution._unrank(rank, n)).to_text()!r}"
    return expected, summary(fixed)


def _signed_gf(n: int) -> tuple[str, str]:
    expected = (MultiPoly.one() - S * T) ** (n - 1)
    return str(expected), str(identities.signed_gf_permutations(n))


def _derangement_series(n: int) -> tuple[str, str]:
    expected = identities._rhs_coefficient(n)
    return str(expected), str(identities.derangement_signed_gf(n))


def _derangement_table(n: int) -> tuple[str, str]:
    row = identities.derangement_table_row(n)
    expected = f"{len(row)} cells match"
    for k, want, got in row:
        if want != got:
            return expected, f"t^{k}: expected {want}, got {got}"
    return expected, expected


def _level_weights(h: int) -> tuple[str, str]:
    expected = "step sums match the level coefficients"
    mismatch = f"mismatch at height {h}"

    def weights(kind: StepKind) -> MultiPoly:
        return MultiPoly.sum(motzkin.step_weight(kind, h, d) for d in range(h))

    spec = jfraction.preset_refined()
    gamma_sum = weights(StepKind.H1) + weights(StepKind.H2)
    gamma_sum = gamma_sum + motzkin.step_weight(StepKind.H3, h, 0)
    if gamma_sum != spec.gamma(h):
        return expected, mismatch
    if h >= 1 and weights(StepKind.U) * weights(StepKind.D) != spec.lam(h):
        return expected, mismatch
    return expected, expected


def _depth_min_cost(n: int) -> tuple[str, str]:
    expected = "minimum factorization cost equals depth"
    for perm in iter_group(n):
        if depth_via_factorization(perm) != image_stats(perm.images)[3]:
            return expected, f"mismatch at {perm.to_text()!r}"
    return expected, expected


def _through(first: int, last: str = "verify") -> Callable[[int], range]:
    """n = first .. the bound of ``LIMITS[last]``, and none above ``max_n``."""
    return lambda max_n: range(first, min(LIMITS[last].bound, max_n) + 1)


#: name -> (the check of one n, returning its expected and computed texts;
#: the n it covers for a given ``max_n``).
CHECK_TABLE: dict[str, tuple[Callable[[int], tuple[str, str]], Callable[[int], range]]] = {
    "bijection": (_bijection, _through(0, "verify-walks")),
    "cardinality": (_cardinality, _through(0, "verify-walks")),
    "refined-cf": (_refined_cf, _through(0, "verify-walks")),
    "depth-cf": (_depth_cf, _through(0)),
    "imbalance-depth": (_imbalance_depth, _through(1)),
    "imbalance-exc": (_imbalance_exc, _through(1)),
    "involution": (_involution, _through(1, "verify-walks")),
    "signed-gf": (_signed_gf, _through(1)),
    "derangement-series": (_derangement_series, _through(1)),
    "derangement-table": (
        _derangement_table,
        lambda max_n: range(2, LIMITS["derangement-table"].bound + 1),
    ),
    "level-weights": (_level_weights, _through(0, "verify-small")),
    "depth-min-cost": (_depth_min_cost, _through(0, "verify-small")),
}


def _runner(name: str) -> Callable[[int], list[ReportRecord]]:
    """The records of check ``name``, looked up in ``CHECK_TABLE`` per call."""

    def run(max_n: int) -> list[ReportRecord]:
        check, covers = CHECK_TABLE[name]
        records = []
        for n in covers(max_n):
            started = time.perf_counter()
            expected, computed = check(n)
            status = "pass" if expected == computed else "fail"
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            records.append(ReportRecord(name, n, expected, computed, status, elapsed_ms))
        return records

    return run


CHECKS = {name: _runner(name) for name in CHECK_TABLE}


def run_checks(names: list[str] | None = None, max_n: int = 6) -> list[ReportRecord]:
    """Run the named checks (all by default) and return sorted records."""
    check_size(max_n, "verify")
    selected = list(CHECKS) if not names else names
    unknown = [name for name in selected if name not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    records: list[ReportRecord] = []
    for name in dict.fromkeys(selected):  # each check once, however often named
        records.extend(CHECKS[name](max_n))
    records.sort(key=lambda record: (record.check, record.n))
    return records

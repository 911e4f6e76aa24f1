"""The verification battery behind ``permotzkin verify``.

Each check replays one family of identities at desk scale and emits one
record per parameter value.  Everything is exact: a record passes only when
the expected and computed texts are identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import bijection, identities, involution, jfraction, motzkin
from .algebra import MultiPoly, P, Q, S, T, q_integer
from .errors import SizeLimitError
from .motzkin import StepKind, WeightedStep
from .permutations import depth, depth_via_factorization, four_stats, iter_group

#: verify is refused beyond this bound.
VERIFY_LIMIT = 9


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


def _record(check: str, n: int, expected: str, computed: str, started: float) -> ReportRecord:
    return ReportRecord(
        check=check,
        n=n,
        expected=expected,
        computed=computed,
        status="pass" if expected == computed else "fail",
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
    )


def _check_bijection(max_n: int) -> list[ReportRecord]:
    records = []
    for n in range(min(max_n, 8) + 1):
        started = time.perf_counter()
        expected = f"bijective onto the {n}! weighted paths, weights preserved"
        problem = ""
        seen = set()
        for perm in iter_group(n):
            path = bijection.encode(perm)
            if motzkin.path_exponents(path) != four_stats(perm):
                problem = f"weight mismatch at {perm.to_text()!r}"
                break
            if bijection.decode(path) != perm:
                problem = f"round trip failed at {perm.to_text()!r}"
                break
            seen.add(path)
        if not problem:
            universe = set(motzkin.enumerate_weighted(n))
            if seen != universe:
                problem = "image is not the full path set"
        records.append(_record("bijection", n, expected, problem or expected, started))
    return records


def _check_cardinality(max_n: int) -> list[ReportRecord]:
    records = []
    factorial = 1
    for n in range(min(max_n, 8) + 1):
        if n:
            factorial *= n
        started = time.perf_counter()
        count = sum(1 for _ in motzkin.enumerate_weighted(n))
        records.append(
            _record("cardinality", n, f"{factorial} paths", f"{count} paths", started)
        )
    return records


def _check_refined_cf(max_n: int) -> list[ReportRecord]:
    order = min(max_n, 8)
    series = jfraction.expand(jfraction.preset_refined(), order)
    records = []
    for n in range(order + 1):
        started = time.perf_counter()
        expected = jfraction.brute_force_gf(n)
        records.append(
            _record("refined-cf", n, str(expected), str(series[n]), started)
        )
    return records


def _check_depth_cf(max_n: int) -> list[ReportRecord]:
    series = jfraction.expand(jfraction.preset_depth(), max_n)
    records = []
    for n in range(max_n + 1):
        started = time.perf_counter()
        expected = jfraction.brute_force_depth_gf(n)
        records.append(_record("depth-cf", n, str(expected), str(series[n]), started))
    return records


def _imbalance_records(check: str, max_n: int, signed: bool) -> list[ReportRecord]:
    euler = involution.euler_numbers(max_n)
    records = []
    for n in range(1, max_n + 1):
        started = time.perf_counter()
        if n % 2 == 0:
            expected = 0
        elif signed and ((n - 1) // 2) % 2 == 1:
            expected = -euler[n]
        else:
            expected = euler[n]
        computed = (
            involution.sign_imbalance_exc(n) if signed else involution.sign_imbalance_depth(n)
        )
        records.append(_record(check, n, str(expected), str(computed), started))
    return records


def _check_imbalance_depth(max_n: int) -> list[ReportRecord]:
    return _imbalance_records("imbalance-depth", max_n, signed=False)


def _check_imbalance_exc(max_n: int) -> list[ReportRecord]:
    return _imbalance_records("imbalance-exc", max_n, signed=True)


def _check_involution(max_n: int) -> list[ReportRecord]:
    euler = involution.euler_numbers(min(max_n, 8))
    records = []
    for n in range(1, min(max_n, 8) + 1):
        started = time.perf_counter()
        expected = (
            f"involutive, equal deltas in {{1,0,-1}}, "
            f"{euler[n] if n % 2 else 0} fixed points"
        )
        problem = ""
        fixed = 0
        for perm in iter_group(n):
            partner = involution.parity_reversing_involution(perm)
            if involution.parity_reversing_involution(partner) != perm:
                problem = f"not involutive at {perm.to_text()!r}"
                break
            pi, _, pe, pd = four_stats(perm)
            qi, _, qe, qd = four_stats(partner)
            delta = pi - qi
            if not (delta == pe - qe == pd - qd and delta in (-1, 0, 1)):
                problem = f"delta law broken at {perm.to_text()!r}"
                break
            if (delta == 0) != (partner == perm):
                problem = f"delta/fixed mismatch at {perm.to_text()!r}"
                break
            if partner == perm:
                fixed += 1
        computed = problem or (
            f"involutive, equal deltas in {{1,0,-1}}, {fixed} fixed points"
        )
        records.append(_record("involution", n, expected, computed, started))
    return records


def _check_signed_gf(max_n: int) -> list[ReportRecord]:
    records = []
    for n in range(1, max_n + 1):
        started = time.perf_counter()
        expected = (MultiPoly.one() - S * T) ** (n - 1)
        computed = identities.signed_gf_permutations(n)
        records.append(_record("signed-gf", n, str(expected), str(computed), started))
    return records


def _check_derangement_series(max_n: int) -> list[ReportRecord]:
    series = identities.derangement_series_rhs(max_n)
    records = []
    for n in range(1, max_n + 1):
        started = time.perf_counter()
        computed = identities.derangement_signed_gf(n)
        records.append(
            _record("derangement-series", n, str(series[n]), str(computed), started)
        )
    return records


def _check_derangement_table(max_n: int) -> list[ReportRecord]:
    del max_n  # the anchor table always spans n = 2..9
    cells = identities.derangement_table_report()
    records = []
    for n in identities.TABLE_RANGE:
        started = time.perf_counter()
        row = [cell for cell in cells if cell.n == n]
        bad = [cell for cell in row if not cell.matches]
        expected = f"{len(row)} cells match"
        if bad:
            cell = bad[0]
            computed = (
                f"t^{cell.t_power}: expected {cell.expected}, got {cell.computed}"
            )
        else:
            computed = expected
        records.append(_record("derangement-table", n, expected, computed, started))
    return records


def _check_level_weights(max_n: int) -> list[ReportRecord]:
    records = []
    qt = Q * T
    for h in range(min(max_n, 6) + 1):
        started = time.perf_counter()
        gamma_sum = MultiPoly.zero()
        for kind in (StepKind.H1, StepKind.H2):
            if h >= 1:
                for d in range(h):
                    gamma_sum = gamma_sum + motzkin.step_weight(WeightedStep(kind, h, d))
        gamma_sum = gamma_sum + motzkin.step_weight(WeightedStep(StepKind.H3, h, 0))
        gamma_formula = ((1 + S) * q_integer(h) + P * Q**h) * qt**h
        ok = gamma_sum == gamma_formula
        if h >= 1:
            up = sum(
                (motzkin.step_weight(WeightedStep(StepKind.U, h, d)) for d in range(h)),
                MultiPoly.zero(),
            )
            down = sum(
                (motzkin.step_weight(WeightedStep(StepKind.D, h, d)) for d in range(h)),
                MultiPoly.zero(),
            )
            ok = ok and up * down == S * q_integer(h) ** 2 * qt ** (2 * h - 1)
        expected = "step sums match the level coefficients"
        computed = expected if ok else f"mismatch at height {h}"
        records.append(_record("level-weights", h, expected, computed, started))
    return records


def _check_depth_min_cost(max_n: int) -> list[ReportRecord]:
    records = []
    for n in range(min(max_n, 6) + 1):
        started = time.perf_counter()
        bad = ""
        for perm in iter_group(n):
            if depth_via_factorization(perm) != depth(perm):
                bad = f"mismatch at {perm.to_text()!r}"
                break
        expected = "minimum factorization cost equals depth"
        records.append(_record("depth-min-cost", n, expected, bad or expected, started))
    return records


CHECKS = {
    "bijection": _check_bijection,
    "cardinality": _check_cardinality,
    "refined-cf": _check_refined_cf,
    "depth-cf": _check_depth_cf,
    "imbalance-depth": _check_imbalance_depth,
    "imbalance-exc": _check_imbalance_exc,
    "involution": _check_involution,
    "signed-gf": _check_signed_gf,
    "derangement-series": _check_derangement_series,
    "derangement-table": _check_derangement_table,
    "level-weights": _check_level_weights,
    "depth-min-cost": _check_depth_min_cost,
}


def run_checks(names: list[str] | None = None, max_n: int = 6) -> list[ReportRecord]:
    """Run the named checks (all by default) and return sorted records."""
    if max_n < 0:
        raise ValueError(f"max_n must be non-negative, got {max_n}")
    if max_n > VERIFY_LIMIT:
        raise SizeLimitError(f"verify is limited to max_n <= {VERIFY_LIMIT}")
    selected = list(CHECKS) if not names else names
    unknown = [name for name in selected if name not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    records: list[ReportRecord] = []
    for name in selected:
        records.extend(CHECKS[name](max_n))
    records.sort(key=lambda record: (record.check, record.n))
    return records

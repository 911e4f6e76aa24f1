"""How far ``verify`` reaches: seeded defects that its checks must catch.

Each row adds the term q^h s t^h to one coefficient of ``preset_refined``,
gamma_h or lambda_h at one height h, and runs the checks that should catch
it.  ``REACH`` gives, per coefficient and check, the largest h that the
check is asserted to catch; every h up to it is a row.  gamma_h first enters
the series at order 2h + 1 and lambda_h at 2h, so ``refined-cf`` through
n = 8 reaches gamma_3 and lambda_4.  ``level-weights`` holds the step menus
to the spec through height 9, the bound of ``max_n``, whatever S_n says.

A reach is a lower bound: a change that widens a check raises it, and no
row asserts that a defect escapes, since such a test would fail each time
coverage grows.
"""

import pytest

from permotzkin import jfraction, verify
from permotzkin.algebra import Q, S, T
from permotzkin.jfraction import JFractionSpec

CHECKS = ["refined-cf", "level-weights"]

#: coefficient -> check -> the largest height h whose defect the check catches
REACH = {
    "gamma": {"refined-cf": 3, "level-weights": 9},
    "lam": {"refined-cf": 4, "level-weights": 9},
}

ROWS = [
    (coefficient, h)
    for coefficient, reach in REACH.items()
    for h in range(coefficient == "lam", max(reach.values()) + 1)
]


def defective_refined(coefficient: str, h: int):
    """``preset_refined`` with q^h s t^h added to its gamma_h or lambda_h."""
    spec = jfraction.preset_refined()
    parts = {"gamma": spec.gamma, "lam": spec.lam}
    exact = parts[coefficient]
    parts[coefficient] = lambda k: exact(k) + Q**h * S * T**h if k == h else exact(k)
    return lambda: JFractionSpec(max_order=spec.max_order, **parts)


@pytest.mark.parametrize("coefficient, h", ROWS)
def test_a_seeded_coefficient_defect_fails_every_check_that_reaches_it(
    monkeypatch, coefficient, h
):
    monkeypatch.setattr(jfraction, "preset_refined", defective_refined(coefficient, h))
    records = verify.run_checks(CHECKS, max_n=9)
    failed = {record.check for record in records if not record.passed}
    reaching = {check for check, reach in REACH[coefficient].items() if h <= reach}
    assert reaching <= failed

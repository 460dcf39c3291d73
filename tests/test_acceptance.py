"""The full numbered verification battery, one test per criterion.

Each test runs its criterion through a shared Battery (expensive runs are
memoized across criteria), prints the one-line verdict, and asserts the
pass flag with the measured details in the failure message.  Criterion 8
is expected to fail: the slow-decay tail cannot vacate half the domain by
t = 0.01 for any admissible configuration, and the test records that
honestly instead of loosening the check.  The whole module takes a few
minutes; the reference-resolution extinction run dominates.
"""

import json
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from vhjlab.acceptance import CRITERIA, SUITES, Battery, _criterion
from vhjlab.solver import Outcome


@pytest.fixture(scope="module")
def battery():
    return Battery(seed=17)


def _check(result):
    print(result.line())
    assert result.passed, (
        f"{result.line()}\n{json.dumps(result.details, default=str, indent=2)}")


def test_01_exponent_identities_hold(battery):
    _check(battery.criterion_1())


def test_a_criterion_called_directly_matches_its_suite_record(battery):
    direct = asdict(battery.criterion_1())
    listed = asdict(Battery(seed=17).run_criteria([1])[0])
    del direct["elapsed"], listed["elapsed"]
    assert direct == listed
    assert direct["number"] == 1


def test_every_criterion_is_registered_once_with_a_title():
    assert sorted(CRITERIA) == list(SUITES["all"])
    for n, title in CRITERIA.items():
        assert isinstance(title, str) and title
        assert callable(getattr(Battery, f"criterion_{n}").__wrapped__)
    with pytest.raises(ValueError, match="criterion 1 is registered twice"):
        _criterion(1, "again")


def test_a_criterion_that_raises_fails_and_the_next_one_runs(monkeypatch):
    # criterion 5 fits its rate against T_e before it checks the outcome: a
    # bump that no longer goes extinct makes that fit raise, which fails
    # criterion 5 alone
    t = np.linspace(0.0, 1.0, 50)
    alive = SimpleNamespace(outcome=Outcome.HORIZON_REACHED, T_e_est=None,
                            series={"t": t, "sup": 1.0 - 0.5 * t})
    monkeypatch.setattr(Battery, "run", lambda self, name, **overrides: alive)
    fifth, first = Battery(seed=17).run_criteria([5, 1])
    assert (fifth.number, fifth.passed) == (5, False)
    assert list(fifth.details) == ["error"]
    assert fifth.details["error"].startswith("TypeError: unsupported operand type(s)")
    assert (first.number, first.passed) == (1, True)


def test_02_barrier_solves_operator_exactly(battery):
    _check(battery.criterion_2())


def test_03_closed_form_sign_certificates(battery):
    _check(battery.criterion_3())


def test_04_one_step_scheme_structure(battery):
    _check(battery.criterion_4())


def test_04_margins_where_the_sides_differ_are_negative(battery):
    details = battery.criterion_4().details
    margins = details["worst_where_sides_differ"]
    assert margins.keys() == details["worst_violation"].keys()
    for name, worst in margins.items():
        assert worst is None or worst < 0.0, (name, worst)


def test_05_reference_bump_extinction_rate(battery):
    _check(battery.criterion_5())


def test_06_support_collapse_rate(battery):
    _check(battery.criterion_6())


def test_07_support_confined_to_initial_ball(battery):
    _check(battery.criterion_7())


def test_07_details_report_the_a_priori_localization_bound(battery):
    # R0 + (sup u0 / kappa)^(1/omega) = 1 + ((1/96) / (1/12))^(1/3) = 1.5
    details = battery.criterion_7().details
    assert abs(details["localization_radius"] - 1.5) <= 1e-14
    assert details["max_support"] <= details["localization_radius"]


def test_08_slow_decay_tail_shrinks_to_bounded_set(battery):
    _check(battery.criterion_8())


def test_08_details_date_the_half_domain_crossing(battery):
    # the criterion stays red; its details still date the crossing, from
    # a longer run of the same recipe
    details = battery.criterion_8().details
    assert not details["probe_ok"]
    assert 0.05 < details["half_domain_cross_time"] < 0.051


def test_09_fat_tail_survives_past_horizon(battery):
    _check(battery.criterion_9())


def test_10_complete_extinction_keeps_ball_positive(battery):
    _check(battery.criterion_10())


def test_11_gradient_envelope_refinement_stable(battery):
    _check(battery.criterion_11())


def test_11_details_are_the_quotient_envelopes(battery):
    # the envelope is the largest quotient, not the largest sample time
    from vhjlab.acceptance import PROBLEM_B
    from vhjlab.analysis import gradient_quotient
    details = battery.criterion_11().details["singular"]
    for M in (2048, 4096):
        res = battery.run("bump_b", **{"grid.M": M})
        quot = gradient_quotient(res.series["t"], res.series["grad_pow_sup"],
                                 res.sup0, PROBLEM_B)
        assert details[f"envelope_M{M}"] == quot.max()


def test_12_flatness_floor_and_flux_balance_persist(battery):
    _check(battery.criterion_12())


def test_13_extinction_beats_certified_horizon(battery):
    _check(battery.criterion_13())

import math
from dataclasses import replace

import numpy as np
import pytest

from taucalc import chain, validation
from taucalc.chain import eigen_residual
from taucalc.validation import (CRITERIA, Check, CriterionResult, SuiteData,
                                _perturbed_kernel_pair, criterion_eigen_chain,
                                _spot_perturbed_residual, format_report,
                                run_criteria)


def test_check_upper_bound():
    assert Check("x", 1e-12, 1e-10).passed
    assert not Check("x", 1e-8, 1e-10).passed


def test_check_at_least():
    assert Check("x", 2.0, 1.0, at_least=True).passed
    assert not Check("x", 0.5, 1.0, at_least=True).passed


def test_check_nan_fails():
    assert not Check("x", math.nan, 1e-10).passed
    assert not Check("x", math.inf, 1e-10).passed


def test_criterion_result_aggregates():
    good = Check("a", 0.0, 1.0)
    bad = Check("b", 2.0, 1.0)
    assert CriterionResult("demo", [good]).passed
    assert not CriterionResult("demo", [good, bad]).passed


def test_registry_has_twelve_criteria():
    assert len(CRITERIA) == 12


def test_unknown_name_rejected():
    with pytest.raises(KeyError):
        run_criteria(names=["nonsense"])


def test_tol_override_fails_cheap_criterion():
    results = run_criteria(names=["pearson"], tol_override=1e-18)
    assert not results[0].passed


def test_format_report_one_line_per_criterion():
    results = run_criteria(names=["pearson", "cross-method"])
    lines = [ln for ln in format_report(results).splitlines()
             if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == 2


def test_pearson_perturbation_detector_can_fail():
    # the detector reads the shift residual, the defining recursion: above
    # its 1e-4 gate with the 1e-3 spot perturbation, far below it without
    level = SuiteData().qhahn.levels[0]
    assert _spot_perturbed_residual(level, 1.0 + 1e-3) >= 1e-4
    assert _spot_perturbed_residual(level, 1.0) < 1e-4


def test_covariance_eigen_pair_reads_its_perturbation():
    # the eigen-residual ratio compares the 1e-6 perturbation on both
    # sides, not rounding or the base row's truncation
    sc = SuiteData().constant_gauge
    level = sc.levels[1]
    assert (eigen_residual(level, _perturbed_kernel_pair(sc, 1e-6))
            >= 100.0 * eigen_residual(level, _perturbed_kernel_pair(sc, 0.0)))


def test_eigen_chain_gate_refuses_a_perturbed_kernel_pair(monkeypatch):
    # psi off by 1e-6 relative reads 9.6e-9 against the lifted-residual
    # gate, which the exact pair (5e-16) passes
    data = SuiteData()
    sc = data.constant_gauge
    assert criterion_eigen_chain(data).passed
    pair = _perturbed_kernel_pair(sc, 1e-6)
    monkeypatch.setattr(type(sc), "kernel_pair", lambda self: pair)
    checks = {c.name: c for c in criterion_eigen_chain(data).checks}
    assert not checks["lifted-residual"].passed
    assert checks["eigenvalue-tracking"].passed


def _nan(value):
    return np.asarray(value) * np.nan


@pytest.mark.parametrize("name, module, attr, poison", [
    ("calculus", validation, "max_abs_diff", _nan),
    ("q-oracle", validation, "max_abs_diff", _nan),
    ("adjoints", validation, "max_abs_diff", _nan),
    ("factorization", chain, "max_abs_diff", _nan),
    ("eigen-chain", validation, "lift",
     lambda pair: replace(pair, value=math.nan)),
    ("cross-method", validation, "chain_eigenvalues", _nan),
    ("closed-forms", validation, "iterate", _nan),
], ids=["calculus", "q-oracle", "adjoints", "factorization", "eigen-chain",
        "cross-method", "closed-forms"])
def test_a_nan_gap_fails_its_criterion(monkeypatch, name, module, attr,
                                       poison):
    # a measured gap that reads NaN is not passed over by the worst-case fold
    fn = getattr(module, attr)
    monkeypatch.setattr(module, attr,
                        lambda *args, **kwargs: poison(fn(*args, **kwargs)))
    with np.errstate(invalid="ignore"):
        result, = run_criteria([name])
    assert not result.passed


def test_factorization_criterion_checks_each_level_pair_once(monkeypatch):
    # both checks read one postulate report per level pair: each pair's
    # three-point forms are built once, 10 pairs in all
    calls = {"bands_AAstar": 0, "to_coefficients": 0}
    for name in calls:
        def spy(level, _fn=getattr(chain, name), _name=name):
            calls[_name] += 1
            return _fn(level)
        monkeypatch.setattr(chain, name, spy)
        monkeypatch.setattr(validation, name, spy, raising=False)
    assert run_criteria(["factorization"])[0].passed
    assert calls == {"bands_AAstar": 10, "to_coefficients": 10}

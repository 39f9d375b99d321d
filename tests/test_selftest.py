"""The selftest scoreboard text, PASS and FAIL lines alike, pinned byte for byte."""

import random

import pytest

import maxplus.selftest as st
import maxplus.semimodules as sm
from maxplus.cli import main
from maxplus.report import CheckReport

SEED_42 = """\
semiring-axioms: PASS (boolean carrier exhaustive + 5-element extended sample)
b-space-axioms: PASS (all scalar subsets x 6 vectors)
dm-completion: PASS (antichain gives 4 elements; idempotence and join preservation on 51 posets (n <= 4))
theorem-1-round-trip: PASS (200 representers, 20 probes each, exact)
theorem-1-a-linearity: PASS (20 functionals, all 64 subsets + homogeneity)
theorem-2-extension: PASS (200 consistent instances restrict exactly; inconsistent instance rejected)
theorem-2-separation: PASS (200 random pairs separated; fallback used 5 times)
proposition-2: PASS (50 families, 50 probes each, exact)
proposition-3: PASS (20 sampled graphs closed; broken sample reported)
proposition-4: PASS (200 invertible elements, exact equality)
theorem-3: PASS (100 hidden elements recovered exactly)
overall: PASS
"""


def test_seed_42_scoreboard(capsys):
    assert main(["selftest", "--seed", "42"]) == 0
    assert capsys.readouterr().out == SEED_42


def _reversed_recovery(monkeypatch):
    recover = st.recover_representer
    monkeypatch.setattr(st, "recover_representer",
                        lambda f, dim: sm.FinVector(recover(f, dim).coords[::-1]))


def _top_scales_to_zero(monkeypatch):
    scale = sm.v_scale
    monkeypatch.setattr(sm, "v_scale", lambda k, x: scale(sm.BOTTOM if k.is_top() else k, x))


def _graph_check_always_passes(monkeypatch):
    monkeypatch.setattr(st, "graph_sup_closed", lambda g: CheckReport())


@pytest.mark.parametrize("fault, expected", [
    (_reversed_recovery,
     "theorem-1-round-trip: FAIL (instance 0: recovered FinVector(-inf 0 +inf) "
     "from FinVector(+inf 0 -inf))"),
    (_top_scales_to_zero,
     "b-space-axioms: FAIL (all scalar subsets x 6 vectors; first failure meet-law: "
     "FAIL witness=([ExtendedScalar('0'), ExtendedScalar('+inf')], FinVector(-10 -3 -7)))"),
    (_graph_check_always_passes,
     "proposition-3: FAIL (non-sup-closed sample was not reported)"),
], ids=["instance-loop", "check-report", "broken-sample"])
def test_injected_fault_fail_line(monkeypatch, fault, expected):
    fault(monkeypatch)
    lines, ok = st.run_selftest(42, 5, 20)
    assert not ok
    assert [line for line in lines if ": FAIL (" in line] == [expected]


def _randint_scalar(rng):
    """random_scalar as first written, with randint: the stream the scoreboards were pinned on."""
    r = rng.random()
    if r < 1 / 8:
        return st.BOTTOM
    if r < 1 / 8 + 1 / 16:
        return st.TOP
    return st.finite(rng.randint(-10, 10))


@pytest.mark.parametrize("seed", [0, 1, 42, 12345])
def test_sampler_draws_the_randint_stream(seed):
    new, old = random.Random(seed), random.Random(seed)
    assert [st.random_scalar(new) for _ in range(2000)] == [_randint_scalar(old)
                                                            for _ in range(2000)]
    assert st.random_finite_vector(new, 7).coords == tuple(
        st.finite(old.randint(-10, 10)) for _ in range(7))
    assert new.getstate() == old.getstate()


def test_a_suite_that_raises_fails_alone(monkeypatch, capsys):
    def raises():  # the first suite, which draws nothing, so every later line is as pinned
        raise ValueError("injected")  # reaching main, it would exit 2 with no scoreboard

    monkeypatch.setattr(st, "suite_semiring_axioms", raises)
    assert main(["selftest", "--seed", "42"]) == 1
    want = SEED_42.replace(
        "semiring-axioms: PASS (boolean carrier exhaustive + 5-element extended sample)",
        "semiring-axioms: FAIL (raised ValueError: injected)")
    assert capsys.readouterr().out == want.replace("overall: PASS", "overall: FAIL")

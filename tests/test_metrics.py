import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trustsim.metrics import (
    ConfusionMatrix,
    EpisodeRecord,
    aggregate_tail,
    classify,
    f1,
    precision,
    recall,
)

from reference import total


def test_classify_perfect_separation():
    trusts = [0.2] * 5 + [0.8] * 11
    roles = [True] * 5 + [False] * 11
    cm = classify(trusts, roles, 0.45)
    assert (cm.tp, cm.fp, cm.fn, cm.tn) == (5, 0, 0, 11)


def test_classify_no_positives_predicted():
    cm = classify([0.5, 0.6], [True, False], 0.45)
    assert cm.tp == 0 and cm.fp == 0


def test_classify_boundary_is_honest():
    cm = classify([0.45], [True], 0.45)
    assert cm.fn == 1 and cm.tp == 0


def test_classify_length_mismatch():
    with pytest.raises(ValueError):
        classify([0.5], [True, False], 0.45)


def test_f1_perfect():
    assert f1(ConfusionMatrix(5, 0, 0, 11)) == 1.0


def test_f1_inverted_regime():
    cm = ConfusionMatrix(tp=1, fp=11, fn=4, tn=0)
    assert precision(cm) == pytest.approx(1 / 12)
    assert recall(cm) == pytest.approx(1 / 5)
    assert f1(cm) == pytest.approx(2 / 17)


def test_f1_zero_recall_convention():
    assert f1(ConfusionMatrix(0, 0, 5, 11)) == 0.0


def test_f1_zero_when_no_true_positives():
    assert f1(ConfusionMatrix(0, 3, 2, 11)) == 0.0


cm_strategy = st.builds(
    ConfusionMatrix,
    tp=st.integers(0, 20),
    fp=st.integers(0, 20),
    fn=st.integers(0, 20),
    tn=st.integers(0, 20),
)


@given(cm_strategy)
def test_f1_is_one_iff_clean_and_nonempty(cm):
    value = f1(cm)
    assert 0.0 <= value <= 1.0
    if cm.tp == 0:
        assert value == 0.0
    if value == 1.0:
        assert cm.fp == 0 and cm.fn == 0 and cm.tp > 0


@given(cm_strategy)
def test_mean_inequality_chain(cm):
    p, r = precision(cm), recall(cm)
    if p > 0 and r > 0:
        harmonic = f1(cm)
        geometric = (p * r) ** 0.5
        arithmetic = (p + r) / 2
        assert harmonic <= geometric + 1e-12
        assert geometric <= arithmetic + 1e-12


def test_matrix_totals():
    trusts = np.linspace(0.1, 0.9, 16)
    roles = [i % 3 == 0 for i in range(16)]
    cm = classify(trusts, roles, 0.45)
    assert total(cm) == 16
    assert cm.tp + cm.fn == sum(roles)
    assert cm.fp + cm.tn == 16 - sum(roles)


@given(
    st.lists(
        st.tuples(st.sampled_from([0.0, 0.2, 0.45, 0.4499999, 0.7, 1.0]) | st.floats(0.0, 1.0), st.booleans()),
        max_size=40,
    ),
    st.floats(0.0, 1.0),
)
def test_classify_matches_explicit_loop(nodes, theta):
    trusts = np.array([tau for tau, _ in nodes], dtype=float)
    roles = np.array([mal for _, mal in nodes], dtype=bool)
    counts = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
    for tau, is_mal in nodes:
        predicted_mal = tau < theta
        counts[("t" if predicted_mal == is_mal else "f") + ("p" if predicted_mal else "n")] += 1
    cm = classify(trusts, roles, theta)
    assert (cm.tp, cm.fp, cm.fn, cm.tn) == (counts["tp"], counts["fp"], counts["fn"], counts["tn"])
    assert all(type(c) is int for c in (cm.tp, cm.fp, cm.fn, cm.tn))


def rec(ep, f1_value):
    return EpisodeRecord(
        episode=ep,
        cumulative_reward=100.0 * ep,
        f1=f1_value,
        precision=1.0,
        recall=1.0,
        tp=5,
        fp=0,
        fn=0,
        tn=11,
        throughput=500,
        chain_length=50,
        mean_kappa=1.0,
        trust_separation=0.4,
        delegation_ratio=0.5,
    )


def test_aggregate_constant_tail():
    records = [rec(i, 1.0) for i in range(20)]
    out = aggregate_tail(records, 10)
    assert out["f1"] == (1.0, 0.0)


def test_aggregate_alternating_mean():
    records = [rec(i, 0.8 if i % 2 else 1.0) for i in range(20)]
    out = aggregate_tail(records, 10)
    assert out["f1"][0] == pytest.approx(0.9)


def test_aggregate_tail_too_large():
    with pytest.raises(ValueError):
        aggregate_tail([rec(0, 1.0)], 2)


def test_aggregate_empty():
    with pytest.raises(ValueError):
        aggregate_tail([], 1)

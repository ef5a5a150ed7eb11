"""The root-system oracle is the independent side of every classification
check, so its own numbers are pinned against classical values here."""

import pytest

from glap import roots
from glap.analysis import _table_rows
from glap.errors import BadParameters, UnsupportedType
from glap.families import oracle_instances
from glap.roots import (
    MAX_RANK,
    cartan_matrix,
    graded_dims,
    positive_roots,
    table_expectation,
)


def test_cartan_matrices():
    assert cartan_matrix("A", 2) == [[2, -1], [-1, 2]]
    G2 = cartan_matrix("G", 2)
    assert G2[0][0] == G2[1][1] == 2
    assert G2[0][1] * G2[1][0] == 3


def test_unknown_series_rejected():
    with pytest.raises(UnsupportedType):
        cartan_matrix("E", 6)
    with pytest.raises(BadParameters):
        cartan_matrix("A", 0)


@pytest.mark.parametrize(
    "series,rank,count",
    [("A", 2, 3), ("A", 3, 6), ("B", 3, 9), ("C", 3, 9), ("C", 4, 16),
     ("F", 4, 24), ("G", 2, 6)],
)
def test_positive_root_counts(series, rank, count):
    assert len(positive_roots(series, rank)) == count


def test_highest_root_dominates_componentwise():
    for series, rank in [("A", 3), ("B", 3), ("C", 4), ("F", 4), ("G", 2)]:
        pos = positive_roots(series, rank)
        top = pos[-1]
        assert all(all(top[i] >= b[i] for i in range(rank)) for b in pos)


def test_total_dims_match_classical_values():
    assert graded_dims("A", 2, (1, 2)).total_dim() == 8
    assert graded_dims("B", 3, (1, 3)).total_dim() == 21
    assert graded_dims("C", 3, (2,)).total_dim() == 21
    assert graded_dims("F", 4, (4,)).total_dim() == 52
    assert graded_dims("G", 2, (1, 2)).total_dim() == 14


def test_a2_grading_both_nodes():
    assert graded_dims("A", 2, (1, 2)).dims == {-2: 1, -1: 2, 0: 2, 1: 2, 2: 1}


def test_f4_contact_style_grading():
    assert graded_dims("F", 4, (4,)).dims == {-2: 7, -1: 8, 0: 22, 1: 8, 2: 7}


def test_g2_full_grading_runs_to_kind_five():
    dims = graded_dims("G", 2, (1, 2)).dims
    assert dims == {
        -5: 1, -4: 1, -3: 1, -2: 1, -1: 2,
        0: 2,
        1: 2, 2: 1, 3: 1, 4: 1, 5: 1,
    }


def test_graded_dims_symmetric_in_sign():
    for series, rank, crossed in [
        ("A", 4, (1, 4)), ("B", 4, (1, 4)), ("C", 4, (2,)), ("F", 4, (4,)),
    ]:
        dims = graded_dims(series, rank, crossed).dims
        assert all(dims[p] == dims[-p] for p in dims)


def test_graded_dims_validation():
    with pytest.raises(BadParameters):
        graded_dims("A", 2, ())
    with pytest.raises(BadParameters):
        graded_dims("A", 2, (3,))


ACCEPTANCE_ROWS = [
    ("HC", {"p": 1, "q": 1}, 8, (2, 0), "SII", "AIV", 2),
    ("HC", {"p": 2, "q": 1}, 24, (4, 2), "SII", "AIIIa", 2),
    ("HC'", {"p": 1, "q": 1}, 8, (1, 1), "SIII", "AI", 2),
    ("HC'", {"p": 2, "q": 1}, 24, (3, 3), "SIII", "AI", 2),
    ("HH", {"p": 1, "q": 1}, 21, (4, 0), "SI", "CIIa", 2),
    ("HH'", {"p": 1, "q": 1}, 21, (2, 2), "SI", "CI", 2),
    ("BI", {"l": 2}, 10, (1, 1), "SIII", "BI", 3),
    ("BI", {"l": 3}, 21, (2, 2), "SIII", "BI", 3),
    ("HO", {}, 52, (8, 0), "SI", "FII", 2),
    ("HO'", {}, 52, (4, 4), "SI", "FI", 2),
    ("G", {}, 14, (1, 1), "SIII", "G", 5),
]


@pytest.mark.parametrize("family,params,total,sig,cls,label,kind", ACCEPTANCE_ROWS)
def test_table_expectation_rows(family, params, total, sig, cls, label, kind):
    row = table_expectation(family, **params)
    assert row.total_dim == total
    assert row.signature == sig
    assert row.module_class == cls
    assert row.satake_label == label
    assert row.kind == kind
    assert sum(v for d, v in row.dims.items() if d < 0) == sum(
        v for d, v in row.dims.items() if d > 0
    )


def test_hk_signature_formulas_at_q_zero():
    assert table_expectation("HC", p=2, q=0).signature == (2, 2)
    assert table_expectation("HH", p=2, q=0).signature == (4, 4)
    assert table_expectation("HC'", p=2, q=0).signature == (2, 2)


def test_table_expectation_validation():
    with pytest.raises(BadParameters):
        table_expectation("HC", q=1)
    with pytest.raises(BadParameters):
        table_expectation("HC", p=1, q=0)  # n = 2 < 3
    with pytest.raises(BadParameters):
        table_expectation("BI", l=1)
    with pytest.raises(BadParameters):
        table_expectation("G", l=2)
    with pytest.raises(BadParameters):
        table_expectation("ZZ")


def _accepted():
    """Every (series, rank) that ``cartan_matrix`` accepts up to the
    largest rank of the classification table; the ranks past it, up to
    ``MAX_RANK``, are the scale ladder's."""
    top = max(row.rank for _, row in _table_rows())
    assert top == 8 < MAX_RANK
    out = []
    for series in "ABCDFG":
        for rank in range(1, top + 1):
            try:
                cartan_matrix(series, rank)
            except (BadParameters, UnsupportedType):
                continue
            out.append((series, rank))
    return out


def test_memoised_roots_match_the_uncached_closure():
    accepted = _accepted()
    assert len(accepted) == 8 + 7 + 7 + 6 + 1 + 1
    for series, rank in accepted:
        got = positive_roots(series, rank)
        assert got == tuple(positive_roots.__wrapped__(series, rank))
        assert isinstance(got, tuple) and all(isinstance(b, tuple) for b in got)
        assert positive_roots(series, rank) is got


@pytest.mark.parametrize("series,rank", [("A", 0), ("A", MAX_RANK + 1), ("B", 1), ("D", 2)])
def test_a_refused_rank_raises_on_every_call(series, rank):
    for _ in range(2):
        with pytest.raises(BadParameters):
            positive_roots(series, rank)


def test_table_rows_match_rows_built_without_the_memo(monkeypatch):
    rows = _table_rows()
    monkeypatch.setattr(roots, "positive_roots", positive_roots.__wrapped__)
    assert rows == tuple(
        (lab, table_expectation(key, **params)) for lab, key, params in oracle_instances()
    )

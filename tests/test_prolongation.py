import os
import subprocess
import sys
from fractions import Fraction

import pytest

from glap.errors import GlapError, NotFundamental, StepLimitExceeded
from glap.families import build
from glap.gla import GradedAlgebra, SymBilinearForm, check_gla
from glap.linalg import Mat
from glap.prolongation import (
    _Layout,
    assemble_degree0,
    conformal_g0,
    deserialize_prolongation,
    full_prolongation,
    grading_derivation,
    prolong_step,
    scaling_split,
    step_limit,
    transitivity_check,
)

F = Fraction


def test_heisenberg_euclidean_g0(h3_euclidean):
    m, g = h3_euclidean
    basis = conformal_g0(m, g)
    assert len(basis) == 2
    E, hats = scaling_split(basis)
    assert len(hats) == 1
    # the kernel of eta is the rotation algebra so(2)
    R = hats[0].blocks[-1]
    assert R.transpose() == R * Mat.diag([-1, -1])


def test_characteristic_derivation_normalization(h3):
    E = grading_derivation(h3)
    assert E.eta == -2
    assert E.blocks[-1] == Mat.diag([-1, -1])
    assert E.blocks[-2] == Mat.diag([-2])


def test_every_derivation_satisfies_leibniz(h3_euclidean):
    m, g = h3_euclidean
    for el in conformal_g0(m, g).elements:
        # D[X,Y] = [DX,Y] + [X,DY] checked on the only nonzero bracket
        X = [F(1), F(0), F(0)]
        Y = [F(0), F(1), F(0)]
        DX = el.blocks[-1].col(0)
        DY = el.blocks[-1].col(1)
        left = el.blocks[-2].col(0)  # D applied to Z = [X,Y]
        right_vec = [
            m.bracket_eval([DX[0], DX[1], F(0)], Y)[2]
            + m.bracket_eval(X, [DY[0], DY[1], F(0)])[2]
        ]
        assert left == right_vec


@pytest.mark.parametrize("lam", [F(2), F(1, 3), F(-1)])
@pytest.mark.parametrize("tag,params", [("hc", {"p": 1, "q": 1}), ("bi", {"l": 2}), ("g2", {})])
def test_conformal_g0_is_scale_invariant(get_family, tag, params, lam):
    fam = get_family(tag, **params)
    a = conformal_g0(fam.m, fam.g)
    b = conformal_g0(fam.m, fam.g.scaled(lam))
    assert len(a) == len(b)
    for x, y in zip(a.elements, b.elements):
        assert x.eta == y.eta
        assert x.blocks == y.blocks


def test_conformal_g0_requires_fundamental_input():
    A = GradedAlgebra("ab", ["x", "z"], [-1, -2], {})
    g = SymBilinearForm("ab", [0], Mat.identity(1))
    with pytest.raises(NotFundamental):
        conformal_g0(A, g)


def test_lemma_31_split_on_families(get_family):
    for tag, params in [("hc-split", {"p": 1, "q": 1}), ("g2", {}), ("ho", {})]:
        fam = get_family(tag, **params)
        basis = conformal_g0(fam.m, fam.g)
        E, hats = scaling_split(basis)
        assert len(hats) == len(basis) - 1
        assert E.eta == -2
        # [g0, g0] lands in the eta kernel: eta is a Lie algebra character
        for i, x in enumerate(basis.elements):
            for y in basis.elements[i + 1:]:
                comm = x.commutator(y)
                coords = basis.coordinates_of(comm.blocks, comm.eta)
                eta_val = sum(
                    c * el.eta for c, el in zip(coords, basis.elements)
                )
                assert eta_val == 0


@pytest.mark.parametrize(
    "tag,params", [("hh", {"p": 1, "q": 2}), ("ho", {}), ("hc-split", {"p": 2, "q": 1})]
)
def test_degree0_brackets_match_dense_commutators(get_family, tag, params):
    fam = get_family(tag, **params)
    basis = conformal_g0(fam.m, fam.g)
    A = assemble_degree0(fam.m, basis)
    n = fam.m.n
    by_deg = fam.m.by_degree()
    for a, x in enumerate(basis.elements):
        # [D, e_j] = D(e_j), read off the dense block
        for p, ix in by_deg.items():
            for c, j in enumerate(ix):
                image = {ix[r]: v for r, v in enumerate(x.blocks[p].col(c)) if v}
                assert A.bracket_pair(n + a, j) == image
        for b in range(a + 1, len(basis)):
            comm = x.commutator(basis.elements[b])
            ref = basis.coordinates_of(comm.blocks, 0)
            assert A.bracket_pair(n + a, n + b) == {
                n + i: c for i, c in enumerate(ref) if c
            }


def _assemble_with_corrupted_g0():
    """assemble_degree0 on hh(1,1) after one entry of one g0 basis element
    has been changed, so that some commutator leaves the span."""
    fam = build("hh", p=1, q=1)
    basis = conformal_g0(fam.m, fam.g)
    basis.elements[1].blocks[-1].a[0][0] += 1
    return assemble_degree0(fam.m, basis)


def test_corrupted_g0_basis_is_rejected():
    with pytest.raises(GlapError, match="does not lie in the conformal"):
        _assemble_with_corrupted_g0()


def test_corrupted_g0_basis_is_rejected_without_asserts():
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    script = (
        "import sys\n"
        "if __debug__:\n"
        "    sys.exit('asserts are still on')\n"
        "from glap.errors import GlapError\n"
        "from test_prolongation import _assemble_with_corrupted_g0\n"
        "try:\n"
        "    _assemble_with_corrupted_g0()\n"
        "except GlapError:\n"
        "    sys.exit(0)\n"
        "sys.exit('corrupted basis was accepted')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_layout_rejects_entries_outside_a_block():
    layout = _Layout()
    layout.add(-1, 2, 3)
    assert layout.col(-1, 1, 2) == 5
    for r, c in [(2, 0), (0, 3), (-1, 0)]:
        with pytest.raises(GlapError):
            layout.col(-1, r, c)


def test_step_dims_hc11(get_prolongation):
    prol = get_prolongation("hc", p=1, q=1)
    assert prol.step_dims == {1: 2, 2: 1, 3: 0}
    assert prol.mu == 2 and prol.nu == 2
    assert prol.complete


def test_octonionic_prolongation_is_f4_shaped(get_prolongation):
    prol = get_prolongation("ho")
    assert prol.dims_by_degree() == {-2: 7, -1: 8, 0: 22, 1: 8, 2: 7}
    assert prol.total_dim() == 52


def test_counterexample_keeps_a_first_layer(get_prolongation):
    prol = get_prolongation("counterexample")
    dims = prol.dims_by_degree()
    assert dims[1] == 2
    assert prol.nu == 1


def test_full_prolongation_certification(get_prolongation):
    prol = get_prolongation("hc-split", p=1, q=1)
    rep = check_gla(prol.algebra)
    assert rep["grading_ok"] and rep["jacobi_ok"]
    assert transitivity_check(prol.algebra)


def test_negative_part_is_untouched(get_family, get_prolongation):
    fam = get_family("bi", l=2)
    prol = get_prolongation("bi", l=2)
    A = prol.algebra
    neg_idx = [i for i in range(A.n) if A.degrees[i] < 0]
    assert neg_idx == list(range(len(neg_idx)))
    assert [A.degrees[i] for i in neg_idx] == fam.m.degrees
    for (i, j), cell in fam.m.brackets.items():
        assert A.bracket_pair(i, j) == cell


def test_graded_dims_mirror_for_semisimple_cases(get_prolongation):
    for tag, params in [("hc", {"p": 2, "q": 1}), ("bi", {"l": 3}), ("ho", {})]:
        dims = get_prolongation(tag, **params).dims_by_degree()
        assert all(dims[p] == dims[-p] for p in dims)


def test_opposite_form_gives_the_same_prolongation(get_family, get_prolongation):
    fam = get_family("hc-split", p=1, q=1)
    flipped = full_prolongation(fam.m, fam.g.scaled(F(-1)))
    assert flipped.dims_by_degree() == get_prolongation(
        "hc-split", p=1, q=1
    ).dims_by_degree()


def test_max_degree_cut_is_marked_incomplete(get_family):
    fam = get_family("hc", p=1, q=1)
    partial = full_prolongation(fam.m, fam.g, max_degree=1)
    assert not partial.complete
    assert max(partial.algebra.degrees) == 1


def test_env_step_limit(monkeypatch, get_family):
    fam = get_family("hc", p=1, q=1)
    monkeypatch.setenv("GLAP_STEP_LIMIT", "1")
    with pytest.raises(StepLimitExceeded):
        full_prolongation(fam.m, fam.g)
    monkeypatch.setenv("GLAP_STEP_LIMIT", "abc")
    with pytest.raises(GlapError):
        step_limit()
    monkeypatch.setenv("GLAP_STEP_LIMIT", "0")
    with pytest.raises(GlapError):
        step_limit()
    monkeypatch.delenv("GLAP_STEP_LIMIT")
    assert step_limit() == 64


def test_prolong_step_rejects_wrong_top_degree(get_prolongation):
    prol = get_prolongation("hc", p=1, q=1)
    with pytest.raises(GlapError):
        prolong_step(prol.algebra, 0)


def test_prolongation_round_trip(get_prolongation):
    prol = get_prolongation("bi", l=2)
    again = deserialize_prolongation(prol.serialize())
    assert again.dims_by_degree() == prol.dims_by_degree()
    assert again.step_dims == prol.step_dims
    assert again.complete == prol.complete
    assert again.form.matrix == prol.form.matrix
    assert again.mu == prol.mu and again.nu == prol.nu

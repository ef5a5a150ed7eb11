import hashlib
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from glap import prolongation
from glap.errors import GlapError, NotFundamental, StepLimitExceeded
from glap.families import build
from glap.gla import GradedAlgebra, SymBilinearForm, _scaled_adjacency, check_gla
from glap.linalg import Echelon, Mat, sparse_kernel
from glap.prolongation import (
    _derivation_rows,
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


def _reference_derivation_rows(A, layout, shift):
    """The derivation rows built from Fraction constants and bracket_pair
    copies, as the step engine did before it read the scaled adjacency;
    kept as the reference for the integer rows."""
    by_deg = A.by_degree()
    neg = sorted(d for d in by_deg if d < 0)
    local = {d: {g: t for t, g in enumerate(by_deg[d])} for d in by_deg}
    rows = []
    for p in neg:
        for q in neg:
            if q < p:
                continue
            td = p + q + shift
            tgt = by_deg.get(td, [])
            if not tgt:
                continue
            tpos = local[td]
            for ii, gi in enumerate(by_deg[p]):
                js = by_deg[q]
                start = ii + 1 if p == q else 0
                for jj in range(start, len(js)):
                    gj = js[jj]
                    comp = {}

                    def put(t_global, colidx, coeff):
                        if coeff == 0:
                            return
                        row = comp.setdefault(t_global, {})
                        row[colidx] = row.get(colidx, Fraction(0)) + coeff

                    if (p + q) in layout.blocks:
                        mloc = local[p + q]
                        for mg, c in A.bracket_pair(gi, gj).items():
                            for t_global in tgt:
                                put(t_global, layout.col(p + q, tpos[t_global], mloc[mg]), c)
                    if p in layout.blocks:
                        for r, fr in enumerate(by_deg.get(p + shift, [])):
                            for t_global, c in A.bracket_pair(fr, gj).items():
                                put(t_global, layout.col(p, r, ii), -c)
                    if q in layout.blocks:
                        for r, fr in enumerate(by_deg.get(q + shift, [])):
                            for t_global, c in A.bracket_pair(gi, fr).items():
                                put(t_global, layout.col(q, r, jj), -c)
                    for row in comp.values():
                        row = {c: v for c, v in row.items() if v != 0}
                        if row:
                            rows.append(row)
    return rows


@pytest.mark.parametrize("case", ["hh11-rebased", "hc21"])
@pytest.mark.parametrize("shift", [0, 1])
def test_integer_derivation_rows_match_the_fraction_reference(
    get_prolongation, get_rebased, case, shift
):
    if case == "hh11-rebased":
        A = full_prolongation(*get_rebased("hh", p=1, q=1)).algebra
    else:
        A = get_prolongation("hc", p=2, q=1).algebra
    L, ad = _scaled_adjacency(A)
    assert L > 1  # the scaling is exercised
    by_deg = A.by_degree()
    layout = _Layout()
    for p in sorted(d for d in by_deg if d < 0):
        if by_deg.get(p + shift):
            layout.add(p, len(by_deg[p + shift]), len(by_deg[p]))
    ref = _reference_derivation_rows(A, layout, shift)
    rows = list(_derivation_rows(A, layout, shift, ad))
    assert rows == [{c: L * v for c, v in row.items()} for row in ref]
    assert sparse_kernel(rows, layout.total) == sparse_kernel(ref, layout.total)


def _prolong_with_a_perturbed_layer():
    """full_prolongation of hh(1,1) after one vector of its degree 1
    layer's Subspace has been changed at a pivot column."""

    class Perturbed(Echelon):
        def kernel_space(self, name="the kernel"):
            space = super().kernel_space(name)
            if name == "the degree 1 layer":
                col = min(self.piv)
                vec = space.vectors[0]
                vec[col] = vec.get(col, 0) + 1
            return space

    fam = build("hh", p=1, q=1)
    saved = prolongation.Echelon
    prolongation.Echelon = Perturbed
    try:
        return full_prolongation(fam.m, fam.g)
    finally:
        prolongation.Echelon = saved


def test_perturbed_positive_layer_is_rejected():
    with pytest.raises(GlapError):
        _prolong_with_a_perturbed_layer()


def test_perturbed_positive_layer_is_rejected_without_asserts():
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    script = (
        "import sys\n"
        "if __debug__:\n"
        "    sys.exit('asserts are still on')\n"
        "from glap.errors import GlapError\n"
        "from test_prolongation import _prolong_with_a_perturbed_layer\n"
        "try:\n"
        "    _prolong_with_a_perturbed_layer()\n"
        "except GlapError:\n"
        "    sys.exit(0)\n"
        "sys.exit('perturbed layer was accepted')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_rebased_prolongation_is_unchanged(get_rebased):
    # sha256 of the output recorded before the step engine read integer
    # constants; the constants of this prolongation have denominators 2 and 3
    prol = full_prolongation(*get_rebased("hh", p=1, q=1))
    digest = hashlib.sha256(prol.serialize().encode()).hexdigest()
    assert digest == "02ab26b778f42f12b8c597a88510f1053b3cc07d5052e29da8496324552cca5e"


@pytest.mark.parametrize("y_weight,transitive", [(1, False), (2, True)])
def test_transitivity_check_reads_both_orientations(y_weight, transitive):
    # D2 has an index between X and Y, so its action is stored once as
    # [X, D2] and once as [D2, Y].  D1 acts as the identity on degree -1;
    # D2 acts as diag(1, y_weight), so D1 - D2 kills degree -1 exactly
    # when y_weight == 1.
    A = GradedAlgebra(
        "two degree-0 actions",
        ["X", "D2", "Y", "D1"],
        [-1, 0, -1, 0],
        {
            (0, 1): {0: F(-1)},
            (1, 2): {2: F(y_weight)},
            (0, 3): {0: F(-1)},
            (2, 3): {2: F(-1)},
        },
    )
    assert transitivity_check(A) is transitive

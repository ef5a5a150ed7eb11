import hashlib
import importlib.util
import os
import subprocess
import sys
from fractions import Fraction
from itertools import chain

import pytest

from glap import gla, prolongation
from glap.analysis import analyze
from glap.cli import DEFAULT_ROWS
from glap.errors import GlapError, NotFundamental, StepLimitExceeded
from glap.families import FAMILIES, build, label
from glap.gla import (
    GradedAlgebra,
    SymBilinearForm,
    _adjacency,
    _scaled_adjacency,
    check_gla,
)
from glap.linalg import Echelon, Mat, Subspace, int_row, sparse_rank
from glap.prolongation import (
    Layer,
    _derivation_rows,
    _extend,
    _Layout,
    assemble_degree0,
    conformal_g0,
    deserialize_prolongation,
    full_prolongation,
    prolong_step,
    scaling_split,
    step_limit,
    transitivity_check,
)

from conftest import diag

F = Fraction


def scaled_form(g, lam):
    """The form lam * g, another representative of the conformal class."""
    return SymBilinearForm(g.algebra_name, g.indices, Mat([[lam * x for x in row] for row in g.matrix.a]))


def dense_blocks(layer, vec):
    """A degree 0 vector of ``layer`` as dense matrices by source degree."""
    return {p: layer.layout.unflatten(p, vec) for p in layer.layout.blocks}


def dense_commutator(x, y):
    """[x, y] = x y - y x block by block: the dense reference for the
    forced brackets of degree 0."""
    out = {}
    for p in x:
        xy, yx = x[p] * y[p], y[p] * x[p]
        out[p] = Mat([[u - v for u, v in zip(r, s)] for r, s in zip(xy.a, yx.a)])
    return out


def flatten(layer, blocks, eta):
    """Dense blocks and an eta value as a sparse vector of ``layer``."""
    vec = {layer.layout.total: F(eta)}
    for p, M in blocks.items():
        for r in range(M.m):
            for c in range(M.n):
                if M.a[r][c]:
                    vec[layer.layout.col(p, r, c)] = M.a[r][c]
    return vec


def test_heisenberg_euclidean_g0(h3_euclidean):
    m, g = h3_euclidean
    layer = conformal_g0(m, g)
    assert len(layer) == 2
    E, hats = scaling_split(layer)
    assert len(hats) == 1
    assert layer.eta(hats[0]) == 0
    # the kernel of eta is the rotation algebra so(2)
    R = layer.layout.unflatten(-1, hats[0])
    assert Mat([list(col) for col in zip(*R.a)]) == R * diag([-1, -1])


def test_characteristic_derivation_normalization(h3_euclidean):
    m, g = h3_euclidean
    layer = conformal_g0(m, g)
    E = layer.E
    assert scaling_split(layer)[0] is E
    assert layer.eta(E) == -2
    assert layer.layout.unflatten(-1, E) == diag([-1, -1])
    assert layer.layout.unflatten(-2, E) == diag([-2])
    # E lies in the span: it is rebuilt from its coordinates
    coords = layer.space.coords(E, "E")
    vectors = layer.space.vectors
    assert sum(c * layer.eta(vectors[t]) for t, c in coords.items()) == -2


def test_every_derivation_satisfies_leibniz(h3_euclidean):
    m, g = h3_euclidean
    layer = conformal_g0(m, g)
    for vec in layer.space.vectors:
        D = dense_blocks(layer, vec)
        # D[X,Y] = [DX,Y] + [X,DY] checked on the only nonzero bracket
        DX = [row[0] for row in D[-1].a]
        DY = [row[1] for row in D[-1].a]
        left = [row[0] for row in D[-2].a]  # D applied to Z = [X,Y]
        right_vec = [
            sum(DX[a] * m.bracket_pair(a, 1).get(2, 0) for a in range(2))
            + sum(DY[b] * m.bracket_pair(0, b).get(2, 0) for b in range(2))
        ]
        assert left == right_vec


@pytest.mark.parametrize("lam", [F(2), F(1, 3), F(-1)])
@pytest.mark.parametrize("tag,params", [("hc", {"p": 1, "q": 1}), ("bi", {"l": 2}), ("g2", {})])
def test_conformal_g0_is_scale_invariant(get_family, tag, params, lam):
    fam = get_family(tag, **params)
    a = conformal_g0(fam.m, fam.g)
    b = conformal_g0(fam.m, scaled_form(fam.g, lam))
    assert len(a) == len(b)
    # the vectors carry the blocks and the eta column
    assert a.space.vectors == b.space.vectors
    assert a.E == b.E


def test_conformal_g0_requires_fundamental_input():
    A = GradedAlgebra("ab", ["x", "z"], [-1, -2], {})
    g = SymBilinearForm("ab", [0], diag([1]))
    with pytest.raises(NotFundamental):
        conformal_g0(A, g)


def test_lemma_31_split_on_families(get_family):
    for tag, params in [("hc-split", {"p": 1, "q": 1}), ("g2", {}), ("ho", {})]:
        fam = get_family(tag, **params)
        layer = conformal_g0(fam.m, fam.g)
        E, hats = scaling_split(layer)
        assert len(hats) == len(layer) - 1
        assert layer.eta(E) == -2
        assert all(layer.eta(h) == 0 for h in hats)
        # E and the eta kernel together span the layer
        assert sparse_rank([E] + hats, layer.layout.total + 1) == len(layer)
        # [g0, g0] lands in the eta kernel: eta is a Lie algebra character
        vectors = layer.space.vectors
        etas = [layer.eta(v) for v in vectors]
        elements = [dense_blocks(layer, v) for v in vectors]
        for i, x in enumerate(elements):
            for y in elements[i + 1:]:
                comm = flatten(layer, dense_commutator(x, y), 0)
                coords = layer.space.coords(comm, "commutator")
                assert sum(c * etas[t] for t, c in coords.items()) == 0


def _solved_eta_kernel(layer):
    """ker eta solved from the eta entries of the basis, as ``scaling_split``
    did before it read the kernel off the basis: the reference it must
    equal, vector for vector."""
    space = layer.space
    eta_col = layer.layout.total
    etas = {t: e for t, u in enumerate(space.basis) if (e := u.get(eta_col))}
    kernel = Echelon(len(space)).extend([etas]).kernel_space()
    scale = space.denominator * kernel.denominator
    hats = []
    for combo in kernel.basis:
        hat: dict[int, int] = {}
        for t, c in combo.items():
            for i, x in space.basis[t].items():
                hat[i] = hat.get(i, 0) + c * x
        hats.append({i: F(x, scale) for i, x in hat.items() if x})
    return hats


def test_eta_is_the_last_free_column(get_family):
    """On every registry instance and the rebased inputs at seeds 0 and 7,
    the eta column is the last free column of the degree 0 layer, so only
    the last basis vector carries eta, and ``scaling_split`` equals the
    solved kernel."""
    inputs = []
    for spec in FAMILIES.values():
        for params in spec.instances:
            fam = get_family(spec.tag, **params)
            inputs.append((label(spec.tag, params), fam.m, fam.g))
    rebase = _bench_rebase()
    for seed in (0, 7):
        for tag, params in _REBASED:
            fam, name = get_family(tag, **params), label(tag, params)
            m, g = rebase.rebase(fam.m, fam.g, rebase.instance_rng(seed, name))
            inputs.append((f"{name} rebased {seed}", m, g))
    assert len(inputs) == 93
    for name, m, g in inputs:
        layer = conformal_g0(m, g)
        space, eta_col = layer.space, layer.layout.total
        last = len(space) - 1
        assert space.free[-1] == eta_col, name
        assert [t for t, u in enumerate(space.basis) if u.get(eta_col)] == [last], name
        assert layer.eta(space.vector(last)) == 1, name
        E, hats = scaling_split(layer)
        assert E is layer.E
        assert hats == _solved_eta_kernel(layer), name


@pytest.mark.parametrize(
    "tag,params", [("hh", {"p": 1, "q": 2}), ("ho", {}), ("hc-split", {"p": 2, "q": 1})]
)
def test_degree0_brackets_match_dense_commutators(get_family, tag, params):
    fam = get_family(tag, **params)
    layer = conformal_g0(fam.m, fam.g)
    A = assemble_degree0(fam.m, layer)
    n = fam.m.n
    by_deg = fam.m.by_degree()
    elements = [dense_blocks(layer, v) for v in layer.space.vectors]
    for a, x in enumerate(elements):
        # [D, e_j] = D(e_j), read off the dense block
        for p, ix in by_deg.items():
            for c, j in enumerate(ix):
                image = {ix[r]: row[c] for r, row in enumerate(x[p].a) if row[c]}
                assert A.bracket_pair(n + a, j) == image
        for b in range(a + 1, len(elements)):
            comm = flatten(layer, dense_commutator(x, elements[b]), 0)
            ref = layer.space.coords(comm, "commutator")
            assert A.bracket_pair(n + a, n + b) == {n + i: c for i, c in ref.items()}


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
    flipped = full_prolongation(fam.m, scaled_form(fam.g, F(-1)))
    assert flipped.dims_by_degree() == get_prolongation(
        "hc-split", p=1, q=1
    ).dims_by_degree()


def test_max_degree_cut_is_marked_incomplete(get_family):
    fam = get_family("hc", p=1, q=1)
    partial = full_prolongation(fam.m, fam.g, max_degree=1)
    assert not partial.complete
    assert max(partial.algebra.degrees) == 1


def test_step_cap_stops_a_runaway_prolongation():
    """R^2 with g = I: co(2) prolongs without end (the conformal maps of
    the plane), so the run hits the fixed cap of 64 steps."""
    m = GradedAlgebra("R2", ["x", "y"], [-1, -1], {})
    g = SymBilinearForm("R2", [0, 1], diag([1, 1]))
    assert step_limit() == 64
    with pytest.raises(StepLimitExceeded, match="no termination within 64 prolongation steps"):
        full_prolongation(m, g)


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


def _reference_derivation_rows(A, layout, shift, minus1_only=False):
    """The derivation rows built from Fraction constants and bracket_pair
    copies, as the step engine did before it read the scaled adjacency;
    kept as the reference for the integer rows.  With ``minus1_only``,
    only the rows of the pairs (x, y) with y in g_{-1}.  Source degrees
    run up from -mu, as in ``_derivation_rows``."""
    by_deg = A.by_degree()
    neg = sorted(d for d in by_deg if d < 0)
    local = {d: {g: t for t, g in enumerate(by_deg[d])} for d in by_deg}
    rows = []
    for p in neg:
        for q in neg:
            if q < p or minus1_only and q != -1:
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


@pytest.mark.parametrize("case", ["hh11-rebased", "hc21", "g2"])
@pytest.mark.parametrize("shift", [0, 1])
def test_integer_derivation_rows_match_the_fraction_reference(
    get_prolongation, get_rebased, case, shift
):
    if case == "hh11-rebased":
        A = full_prolongation(*get_rebased("hh", p=1, q=1)).algebra
    elif case == "g2":  # kind 5: pairs of degrees below -1 are left out
        A = get_prolongation("g2").algebra
    else:
        A = get_prolongation("hc", p=2, q=1).algebra
    L = _scaled_adjacency(A)[0]
    assert L > 1  # the scaling is exercised
    by_deg = A.by_degree()
    layout = _Layout()
    for p in sorted(d for d in by_deg if d < 0):
        if by_deg.get(p + shift):
            layout.add(p, len(by_deg[p + shift]), len(by_deg[p]))
    ref = _reference_derivation_rows(A, layout, shift)
    rows = list(_derivation_rows(A, layout, shift))
    want_rows = _reference_derivation_rows(A, layout, shift, minus1_only=True)
    assert rows == [{c: L * v for c, v in row.items()} for row in want_rows]
    assert len(rows) < len(ref) or case != "g2"
    want = Echelon(layout.total).extend(map(int_row, ref)).kernel_space()
    got = Echelon(layout.total).extend(rows).kernel_space()
    assert (got.basis, got.denominator, got.free) == (want.basis, want.denominator, want.free)


PERTURBED_LAYERS = {
    "degree0": "the conformal derivation algebra",
    "degree1": "the degree 1 layer",
}


def _prolong_with_a_perturbed_layer(layer):
    """full_prolongation of hh(1,1) after one vector of the Subspace named
    ``layer`` has been changed at a pivot column."""

    class Perturbed(Echelon):
        def kernel_space(self, name="the kernel"):
            space = super().kernel_space(name)
            if name == layer:
                col = min(self.piv)
                vec = space.basis[0]
                vec[col] = vec.get(col, 0) + space.denominator
            return space

    fam = build("hh", p=1, q=1)
    saved = prolongation.Echelon
    prolongation.Echelon = Perturbed
    try:
        return full_prolongation(fam.m, fam.g)
    finally:
        prolongation.Echelon = saved


@pytest.mark.parametrize("key", sorted(PERTURBED_LAYERS))
def test_perturbed_layer_is_rejected(key):
    with pytest.raises(GlapError):
        _prolong_with_a_perturbed_layer(PERTURBED_LAYERS[key])


@pytest.mark.parametrize("key", sorted(PERTURBED_LAYERS))
def test_perturbed_layer_is_rejected_without_asserts(key):
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    script = (
        "import sys\n"
        "if __debug__:\n"
        "    sys.exit('asserts are still on')\n"
        "from glap.errors import GlapError\n"
        "from test_prolongation import PERTURBED_LAYERS, _prolong_with_a_perturbed_layer\n"
        "try:\n"
        f"    _prolong_with_a_perturbed_layer(PERTURBED_LAYERS[{key!r}])\n"
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


def _load(directory: str, name: str):
    """The module ``name`` of the source checkout's ``directory``."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        directory, name + ".py")
    spec = importlib.util.spec_from_file_location(f"{directory}_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bench_rebase():
    """The seeded change of basis of the benchmark's ``rebased`` workload."""
    return _load("bench", "rebase")


def test_a_free_two_step_algebra_in_a_random_basis_prolongs_as_in_the_standard_one():
    """The free 2-step algebra on 5 generators with g = I, its g_-2 in the
    seeded random basis of ``tools/generic_reach.py``, has the dims of the
    standard basis: co(5) in degree 0 and no degree 1 layer.  That g_1 = 0
    is observed here, not proved by the package."""
    m, g = _load("tools", "generic_reach").free_two_step(5, 0)
    assert any(len(cell) > 1 for cell in m.brackets.values())
    prol = full_prolongation(m, g)
    assert prol.dims_by_degree() == {-2: 10, -1: 5, 0: 11}
    assert prol.complete and prol.step_dims == {1: 0}


# the families the benchmark rebases
_REBASED = [(tag, params) for tag, params in DEFAULT_ROWS if tag[0] == "h" and params] + [
    ("bi", {"l": 3}), ("bi", {"l": 4}), ("g2", {}), ("counterexample", {})]


def _engine_inputs():
    """(m, g) of the 14 rows, both ladder rungs and the rebased inputs at
    seeds 0 and 7."""
    rebase = _bench_rebase()
    inputs = [(fam.m, fam.g) for fam in (
        build(tag, **params)
        for tag, params in list(DEFAULT_ROWS) + [("hh", {"p": 1, "q": 3}), ("hc", {"p": 3, "q": 1})]
    )]
    for seed in (0, 7):
        for tag, params in _REBASED:
            fam = build(tag, **params)
            rng = rebase.instance_rng(seed, label(tag, params))
            inputs.append(rebase.rebase(fam.m, fam.g, rng))
    return inputs


def _all_pairs_rows(A, layout, shift):
    """The derivation rows over every pair of negative-degree basis
    elements, p <= q, as the step engine built them before it read only
    the pairs that hold g_{-1}: the reference its kernels must match."""
    by_deg = A.by_degree()
    ad = _scaled_adjacency(A)[1]
    neg = sorted(d for d in by_deg if d < 0)
    local = {d: {g: t for t, g in enumerate(by_deg[d])} for d in by_deg}
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
                adi = ad[gi]
                js = by_deg[q]
                for jj in range(ii + 1 if p == q else 0, len(js)):
                    gj = js[jj]
                    comp = {}
                    cell = adi.get(gj)
                    if cell and (p + q) in layout.blocks:
                        for mg, c in cell.items():
                            for t_global in tgt:
                                col = layout.col(p + q, tpos[t_global], local[p + q][mg])
                                row = comp.setdefault(t_global, {})
                                row[col] = row.get(col, 0) + c
                    if p in layout.blocks:
                        for r, fr in enumerate(by_deg.get(p + shift, [])):
                            for t_global, c in ad[gj].get(fr, {}).items():
                                row = comp.setdefault(t_global, {})
                                col = layout.col(p, r, ii)
                                row[col] = row.get(col, 0) + c
                    if q in layout.blocks:
                        for r, fr in enumerate(by_deg.get(q + shift, [])):
                            for t_global, c in adi.get(fr, {}).items():
                                row = comp.setdefault(t_global, {})
                                col = layout.col(q, r, jj)
                                row[col] = row.get(col, 0) - c
                    for row in comp.values():
                        row = {c: v for c, v in row.items() if v}
                        if row:
                            yield row


def test_every_layer_is_the_all_pairs_kernel(monkeypatch):
    """On the 14 rows, both ladder rungs, the rebased inputs at seeds 0
    and 7 and a run cut at degree 1, every ``_solve`` returns the kernel
    of the rows of every pair: basis, denominator and free columns."""
    solve = prolongation._solve
    seen = []

    def recorded(A, shift, g=None):
        layer = solve(A, shift, g)
        seen.append((A, g, layer))
        return layer

    monkeypatch.setattr(prolongation, "_solve", recorded)
    fam = build("hh", p=1, q=2)
    assert not full_prolongation(fam.m, fam.g, max_degree=1).complete
    for m, g in _engine_inputs():
        full_prolongation(m, g)
    assert len(seen) == 174
    for A, g, layer in seen:
        layout, space = layer.layout, layer.space
        rows = _all_pairs_rows(A, layout, layer.shift)
        if g is None:
            ech = Echelon(layout.total)
        else:
            rows = chain(rows, prolongation._conformal_rows(g, layout))
            ech = Echelon(layout.total + 1)
        want = ech.extend(rows).kernel_space()
        assert (space.basis, space.denominator, space.free) == (want.basis, want.denominator, want.free)


def _per_pair_derivation_rows(A: GradedAlgebra, layout: _Layout, shift: int):
    """The derivation rows as the step engine built them when it read the
    cells of every pair (x, y) afresh, source degrees up from -mu: the
    list, order and entry order that ``_derivation_rows`` must keep."""
    by_deg = A.by_degree()
    ad = _scaled_adjacency(A)[1]
    blocks = layout.blocks
    minus1 = by_deg.get(-1, [])
    local = {g: t for ix in by_deg.values() for t, g in enumerate(ix)}
    # -[x, D(y)]: D(y) runs over the degree shift-1 basis, column jj of block -1
    off_y, rows_y, _ = blocks.get(-1, (0, 0, 0))
    dy = list(enumerate(by_deg.get(shift - 1, []))) if -1 in blocks else []
    for p in sorted(d for d in by_deg if d < 0):
        tgt = by_deg.get(p - 1 + shift)
        if not tgt:
            continue
        # D([x, y]) over the (p-1)-block, when it exists
        off_xy = blocks[p - 1][0] if p - 1 in blocks else None
        # -[D(x), y]: D(x) runs over the degree p+shift basis, column ii of block p
        off_x, rows_x, _ = blocks.get(p, (0, 0, 0))
        dx = list(enumerate(by_deg.get(p + shift, []))) if p in blocks else []
        for ii, gi in enumerate(by_deg[p]):
            adi = ad[gi]
            col_x = off_x + ii * rows_x
            for jj in range(ii + 1 if p == -1 else 0, len(minus1)):
                gj = minus1[jj]
                comp: dict[int, dict[int, int]] = {}
                cell = adi.get(gj)
                if cell and off_xy is not None:
                    for mg, c in cell.items():
                        col = off_xy + local[mg] * len(tgt)
                        for r, t_global in enumerate(tgt):
                            row = comp.setdefault(t_global, {})
                            row[col + r] = row.get(col + r, 0) + c
                adj = ad[gj]
                for r, fr in dx:
                    cell = adj.get(fr)
                    if cell:
                        for t_global, c in cell.items():
                            # [fr, gj] = -[gj, fr]
                            row = comp.setdefault(t_global, {})
                            row[col_x + r] = row.get(col_x + r, 0) + c
                col_y = off_y + jj * rows_y
                for r, fr in dy:
                    cell = adi.get(fr)
                    if cell:
                        for t_global, c in cell.items():
                            row = comp.setdefault(t_global, {})
                            row[col_y + r] = row.get(col_y + r, 0) - c
                for row in comp.values():
                    row = {c: v for c, v in row.items() if v}
                    if row:
                        yield row



def test_the_step_rows_are_those_of_the_per_pair_reads(monkeypatch):
    """On every step system of the 14 rows, both ladder rungs and the
    rebased inputs at seeds 0 and 7, ``_derivation_rows`` yields the rows
    of the generator that read each pair's cells afresh: the same list,
    in the same order, each row's entries in the same order."""
    solve = prolongation._solve
    seen = []

    def recorded(A, shift, g=None):
        layer = solve(A, shift, g)
        seen.append((A, layer.layout, shift))
        return layer

    monkeypatch.setattr(prolongation, "_solve", recorded)
    for m, g in _engine_inputs():
        full_prolongation(m, g)
    assert len(seen) == 172
    for A, layout, shift in seen:
        got = [list(row.items()) for row in prolongation._derivation_rows(A, layout, shift)]
        want = [list(row.items()) for row in _per_pair_derivation_rows(A, layout, shift)]
        assert got == want, (A.name, shift)


def test_every_solve_reads_the_adjacency_of_the_brackets_as_written(monkeypatch):
    """On the 14 rows, both ladder rungs and the rebased inputs at seeds 0
    and 7, every algebra ``_solve`` reads carries the adjacency of its own
    brackets, and the result keeps that of its brackets through the
    certificates and ``analyze``."""
    solve = prolongation._solve
    seen = []

    def checked(A, shift, g=None):
        layer = solve(A, shift, g)
        assert A._adj == _adjacency(A.n, A.brackets), (A.name, shift)
        seen.append(shift)
        return layer

    monkeypatch.setattr(prolongation, "_solve", checked)
    for m, g in _engine_inputs():
        prol = full_prolongation(m, g)
        analyze(prol)
        A = prol.algebra
        assert A._adj is not None and A._adj == _adjacency(A.n, A.brackets), A.name
    assert len(seen) == 172


def test_every_free_column_lies_in_the_degree_minus_1_block(monkeypatch):
    """The fact the forced brackets rest on: on the 14 rows, both ladder
    rungs and the rebased inputs at seeds 0 and 7, every free column of
    every layer lies in the g_{-1} block, or is the eta column at degree 0,
    so a member of a layer is read off its action on g_{-1}."""
    extend = prolongation._extend
    seen = []

    def checked(A, layer, name):
        layout = layer.layout
        off, rows, cols = layout.blocks[-1]
        allowed = set(range(off, off + rows * cols))
        if layer.shift == 0:
            allowed.add(layout.total)
        assert set(layer.space.free) <= allowed, (name, layer.shift)
        seen.append(len(layer))
        return extend(A, layer, name)

    monkeypatch.setattr(prolongation, "_extend", checked)
    for m, g in _engine_inputs():
        full_prolongation(m, g)
    assert len(seen) == 132 and all(seen)


def test_extend_rejects_a_free_column_outside_the_degree_minus_1_block():
    """y in degree -2 is no bracket of degree -1 elements, so the
    derivation that scales y alone has its free column in the degree -2
    block, where no forced bracket is read."""
    A = GradedAlgebra("x + y", ["x", "y"], [-1, -2], {})
    with pytest.raises(GlapError, match="free column 0 of the degree 0 layer"):
        prolong_step(A, -1)


def _forced_keys(A, degree):
    """The bracket keys (w, v) of A with w and v of degrees >= 0 summing
    to ``degree``."""
    degs = A.degrees
    return [(w, v) for w, v in A.brackets
            if degs[w] >= 0 and degs[v] >= 0 and degs[w] + degs[v] == degree]


def test_the_final_certificate_reads_the_written_brackets(get_prolongation, monkeypatch):
    """A forced bracket of the top degree doubled as ``_extend`` returns
    it, before anything reads it, fails the final certificate: the last
    step solve reads no bracket between nonnegative layers, so only the
    certificates see it, and they read the brackets that are returned."""
    nu = get_prolongation("hh", p=1, q=2).nu
    extend = prolongation._extend

    def doubled(A, layer, name):
        B = extend(A, layer, name)
        if layer.shift == nu:
            key = max(_forced_keys(B, nu))
            B.brackets[key] = {t: 2 * c for t, c in B.brackets[key].items()}
        return B

    monkeypatch.setattr(prolongation, "_extend", doubled)
    fam = build("hh", p=1, q=2)
    with pytest.raises(GlapError, match="failed certification"):
        full_prolongation(fam.m, fam.g)


def _unfiltered_forced_cells(A, layer):
    """The forced brackets of ``_extend`` over A and ``layer``, read over
    every pair of nonnegative layers that sum to the layer's degree with
    no pair skipped: the reference for the pairs ``_extend`` skips."""
    shift, layout, space = layer.shift, layer.layout, layer.space
    by_deg = A.by_degree()
    n, t = A.n, len(space)
    actions = []
    for vec in space.basis:
        action = {}
        for p, blk in layout.columns(vec).items():
            src, tgt = by_deg[p], by_deg[p + shift]
            for c_loc, col in blk.items():
                action[src[c_loc]] = {tgt[r]: v for r, v in col.items()}
        actions.append(action)
    reads = prolongation._free_reads(layer, by_deg)
    L, ad = _scaled_adjacency(A)
    ad = [*ad, *actions]
    scale = [L] * n + [space.denominator] * t
    by_deg2 = {**by_deg, shift: list(range(n, n + t))}
    cells = {}
    for a in range(shift // 2 + 1):
        for w in by_deg2.get(a, []):
            for v in by_deg2.get(shift - a, []):
                if 2 * a == shift and w >= v:
                    continue
                coords = {}
                for z, targets in reads.items():
                    acc = {}
                    for x, y, sign in ((w, v, 1), (v, w, -1)):
                        for mgl, c in ad[y].get(z, {}).items():
                            for tg, d in ad[x].get(mgl, {}).items():
                                acc[tg] = acc.get(tg, 0) + sign * c * d
                    for tg, s in targets:
                        if acc.get(tg):
                            coords[s] = acc[tg]
                if coords:
                    den = scale[w] * scale[v]
                    cells[(w, v)] = {n + i: Fraction(c, den) for i, c in coords.items()}
    return cells


def test_extend_skips_only_pairs_without_a_forced_bracket(monkeypatch):
    """On the 14 rows, both ladder rungs and the rebased inputs at seeds 0
    and 7, every ``_extend`` writes the forced brackets of the loop that
    reads every pair: the same cells, in the same order.  The loop it
    runs reads the free reads once per pair it does not skip, and on
    hh(1,3) it skips some."""
    extend, free_reads = prolongation._extend, prolongation._free_reads
    seen = []

    class CountedReads(dict):
        pairs = 0  # pairs whose cells were read

        def items(self):
            self.pairs += 1
            return super().items()

    def counted(layer, by_deg):
        reads = CountedReads(free_reads(layer, by_deg))
        seen.append(reads)
        return reads

    def recorded(A, layer, name):
        B = extend(A, layer, name)
        seen[-1] = (m.name, A, layer, B, seen[-1].pairs)
        return B

    monkeypatch.setattr(prolongation, "_free_reads", counted)
    monkeypatch.setattr(prolongation, "_extend", recorded)
    for m, g in _engine_inputs():
        full_prolongation(m, g)
    monkeypatch.undo()
    assert len(seen) == 132
    skipped = {}
    for label_, A, layer, B, pairs in seen:
        shift = layer.shift
        want = _unfiltered_forced_cells(A, layer)
        forced = set(_forced_keys(B, shift))
        assert [(key, cell) for key, cell in B.brackets.items() if key in forced] == list(
            want.items()), (label_, shift)
        dims = A.dims_by_degree() | {shift: len(layer)}
        every = sum(dims.get(a, 0) * dims.get(shift - a, 0) for a in range(shift // 2 + 1))
        if shift % 2 == 0:  # a pair (w, v) of one degree is read once, with w < v
            every -= dims.get(shift // 2, 0) * (dims.get(shift // 2, 0) + 1) // 2
        assert len(want) <= pairs <= every
        skipped[label_] = skipped.get(label_, 0) + every - pairs
    assert skipped["hh(p=1,q=3).m"] > 0


def _prolong_with_a_wrong_forced_coordinate(max_degree=None):
    """full_prolongation of hh(1,2) after ``_extend`` has written the last
    forced bracket of degree 1 with one coordinate off by one; every later
    step reads that bracket, since its adjacency is built from it."""
    extend = prolongation._extend

    def wrong(A, layer, name):
        B = extend(A, layer, name)
        if layer.shift == 1:
            key = max(_forced_keys(B, 1))
            cell = dict(B.brackets[key])
            cell[min(cell)] += 1
            B.brackets[key] = cell
        return B

    fam = build("hh", p=1, q=2)
    prolongation._extend = wrong
    try:
        return full_prolongation(fam.m, fam.g, max_degree)
    finally:
        prolongation._extend = extend


@pytest.mark.parametrize("max_degree", [None, 1, 2], ids=["complete", "cut-1", "cut-2"])
def test_a_wrong_forced_coordinate_is_rejected(max_degree):
    with pytest.raises(GlapError, match="failed certification"):
        _prolong_with_a_wrong_forced_coordinate(max_degree)


def test_a_wrong_forced_coordinate_is_rejected_without_asserts():
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    script = (
        "import sys\n"
        "if __debug__:\n"
        "    sys.exit('asserts are still on')\n"
        "from glap.errors import GlapError\n"
        "from test_prolongation import _prolong_with_a_wrong_forced_coordinate\n"
        "try:\n"
        "    _prolong_with_a_wrong_forced_coordinate()\n"
        "except GlapError as e:\n"
        "    sys.exit(0 if 'failed certification' in str(e) else str(e))\n"
        "sys.exit('wrong forced coordinate was accepted')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, (proc.stdout, proc.stderr)


# the families on which the emptied degree 1 layer used to pass
EMPTIED = {"hh12": ("hh", {"p": 1, "q": 2}), "bi3": ("bi", {"l": 3}), "hc11": ("hc", {"p": 1, "q": 1})}


def _prolong_with_an_emptied_layer(key):
    """full_prolongation of an ``EMPTIED`` family after ``_solve`` has
    returned its degree 1 layer with no basis vector and no witness."""
    solve = prolongation._solve

    def emptied(A, shift, g=None):
        layer = solve(A, shift, g)
        if shift == 1:
            return Layer(1, layer.layout, Subspace([], 1, [], layer.space.name))
        return layer

    tag, params = EMPTIED[key]
    fam = build(tag, **params)
    prolongation._solve = emptied
    try:
        return full_prolongation(fam.m, fam.g)
    finally:
        prolongation._solve = solve


@pytest.mark.parametrize("key", sorted(EMPTIED))
def test_an_emptied_layer_is_not_certified_maximal(key):
    with pytest.raises(GlapError, match="the degree 1 layer is not certified maximal"):
        _prolong_with_an_emptied_layer(key)


def test_an_emptied_layer_is_rejected_without_asserts():
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    script = (
        "import sys\n"
        "if __debug__:\n"
        "    sys.exit('asserts are still on')\n"
        "from glap.errors import GlapError\n"
        "from test_prolongation import EMPTIED, _prolong_with_an_emptied_layer\n"
        "for key in sorted(EMPTIED):\n"
        "    try:\n"
        "        _prolong_with_an_emptied_layer(key)\n"
        "    except GlapError as e:\n"
        "        if 'not certified maximal' not in str(e):\n"
        "            sys.exit(str(e))\n"
        "    else:\n"
        "        sys.exit(key + ': the emptied layer was accepted')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, (proc.stdout, proc.stderr)


class SpuriousPivot(Echelon):
    """An Echelon that installs one pivot no input row gives: the unit row
    at its last column, before the rows of ``extend``.  It reaches its rank
    with one witness row fewer than the rank."""

    def extend(self, rows):
        self.add({self.ncols - 1: 1})
        return super().extend(rows)


class LostRow(Echelon):
    """An Echelon that loses one row once ``extend`` is done: the pivot row
    of its largest lead and the last row of its witness, as if that row
    had never come in.  Its kernel gains the unit vector at that lead."""

    def extend(self, rows):
        super().extend(rows)
        del self.piv[max(self.piv)]
        self.raised.pop()
        return self


def _prolong_with_a_planted_echelon(planted, shift, max_degree=None):
    """full_prolongation of hh(1,2), cut at ``max_degree``, with the layer
    of degree ``shift`` solved by the Echelon class ``planted``."""
    solve = prolongation._solve

    def planted_solve(A, k, g=None):
        prolongation.Echelon = planted if k == shift else Echelon
        try:
            return solve(A, k, g)
        finally:
            prolongation.Echelon = Echelon

    fam = build("hh", p=1, q=2)
    prolongation._solve = planted_solve
    try:
        return full_prolongation(fam.m, fam.g, max_degree)
    finally:
        prolongation._solve = solve


@pytest.mark.parametrize("shift", [1, 2, 3])
def test_a_spurious_pivot_is_not_certified_maximal(shift):
    """At degree 3 the system has full rank: the spurious pivot leaves the
    layer empty, as it should be, yet its witness is one row short."""
    with pytest.raises(GlapError, match=f"the degree {shift} layer is not certified maximal"):
        _prolong_with_a_planted_echelon(SpuriousPivot, shift)


def test_a_lost_row_fails_the_m_pair_sweep():
    """The lost row leaves a witness of the right rank for the larger
    kernel, whose extra vector is no derivation of m: the m-pair sweep
    sees it.  The run is cut at degree 1, since the layers past a layer
    that is no derivation algebra need not end."""
    with pytest.raises(GlapError, match="failed certification: [0-9]+ violations"):
        _prolong_with_a_planted_echelon(LostRow, 1, max_degree=1)


def test_a_changed_action_cell_fails_certification(monkeypatch):
    """One coefficient of an action [x, u], x in g_-1 and u in g_1, changed
    as ``_extend`` returns it, before anything reads it: u is then no
    derivation of m, which the m-pair sweep sees."""
    extend = prolongation._extend

    def changed(A, layer, name):
        B = extend(A, layer, name)
        if layer.shift == 1:
            x, u = B.by_degree()[-1][0], A.n
            cell = dict(B.brackets[(x, u)])
            cell[min(cell)] += 1
            B.brackets[(x, u)] = cell
        return B

    monkeypatch.setattr(prolongation, "_extend", changed)
    fam = build("hh", p=1, q=2)
    with pytest.raises(GlapError, match="failed certification: [0-9]+ violations"):
        full_prolongation(fam.m, fam.g)


@pytest.mark.parametrize("max_degree", [None, 0])
def test_a_g0_action_that_is_not_conformal_fails_certification(monkeypatch, max_degree):
    """On the abelian R^3 every linear map is a derivation, so an action of
    co(3) with one more coefficient, off the free reads, is still one, and
    only the conformal certificate (c) tells it from the layer."""
    extend = prolongation._extend

    def changed(A, layer, name):
        B = extend(A, layer, name)
        if layer.shift == 0:
            cell = dict(B.brackets.get((0, 3), {}))
            cell[1] = cell.get(1, 0) + 1
            B.brackets[(0, 3)] = cell
        return B

    m = GradedAlgebra("R3", ["x0", "x1", "x2"], [-1, -1, -1], {})
    g = SymBilinearForm.for_algebra(m, diag([1, 1, 1]))
    prol = full_prolongation(m, g)
    assert prol.dims_by_degree() == {-1: 3, 0: 4, 1: 3}
    monkeypatch.setattr(prolongation, "_extend", changed)
    with pytest.raises(GlapError, match="does not act conformally on g_-1"):
        full_prolongation(m, g, max_degree)


def test_full_prolongation_sweeps_only_the_m_pairs(monkeypatch):
    """The one Jacobi sweep of ``full_prolongation`` is the m-pair sweep:
    no triple with two elements outside m, and no call of check_gla."""
    sweeps = []
    residuals = gla._jacobi_residuals

    def recorded(A, ad, **kwargs):
        sweeps.append(kwargs)
        return residuals(A, ad, **kwargs)

    monkeypatch.setattr(prolongation, "_jacobi_residuals", recorded)
    fam = build("hh", p=1, q=2)
    assert full_prolongation(fam.m, fam.g).complete
    assert sweeps == [{"reduced": True, "below": fam.m.n}]
    assert not hasattr(prolongation, "check_gla")


@pytest.mark.parametrize("tag,params", [
    ("hc", {"p": 1, "q": 1}), ("hh", {"p": 1, "q": 2}), ("bi", {"l": 3}), ("g2", {}), ("ho", {})])
def test_truncated_runs_pass_their_sweep(get_family, get_prolongation, tag, params):
    """A run cut at every degree K up to nu passes the sweep of
    ``check_gla`` with ``top`` K - 1, and is the complete run cut there; the
    whole truncated algebra does have Jacobi residuals (above the cut)."""
    fam = get_family(tag, **params)
    full = get_prolongation(tag, **params)
    for K in range(full.nu + 1):
        cut = full_prolongation(fam.m, fam.g, max_degree=K)
        assert not cut.complete and cut.nu == K
        A = cut.algebra
        assert check_gla(A, top=K - 1)["violation_count"] == 0
        keep = {i for i, d in enumerate(full.algebra.degrees) if d <= K}
        assert A.brackets == {key: cell for key, cell in full.algebra.brackets.items()
                              if set(key) <= keep and set(cell) <= keep}
    cut = full_prolongation(fam.m, fam.g, max_degree=1)
    if (tag, params) == ("hh", {"p": 1, "q": 2}):
        assert check_gla(cut.algebra)["violation_count"] == 132


def test_extend_leaves_the_adjacency_to_be_built_when_L_grows():
    """A degree 0 layer over the abelian R^3 whose canonical basis has
    halves off its free columns, so L = 2, while the commutator of its
    first and last vector has the coordinate -1/4 = -1/L**2: the forced
    cell leaves L, and the adjacency of the result, built from its
    brackets, has L = 4."""
    m = GradedAlgebra("R3", ["x0", "x1", "x2"], [-1, -1, -1], {})
    layout = _Layout()
    layout.add(-1, 3, 3)  # unknown M[r][c] at column 3c + r
    vectors = [
        [1, 0, F(1, 2), -2, 0, -1, 0, 1, -1],
        [0, 1, -1, 0, -2, 2, 0, -2, 2],
        [0, 0, 0, 0, 0, 0, 1, F(1, 2), 0],
    ]
    space = Subspace([{i: int(2 * x) for i, x in enumerate(v) if x} for v in vectors],
                     2, [0, 1, 6], "a conjugate of the Heisenberg algebra")
    B = _extend(m, Layer(0, layout, space), "R3 + h3")
    assert B.brackets[(3, 5)] == {3: F(-1, 2), 4: F(-1, 4), 5: F(1)}
    L, ad = _scaled_adjacency(B)
    assert L == 4 and (L, ad) == _adjacency(B.n, B.brackets)
    rep = check_gla(B)
    assert rep["grading_ok"] and rep["jacobi_ok"]


@pytest.mark.parametrize("case", ["hh12", "hh11-rebased"])
def test_one_adjacency_build_per_algebra(monkeypatch, get_rebased, case):
    """Through build, full_prolongation and analyze the scaled adjacency is
    built once for m and once for each extension, by the step solve over
    it: the certificates and invariants of the result read the copy its
    last step solve built."""
    calls = []
    adjacency = gla._adjacency

    def counted(n, brackets):
        calls.append(n)
        return adjacency(n, brackets)

    monkeypatch.setattr(gla, "_adjacency", counted)
    if case == "hh12":
        fam = build("hh", p=1, q=2)
        m, g = fam.m, fam.g
    else:
        m, g = get_rebased("hh", p=1, q=1)
        calls.clear()  # the builder's own m, which is rebased away
    prol = full_prolongation(m, g)
    analyze(prol)
    dims = prol.dims_by_degree()
    assert calls == [m.n] + [sum(v for d, v in dims.items() if d <= k)
                             for k in sorted(dims) if k >= 0]

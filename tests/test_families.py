import hashlib
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from glap import families
from glap.analysis import killing_form
from glap.cli import DEFAULT_ROWS
from glap.composition import algebra_by_tag
from glap.errors import BadParameters, GlapError, require
from glap.families import FAMILIES, build
from glap.gla import GradedAlgebra, check_fundamental, check_gla
from glap.linalg import Mat
from test_composition import add, mul


EXPECTED_KIND = {
    "hc": 2, "hc-split": 2, "hh": 2, "hh-split": 2,
    "ho": 2, "ho-split": 2, "bi": 3, "g2": 5, "counterexample": 3,
}

MINIMAL_PARAMS = {tag: spec.instances[0] for tag, spec in FAMILIES.items()}


@pytest.mark.parametrize("tag", FAMILIES)
def test_every_builder_is_a_clean_fgla(get_family, tag):
    fam = get_family(tag, **MINIMAL_PARAMS[tag])
    rep = check_gla(fam.m)
    assert rep["grading_ok"] and rep["jacobi_ok"]
    ok, kind = check_fundamental(fam.m)
    assert ok
    assert kind == EXPECTED_KIND[tag]


@pytest.mark.parametrize(
    "tag,params,dims",
    [
        ("hc", {"p": 1, "q": 1}, {-1: 2, -2: 1}),
        ("hc", {"p": 1, "q": 2}, {-1: 4, -2: 1}),
        ("hh", {"p": 1, "q": 1}, {-1: 4, -2: 3}),
        ("hh-split", {"p": 1, "q": 2}, {-1: 8, -2: 3}),
        ("bi", {"l": 2}, {-1: 2, -2: 1, -3: 1}),
        ("bi", {"l": 3}, {-1: 4, -2: 2, -3: 2}),
        ("ho", {}, {-1: 8, -2: 7}),
        ("g2", {}, {-1: 2, -2: 1, -3: 1, -4: 1, -5: 1}),
        ("counterexample", {}, {-1: 4, -2: 4, -3: 2}),
    ],
)
def test_m_dimensions(get_family, tag, params, dims):
    assert get_family(tag, **params).m.dims_by_degree() == dims


@pytest.mark.parametrize(
    "tag,params,sig",
    [
        ("hc", {"p": 1, "q": 1}, (2, 0)),
        ("hc", {"p": 2, "q": 1}, (4, 2)),
        ("hc", {"p": 2, "q": 0}, (2, 2)),
        ("hc-split", {"p": 1, "q": 1}, (1, 1)),
        ("hh", {"p": 1, "q": 1}, (4, 0)),
        ("hh-split", {"p": 1, "q": 1}, (2, 2)),
        ("bi", {"l": 3}, (2, 2)),
        ("ho", {}, (8, 0)),
        ("ho-split", {}, (4, 4)),
        ("g2", {}, (1, 1)),
        ("counterexample", {}, (2, 2)),
    ],
)
def test_form_signatures(get_family, tag, params, sig):
    assert get_family(tag, **params).g.signature() == sig


@pytest.mark.parametrize(
    "tag,params,ambient_dim",
    [
        ("hc", {"p": 1, "q": 1}, 8),  # su(2,1)
        ("hc-split", {"p": 2, "q": 1}, 24),  # sl(5,R)
        ("hh", {"p": 1, "q": 1}, 21),  # sp(2,1)
        ("hh-split", {"p": 1, "q": 2}, 36),  # sp(4,R)
        ("bi", {"l": 3}, 21),  # so(4,3)
    ],
)
def test_ambient_dimension(get_family, tag, params, ambient_dim):
    fam = get_family(tag, **params)
    assert fam.ambient is not None
    assert fam.ambient.n == ambient_dim
    rep = check_gla(fam.ambient)
    assert rep["grading_ok"] and rep["jacobi_ok"]


def test_ambient_negative_part_is_m(get_family):
    fam = get_family("hc", p=1, q=1)
    neg = fam.ambient.negative_part("x")
    assert neg.dims_by_degree() == fam.m.dims_by_degree()
    assert neg.brackets == fam.m.brackets


def test_prolongation_recovers_ambient_dims(get_family, get_prolongation):
    for tag, params in [("hc", {"p": 1, "q": 1}), ("bi", {"l": 2})]:
        fam = get_family(tag, **params)
        prol = get_prolongation(tag, **params)
        assert prol.dims_by_degree() == fam.ambient.dims_by_degree()


@pytest.mark.parametrize(
    "tag,params,cartan_dim",
    [
        ("hc-split", {"p": 1, "q": 1}, 2),
        ("hc-split", {"p": 2, "q": 1}, 4),
        ("hh-split", {"p": 1, "q": 1}, 3),
        ("bi", {"l": 2}, 2),
        ("bi", {"l": 3}, 3),
        ("g2", {}, 2),
    ],
)
def test_split_cartan_tags(get_family, tag, params, cartan_dim):
    fam = get_family(tag, **params)
    assert fam.cartan is not None
    assert fam.cartan == cartan_dim


def test_non_split_families_carry_no_cartan_tag(get_family):
    assert get_family("hc", p=1, q=1).cartan is None
    assert get_family("ho").cartan is None
    assert get_family("counterexample").cartan is None


@pytest.mark.parametrize(
    "tag,params,fragment",
    [
        ("hc", {"p": 1, "q": 0}, "2p+q >= 3"),
        ("hc", {"p": 0, "q": 3}, "p >= 1"),
        ("hc", {"p": 3, "q": 19}, "2p+q <= 24"),
        ("hc", {}, "requires --p"),
        ("bi", {"l": 1}, "l >= 2"),
        ("bi", {"l": 13}, "l <= 12"),
        ("bi", {}, "requires --l"),
        ("g2", {"p": 1}, "takes no parameters"),
        ("ho", {"q": 2}, "takes no parameters"),
        ("zz", {}, "unknown family"),
        ("bi", {"p": 1}, "bi takes l, got ['p']"),
    ],
)
def test_parameter_validation(tag, params, fragment):
    with pytest.raises(BadParameters) as exc:
        build(tag, **params)
    assert fragment in str(exc.value)


def test_oracle_keys():
    assert build("hc", p=1, q=1).oracle_key() == ("HC", {"p": 1, "q": 1})
    assert build("g2").oracle_key() == ("G", {})
    key, params = build("counterexample").oracle_key()
    assert key is None and params == {}


def test_q_defaults_to_zero(get_family):
    fam = get_family("hh", p=2)
    assert fam.params == {"p": 2, "q": 0}
    assert fam.m.dims_by_degree() == {-1: 8, -2: 3}


def test_octonionic_bracket_values(get_family):
    """[x, y] = conj(x) y - conj(y) x pairs the unit with each imaginary
    basis vector onto twice that vector in degree -2."""
    m = get_family("ho").m
    # basis: x0..x7 (degree -1) then z1..z7 (degree -2)
    for t in range(1, 8):
        cell = m.bracket_pair(0, t)
        assert cell == {7 + t: 2}


def test_a_planted_g2_constant_is_one_jacobi_violation():
    """[u1, u2] = -1/2 Z in place of -1/3 Z: the Jacobiator of (T, u0, u2)
    is (3 omega(u1, u2) + omega(u0, u3)) Z = -1/2 Z, and it is the only
    one that breaks."""
    m = build("g2").m
    bad = GradedAlgebra(m.name, m.labels, m.degrees, {**m.brackets, (2, 3): {5: Fraction(-1, 2)}})
    assert check_gla(bad)["violations"] == [
        {"type": "jacobi", "triple": [0, 1, 3], "residual": {5: "-1/2"}}
    ]
    with pytest.raises(GlapError, match="Jacobi certificate: 1 violations$"):
        families._certify(bad)


def test_the_counterexample_form_is_the_killing_form_of_sl3(get_family):
    """g(x, s(y)) = B(x, y), read from the C_1 block of the Killing form of
    sl(3): x runs over the degree -1 part E21, E31 and y over its dual
    E12, E13, shifted down as s(E12), s(E13)."""
    fam = get_family("counterexample")
    assert [fam.m.labels[i] for i in fam.g.indices] == ["E21", "E31", "s(E12)", "s(E13)"]
    L = families._sl3()
    L2, blocks = killing_form(L)
    by_deg = L.by_degree()
    x_part = [L.labels.index(x) for x in ("E21", "E31")]
    y_part = [L.labels.index(y) for y in ("E12", "E13")]
    want = [[Fraction(0)] * 4 for _ in range(4)]
    for a, x in enumerate(x_part):
        for b, y in enumerate(y_part):
            # B(x, y) for x of degree -1 and y of degree 1: entry (y, x) of C_1
            row = blocks[1][by_deg[1].index(y)]
            want[a][2 + b] = want[2 + b][a] = Fraction(row.get(by_deg[-1].index(x), 0), L2)
    assert fam.g.matrix == Mat(want)


def _corrupt(assemble):
    """_assemble with 1 added to one structure constant of the ambient
    algebra: the grading stays intact, the Jacobi identity breaks."""
    def corrupt(name, spaces):
        A = assemble(name, spaces)
        cell = A.brackets[min(A.brackets)]
        cell[min(cell)] += 1
        return A
    return corrupt


def test_corrupted_ambient_fails_its_certificate(monkeypatch):
    monkeypatch.setattr(families, "_assemble", _corrupt(families._assemble))
    with pytest.raises(GlapError, match="Jacobi certificate: [1-9][0-9]* violations"):
        build("hc", p=1, q=1)


def test_corrupted_ambient_fails_its_certificate_without_asserts():
    script = """
from glap import families
from glap.errors import GlapError

assemble = families._assemble


def corrupt(name, spaces):
    A = assemble(name, spaces)
    cell = A.brackets[min(A.brackets)]
    cell[min(cell)] += 1
    return A


families._assemble = corrupt
try:
    families.build("hc", p=1, q=1)
except GlapError as e:
    print(e)
    raise SystemExit(0 if "Jacobi certificate" in str(e) else 2)
raise SystemExit(1)
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, (proc.stdout, proc.stderr)


def _change_a_coefficient(A):
    cell = A.brackets[min(A.brackets)]
    cell[min(cell)] += Fraction(1, 3)


def _drop_a_bracket(A):
    del A.brackets[max(A.brackets)]


def _bracket_a_commuting_pair(A):
    degs = A.degrees
    i, j = next((i, j) for i in range(A.n) for j in range(i + 1, A.n)
                if (i, j) not in A.brackets and degs[i] + degs[j] in degs)
    A.brackets[(i, j)] = {degs.index(degs[i] + degs[j]): Fraction(1)}


def _add_a_term_in_the_wrong_degree(A):
    (i, j), cell = min(A.brackets.items())
    cell[next(k for k in range(A.n) if A.degrees[k] != A.degrees[i] + A.degrees[j])] = Fraction(1)


def _permute_the_degrees(A):
    A.degrees[:] = A.degrees[1:] + A.degrees[:1]


@pytest.mark.parametrize("corrupt,violations", [
    (_change_a_coefficient, "1"),
    (_drop_a_bracket, "1"),
    (_bracket_a_commuting_pair, "1"),
    (_add_a_term_in_the_wrong_degree, "1"),
    (_permute_the_degrees, "[1-9][0-9]*"),
], ids=["coefficient", "dropped", "extra", "wrong-degree", "degrees"])
@pytest.mark.parametrize("tag,params", [("hc", {"p": 1, "q": 1}), ("bi", {"l": 2})],
                         ids=["hc-p1-q1", "bi-l2"])
def test_the_re_derivation_rejects_each_corruption(monkeypatch, tag, params, corrupt, violations):
    """The ambient's certificate re-derives every bracket from the basis
    matrices, so each kind of damage to the returned algebra fails it."""
    assemble = families._assemble

    def corrupted(name, spaces):
        A = assemble(name, spaces)
        corrupt(A)
        return A

    monkeypatch.setattr(families, "_assemble", corrupted)
    with pytest.raises(GlapError, match=f"Jacobi certificate: {violations} violations$"):
        build(tag, **params)


def test_the_re_derivation_rejects_a_dropped_bracket_without_asserts():
    script = """
from glap import families
from glap.errors import GlapError

assemble = families._assemble


def corrupt(name, spaces):
    A = assemble(name, spaces)
    del A.brackets[max(A.brackets)]
    return A


families._assemble = corrupt
try:
    families.build("hh", p=1, q=1)
except GlapError as e:
    print(e)
    raise SystemExit(0 if str(e).endswith("Jacobi certificate: 1 violations") else 2)
raise SystemExit(1)
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, (proc.stdout, proc.stderr)


def _reference_check_covariance(A, G, eta_by_index):
    """The dense Fraction form of the covariance certificate: M^T G + G M
    == eta G for each degree-zero element, M its action on degree -1, read
    from ``bracket_pair``."""
    src = A.by_degree().get(-1, [])
    pos = {g: r for r, g in enumerate(src)}
    n = len(src)
    for idx, eta in eta_by_index:
        M = Mat.zeros(n, n)
        for c, j in enumerate(src):
            for k, x in A.bracket_pair(idx, j).items():
                M.a[pos[k]][c] = x
        MtG, GM = Mat([list(col) for col in zip(*M.a)]) * G, G * M
        lhs = [[x + y for x, y in zip(r, s)] for r, s in zip(MtG.a, GM.a)]
        require(lhs == [[eta * x for x in row] for row in G.a],
                f"conformal factor mismatch at {A.labels[idx]}")


# the matrix families (hc, hh and their split forms, bi) are the ones
# with parameters
MATRIX_ROWS = [(tag, params) for tag, params in DEFAULT_ROWS if params]


@pytest.fixture(scope="module")
def covariance_inputs():
    """(label, ambient, G, eta_by_index) handed to the covariance check by
    every matrix-family row of verify-table."""
    seen = []
    check = families._check_covariance

    def capture(A, G, eta_by_index):
        seen.append((A, G, list(eta_by_index)))
        return check(A, G, eta_by_index)

    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(families, "_check_covariance", capture)
        for tag, params in MATRIX_ROWS:
            build(tag, **params)
            assert len(seen) == 1
            out.append((f"{tag}{params}", *seen.pop()))
    return out


def _perturb_eta(G, eta_by_index):
    (idx, eta), *rest = eta_by_index
    return G, [(idx, eta + Fraction(1, 3))] + rest


def _perturb_gram_pair(G, eta_by_index):
    """Add 1 to the first zero entry G[r, c], r <= c, and to its mirror: a
    coupling the form does not have.  (Changing a nonzero entry can rescale
    a pairing the action still respects, as on bi(2).)"""
    r, c = next((r, c) for r in range(G.n) for c in range(r, G.n) if not G.a[r][c])
    G = Mat([row[:] for row in G.a])
    G.a[r][c] += 1
    G.a[c][r] = G.a[r][c]
    return G, eta_by_index


def test_covariance_matches_the_dense_reference(covariance_inputs):
    assert len(covariance_inputs) == 10
    for label, A, G, etas in covariance_inputs:
        assert len(etas) == len(A.by_degree()[0]), label
        families._check_covariance(A, G, etas)
        _reference_check_covariance(A, G, etas)


@pytest.mark.parametrize("perturb", [_perturb_eta, _perturb_gram_pair])
def test_perturbed_covariance_input_is_rejected(covariance_inputs, perturb):
    for label, A, G, etas in covariance_inputs:
        G2, etas2 = perturb(G, etas)
        for check in (families._check_covariance, _reference_check_covariance):
            with pytest.raises(GlapError, match="conformal factor mismatch"):
                check(A, G2, etas2)


@pytest.mark.parametrize("perturbation", ["eta", "gram"])
def test_perturbed_covariance_input_is_rejected_without_asserts(perturbation):
    script = f"""
from fractions import Fraction

from glap import families
from glap.errors import GlapError
from glap.linalg import Mat

check = families._check_covariance


def perturbed(A, G, eta_by_index):
    if {perturbation!r} == "eta":
        (idx, eta), *rest = eta_by_index
        eta_by_index = [(idx, eta + Fraction(1, 3))] + rest
    else:
        r, c = next((r, c) for r in range(G.n) for c in range(r, G.n) if not G.a[r][c])
        G = Mat([row[:] for row in G.a])
        G.a[r][c] += 1
        G.a[c][r] = G.a[r][c]
    return check(A, G, eta_by_index)


families._check_covariance = perturbed
for tag, params in [("hh", {{"p": 1, "q": 1}}), ("bi", {{"l": 3}})]:
    try:
        families.build(tag, **params)
    except GlapError as e:
        print(e)
        if "conformal factor mismatch" not in str(e):
            raise SystemExit(2)
    else:
        raise SystemExit(1)
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, (proc.stdout, proc.stderr)


# ---------------------------------------------------------------------------
# the integer assembly of the ambient
# ---------------------------------------------------------------------------


def _reference_assemble(name, spaces, pairs=lambda da, db: True):
    """The Fraction form of the assembly: each basis matrix over K as
    {(i, j): coordinates of the entry}, each bracket of degrees (da, db)
    with ``pairs(da, db)`` a commutator multiplied out over the raw unit
    table (``test_composition.mul``), its coordinates read off the target
    degree."""

    def cells(space, k):
        d = space.alg.dim
        vec = space.space.vector(k)
        return {
            space.cells[idx]: tuple(Fraction(vec.get(idx * d + t, 0)) for t in range(d))
            for idx in sorted({c // d for c in vec})
        }

    basis, labels, degs, offset = [], [], [], {}
    for delta in sorted(d for d in spaces if spaces[d].dim()):
        offset[delta] = len(basis)
        for k in range(spaces[delta].dim()):
            basis.append((delta, cells(spaces[delta], k)))
            labels.append(f"g{delta}_{k}")
            degs.append(delta)
    alg = next(iter(spaces.values())).alg

    def product(X, Y):
        out = {}
        for (i, k), x in X.items():
            for (k2, j), y in Y.items():
                if k == k2:
                    xy = mul(alg, x, y)
                    out[i, j] = add(out[i, j], xy) if (i, j) in out else xy
        return out

    brackets = {}
    for a, (da, X) in enumerate(basis):
        for b in range(a + 1, len(basis)):
            db, Y = basis[b]
            if not pairs(da, db):
                continue
            XY, YX = product(X, Y), product(Y, X)
            Z = {}
            for (i, j), v in XY.items():
                for s, c in enumerate(v):
                    Z[i, j, s] = c
            for (i, j), v in YX.items():
                for s, c in enumerate(v):
                    Z[i, j, s] = Z.get((i, j, s), 0) - c
            if not any(Z.values()):
                continue
            coords = spaces[da + db].coords(Z)
            cell = {offset[da + db] + k: c for k, c in coords.items()}
            if cell:
                brackets[(a, b)] = cell
    return GradedAlgebra(name, labels, degs, brackets)


ASSEMBLY_ROWS = MATRIX_ROWS + [
    ("hh", {"p": 1, "q": 3}),
    ("hc", {"p": 3, "q": 1}),
    ("bi", {"l": 6}),
    ("hc", {"p": 1, "q": 6}),
]


def test_integer_assembly_matches_the_fraction_reference(monkeypatch):
    seen = []
    assemble = families._assemble

    def capture(name, spaces):
        A = assemble(name, spaces)
        seen.append((spaces, A))
        return A

    monkeypatch.setattr(families, "_assemble", capture)
    for tag, params in ASSEMBLY_ROWS:
        build(tag, **params)
        assert len(seen) == 1, (tag, params)
        spaces, A = seen.pop()
        want = _reference_assemble(A.name, spaces, families._read_by_build)
        assert A.serialize() == want.serialize(), (tag, params)


def _record_matrix_calls(monkeypatch):
    """Wrap ``_assemble`` and ``_certify_matrices``; the list they fill
    holds (function name, the degrees of the spaces it was handed)."""
    calls = []
    for fn in ("_assemble", "_certify_matrices"):
        def wrapped(first, spaces, *rest, _fn=fn, _orig=getattr(families, fn)):
            calls.append((_fn, sorted(spaces)))
            return _orig(first, spaces, *rest)
        monkeypatch.setattr(families, fn, wrapped)
    return calls


@pytest.mark.parametrize("tag,params", MATRIX_ROWS,
                         ids=[families.label(tag, params) for tag, params in MATRIX_ROWS])
def test_build_assembles_no_positive_degree(monkeypatch, tag, params):
    calls = _record_matrix_calls(monkeypatch)
    build(tag, **params)
    assert [fn for fn, _ in calls] == ["_assemble", "_certify_matrices"]
    assert all(max(degrees) == 0 for _, degrees in calls)


@pytest.mark.parametrize("tag,params", ASSEMBLY_ROWS,
                         ids=[families.label(tag, params) for tag, params in ASSEMBLY_ROWS])
def test_the_ambient_is_assembled_and_certified_on_first_read(monkeypatch, tag, params):
    """The first read extends what ``build`` certified: each pair that
    build did not read is multiplied out once to assemble it and once to
    certify it, and no pair that build read is multiplied out again."""
    calls = _record_matrix_calls(monkeypatch)
    seen = []
    assemble = families._assemble

    def capture(name, spaces, *rest):
        A = assemble(name, spaces, *rest)
        seen.append((spaces, A))
        return A

    commutators = []
    commutator = families._commutator

    def count(X, Y, table):
        commutators.append(1)
        return commutator(X, Y, table)

    monkeypatch.setattr(families, "_assemble", capture)
    monkeypatch.setattr(families, "_commutator", count)
    fam = build(tag, **params)
    calls.clear()
    seen.clear()
    commutators.clear()
    A = fam.ambient
    multiplied = len(commutators)
    assert [fn for fn, _ in calls] == ["_assemble", "_certify_matrices"]
    assert all(min(degrees) == -max(degrees) < 0 for _, degrees in calls)
    assert fam.ambient is A and len(calls) == 2 and len(commutators) == multiplied
    spaces, got = seen.pop()
    assert got is A
    assert A.serialize() == _reference_assemble(A.name, spaces).serialize()
    # m + g_0 is the ambient's first indices, with the brackets build reads
    low = families._assemble(A.name, {d: sp for d, sp in spaces.items() if d <= 0})
    assert low.labels == A.labels[:low.n] and low.degrees == A.degrees[:low.n]
    degs = A.degrees
    read = {(i, j) for i in range(A.n) for j in range(i + 1, A.n)
            if families._read_by_build(degs[i], degs[j])}
    assert low.brackets == {key: cell for key, cell in A.brackets.items() if key in read}
    assert multiplied == 2 * (A.n * (A.n - 1) // 2 - len(read))


def test_a_corrupted_positive_bracket_fails_when_the_ambient_is_read(monkeypatch):
    assemble = families._assemble

    def corrupt(name, spaces, *rest):
        A = assemble(name, spaces, *rest)
        if max(spaces) > 0:
            degs = A.degrees
            cell = A.brackets[min(key for key in A.brackets if degs[key[1]] > 0)]
            cell[min(cell)] += 1
        return A

    monkeypatch.setattr(families, "_assemble", corrupt)
    fam = build("hc", p=1, q=1)
    for _ in range(2):  # a failed read keeps nothing
        with pytest.raises(GlapError, match="Jacobi certificate: 1 violations$"):
            fam.ambient


def test_a_corrupted_degree_zero_bracket_fails_when_the_ambient_is_read(monkeypatch):
    """[g_0, g_0] is assembled and certified on the first read, not by build."""
    assemble = families._assemble

    def corrupt(name, spaces, *rest):
        A = assemble(name, spaces, *rest)
        if rest:
            degs = A.degrees
            cell = A.brackets[min(key for key in A.brackets if degs[key[0]] == degs[key[1]] == 0)]
            cell[min(cell)] += 1
        return A

    monkeypatch.setattr(families, "_assemble", corrupt)
    fam = build("hh", p=1, q=2)
    with pytest.raises(GlapError, match="Jacobi certificate: 1 violations$"):
        fam.ambient


def _planted(table, s, t, factor):
    """A copy of a unit table with the coefficient of e_s e_t times factor."""
    out = [list(row) for row in table]
    u, c = out[s][t]
    out[s][t] = (u, c * factor)
    return out


@pytest.mark.parametrize(
    "factor,fragment",
    [(-1, "H is not associative"), (Fraction(1, 2), "is not an integer")],
    ids=["sign-flip", "non-integer"],
)
def test_planted_unit_table_fails_the_build(monkeypatch, factor, fragment):
    H = algebra_by_tag("H")
    monkeypatch.setattr(H, "_table", _planted(H._table, 1, 2, factor))
    with pytest.raises(GlapError, match=fragment):
        build("hh", p=1, q=1)


def test_planted_sign_flip_fails_the_build_without_asserts():
    script = """
from glap.composition import algebra_by_tag
from glap.errors import GlapError
from glap.families import build

H = algebra_by_tag("H")
H._table = [list(row) for row in H._table]
u, c = H._table[1][2]
H._table[1][2] = (u, -c)
try:
    build("hh", p=1, q=1)
except GlapError as e:
    print(e)
    raise SystemExit(0 if "not associative" in str(e) else 2)
raise SystemExit(1)
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, (proc.stdout, proc.stderr)


# (tag, params, sha256 of m, g and the ambient as serialized while the
# ambient was still assembled from Fraction commutators): the 14 default
# rows and the two bench ladder rungs
BUILD_DIGESTS = [
    ("hc", {"p": 1, "q": 1},
     ("000d71b59b940386b30ad7036db21ac57c7229b2356af9664263bef7511c2ce1",
      "0df7c069483ea981a94b37c3556c4e1ddff9d7340c843fb18615a511ca1ccbe5",
      "55f828675ace36dbb228ef56deb0ecafcc430b8fe925b0a871a7fa49088a867a")),
    ("hc", {"p": 2, "q": 1},
     ("9c6dfa0ad1c2bcc4314272f32802c837ad8fc8f3b8740576315d6f281e2ff23c",
      "0992c37ba8a7674f57a3eeb3acab6bc7631cb0a1e757bd9207e393c2f19d13ed",
      "6ebc383f6a9513c123971691756e51e9052652d379bf0bcac83a79c88c4e145c")),
    ("hc-split", {"p": 1, "q": 1},
     ("de19992d122db37ee341da4a8c348f0b55aa741b148a1f11b24dc71322a1b7df",
      "036cbfcc8186f2b183e4f360ea688c5c60144fa400a84296305a4b48f9fb1a57",
      "c3ddcc39c1e65dd775ebf7cce04f1e369d559a80b00f8e3e024712b1f41e204a")),
    ("hc-split", {"p": 2, "q": 1},
     ("bcb852f9b9ce7a354e5aed9b4585df8f887766b910b74b0d4cc500e62151e083",
      "2885a9c00b812f6c3cb16d4747be794d4cdef6fb5de83123fb603c2586fc5f3d",
      "cc76fe637586d306835f97e165d38b68e16f21461aefd562470277b97d11071b")),
    ("hh", {"p": 1, "q": 1},
     ("9c1a903884c33e889c5432acbd9e9bd7d0626d873f68af9f1b9ab7c49c8b8f07",
      "745bdd0112d2951081fc33c18f8ddc0d57a3a370d9ec61fa69208d8297a98fd7",
      "ebeba2b03e0e3426468d0b15b196774f8cf5aac8636f76fa6af3b015b08fa5fd")),
    ("hh", {"p": 1, "q": 2},
     ("9a9d32eaf24f1acc72d1b259c216d8629bb196d350b24306ac3480844c779f2d",
      "0cd53e70a0736a422adbc105485a492118a8aa46fa0bd10d85e3366920235b58",
      "8afbb66ad6f840f2dca42d6e90945a174ed70ffb1db5e10a17b53c3ddf895333")),
    ("hh-split", {"p": 1, "q": 1},
     ("31fd3631cfa92faa5bdf9e71630ac1ea33059f86883b21008537ca4cad386634",
      "de64e2e48a83656057b3bab28c5fd0f19562b0fd8ecfe8bdf09a4decc03a9db8",
      "748c14f8038c23948d7c1a111083d45efa5b5dc5ed4fe6dc321697f186eb5e9f")),
    ("hh-split", {"p": 1, "q": 2},
     ("8721ae515c4ff44c3eafbe099e732a364037875137da31b52cd3e01b69e9ed4d",
      "1240c65b2897a9f6d66e4599d40ead407d8b7bd3896ab257461d22015d9e65f8",
      "06352c5a0145af4219eee6827490fd846bd436c0ab6ba590ed708883c6a4ea67")),
    ("bi", {"l": 2},
     ("8d383f5407c61c26bb9ef2a5d998281fb453048416413c8bdc079956d12c8064",
      "dfe53c966292da0f73cd7a44168041da5cd67c16ace5e15a9f3e004359cc476c",
      "714a1da4791becaf3c150f4eca6db1405314c788e898ecaeb8beab771b36cf9c")),
    ("bi", {"l": 3},
     ("fb93c2b16085e32720621b0f786c7fca554ac60b7788f3d29fc34373d17fe62a",
      "ba2b19333c45e5bca9aced82f06a60e07a24593e6851c19c76283eb67c7e7127",
      "32dfc487b430f08fcb5e093360ef2dc75a35d93341aca49d6f4e92569c1b3659")),
    ("ho", {},
     ("27abab56c5f297287f79818610245ae1311df5193b4f764b796240001188f2dd",
      "976271fa65998559953abc7129c6e72941e8da37fb32e12b52a93a63499080a0",
      None)),
    ("ho-split", {},
     ("75da877783db78cfcbe5d9b84471f42b984d35b729d4f3c1c76caeba2f3c9607",
      "90eaad9d38a9b3cbda31ab1b4febfc98b9837607c59256fc53deaf8c2676417e",
      None)),
    ("g2", {},
     ("60724a712df73cd3221bad38dc71f24269c3ee9b7141c811410893e4cbfc2281",
      "f769c6687d1f0b83fc5deb827570223ac60d0a55756b31fc781370eb6be9406c",
      None)),
    ("counterexample", {},
     ("24780161359f8bb208f9d54f07f7d6e1f38782bbc35c32593f8e1f0db3d1d929",
      "351bcf43ab786a95fa5fd80050a0fbd9ec954f168a57156c54a73dbbf29eeff3",
      None)),
    ("hh", {"p": 1, "q": 3},
     ("a905da3e19b94335f1093a1d09489e1483720d4e7fdf5b6f2e389eea4cb6eb17",
      "baec107c80998fef8c36e7f9263df88986beeffdcd75f6da149483b7c802573a",
      "f2deb1d7b76bfe64e04067871707c1e7a837c9e5dee6b44ae5b21ec8b0fdfacb")),
    ("hc", {"p": 3, "q": 1},
     ("0fc4c5e2566aa1cae886dd9f5c94974517376f6de8ef1da6c927327d66fcb5f0",
      "9b8c36d6d9759205b9928390803cb295fec69914b9093bd9ac17e4e35bc9bcdc",
      "55806f028c744ca124eda14918082cb1b777c17f32baf32d991b3bc75b30c4ff")),
]


@pytest.mark.parametrize(
    "tag,params,digests", BUILD_DIGESTS,
    ids=[families.label(tag, params) for tag, params, _ in BUILD_DIGESTS],
)
def test_build_output_is_unchanged(get_family, tag, params, digests):
    fam = get_family(tag, **params)
    ambient = fam.ambient.serialize() if fam.ambient else None
    got = tuple(
        hashlib.sha256(text.encode()).hexdigest() if text else None
        for text in (fam.m.serialize(), fam.g.serialize(), ambient)
    )
    assert got == digests

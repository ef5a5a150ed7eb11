import os
import subprocess
import sys
from fractions import Fraction

import pytest

from glap import families
from glap.cli import DEFAULT_ROWS
from glap.errors import BadParameters, GlapError, require
from glap.families import FAMILIES, build
from glap.gla import check_fundamental, check_gla


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
    assert fam.cartan.dim == cartan_dim


def test_non_split_families_carry_no_cartan_tag(get_family):
    assert get_family("hc", p=1, q=1).cartan is None
    assert get_family("ho").cartan is None
    assert get_family("counterexample").cartan is None


@pytest.mark.parametrize(
    "tag,params,fragment",
    [
        ("hc", {"p": 1, "q": 0}, "2p+q >= 3"),
        ("hc", {"p": 0, "q": 3}, "p >= 1"),
        ("hc", {"p": 3, "q": 3}, "2p+q <= 8"),
        ("hc", {}, "requires --p"),
        ("bi", {"l": 1}, "l >= 2"),
        ("bi", {"l": 7}, "l <= 6"),
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


def _reference_check_covariance(A, G, eta_by_index):
    """The dense Fraction form of the covariance certificate: M^T G + G M
    == eta G for each degree-zero element, M its action on degree -1."""
    for idx, eta in eta_by_index:
        M = A.restriction_matrix(idx, -1)
        lhs = M.transpose() * G + G * M
        require(lhs == G * eta, f"conformal factor mismatch at {A.labels[idx]}")


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
    r, c = next((r, c) for r in range(G.n) for c in range(r, G.n) if not G[r, c])
    G = G.copy()
    G[r, c] += 1
    G[c, r] = G[r, c]
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

check = families._check_covariance


def perturbed(A, G, eta_by_index):
    if {perturbation!r} == "eta":
        (idx, eta), *rest = eta_by_index
        eta_by_index = [(idx, eta + Fraction(1, 3))] + rest
    else:
        r, c = next((r, c) for r in range(G.n) for c in range(r, G.n) if not G[r, c])
        G = G.copy()
        G[r, c] += 1
        G[c, r] = G[r, c]
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

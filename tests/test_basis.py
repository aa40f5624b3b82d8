import numpy as np
import pytest

from mfglab.basis import SeparableField, Term, random_cosine_field
from mfglab.grid import build_grid, diff, parse_face


def test_sampling_matches_closed_form():
    g = build_grid(1.0, 1.0, 33, 33, ["x+"])
    fld = SeparableField((1.0,), 1.0, (Term(2.0, ("cos",), (1,), 1),))
    got = fld.sample(g).values
    X, T = g.meshes()
    assert np.allclose(got, 2.0 * np.cos(np.pi * X) * T, atol=1e-14)


def test_exact_derivatives_vs_stencils():
    g = build_grid(1.0, 1.0, 129, 129, ["x+"])
    rng = np.random.default_rng(5)
    fld = random_cosine_field(rng, g.lengths, g.T, 3, 3, 1.0)
    u = fld.sample(g)
    exact_dx = fld.dx(0).sample(g).values
    stencil_dx = diff(u, x=(0,)).values
    assert np.max(np.abs(exact_dx - stencil_dx)) < 5e-2
    exact_dt = fld.dt().sample(g).values
    assert np.max(np.abs(exact_dt - diff(u, t_order=1).values)) < 5e-2


def test_face_normal_derivative_vanishes():
    g = build_grid((1.0, 2.0), 1.0, (17, 17), 9, ["x1+"])
    rng = np.random.default_rng(7)
    fld = random_cosine_field(rng, g.lengths, g.T, 4, 2, 1.0)
    for lab in ("x1-", "x1+", "x2-", "x2+"):
        assert fld.max_abs_face_dx(g, parse_face(lab)) < 1e-12


def test_seed_determinism():
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    a = random_cosine_field(np.random.default_rng(11), g.lengths, g.T, 2, 2, 1.0)
    b = random_cosine_field(np.random.default_rng(11), g.lengths, g.T, 2, 2, 1.0)
    assert a == b
    assert np.array_equal(a.sample(g).values, b.sample(g).values)


def test_field_arithmetic():
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    rng = np.random.default_rng(2)
    a = random_cosine_field(rng, g.lengths, g.T, 2, 1, 1.0)
    b = random_cosine_field(rng, g.lengths, g.T, 2, 1, 1.0)
    combo = (a - b).sample(g).values
    assert np.allclose(combo, a.sample(g).values - b.sample(g).values, atol=1e-14)
    assert np.allclose(a.scaled(3.0).sample(g).values, 3.0 * a.sample(g).values,
                       atol=1e-14)


def closed_form(fld, coords, ts):
    """Term-by-term value of a field at broadcast coordinates and times."""
    out = 0.0
    for t in fld.terms:
        val = t.coeff * (ts / fld.T) ** t.tpow
        for x, L, kind, k in zip(coords, fld.lengths, t.kinds, t.modes):
            val = val * (np.cos if kind == "cos" else np.sin)(k * np.pi * x / L)
        out = out + val
    return out


def repeated_terms_field(lengths, T):
    """sin and cos factors, one mode under both kinds, and each spatial
    factor carried by several terms, the repeats not next to each other."""
    dim = len(lengths)
    specs = [(("cos",) * dim, (1,) * dim), (("sin",) * dim, (2,) * dim),
             (("sin",) * dim, (1,) * dim),
             (("cos",) + ("sin",) * (dim - 1), (0,) + (3,) * (dim - 1))]
    rng = np.random.default_rng(13)
    terms = [Term(float(rng.uniform(-2.0, 2.0)), kinds, modes, p)
             for p in (0, 2, 1, 3) for kinds, modes in specs]
    return SeparableField(tuple(lengths), T, tuple(terms))


@pytest.mark.parametrize("lengths,nx", [((1.0,), 33), ((1.0, 1.5), (9, 11))])
def test_grouped_sampling_matches_closed_form(lengths, nx):
    g = build_grid(lengths, 2.0, nx, 17, ["x1+"])
    fld = repeated_terms_field(lengths, g.T)
    fields = [fld, fld.dx(0), fld.dt(), fld - fld.scaled(0.5)]
    for f in fields:
        *xs, ts = g.meshes()
        exact = closed_form(f, xs, ts)
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(f.sample(g).values - exact)) <= 1e-14 * scale
        for face in g.all_faces():
            # the face coordinate, and the tangential nodes as a column
            coords = [lengths[axis] * face.side if axis == face.axis
                      else g.xs[axis][:, None] for axis in range(g.dim)]
            exact_face = closed_form(f, coords, g.ts)
            got = f.sample_face(g, face)
            assert got.shape == exact_face.shape
            assert np.max(np.abs(got - exact_face)) <= 1e-14 * scale

import hypothesis
import numpy as np
import pytest

from qpjacobi import bundled
from qpjacobi.operator import OperatorParams
from qpjacobi.symbols import BlockModel, Dioph, MeroScalar, TrigPoly

hypothesis.settings.register_profile(
    "ci", max_examples=25, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("ci")

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@pytest.fixture(scope="session")
def maryland():
    return bundled("maryland")


@pytest.fixture(scope="session")
def analytic2():
    return bundled("analytic2")


@pytest.fixture(scope="session")
def mero2():
    return bundled("mero2")


def counted_eigvalsh(monkeypatch):
    """Patch np.linalg.eigvalsh to keep a copy of every stack it is given."""
    eigvalsh, stacks = np.linalg.eigvalsh, []

    def counted(h):
        stacks.append(np.array(h))
        return eigvalsh(h)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return stacks


def random_trig(rng, max_degree=2, scale=1.0, const=0.0):
    coeffs = {0: complex(const + scale * rng.normal(), 0.0)}
    for k in range(1, max_degree + 1):
        coeffs[k] = scale * (rng.normal() + 1j * rng.normal()) / (2.0 * k)
    return TrigPoly(coeffs)


def random_model(rng, l=None, mero=True, omega=None):
    """Random symmetric model with O(1) coefficients and well-behaved poles."""
    l = int(l if l is not None else rng.integers(1, 3))
    omega = float(omega if omega is not None else rng.uniform(0.05, 0.95))

    def sym_grid(diag_builder, off_scale):
        grid = [[None] * l for _ in range(l)]
        for i in range(l):
            grid[i][i] = diag_builder(i)
            for j in range(i + 1, l):
                off = random_trig(rng, max_degree=1, scale=off_scale)
                grid[i][j] = off
                grid[j][i] = off
        return grid

    def w_diag(_i):
        return random_trig(rng, max_degree=1, scale=0.2, const=1.0)

    def fr_diag(scale):
        def build(_i):
            num = random_trig(rng, max_degree=2, scale=scale)
            if mero and rng.random() < 0.7:
                den = TrigPoly.cosine(shift=rng.uniform())
                return MeroScalar.from_ratio(num, den)
            return MeroScalar.from_ratio(num)

        return build

    return BlockModel(
        W=sym_grid(w_diag, 0.3),
        R=sym_grid(fr_diag(0.5), 0.2),
        F=sym_grid(fr_diag(1.0), 0.3),
        omega=omega,
        dioph=Dioph(A=2.0, C0=0.01),
    )


def pole_free_x(model, rng, window, margin=1e-2, tries=200):
    """A base phase whose window orbit keeps all denominators above `margin`."""
    u, v = window
    for _ in range(tries):
        x = float(rng.uniform())
        ok = True
        for n in range(u, v + 1):
            y = model.site_phase(x, n)
            for i in range(model.l):
                if abs(model.F[i][i].den(y)) < margin or abs(model.R[i][i].den(y)) < margin:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return x
    raise RuntimeError("could not find a pole-free phase")


def band_blocks(mat, l):
    """Diagonal, lower and upper l x l block stacks of a dense block-tridiagonal matrix."""
    n = mat.shape[0] // l
    blocks = mat.reshape(n, l, n, l).swapaxes(1, 2)
    i = np.arange(n)
    return blocks[i, i], blocks[i[1:], i[:-1]], blocks[i[:-1], i[1:]]


def well_conditioned_params(model, rng, window, lam_range=(0.5, 3.0), cond_max=1e7):
    """Random OperatorParams whose regularized matrix is comfortably invertible."""
    from qpjacobi.operator import assemble_regularized

    for _ in range(200):
        lam = float(rng.uniform(*lam_range))
        x = pole_free_x(model, rng, window)
        E = float(rng.uniform(-3.0, 3.0))
        params = OperatorParams(lam=lam, x=x, E=E, window=window)
        ht = assemble_regularized(model, params)
        if np.linalg.cond(ht) < cond_max:
            return params
    raise RuntimeError("could not find a well-conditioned instance")


def atomic_maryland(maryland_model):
    """Maryland with the hopping switched off (decoupled sites)."""
    return maryland_model._replace(W=((TrigPoly.zero(),),))


def scaled_f_diagonals(model, s):
    """`model` with the numerator and denominator of every F diagonal times s:
    the same F and H, with M and so det[(F - t)M] scaled by s per component."""
    F = [list(row) for row in model.F]
    for i in range(model.l):
        F[i][i] = MeroScalar(*(TrigPoly({k: s * c for k, c in p.items()}) for p in F[i][i]))
    return model._replace(F=F)

import dataclasses
import gc
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from ringchain import (
    ChainParams,
    DimensionOverflow,
    DiscreteOperator,
    PerturbationPattern,
    TruncatedChain,
    assemble,
    band_edges,
    convergence_study,
    lambda_small,
    solve_gap,
    spectrum_window,
)
from ringchain.errors import InvalidParameter, SolverNoConvergence
from ringchain.oracle import eigen_count, localization_scores, richardson_limit


@pytest.fixture(scope="module")
def p06():
    return ChainParams.from_cos_flux(0.6, 1.0)


@pytest.fixture(scope="module")
def gap0_state(p06):
    layout = band_edges(p06, 12.0)
    state = solve_gap(PerturbationPattern.single(-2.0), layout.gaps[0], p06)[0]
    return layout, state


def _csc(d, o1, o2):
    """The Hermitian pentadiagonal matrix with diagonal d and bands o1, o2
    above it (their conjugates below), as a CSC matrix."""
    return scipy.sparse.diags([np.conj(o2), np.conj(o1), d, o1, o2], offsets=[-2, -1, 0, 1, 2], format="csc")


def _sparse_pencil(op):
    """K and M as CSC matrices, built from the six bands of an operator or
    of a reference."""
    return _csc(op.kd, op.k1, op.k2), _csc(op.md, op.m1, op.m2)


class TestAssembly:
    def test_real_symmetric(self, p06):
        op = assemble(TruncatedChain(9, 64, p06), [-1.5])
        assert all(getattr(op, name).dtype == np.float64 for name in ("kd", "k1", "k2", "md", "m1", "m2"))
        K, M = (X.toarray() for X in _sparse_pencil(op))
        assert np.array_equal(K, K.T) and np.array_equal(M, M.T)

    def test_mass_positive_definite(self, p06):
        op = assemble(TruncatedChain(9, 64, p06), [0.0])
        M = _sparse_pencil(op)[1].toarray()
        assert np.linalg.eigvalsh(M).min() > 0

    def test_couplings_are_centered_python_floats(self, p06):
        # eigen_count's pivot loop runs on them, and must not run on numpy scalars
        chain = TruncatedChain(11, 64, p06)
        got = chain.couplings((np.float64(-1.5), 2.0))
        assert got == [1.0] * 4 + [-0.5, 3.0] + [1.0] * 4
        assert all(type(c) is float for c in got)
        assert chain.couplings(()) == [1.0] * 10

    def test_dimension(self, p06):
        chain = TruncatedChain(9, 64, p06)
        assert chain.dim == 2 * 9 * 63 + 8
        assert assemble(chain, [0.0]).dim == chain.dim

    def test_validation(self, p06, monkeypatch):
        from ringchain import oracle

        with pytest.raises(ValueError):
            TruncatedChain(8, 64, p06)   # even ring count
        with pytest.raises(ValueError):
            TruncatedChain(9, 32, p06)   # too coarse
        with pytest.raises(ValueError):
            TruncatedChain(7, 64, p06).pattern_start(3)  # 7 < 3 + 6
        for rings, M in ((-1, 64), (-3, 64), (9, 64.5), (9.0, 64), (9, 64.0), ("9", 64)):
            with pytest.raises(InvalidParameter):
                TruncatedChain(rings, M, p06)
        numpy_ints = TruncatedChain(np.int64(3), np.int32(64), p06)
        assert assemble(numpy_ints, ()).dim == numpy_ints.dim == 380
        assert TruncatedChain(3, 64, p06).pattern_start(0) == 2   # an empty pattern fits any chain
        chain = TruncatedChain(9, 64, p06)
        monkeypatch.setattr(oracle, "MAX_DIM", chain.dim)
        assert assemble(chain, [0.375]).dim == oracle.MAX_DIM
        monkeypatch.setattr(oracle, "MAX_DIM", chain.dim - 1)
        with pytest.raises(DimensionOverflow):
            assemble(chain, [0.625])

    def test_arrays_are_built_from_the_chain_only(self, p06):
        # the pencil's arrays are not fields that replace() or the
        # constructor take, so a pencil that is not its chain's cannot be built
        op = assemble(TruncatedChain(9, 64, p06), [0.0])
        for name in ("kd", "k1", "k2", "md", "m1", "m2"):
            with pytest.raises(ValueError, match="init=False"):
                dataclasses.replace(op, **{name: getattr(op, name).copy()})
        with pytest.raises(TypeError):
            DiscreteOperator(op.chain, op.gammas, op.kd)
        copy = dataclasses.replace(op)
        assert copy == op and copy.kd is not op.kd and np.array_equal(copy.kd, op.kd)

    def test_unperturbed_chain_is_a_leading_block(self, p06):
        # the leading 380 nodes of the 11-ring pencil are the 3-ring
        # chain's pencil, cut at vertex 3 as at a Dirichlet end
        op = assemble(TruncatedChain(11, 64, p06), [0.0])
        small = assemble(TruncatedChain(3, 64, p06), ())
        n = small.dim
        assert n == 380 and small.gammas == ()
        for name, cut in (("kd", n), ("md", n), ("k1", n - 1), ("m1", n - 1), ("k2", n - 2), ("m2", n - 2)):
            assert np.array_equal(getattr(small, name), getattr(op, name)[:cut]), name

    def test_free_chain_nonnegative(self):
        p = ChainParams(0.0, 0.0)
        op = assemble(TruncatedChain(9, 64, p), [0.0])
        assert eigen_count(op, -1e-10) == 0

    def test_gauge_period_exact(self):
        a = assemble(TruncatedChain(9, 64, ChainParams(0.25, 1.0)), [-1.5])
        b = assemble(TruncatedChain(9, 64, ChainParams(1.25, 1.0)), [-1.5])
        (va, _), (vb, _) = (spectrum_window(op, -10.0, 3.0) for op in (a, b))
        assert len(va) >= 8 and len(va) == len(vb)
        assert np.abs(va - vb).max() <= 1e-8


def _assemble_reference(chain, gammas):
    """The real pencil link by link, kept as a reference for the array
    build.  Every grid link adds its diagonal terms one at a time, and one
    off-diagonal term: c = -1/h in K and h/12 in M inside an edge, sqrt(2)
    times that from a vertex to s_1 (upper slots), nothing to t_1 (lower
    slots), and sqrt(2) cos(A pi) and sqrt(2) sin(A pi) times it from s_I
    and t_I to the next vertex."""
    n, h = chain.dim, chain.h
    I = chain.points_per_edge - 1
    block = 2 * I + 1
    kd, md = np.zeros(n), np.zeros(n)
    k1, m1, k2, m2 = np.zeros(n - 1), np.zeros(n - 1), np.zeros(n - 2), np.zeros(n - 2)
    flux = chain.params.flux_phase
    for ring in range(chain.n_rings):
        for lower in (False, True):
            base = ring * block - 1
            left = base if ring >= 1 else -1
            right = base + block if ring <= chain.n_rings - 2 else -1
            nodes = [left] + [base + 1 + 2 * i + (1 if lower else 0) for i in range(I)] + [right]
            for j, (a, b) in enumerate(zip(nodes[:-1], nodes[1:])):
                for node in (a, b):
                    if node >= 0:
                        kd[node] += 1.0 / h
                        md[node] += 5.0 * h / 12.0
                if a < 0 or b < 0 or (lower and j == 0):
                    continue
                off = b - a
                assert off in (1, 2)
                for band1, band2, link in ((k1, k2, -1.0 / h), (m1, m2, h / 12.0)):
                    if j == 0:
                        link = math.sqrt(2.0) * link
                    elif j == I:
                        link = math.sqrt(2.0) * link * (flux.imag if lower else flux.real)
                    (band1 if off == 1 else band2)[a] += link
    return _with_vertices(chain, gammas, dict(kd=kd, k1=k1, k2=k2, md=md, m1=m1, m2=m2))


def _complex_reference(chain, gammas):
    """The magnetic pencil link by link, with the phase exp(+-iAh) on every
    grid link of the upper (lower) edges: the pencil before the gauge and
    the real basis, kept as the independent check of both."""
    n, h = chain.dim, chain.h
    I = chain.points_per_edge - 1
    block = 2 * I + 1
    kd, md = np.zeros(n), np.zeros(n)
    k1, m1 = np.zeros(n - 1, dtype=complex), np.zeros(n - 1, dtype=complex)
    k2, m2 = np.zeros(n - 2, dtype=complex), np.zeros(n - 2, dtype=complex)
    A = chain.params.A
    phase_up = complex(math.cos(A * h), math.sin(A * h))
    for ring in range(chain.n_rings):
        for lower in (False, True):
            omega = np.conj(phase_up) if lower else phase_up
            base = ring * block - 1
            left = base if ring >= 1 else -1
            right = base + block if ring <= chain.n_rings - 2 else -1
            nodes = [left] + [base + 1 + 2 * i + (1 if lower else 0) for i in range(I)] + [right]
            for a, b in zip(nodes[:-1], nodes[1:]):
                for node in (a, b):
                    if node >= 0:
                        kd[node] += 1.0 / h
                        md[node] += 5.0 * h / 12.0
                if a >= 0 and b >= 0:
                    off = b - a
                    assert off in (1, 2)
                    (k1 if off == 1 else k2)[a] += -omega / h
                    (m1 if off == 1 else m2)[a] += omega * h / 12.0
    return _with_vertices(chain, gammas, dict(kd=kd, k1=k1, k2=k2, md=md, m1=m1, m2=m2))


def _with_vertices(chain, gammas, bands):
    """The bands with the vertex couplings added."""
    block = 2 * chain.points_per_edge - 1
    start = chain.pattern_start(len(gammas))
    for v in range(1, chain.n_rings):
        coupling = chain.params.alpha
        if start <= v < start + len(gammas):
            coupling += gammas[v - start]
        bands["kd"][v * block - 1] += coupling
    return SimpleNamespace(**bands)


def _rotation(chain):
    """Q with the real pencil = Q^H (complex pencil) Q: column s_i (upper
    slot) is (conj(omega)^i e_upper_i + omega^i e_lower_i)/sqrt(2), column
    t_i (lower slot) i (conj(omega)^i e_upper_i - omega^i e_lower_i)/sqrt(2),
    with omega = exp(iAh); a vertex column is its unit vector."""
    n, I = chain.dim, chain.points_per_edge - 1
    block = 2 * I + 1
    rows, cols, vals = [], [], []
    for ring in range(chain.n_rings):
        base = ring * block - 1
        if ring >= 1:
            rows.append(base), cols.append(base), vals.append(1.0)
        for i in range(1, I + 1):
            upper, lower = base + 2 * i - 1, base + 2 * i
            omega = np.exp(1j * chain.params.A * chain.h * i) / math.sqrt(2.0)
            rows += [upper, lower, upper, lower]
            cols += [upper, upper, lower, lower]
            vals += [np.conj(omega), omega, 1j * np.conj(omega), -1j * omega]
    return scipy.sparse.csc_matrix((vals, (rows, cols)), shape=(n, n))


def _assert_matches_reference(chain, gammas):
    op = assemble(chain, gammas)
    for name, want in vars(_assemble_reference(chain, gammas)).items():
        got = getattr(op, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


class TestAssemblyBitIdentity:
    @pytest.mark.parametrize("cos_flux", [0.7, -0.45, 1.0, -1.0])
    @pytest.mark.parametrize("M", [64, 128, 256])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_the_per_link_loop(self, m, M, cos_flux):
        rng = np.random.default_rng([m, M, int(1000 * cos_flux) % 2**16])
        params = ChainParams.from_cos_flux(cos_flux, float(rng.uniform(-3.0, 3.0)))
        gammas = [float(g) for g in rng.uniform(-2.2, 2.2, m)]
        _assert_matches_reference(TruncatedChain(m + 6 + (m + 6 + 1) % 2, M, params), gammas)

    def test_benchmark_chain(self, p06):
        # the oracle cross-check's finest pencil: 25 rings, M = 256
        _assert_matches_reference(TruncatedChain(25, 256, p06), [-1.5, 0.75, -2.0])

    def test_one_ring_chain(self, p06):
        # one block with both vertices Dirichlet: no vertex node, no band-1 link
        _assert_matches_reference(TruncatedChain(1, 64, p06), ())


class TestRealBasis:
    """The real bands against the magnetic pencil of the complex per-link
    reference, rotated by Q, as sparse matrices: a dense one at the
    benchmark chain's dim 12,774 would take 2.6 GB."""

    @pytest.mark.parametrize("cos_flux", [0.7, 1.0, -1.0])
    @pytest.mark.parametrize("rings, M, gammas", [(25, 256, (-1.5, 0.75, -2.0)), (1, 64, ())],
                             ids=["benchmark", "one-ring"])
    def test_bands_are_the_rotated_complex_pencil(self, rings, M, gammas, cos_flux):
        chain = TruncatedChain(rings, M, ChainParams.from_cos_flux(cos_flux, 1.0))
        op, ref, Q = assemble(chain, gammas), _complex_reference(chain, gammas), _rotation(chain)
        for got, want in zip(_sparse_pencil(op), _sparse_pencil(ref)):
            rotated = Q.conj().T @ want @ Q
            assert scipy.sparse.linalg.norm(rotated - got) <= 1e-14 * scipy.sparse.linalg.norm(want)

    def test_dense_spectra_agree(self, dense_pencil):
        op, vals = dense_pencil
        want = _dense_spectrum(_complex_reference(op.chain, op.gammas))
        assert np.all(np.abs(vals - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))


class TestBandProducts:
    """What ARPACK is given: M applied from the operator's bands, against
    the mass matrix of the complex per-link reference, rotated to the real
    basis (see TestRealBasis)."""

    @pytest.mark.parametrize("rings, M, gammas", [(25, 256, (-1.5, 0.75, -2.0)), (1, 64, ())],
                             ids=["benchmark", "one-ring"])
    def test_band_products_match_the_reference_pencil(self, p06, rings, M, gammas):
        from ringchain.oracle import _mass_operator

        chain = TruncatedChain(rings, M, p06)
        op, ref, Q = assemble(chain, gammas), _complex_reference(chain, gammas), _rotation(chain)
        rng = np.random.default_rng([rings, M])
        got, want = _mass_operator(op), Q.conj().T @ _sparse_pencil(ref)[1] @ Q
        assert got.dtype == np.float64
        for _ in range(3):
            x = rng.standard_normal(op.dim)
            y = want @ x
            assert np.linalg.norm(got @ x - y) <= 1e-14 * np.linalg.norm(y)

    def test_eigsh_reads_only_the_shape_of_its_matrix(self, p06, monkeypatch):
        # shift-invert through OPinv never applies eigsh's first argument,
        # which M stands in for: with one whose matvec raises, a window of
        # the benchmark pencil (its two gap-0 states) solves bit for bit
        import scipy.sparse.linalg as spla

        def refuse(x):
            raise AssertionError("eigsh applied its matrix argument")

        eigsh = spla.eigsh
        op = DiscreteOperator(TruncatedChain(25, 256, p06), (-1.5, 0.75, -2.0))
        want = spectrum_window(op, -3.0, 0.2)
        monkeypatch.setattr(spla, "eigsh", lambda A, *args, **kwargs: eigsh(
            spla.LinearOperator(A.shape, matvec=refuse, dtype=A.dtype), *args, **kwargs))
        got = spectrum_window(op, -3.0, 0.2)
        assert len(want[0]) == 2
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def _dense_spectrum(op):
    """Every pencil eigenvalue, of an operator or of a reference, from
    dense LAPACK: the reference for the sparse path."""
    K, M = (X.toarray() for X in _sparse_pencil(op))
    if not (K.imag.any() or M.imag.any()):   # a real pencil solves about 5x faster
        K, M = K.real, M.real
    return scipy.linalg.eigh(K, M, eigvals_only=True)


RESOLVED = 1e-10   # no dense eigenvalue is this close to a tested shift


@pytest.fixture(
    scope="module",
    params=[(0.7, 7, 90), (-1.0, 7, 90), (1.0, 9, 90)],
    ids=["magnetic", "cos-1", "cos+1"],
)
def dense_pencil(request):
    """A seeded pencil with its dense spectrum: magnetic dim 1252, cos = -1
    dim 1252, cos = +1 dim 1610 (a dense complex eigh of the magnetic
    reference at dim 2920 takes about 40 s, so these stay small)."""
    cos_flux, n_rings, M = request.param
    rng = np.random.default_rng(int(1000 * (cos_flux + 2)))
    params = ChainParams.from_cos_flux(cos_flux, float(rng.uniform(-3.0, 3.0)))
    op = assemble(TruncatedChain(n_rings, M, params), [float(rng.uniform(-2.2, 2.2))])
    return op, _dense_spectrum(op)


def _cluster(vals, E):
    """The discrete flat-band cluster at E = n^2."""
    return vals[np.abs(vals - E) < 1e-3]


class TestInertiaCount:
    """eigen_count against dense LAPACK.

    Shifts sit at E = n^2, 1e-9 either side of the discrete flat-band
    cluster there (n_rings + 1 eigenvalues spread over ~1e-12), between
    resolved neighbours and at random.  The cluster's own members are
    closer together than either solver resolves, so no shift is placed
    among them."""

    def test_counts_match_dense_eigh(self, dense_pencil):
        op, vals = dense_pencil
        rng = np.random.default_rng(op.dim)

        shifts = [float(rng.uniform(-10.0, 40.0)) for _ in range(20)]
        low = vals[vals < 40.0]
        wide = np.diff(low) > 1e-6
        shifts += list(0.5 * (low[1:] + low[:-1])[wide][::3])
        for n in range(1, 7):
            cluster = _cluster(vals, n * n)
            assert len(cluster) >= op.chain.n_rings
            shifts += [n * n, cluster.min() - 1e-9, cluster.max() + 1e-9]

        checked = 0
        for s in shifts:
            if np.abs(vals - s).min() <= RESOLVED:
                continue
            assert eigen_count(op, s) == np.count_nonzero(vals < s), s
            checked += 1
        assert checked >= 40
        # a window with both edges beside one cluster holds all of it
        cluster = _cluster(vals, 4.0)
        lo, hi = cluster.min() - 1e-9, cluster.max() + 1e-9
        assert eigen_count(op, hi) - eigen_count(op, lo) == len(cluster)

    @pytest.mark.parametrize(
        "cos_flux, n_rings, m",
        [(0.7, 9, 3), (-1.0, 7, 1), (1.0, 9, 2)],
        ids=["magnetic", "cos-1", "cos+1"],
    )
    def test_counts_beside_every_eigenvalue(self, cos_flux, n_rings, m):
        # 1e-9, 1e-7 and 1e-5 relative on each side of every eigenvalue
        # below 40, flat-band cluster members included; every other shift
        # is a numpy float, whose comparisons give numpy bools
        rng = np.random.default_rng([n_rings, m, int(1000 * (cos_flux + 2))])
        params = ChainParams.from_cos_flux(cos_flux, float(rng.uniform(-3.0, 3.0)))
        op = assemble(TruncatedChain(n_rings, 64, params), [float(g) for g in rng.uniform(-2.2, 2.2, m)])
        vals = _dense_spectrum(op)
        checked = 0
        for E in vals[vals < 40.0]:
            for rel in (1e-9, 1e-7, 1e-5):
                for side in (-1.0, 1.0):
                    s = E + side * rel * max(1.0, abs(E))
                    if np.abs(vals - s).min() <= RESOLVED:
                        continue
                    shift = np.float64(s) if checked % 2 else s
                    assert eigen_count(op, shift) == np.count_nonzero(vals < s), (E, rel, side)
                    checked += 1
        assert checked >= 500

    def test_counts_match_superlu(self):
        # the count by SuperLU's LDL^H that eigen_count replaced, on a
        # 25-ring pencil (dim 6,374) at random shifts
        import scipy.sparse.linalg as spla

        op = assemble(TruncatedChain(25, 128, ChainParams.from_cos_flux(0.7, 1.0)), [-1.0, 0.5, -2.0])
        K, M = _sparse_pencil(op)
        rng = np.random.default_rng(25)
        for s in rng.uniform(-5.0, 40.0, 40):
            lu = spla.splu(K - s * M, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                           options=dict(SymmetricMode=True))
            assert np.array_equal(lu.perm_r, np.arange(op.dim))
            assert eigen_count(op, s) == np.count_nonzero(lu.U.diagonal().real < 0.0), s

    def test_non_finite_shift_raises(self, p06):
        # a NaN shift compares False with every pivot and would count 0
        op = assemble(TruncatedChain(9, 64, p06), [0.0])
        for s in (math.nan, math.inf, -math.inf):
            with pytest.raises(SolverNoConvergence):
                eigen_count(op, s)

    def test_band_lu_solves(self, dense_pencil):
        # the shift-invert factor solves (K - sigma*M) x = b to 1e-12
        # relative in the widest gap below 20; beside the flat-band cluster
        # at E = 4, where K - sigma*M is near singular, its backward error
        # stays at 1e-12 of |K - sigma*M| |x|
        import scipy.sparse.linalg as spla
        from scipy.linalg.lapack import dgbtrs

        from ringchain.oracle import _band_lu

        op, vals = dense_pencil
        K, M = _sparse_pencil(op)
        rng = np.random.default_rng(op.dim)
        b = rng.standard_normal(op.dim)
        i = int(np.argmax(np.diff(vals[vals < 20.0])))
        for sigma, near_singular in ((0.5 * (vals[i] + vals[i + 1]), False), (_cluster(vals, 4.0).max() + 1e-6, True)):
            lu, piv = _band_lu(op, sigma)
            assert lu.dtype == np.float64
            x, info = dgbtrs(lu, 2, 2, b, piv)
            A = K - sigma * M
            scale = spla.norm(A, 1) * np.linalg.norm(x) if near_singular else np.linalg.norm(b)
            assert info == 0
            assert np.linalg.norm(A @ x - b) <= 1e-12 * scale, sigma


def _pivot_count(op, s):
    """eigen_count as an LDL^T pivot loop along an edge, then over the
    vertices, reading the pencil from its bands: the reference for the
    closed form.  (T^-1)_11 is the inverse of T's last pivot, T being
    persymmetric, and ((T^-1)_1I t_I)^2 a product of (b/t_i)^2."""
    block = 2 * op.chain.points_per_edge - 1
    vertex_nodes = np.arange(1, op.chain.n_rings) * block - 1
    kd, md, k, m = float(op.kd[0]), float(op.md[0]), float(op.k2[0]), float(op.m2[0])
    vk, vm = op.kd[vertex_nodes].tolist(), op.md[vertex_nodes].tolist()
    ring2 = 0.0
    if vk:
        v = vertex_nodes[0]
        ring2 = (float(op.k2[v - 2]) / float(op.k1[v])) ** 2
    s = float(s)
    d, b = kd - s * md, k - s * m
    b2 = b * b
    try:
        t, ends = d, 1.0      # ends: ((T^-1)_1I t_I)^2, a product of (b/t_i)^2
        edge = 0
        for _ in range(op.chain.points_per_edge - 2):
            edge += t < 0.0
            ends *= b2 / (t * t)
            t = d - b2 / t
        edge += t < 0.0
        end = 4.0 * b2 / t                                   # four edge ends at each vertex
        couple = 4.0 * ring2 * b2 * b2 * ends / (t * t)       # S_j,j+1^2
        vertex, q = 0, math.inf     # the first vertex has no coupling above it
        for kv, mv in zip(vk, vm):
            q = kv - s * mv - end - couple / q
            vertex += q < 0.0
    except ZeroDivisionError:
        raise SolverNoConvergence(f"K - {s}*M: a zero pivot voids the count") from None
    if not math.isfinite(couple) or math.isnan(q):
        raise SolverNoConvergence(f"K - {s}*M: an overflow or a NaN voids the count")
    return 2 * op.chain.n_rings * edge + vertex


def _edge_eigenvalues(chain):
    """The shifts where T, the tridiagonal Toeplitz matrix of one edge, is
    singular: d + 2b cos(j pi/(I+1)) = 0 for j = 1..I, the flat-band
    clusters of the pencil."""
    h, I = chain.h, chain.points_per_edge - 1
    c = np.cos(np.arange(1, I + 1) * math.pi / (I + 1))
    return 24.0 * (1.0 - c) / (h * h * (10.0 + 2.0 * c))


class TestClosedFormCount:
    """eigen_count's closed form against the pivot loop it replaced, in
    each regime of x = d/(2b): |x| < 1 (trigonometric), x < -1 below the
    spectrum, x > 1 above it or with b > 0, and x = -1 at s = 0."""

    @pytest.fixture(scope="class")
    def op9(self):
        return assemble(TruncatedChain(9, 64, ChainParams.from_cos_flux(0.7, -1.0)), [-1.5])

    def _agree(self, op, shifts):
        counts = [_pivot_count(op, s) for s in shifts]
        assert [eigen_count(op, s) for s in shifts] == counts
        return counts

    def test_x_is_minus_one_at_zero_shift(self, op9):
        # s = 0 (and shifts whose h*s underflows) is x = -1 exactly, where
        # sin(w) and sinh(w) vanish; the loop counts the 3 vertex states below
        shifts = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300]
        assert self._agree(op9, shifts) == [3] * 6

    def test_b_positive_below_minus_twelve_over_h2(self, op9):
        h = op9.chain.h
        shifts = [-12.0 / h**2 * f for f in (1.0 + 1e-9, 1.5, 10.0, 1e6)]
        assert all(-1.0 / h - s * (h / 12.0) > 0.0 for s in shifts)
        # b = 0 exactly, where T is diagonal, and its neighbours either side
        s0 = (-1.0 / h) / (h / 12.0)
        near = [s0 + k * math.ulp(s0) for k in (-1, 0, 1)]
        assert -1.0 / h - near[1] * (h / 12.0) == 0.0
        assert self._agree(op9, shifts + near) == [0] * 7

    def test_shift_above_every_edge_eigenvalue(self, op9):
        # x >= 1 from s = 6/h^2 (x = 1) on; at 1e7 the whole pencil is below s
        assert _edge_eigenvalues(op9.chain).max() < 6.0 / op9.chain.h**2
        assert self._agree(op9, [6.0 / op9.chain.h**2, 1e5, 1e7])[-1] == op9.dim
        # a strong coupling puts the R - 1 vertex states above 6/h^2, where
        # the vertex pivots see the sign of U_I-1/U_I at x > 1
        op = assemble(TruncatedChain(9, 64, ChainParams.from_cos_flux(0.7, 200.0)), [1.5])
        counts = self._agree(op, np.geomspace(6.0 / op.chain.h**2, 1e5, 30).tolist())
        assert counts[0] == op.dim - 8 and counts[-1] == op.dim

    def test_overflow_raises_like_the_loop(self, op9):
        # b^2/U_I^2 overflows at s = 1e300 (a power of a float would raise
        # OverflowError, not the typed error)
        for count in (_pivot_count, eigen_count):
            with pytest.raises(SolverNoConvergence, match="overflow"):
                count(op9, 1e300)

    @pytest.mark.parametrize("cos_flux", [0.7, -0.45, 0.0, 1.0, -1.0])
    def test_beside_every_edge_eigenvalue(self, cos_flux):
        # 1e-9 relative each side of all I = 63 edge eigenvalues, from the
        # flat-band cluster at 1 up to the top of the grid's spectrum
        op = assemble(TruncatedChain(9, 64, ChainParams.from_cos_flux(cos_flux, -1.0)), [-1.5, 0.5])
        E = _edge_eigenvalues(op.chain)
        counts = self._agree(op, np.concatenate([E * (1.0 - 1e-9), E * (1.0 + 1e-9)]).tolist())
        # each window holds one flat-band cluster of n_rings + 1 eigenvalues
        below, above = counts[:len(E)], counts[len(E):]
        assert {hi - lo for lo, hi in zip(below, above)} == {op.chain.n_rings + 1}

    def test_fine_grid(self):
        # M = 4096, where 1 + x is about 3e-7 s: formed as -h s/(2b), not as
        # a difference, so the count stays exact
        op = assemble(TruncatedChain(9, 4096, ChainParams.from_cos_flux(0.7, -1.0)), [-1.5])
        E = _edge_eigenvalues(op.chain)[:6]
        rng = np.random.default_rng(4096)
        shifts = rng.uniform(-5.0, 40.0, 20).tolist() + [1e-6, -1e-6]
        shifts += np.concatenate([E * (1.0 - 1e-9), E * (1.0 + 1e-9)]).tolist()
        self._agree(op, shifts)

    @pytest.mark.parametrize("rings, gammas", [(1, ()), (3, ()), (9, ())], ids=["one-ring", "three", "nine"])
    def test_short_chains_and_empty_patterns(self, p06, rings, gammas):
        op = assemble(TruncatedChain(rings, 64, p06), gammas)
        rng = np.random.default_rng(rings)
        shifts = rng.uniform(-5.0, 40.0, 30).tolist() + [0.0, 1e7, -1e7]
        self._agree(op, shifts)

    def test_reads_only_the_chain_and_the_pattern(self, op9):
        # no band is read: the chain and the pattern count the same pencil
        bare = SimpleNamespace(chain=op9.chain, gammas=op9.gammas)
        for s in (-3.0, 0.0, 0.5, 1.0 + 1e-9, 17.0, 1e7):
            assert eigen_count(bare, s) == eigen_count(op9, s)


class TestSpectra:
    def test_band_clustering_unperturbed(self, p06):
        layout = band_edges(p06, 10.0)
        op = assemble(TruncatedChain(9, 64, p06), [0.0])
        vals, vecs = spectrum_window(op, -1.0, 3.2)
        scores = localization_scores(op, vecs)
        slack = 1e-3
        for E, score in zip(vals, scores):
            in_band = any(lo - slack <= E <= hi + slack for lo, hi in layout.bands)
            near_flat = any(abs(E - fb.E) < 0.05 for fb in layout.flat_bands)
            assert in_band or near_flat or score > 0.5

    @pytest.mark.parametrize("rings", [1, 3, 9])
    def test_localization_scores_weigh_the_outer_two_rings(self, p06, rings):
        # bit for bit the mass on the nodes of rings 0, 1, R-2 and R-1
        op = assemble(TruncatedChain(rings, 64, p06), [0.0] if rings >= 7 else ())
        vecs = np.random.default_rng(rings).standard_normal((op.dim, 4))
        ring_of_node = (np.arange(op.dim) + 1) // (2 * op.chain.points_per_edge - 1)
        outer = (ring_of_node <= 1) | (ring_of_node >= rings - 2)
        weights = vecs**2 * op.md[:, None]
        want = weights[outer].sum(axis=0) / weights.sum(axis=0)
        assert np.array_equal(localization_scores(op, vecs), want)

    def test_flat_band_cluster(self, p06):
        chain = TruncatedChain(9, 64, p06)
        op = assemble(chain, [0.0])
        vals, _ = spectrum_window(op, 0.9, 1.1)
        close = [v for v in vals if abs(v - 1.0) < 10.0 * (math.pi / 64) ** 2]
        assert len(close) >= chain.n_rings - 2

    def test_flat_cluster_tightens_quadratically(self, p06):
        spreads = []
        for M in (64, 128):
            op = assemble(TruncatedChain(9, M, p06), [0.0])
            vals, _ = spectrum_window(op, 0.9, 1.1)
            spreads.append(np.abs(np.array(vals) - 1.0).max())
        assert spreads[1] <= spreads[0] / 2.5  # roughly M^-2

    def test_impurity_state_matches_char_equation(self, p06, gap0_state):
        layout, state = gap0_state
        op = assemble(TruncatedChain(15, 128, p06), [-2.0])
        vals, vecs = spectrum_window(op, state.E - 0.1, state.E + 0.1)
        scores = localization_scores(op, vecs)
        bulk = [v for v, s in zip(vals, scores) if s <= 0.5]
        assert len(bulk) == 1
        assert abs(bulk[0] - state.E) <= 1e-4

    def test_dense_and_sparse_paths_agree(self, dense_pencil):
        # from below the spectrum across the flat-band clusters at 1, 4
        # and 9, and the cluster at 4 alone (its members ~1e-12 apart)
        op, vals = dense_pencil
        above = vals[vals > 9.5]
        cluster = _cluster(vals, 4.0)
        windows = [(vals[0] - 1.0, 0.5 * (above[0] + above[1])),
                   (cluster.min() - 1e-9, cluster.max() + 1e-9)]
        for lo, hi in windows:
            want = vals[(vals > lo) & (vals < hi)]
            assert min(np.abs(vals - lo).min(), np.abs(vals - hi).min()) > RESOLVED
            got, vecs = spectrum_window(op, lo, hi)
            assert len(got) == len(want) and vecs.shape == (op.dim, len(want))
            assert np.abs(got - want).max() <= 1e-9
        assert len(want) >= op.chain.n_rings

    def test_sparse_path_repeats_exactly(self, p06):
        # the fixed ARPACK start vector makes repeated solves bit-identical
        op = assemble(TruncatedChain(11, 64, p06), [-2.0])
        (v1, _), (v2, _) = (spectrum_window(op, -3.0, 0.5) for _ in range(2))
        assert v1 is not v2
        assert len(v1) > 0 and np.array_equal(v1, v2)

    def test_window_solve_leaves_no_cycle(self, p06):
        # ARPACK's symmetric driver keeps no reference cycle: everything a
        # solve allocates (its work arrays, the factor, M's operator) is
        # freed on return, not when the cyclic collector next runs
        op = DiscreteOperator(TruncatedChain(9, 64, p06), (-1.5,))
        gc.collect()
        gc.disable()
        try:
            vals, _ = spectrum_window(op, -3.0, 0.5)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert 0 < len(vals) < op.dim - 1
        assert unreachable == 0

    def test_start_vector_is_shared_and_read_only(self, p06):
        from ringchain.oracle import _start_vector

        op = assemble(TruncatedChain(9, 64, p06), [0.0])
        v0 = _start_vector(op.dim)
        assert _start_vector(op.dim) is v0 and not v0.flags.writeable
        assert np.array_equal(v0, np.random.default_rng(0).standard_normal(op.dim))

    def test_few_eigenvalue_windows(self, dense_pencil):
        # ARPACK gets 2k+1 Lanczos vectors for k pairs; the hardest windows
        # for so few hold 1-3 eigenvalues and end just outside a band edge
        # or a flat-band cluster, with the rest of the band or the cluster
        # right beyond the window
        op, vals = dense_pencil
        layout = band_edges(op.chain.params, 40.0)
        ends = [(lo - 1e-3, +1) for lo, hi in layout.bands if lo > vals[0]]
        ends += [(hi + 1e-3, -1) for lo, hi in layout.bands if hi < 40.0]
        for n in range(1, 7):
            cluster = _cluster(vals, n * n)
            ends += [(cluster.max() + 1e-9, +1), (cluster.min() - 1e-9, -1)]
        checked = 0
        for i, (edge, side) in enumerate(ends):
            k = 1 + i % 3
            j = np.searchsorted(vals, edge)
            inner = vals[j:j + k + 1] if side > 0 else vals[j - k - 1:j][::-1]
            if np.abs(vals - edge).min() <= RESOLVED or abs(inner[-1] - inner[-2]) <= 1e-6:
                continue
            lo, hi = sorted((edge, 0.5 * (inner[-1] + inner[-2])))
            want = vals[(vals > lo) & (vals < hi)]
            got, vecs = spectrum_window(op, lo, hi)
            assert len(want) == k and len(got) == k and vecs.shape == (op.dim, k), (lo, hi)
            assert np.abs(got - want).max() <= 1e-9, (lo, hi)
            checked += 1
        assert checked >= 12

    def test_sparse_window_is_never_short(self):
        # with a doubling neighbourhood capped at 96 eigenpairs, these
        # windows came back with 49 of 70 and 128 of 150 eigenvalues
        # (the totals are dense scipy.linalg.eigh counts); one ARPACK call
        # for the 150 finds only 149 in the window, so that one is sliced
        op = assemble(TruncatedChain(13, 64, ChainParams.from_cos_flux(0.7, 1.0)), [-1.5])
        vals, vecs = spectrum_window(op, 0.5, 9.0)
        assert len(vals) == 70 and vecs.shape == (op.dim, 70)
        assert np.all(np.diff(vals) >= 0) and vals[0] > 0.5 and vals[-1] < 9.0
        vals, vecs = spectrum_window(op, 0.5, 40.0)
        assert len(vals) == 150 and vecs.shape == (op.dim, 150)
        assert np.all(np.diff(vals) >= 0) and vals[0] > 0.5 and vals[-1] < 40.0

    def test_whole_spectrum_window(self, p06):
        # a window holding every eigenvalue needs k >= dim - 1 pairs, which
        # ARPACK refuses with a TypeError; slicing enumerates it.  Three
        # rings keep this cheap (dim 380; a 7-ring pencil takes 8x as long)
        op = assemble(TruncatedChain(3, 64, p06), ())
        vals, vecs = spectrum_window(op, -10.0, 1e7)
        want = _dense_spectrum(op)
        assert len(vals) == op.dim and vecs.shape == (op.dim, op.dim)
        assert np.abs(vals - want).max() <= 1e-9 * max(1.0, want.max())

    def test_slicing_stops_at_arpack_resolution(self, p06, monkeypatch):
        # an ARPACK that never converges: slicing halves the window until
        # the slice holding eigenvalues is narrower than ARPACK_TOL, then
        # raises instead of recursing on
        import scipy.sparse.linalg as spla

        def never(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        op = assemble(TruncatedChain(9, 64, p06), [0.0])
        monkeypatch.setattr(spla, "eigsh", never)
        with pytest.raises(SolverNoConvergence, match="cannot resolve"):
            spectrum_window(op, 0.9, 1.1)

    @pytest.mark.parametrize(
        "lo, hi", [(1.0, 0.5), (math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0), (0.0, math.inf)],
    )
    def test_bad_window_raises(self, p06, lo, hi):
        op = assemble(TruncatedChain(9, 64, p06), [0.0])
        with pytest.raises(InvalidParameter, match="finite ends"):
            spectrum_window(op, lo, hi)

    def test_empty_sparse_window(self, p06):
        op = assemble(TruncatedChain(11, 64, p06), [0.0])
        lo, hi = 0.2, 0.21
        assert eigen_count(op, hi) == eigen_count(op, lo)
        vals, vecs = spectrum_window(op, lo, hi)
        assert vals.shape == (0,) and vecs.shape == (op.dim, 0)


class TestReuse:
    """bulk_states memoises the windows of one configuration by value."""

    @pytest.fixture
    def eigsh_calls(self, monkeypatch):
        import scipy.sparse.linalg as spla

        from ringchain import oracle

        calls = []
        eigsh = spla.eigsh

        def counted(*args, **kwargs):
            calls.append(kwargs["sigma"])
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(spla, "eigsh", counted)
        oracle._bulk_states.cache_clear()
        return calls

    def test_spurious_check_after_study_solves_nothing(self, p06, eigsh_calls):
        # the benchmark's order on one configuration: each root's study and
        # spurious-state check, then the first root's check again, as its
        # known-defect check does; the checks reuse the finest level's solve
        from ringchain import crosscheck

        gammas, levels, rings = (-2.0,), (64, 96, 128), 11
        layout = band_edges(p06, 12.0)
        found = crosscheck.admissible_roots(p06, gammas, layout)
        assert [gi for gi, _, _ in found] == [0, 2]
        roots = [state.E for _, state, _ in found]
        windows = [crosscheck._gap_window(layout.gaps[gi], layout, state.E) for gi, state, _ in found]

        def spurious(i):
            return crosscheck._check_spurious(p06, gammas, rings, max(levels), windows[i], [roots[i]],
                                              crosscheck.TOL_RAW)

        for i in range(2):
            convergence_study(p06, list(gammas), levels, rings, windows[i], reference=roots[i])
            assert len(eigsh_calls) == 3 * (i + 1)
            spurious(i)
            assert len(eigsh_calls) == 3 * (i + 1)
        spurious(0)
        assert len(eigsh_calls) == 6

    def test_bulk_states_share_by_value(self, p06, eigsh_calls):
        from ringchain.oracle import bulk_states

        bulk, n_edge = bulk_states(TruncatedChain(9, 64, p06), [-1.25], -3.0, 0.5)
        for gammas in ((-1.25,), (np.float64(-1.25),), [np.float64(-1.25)], np.array([-1.25])):
            again, again_edge = bulk_states(TruncatedChain(9, 64, p06), gammas, -3.0, 0.5)
            assert again is bulk and again_edge == n_edge
        assert len(eigsh_calls) == 1
        assert bulk_states(TruncatedChain(9, 64, p06), [-1.5], -3.0, 0.5)[0] is not bulk
        assert bulk_states(TruncatedChain(9, 64, p06), [-1.25], -3.0, 0.6)[0] is not bulk
        assert len(eigsh_calls) == 3
        op = assemble(TruncatedChain(9, 64, p06), (np.float64(-1.25),))
        assert op.gammas == (-1.25,) and type(op.gammas[0]) is float

    def test_results_are_read_only(self, p06, eigsh_calls):
        from ringchain.oracle import EDGE_SCORE, bulk_states

        chain = TruncatedChain(9, 64, p06)
        bulk, n_edge = bulk_states(chain, [-1.25], -3.0, 0.5)
        op = assemble(chain, [-1.25])
        vals, vecs = spectrum_window(op, -3.0, 0.5)
        scores = localization_scores(op, vecs)
        assert len(bulk) > 0 and np.array_equal(bulk, vals[scores <= EDGE_SCORE])
        assert n_edge == np.count_nonzero(scores > EDGE_SCORE)
        for a in (bulk, op.kd, op.k1, op.k2, op.md, op.m1, op.m2):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    def test_replaced_operator_solves_its_own_pencil(self, p06):
        # a copy with another pattern must build its own bands
        op = assemble(TruncatedChain(9, 64, p06), [-1.25])
        v1, _ = spectrum_window(op, -3.0, 0.5)
        shifted = dataclasses.replace(op, gammas=(-2.5,))
        v2, _ = spectrum_window(shifted, -3.0, 0.5)
        K, M = _sparse_pencil(shifted)
        assert np.array_equal(K.diagonal(), shifted.kd) and not np.array_equal(shifted.kd, op.kd)
        assert eigen_count(shifted, 0.5) - eigen_count(shifted, -3.0) == len(v2)
        assert len(v2) != len(v1) or np.abs(v2 - v1).max() > 1e-3


class TestEigenvectorDecay:
    @staticmethod
    def _ring_norms(op, vec):
        """Measure-weighted mass per ring: ring r holds nodes
        [r*block - 1, (r+1)*block - 1)."""
        ring_of_node = (np.arange(op.dim) + 1) // (2 * op.chain.points_per_edge - 1)
        w = np.abs(vec) ** 2 * op.md
        return np.sqrt(np.bincount(ring_of_node, weights=w, minlength=op.chain.n_rings))

    def test_ring_norm_ratio_tracks_multiplier(self, p06, gap0_state):
        _, state = gap0_state
        lam = abs(lambda_small(state.E, p06.alpha, p06))
        op = assemble(TruncatedChain(15, 128, p06), [-2.0])
        vals, vecs = spectrum_window(op, state.E - 0.1, state.E + 0.1)
        scores = localization_scores(op, vecs)
        idx = next(i for i, s in enumerate(scores) if s <= 0.5)
        norms = self._ring_norms(op, vecs[:, idx])
        # rings just outside the centered perturbation, away from the walls
        center = 7
        for j in range(center + 2, center + 5):
            assert norms[j + 1] / norms[j] == pytest.approx(lam, rel=0.15)


class TestConvergence:
    def test_order_two_and_richardson(self, p06, gap0_state):
        _, state = gap0_state
        study = convergence_study(
            p06, [-2.0], [64, 128, 256], 15, (state.E - 0.1, state.E + 0.1), reference=state.E
        )
        assert study.observed_order == pytest.approx(2.0, abs=0.3)
        assert abs(study.richardson - state.E) <= 1e-6
        assert study.rows[-1].abs_err <= 1e-4
        errs = [r.abs_err for r in study.rows]
        assert errs[0] > errs[1] > errs[2]

    def test_ring_count_saturation(self, p06, gap0_state):
        _, state = gap0_state
        vals = []
        for rings in (9, 13, 17):
            study = convergence_study(
                p06, [-2.0], [64, 96, 128], rings, (state.E - 0.1, state.E + 0.1), reference=state.E
            )
            vals.append(study.richardson)
        # decay rate |lambda| ~ 0.19: each extra 4 rings shrinks the
        # truncation error by orders of magnitude
        assert abs(vals[1] - vals[0]) < 1e-4
        assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])

    def test_richardson_limit_exact_quadratic(self):
        hs = [0.4, 0.2, 0.1]
        vals = [1.0 + 3 * h * h for h in hs]
        assert richardson_limit(hs, vals) == pytest.approx(1.0, abs=1e-12)

    def test_requires_three_levels(self, p06, gap0_state):
        _, state = gap0_state
        from ringchain.errors import FitFailed

        with pytest.raises(FitFailed):
            convergence_study(p06, [-2.0], [64, 128], 9, (state.E - 0.1, state.E + 0.1), reference=state.E)

    def test_requires_three_distinct_levels(self, p06, gap0_state):
        # a repeated resolution used to reach richardson_limit and divide by r - 1 = 0
        _, state = gap0_state
        from ringchain.errors import FitFailed

        window = (state.E - 0.1, state.E + 0.1)
        with pytest.raises(FitFailed):
            convergence_study(p06, [-2.0], [64, 64, 128], 9, window, reference=state.E)
        study = convergence_study(p06, [-2.0], [128, 64, 96, 64], 9, window, reference=state.E)
        distinct = convergence_study(p06, [-2.0], [64, 96, 128], 9, window, reference=state.E)
        assert [r.M for r in study.rows] == [64, 96, 128]
        assert study == distinct
        with pytest.raises(InvalidParameter):   # was cut to 64 in silence
            convergence_study(p06, [-2.0], [64.5, 96, 128], 9, window, reference=state.E)


class TestCrossCheck:
    def test_unverified_root_in_the_window_is_not_spurious(self):
        # case 10 of seed 3 verifies its two deepest roots, one in gap 0 and
        # 0.72376 in gap 1; the gap's other root, 0.69128, is not verified
        # but lies in the window, and its oracle state used to count as
        # spurious
        from ringchain import crosscheck

        results = crosscheck.run_cases(3, 10)
        (r,) = [r for r in results if r.index == 10 and r.gap_index == 1]
        p = ChainParams.from_cos_flux(r.cos_flux, r.alpha)
        layout = band_edges(p, 12.0)
        lo, hi = crosscheck._gap_window(layout.gaps[1], layout, r.E_char)
        others = [s.E for s in solve_gap(PerturbationPattern(r.gammas), layout.gaps[1], p)
                  if s.E != r.E_char and lo < s.E < hi]
        assert others and all(s.E_char not in others for s in results)
        assert r.spurious_ok and r.matched
        assert all(s.matched for s in results)

    def test_no_convergence_gives_an_unmatched_record(self, monkeypatch):
        # a root whose study fails still gets its record: NaN energies,
        # infinite errors and no spurious-state check
        from ringchain import crosscheck

        def fail(*args, **kwargs):
            raise SolverNoConvergence("no convergence")

        monkeypatch.setattr(crosscheck.oracle_mod, "convergence_study", fail)
        monkeypatch.setattr(crosscheck, "_check_spurious", None)
        results = crosscheck.run_cases(7, 1)
        assert results and all(r.index == 1 for r in results)
        for r in results:
            assert math.isnan(r.E_raw) and math.isnan(r.E_rich)
            assert r.err_raw == r.err_rich == math.inf
            assert not r.spurious_ok and not r.matched

"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the library's computational paths:
Bessel values come from an arbitrary-precision power series, convolutions
from nested direct summation, the N-photon correlation from explicit
2N-dimensional quadrature, the centroid PSF from the pupil side (powers of
the pupil function and an inverse Fourier transform, where the library
self-convolves the PSF), coincidence and accidental pairs from plain loops
over every event pair, first hits from the earliest time bin kept per
(frame, pixel), density samples from one CDF search of the uniforms in
their drawn order, crosstalk from one draw per neighbour side or from a
loop over the drawn slots, and configuration values from the nested-tree
loader that the flat overlay replaced.  Six references reuse library parts
because each checks one shortcut alone: the unthinned acquisition (the
library's sampler and detector model, without thinning), the field-by-field
detection (the library's arrival bins, detection masks and pixel binning,
on field arrays instead of packed keys), the doubled-kernel image (the
library's PSF sampling, convolved by SciPy's ``fftconvolve`` on the whole
grid instead of the aperture's box), the per-pair coverage table (the
library's weight, evaluated on every pixel pair instead of once per pixel
offset), the biphoton amplitude (the library's wavevector mismatch at two
free photon positions, where the pair source evaluates it at +-xi) and the
nested configuration tree (the library's schema and per-key type check).
Two SciPy routines are bit-exact references for NumPy ports in ``optics``:
``scipy.special.j1`` for ``somb`` and the ``scipy.fft`` padded product for
``_linear_convolution``.
"""

from __future__ import annotations

import numpy as np
from mpmath import mp

from ocmsim.errors import OcmsimError


def bessel_j1_series(x: float, dps: int = 40) -> float:
    """J1 via its power series, evaluated in arbitrary precision."""
    with mp.workdps(dps):
        xm = mp.mpf(x)
        half = xm / 2
        term = half
        total = term
        k = 0
        while True:
            k += 1
            term = -term * half * half / (k * (k + 1))
            total += term
            if abs(term) < mp.mpf(10) ** (-dps) * (abs(total) + 1):
                break
        return float(total)


def somb_reference(x: float) -> float:
    if x == 0.0:
        return 1.0
    return 2.0 * bessel_j1_series(x) / x


def somb_scipy(x) -> np.ndarray:
    """2 J1(x)/x from ``scipy.special.j1``, 1 at x = 0."""
    from scipy.special import j1

    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    nz = x != 0
    out[nz] = 2.0 * j1(x[nz]) / x[nz]
    return out


def linear_convolution_scipy(f: np.ndarray, g: np.ndarray,
                             lengths=None) -> np.ndarray:
    """Full linear convolution of two real arrays by ``scipy.fft``: the
    5-smooth padded ``rfftn`` product and its ``irfftn``.  Transform
    ``lengths`` shorter than the linear convolution give the circular one,
    of those lengths."""
    from scipy import fft as sp_fft

    shape = [n + k - 1 for n, k in zip(f.shape, g.shape)]
    fshape = lengths or [sp_fft.next_fast_len(n, True) for n in shape]
    spectrum = (sp_fft.rfftn(f, fshape, axes=(0, 1))
                * sp_fft.rfftn(g, fshape, axes=(0, 1)))
    return sp_fft.irfftn(spectrum, fshape, axes=(0, 1))[:shape[0], :shape[1]]


def j1_first_root_bisect(lo: float = 3.0, hi: float = 4.5,
                         tol: float = 1e-12) -> float:
    """First positive root of J1 by bisection on the series evaluation."""
    flo = bessel_j1_series(lo)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        fm = bessel_j1_series(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return (lo + hi) / 2


def direct_convolution(f: np.ndarray, g: np.ndarray, dx: float,
                       dy: float) -> np.ndarray:
    """O(n^4) nested-sum linear convolution with continuum weights."""
    nfx, nfy = f.shape
    ngx, ngy = g.shape
    out = np.zeros((nfx + ngx - 1, nfy + ngy - 1), dtype=np.complex128)
    for i in range(nfx):
        for j in range(nfy):
            out[i:i + ngx, j:j + ngy] += f[i, j] * g
    return out * dx * dy


class CorrelationQuadrature:
    """Brute-force 2N-dimensional quadrature of the N-photon correlation.

    The object-plane integral is discretized on a fixed node grid; the
    aperture and PSF are analytic callables so every term of the sum is
    evaluated exactly where the integrand wants it.
    """

    def __init__(self, nodes_per_axis: int, spacing: float, aperture, psf,
                 magnification: float = 1.0):
        self.nn = nodes_per_axis
        self.s = spacing
        ax = (np.arange(self.nn) - (self.nn - 1) / 2.0) * spacing
        px, py = np.meshgrid(ax, ax, indexing="ij")
        self.nodes = np.stack([px.ravel(), py.ravel()], axis=1)
        self.aperture = aperture
        self.psf = psf
        self.m = magnification

    def correlation_n2(self, centroids, xi1) -> np.ndarray:
        """|Integral A((p1+p2)/2) h(u1-p1) h(u2-p2)|^2 at fixed xi1."""
        p = self.nodes
        mid = (p[:, None, :] + p[None, :, :]) / 2.0
        a_mid = self.aperture(mid[..., 0], mid[..., 1])
        out = []
        for X in centroids:
            u1 = (X + xi1) / self.m
            u2 = (X - xi1) / self.m
            h1 = self.psf(u1[0] - p[:, 0], u1[1] - p[:, 1])
            h2 = self.psf(u2[0] - p[:, 0], u2[1] - p[:, 1])
            val = np.einsum("a,ab,b->", h1, a_mid, h2) * self.s ** 4
            out.append(abs(val) ** 2)
        return np.asarray(out)

    def correlation_n3(self, centroids, xi1, xi2) -> np.ndarray:
        """Same for N=3 with xi3 = -(xi1 + xi2).

        The sum over all (256)^3 node triples is exact; the aperture values
        at the (p_a+p_b+p_c)/3 points are precomputed on the lattice of all
        possible triple means (pure memoization, no convolution shortcut).
        """
        nn, s = self.nn, self.s
        xi3 = -(np.asarray(xi1) + np.asarray(xi2))
        sax = (np.arange(3 * nn - 2) - 3 * (nn - 1) / 2.0) * s / 3.0
        sx, sy = np.meshgrid(sax, sax, indexing="ij")
        a_table = self.aperture(sx, sy)
        i_of = np.repeat(np.arange(nn), nn)
        j_of = np.tile(np.arange(nn), nn)
        ibc = i_of[:, None] + i_of[None, :]
        jbc = j_of[:, None] + j_of[None, :]
        p = self.nodes
        out = []
        for X in centroids:
            hs = []
            for xi in (xi1, xi2, xi3):
                u = (X + xi) / self.m
                hs.append(self.psf(u[0] - p[:, 0], u[1] - p[:, 1]))
            h1, h2, h3 = hs
            w23 = h2[:, None] * h3[None, :]
            total = 0.0
            for a in range(nn * nn):
                total += h1[a] * float(
                    (a_table[i_of[a] + ibc, j_of[a] + jbc] * w23).sum())
            out.append(abs(total * s ** 6) ** 2)
        return np.asarray(out)


def coherent_image_quadrature(a_values: np.ndarray, h, obj_x, obj_y,
                              img_x, img_y, dx: float, dy: float,
                              magnification: float) -> np.ndarray:
    """Direct nested-sum evaluation of the coherent imaging integral.

    ``a_values`` is sampled on the object grid (obj_x, obj_y); the intensity
    is evaluated at image-plane points (img_x, img_y).
    """
    out = np.zeros((len(img_x), len(img_y)))
    for i, xi in enumerate(img_x):
        for j, yj in enumerate(img_y):
            acc = 0.0 + 0.0j
            for k, xk in enumerate(obj_x):
                hx = h(xi / magnification - xk, yj / magnification - obj_y)
                acc += np.sum(a_values[k, :] * hx)
            out[i, j] = abs(acc * dx * dy) ** 2
    return out


class SpacingMismatch(OcmsimError):
    """Two grids that must share sample spacing do not."""


def same_spacing(f, g, rtol: float = 1e-9) -> bool:
    return (abs(f.dx - g.dx) <= rtol * f.dx
            and abs(f.dy - g.dy) <= rtol * f.dy)


def convolve2d(f, g):
    """Linear convolution (f*g)(rho) = Integral f g, discretized as sum*dx*dy.

    SciPy's zero-padded ``fftconvolve`` (no wrap-around); the output covers
    the combined support, with origin = f.origin + g.origin.
    """
    from scipy.signal import fftconvolve

    from ocmsim import FieldGrid

    if not same_spacing(f, g):
        raise SpacingMismatch(
            f"spacings differ: ({f.dx}, {f.dy}) vs ({g.dx}, {g.dy})")
    values = fftconvolve(f.values, g.values) * f.dx * f.dy
    origin = (f.origin[0] + g.origin[0], f.origin[1] + g.origin[1])
    return FieldGrid(values, f.dx, f.dy, origin)


def image_doubled_kernel(aperture, system, spec, order: int = 1,
                         coherent: bool = True):
    """``ocmsim.image`` by convolving the whole rasterized grid.

    The PSF is sampled on the doubled grid, which holds every difference
    between two samples of ``spec``, and the convolution is cropped at the
    kernel's origin sample back onto ``spec``.
    """
    from ocmsim import FieldGrid, GridSpec, single_lens_psf

    a = aperture.rasterize(spec)
    kernel = GridSpec.centered(2 * spec.nx, spec.dx, 2 * spec.ny, spec.dy)
    h = single_lens_psf(system, kernel, order)
    if not coherent:
        a.values = np.abs(a.values) ** 2
        h.values = np.abs(h.values) ** 2
    # the doubled grid's origin sample has index (nx, ny)
    conv = convolve2d(a, h).values[spec.nx:2 * spec.nx, spec.ny:2 * spec.ny]
    m = system.magnification
    values = np.abs(conv) ** 2 if coherent else conv.real.clip(min=0.0)
    return FieldGrid(values, spec.dx * m, spec.dy * m,
                     (spec.origin[0] * m, spec.origin[1] * m))


def coverage_table_per_pair(cfg, min_xi: int, deviation_weight=None):
    """``ocmsim.coverage_table`` with the weight evaluated on every pair.

    Same pair enumeration and accumulation order as the library, so a
    weight that depends only on the pixel offset gives identical bits.
    """
    nx, ny = cfg.n_pixels_x, cfg.n_pixels_y
    pix = np.arange(nx * ny)
    pxx, pyy = pix // ny, pix % ny
    a, b = np.triu_indices(nx * ny, k=1)
    ix1, iy1, ix2, iy2 = pxx[a], pyy[a], pxx[b], pyy[b]
    keep = np.maximum(np.abs(ix1 - ix2), np.abs(iy1 - iy2)) > min_xi
    flat = (ix1 + ix2)[keep] * (2 * ny - 1) + (iy1 + iy2)[keep]
    w = None
    if deviation_weight is not None:
        w = np.asarray(deviation_weight(
            (ix1 - ix2)[keep] * cfg.pixel_pitch / 2.0,
            (iy1 - iy2)[keep] * cfg.pixel_pitch / 2.0), dtype=float)
    hist = np.bincount(flat, weights=w, minlength=(2 * nx - 1) * (2 * ny - 1))
    return hist.reshape(2 * nx - 1, 2 * ny - 1).astype(float)


def inverse_fourier_transform_2d(f, out_origin=None):
    """Continuous-convention inverse of ``ocmsim.fourier_transform_2d``.

    f(rho) = 1/(2 pi)^2 sum f~(q) exp(i q.rho) dqx dqy, from a q grid to a
    centered spatial grid, or to ``out_origin`` when given (to undo a
    forward transform of a non-centered grid).
    """
    from ocmsim import FieldGrid

    nx, ny = f.nx, f.ny
    dxo = 2.0 * np.pi / (nx * f.dx)
    dyo = 2.0 * np.pi / (ny * f.dy)
    if out_origin is None:
        out_origin = (-(nx // 2) * dxo, -(ny // 2) * dyo)
    qx = f.x_axis()
    qy = f.y_axis()
    # target center position relative to the implicit centered output grid
    x0 = out_origin[0] + (nx // 2) * dxo
    y0 = out_origin[1] + (ny // 2) * dyo
    vals = f.values
    if x0 != 0.0 or y0 != 0.0:
        vals = vals * np.exp(1j * (qx[:, None] * x0 + qy[None, :] * y0))
    field = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(vals)))
    field = field * (nx * f.dx * ny * f.dy) / (2.0 * np.pi) ** 2
    # q grids whose center sample is not q=0 add a position-space phase ramp
    dqx_off = f.origin[0] + (nx // 2) * f.dx
    dqy_off = f.origin[1] + (ny // 2) * f.dy
    if dqx_off != 0.0 or dqy_off != 0.0:
        cx = (np.arange(nx) - nx // 2) * dxo
        cy = (np.arange(ny) - ny // 2) * dyo
        field = field * np.exp(1j * (dqx_off * cx[:, None]
                                     + dqy_off * cy[None, :]))
    return FieldGrid(field, dxo, dyo, out_origin)


def centroid_psf_pupil_route(pupil, n: int):
    """Centroid PSF from the pupil side: H(X) = N^2/(2pi)^2 Int (h~)^N e^{iNqX}.

    ``pupil`` holds h~(q) on a centered wavevector grid.  The hard circular
    pupil is idempotent under powers, which is exactly why H is an N-fold
    narrowed copy of h; a Gaussian pupil loses sqrt(N) only.  This is the
    independent check on ``ocmsim.centroid_psf``, which self-convolves h.
    """
    from ocmsim import FieldGrid

    powered = FieldGrid(pupil.values ** n, pupil.dx, pupil.dy, pupil.origin)
    g = inverse_fourier_transform_2d(powered)
    return FieldGrid(g.values * float(n * n), g.dx / n, g.dy / n,
                     (g.origin[0] / n, g.origin[1] / n))


def biphoton_amplitude(rho_1, rho_2, aperture, params):
    """Thick-crystal biphoton amplitude at source output positions rho_1, rho_2.

    A(-(w_s rho_1 + w_i rho_2)/(w_s + w_i)) * sinc(Delta_k L / 2), with the
    transverse wavevectors q_k = (omega_k / c f) rho_k of the preparation
    far field.  The frequency-weighted centroid reduces to -(rho_1+rho_2)/2
    in degenerate operation.
    """
    from ocmsim import wavevector_mismatch

    rho_1 = np.asarray(rho_1, dtype=float)
    rho_2 = np.asarray(rho_2, dtype=float)
    cf = 299792458.0 * params.focal_length
    q_s = params.omega_s / cf * rho_1
    q_i = params.omega_i / cf * rho_2
    dk = wavevector_mismatch(q_s, q_i, params)
    centroid = -(params.omega_s * rho_1 + params.omega_i * rho_2) / params.omega_p
    a_val = aperture.amplitude(centroid[..., 0], centroid[..., 1])
    return a_val * np.sinc(dk * params.crystal_length / 2.0 / np.pi)


def wavevector_mismatch_mp(q_s, q_i, params, dps: int = 50) -> float:
    """Arbitrary-precision evaluation of the mismatch closed form."""
    with mp.workdps(dps):
        c = mp.mpf("299792458.0")
        coeff = {k: mp.mpf(repr(v))
                 for k, v in params.index_model.coefficients.items()}

        def index(omega):
            lam_um = 2 * mp.pi * c / omega * mp.mpf(1e6)
            u2 = lam_um ** 2
            n_sq = (coeff["A"] + coeff["B"] / (1 - coeff["C"] / u2)
                    + coeff["D"] / (1 - coeff["E"] / u2) - coeff["F"] * u2)
            n = mp.sqrt(n_sq)
            dt = mp.mpf(repr(params.index_model.temperature_c)) - mp.mpf(
                repr(params.index_model.reference_temperature_c))
            if dt != 0:
                for power, arr in ((1, params.index_model.n1_thermal),
                                   (2, params.index_model.n2_thermal)):
                    corr = mp.mpf(0)
                    for k, aa in enumerate(arr):
                        corr += mp.mpf(repr(aa)) / lam_um ** k
                    n += corr * dt ** power
            return n

        def kz(omega, q):
            qq = mp.mpf(repr(float(q[0]))) ** 2 + mp.mpf(repr(float(q[1]))) ** 2
            return mp.sqrt((omega * index(omega) / c) ** 2 - qq)

        w_s = mp.mpf(repr(float(params.omega_s)))
        w_i = mp.mpf(repr(float(params.omega_i)))
        q_sum = (q_s[0] + q_i[0], q_s[1] + q_i[1])
        dk = (kz(w_s, q_s) + kz(w_i, q_i) - kz(w_s + w_i, q_sum)
              + 2 * mp.pi / mp.mpf(repr(float(params.poling_period))))
        return float(dk)


def _admissible(t_a, t_b, ix_a, iy_a, ix_b, iy_b, window_bins, min_xi):
    """(in window, passes the Chebyshev cut) for one event pair."""
    in_window = abs(int(t_a) - int(t_b)) <= window_bins
    cheb = max(abs(int(ix_a) - int(ix_b)), abs(int(iy_a) - int(iy_b)))
    return in_window, cheb > min_xi


def coincidence_pairs_loop(frame, ix, iy, t_bin, window_bins: int,
                           min_xi: int, one_pair_per_frame: bool):
    """Same-frame pairs by a double loop over i < j within each frame.

    Returns ``(pairs, n_cut, n_multi_pair_frames)``; ``pairs`` lists the
    stream indices ``(i, j)`` by frame, then i, then j.
    """
    by_frame: dict[int, list[int]] = {}
    for k, f in enumerate(frame):
        by_frame.setdefault(int(f), []).append(k)
    pairs, n_cut, n_multi = [], 0, 0
    for f in sorted(by_frame):
        members = by_frame[f]
        kept = []
        for a, i in enumerate(members):
            for j in members[a + 1:]:
                in_window, apart = _admissible(
                    t_bin[i], t_bin[j], ix[i], iy[i], ix[j], iy[j],
                    window_bins, min_xi)
                if in_window and apart:
                    kept.append((i, j))
                elif in_window:
                    n_cut += 1
        if len(kept) > 1:
            n_multi += 1
            if one_pair_per_frame:
                continue
        pairs.extend(kept)
    return pairs, n_cut, n_multi


def pair_indices_loop(frame, ix, iy, t_bin, window_bins: int, min_xi: int,
                      offset: int):
    """``(pairs, n_cut)``: every event i met with every event j of frame
    f_i + offset (j > i at offset 0), in (i, j) order, by a double loop."""
    pairs, n_cut = [], 0
    for i in range(len(frame)):
        for j in range(len(frame)):
            if int(frame[j]) != int(frame[i]) + offset or (not offset
                                                          and j <= i):
                continue
            in_window, apart = _admissible(t_bin[i], t_bin[j], ix[i], iy[i],
                                           ix[j], iy[j], window_bins, min_xi)
            if in_window and apart:
                pairs.append((i, j))
            elif in_window:
                n_cut += 1
    return pairs, n_cut


def accidental_histogram_loop(frame, ix, iy, t_bin, n_pixels, window_bins: int,
                              min_xi: int, offset: int) -> np.ndarray:
    """Unnormalised centroid histogram of every event of frame f paired with
    every event of frame f + offset."""
    nx, ny = n_pixels
    hist = np.zeros((2 * nx - 1, 2 * ny - 1))
    for i in range(len(frame)):
        for j in range(len(frame)):
            if int(frame[j]) != int(frame[i]) + offset:
                continue
            in_window, apart = _admissible(t_bin[i], t_bin[j], ix[i], iy[i],
                                           ix[j], iy[j], window_bins, min_xi)
            if in_window and apart:
                hist[int(ix[i]) + int(ix[j]), int(iy[i]) + int(iy[j])] += 1
    return hist


def first_hit_loop(records) -> list[tuple[int, int, int, int]]:
    """Sorted (frame, ix, iy, t_bin) of each (frame, pixel)'s earliest event
    among the records (rows of four integers)."""
    earliest: dict[tuple[int, int, int], int] = {}
    for f, x, y, t in records:
        pixel = (int(f), int(x), int(y))
        earliest[pixel] = min(int(t), earliest.get(pixel, int(t)))
    return sorted((*pixel, t) for pixel, t in earliest.items())


def density_samples_plain(grid, rng, count: int) -> np.ndarray:
    """``count`` positions from a piecewise-constant density ``grid``: one
    CDF search of the uniforms as drawn, then uniform jitter in the cell."""
    cdf = np.cumsum(np.asarray(grid.values, dtype=float).ravel())
    cdf /= cdf[-1]
    idx = np.searchsorted(cdf, rng.random(count), side="right")
    ix, iy = idx // grid.ny, idx % grid.ny
    x = grid.origin[0] + ix * grid.dx + (rng.random(count) - 0.5) * grid.dx
    y = grid.origin[1] + iy * grid.dy + (rng.random(count) - 0.5) * grid.dy
    return np.stack([x, y], axis=-1)


def per_frame_counts(rng, mean: float, n_frames: int) -> np.ndarray:
    """Tuples per frame as one Poisson draw per frame: the emission step
    that block-total placement replaced, kept as its reference."""
    return rng.poisson(mean, n_frames)


def unthinned_acquisition(source, cfg, wall_time: float, seed: int):
    """``run_acquisition`` without thinning, block by block.

    Every tuple is drawn, at Poisson counts of ``mean_pairs`` per frame, and
    detected with Bernoulli efficiency.  A block's tuples are one Poisson
    total placed on uniform random frames, which gives exactly i.i.d.
    Poisson counts per frame (multinomial cells given the total); this is
    its own copy of the library's placement.  The stream's
    ``pairs_generated`` is the number of tuples drawn.
    """
    from ocmsim import EventStream
    from ocmsim.detector import _block_frames, _detect, child_seed

    n_frames = int(round(wall_time * cfg.frame_rate))
    mean_pairs = source.pair_rate * cfg.frame_duration
    draw = source.sampler(cfg)
    block_frames = _block_frames(source, cfg)
    parts, generated = [], 0
    for block, start in enumerate(range(0, n_frames, block_frames)):
        stop = min(start + block_frames, n_frames)
        rng = np.random.default_rng(child_seed(seed, block))
        total = rng.poisson(mean_pairs * (stop - start))
        frame_ids = start + np.sort(rng.integers(0, stop - start, total,
                                                 dtype=np.uint64))
        positions = (draw(rng, total) if total else
                     np.empty((0, source.n_photons, 2)))
        parts.append(_detect(positions, cfg, rng, frame_ids, (start, stop)))
        generated += int(total)
    return EventStream(
        *(np.concatenate([getattr(p, k) for p in parts])
          for k in ("frame", "ix", "iy", "t_bin")),
        n_frames=n_frames, detector=cfg,
        meta={"pairs_generated": generated})


def nested_config_values(path, overrides=(), seed=None) -> dict:
    """Configuration values as the nested-tree loader produced them.

    The schema defaults form a tree, the YAML file merges into it key by
    key, each ``--set`` writes its node whole, a ``--seed`` replaces the
    seed unchecked, and only then is the tree flattened and each leaf
    checked.  This is the path the flat overlay replaced; it agrees with it
    wherever it loads and is kept as the reference for that.
    """
    import yaml

    from ocmsim.config import SCHEMA, _check_type

    def put(tree, dotted, value):
        *sections, leaf = dotted.split(".")
        for key in sections:
            tree = tree.setdefault(key, {})
        tree[leaf] = value

    def merge(base, update):
        for key, value in update.items():
            if isinstance(value, dict) and isinstance(base.get(key), dict):
                merge(base[key], value)
            else:
                base[key] = value

    kinds = {key: kind for key, kind, _, _ in SCHEMA}
    tree: dict = {}
    for key, _, default, _ in SCHEMA:
        put(tree, key, default)
    with open(path) as fh:
        merge(tree, yaml.safe_load(fh) or {})
    for item in overrides:
        key, raw = item.split("=", 1)
        put(tree, key.strip(), yaml.safe_load(raw))

    flat: dict = {}

    def walk(node, prefix):
        for key, value in node.items():
            dotted = f"{prefix}.{key}" if prefix else str(key)
            if dotted in kinds:
                flat[dotted] = _check_type(dotted, kinds[dotted], value)
            else:
                walk(value, dotted)

    walk(tree, "")
    if seed is not None:
        flat["acquisition.seed"] = int(seed)
    return flat


def crosstalk_per_side(rng, cfg, frame, ix, iy, t_bin):
    """Crosstalk as four uniform draws, one per neighbour side in the order
    +x, -x, +y, -y, and a loop over the detections each side fires from:
    the per-side draw that the single (side, detection) draw replaced."""
    out = [list(a) for a in (frame, ix, iy, t_bin)]
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        fired = rng.random(len(frame)) < cfg.crosstalk_prob
        for i in np.flatnonzero(fired):
            x, y = ix[i] + dx, iy[i] + dy
            if 0 <= x < cfg.n_pixels_x and 0 <= y < cfg.n_pixels_y:
                for column, value in zip(out, (frame[i], x, y, t_bin[i])):
                    column.append(value)
    return tuple(np.array(column, dtype=a.dtype)
                 for column, a in zip(out, (frame, ix, iy, t_bin)))


def crosstalk_slots(rng, n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """(side, detection) of the fired crosstalk slots among the 4 n, side
    major: a Binomial(4 n, p) count, then that many distinct slots drawn
    uniformly and sorted; the draw the library's ``_crosstalk`` makes."""
    slots = rng.choice(4 * n, rng.binomial(4 * n, p), replace=False,
                       shuffle=False)
    return np.divmod(np.sort(slots), n)


def crosstalk_slot_loop(rng, cfg, frame, ix, iy, t_bin):
    """Field arrays of the detections, then one neighbour event per fired
    slot whose neighbour lies on the sensor, appended in a Python loop."""
    out = [list(a) for a in (frame, ix, iy, t_bin)]
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
    for side, i in zip(*crosstalk_slots(rng, len(frame),
                                        cfg.crosstalk_prob)):
        x, y = int(ix[i]) + steps[side][0], int(iy[i]) + steps[side][1]
        if 0 <= x < cfg.n_pixels_x and 0 <= y < cfg.n_pixels_y:
            for column, value in zip(out, (frame[i], x, y, t_bin[i])):
                column.append(value)
    return tuple(np.array(column, dtype=a.dtype)
                 for column, a in zip(out, (frame, ix, iy, t_bin)))


def detect_by_fields(positions, cfg, rng, frame_ids, frame_range,
                     thinned: bool = False):
    """``_detect`` as four field arrays: every photon binned, the detected
    and on-sensor ones gathered, int64 dark frames shifted to the range,
    four-array concatenations, crosstalk on the fields from the slots of
    ``crosstalk_slots``, and the first hit of each (frame, pixel) from a
    ``np.lexsort``.  The draws are the library's, in its order."""
    from ocmsim.detector import _arrival_bins, _detected_masks

    positions = np.asarray(positions, dtype=float)
    n_tuples, n_ph = positions.shape[:2]
    n_frames = frame_range[1] - frame_range[0]
    tuple_tbin = _arrival_bins(rng, n_tuples, cfg)
    u = rng.random((n_tuples, n_ph))
    survive = _detected_masks(u, cfg.pde) if thinned else u < cfg.pde
    ix, iy, inside = cfg.pixel_index(positions)
    keep = survive & inside
    frame = np.repeat(np.asarray(frame_ids, np.uint64), n_ph).reshape(
        n_tuples, n_ph)[keep]
    t_bin = np.repeat(tuple_tbin, n_ph).reshape(n_tuples, n_ph)[keep]
    ix, iy = ix[keep], iy[keep]
    mean = (cfg.dark_count_rate * cfg.frame_duration
            * cfg.n_pixels_x * cfg.n_pixels_y * n_frames)
    n_dark = rng.poisson(mean) if mean > 0 else 0
    if n_dark > 0:
        d_frame = (rng.integers(0, n_frames, n_dark).astype(np.uint64)
                   + np.uint64(frame_range[0]))
        cell = rng.integers(0, cfg.n_pixels_x * cfg.n_pixels_y, n_dark)
        frame = np.concatenate([frame, d_frame])
        ix = np.concatenate([ix, cell // cfg.n_pixels_y])
        iy = np.concatenate([iy, cell % cfg.n_pixels_y])
        t_bin = np.concatenate([t_bin, _arrival_bins(rng, n_dark, cfg)])
    if cfg.crosstalk_prob > 0 and frame.size:
        side, src = crosstalk_slots(rng, frame.size, cfg.crosstalk_prob)
        steps = np.array([(1, 0), (-1, 0), (0, 1), (0, -1)])
        nx, ny = ix[src] + steps[side, 0], iy[src] + steps[side, 1]
        ok = ((nx >= 0) & (nx < cfg.n_pixels_x)
              & (ny >= 0) & (ny < cfg.n_pixels_y))
        src = src[ok]
        frame = np.concatenate([frame, frame[src]])
        ix = np.concatenate([ix, nx[ok]])
        iy = np.concatenate([iy, ny[ok]])
        t_bin = np.concatenate([t_bin, t_bin[src]])
    order = np.lexsort((t_bin, iy, ix, frame))
    frame, ix, iy, t_bin = (a[order] for a in (frame, ix, iy, t_bin))
    first = np.r_[True, (frame[1:] != frame[:-1]) | (ix[1:] != ix[:-1])
                  | (iy[1:] != iy[:-1])][:frame.size]
    return (frame[first], ix[first].astype(np.uint16),
            iy[first].astype(np.uint16), t_bin[first])

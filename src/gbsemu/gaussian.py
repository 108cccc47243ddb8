"""Gaussian ground truths and exact threshold-detection probabilities.

Conventions used throughout the package:

* Quadratures are ordered xxpp: the first M rows/columns of a covariance
  matrix are x-quadratures, the last M are p-quadratures.
* hbar defaults to 2.0 and is carried explicitly on every instance.
* Modes are numbered 0..M-1.
* A detection outcome is a length-M sequence of 0/1 ("click") values.

The exact oracle starts from q(Z), the probability that no mode in Z
clicks: the vacuum overlap of the reduced state on Z, displaced or not.
:func:`_no_click_probabilities` is the one determinant evaluation of q;
:func:`vacuum_overlap` and the scalar references of
:mod:`gbsemu.cumulants` call it too.  A superset Moebius transform over
the modes turns the table of q into outcome probabilities.  It is
tractable only at desk scale and serves as the oracle for everything
else; :func:`torontonian` is an independent scalar reference for
undisplaced states.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np

from .errors import NumericalError, ResourceGuardError, ValidationError

DEFAULT_HBAR = 2.0

SYMMETRY_RTOL = 1e-10
UNCERTAINTY_TOL = 1e-8
OVERLAP_EXCESS_TOL = 1e-9
PROBABILITY_WINDOW = 1e-9
BRUTE_FORCE_MAX_MODES = 20
# Matrix entries per batched determinant call of the exact oracle; bounds
# its scratch memory.
_CHUNK_ENTRIES = 1 << 16


def symplectic_form(M: int) -> np.ndarray:
    """Standard symplectic form in xxpp ordering: [[0, I], [-I, 0]]."""
    omega = np.zeros((2 * M, 2 * M))
    omega[:M, M:] = np.eye(M)
    omega[M:, :M] = -np.eye(M)
    return omega


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GaussianInstance:
    """A zero-mean-or-displaced Gaussian state of M modes.

    sigma is the real symmetric 2M x 2M quadrature covariance matrix in
    xxpp ordering; mu the quadrature mean vector.  Validity (symmetry and
    the uncertainty relation sigma + i(hbar/2)*Omega >= 0) is checked once
    at construction; instances are immutable and safe to share between
    workers.
    """

    sigma: np.ndarray
    mu: np.ndarray = None
    hbar: float = DEFAULT_HBAR

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim != 2 or not sigma.size or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] % 2:
            raise ValidationError(f"covariance must be 2M x 2M with M >= 1, got {sigma.shape}")
        if not np.isfinite(sigma).all():
            raise ValidationError("covariance has non-finite entries")
        if not 0 < self.hbar < np.inf:
            raise ValidationError("hbar must be positive and finite")
        scale = max(1.0, float(np.abs(sigma).max()))
        if np.abs(sigma - sigma.T).max() > SYMMETRY_RTOL * scale:
            raise ValidationError("covariance is not symmetric")
        sigma = 0.5 * (sigma + sigma.T)
        M = sigma.shape[0] // 2
        mu = self.mu
        mu = np.zeros(2 * M) if mu is None else np.asarray(mu, dtype=float)
        if mu.shape != (2 * M,):
            raise ValidationError(f"mean vector must have length {2 * M}, got {mu.shape}")
        if not np.isfinite(mu).all():
            raise ValidationError("mean vector has non-finite entries")
        herm = sigma + 1j * (self.hbar / 2.0) * symplectic_form(M)
        lo = float(np.linalg.eigvalsh(herm).min())
        if lo < -UNCERTAINTY_TOL:
            raise ValidationError(f"uncertainty relation violated: min eigenvalue {lo:.3e}")
        object.__setattr__(self, "sigma", _freeze(sigma))
        object.__setattr__(self, "mu", _freeze(mu))

    @property
    def M(self) -> int:
        return self.sigma.shape[0] // 2

    @property
    def is_displaced(self) -> bool:
        return bool(np.any(self.mu != 0.0))


@dataclass(frozen=True)
class JiuzhangSpec:
    """Squeezer magnitudes and transmission matrix defining an instance.

    T is the complex 2k x M transmission matrix of the (lossy)
    interferometer; its largest singular value may not exceed 1.
    """

    r: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        T = np.asarray(self.T, dtype=complex)
        if r.ndim != 1 or np.any(r < 0):
            raise ValidationError("squeezing parameters must be nonnegative")
        if T.ndim != 2 or T.shape[0] != 2 * r.size:
            raise ValidationError(f"transmission matrix must be 2k x M with k={r.size}")
        if not (np.isfinite(r).all() and np.isfinite(T).all()):
            raise ValidationError("squeezing parameters and transmission matrix must be finite")
        top = float(np.linalg.svd(T, compute_uv=False).max()) if T.size else 0.0
        if top > 1.0 + 1e-9:
            raise ValidationError(f"transmission exceeds unity: max singular value {top}")
        object.__setattr__(self, "r", _freeze(r))
        object.__setattr__(self, "T", _freeze(T))

    @property
    def k(self) -> int:
        return self.r.size

    @property
    def M(self) -> int:
        return self.T.shape[1]


@dataclass(frozen=True)
class HusimiForm:
    """Husimi-ordered covariance data used by the probability formula."""

    Sigma: np.ndarray
    O: np.ndarray
    det_sigma: complex
    sqrt_det: float = field(default=0.0)


def vacuum_instance(M: int, hbar: float = DEFAULT_HBAR) -> GaussianInstance:
    """The M-mode vacuum: sigma = (hbar/2) * identity."""
    return GaussianInstance(sigma=(hbar / 2.0) * np.eye(2 * M), hbar=hbar)


def build_input_covariance(r, hbar: float = DEFAULT_HBAR) -> GaussianInstance:
    """Covariance of k two-mode squeezers feeding modes (2j, 2j+1).

    The x-block of pair j is (hbar/2) * [[cosh r_j, sinh r_j], [sinh r_j,
    cosh r_j]]; the p-block flips the sign of the off-diagonal.  Note the
    hyperbolic functions take r_j directly: a two-mode squeezed vacuum
    with conventional squeezing parameter s corresponds to r_j = 2s.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim != 1:
        raise ValidationError("squeezing vector must be one-dimensional")
    if np.any(r < 0):
        raise ValidationError("squeezing parameters must be nonnegative")
    k = r.size
    n = 2 * k
    sigma = np.zeros((2 * n, 2 * n))
    for j, rj in enumerate(r):
        c, s = np.cosh(rj), np.sinh(rj)
        a, b = 2 * j, 2 * j + 1
        sigma[a, a] = sigma[b, b] = c
        sigma[a, b] = sigma[b, a] = s
        sigma[n + a, n + a] = sigma[n + b, n + b] = c
        sigma[n + a, n + b] = sigma[n + b, n + a] = -s
    return GaussianInstance(sigma=(hbar / 2.0) * sigma, hbar=hbar)


def embed_transmission(T) -> np.ndarray:
    """Real quadrature map of a complex transmission matrix.

    T has shape (n_in, M) acting on input modes; the returned V has shape
    (2M, 2*n_in) and maps input xxpp quadratures to output ones:
    V = [[Re W, -Im W], [Im W, Re W]] with W = T^T.  For unitary T this
    realification is orthogonal.
    """
    T = np.asarray(T, dtype=complex)
    if T.ndim != 2:
        raise ValidationError("transmission matrix must be two-dimensional")
    W = T.T
    re, im = W.real, W.imag
    return np.block([[re, -im], [im, re]])


def ground_truth_covariance(sigma_in: GaussianInstance, V: np.ndarray) -> GaussianInstance:
    """Push a Gaussian input through a (possibly lossy) linear network.

    sigma_out = V sigma_in V^T + (hbar/2)(I - V V^T); the second term is
    the vacuum noise entering through the loss ports.
    """
    V = np.asarray(V, dtype=float)
    n_in = sigma_in.sigma.shape[0]
    if V.ndim != 2 or V.shape[1] != n_in or V.shape[0] % 2:
        raise ValidationError(f"network matrix shape {V.shape} incompatible with {n_in} input quadratures")
    M2 = V.shape[0]
    hbar = sigma_in.hbar
    sigma = V @ sigma_in.sigma @ V.T + (hbar / 2.0) * (np.eye(M2) - V @ V.T)
    return GaussianInstance(sigma=sigma, hbar=hbar)


def reduce_modes(inst: GaussianInstance, subset) -> GaussianInstance:
    """Restrict an instance to a subset of modes (partial trace).

    Keeps rows/columns k and k+M for k in the subset, preserving relative
    order.
    """
    subset = sorted(int(k) for k in subset)
    if not subset:
        raise ValidationError("mode subset must be nonempty")
    M = inst.M
    if subset[0] < 0 or subset[-1] >= M or len(set(subset)) != len(subset):
        raise ValidationError(f"mode subset {subset} invalid for M={M}")
    idx = np.array(subset + [k + M for k in subset])
    return GaussianInstance(
        sigma=inst.sigma[np.ix_(idx, idx)], mu=inst.mu[idx], hbar=inst.hbar
    )


def vacuum_overlap(sigma: np.ndarray, mu=None, hbar: float = DEFAULT_HBAR) -> float:
    """Probability that no mode of the reduced state registers a photon.

    exp(-mu^T (sigma + hbar/2 I)^(-1) mu / 2) / sqrt(det((sigma + hbar/2 I)/hbar)),
    from :func:`_no_click_probabilities` on all modes of sigma.  The empty
    state gives 1.  Raises if the value exceeds 1 beyond tolerance;
    otherwise the result is clamped to [0, 1].
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.size == 0:
        return 1.0
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] % 2:
        raise ValidationError(f"covariance must be 2n x 2n, got {sigma.shape}")
    rows = np.arange(sigma.shape[0] // 2)[None, :]
    val = float(_no_click_probabilities(sigma, mu, hbar, rows)[0])
    if val > 1.0 + OVERLAP_EXCESS_TOL:
        raise NumericalError(f"vacuum overlap {val} exceeds 1")
    return min(max(val, 0.0), 1.0)


def husimi_form(inst: GaussianInstance) -> HusimiForm:
    """Husimi-ordered matrix Sigma = I/2 + R sigma R^H / hbar and O = I - Sigma^(-1)."""
    M = inst.M
    eye = np.eye(M)
    R = np.block([[eye, 1j * eye], [eye, -1j * eye]]) / np.sqrt(2.0)
    Sigma = 0.5 * np.eye(2 * M) + (R @ inst.sigma @ R.conj().T) / inst.hbar
    sign, logdet = np.linalg.slogdet(Sigma)
    if sign == 0 or not np.isfinite(logdet):
        raise NumericalError("singular Husimi covariance: invalid state")
    det = sign * np.exp(logdet)
    if abs(det.imag) > 1e-9 * abs(det) or det.real <= 0:
        raise NumericalError(f"Husimi determinant {det} not real-positive")
    O = np.eye(2 * M) - np.linalg.inv(Sigma)
    residual = float(np.abs(Sigma @ (np.eye(2 * M) - O) - np.eye(2 * M)).max())
    if residual > 1e-9:
        raise NumericalError(f"Husimi inversion residual {residual:.3e}")
    return HusimiForm(Sigma=Sigma, O=O, det_sigma=complex(det), sqrt_det=float(np.exp(0.5 * logdet)))


def _inv_sqrt_det(A: np.ndarray) -> complex:
    """1/sqrt(det(A)) on the principal branch, in log-magnitude form.

    Raises when det(A) has nonpositive real part (outside the certified
    branch for physical inputs) or vanishes.
    """
    if A.shape[0] == 0:
        return 1.0 + 0.0j
    sign, logdet = np.linalg.slogdet(A)
    if sign == 0 or not np.isfinite(logdet):
        raise NumericalError("singular matrix in subset-determinant sum")
    ang = np.angle(sign)
    if abs(ang) >= np.pi / 2:
        raise NumericalError(f"determinant real part nonpositive (arg {ang:.3f})")
    return np.exp(-0.5 * logdet) * np.exp(-0.5j * ang)


def torontonian(A: np.ndarray) -> complex:
    """Alternating subset sum of inverse sqrt determinants of I - A_R.

    A is 2n x 2n; A_R keeps rows/columns k and k+n for k in R, over all
    R subset of {0..n-1}, weighted by (-1)^|R|.  The empty subset
    contributes +1.  Square roots use the principal branch.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] % 2:
        raise ValidationError(f"torontonian input must be 2n x 2n, got {A.shape}")
    n = A.shape[0] // 2
    total = 0.0 + 0.0j
    for size in range(n + 1):
        for R in combinations(range(n), size):
            idx = np.array(R + tuple(k + n for k in R), dtype=int)
            sub = A[np.ix_(idx, idx)]
            total += (-1) ** size * _inv_sqrt_det(np.eye(2 * size) - sub)
    return complex(total)


def exact_probability(inst: GaussianInstance, bits) -> float:
    """Exact probability of a threshold-detection outcome.

    The modes that did not click are quiet and the clicked modes free in
    :func:`_click_table`; the outcome is its last entry, in which every
    free mode clicks.  The stages of :func:`brute_force_distribution`'s
    transform for the unclicked modes never touch the entries that lead
    to it, so the value is bit-identical to that array's entry.
    """
    bits = np.asarray(bits, dtype=int)
    M = inst.M
    if bits.shape != (M,) or np.any((bits != 0) & (bits != 1)):
        raise ValidationError(f"outcome must be {M} binary values")
    p = _click_table(inst, np.flatnonzero(bits == 0), np.flatnonzero(bits == 1))[-1:]
    return float(_in_window(p)[0])


def outcome_codes(bits: np.ndarray) -> np.ndarray:
    """Outcome index of each 0/1 row of an (N, M) array: mode 0 is the most significant bit."""
    codes = np.zeros(bits.shape[0], dtype=np.int64)
    for column in bits.T:
        codes <<= 1
        codes |= column
    return codes


def outcome_bits(codes: np.ndarray, M: int) -> np.ndarray:
    """The (N, M) uint8 rows of outcome indices; the inverse of :func:`outcome_codes`."""
    shifts = np.arange(M - 1, -1, -1, dtype=np.int64)
    return ((codes[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def brute_force_distribution(inst: GaussianInstance) -> np.ndarray:
    """Exact probabilities of all 2^M outcomes in lexicographic bit order.

    Outcome index i has the bits ``outcome_bits`` gives: mode 0 is the
    most significant bit.  Guarded at M <= 20.  The no-click probability
    of each of the 2^M mode subsets is computed once, by batched
    determinants, and the superset Moebius transform of
    :func:`_click_table` turns them into the outcome probabilities.
    """
    M = inst.M
    if M > BRUTE_FORCE_MAX_MODES:
        raise ResourceGuardError(f"brute force refused for M={M} > {BRUTE_FORCE_MAX_MODES}")
    return _in_window(_click_table(inst, np.arange(0), np.arange(M)))


def _click_table(inst: GaussianInstance, quiet: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Probability that no quiet mode clicks and exactly a given set of free modes does.

    Entry i is indexed by the clicked free modes, the first free mode the
    most significant bit.  The table g first holds, for each set Z of free
    modes, the probability q(quiet + Z) that no mode of quiet + Z clicks
    (:func:`_no_click_probabilities`, one batch per order, mode rows
    sorted).  Then, for each free mode k in mode order, g[Z] -= g[Z + {k}]
    for every Z without k: M * 2^(M-1) subtractions for all M modes free.
    After the stages of any set of modes, g[Z] is the probability that no
    mode of quiet + Z clicks and every staged mode outside Z does, so
    every intermediate value is the probability of an event.  g[Z] ends as
    the outcome in which the free modes outside Z click.
    """
    F = free.size
    # weight[j]: the bit of free mode j in an index of g
    weight = outcome_codes(np.eye(F, dtype=np.int64))
    g = np.empty(1 << F)
    for size in range(F + 1):
        picks = np.array(list(combinations(range(F), size)), dtype=np.int64)
        picks = picks.reshape(comb(F, size), size)
        n = quiet.size + size
        step = max(1, _CHUNK_ENTRIES // max(1, 4 * n * n))
        for start in range(0, picks.shape[0], step):
            chunk = picks[start : start + step]
            # C-ordered rows: for a displaced state the einsum of
            # _no_click_probabilities adds in an order set by the layout
            rows = np.concatenate([np.tile(quiet, (chunk.shape[0], 1)), free[chunk]], axis=1)
            g[weight[chunk].sum(axis=1)] = _no_click_probabilities(
                inst.sigma, inst.mu, inst.hbar, np.sort(rows, axis=1))
    for b in range(F - 1, -1, -1):
        stage = g.reshape(-1, 2, 1 << b)
        stage[:, 0] -= stage[:, 1]
    return g[::-1]


def _in_window(p: np.ndarray) -> np.ndarray:
    """p clamped to [0, 1]; raises when an entry lies outside the probability window."""
    bad = (p < -PROBABILITY_WINDOW) | (p > 1.0 + PROBABILITY_WINDOW)
    if bad.any():
        raise NumericalError(f"probability {p[np.argmax(bad)]} outside [0, 1] window")
    return np.minimum(np.maximum(p, 0.0), 1.0)


def _no_click_probabilities(sigma: np.ndarray, mu, hbar: float, rows: np.ndarray) -> np.ndarray:
    """Vacuum overlap of the reduced state on each subset row of a 2M x 2M sigma.

    1/sqrt(det((sigma_R + hbar/2)/hbar)), times exp(-mu^T (sigma_R + hbar/2)^-1 mu / 2)
    when mu is given and not zero.  The blocks are gathered from the
    whole matrix shifted (and divided) once, so each entry gets the same
    add and divide as a block shifted on its own, and det sees the same
    bytes.  This is the one determinant evaluation of P0 outside the
    Phase II lattice.
    """
    M = sigma.shape[0] // 2
    quad = np.concatenate([rows, rows + M], axis=1)
    block = (quad[:, :, None], quad[:, None, :])
    shifted = sigma + (hbar / 2.0) * np.eye(2 * M)
    det = np.linalg.det((shifted / hbar)[block])
    bad = ~(np.isfinite(det) & (det > 0.0))
    if bad.any():
        t = int(np.argmax(bad))
        raise NumericalError(
            f"shifted covariance of modes {tuple(int(k) for k in rows[t])} has "
            f"determinant {det[t]!r}: input state is invalid"
        )
    vals = 1.0 / np.sqrt(det)
    if mu is not None and np.any(np.asarray(mu) != 0.0):
        mu = np.asarray(mu, dtype=float)[quad]
        x = np.linalg.solve(shifted[block], mu[:, :, None])[:, :, 0]
        vals *= np.exp(-0.5 * np.einsum("ij,ij->i", mu, x))
    return vals


def random_instance(
    M: int,
    k: int,
    eta: float,
    r_max: float,
    seed: int,
    hbar: float = DEFAULT_HBAR,
) -> tuple[GaussianInstance, JiuzhangSpec]:
    """Seeded random instance: Haar interferometer rows scaled by sqrt(eta).

    Draws a Haar-random M x M unitary (QR of a complex Gaussian matrix
    with the diagonal phase fix), takes its first 2k rows as the
    transmission matrix T = sqrt(eta) U[:2k], and draws squeezing
    parameters uniformly in [0, r_max].  Deterministic for a fixed seed.
    """
    if not 0 < eta <= 1:
        raise ValidationError("eta must lie in (0, 1]")
    if not 1 <= 2 * k <= M:
        raise ValidationError(f"need 1 <= k and 2k <= M, got k={k}, M={M}; see vacuum_instance")
    if not 0 <= r_max < np.inf:
        raise ValidationError("r_max must be nonnegative and finite")
    rng = np.random.default_rng(seed)
    Z = (rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))) / np.sqrt(2.0)
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    U = Q * (d / np.abs(d))
    T = np.sqrt(eta) * U[: 2 * k, :]
    r = rng.uniform(0.0, r_max, size=k)
    spec = JiuzhangSpec(r=r, T=T)
    inst = instance_from_jiuzhang(spec, hbar=hbar)
    return inst, spec


def instance_from_jiuzhang(spec: JiuzhangSpec, hbar: float = DEFAULT_HBAR) -> GaussianInstance:
    """Ground-truth covariance of a squeezer bank behind a transmission matrix."""
    sigma_in = build_input_covariance(spec.r, hbar=hbar)
    V = embed_transmission(spec.T)
    return ground_truth_covariance(sigma_in, V)


def save_instance(path, inst: GaussianInstance = None, spec: JiuzhangSpec = None,
                  hbar: float = DEFAULT_HBAR) -> None:
    """Write an instance file (exactly one of the two JSON forms).

    Passing spec writes the squeezer/transmission form; passing inst
    writes the raw covariance form.
    """
    if (inst is None) == (spec is None):
        raise ValidationError("provide exactly one of inst or spec")
    if spec is not None:
        payload = {
            "hbar": hbar,
            "M": spec.M,
            "r": spec.r.tolist(),
            "T_re": spec.T.real.tolist(),
            "T_im": spec.T.imag.tolist(),
        }
    else:
        payload = {"hbar": inst.hbar, "M": inst.M, "sigma": inst.sigma.tolist()}
        if inst.is_displaced:
            payload["mu"] = inst.mu.tolist()
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _numeric(value) -> bool:
    """A JSON number, or a list of them at any depth; a boolean is no number."""
    return type(value) in (int, float) or (type(value) is list and all(map(_numeric, value)))


def _array(payload: dict, name: str, path) -> np.ndarray:
    """payload[name] as a float array; a missing or non-numeric value is a ValidationError."""
    try:
        if not _numeric(payload[name]):
            raise TypeError("not every value is a JSON number")
        return np.asarray(payload[name], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"instance file {path}: {name!r} missing or not numeric ({exc})") from None


def load_instance(path) -> GaussianInstance:
    """Read an instance file; the squeezer form is converted to a covariance."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read instance file {path}: {exc}") from exc
    if not isinstance(payload, dict) or "M" not in payload or "hbar" not in payload:
        raise ValidationError(f"instance file {path} missing M/hbar")
    M, hbar = payload["M"], _array(payload, "hbar", path)
    if type(M) is not int or hbar.ndim:
        raise ValidationError(f"instance file {path}: M must be an integer and hbar a number")
    has_cov = "sigma" in payload
    has_jz = "r" in payload or "T_re" in payload or "T_im" in payload
    if has_cov == has_jz:
        raise ValidationError("instance file must contain exactly one of the two forms")
    if has_cov:
        mu = _array(payload, "mu", path) if "mu" in payload else None
        inst = GaussianInstance(sigma=_array(payload, "sigma", path), mu=mu, hbar=float(hbar))
    else:
        T_re, T_im = _array(payload, "T_re", path), _array(payload, "T_im", path)
        if T_re.shape != T_im.shape:
            raise ValidationError(f"instance file {path}: T_re {T_re.shape} and T_im {T_im.shape} differ")
        spec = JiuzhangSpec(r=_array(payload, "r", path), T=T_re + 1j * T_im)
        inst = instance_from_jiuzhang(spec, hbar=float(hbar))
    if inst.M != M:
        raise ValidationError(f"instance file declares M={M} but data has M={inst.M}")
    return inst

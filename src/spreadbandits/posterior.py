"""Posterior over an arm mean from power-weighted statistics.

With an improper uniform prior on (mu, log sigma), an arm whose weighted
statistics after ``t - 1`` observed rounds are ``(z, xbar, S)`` has the
bivariate-t posterior density (valid once t >= 4)

    f(mu) = (z (t - 3) / (pi S)) * (1 + z |mu - xbar|^2 / S)^(-(t - 2)),

radially symmetric about ``xbar`` with the closed-form radial tail

    P(|mu - xbar| >= delta) = (1 + z delta^2 / S)^(-(t - 3)).

Inverting the tail gives an exact two-uniform sampler: with U, V iid
uniform(0,1),

    delta = sqrt((S / z) (U^(-1/(t-3)) - 1)),   angle = 2 pi V.

:func:`_radial_t_fill` and :func:`_radial_t_d2` are this sampler in float64,
the one copy behind both :func:`sample_posterior` and the unknown-variance
Thompson baseline in :mod:`spreadbandits.policies`.  It is split where the
statistics enter: the fill turns uniforms into ``-log(1 - U)`` and ``2 pi
V`` for any number of rounds at once, and ``_radial_t_d2`` scales a
round's ``-log(1 - U)`` by that round's ``(S / z, t - 3)``.

:func:`estimate_rho` turns a set of per-arm posteriors into the belief that
each arm has the largest mean norm, by Monte Carlo over joint draws.  Its
kernel, :func:`_rho_counts`, runs the same sampler in float32 on the
uniforms ``rng.random(dtype=np.float32)`` would give, on every bit
generator.  It draws nothing itself: it takes one round of
:func:`_kernel_uniforms`, the float32 ``1 - u`` and ``2 pi v`` that the
fill makes from raw words for a block of rounds at once (one round for
:func:`estimate_rho`).  It stays a separate kernel because it is the hot
path of every WTS round: it works in place on its round of the block,
rescales the statistics so float32 neither overflows nor underflows, and
must keep its counts bit-equal, draw for draw, to the reference kernel
that the engine tests compare it with.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import _count
from .errors import InvalidParams, TooFewArms

# the Monte Carlo kernel's uniforms: u = m * 2^-24 for a 24-bit mantissa m,
# so 1 - u = 1 + m * -2^-24, exact, and 2 pi v = m * (fl32(2 pi) * 2^-24),
# rounded once as fl32(2 pi) * v is
_UV_SCALE = np.array([-2.0 ** -24, np.float32(2.0 * np.pi) * 2.0 ** -24],
                     dtype=np.float32)[:, None, None]
_max = np.maximum.reduce
_sum = np.add.reduce


@dataclass(frozen=True, eq=False)
class PosteriorParams:
    """Sufficient statistics feeding one arm's posterior.

    ``t`` is the round index: the statistics cover rounds 1..t-1, so the
    density above is proper only for ``t >= 4``.
    """

    z: float
    xbar: np.ndarray
    S: float
    t: int

    def __post_init__(self):
        z = float(self.z)
        S = float(self.S)
        t = _count(self.t, "t", 4)
        xbar = np.asarray(self.xbar, dtype=np.float64)
        if not np.isfinite(z) or z <= 0.0:
            raise InvalidParams(f"z must be finite and > 0, got {z}")
        if not np.isfinite(S) or S <= 0.0:
            raise InvalidParams(f"S must be finite and > 0, got {S}")
        if xbar.shape != (2,) or not np.all(np.isfinite(xbar)):
            raise InvalidParams("xbar must be a finite 2-vector")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "xbar", xbar)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "t", t)


def posterior_density(params: PosteriorParams, mu) -> np.ndarray:
    """Evaluate the posterior density at ``mu`` ((2,) or (n, 2))."""
    mu = np.asarray(mu, dtype=np.float64)
    dev = mu - params.xbar
    q2 = (dev * dev).sum(axis=-1)
    norm = params.z * (params.t - 3) / (np.pi * params.S)
    return norm * (1.0 + params.z * q2 / params.S) ** (-(params.t - 2))


def posterior_radial_tail(params: PosteriorParams, delta) -> np.ndarray:
    """P(|snapshot of mu - xbar| >= delta), exact and monotone in delta."""
    delta = np.asarray(delta, dtype=np.float64)
    if not np.all(delta >= 0.0):
        raise InvalidParams("delta must be nonnegative")
    q = 1.0 + params.z * delta * delta / params.S
    return q ** (-(params.t - 3.0))


def _radial_t_fill(rng: np.random.Generator, n: int, rounds: int) -> tuple:
    """The state-free half of ``rounds`` rounds of ``n`` radial-t draws.

    Returns ``e = -log(1 - u)`` and ``theta = 2 pi v``, each of shape
    (rounds, n), where ``u`` and ``v`` are the rows of each round's
    ``rng.random((2, n))``.  ``1 - u`` in (0, 1] guards the heavy-tail
    endpoint.
    """
    u = rng.random((rounds, 2, n))
    return -np.log(1.0 - u[:, 0]), (2.0 * np.pi) * u[:, 1]


def _radial_t_d2(e, scale, dof) -> np.ndarray:
    """Squared radius ``scale * ((1 - u)^(-1/dof) - 1)`` of radial-t draws
    from their ``e`` of :func:`_radial_t_fill`.

    ``scale`` is ``S / z`` and ``dof`` is ``t - 3``, each a scalar or a
    vector as long as ``e``; expm1 keeps precision when 1/dof is tiny.
    """
    return scale * np.expm1(e / dof)


def sample_posterior(params: PosteriorParams, rng: np.random.Generator,
                     size: int | None = None) -> np.ndarray:
    """Draw from the posterior by inverse-CDF radius and uniform angle.

    Returns shape (2,) for ``size=None`` and (size, 2) otherwise.
    """
    n = 1 if size is None else _count(size, "size")
    e, theta = _radial_t_fill(rng, n, 1)
    theta = theta[0]
    delta = np.sqrt(_radial_t_d2(e[0], params.S / params.z, params.t - 3.0))
    out = np.empty((n, 2))
    out[:, 0] = params.xbar[0] + delta * np.cos(theta)
    out[:, 1] = params.xbar[1] + delta * np.sin(theta)
    return out[0] if size is None else out


def _kernel_uniforms(rng: np.random.Generator, K: int, M: int,
                     rounds: int) -> np.ndarray:
    """``rounds`` rounds of the kernel's uniforms, float32 of shape (rounds,
    2, K, M): per round ``1 - u`` then ``2 pi v``, where ``u`` and ``v`` are
    ``rng.random((2, K, M), dtype=np.float32)``.

    numpy's float32 uniform is ``(next_uint32 >> 8) * 2^-24``, so the fill
    draws those uint32 words in stream order and leaves the generator in
    the state that ``rounds`` such draws leave it in.  A PCG64 generator
    with no buffered half-word hands out each 64-bit word as its low, then
    its high half, which on a little-endian machine is ``random_raw``
    viewed as uint32, at half the cost of the float fill; any other
    generator draws the same words through ``integers``.  The words become
    their 24-bit mantissas ``m`` as float32 in place, exactly; one multiply
    by ``(-2^-24, fl32(2 pi) 2^-24)`` and ``+ 1`` on the ``u`` half then give
    values bit-equal to ``1 - u`` and ``fl32(2 pi) * v`` in float32.
    """
    bg = rng.bit_generator
    shape = (rounds, 2, K, M)
    if (type(bg) is np.random.PCG64 and np.little_endian
            and not bg.state["has_uint32"]):
        words = bg.random_raw(rounds * K * M).view(np.uint32).reshape(shape)
    else:
        words = rng.integers(0, 1 << 32, size=shape, dtype=np.uint32)
    draws = words.view(np.float32)
    # numpy copies an input that shares memory with an output of another
    # dtype; a round at a time, that copy stays small (block-wide, it cost
    # a gain round 16 minor page faults under glibc's malloc)
    for i in range(rounds):
        np.right_shift(words[i], 8, out=draws[i])
    draws *= _UV_SCALE
    draws[:, 0] += 1
    return draws


def _rho_counts(z, S, t, xbar, M: int, draws: np.ndarray) -> np.ndarray:
    """Count argmax-norm wins over M joint posterior draws (array kernel).

    ``z`` and ``S`` are length-K vectors, ``t`` a scalar or a length-K
    vector, ``xbar`` is (K, 2).  Runs in single precision: the Monte Carlo
    error of order 1/sqrt(M) dominates float32 roundoff by many orders of
    magnitude, and the narrower dtype roughly halves the cost of the
    per-round sampling that dominates long simulations.

    Before any square or float32 cast, ``xbar`` is multiplied by one power
    of two ``f`` that brings the largest of ``|xbar_k|`` and ``sqrt(S_k /
    z_k)`` into [1/2, 1), and ``S / z`` by ``f^2``.  A power of two is exact
    and the argmax does not change under a common scale, so the counts are
    the same at every scale where ``S / z`` is finite, and float32 neither
    overflows nor underflows.

    ``draws`` is one round of :func:`_kernel_uniforms`, the float32 (2, K,
    M) ``1 - u`` and ``2 pi v``; the kernel works in it and overwrites it.

    Each draw's winner is the arm of largest norm, the lowest index on a
    tie.  Wins are counted as the arms equal to the column maximum; when
    those counts do not sum to M (a tie, or a NaN from non-finite input),
    they come from ``argmax`` instead.
    """
    # ufunc reductions throughout: the wrappers of ndarray.max and .sum,
    # and np.ndim, cost more than the reductions on K-vectors
    K = xbar.shape[0]
    ratio = S / z
    r = float(_max(ratio))
    big = max(float(_max(np.abs(xbar), axis=None)),
              math.sqrt(r) if r > 0.0 else 0.0)
    e = math.frexp(big)[1]
    if e:
        f = math.ldexp(1.0, -e)
        xbar = xbar * f
        ratio = ratio * f * f
    scale = ratio.astype(np.float32)[:, None]
    if isinstance(t, np.ndarray):
        expo = (-1.0 / (np.asarray(t, dtype=np.float64) - 3.0)).astype(
            np.float32)[:, None]
    else:
        expo = np.float32(-1.0 / (float(t) - 3.0))
    b2 = _sum(xbar * xbar, axis=1).astype(np.float32)[:, None]
    b = np.sqrt(b2)

    u, c = draws
    np.log(u, out=u)
    u *= expo
    np.expm1(u, out=u)
    u *= scale
    d2 = u
    np.cos(c, out=c)
    # |xbar + d e|^2 = |xbar|^2 + 2 d (xbar . e) + d^2 with e a unit vector:
    # only the cosine of the angle between e and xbar enters the norm.
    n2 = np.sqrt(d2)
    n2 *= 2.0 * b
    n2 *= c
    n2 += b2
    n2 += d2
    top = _max(n2, axis=0)
    counts = _sum(n2 == top, axis=1)
    if _sum(counts) != M:
        counts = np.bincount(np.argmax(n2, axis=0), minlength=K)
    return counts


def estimate_rho(all_params, mc_samples: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Estimate the optimality belief ``rho`` over K >= 2 arms.

    Draws ``mc_samples`` joint posterior samples (independent across arms)
    and counts, per arm, how often its sample attains the strict maximum
    norm; ties go to the lowest index.  ``rho[k]``, the estimate of P(arm k
    has the largest mean norm), is arm k's count divided by
    ``mc_samples``, so the vector sums to one by construction.
    """
    K = len(all_params)
    if K < 2:
        raise TooFewArms(f"need at least 2 arms, got {K}")
    M = _count(mc_samples, "mc_samples")

    z = np.array([q.z for q in all_params])
    S = np.array([q.S for q in all_params])
    t = np.array([q.t for q in all_params], dtype=np.float64)
    xbar = np.array([q.xbar for q in all_params])
    return _rho_counts(z, S, t, xbar, M,
                       _kernel_uniforms(rng, K, M, 1)[0]) / M

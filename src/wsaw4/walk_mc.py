"""Monte Carlo for the continuous-time weakly self-avoiding walk.

The walk takes nearest-neighbour steps at the events of a rate-2d Poisson
clock; a path up to horizon T is weighted by ``exp(-g I(T))`` where the
intersection local time ``I(T) = sum_x (L_T^x)^2`` penalises
self-intersections.  Local times are accumulated from exact residence
intervals (never time discretisation), so ``sum_x L_T^x = T`` holds to
roundoff pathwise.

Randomness contract
-------------------
All estimators draw from counter-based Philox streams keyed by
``(seed, block_index)`` over fixed-size blocks of samples, and merge block
statistics in block order with the pairwise (Chan) update of one reducer.
Results are therefore bit-reproducible for a given seed regardless of how
blocks would be distributed over workers, and independent samples never
share a stream.  Batch sampling uses the conditional representation of the
Poisson clock (jump count ~ Poisson(2dT), jump times i.i.d. uniform on
[0, T]), which is distributionally identical to drawing exponential(2d)
inter-jump gaps; :func:`simulate` draws the exponential gaps literally.
``I(t)`` is piecewise quadratic along a walk, so :func:`susceptibility_mc`
integrates each walk's ``e^{-nu t - g I(t)}`` over ``[0, T_max]`` exactly
and takes its standard error across one stream of ``n`` walks;
:func:`jensen_bound_check` reads both of its means from one pass.

Folding: projecting a walk on Z^d to the torus of period n can only merge
sites, so intersection local time grows pathwise under folding, and grows
further as the period shrinks through a geometric sequence.  Unfolding is
unique for nearest-neighbour walks only when the period is >= 3, so
comparisons enforce that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, erfcx

from .lattice_green import LatticeSpec, constant_a

__all__ = [
    "WalkSample",
    "Estimate",
    "LaplaceEstimate",
    "JensenReport",
    "simulate",
    "estimate_cT",
    "estimate_mean_intersection",
    "fold_and_compare",
    "intersection_local_time",
    "susceptibility_mc",
    "conditioned_intersection",
    "saw_counts",
    "jensen_bound_check",
]

BLOCK_SIZE = 4096


# ---------------------------------------------------------------------------
# RNG contract
# ---------------------------------------------------------------------------

def block_rng(seed: int, block_index: int) -> np.random.Generator:
    """Philox stream for one block, keyed by (seed, block_index)."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(block_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _combine(n1, mean1, m2_1, n2, mean2, m2_2):
    """Chan's pairwise combination of (count, mean, sum of squared devs)."""
    if n2 == 0:
        return n1, mean1, m2_1
    n = n1 + n2
    delta = mean2 - mean1
    mean = mean1 + delta * (n2 / n)
    m2 = m2_1 + m2_2 + delta * delta * (n1 * n2 / n)
    return n, mean, m2


def _chan_stream(blocks):
    """Merge per-block value arrays in block order with :func:`_combine`.

    Each block has shape ``(k, nb)`` (k statistics of nb samples) or
    ``(nb,)``.  Rows are reduced along their contiguous axis, so each is
    summed as a 1-D block would be.  Returns per-row ``(mean, se, count)``;
    fewer than 2 samples in all raise, as they give no standard error.
    """
    count, mean, m2 = 0, 0.0, 0.0
    for vals in blocks:
        bmean = vals.mean(axis=-1)
        bm2 = ((vals - bmean[..., None]) ** 2).sum(axis=-1)
        count, mean, m2 = _combine(count, mean, m2, vals.shape[-1], bmean, bm2)
    if count < 2:
        raise ValueError(f"{count} samples give no standard error; need >= 2")
    return mean, np.sqrt(m2 / (count - 1) / count), count


@dataclass(frozen=True)
class Estimate:
    mean: float
    std_error: float
    n_samples: int
    seed: int


@dataclass(frozen=True)
class LaplaceEstimate(Estimate):
    truncation_bound: float = 0.0   # bound on the neglected Laplace tail
    quadrature_error: float = 0.0   # 0: each walk's integral is closed-form


@dataclass(frozen=True)
class JensenReport:
    mean_I: float
    se_I: float
    upper_bound: float          # 2 T C_0(0)
    c_T_hat: float
    se_c_T: float
    jensen_floor: float         # exp(-g * mean_I)
    bound_satisfied: bool
    jensen_satisfied: bool


# ---------------------------------------------------------------------------
# Single-walk simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WalkSample:
    """One continuous-time walk up to horizon T.

    sites[v] is the position during the v-th residence interval and
    gaps[v] its exact duration; jump_times are the Poisson events.
    """

    T: float
    jump_times: np.ndarray
    sites: np.ndarray           # (n_jumps + 1, d) integer positions
    gaps: np.ndarray            # (n_jumps + 1,) residence durations
    local_times: dict
    I_T: float

    @property
    def total_time(self) -> float:
        return float(self.gaps.sum())


def _local_times_from_visits(sites, gaps):
    lt = {}
    for pos, dt in zip(map(tuple, sites.tolist()), gaps):
        lt[pos] = lt.get(pos, 0.0) + float(dt)
    return lt


def intersection_local_time(sites: np.ndarray, gaps: np.ndarray) -> float:
    """I(T) = sum_x (L_T^x)^2 from per-visit positions and durations."""
    lt = _local_times_from_visits(np.asarray(sites), np.asarray(gaps))
    return float(sum(v * v for v in lt.values()))


def simulate(spec: LatticeSpec, T: float, seed: int, sample_index: int = 0) -> WalkSample:
    """Simulate one walk: exponential(2d) gaps, uniform neighbour steps.

    The draws come from the Philox stream keyed by ``(seed, sample_index)``.
    """
    if T <= 0:
        raise ValueError("T must be > 0")
    if spec.geometry == "graph":
        raise ValueError("walks run on window or torus geometry")
    rng = block_rng(seed, sample_index)
    d = spec.d
    rate = 2.0 * d
    times = []
    t = rng.exponential(1.0 / rate)
    while t < T:
        times.append(t)
        t += rng.exponential(1.0 / rate)
    n = len(times)
    jump_times = np.array(times)
    dirs = rng.integers(0, 2 * d, size=n)
    steps = np.zeros((n, d), dtype=np.int64)
    if n:
        steps[np.arange(n), dirs >> 1] = 1 - 2 * (dirs & 1)
    sites = np.zeros((n + 1, d), dtype=np.int64)
    if n:
        sites[1:] = np.cumsum(steps, axis=0)
    if spec.geometry == "torus":
        sites = np.mod(sites, spec.period)
    bounds = np.concatenate([[0.0], jump_times, [T]])
    gaps = np.diff(bounds)
    lt = _local_times_from_visits(sites, gaps)
    I_T = float(sum(v * v for v in lt.values()))
    return WalkSample(T=T, jump_times=jump_times, sites=sites, gaps=gaps,
                      local_times=lt, I_T=I_T)


def fold_and_compare(sample: WalkSample, periods) -> dict:
    """I(T) of the same trajectory folded to each torus period.

    Returns ``{period: I_T}`` plus the unfolded value under key ``None``,
    and asserts the pathwise monotonicity: shrinking the period through the
    (ascending) list can only merge sites and so increase I(T), and every
    folding dominates the unfolded walk.  Periods must be >= 3 (unique
    unfolding regime for nearest-neighbour walks).
    """
    out = {None: sample.I_T}
    for p in periods:
        p = int(p)
        if p < 3:
            raise ValueError("folding comparisons need period >= 3")
        folded = np.mod(sample.sites, p)
        out[p] = intersection_local_time(folded, sample.gaps)
    ps = sorted(int(p) for p in periods)
    tol = 1e-12 * (1.0 + sample.I_T)
    # explicit raises, not assert, so the check survives python -O
    for small, big in zip(ps, ps[1:]):
        if big % small == 0 and out[small] < out[big] - tol:
            raise AssertionError("folding monotonicity failed")
    for p in ps:
        if out[p] < sample.I_T - tol:
            raise AssertionError("folded walk lost intersections")
    return out


# ---------------------------------------------------------------------------
# Vectorized block sampling
# ---------------------------------------------------------------------------

def _row_sorted(nblock, vowner, cols, x):
    """Sort ``x`` within each walk: one ``inf``-padded row per walk."""
    table = np.full((nblock, cols.max() + 1), np.inf)
    table[vowner, cols] = x
    table.sort(axis=1)
    return table[vowner, cols]


def _block_intersections(spec, T, rng, nblock, g=0.0, nu=None):
    """I(T) for a block of walks, or with ``nu`` each walk's Laplace integral.

    Jump counts are Poisson(2dT); conditionally the jump times are sorted
    uniforms and steps are uniform neighbours.  Visits sit in walk order,
    and ``cols`` places each in a padded ``(walk, visit)`` table, where the
    times are sorted and the Laplace prefix sums taken row by row.  Local
    times are grouped by packing (sample, site) into one int64 key.
    Returns shape ``(nblock,)``: ``I(T)``, or with ``nu`` given
    ``int_0^T e^{-nu t - g I(t)} dt``.
    """
    if spec.geometry == "graph":
        raise ValueError("walks run on window or torus geometry")
    d = spec.d
    N = rng.poisson(2 * d * T, size=nblock)
    # visits: one origin visit per sample plus one per jump
    nv = int(N.sum()) + nblock
    visit_starts = np.concatenate([[0], np.cumsum(N[:-1] + 1)])
    vowner = np.repeat(np.arange(nblock), N + 1)
    cols = np.arange(nv) - np.repeat(visit_starts, N + 1)
    jumps = np.flatnonzero(cols)   # all but starts
    vtimes = np.zeros(nv)     # time at which the visit starts
    vtimes[jumps] = rng.random(nv - nblock) * T
    vtimes = _row_sorted(nblock, vowner, cols, vtimes)
    # end of each residence interval: the next visit's start, or T
    next_t = np.append(vtimes[1:], T)
    next_t[visit_starts + N] = T
    gaps = next_t - vtimes
    if nu is not None and g == 0:
        return np.bincount(vowner, np.exp(-nu * vtimes)
                           * -np.expm1(-nu * gaps) / nu, nblock)

    dirs = rng.integers(0, 2 * d, size=nv - nblock)
    vpos = np.zeros((nv, d), dtype=np.int64)
    vpos[jumps, dirs >> 1] = 1 - 2 * (dirs & 1)
    vpos = np.cumsum(vpos, axis=0)
    vpos -= np.repeat(vpos[visit_starts], N + 1, axis=0)
    if spec.geometry == "torus":
        vpos = np.mod(vpos, spec.period)

    # pack (sample, site) into one int64
    cmax = int(np.abs(vpos).max()) + 1
    side = 2 * cmax + 1
    if side**d * nblock > 2**62:
        raise OverflowError("site key would overflow; reduce T or block size")
    key = vowner.astype(np.int64)
    for ax in range(d):
        key = key * side + (vpos[:, ax] + cmax)
    sorter = np.argsort(key, kind="stable")
    skey = key[sorter]
    sgaps = gaps[sorter]
    seg = np.concatenate([[0], np.flatnonzero(skey[1:] != skey[:-1]) + 1])
    if nu is None:
        lt = np.add.reduceat(sgaps, seg)
        return np.bincount(vowner[sorter][seg], lt * lt, nblock)
    # prefix sums over a walk's earlier entries, one padded row per walk, so
    # roundoff scales with one walk's total rather than the block's
    table = np.zeros((nblock, cols.max() + 2))

    def walk_prefix(x):
        table[vowner, cols + 1] = x
        return np.cumsum(table, axis=1)[vowner, cols]

    # the site's local time before each visit, then I(t) at its start
    c = walk_prefix(sgaps)
    ell = np.empty(nv)
    ell[sorter] = c - np.repeat(c[seg], np.diff(np.append(seg, nv)))
    I_s = walk_prefix((2.0 * ell + gaps) * gaps)
    return np.bincount(vowner, _gaussian_pieces(g, nu, vtimes, gaps, ell, I_s),
                       nblock)


def _gaussian_pieces(g, nu, s, gap, ell, I_s):
    """``int_s^{s+gap} e^{-nu t - g I(t)} dt``, ``I(t) = I_s + 2 ell u + u^2``.

    With ``u = t - s``, ``x = sqrt(g) (ell + nu/2g)`` and ``y = x + sqrt(g)
    gap`` it is ``sqrt(pi/g)/2 e^{-nu s - g I_s + x^2} (erfc(x) - erfc(y))``
    for g > 0, formed about ``m``, the point of ``[x, y]`` nearest 0 where
    the integrand peaks: ``e^{m^2} (erfc(x) - erfc(y))`` lies in ``[0, 2]``,
    so no factor overflows where the integral is finite.
    """
    x = math.sqrt(g) * (ell + nu / (2.0 * g))
    w = math.sqrt(g) * gap
    y = x + w
    # erfc(x) - erfc(y) = erfc(-y) - erfc(-x): take the pair p <= q, p + q >= 0
    flip = x + y < 0.0
    p, q = np.where(flip, -y, x), np.where(flip, -x, y)
    inside = p < 0.0          # then m = 0, else m = p and p^2 - q^2 = -w(p+q)
    peaked = np.where(inside, erfc(p), erfcx(p)) \
        - np.exp(np.where(inside, -q * q, -w * (p + q))) * erfcx(q)
    shift = np.where(inside, x * x, np.where(flip, w * (p + q), 0.0))
    return (0.5 * math.sqrt(math.pi / g)) \
        * np.exp(-nu * s - g * I_s + shift) * peaked


def _walk_stream(spec, T, n, seed, **laplace):
    """Yield :func:`_block_intersections` for each block of n walks."""
    for b, start in enumerate(range(0, n, BLOCK_SIZE)):
        nb = min(BLOCK_SIZE, n - start)
        yield _block_intersections(spec, T, block_rng(seed, b), nb, **laplace)


def estimate_cT(spec: LatticeSpec, g: float, T: float, n: int, seed: int = 0) -> Estimate:
    """Monte Carlo estimate of ``c_T = E exp(-g I(T))``."""
    if g < 0:
        raise ValueError("g must be >= 0")
    mean, se, count = _chan_stream(
        np.exp(-g * I) for I in _walk_stream(spec, T, n, seed))
    return Estimate(mean=float(mean), std_error=float(se), n_samples=count,
                    seed=seed)


def estimate_mean_intersection(spec: LatticeSpec, T: float, n: int,
                               seed: int = 0) -> Estimate:
    """Monte Carlo estimate of E I(T)."""
    mean, se, count = _chan_stream(_walk_stream(spec, T, n, seed))
    return Estimate(mean=float(mean), std_error=float(se), n_samples=count,
                    seed=seed)


# ---------------------------------------------------------------------------
# Laplace transform (susceptibility)
# ---------------------------------------------------------------------------

def susceptibility_mc(spec: LatticeSpec, g: float, nu: float, T_max: float,
                      n: int, seed: int = 0) -> LaplaceEstimate:
    """chi(g, nu) ~= int_0^T_max c_T e^{-nu T} dT from one stream of n walks.

    ``I(t)`` is piecewise quadratic along a walk, so each walk's
    ``int_0^T_max e^{-nu t - g I(t)} dt`` is exact (``quadrature_error`` is
    0) and the standard error is taken across walks.  The neglected tail is
    bounded and reported: by ``e^{-nu T_max}/nu`` as ``c_T <= 1`` (nu > 0),
    or on a torus with g > 0, where ``I(T) >= T^2/|V|`` over its ``|V|``
    sites, by ``int_T_max^inf e^{-nu T - g T^2/|V|} dT`` for every nu.
    Otherwise nu <= 0 (near-critical, out of Monte Carlo reach) is rejected.
    """
    if spec.geometry == "torus" and g > 0:
        ra = math.sqrt(g / spec.period**spec.d)
        tail = 0.5 * math.sqrt(math.pi) / ra \
            * float(erfcx(ra * T_max + nu / (2.0 * ra))) \
            * math.exp(-(ra * T_max) ** 2 - nu * T_max)
    elif nu > 0 and g >= 0:
        tail = math.exp(-nu * T_max) / nu
    else:
        raise ValueError("susceptibility_mc requires g >= 0 and nu > 0, or "
                         "a torus with g > 0 (unverifiable truncation "
                         "otherwise)")
    mean, se, count = _chan_stream(_walk_stream(spec, T_max, n, seed,
                                                 g=g, nu=nu))
    return LaplaceEstimate(mean=float(mean), std_error=float(se),
                           n_samples=count, seed=seed, truncation_bound=tail)


# ---------------------------------------------------------------------------
# Conditioned intersection local time
# ---------------------------------------------------------------------------

def conditioned_intersection(T: float, n: int, n_samples: int,
                             seed: int = 0) -> Estimate:
    """E(I(T) | n jumps, path self-avoiding) by direct gap sampling.

    Conditionally on the number of jumps, jump times are i.i.d. uniform on
    [0, T]; on the self-avoiding event every site is visited once, so
    I(T) is the sum of squared gaps.  The exact value is 2T^2/(n+2).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n_samples < 2:
        raise ValueError(f"{n_samples} samples give no standard error; need >= 2")
    if n == 0:
        return Estimate(mean=T * T, std_error=0.0, n_samples=n_samples, seed=seed)
    per_block = max(1, BLOCK_SIZE // n)

    def blocks():
        for b, start in enumerate(range(0, n_samples, per_block)):
            nb = min(per_block, n_samples - start)
            u = np.sort(block_rng(seed, b).random((nb, n)) * T, axis=1)
            bounds = np.concatenate([np.zeros((nb, 1)), u,
                                     np.full((nb, 1), T)], axis=1)
            yield (np.diff(bounds, axis=1) ** 2).sum(axis=1)

    mean, se, count = _chan_stream(blocks())
    return Estimate(mean=float(mean), std_error=float(se), n_samples=count,
                    seed=seed)


# ---------------------------------------------------------------------------
# Strictly self-avoiding walk counts
# ---------------------------------------------------------------------------

def saw_counts(d: int, n_max: int):
    """Exact counts s_n of n-step strictly self-avoiding walks, n = 1..n_max.

    Pure-Python backtracking over one symmetry class: walks whose first step
    is ``+e_1`` and whose first off-axis step is ``+e_2``, seeded with the
    prefixes ``+e_1^k, +e_2``.  With ``a_n`` such walks,
    ``s_n = 2d (1 + 2(d-1) a_n)``, the 1 being the straight walk.  The cost
    grows about (2d-1)-fold per step; the budget caps n_max at 64, 17, 12
    and 10 for d = 1, 2, 3, 4, so that the largest allowed call takes a
    few seconds (one step more takes 8-12 s); larger requests raise.
    """
    if not 1 <= d <= 4:
        raise ValueError("d must be in 1..4")
    budget = {1: 64, 2: 17, 3: 12, 4: 10}[d]
    if n_max > budget:
        raise ValueError(f"enumeration budget exceeded: n_max <= {budget} for d={d}")
    if d == 1:
        return [2] * n_max
    # a site is one int: its coordinates, all in [-n_max, n_max], are its
    # balanced digits in base 2 n_max + 1
    base = 2 * n_max + 1
    steps = [s * base**ax for ax in range(d) for s in (1, -1)]
    counts = [0] * (n_max + 1)

    def extend(pos, depth):
        for e in steps:
            nxt = pos + e
            if nxt in visited:
                continue
            counts[depth] += 1
            if depth < n_max:
                visited.add(nxt)
                extend(nxt, depth + 1)
                visited.remove(nxt)

    for k in range(1, n_max):
        turn = k + base
        visited = set(range(k + 1)) | {turn}
        counts[k + 1] += 1
        if k + 1 < n_max:
            extend(turn, k + 2)
    return [2 * d * (1 + 2 * (d - 1) * a) for a in counts[1:]]


# ---------------------------------------------------------------------------
# Jensen bound
# ---------------------------------------------------------------------------

def jensen_bound_check(g: float, T: float, n: int, seed: int = 0) -> JensenReport:
    """Check E I(T) <= 2 T C_0(0) and c_T >= exp(-g E I(T)) at d = 4.

    Both means come from one pass over the same n walks.
    """
    spec = LatticeSpec.window(4)
    (mean_I, c_hat), (se_I, se_c), _ = _chan_stream(
        np.stack([I, np.exp(-g * I)]) for I in _walk_stream(spec, T, n, seed))
    mean_I, c_hat, se_I, se_c = map(float, (mean_I, c_hat, se_I, se_c))
    bound = T * constant_a()  # = 2 T C_0(0)
    floor = math.exp(-g * mean_I)
    return JensenReport(
        mean_I=mean_I, se_I=se_I, upper_bound=bound,
        c_T_hat=c_hat, se_c_T=se_c, jensen_floor=floor,
        bound_satisfied=mean_I <= bound + 3.0 * se_I,
        jensen_satisfied=c_hat >= floor - 3.0 * se_c,
    )

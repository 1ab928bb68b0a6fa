"""Feedback laws on the descriptor system and their reduced counterparts.

Any admissible full-state feedback u = F x (closed loop regular,
impulse-free, finite spectrum stable) collapses to a reduced law
u = F_red x1 on the dynamic state via

    F_red = F (I + X2 B2 F)^{-1} X1,

and conversely every F with ``F S = F_red``, ``S = X1 - X2 B2 F_red``,
produces the same closed-loop trajectories and costs: full-state
equilibria are informationally non-unique.  This module implements the
admissibility test, the reduction and its preimage (membership test and
seeded sampling), exact closed-loop simulation in blocks of steps, feedback
recovery from trajectories, and the trajectory CSV (exact ``%.17g``, CRLF).
Simulation yields its samples in blocks of rows as they are computed, and
the CSV writer formats each block as it arrives, so a simulation streamed
to a file (``dgame simulate``) holds a few blocks in memory at any horizon.
"""
from __future__ import annotations

import functools
import itertools
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .game import DescriptorGame, ReducedGame, reduce_game
from .linalg import is_stable, sorted_spectrum

__all__ = [
    "FeedbackProfile",
    "ReducedFeedback",
    "Admissibility",
    "Trajectory",
    "FitResult",
    "UnstableLoopError",
    "is_admissible",
    "reduce_feedback",
    "preimage_matrix",
    "preimage_member",
    "preimage_sample",
    "simulate",
    "simulate_blocks",
    "fit_feedback",
    "write_trajectory_csv",
    "read_trajectory_csv",
]

# rows per simulated block and formatted write, which bound the working
# arrays (about 0.5 kB per value), and closed-loop steps per propagation
# product; the first must be a multiple of the second (see _propagate)
_ROWS_PER_WRITE, _STEPS_PER_BLOCK = 256, 64


class UnstableLoopError(ValueError):
    """Requested closed loop is not admissible (unstable or impulsive)."""


@dataclass(frozen=True)
class FeedbackProfile:
    """Per-player full-state gains; f[i] is m_i x n."""

    f: tuple[np.ndarray, ...]

    def __post_init__(self):
        fs = tuple(np.atleast_2d(np.asarray(fi, dtype=float)) for fi in self.f)
        if not fs:
            raise ValueError("feedback profile needs at least one player")
        n = fs[0].shape[1]
        if any(fi.shape[1] != n for fi in fs):
            raise ValueError("all player gains must share the state dimension")
        object.__setattr__(self, "f", fs)

    @classmethod
    def from_stacked(cls, stacked: np.ndarray, input_dims) -> "FeedbackProfile":
        stacked = np.atleast_2d(np.asarray(stacked, dtype=float))
        if stacked.shape[0] != sum(input_dims):
            raise ValueError("stacked gain rows do not match input dimensions")
        offs = np.cumsum([0, *input_dims])
        return cls(tuple(stacked[offs[i]:offs[i + 1]] for i in range(len(input_dims))))

    @property
    def stacked(self) -> np.ndarray:
        return np.vstack(self.f)

    @property
    def input_dims(self) -> tuple[int, ...]:
        return tuple(fi.shape[0] for fi in self.f)

    @property
    def n(self) -> int:
        return self.f[0].shape[1]


@dataclass(frozen=True)
class ReducedFeedback:
    """Stacked reduced gains (m x r) with the per-player row split."""

    matrix: np.ndarray
    input_dims: tuple[int, ...]

    def __post_init__(self):
        mtx = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if mtx.shape[0] != sum(self.input_dims):
            raise ValueError("reduced gain rows do not match input dimensions")
        object.__setattr__(self, "matrix", mtx)
        object.__setattr__(self, "input_dims", tuple(int(d) for d in self.input_dims))


@dataclass(frozen=True)
class Admissibility:
    """Outcome of the admissibility test with the failed condition named."""

    ok: bool
    reason: str
    spectrum: np.ndarray | None = None

    def __bool__(self) -> bool:
        return self.ok


def _index_preserving_block(rg: ReducedGame, f_stacked: np.ndarray) -> np.ndarray:
    """The (n-r) x (n-r) block whose invertibility keeps the loop impulse-free."""
    k = rg.n - rg.r
    return np.eye(k) + rg.b2_stacked @ f_stacked @ rg.w.x2


def is_admissible(g: DescriptorGame | ReducedGame, f: FeedbackProfile) -> Admissibility:
    """Check that (E, A + B F) stays regular and impulse-free with a stable
    finite spectrum; the diagnostics name whichever condition failed."""
    rg = g if isinstance(g, ReducedGame) else reduce_game(g)
    f_stacked = f.stacked
    if f_stacked.shape != (rg.m, rg.n):
        raise ValueError(f"feedback must be {rg.m}x{rg.n}")
    w_blk = _index_preserving_block(rg, f_stacked)
    if w_blk.shape[0]:
        s = np.linalg.svd(w_blk, compute_uv=False)
        if s[-1] <= 1e-10 * max(1.0, s[0]):
            return Admissibility(False, "index raised: closed loop is not impulse-free")
    f_red = _reduce_stacked(rg, f_stacked)
    a_cl = rg.closed_loop(f_red)
    spec = sorted_spectrum(np.linalg.eigvals(a_cl))
    if not is_stable(a_cl):
        return Admissibility(False, "closed-loop finite spectrum is not stable", spec)
    return Admissibility(True, "admissible", spec)


def _reduce_stacked(rg: ReducedGame, f_stacked: np.ndarray) -> np.ndarray:
    w_big = np.eye(rg.n) + rg.w.x2 @ rg.b2_stacked @ f_stacked
    try:
        return f_stacked @ np.linalg.solve(w_big, rg.w.x1)
    except np.linalg.LinAlgError as exc:
        raise UnstableLoopError("feedback is not index-preserving") from exc


def reduce_feedback(g: DescriptorGame | ReducedGame, f: FeedbackProfile) -> ReducedFeedback:
    """Project an admissible full-state feedback onto the dynamic state:
    ``F_red = F (I + X2 B2 F)^{-1} X1``.

    The spectrum of ``J + B1 F_red`` coincides with the finite spectrum of
    the full closed-loop pencil.
    """
    rg = g if isinstance(g, ReducedGame) else reduce_game(g)
    adm = is_admissible(rg, f)
    if not adm.ok:
        raise UnstableLoopError(adm.reason)
    return ReducedFeedback(_reduce_stacked(rg, f.stacked), rg.input_dims)


def preimage_matrix(rg: ReducedGame, f_red: ReducedFeedback) -> np.ndarray:
    """The n x r map S = X1 - X2 B2 F_red sending reduced initial states to
    consistent full initial states of the closed loop."""
    return rg.w.x1 - rg.w.x2 @ rg.b2_stacked @ f_red.matrix


def preimage_member(g: DescriptorGame | ReducedGame, f_red: ReducedFeedback,
                    f: FeedbackProfile) -> bool:
    """True iff ``f`` is admissible and ``F S = F_red`` to ``1e-8`` relative
    (max-norm), i.e. ``f`` reproduces the closed-loop behavior of ``f_red``."""
    rg = g if isinstance(g, ReducedGame) else reduce_game(g)
    if not is_admissible(rg, f).ok:
        return False
    s = preimage_matrix(rg, f_red)
    gap = np.abs(f.stacked @ s - f_red.matrix).max(initial=0.0)
    return bool(gap <= 1e-8 * (1.0 + np.abs(f_red.matrix).max(initial=0.0)))


def preimage_sample(g: DescriptorGame | ReducedGame, f_red: ReducedFeedback,
                    seed: int | None = None) -> FeedbackProfile:
    """A full-state feedback realizing ``f_red``.

    Returns the minimum-norm solution of the underdetermined system
    ``F S = F_red`` when ``seed`` is None, otherwise adds a seeded random
    component from the kernel of S' (rows may vary freely there without
    changing the behavior).  The sample is always validated; up to 50
    random draws are tried, then the minimum-norm solution.
    """
    rg = g if isinstance(g, ReducedGame) else reduce_game(g)
    if not is_stable(rg.closed_loop(f_red.matrix)):
        raise UnstableLoopError("reduced feedback does not stabilize the game")
    s = preimage_matrix(rg, f_red)
    s_pinv = np.linalg.pinv(s)
    f_min = f_red.matrix @ s_pinv
    ker_proj = np.eye(rg.n) - s @ s_pinv
    candidates = []
    if seed is None:
        candidates.append(f_min)
    else:
        rng = np.random.default_rng(seed)
        for _ in range(50):
            candidates.append(f_min + rng.standard_normal((rg.m, rg.n)) @ ker_proj)
        candidates.append(f_min)
    for cand in candidates:
        profile = FeedbackProfile.from_stacked(cand, rg.input_dims)
        if preimage_member(rg, f_red, profile):
            return profile
    raise UnstableLoopError(
        "no admissible preimage member found after 50 tries"
    )


@dataclass(frozen=True)
class Trajectory:
    """Closed-loop samples: times (k,), states x (k, n), inputs u (k, m)."""

    times: np.ndarray
    x: np.ndarray
    u: np.ndarray
    input_dims: tuple[int, ...] | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float).reshape(-1)
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        u = np.atleast_2d(np.asarray(self.u, dtype=float))
        if not (len(t) == x.shape[0] == u.shape[0]):
            raise ValueError("times, x and u must have equal sample counts")
        if len(t) > 1 and np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u", u)


def simulate(g: DescriptorGame | ReducedGame,
             f: FeedbackProfile | ReducedFeedback,
             x1_0: np.ndarray, horizon: float, dt: float) -> Trajectory:
    """Simulate the closed loop from the consistent lift of ``x1_0``: the
    samples of :func:`simulate_blocks`, joined."""
    rg = g if isinstance(g, ReducedGame) else reduce_game(g)
    times, x, u = (np.concatenate(c) for c in zip(*simulate_blocks(rg, f, x1_0, horizon, dt)))
    return Trajectory(times=times, x=x, u=u, input_dims=rg.input_dims)


def simulate_blocks(g: DescriptorGame | ReducedGame,
                    f: FeedbackProfile | ReducedFeedback,
                    x1_0: np.ndarray, horizon: float,
                    dt: float) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The closed-loop samples from the consistent lift of ``x1_0`` at
    ``t_k = k dt``, ``k = 0 .. round(horizon / dt)``, as ``(t, x, u)``
    blocks of ``_ROWS_PER_WRITE`` rows (the last one shorter, or one row
    longer), each computed when it is asked for, so memory does not grow
    with the horizon.  The arguments are checked on the call, before any
    block is computed.

    The reduced state is propagated exactly with the matrix exponential
    over uniform steps (the loop is LTI, so there is no integration
    error to tune), by stacked powers of ``expm(A_cl dt)``, one product per
    ``_STEPS_PER_BLOCK`` steps; then ``x = X1 x1 + X2 x2``, ``x2 = -B2 u``.
    """
    rg = g if isinstance(g, ReducedGame) else reduce_game(g)
    if isinstance(f, FeedbackProfile):
        f_red = reduce_feedback(rg, f)
    else:
        f_red = f
    a_cl = rg.closed_loop(f_red.matrix)
    if not is_stable(a_cl):
        raise UnstableLoopError("closed loop is unstable")
    x1_0 = np.asarray(x1_0, dtype=float).reshape(-1)
    if x1_0.size != rg.r:
        raise ValueError(f"x1_0 must have length r={rg.r}")
    if not (0 < dt < np.inf and 0 <= horizon < np.inf and horizon / dt < np.inf):
        raise ValueError("need a finite dt > 0 and a finite horizon >= 0, "
                         "with a finite horizon / dt")
    steps = int(round(horizon / dt))
    phi = sla.expm(a_cl * dt)
    powers = [phi]
    while len(powers) < min(steps, _STEPS_PER_BLOCK):
        powers.append(phi @ powers[-1])
    return _propagate(np.vstack(powers), preimage_matrix(rg, f_red), f_red.matrix,
                      x1_0, steps, dt)


def _propagate(powers, s, f_red, x1_0, steps, dt):
    """The generator behind :func:`simulate_blocks`.  Each block's rows
    start on a multiple of ``_STEPS_PER_BLOCK`` (``_ROWS_PER_WRITE`` is
    one), so its propagation products start from the same states, and its
    products with ``S'`` and ``F_red'`` give the same bits, as those over
    the whole horizon at once.  A lone last row stays with the block
    before it: a one-row product runs as a matrix-vector product, whose
    bits differ from a row of a matrix product's."""
    r = x1_0.size
    x1 = np.empty((_ROWS_PER_WRITE + 1, r))  # a block's states and the next one's first
    x1[0] = x1_0
    for lo in range(0, steps + 1, _ROWS_PER_WRITE):
        rows = steps + 1 - lo
        if rows > _ROWS_PER_WRITE + 1:
            rows = _ROWS_PER_WRITE
        for j in range(0, min(_ROWS_PER_WRITE, steps - lo), _STEPS_PER_BLOCK):
            ahead = (powers[:(steps - lo - j) * r] @ x1[j]).reshape(-1, r)
            x1[j + 1:j + 1 + len(ahead)] = ahead
        yield np.arange(lo, lo + rows) * dt, x1[:rows] @ s.T, x1[:rows] @ f_red.T
        if lo + rows > steps:
            return
        x1[0] = x1[_ROWS_PER_WRITE]


@dataclass(frozen=True)
class FitResult:
    """Least-squares feedback fit plus rank diagnostics."""

    profile: FeedbackProfile
    rank: int
    rank_deficient: bool
    residual: float


def fit_feedback(traj: Trajectory, input_dims=None) -> FitResult:
    """Recover a feedback matrix from trajectory samples.

    Solves ``min_F sum_k |u(t_k) - F x(t_k)|^2`` and returns the
    minimum-Frobenius-norm minimizer.  Closed-loop descriptor data
    confines the states to an r-dimensional subspace, in which case the
    sample matrix is rank deficient, the flag is set, and the returned F
    is merely one representative of the behavioral class (validate with
    :func:`preimage_member` rather than entrywise comparison).
    """
    x, u = traj.x, traj.u
    n = x.shape[1]
    if x.shape[0] < n:
        raise ValueError(f"need at least n={n} samples to fit a feedback")
    scale = np.abs(x).max(initial=0.0)
    if scale == 0.0:
        raise ValueError("degenerate trajectory: all states are zero")
    ft, residual_sq, rank, _ = np.linalg.lstsq(x, u, rcond=None)
    f_stacked = ft.T
    resid = float(np.sqrt(np.sum((x @ ft - u) ** 2)))
    dims = input_dims if input_dims is not None else traj.input_dims
    if dims is None:
        dims = (u.shape[1],)
    return FitResult(
        profile=FeedbackProfile.from_stacked(f_stacked, dims),
        rank=int(rank),
        rank_deficient=bool(rank < n),
        residual=resid,
    )


@functools.cache
def _tables() -> dict:
    """The ``'%.17g'`` tables, built on first use: 10**p (p = -300..300)
    as the double-double ``hi + lo`` and as the least double >= 10**p, the
    ASCII "d.d.d.d." and last nonzero place of each 4-digit group, the
    exponent bytes "sddd" of each decade, and the keep masks."""
    hi, lo = [], []
    for p in range(-300, 301):
        num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        hn, hd = (num / den).as_integer_ratio()
        hi.append(num / den)
        lo.append((num * hd - hn * den) / (den * hd))
    hi, lo = np.array(hi), np.array(lo)
    digits = np.arange(10000, dtype=np.int16)[:, None] // np.int16([1000, 100, 10, 1]) % 10
    digits = digits.astype(np.uint8)
    pairs = np.stack([digits + 48, np.full_like(digits, 46)], -1)
    dec = np.arange(-300, 301)[:, None]
    exponent = np.hstack([np.where(dec < 0, 45, 43), np.abs(dec) // [100, 10, 1] % 10 + 48])
    # keep[layout, digits - 1, negative, terminator bytes - 1, byte]; layout
    # d + 4 prints decade d = -4..16 in fixed point, 21 (22) a 2 (3)-digit exponent
    lay, nsig, i = np.ogrid[:23, 1:18, :17]
    fixed, d = lay < 21, lay - 4
    cols = [fixed & (d < 0), fixed & (d < 0), fixed & (np.arange(3) < -d - 1),
            np.stack([(i < nsig) | (fixed & (i <= d)),
                      np.where(fixed, (i == d) & (nsig > d + 1), (i == 0) & (nsig > 1))],
                     -1).reshape(23, 17, 34), ~fixed, ~fixed, lay == 22, ~fixed, ~fixed]
    keep = np.zeros((23, 17, 2, 2, 47), bool)
    keep[..., 1:45] = np.concatenate(
        [np.broadcast_to(c, (23, 17, c.shape[-1])) for c in cols], -1)[:, :, None, None]
    keep[:, :, 1, :, 0] = keep[..., 45] = keep[:, :, :, 1, 46] = True
    return dict(hi=hi, lo=lo, ceil=np.where(lo > 0, np.nextafter(hi, np.inf), hi),
                pairs=pairs.reshape(10000, 8).view(np.uint64).ravel(),
                last=np.max((digits > 0) * np.arange(1, 5, dtype=np.uint8), axis=1),
                exponent=exponent.astype(np.uint8).view(np.uint32).ravel(),
                keep=keep.reshape(-1, 47))


def _format_rows(values, fh, line_end: str) -> None:
    """Write the rows of ``values`` (float columns or column blocks of one
    length, side by side) to the text stream ``fh``, each exactly as
    ``",".join("%.17g" % v for v in row) + line_end``, in blocks of
    ``_ROWS_PER_WRITE`` rows (see :func:`_format_blocks`)."""
    _format_blocks(_row_blocks(values), fh, line_end)


def _row_blocks(values):
    """``values`` (columns or column blocks of one length) as lists of
    their slices of ``_ROWS_PER_WRITE`` rows."""
    return ([v[lo:lo + _ROWS_PER_WRITE] for v in values]
            for lo in range(0, len(values[0]), _ROWS_PER_WRITE))


def _format_blocks(blocks, fh, line_end: str) -> None:
    """Write each block of ``blocks`` (a list of float columns or column
    blocks of one length, side by side, every block alike) to ``fh`` as it
    arrives, as :func:`_format_rows` does.
    A value's digits are |x| 10**(16 - d) rounded, d its exact decade, from
    a Dekker product with the double-double 10**(16 - d); its layout class's
    keep mask selects its text from a superset row (sign, "0.000", 17 digits
    each followed by ".", "e+ddd", terminator) by zeroing the other bytes,
    none of which is kept NUL.  Zero (and -0) takes decade 0's layout with
    the one digit 0.  ``%`` itself prints non-finite and out-of-range
    values, near-ties and decade round-ups."""
    # superset row bytes: 0 sign, 1-5 "0.000", 6 + 2i digit i and 7 + 2i
    # its ".", 40-44 "e+ddd", 45-46 terminator; table row p + 300 is 10**p
    blocks = iter(blocks)
    first = next(blocks, None)
    if first is None:
        return
    t = _tables()
    ncols = np.column_stack([v[:1] for v in first]).shape[1]
    template = np.tile(np.frombuffer(b"-0.000" + b"0." * 17 + b"e+000,?", np.uint8), (ncols, 1))
    template[-1, 45:45 + len(line_end)] = np.frombuffer(line_end.encode(), np.uint8)
    tail = (np.arange(ncols) == ncols - 1) * (len(line_end) - 1)
    fmt = ",".join(["%.17g"] * ncols)
    # rows of the template, whose digit and exponent bytes (6, 8-39, 41-44)
    # each block rewrites, and of the masked text; as long as the longest block
    filled = masked = template[None][:0]
    for cols in itertools.chain([first], blocks):
        block = np.column_stack(cols)
        if len(block) > len(filled):
            filled = np.tile(template, (len(block), 1, 1))
            masked = np.empty_like(filled)
        ok = (np.abs(block) >= 1e-280) & (np.abs(block) < 1e280)
        a = np.where(ok, np.abs(block), 1.0)
        dec = np.floor((np.frexp(a)[1] - 1) * np.log10(2.0)).astype(np.intp)
        dec += a >= t["ceil"][dec + 301]
        hi, dlo = t["hi"][316 - dec], t["lo"][316 - dec]
        s, ca, ch = a * hi, 134217729.0 * a, 134217729.0 * hi
        ah, hh = ca - (ca - a), ch - (ch - hi)
        al, hl = a - ah, hi - hh
        e = ((ah * hh - s) + ah * hl + al * hh) + al * hl + a * dlo  # a 10**p - s
        big = s.astype(np.int64) + np.floor(e + 0.5).astype(np.int64)
        zero = block == 0.0
        if zero.any():
            big[zero] = 0
            ok |= zero
        bad = ~ok | (np.abs(e - np.floor(e) - 0.5) < 1e-9) | (big == 10 ** 17)
        head = big // 10 ** 8
        top = head // 10 ** 8
        mid, low = head - top * 10 ** 8, big - head * 10 ** 8
        g1, g3 = mid // 10 ** 4, low // 10 ** 4
        g2, g4 = mid - g1 * 10 ** 4, low - g3 * 10 ** 4
        nsig = np.where(low, 9 + np.where(g4, 4 + t["last"][g4], t["last"][g3]),
                        1 + np.where(g2, 4 + t["last"][g2], t["last"][g1]))
        lay = np.where((dec >= -4) & (dec <= 16), dec + 4, 21 + (np.abs(dec) >= 100))
        keep = t["keep"].take(((lay * 17 + nsig - 1) * 2 + np.signbit(block)) * 2 + tail, axis=0)
        buf = filled[:len(block)]
        buf[..., 6] = top + 48
        buf[..., 8:40] = t["pairs"][np.stack([g1, g2, g3, g4], -1)].view(np.uint8).reshape(
            block.shape + (32,))
        buf[..., 41:45] = t["exponent"][dec + 300].view(np.uint8).reshape(block.shape + (4,))
        del a, hi, dlo, s, ca, ch, ah, hh, al, hl, e, head, mid, low, g1, g2, g3, g4
        out = np.multiply(buf, keep, out=masked[:len(block)])
        text = out.tobytes().translate(None, b"\0").decode("ascii")
        if bad.any():  # a row's text, right or not, holds no line end
            rows = text.split(line_end)
            for k in np.flatnonzero(bad.any(axis=1)):
                rows[k] = fmt % tuple(block[k].tolist())
            text = line_end.join(rows)
        fh.write(text)


def _write_csv(fh, n: int, m: int, blocks) -> None:
    """The trajectory CSV of ``(t, x, u)`` blocks, written to ``fh`` block
    by block: a ``t,x1..xn,u1..um`` header, then the rows."""
    header = ["t"] + [f"x{i+1}" for i in range(n)] + [f"u{i+1}" for i in range(m)]
    fh.write(",".join(header) + "\r\n")
    _format_blocks(blocks, fh, "\r\n")


def write_trajectory_csv(traj: Trajectory, path_or_file) -> None:
    """Write samples as ``t,x1..xn,u1..um`` rows, each value exactly as
    ``'%.17g'`` prints it, and CRLF line ends (as ``csv.writer`` ends them)."""
    n, m = traj.x.shape[1], traj.u.shape[1]
    blocks = _row_blocks([traj.times, traj.x, traj.u])
    if hasattr(path_or_file, "write"):
        _write_csv(path_or_file, n, m, blocks)
    else:
        with open(path_or_file, "w", newline="") as fh:
            _write_csv(fh, n, m, blocks)


def read_trajectory_csv(path, input_dims=None) -> Trajectory:
    """Read a trajectory written by :func:`write_trajectory_csv`."""
    with open(path) as fh:
        header = fh.readline().split(",")
        n = sum(1 for h in header if h.startswith("x"))
        m = sum(1 for h in header if h.startswith("u"))
        with warnings.catch_warnings():
            # an empty body is the "no samples" error below, not a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
    if data.size == 0:
        raise ValueError(f"no samples in {path}")
    return Trajectory(
        times=data[:, 0],
        x=data[:, 1:1 + n],
        u=data[:, 1 + n:1 + n + m],
        input_dims=tuple(input_dims) if input_dims is not None else None,
    )

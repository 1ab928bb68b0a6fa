"""Feedback laws on the descriptor system and their reduced counterparts.

Any admissible full-state feedback u = F x (closed loop regular,
impulse-free, finite spectrum stable) collapses to a reduced law
u = F_red x1 on the dynamic state via

    F_red = F (I + X2 B2 F)^{-1} X1,

and conversely every F with ``F S = F_red``, ``S = X1 - X2 B2 F_red``,
produces the same closed-loop trajectories and costs: full-state
equilibria are informationally non-unique.  This module implements the
admissibility test, the reduction and its preimage (membership test and
seeded sampling), exact closed-loop simulation, least-squares recovery of
feedback matrices from trajectories, and the trajectory CSV format.
"""
from __future__ import annotations

import warnings
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
    "fit_feedback",
    "write_trajectory_csv",
    "read_trajectory_csv",
]


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

    def player(self, i: int) -> np.ndarray:
        o = int(np.sum(self.input_dims[:i]))
        return self.matrix[o:o + self.input_dims[i]]

    @property
    def r(self) -> int:
        return self.matrix.shape[1]


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
    """Simulate the closed loop from the consistent lift of ``x1_0``.

    The reduced state is propagated exactly with the matrix exponential
    over uniform steps (the loop is LTI, so there is no integration
    error to tune); the full state follows as ``x = X1 x1 + X2 x2`` with
    the algebraic part ``x2 = -B2 u``.
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
    if dt <= 0 or horizon < 0:
        raise ValueError("need dt > 0 and horizon >= 0")
    steps = int(round(horizon / dt))
    phi = sla.expm(a_cl * dt)
    s = preimage_matrix(rg, f_red)
    times = np.arange(steps + 1) * dt
    x1 = np.empty((steps + 1, rg.r))
    x1[0] = x1_0
    for k in range(steps):
        x1[k + 1] = phi @ x1[k]
    u = x1 @ f_red.matrix.T
    x = x1 @ s.T
    return Trajectory(times=times, x=x, u=u, input_dims=rg.input_dims)


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


def write_trajectory_csv(traj: Trajectory, path_or_file) -> None:
    """Write samples as ``t,x1..xn,u1..um`` rows, 17 significant digits,
    and CRLF line ends (as ``csv.writer`` ends them)."""
    n, m = traj.x.shape[1], traj.u.shape[1]
    header = ["t"] + [f"x{i+1}" for i in range(n)] + [f"u{i+1}" for i in range(m)]
    row = ",".join(["%.17g"] * len(header)) + "\r\n"

    def emit(fh):
        fh.write(",".join(header) + "\r\n")
        # a block of rows at a time bounds the Python floats alive at once
        for lo in range(0, len(traj.times), 1024):
            block = slice(lo, lo + 1024)
            rows = np.column_stack([traj.times[block], traj.x[block], traj.u[block]])
            fh.write("".join(row % tuple(r) for r in rows.tolist()))

    if hasattr(path_or_file, "write"):
        emit(path_or_file)
    else:
        with open(path_or_file, "w", newline="") as fh:
            emit(fh)


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

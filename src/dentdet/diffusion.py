"""Box diffusion machinery: cosine noise schedule, forward corruption,
signal-space encoding, deterministic-capable reverse steps, box renewal.

Boxes live in [0, 1] center-size coordinates; the diffusion process operates
in "signal space", a linear rescaling of those coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import MIN_SIZE


@dataclass(frozen=True)
class Schedule:
    """Precomputed cumulative noise-variance sequence for T timesteps.

    alpha_bar has length T+1 with alpha_bar[0] == 1 and values strictly in
    (0, 1], non-increasing in t.
    """

    T: int
    alpha_bar: np.ndarray = field(repr=False)

    def __post_init__(self):
        ab = np.asarray(self.alpha_bar, dtype=np.float64)
        if ab.shape != (self.T + 1,):
            raise ValueError("alpha_bar must have length T+1")
        if ab[0] != 1.0:
            raise ValueError("alpha_bar[0] must be 1")
        if np.any(ab <= 0) or np.any(ab > 1):
            raise ValueError("alpha_bar values must lie in (0, 1]")
        if np.any(np.diff(ab) > 0):
            raise ValueError("alpha_bar must be non-increasing")
        object.__setattr__(self, "alpha_bar", ab)

    @staticmethod
    def cosine(T: int = 1000, s: float = 0.008) -> "Schedule":
        """Cosine schedule: alpha_bar[t] = f(t)/f(0),
        f(t) = cos^2(((t/T + s)/(1 + s)) * pi/2)."""
        t = np.arange(T + 1, dtype=np.float64)
        f = np.cos(((t / T) + s) / (1 + s) * (np.pi / 2)) ** 2
        ab = f / f[0]
        ab[0] = 1.0
        return Schedule(T=T, alpha_bar=ab)


def signal_encode(boxes: np.ndarray, scale: float) -> np.ndarray:
    """Map [0, 1] box coordinates to signal space: x -> (2x - 1) * scale."""
    if scale <= 0:
        raise ValueError("signal scale must be positive")
    return (2.0 * np.asarray(boxes, dtype=np.float64) - 1.0) * scale


# signal_decode's per-column lower bounds: centers 0, sizes MIN_SIZE.
_BOX_LOWER = np.array([0.0, 0.0, MIN_SIZE, MIN_SIZE])


def signal_decode(z: np.ndarray, scale: float) -> np.ndarray:
    """Inverse of signal_encode followed by clamping to valid boxes.

    Centers are clamped to [0, 1]; sizes get a floor of MIN_SIZE so that
    transiently degenerate boxes stay usable downstream.
    """
    if scale <= 0:
        raise ValueError("signal scale must be positive")
    x = (np.asarray(z, dtype=np.float64) / scale + 1.0) / 2.0
    return np.clip(x, _BOX_LOWER, 1.0, out=x)


def _check_t(t: int, schedule: Schedule) -> None:
    if not 0 <= t <= schedule.T:
        raise ValueError(f"timestep {t} outside [0, {schedule.T}]")


def forward_noise(
    z0: np.ndarray, t: int, schedule: Schedule, rng: np.random.Generator
) -> np.ndarray:
    """Sample z_t ~ N(sqrt(a_bar_t) z0, (1 - a_bar_t) I)."""
    _check_t(t, schedule)
    z0 = np.asarray(z0, dtype=np.float64)
    ab = schedule.alpha_bar[t]
    eps = rng.standard_normal(z0.shape)
    return np.sqrt(ab) * z0 + np.sqrt(1.0 - ab) * eps


def pad_gt_boxes(
    gt: np.ndarray, n: int, rng: np.random.Generator, scale: float
) -> np.ndarray:
    """Build an (N, 4) signal-space proposal target set from the (M, 4)
    normalized center-size ground-truth boxes ``gt``.

    Ground-truth boxes fill |gt| rows in shuffled order; the rest are random
    boxes drawn Gaussian around the image center with std 1/6 in normalized
    coordinates.  Callers keep |gt| <= N (``train_stage`` supervises a
    random subset when an image has more boxes than proposals).
    """
    if n < 1:
        raise ValueError("proposal count must be >= 1")
    gt = np.asarray(gt, dtype=np.float64).reshape(-1, 4)
    n_gt = len(gt)
    if n_gt > n:
        raise ValueError(f"{n_gt} ground-truth boxes exceed {n} proposals")
    arr = np.empty((n, 4), dtype=np.float64)
    if n_gt:
        perm = rng.permutation(n_gt)
        arr[:n_gt] = gt[perm]
    n_pad = n - n_gt
    if n_pad:
        pad = rng.normal(0.5, 1.0 / 6.0, size=(n_pad, 4))
        pad[:, :2] = np.clip(pad[:, :2], 0.0, 1.0)
        pad[:, 2:] = np.clip(pad[:, 2:], 0.01, 1.0)
        arr[n_gt:] = pad
    return signal_encode(arr, scale)


def ddim_step(
    z_t: np.ndarray,
    z0_pred: np.ndarray,
    t: int,
    t_next: int,
    schedule: Schedule,
    eta: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """One reverse step from ``z_t`` at time t to time t_next, parameterized
    by the predicted clean signal.

    With eta = 0 the update is deterministic; t_next = 0 reproduces the
    prediction exactly since alpha_bar[0] = 1.
    """
    if not 0 <= t_next < t <= schedule.T:
        raise ValueError(f"require 0 <= t_next < t <= T, got t={t}, t_next={t_next}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    z0_pred = np.asarray(z0_pred, dtype=np.float64)
    if z0_pred.shape != z_t.shape:
        raise ValueError("z0_pred shape mismatch")
    ab_t = schedule.alpha_bar[t]
    ab_n = schedule.alpha_bar[t_next]
    eps_hat = (z_t - np.sqrt(ab_t) * z0_pred) / np.sqrt(1.0 - ab_t)
    sigma = (
        eta
        * np.sqrt((1.0 - ab_n) / (1.0 - ab_t))
        * np.sqrt(max(0.0, 1.0 - ab_t / ab_n))
    )
    out = np.sqrt(ab_n) * z0_pred + np.sqrt(max(0.0, 1.0 - ab_n - sigma**2)) * eps_hat
    if sigma > 0:
        if rng is None:
            raise ValueError("eta > 0 requires an rng")
        out = out + sigma * rng.standard_normal(out.shape)
    return out


def box_renewal(
    scores: np.ndarray,
    z: np.ndarray,
    score_threshold: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Replace low-confidence proposal rows with fresh standard-normal noise."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape[0] != z.shape[0]:
        raise ValueError("one score per proposal row required")
    keep = scores >= score_threshold
    return np.where(keep[:, None], z, rng.standard_normal(z.shape))

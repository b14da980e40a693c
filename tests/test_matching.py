"""Hungarian matching against a brute-force oracle, and the masked loss."""

import itertools
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dentdet.geometry import MIN_SIZE, Box, cxcywh_to_xyxy, giou_matrix
from dentdet.labels import HEAD_CLASS_COUNTS, HierarchyLevel
from dentdet.matching import (
    LossBreakdown,
    _cost_matrix,
    giou_pair_grad,
    loss_forward_backward,
    match_arrays,
    solve_assignment,
)
from dentdet.model import ModelConfig
from helpers import class_row, class_rows, oracle_cost_matrix, oracle_solve_assignment

CFG = ModelConfig()


# ---------------------------------------------------------------------------
# Object-list oracles over the array API: a prediction carries its box and
# the background-aware distributions of ``model.loss_probs_for_mask``.


@dataclass
class _Pred:
    box: Box
    loss_probs: dict


@dataclass(frozen=True)
class MatchResult:
    pairs: tuple[tuple[int, int], ...]  # (pred_index, gt_index), one per gt
    unmatched_preds: tuple[int, ...]


def _arrays(preds, gts, level):
    boxes01 = np.stack([p.box.to_array() for p in preds])
    probs = {
        head: np.stack([p.loss_probs[head] for p in preds])
        for head in level.heads
    }
    gt_boxes = (
        np.stack([b.to_array() for b, _ in gts]) if gts else np.zeros((0, 4))
    )
    return probs, boxes01, gt_boxes, class_rows(lab for _, lab in gts)


def match(preds, gts, level, cfg=CFG) -> MatchResult:
    """Minimum-cost one-to-one assignment of ground truth to predictions."""
    if len(gts) > len(preds):
        raise ValueError("cannot match more ground-truth boxes than predictions")
    probs, boxes01, gt_boxes, gt_classes = _arrays(preds, gts, level)
    one = {head: p[None] for head, p in probs.items()}
    (pairs,) = match_arrays(one, boxes01[None], [gt_boxes], [gt_classes], level, cfg)
    matched = {i for i, _ in pairs}
    unmatched = tuple(i for i in range(len(preds)) if i not in matched)
    return MatchResult(pairs=tuple(pairs), unmatched_preds=unmatched)


def compute_loss(preds, gts, matchres, level, cfg=CFG) -> LossBreakdown:
    """Loss breakdown for already-matched predictions (no gradients)."""
    probs, boxes01, gt_boxes, gt_classes = _arrays(preds, gts, level)
    breakdown, _, _ = loss_forward_backward(
        {head: p[None] for head, p in probs.items()}, boxes01[None],
        [list(matchres.pairs)], [gt_boxes], [gt_classes], level, cfg,
    )
    return breakdown


def _det(box, q=None, e=None, d=None, level=HierarchyLevel.FULL):
    """Prediction with near-one-hot loss distributions (None = uniform)."""

    def dist(k, idx):
        if idx is None:
            return np.full(k, 1.0 / k)
        p = np.full(k, 1e-9)
        p[idx] = 1.0 - (k - 1) * 1e-9
        return p

    loss_probs = {}
    for head, k, idx in (("quadrant", 4, q), ("enumeration", 8, e), ("diagnosis", 4, d)):
        if head in level.heads:
            extra = 1 if head == level.deepest_head else 0
            loss_probs[head] = dist(k + extra, idx)
    return _Pred(box=box, loss_probs=loss_probs)


def _brute_force_min(cost):
    n, m = cost.shape
    best = None
    for perm in itertools.permutations(range(n), m):
        total = sum(cost[p, j] for j, p in enumerate(perm))
        if best is None or total < best:
            best = total
    return best


class TestAssignment:
    def test_single_pair(self):
        assert solve_assignment(np.array([[3.0]])) == [(0, 0)]

    def test_rejects_more_gts_than_preds(self):
        with pytest.raises(ValueError):
            solve_assignment(np.zeros((2, 3)))

    def test_empty_gt(self):
        assert solve_assignment(np.zeros((3, 0))) == []

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, min(n, 6) + 1))
            cost = rng.uniform(0, 10, size=(n, m))
            pairs = solve_assignment(cost)
            total = sum(cost[i, j] for i, j in pairs)
            assert total == pytest.approx(_brute_force_min(cost), abs=1e-9)

    def test_tie_break_lexicographic(self):
        # All-equal costs: gt j should take pred j.
        pairs = solve_assignment(np.ones((4, 3)))
        assert pairs == [(0, 0), (1, 1), (2, 2)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cost_raises_floating_point_error(self, bad):
        # A diverged decoder's costs must stop training as a divergence,
        # not as the solver's ValueError.
        cost = np.ones((4, 3))
        cost[2, 1] = bad
        with pytest.raises(FloatingPointError, match="non-finite assignment costs: 1 of 12"):
            solve_assignment(cost)


class TestMatch:
    def test_one_gt_one_pred(self):
        preds = [_det(Box(0.5, 0.5, 0.2, 0.2), q=1, level=HierarchyLevel.QUADRANT_ONLY)]
        gts = [(Box(0.5, 0.5, 0.2, 0.2), class_row(1))]
        res = match(preds, gts, HierarchyLevel.QUADRANT_ONLY)
        assert res.pairs == ((0, 0),)
        assert res.unmatched_preds == ()

    def test_prefers_nearby_box(self):
        level = HierarchyLevel.QUADRANT_ONLY
        preds = [
            _det(Box(0.2, 0.2, 0.1, 0.1), q=0, level=level),
            _det(Box(0.8, 0.8, 0.1, 0.1), q=0, level=level),
        ]
        gts = [(Box(0.78, 0.81, 0.1, 0.1), class_row(0))]
        res = match(preds, gts, level)
        assert res.pairs == ((1, 0),)
        assert res.unmatched_preds == (0,)

    def test_duplicate_preds_take_lower_index(self):
        level = HierarchyLevel.QUADRANT_ONLY
        b = Box(0.5, 0.5, 0.2, 0.2)
        preds = [_det(b, q=2, level=level), _det(b, q=2, level=level)]
        gts = [(b, class_row(2))]
        assert match(preds, gts, level).pairs == ((0, 0),)

    def test_rejects_excess_gts(self):
        level = HierarchyLevel.QUADRANT_ONLY
        preds = [_det(Box(0.5, 0.5, 0.1, 0.1), level=level)]
        gts = [(Box(0.4, 0.4, 0.1, 0.1), class_row(0))] * 2
        with pytest.raises(ValueError):
            match(preds, gts, level)

    def test_cost_matrix_hand_value(self):
        # Single pred/gt with known probabilities and geometry.
        level = HierarchyLevel.QUADRANT_ONLY
        pb, gb = Box(0.5, 0.5, 0.2, 0.2), Box(0.6, 0.5, 0.2, 0.2)
        pred = _det(pb, level=level)  # uniform over 5 classes incl. background
        probs = {"quadrant": np.stack([pred.loss_probs["quadrant"]])}
        cost = _cost_matrix(
            probs, pb.to_array()[None], gb.to_array()[None],
            class_rows([class_row(1)]), level, CFG,
        )
        # Overlap 0.1 x 0.2 of two 0.04 boxes: IoU 0.02 / 0.06, and the
        # 0.3 x 0.2 hull equals the union, so GIoU = IoU = 1/3.
        want = 2 * (1 - 0.2) + 5 * 0.1 + 2 * (1 - 1 / 3)
        assert cost[0, 0] == pytest.approx(want, abs=1e-9)

    def test_masked_head_probs_do_not_affect_matching(self):
        level = HierarchyLevel.QUADRANT_ONLY
        b1, b2 = Box(0.3, 0.3, 0.2, 0.2), Box(0.7, 0.7, 0.2, 0.2)
        gts = [(b1, class_row(0)), (b2, class_row(1))]
        base = [_det(b1, q=0, level=level), _det(b2, q=1, level=level)]
        alt = [_det(b1, q=0, e=5, d=3, level=level),
               _det(b2, q=1, e=1, d=0, level=level)]
        assert match(base, gts, level) == match(alt, gts, level)


class TestComputeLoss:
    def test_perfect_predictions_near_zero(self):
        level = HierarchyLevel.FULL
        b = Box(0.5, 0.5, 0.25, 0.25)
        preds = [_det(b, q=1, e=3, d=2, level=level)]
        gts = [(b, class_row(1, 3, 2))]
        res = match(preds, gts, level)
        bd = compute_loss(preds, gts, res, level)
        assert bd.total == pytest.approx(0.0, abs=1e-9)
        assert bd.l1 == 0.0 and bd.giou == pytest.approx(0.0, abs=1e-12)

    def test_uniform_quadrant_head_closed_form(self):
        # Mask (1,0,0): the quadrant head carries a background logit, so the
        # uniform distribution is over 5 classes; focal term is
        # (1 - 1/5)^gamma * -log(1/5).
        level = HierarchyLevel.QUADRANT_ONLY
        b = Box(0.5, 0.5, 0.2, 0.2)
        preds = [_det(b, level=level)]  # uniform
        gts = [(b, class_row(3))]
        bd = compute_loss(preds, gts, MatchResult(((0, 0),), ()), level)
        want = (1 - 0.2) ** 2 * -np.log(0.2)
        assert bd.cls_q == pytest.approx(want, rel=1e-12)
        assert bd.cls_e == 0.0 and bd.cls_d == 0.0
        assert bd.total == pytest.approx(2 * want, rel=1e-12)

    def test_masked_terms_exactly_zero(self):
        level = HierarchyLevel.QUADRANT_ONLY
        b = Box(0.4, 0.4, 0.2, 0.2)
        preds = [_det(b, q=2, e=7, d=3, level=level)]
        gts = [(b, class_row(2))]
        bd = compute_loss(preds, gts, match(preds, gts, level), level)
        assert bd.cls_e == 0.0
        assert bd.cls_d == 0.0

    def test_total_recombines_weighted_terms(self):
        level = HierarchyLevel.FULL
        rng = np.random.default_rng(7)
        preds = [
            _det(
                Box(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.1, 0.3, 2)),
                q=int(rng.integers(4)), e=int(rng.integers(8)),
                d=int(rng.integers(4)), level=level,
            )
            for _ in range(5)
        ]
        gts = [
            (Box(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.1, 0.3, 2)),
             class_row(int(rng.integers(4)), int(rng.integers(8)),
                         int(rng.integers(4))))
            for _ in range(3)
        ]
        bd = compute_loss(preds, gts, match(preds, gts, level), level)
        want = 2 * (bd.cls_q + bd.cls_e + bd.cls_d) + 5 * bd.l1 + 2 * bd.giou
        assert bd.total == pytest.approx(want, rel=1e-12)
        assert bd.total >= 0

    def test_loss_invariant_under_pred_permutation(self):
        level = HierarchyLevel.QUADRANT_ENUM
        rng = np.random.default_rng(8)
        preds = [
            _det(
                Box(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.1, 0.3, 2)),
                q=int(rng.integers(4)), e=int(rng.integers(8)), level=level,
            )
            for _ in range(4)
        ]
        gts = [
            (Box(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.1, 0.3, 2)),
             class_row(int(rng.integers(4)), int(rng.integers(8))))
            for _ in range(2)
        ]
        bd1 = compute_loss(preds, gts, match(preds, gts, level), level)
        shuffled = [preds[i] for i in (2, 0, 3, 1)]
        bd2 = compute_loss(shuffled, gts, match(shuffled, gts, level), level)
        assert bd1.total == pytest.approx(bd2.total, rel=1e-12)

    def test_no_gts_pure_background(self):
        level = HierarchyLevel.QUADRANT_ONLY
        preds = [_det(Box(0.5, 0.5, 0.1, 0.1), level=level) for _ in range(3)]
        bd = compute_loss(preds, [], MatchResult((), (0, 1, 2)), level)
        # Every proposal pays the uniform-probability background term.
        want = (1 - 0.2) ** 2 * -np.log(0.2)
        assert bd.cls_q == pytest.approx(want, rel=1e-12)
        assert bd.l1 == 0.0 and bd.giou == 0.0


# ---------------------------------------------------------------------------
# giou_pair_grad on its own: its values against giou_matrix, its gradient
# against central differences.


def test_giou_pair_grad_values_equal_giou_matrix_diagonal():
    rng = np.random.default_rng(21)
    gt = np.column_stack([rng.uniform(0, 1, (300, 2)), rng.uniform(0.01, 0.5, (300, 2))])
    pred = gt + rng.normal(0, 0.05, gt.shape)  # overlapping, nested and apart
    pred[::7, 2:] = np.abs(pred[::7, 2:])
    values, _ = giou_pair_grad(pred, gt)
    assert np.array_equal(values, np.diagonal(giou_matrix(pred, gt)))


def _kink_distance(pred, gt):
    """Distance of each pair from where GIoU's gradient jumps: equal corners
    of the two boxes, or an intersection side that changes sign."""
    p, g = cxcywh_to_xyxy(pred), cxcywh_to_xyxy(gt)
    iw = np.minimum(p[:, 2], g[:, 2]) - np.maximum(p[:, 0], g[:, 0])
    ih = np.minimum(p[:, 3], g[:, 3]) - np.maximum(p[:, 1], g[:, 1])
    return np.min(np.column_stack([np.abs(p - g), np.abs(iw), np.abs(ih)]), axis=1)


def _fd_cases():
    """(kind, pred, gt) pairs away from kinks, the touching ones excepted:
    those touch corner to corner, so no single coordinate makes them
    overlap."""
    rng = np.random.default_rng(5)
    gt = np.column_stack([rng.uniform(0.2, 0.8, (400, 2)), rng.uniform(0.05, 0.4, (400, 2))])
    pred = np.column_stack([rng.uniform(0.2, 0.8, (400, 2)), rng.uniform(0.05, 0.4, (400, 2))])
    pred[:100, :2] = gt[:100, :2] + rng.uniform(-0.1, 0.1, (100, 2))
    pred[:100, 2:] = gt[:100, 2:] * rng.uniform(0.2, 0.6, (100, 2))  # most nested
    keep = _kink_distance(pred, gt) > 1e-3
    p, g = cxcywh_to_xyxy(pred), cxcywh_to_xyxy(gt)
    apart = (np.minimum(p[:, 2:], g[:, 2:]) <= np.maximum(p[:, :2], g[:, :2])).any(axis=1)
    nested = ((p[:, :2] > g[:, :2]) & (p[:, 2:] < g[:, 2:])).all(axis=1)
    cases = {
        "nested": (pred[keep & nested], gt[keep & nested]),
        "overlapping": (pred[keep & ~nested & ~apart], gt[keep & ~nested & ~apart]),
        "disjoint": (pred[keep & apart], gt[keep & apart]),
        # Dyadic boxes meeting at one corner, each corner on either side.
        "touching": (
            np.array([[0.25, 0.25, 0.25, 0.25], [0.75, 0.25, 0.25, 0.125],
                      [0.5, 0.5, 0.5, 0.25]]),
            np.array([[0.5, 0.5, 0.25, 0.25], [0.5, 0.5, 0.25, 0.375],
                      [0.875, 0.75, 0.25, 0.25]]),
        ),
    }
    for kind, (pr, gr) in cases.items():
        assert len(pr) >= 3, kind
        yield from ((kind, pr[i], gr[i]) for i in range(min(len(pr), 40)))


def test_giou_pair_grad_matches_finite_differences():
    eps = 1e-6
    for kind, pred, gt in _fd_cases():
        _, grad = giou_pair_grad(pred[None], gt[None])
        fd = np.zeros(4)
        for k in range(4):
            step = np.zeros(4)
            step[k] = eps
            plus, _ = giou_pair_grad((pred + step)[None], gt[None])
            minus, _ = giou_pair_grad((pred - step)[None], gt[None])
            fd[k] = (plus[0] - minus[0]) / (2 * eps)
        # Central differences carry ~1e-16 / eps ~ 1e-10 of rounding.
        np.testing.assert_allclose(grad[0], fd, rtol=1e-6, atol=1e-7, err_msg=kind)


# ---------------------------------------------------------------------------
# The cost kernel and the solver against the plain formulas they replaced
# (``helpers.oracle_cost_matrix``, ``helpers.oracle_solve_assignment``).
# The batched-loss oracle matches through the package's own kernel, so only
# this pins the costs.  Boxes come from a grid of centers and sizes as well
# as from the unit interval, so that zero-size, identical, disjoint,
# edge-touching and border-clamped boxes (centers on 0 or 1, sizes from
# MIN_SIZE to 1) all come up, and with them exact cost ties.

_GRID = (0.0, 0.125, 0.25, 0.5, 0.75, 1.0)
_COORD = st.one_of(st.sampled_from(_GRID), st.floats(0.0, 1.0))
_SIZE = st.one_of(st.sampled_from((0.0, MIN_SIZE) + _GRID[1:]), st.floats(0.0, 1.0))
_WEIGHT = st.sampled_from((0.0, 0.5, 2.0, 5.0))


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _draw_boxes(data, n):
    rows = data.draw(st.lists(st.tuples(_COORD, _COORD, _SIZE, _SIZE), min_size=n, max_size=n))
    return np.array(rows, dtype=np.float64).reshape(n, 4)


def _draw_image(data, rng, level, n, m):
    """One image's loss probabilities, proposals, gt boxes and gt classes."""
    probs = {}
    for head in level.heads:
        k = HEAD_CLASS_COUNTS[head] + (head == level.deepest_head)
        probs[head] = rng.dirichlet(np.ones(k), size=n)
    classes = class_rows(
        class_row(*(int(rng.integers(HEAD_CLASS_COUNTS[h])) for h in level.heads))
        for _ in range(m)
    )
    return probs, _draw_boxes(data, n), _draw_boxes(data, m), classes


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cost_matrix_and_assignment_equal_oracles(data):
    level = data.draw(st.sampled_from(list(HierarchyLevel)), label="level")
    cfg = ModelConfig(cls_weight=data.draw(_WEIGHT), l1_weight=data.draw(_WEIGHT),
                      giou_weight=data.draw(_WEIGHT))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n = data.draw(st.integers(1, 7), label="proposals")
    counts = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=3), label="gt counts")
    images = [_draw_image(data, rng, level, n, m) for m in counts]

    # One image: (N, 4) proposals against its own M boxes.
    for probs, boxes01, gt, classes in images:
        cost = _cost_matrix(probs, boxes01, gt, classes, level, cfg)
        want = oracle_cost_matrix(probs, boxes01, gt, classes, level, cfg)
        assert _same_bytes(cost, want)
        assert solve_assignment(cost) == oracle_solve_assignment(want)

    # A lockstep block: (B, N, 4) proposals against ground truth padded with
    # zero rows to the largest M, as match_arrays pads it.
    m_max = max(counts)
    gt = np.zeros((len(images), m_max, 4))
    classes = np.zeros((len(images), m_max, 3), dtype=np.int64)
    for i, (_, _, g, c) in enumerate(images):
        gt[i, : len(g)], classes[i, : len(c)] = g, c
    probs = {h: np.stack([im[0][h] for im in images]) for h in level.heads}
    boxes01 = np.stack([im[1] for im in images])
    cost = _cost_matrix(probs, boxes01, gt, classes, level, cfg)
    assert _same_bytes(cost, oracle_cost_matrix(probs, boxes01, gt, classes, level, cfg))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_solve_assignment_equals_oracle_on_ties(data):
    # Small integer costs: most instances have several optimal assignments.
    n = data.draw(st.integers(1, 8))
    m = data.draw(st.integers(0, n))
    values = data.draw(st.lists(st.integers(-3, 3), min_size=n * m, max_size=n * m))
    cost = np.array(values, dtype=np.float64).reshape(n, m)
    assert solve_assignment(cost) == oracle_solve_assignment(cost)

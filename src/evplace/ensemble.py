"""Combination rules that fuse per-member distance matrices.

Each window family contributes one distance matrix over the same query
and reference sample grids.  Every rule here fuses that member list into
a single distance matrix, which is retrieved and scored like any member.
The mean rule is the workhorse; the others exist to quantify how much the
choice of rule matters.

A rule is built one way, ``EnsembleRule(RuleKind.X, ...)``.  Whether it can
fuse ``k`` members is one check, :meth:`EnsembleRule.check_members`, which
the command line makes with its config, before any input is read.

The mean, weighted and trimmed rules sum by a pairwise tree folded over
the members as they come; product, min and max fold them in place into one
copy of the first; majority vote stacks only each member's per-row argmin.
Median and the trimmed mean stack all ``k`` members once, since each cell
needs all ``k`` values, and partition or sort that one stack in place.

:func:`approximate_combine` avoids computing every query-side family: it
compares one query family against all reference families and fuses by
:func:`combine`'s mean rule, relabelling only the result.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from .descriptors import DescriptorSequence
from .distance import DistanceMatrix, Metric, build_distance_matrix
from .errors import ConfigError
from .events import _read_only
from .evaluation import DEFAULT_LOC_THRESHOLD_US, precision_at_full_recall

DEFAULT_WEIGHT_GRID = (0.5, 0.75, 1.0, 1.25, 1.5)
DEFAULT_TRIM = 1


class RuleKind(enum.Enum):
    MEAN = "mean"
    PRODUCT = "product"
    MEDIAN = "median"
    MIN = "min"
    MAX = "max"
    TRIMMED_MEAN = "trimmed_mean"
    WEIGHTED = "weighted"
    MAJORITY_VOTE = "majority_vote"


# Rules that fold the members left to right into one copy of the first,
# as numpy reduces a stack's first axis, so the result is the same to the bit.
_FOLDS = {RuleKind.PRODUCT: np.multiply, RuleKind.MIN: np.minimum, RuleKind.MAX: np.maximum}


@dataclass(frozen=True)
class EnsembleRule:
    """A combination rule plus its parameters.

    ``weights`` applies only to the weighted rule (one positive factor per
    member); ``trim`` only to the trimmed mean (members cut per side).
    The checks that need the member count are in :meth:`check_members`.
    """

    kind: RuleKind
    weights: tuple[float, ...] | None = None
    trim: int = DEFAULT_TRIM

    def __post_init__(self):
        if self.weights is not None:
            if self.kind is not RuleKind.WEIGHTED:
                raise ConfigError("weights are only valid for the weighted rule")
            if len(self.weights) == 0 or any(w <= 0 for w in self.weights):
                raise ConfigError("weights must be positive")
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        elif self.kind is RuleKind.WEIGHTED:
            raise ConfigError("weighted rule needs weights")
        if self.trim < 1:
            raise ConfigError(f"trim must be >= 1, got {self.trim}")

    def check_members(self, k: int) -> None:
        """Raise :class:`ConfigError` unless this rule can fuse ``k`` members."""
        if k < 1:
            raise ConfigError("ensemble needs at least one member")
        if self.kind is RuleKind.TRIMMED_MEAN and 2 * self.trim >= k:
            raise ConfigError(
                f"trimmed mean with trim={self.trim} needs more than {2 * self.trim} members"
            )
        if self.kind is RuleKind.WEIGHTED and len(self.weights) != k:
            raise ConfigError(f"{len(self.weights)} weights for {k} members")
        if self.kind is RuleKind.MAJORITY_VOTE and k < 2:
            raise ConfigError("majority vote needs at least two members")


def _tree_mean(values: Iterable[np.ndarray]) -> np.ndarray:
    """Mean of matrices via pairwise-tree summation, folded as they come.

    Two partial sums of equal count are added as soon as both exist, and
    what is left at the end (one partial sum per set bit of the count) is
    added right to left.  That is the tree that pairs neighbours level by
    level with the odd one carried last, but it holds at most one partial
    sum per level and never a ``k``-deep copy.  A sequential reduction
    passes through fl(3a), fl(5a), ... and can land one ulp off even when
    every member is the same matrix.  The tree adds equals to equals, so a
    power-of-two count of identical members collapses to that member
    without any rounding at all.
    """
    partials: list[tuple[int, np.ndarray]] = []  # (count, sum), counts falling
    for k, total in enumerate(values, 1):
        n = 1
        while partials and partials[-1][0] == n:
            total = partials.pop()[1] + total
            n *= 2
        partials.append((n, total))
    total = partials.pop()[1]
    while partials:
        total = partials.pop()[1] + total
    return total / k


def _aligned(members: list[DistanceMatrix] | tuple[DistanceMatrix, ...]) -> list[np.ndarray]:
    """The members' own matrices, once they share shape and sample grids."""
    first = members[0]
    for m in members[1:]:
        if m.values.shape != first.values.shape:
            raise ConfigError(
                f"member {m.member_label} shape {m.values.shape} differs from "
                f"{first.member_label} {first.values.shape}"
            )
        if not (
            np.array_equal(m.query_t_us, first.query_t_us)
            and np.array_equal(m.ref_t_us, first.ref_t_us)
        ):
            raise ConfigError(f"member {m.member_label} is not sample-aligned")
    return [m.values for m in members]


def combine(
    members: list[DistanceMatrix] | tuple[DistanceMatrix, ...], rule: EnsembleRule
) -> DistanceMatrix:
    """Fuse member matrices according to ``rule`` into one distance matrix.

    ``rule.check_members(len(members))`` comes first, so every branch below
    is a pure reduction.  Members must share shape and sample grids.  The
    weighted rule computes ``mean_k(weights[k] * D_k)``, so all-ones weights
    reproduce the mean rule exactly.  The trimmed mean drops the ``trim``
    smallest and largest values of each cell.

    Majority vote: every member votes for its argmin column in each query
    row (ties to the smallest index), and the modal column wins (ties again
    to the smallest index).  The fused row holds 0.0 at that column and 1.0
    elsewhere, so its argmin is the vote.
    """
    k = len(members)
    rule.check_members(k)
    values = _aligned(members)
    if rule.kind is RuleKind.MEAN:
        fused = _tree_mean(values)
    elif rule.kind in _FOLDS:
        fused = values[0].copy()
        for v in values[1:]:
            _FOLDS[rule.kind](fused, v, out=fused)
    elif rule.kind is RuleKind.MEDIAN:
        fused = np.median(np.stack(values), axis=0, overwrite_input=True)
    elif rule.kind is RuleKind.TRIMMED_MEAN:
        stack = np.stack(values)
        stack.sort(axis=0)
        fused = _tree_mean(stack[rule.trim : k - rule.trim])
    elif rule.kind is RuleKind.WEIGHTED:
        fused = _tree_mean(w * v for w, v in zip(rule.weights, values))
    elif rule.kind is RuleKind.MAJORITY_VOTE:
        n_q, n_r = values[0].shape
        # Count every (row, voted column) pair at once; argmax keeps the
        # smallest column among tied counts.
        rows = np.arange(n_q)
        votes = rows * n_r + np.stack([np.argmin(v, axis=1) for v in values])
        counts = np.bincount(votes.ravel(), minlength=n_q * n_r).reshape(n_q, n_r)
        fused = np.ones((n_q, n_r), dtype=np.float64)
        fused[rows, counts.argmax(axis=1)] = 0.0
    else:
        raise ConfigError(f"unknown rule {rule.kind!r}")
    return DistanceMatrix(
        _read_only(fused), members[0].query_t_us, members[0].ref_t_us, f"{rule.kind.value}_of_{k}"
    )


def approximate_combine(
    query: DescriptorSequence,
    references: list[DescriptorSequence] | tuple[DescriptorSequence, ...],
    metric: Metric,
) -> DistanceMatrix:
    """Mean-fused ensemble with a single query-side window family.

    Only one set of query descriptors is computed (typically from a
    mid-sized window); it is compared against every reference family and
    the resulting matrices are averaged.  Trades some accuracy for a
    ``k``-fold cheaper query side.
    """
    if len(references) < 1:
        raise ConfigError("approximate ensemble needs at least one reference member")
    members = [build_distance_matrix(query, ref, metric) for ref in references]
    fused = combine(members, EnsembleRule(RuleKind.MEAN))
    return replace(fused, member_label=f"approx_mean_of_{len(members)}")


def enumerate_weight_grid(
    n_members: int, grid: tuple[float, ...] = DEFAULT_WEIGHT_GRID
) -> Iterator[tuple[float, ...]]:
    """Lazily yield every weight vector on a per-member grid.

    Vectors come out in lexicographic order of the grid, so the first is
    ``(grid[0],) * n_members``.  The full space has ``len(grid) **
    n_members`` entries; callers are expected to iterate, not materialize.
    """
    if n_members < 1:
        raise ConfigError(f"n_members must be >= 1, got {n_members}")
    if not grid or any(g <= 0 for g in grid):
        raise ConfigError("weight grid values must be positive")
    return itertools.product(*([tuple(float(g) for g in grid)] * n_members))


def weight_grid_search(
    members: list[DistanceMatrix] | tuple[DistanceMatrix, ...],
    ground_truth,
    loc_threshold_us: int = DEFAULT_LOC_THRESHOLD_US,
    grid: tuple[float, ...] = DEFAULT_WEIGHT_GRID,
):
    """Yield ``(weights, EvalResult)`` for every weight vector on the grid.

    Evaluation is precision at full recall under ``loc_threshold_us``.
    Selection is left to the caller, who may prefer precision, sparsity,
    or any other tie-break.
    """
    for weights in enumerate_weight_grid(len(members), grid):
        fused = combine(members, EnsembleRule(RuleKind.WEIGHTED, weights=weights))
        yield weights, precision_at_full_recall(fused, ground_truth, loc_threshold_us)

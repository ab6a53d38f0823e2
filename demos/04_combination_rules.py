"""Every way to fuse member distance matrices into one.

Three hand-made 1x4 members make the rules easy to read: two members
agree that reference 1 is the match, the third is an outlier that pulls
toward reference 3.  Robust rules shrug the outlier off.

A rule is built as ``EnsembleRule(RuleKind.X, ...)``.  Whether it can
fuse a given number of members is one check, ``rule.check_members(k)``,
which ``combine`` makes first and the command line makes before reading
any input.
"""

import numpy as np

from evplace.distance import DistanceMatrix
from evplace.ensemble import EnsembleRule, RuleKind, combine
from evplace.errors import ConfigError

QT = np.array([0], dtype=np.int64)
RT = np.arange(4, dtype=np.int64) * 1_000_000


def member(values, label):
    return DistanceMatrix(np.array([values]), QT, RT, label)


def main():
    members = [
        member([0.9, 0.1, 0.8, 0.7], "a"),
        member([0.8, 0.2, 0.9, 0.6], "b"),
        member([0.9, 0.9, 0.8, 0.1], "outlier"),
    ]
    print("member rows (one query, four references):")
    for m in members:
        print(f"  {m.member_label:>8}: {m.values[0]}")

    rules = [
        EnsembleRule(RuleKind.MEAN),
        EnsembleRule(RuleKind.PRODUCT),
        EnsembleRule(RuleKind.MEDIAN),
        EnsembleRule(RuleKind.MIN),
        EnsembleRule(RuleKind.MAX),
        EnsembleRule(RuleKind.TRIMMED_MEAN, trim=1),
        EnsembleRule(RuleKind.WEIGHTED, weights=(1.5, 1.0, 0.5)),
        EnsembleRule(RuleKind.MAJORITY_VOTE),
    ]
    print("\nfused rows (* marks the retrieved reference):")
    for rule in rules:
        fused = combine(members, rule)
        row = fused.values[0]
        pick = int(np.argmin(row))
        cells = " ".join(
            f"{v:.3f}{'*' if j == pick else ' '}" for j, v in enumerate(row)
        )
        print(f"  {fused.member_label:>22}: {cells}")

    # Unit weights reduce the weighted rule to the plain mean, bit for bit.
    unit = combine(members, EnsembleRule(RuleKind.WEIGHTED, weights=(1.0, 1.0, 1.0)))
    mean = combine(members, EnsembleRule(RuleKind.MEAN))
    print(f"weighted(1,1,1) == mean: {np.array_equal(unit.values, mean.values)}")

    # Rules that cannot fuse three members are refused before any fusion.
    print("\nrules that cannot fuse these three members:")
    for rule in (
        EnsembleRule(RuleKind.TRIMMED_MEAN, trim=2),
        EnsembleRule(RuleKind.WEIGHTED, weights=(1.0, 1.0)),
    ):
        try:
            rule.check_members(len(members))
        except ConfigError as e:
            print(f"  {rule.kind.value:>22}: {e}")


if __name__ == "__main__":
    main()

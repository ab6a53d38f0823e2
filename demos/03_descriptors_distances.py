"""From raw events to a query-by-reference distance matrix.

Two traverses of the same synthetic route are windowed, rasterized into
event images, reduced to patch-normalized frame descriptors, and compared
with the cosine metric.  A clean route shows up as a dark diagonal: each
query time is closest to the reference time of the same place.
"""

import numpy as np

from evplace.descriptors import AccumulationMode, DescriptorParams, describe_window_set
from evplace.distance import Metric, best_match_per_query, build_distance_matrix
from evplace.events import SensorGeometry
from evplace.synthetic import TraverseParams, generate_traverse, generate_world
from evplace.windowing import sample_grid, window_families

SHADES = " .:-=+*#%@"


def ascii_matrix(values: np.ndarray) -> str:
    lo, hi = values.min(), values.max()
    scaled = (values - lo) / (hi - lo) if hi > lo else np.zeros_like(values)
    rows = []
    for row in scaled:
        rows.append("".join(SHADES[int(v * (len(SHADES) - 1))] for v in row))
    return "\n".join(rows)


def main():
    geometry = SensorGeometry(32, 24)
    world = generate_world(seed=31, n_places=12, geometry=geometry)
    reference, ref_gt = generate_traverse(world, TraverseParams(seed=32, noise_rate=3.0))
    query, query_gt = generate_traverse(
        world, TraverseParams(seed=33, rate_scale=0.8, noise_rate=8.0, dropout=0.2)
    )
    print(f"reference: {len(reference)} events, query: {len(query)} events "
          f"(weaker signal, more noise, 20% dropout)")

    # One mid-sized fixed-count family per side, sampled on 1 s grids.
    params = DescriptorParams(mode=AccumulationMode.COUNT, down_width=16,
                              down_height=12, patch=4)
    counts = [0.5]
    families = window_families(counts, [], geometry)
    q_seq = describe_window_set(families, query, sample_grid(query), params)[0]
    r_seq = describe_window_set(families, reference, sample_grid(reference), params)[0]
    print(f"descriptors: {len(q_seq)} query x {len(r_seq)} reference, "
          f"dim {q_seq.dim}, family {q_seq.label}")

    matrix = build_distance_matrix(q_seq, r_seq, Metric.COSINE)
    print(f"\ndistance matrix ({matrix.member_label}, blank = near, @ = far):")
    print(ascii_matrix(matrix.values))

    # With both traverses dwelling 1 s per place, query row i should match
    # reference column i.
    matches = best_match_per_query(matrix)
    on_diag = sum(1 for i, (j, _) in enumerate(matches) if i == j)
    print(f"\nbest match on the diagonal for {on_diag}/{len(matches)} queries")


if __name__ == "__main__":
    main()

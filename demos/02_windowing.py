"""Slicing one event stream into parallel window families.

A window family batches the stream either by a fixed event count or by a
fixed time span.  Every family sees the same traverse at a different
granularity; the ensemble later fuses one distance matrix per family.
"""

from evplace.events import SensorGeometry
from evplace.synthetic import TraverseParams, generate_traverse, generate_world
from evplace.windowing import align_to_time, build_window_set, sample_grid


def main():
    geometry = SensorGeometry(32, 24)
    world = generate_world(seed=21, n_places=6, geometry=geometry)
    stream, _ = generate_traverse(world, TraverseParams(seed=22, noise_rate=5.0))
    span_s = (int(stream.t[-1]) - int(stream.t[0])) / 1e6
    print(f"traverse: {len(stream)} events over {span_s:.1f} s")

    window_set = build_window_set(stream)  # default sizes, both kinds
    print(f"\n{len(window_set)} window families over the same stream:")
    print(f"{'family':>14} {'windows':>8} {'events/window':>16}")
    for family in window_set.families:
        sizes = family.n_events  # one entry per window: end_idx - start_idx
        lo, hi, mean = sizes.min(), sizes.max(), sizes.mean()
        print(f"{family.label:>14} {len(family):>8} {lo:>5}..{hi:<5} (mean {mean:.0f})")

    # Each family answers "which window represents time t*?" independently,
    # for a whole grid of sample times at once.
    grid = sample_grid(stream)
    mid = len(grid) // 2
    t_star = int(grid[mid])
    print(f"\nwindows aligned to t* = {t_star / 1e6:.1f} s:")
    for family in window_set.families:
        w = align_to_time(family, stream, grid)[mid]
        print(f"{family.label:>14}: events [{family.start_idx[w]}, {family.end_idx[w]}) "
              f"spanning [{family.t_start_us[w] / 1e6:.2f}, {family.t_end_us[w] / 1e6:.2f}) s")


if __name__ == "__main__":
    main()

"""Discretize the morph between the two nested-triangles drawings.

Recovers a coefficient matrix from each endpoint, interpolates the
matrices, and walks the morph in safe steps (each vertex moves at most a
third of the previous checkpoint's minimum separation).  Every
checkpoint is verified planar and every linear step is proved planar
at each fraction; SVG frames land in demo_out/ (override with --out-dir).

Equivalent CLI run (after saving graph and drawing files):
    barymorph morph graph.txt g0.txt g1.txt --discretize --frames frames/
"""

import argparse
import math
import pathlib

from barymorph import (
    discretize_morph,
    emit_svg,
    fg_curve_length_estimate,
    fg_morph,
    morph_resolution_floor,
    nested_triangles,
    recover_coefficients,
    save_schedule,
    separated_object_extremes,
    validate_schedule,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="demo_out")
    ap.add_argument("-n", type=int, default=9, help="vertex count, multiple of 3")
    ap.add_argument("--frames", type=int, default=8, help="SVG frames to write")
    args = ap.parse_args()
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    inst = nested_triangles(args.n)
    m0, _ = recover_coefficients(inst.gamma0)
    m1, _ = recover_coefficients(inst.gamma1)
    print(f"n={args.n}: recovered min weights "
          f"{m0.min_lambda():.4f} / {m1.min_lambda():.4f}")
    morph = fg_morph(inst.graph, m0, m1, inst.outer)

    schedule = discretize_morph(morph)
    print(f"schedule: k={schedule.k} linear steps, all planar")
    violations = validate_schedule(morph, schedule)
    print(f"independent validation: {len(violations)} violations")

    ts = [t for t, _ in schedule.checkpoints]
    lam, floor = morph_resolution_floor(morph, ts)
    worst = min(separated_object_extremes(d).resolution
                for _, d in schedule.checkpoints)
    print(f"worst checkpoint resolution {worst:.3e}; "
          f"guaranteed floor exp({floor.min():.2f}) = {math.exp(floor.min()):.3e}")
    print(f"curve length (64 segments): {fg_curve_length_estimate(morph, 64):.4f}")

    path = out_dir / f"nested{args.n}.schedule"
    save_schedule(schedule, str(path))
    print(f"wrote {path}")
    stride = max(1, schedule.k // args.frames)
    for idx in range(0, schedule.k + 1, stride):
        t, d = schedule.checkpoints[idx]
        frame = out_dir / f"morph_{idx:04d}.svg"
        emit_svg(d, str(frame))
    print(f"wrote {len(range(0, schedule.k + 1, stride))} frames to {out_dir}")


if __name__ == "__main__":
    main()

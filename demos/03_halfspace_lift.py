"""Lifting a set into the upper half space and reading energy as perimeter.

Builds the kernel lift of a two-interval set, shows how the level
functions relax toward the far field, calibrates the energy-to-perimeter
constant on one interval, and then predicts the perimeter of a shape the
calibration never saw.
"""

import fracperim as fp
from fracperim.kernels import KernelParams, build_table
from fracperim.perimeter import fractional_perimeter
from fracperim.shapes import auto_spec, rasterize


def main() -> None:
    params = KernelParams(1, 0.5)
    h = 1 / 64
    shape = fp.UnionShape((fp.Interval(0.0, 0.8), fp.Interval(1.3, 2.5)))
    e = rasterize(shape, auto_spec(shape, h))
    grid, emb = fp.extension_domain(e)
    u = fp.poisson_extend(emb, grid, params, threads=2)
    print(f"lift of {fp.format_shape(shape)}")
    print(f"  {grid.level_count} levels from z={grid.z_levels[0]:.4g} "
          f"to z={grid.z_levels[-1]:.4g}")
    dist = fp.trace_check(u)
    print(f"  distance to the boundary datum per level: "
          f"{dist[0]:.4f} (bottom) ... {dist[-1]:.4f} (top)")
    energy = fp.extension_energy(u)
    print(f"  energy {energy.total:.6f} = x-part {energy.x_part:.6f} "
          f"+ z-part {energy.z_part:.6f}")
    star = fp.horizontal_rearrange(u)
    es = fp.extension_energy(star)
    print(f"  after slice-wise rearrangement: x-part {es.x_part:.6f}, "
          f"z-part {es.z_part:.6f} (both drop)")

    table = build_table(params, h=h)
    record = fp.calibrate_gamma(
        fp.Interval(0.0, 2.0), fp.Interval(0.0, 1.0), params, h,
        table=table, threads=2,
    )
    print(f"calibrated gamma = {record.value:.6f} "
          f"(held-out residual {record.residual:.3%})")
    pred = 0.5 * record.value * energy.total
    ps = fractional_perimeter(e, table)
    print(f"prediction for the two-interval set: {pred:.5f} "
          f"vs direct {ps:.5f} ({abs(pred - ps) / ps:.3%} off)")


if __name__ == "__main__":
    main()

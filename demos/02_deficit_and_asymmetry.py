"""How far from round is a set, and what does that cost in perimeter.

Walks the ellipse family away from the disk and prints, per member, the
round-window asymmetry, the perimeter excess over the equal-count
centered ball, and the ratio that the log-log fit summarizes at the end.
"""

import fracperim as fp
from fracperim.deficit import s_deficit
from fracperim.kernels import KernelParams, build_table
from fracperim.shapes import auto_spec, rasterize


def main() -> None:
    s, h = 0.5, 1 / 64
    table = build_table(KernelParams(2, s), h=h)
    print(f"ellipse family at s={s}, h={h}")
    print(f"{'t':>5} {'A':>9} {'Ds':>10} {'A/Ds^(s/4)':>11}")
    for member in fp.generate_family("ellipse-ecc", (0.2, 0.4, 0.8, 1.6)):
        e = rasterize(member.shape, auto_spec(member.shape, h))
        rep = s_deficit(e, table)
        ratio = rep.asymmetry / rep.deficit ** (0.25 * s)
        print(f"{member.param:5.2f} {rep.asymmetry:9.5f} {rep.deficit:10.6f} "
              f"{ratio:11.5f}")

    cfg = fp.ExperimentConfig(
        dim=2, family="ellipse-ecc", params=(0.2, 0.4, 0.8, 1.6),
        s_values=(s,), h_values=(h,), threads=2,
    )
    fit = fp.exponent_study(cfg).fits[0]
    print(f"log A vs log Ds: slope {fit.slope:.4f} over {fit.points} members "
          f"(s/4 = {0.25 * s})")


if __name__ == "__main__":
    main()

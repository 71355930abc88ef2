#!/usr/bin/env python3
"""Constant-coefficient chain on a geometric orbit: lift the kernel
eigenfunction through the chain, tracking eigenvalues and residuals, and
compare the squared kernel weight with its infinite-product closed form."""

import argparse

import numpy as np

from taucalc import eigen_residual_norm, lift
from taucalc.scenarios import constant_gauge_chain


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=float, default=0.7)
    ap.add_argument("--depth", type=int, default=20)
    ap.add_argument("--lifts", type=int, default=5)
    args = ap.parse_args()

    sc = constant_gauge_chain(q=args.q, depth=args.depth,
                              n_levels=args.lifts + 2)
    pair = sc.kernel_pair()
    print("  lift   eigenvalue        predicted         residual")
    for n in range(args.lifts + 1):
        lvl = sc.levels[pair.level]
        res = eigen_residual_norm(lvl, pair)
        pred = sc.eigenvalue_after_lifts(n)
        print(f"  {n:4d}   {pair.value.real:<16.10g}  {pred:<16.10g}"
              f"  {res:.3e}")
        if n < args.lifts:
            pair = lift(pair, lvl)

    pts = sc.grid.branches[0].points
    measured = (pts ** (2 * sc.s)) * sc.levels[0].w.rho.values[0].real
    closed = sc.squared_weight_product(pts)
    ratio = measured / closed
    gap = float(np.max(np.abs(ratio / ratio[0] - 1.0)))
    print(f"\nsquared-kernel weight vs infinite product: max gap {gap:.3e}")


if __name__ == "__main__":
    main()

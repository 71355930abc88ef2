#!/usr/bin/env python3
"""Build the polynomial-coefficient chain on an interval orbit and emit
the full CSV/JSON bundle, comparing chain-predicted eigenvalues against
the spectrum of the assembled operator."""

import argparse
from pathlib import Path

import numpy as np

from taucalc import chain_eigenvalues, factorization_residual
from taucalc.io import write_chain
from taucalc.scenarios import qhahn_chain


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=float, default=0.8)
    ap.add_argument("--depth", type=int, default=140)
    ap.add_argument("--levels", type=int, default=6)
    ap.add_argument("--out", default="out/qhahn")
    args = ap.parse_args()

    sc = qhahn_chain(q=args.q, depth=args.depth, n_levels=args.levels)
    residuals = {
        f"factorization_{k}_{k + 1}": float(
            factorization_residual(sc.levels[k], sc.levels[k + 1], rng=k))
        for k in range(args.levels - 1)
    }
    manifest = write_chain(sc.levels, Path(args.out), residuals=residuals,
                           manifest_extra={"q": args.q})
    print(f"wrote {manifest}")

    lams = chain_eigenvalues(sc.levels[0], count=args.levels)
    print("\n  n   predicted        spectral         rel.gap")
    for n, lam in enumerate(lams):
        pred = sc.eigenvalue(n)
        gap = abs(lam - pred) / max(abs(pred), 1e-30) if n else abs(lam)
        print(f"  {n}   {pred:<15.10g}  {lam:<15.10g}  {gap:.3e}")


if __name__ == "__main__":
    main()

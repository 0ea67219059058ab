#!/usr/bin/env python3
"""Sweep small connected multigraphs and tabulate their richness fans."""

import argparse
import time
from dataclasses import dataclass

from richfan import richness_ideal, smoothness_report, weakly_rich_fan
from richfan.catalog import small_connected_graphs


@dataclass
class Config:
    max_edges: int
    r: int


def parse_args() -> Config:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-edges", type=int, default=4)
    # --max-edges 4 --r 2 takes about 3 s; 5 edges at r=2 reach 10^5 generators
    ap.add_argument("--r", type=int, default=1)
    ns = ap.parse_args()
    return Config(max_edges=ns.max_edges, r=ns.r)


def main() -> None:
    cfg = parse_args()
    header = f"{'edges':>5} {'cuts':>5} {'gens':>5} {'cones':>6} {'simpl':>6} {'smooth':>7}"
    print(header)
    print("-" * len(header))
    t0 = time.time()
    rows = 0
    for g in small_connected_graphs(cfg.max_edges):
        n = len(g.edges)
        if n == 0:
            continue
        ideal = richness_ideal(g, cfg.r)
        fan = weakly_rich_fan(g, cfg.r)
        rep = smoothness_report(fan)
        simplicial = all(len(c.rays) == c.dim() for c in fan.cones)
        print(
            f"{n:>5} {len(g.cuts()):>5} {len(ideal.generators):>5} "
            f"{len(fan.cones):>6} {str(simplicial):>6} {str(rep.smooth):>7}"
        )
        rows += 1
    print(f"{rows} graphs in {time.time() - t0:.1f}s (r={cfg.r})")


if __name__ == "__main__":
    main()

"""Time the single calls that ROADMAP.md quotes as re-anchor baselines.

Run from the root of the checkout (about 35 s on a 2-core machine):

    python3 bench/reanchor.py

Everything uses the generators' own vertex numbering (seed 0), one call
each: the prism(6) extra-0 refutation, rho_star(10), and the totals of the
tree layers over every free tree of orders 2-11.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import semlab as sl  # noqa: E402


def timed(fn, *args):
    t0 = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - t0


def main() -> None:
    prism6 = sl.build_prism(6)
    labeling, seconds = timed(sl.find_sem_labeling, prism6, prism6.p)
    assert labeling is None
    print(f"prism(6) extra 0 refutation: {seconds:.3f} s")

    value, seconds = timed(sl.rho_star, 10)
    assert value == 80
    print(f"rho_star(10) = {value}: {seconds:.3f} s")

    trees, seconds = timed(lambda: [t for n in range(2, 12) for t in sl.enumerate_trees(n)])
    print(f"enumerate_trees(2..11): {len(trees)} trees, {seconds:.3f} s")
    for name, fn in (
        ("deficiency(t, 0)", lambda t: sl.deficiency(t, 0)),
        ("find_sequential", sl.find_sequential),
        ("find_harmonious", sl.find_harmonious),
        ("find_alpha_valuation", sl.find_alpha_valuation),
        ("strength", sl.strength),
    ):
        total = sum(timed(fn, t)[1] for t in trees)
        print(f"{name} over orders 2-11: {total:.3f} s")


if __name__ == "__main__":
    main()

"""How far the recovery of cubic and trig_mix holds beyond master seed 0.

Acceptance criteria 5 and 6 run the canonical cubic and trig_mix
experiments at K = 25, 100 and 500 on master seed 0 only. This report runs
the same experiments on other master seeds and prints, per seed and
function, each K's median integrated squared distance d_sq and median
chosen order, beside the gates of the two criteria:

- cubic (criterion 5): K=500 median d_sq <= 1, K=100 <= 5, and K=500 < K=25;
- trig_mix (criterion 6): K=500 <= 2, and neither step K=25 -> 100 -> 500
  raises the median more than 1.5x.

It reports and does not judge: it exits 0 whatever the gates read. The last
lines list the seeds at which each criterion misses.

    python demos/seed_sweep.py              # master seeds 0-7
    python demos/seed_sweep.py --seeds 0,3  # a list, or a range such as 2-5
"""

import argparse
import warnings

from stochtaylor import UnderdeterminedWarning, default_spec, run_experiment

SIZES = (25, 100, 500)


def cubic_misses(med: dict) -> list[str]:
    misses = []
    if med[500] > 1.0:
        misses.append("K500 > 1")
    if med[100] > 5.0:
        misses.append("K100 > 5")
    if not med[500] < med[25]:
        misses.append("K500 >= K25")
    return misses


def trig_mix_misses(med: dict) -> list[str]:
    misses = []
    if med[500] > 2.0:
        misses.append("K500 > 2")
    if med[100] > 1.5 * med[25]:
        misses.append("K25->100 trend")
    if med[500] > 1.5 * med[100]:
        misses.append("K100->500 trend")
    return misses


GATES = {"cubic": cubic_misses, "trig_mix": trig_mix_misses}


def parse_seeds(text: str) -> list[int]:
    """'0-7' or '0,3,5' (or a mix, '0-2,6') as a list of master seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-7"))
    args = parser.parse_args()

    header = "  ".join(f"{f'K={K} d_sq (M)':>16}" for K in SIZES)
    print(f"{'seed':>4}  {'function':<8}  {header}  gates")
    missed = {fid: [] for fid in GATES}
    for seed in args.seeds:
        for fid, misses_of in GATES.items():
            med = {}
            cells = []
            for K in SIZES:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UnderdeterminedWarning)
                    medians = run_experiment(default_spec(fid, K=K, seed=seed)).medians
                med[K] = medians["d_sq"]
                cells.append(f"{med[K]:>10.4g} ({medians['chosen_m']:g})".rjust(16))
            misses = misses_of(med)
            if misses:
                missed[fid].append(seed)
            print(f"{seed:>4}  {fid:<8}  {'  '.join(cells)}  {', '.join(misses) or 'pass'}")
    for fid, seeds in missed.items():
        print(f"{fid} misses its gates at master seeds: {seeds if seeds else 'none'}")


if __name__ == "__main__":
    main()

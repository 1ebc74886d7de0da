"""The reference probe: a fixed exact computation that does not use ribbonlab.

    python3 bench/reference.py

It does the kind of work ribbonlab jobs do, exact Fraction elimination and
products of dict polynomials, in a fresh process, and prints one JSON line
that run.py checks.  run.py times it before every job and after the last
one: the host's speed drifts by a factor of two over minutes, and jobs and
this probe drift together, so each job's wall time is scaled by the probes
around it (see REFERENCE_S in run.py).
"""

import json
import random

from workloads import poly_mul, quadric_of, random_symmetric, rank_and_det

ROUNDS = 3
# what main() prints; run.py fails a run whose probe prints anything else
EXPECTED = {"ranks": [8, 8, 8], "terms": [4700, 4706, 4066]}


def main():
    rng = random.Random(0)
    ranks, terms = [], []
    for _ in range(ROUNDS):
        q = random_symmetric(rng, 8, 8)
        rows = [[x + rng.randint(-3, 3) * (i == j) for j, x in enumerate(row)]
                for i, row in enumerate(q)]
        ranks.append(rank_and_det([row + [1] * 8 for row in rows])[0])
        quadric = quadric_of(10, q)
        terms.append(len(poly_mul(poly_mul(quadric, quadric), quadric)))
    print(json.dumps({"ranks": ranks, "terms": terms}))


if __name__ == "__main__":
    main()

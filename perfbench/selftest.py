"""Self-test of the benchmark's own parts: the seeded generator and the oracles.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Checks that a seed gives a
byte-identical job list, that the job mix of every round is the same on every
seed, that the memoised oracle agrees with the plain rightmost-first reducer,
and that the first jobs of every workload run and pass their checks.
Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter

import run
import workloads


def check(ok: bool, what: str) -> None:
    if not ok:
        sys.stderr.write(f"selftest: FAIL {what}\n")
        sys.exit(1)
    print(f"ok   {what}")


def round_mix(specs):
    rounds = {}
    for spec in specs:
        rounds.setdefault(spec["round"], Counter())[spec["kind"]] += 1
    return [rounds[r] for r in sorted(rounds)]


def test_generator() -> None:
    for w in workloads.WORKLOADS:
        a = json.dumps(workloads.make_specs(w, 7), sort_keys=True).encode()
        b = json.dumps(workloads.make_specs(w, 7), sort_keys=True).encode()
        check(a == b, f"{w}: seed 7 gives a byte-identical job list")
        other = workloads.make_specs(w, 8)
        check(workloads.specs_digest(other) != workloads.specs_digest(json.loads(a)),
              f"{w}: seeds 7 and 8 give different job lists")
        mixes = round_mix(json.loads(a)) + round_mix(other)
        check(all(m == mixes[0] for m in mixes), f"{w}: every round has the same job mix")
        check(min(sum(m.values()) for m in mixes) >= 100, f"{w}: every round has 100 or more jobs")


def test_oracle() -> None:
    from strata_lab import dsl
    from strata_lab.coeff import Coefficient
    import oracle
    rng = random.Random(0)
    for name, (text, _) in list(workloads.TAILED.items()) + [("plane", (workloads.PLANE, 0))]:
        p = dsl.parse(text)
        red = oracle.Reducer(p)
        one = Coefficient.one(p.context)
        agree = True
        for _ in range(25):
            word = [rng.randrange(p.ngens) for _ in range(rng.randint(2, 7))]
            agree &= red.word([(i, 1) for i in word]) == oracle.reduce_rightmost(p, word, one)
        check(agree, f"{name}: memoised oracle agrees with the plain reducer on 25 words")


def test_jobs() -> None:
    for w in workloads.WORKLOADS:
        wl = workloads.Workload(w, workloads.make_specs(w, 3))
        tally = run.Tally(wl)
        run.run_rounds([wl.rounds[0][:12]], 0.0, tally, nrounds=1)
        check(tally.failed == 0,
              f"{w}: first 12 jobs run and pass their checks ({run.summary_line(tally.counts)})")


if __name__ == "__main__":
    run.import_library()
    test_generator()
    test_oracle()
    test_jobs()

"""Workload plans: the argv lists one worker pass runs, generated from a seed.

A plan is a list of CLI argument vectors.  The program under test only ever
sees these vectors; the seed stays on the benchmark's side.

verify-tensor  one `verify tensor` sweep (Racah-Speiser over every sweep label,
               Freudenthal/peeling character oracle on rank <= 4 families).
verify-rest    `verify groups|spherical|scalars|so-model` in one process:
               exact polynomial algebra, growth products, the Gamma-pole scan
               and the Lorentz model; never reaches the character oracle.
cli-queries    a stream of single queries whose cost ladder is fixed and whose
               instances (families, labels, parameters, order) come from the
               seed, so that pass time and p90 stay comparable across seeds.
"""
from __future__ import annotations

import random

WORKLOADS = ("verify-tensor", "verify-rest", "cli-queries")

TENSOR_DEPTH = 3
REST_DEPTH = 6

# Heavy tail of the query stream: (variant, rank) ladders.  Each rung is used
# once per pass with a random label of fixed shape, so the tail's cost is
# nearly seed independent while the labels differ.  Dense-Fraction root
# systems make these O(n^3) per Weyl dimension.
TENSOR_LADDER = ([("SO", n) for n in (12, 15, 18, 21, 24, 27, 30, 32)]
                 + [("SU", n) for n in (10, 13, 16, 19, 22, 24, 26)]
                 + [("Sp", n) for n in (8, 10, 12, 14, 15)])
# Gamma-pole scans over --count grid points (cost ~ count; SO scans half the
# grid per count).  Ten scans of nearly equal cost form a plateau just below
# the tail, so that p90 lands inside it rather than on a steep part of the
# cost curve; three larger scans stay in the tail.
EXCEPTIONAL_PLATEAU = (("SU", 1600), ("Sp", 1600), ("F4", 1600), ("SO", 3200)) * 2 + (
    ("SU", 1600), ("Sp", 1600))
EXCEPTIONAL_TAIL = (("SO", 4000), ("Sp", 3000), ("F4", 3500))
# Minimal-K-type search at large --ell (cost ~ ell^2 for the pair lattices).
SOCLE_LADDER = (("SU", 16), ("SU", 20), ("Sp", 18), ("Sp", 20), ("F4", 20), ("SO", 20))
# Light queries per kind.  The cheap kinds make up well over half the stream,
# so the median query sits inside one homogeneous group on every seed.
LIGHT_MIX = (("structure", 40), ("exceptional", 38), ("scalars", 48),
             ("socle", 18), ("tensor", 17))

CSV_SHARE = 0.25


def plan(workload: str, seed: int) -> list[list[str]]:
    """The argv lists of one pass of `workload` for `seed`."""
    if workload == "verify-tensor":
        return [["verify", "tensor", "--depth", str(TENSOR_DEPTH)]]
    if workload == "verify-rest":
        so_seed = str(seed % 2**32)  # the CLI takes a nonnegative sampling seed
        return [["verify", suite, "--depth", str(REST_DEPTH), "--seed", so_seed]
                for suite in ("groups", "spherical", "scalars", "so-model")]
    if workload == "cli-queries":
        return query_stream(seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


# -- query stream -----------------------------------------------------------------


def _family(rng: random.Random, variant: str, lo: int, hi: int) -> list[str]:
    return ["F4"] if variant == "F4" else [variant, str(rng.randint(lo, hi))]


def _label(variant: str, coords) -> str:
    letter = "Y" if variant in ("SO", "SU") else "V"
    return letter + ",".join(map(str, coords))


def _random_coords(rng: random.Random, variant: str, bound: int, positive: bool = False):
    lo = 1 if positive else 0
    if variant == "SO":
        return (rng.randint(lo, bound),)
    if variant == "SU":
        return (rng.randint(lo, bound), rng.randint(lo, bound))
    if variant == "Sp":
        b = rng.randint(lo, bound - 1)
        return (rng.randint(b + 1, bound), b)
    k = rng.randint(lo, bound - 2)
    return (k + 2 * rng.randint(1, (bound - k) // 2), k)


def _valid(variant: str, coords) -> bool:
    if min(coords) < 0:
        return False
    if variant in ("Sp", "F4") and coords[0] < coords[1]:
        return False
    return True


def _neighbours(variant: str, coords):
    """Lattice neighbours reached by omega(H): the targets of one recurrence row."""
    if variant == "SO":
        (k,) = coords
        steps = [(k - 1,), (k + 1,)]
    elif variant == "F4":
        m, k = coords
        steps = [(m + 1, k + 1), (m - 1, k + 1), (m + 1, k - 1), (m - 1, k - 1)]
    else:
        a, b = coords
        steps = [(a + 1, b), (a, b - 1), (a, b + 1), (a - 1, b)]
    return [c for c in steps if _valid(variant, c)]


def _mu(rng: random.Random) -> str:
    num = rng.randint(-20, 20)
    den = rng.choice((1, 1, 2, 3, 4, 5, 7))
    # `--mu -5/2` is read by argparse as an option and exits 2; the `=` form works.
    return f"--mu={num}/{den}" if den != 1 else f"--mu={num}"


def _structure(rng, variant):
    return ["structure"] + _family(rng, variant, 2, 40)


def _exceptional(rng, variant):
    # small n and count keep these as cheap as the other light kinds
    return ["exceptional"] + _family(rng, variant, 2, 12) + ["--count", str(rng.randint(1, 12))]


def _socle(rng, variant):
    return ["socle"] + _family(rng, variant, 2, 12) + ["--ell", str(rng.randint(0, 5))]


def _tensor(rng, variant):
    fam = _family(rng, variant, 3 if variant == "SO" else 2, 8)
    return ["tensor"] + fam + [_label(variant, _random_coords(rng, variant, 8))]


def _scalars(rng, variant):
    fam = _family(rng, variant, 3 if variant == "SO" else 2, 40)
    v = _random_coords(rng, variant, 10)
    if rng.random() < 0.85:
        y = rng.choice(_neighbours(variant, v))
    else:
        # an unrelated pair: lambda = 0 and the report says so
        y = _random_coords(rng, variant, 10)
        while y in _neighbours(variant, v):
            y = _random_coords(rng, variant, 10)
    mu = [_mu(rng)] if rng.random() < 0.8 else []
    return ["scalars"] + fam + [_label(variant, v), _label(variant, y)] + mu


LIGHT = {"structure": _structure, "exceptional": _exceptional, "socle": _socle,
         "tensor": _tensor, "scalars": _scalars}
VARIANTS = ("SO", "SU", "Sp", "F4")


def query_stream(seed: int) -> list[list[str]]:
    """200 single queries: a fixed mix of kinds and families, seeded instances, shuffled."""
    rng = random.Random(seed)
    queries = [["tensor", v, str(n), _label(v, _random_coords(rng, v, 9, positive=True))]
               for v, n in TENSOR_LADDER]
    queries += [["exceptional"] + _family(rng, v, 2, 12)
                + ["--count", str(count + rng.randint(-40, 40))]
                for v, count in EXCEPTIONAL_PLATEAU + EXCEPTIONAL_TAIL]
    queries += [["socle"] + _family(rng, v, 8, 8) + ["--ell", str(ell)]
                for v, ell in SOCLE_LADDER]
    for kind, count in LIGHT_MIX:
        queries += [LIGHT[kind](rng, VARIANTS[i % 4]) for i in range(count)]
    for q in queries:
        if rng.random() < CSV_SHARE:
            q += ["--format", "csv"]
    rng.shuffle(queries)
    return queries

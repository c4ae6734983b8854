"""Signed-permutation orbits and the integer Weyl dimension against Fraction references.

The references are the straightforward constructions: orbits closed under the
simple reflections s_a(w) = w - 2<w,a>/<a,a> a in exact Fractions, and the Weyl
dimension formula as a quotient of Fraction products over every positive root,
where the library multiplies only the roots that meet the support of the
weight and states 2 rho in closed form.  The library takes doubled-integer
weights 2w; `double` and `halve` below convert the references.
"""
import random
import tracemalloc
from fractions import Fraction as Q
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone import ktypes, tensor, weyl
from rankone.cli import main
from rankone.groups import f4, so, sp, su
from rankone.weyl import (k_root_system, shift, type_a_u, type_b, type_c_c1, type_d, w_add,
                          w_dot)
from tests import references
from tests.references import k_root_system_chain, orbit, w_sub


def wt(*coords):
    return tuple(Q(c) for c in coords)


def double(w):
    """The doubled-integer weight 2w of a Fraction weight with coordinates in (1/2)Z."""
    assert all((2 * x).denominator == 1 for x in w), w
    return tuple(int(2 * x) for x in w)


def halve(w2):
    return tuple(Q(x, 2) for x in w2)


def _unit(i, dim, c=1):
    v = [Q(0)] * dim
    v[i] = Q(c)
    return tuple(v)


def _dense(rs, root):
    v = [Q(0)] * rs.dim
    for i, c in root:
        v[i] += c
    return tuple(v)


def simple_roots(rs):
    """Dense simple roots of each kind, written out independently of the library."""
    r, dim = rs.rank, rs.dim
    chain = [w_add(_unit(i, dim), _unit(i + 1, dim, -1)) for i in range(r - 1)]
    if rs.kind == "A":
        return chain
    if rs.kind == "B":
        return chain + [_unit(r - 1, dim)]
    if rs.kind == "D":
        return chain + [w_add(_unit(r - 2, dim), _unit(r - 1, dim))]
    return chain + [_unit(r - 1, dim, 2), _unit(r, dim, 2)]


def reflect(w, alpha):
    c = 2 * w_dot(w, alpha) / w_dot(alpha, alpha)
    return tuple(x - c * a for x, a in zip(w, alpha))


def reference_orbit(rs, w):
    """Full Weyl orbit, generated by the simple reflections."""
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for v in frontier:
            for s in simple_roots(rs):
                r = reflect(v, s)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return seen


def _dot(w, root):
    """<w, root> for a dense root, skipping its zero entries (a root has at most two)."""
    return sum(x * a for x, a in zip(w, root) if a)


def reference_weyl_dim(rs, lam):
    if not rs.is_dominant(lam):
        raise ValueError(f"weight {lam} is not dominant")
    roots = [_dense(rs, a) for a in rs.positive_roots]
    rho = halve(rs.two_rho)
    lam_rho = w_add(lam, rho)
    d = Q(prod(_dot(lam_rho, a) for a in roots), prod(_dot(rho, a) for a in roots))
    if d.denominator != 1:
        raise ValueError(f"Weyl dimension of {lam} is not integral")
    return int(d)


def weyl_order(rs):
    r = rs.rank
    return {"A": factorial(r), "B": 2 ** r * factorial(r),
            "D": 2 ** (r - 1) * factorial(r), "CC": 2 ** (r + 1) * factorial(r)}[rs.kind]


SYSTEMS = ([type_b(m) for m in range(1, 5)] + [type_d(m) for m in range(2, 5)]
           + [type_a_u(n) for n in range(2, 5)] + [type_c_c1(2), type_c_c1(3)])
IDS = [f"{rs.kind}{rs.rank}" for rs in SYSTEMS]

# Few values, so that repeated and zero coordinates (walls) are common.
HALF_INTEGERS = [Q(k, 2) for k in range(-4, 5)]


def random_weights(rs, seed, count=25):
    rng = random.Random(seed)
    return [tuple(rng.choice(HALF_INTEGERS) for _ in range(rs.dim)) for _ in range(count)]


@pytest.mark.parametrize("rs", SYSTEMS, ids=IDS)
def test_orbit_matches_reflection_closure(rs):
    weights = random_weights(rs, seed=rs.dim * 31 + rs.rank)
    weights += [wt(*([0] * rs.dim)), wt(*([Q(1, 2)] * rs.dim)), wt(*([-1] * rs.dim))]
    for w in weights:
        expected = reference_orbit(rs, w)
        assert orbit(rs, w) == expected
        assert orbit(rs, double(w)) == {double(v) for v in expected}


@pytest.mark.parametrize("rs", SYSTEMS + [type_d(1), type_b(5), type_d(5), type_a_u(6)],
                         ids=IDS + ["D1", "B5", "D5", "A6"])
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_orbit_size_counts_the_orbit(rs, data):
    # few coordinate values, so that repeats and zeros (nontrivial stabilisers) are common
    w = data.draw(st.tuples(*[st.integers(-4, 4)] * rs.dim))
    assert rs.orbit_size(w) == len(orbit(rs, w)), w


# The chamber kernels against the pairwise generator forms they replaced.  The
# memo keys weights by value, so the library is only ever handed int weights.

CHAMBER_SYSTEMS = SYSTEMS + [type_d(1), type_b(5), type_d(5), type_a_u(6), type_c_c1(4)]
CHAMBER_IDS = IDS + ["D1", "B5", "D5", "A6", "CC4"]


@pytest.mark.parametrize("rs", CHAMBER_SYSTEMS, ids=CHAMBER_IDS)
@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(data=st.data())
def test_chamber_kernels_match_the_references(rs, data):
    # few coordinate values, so that walls (equal or zero coordinates) are common
    w = data.draw(st.tuples(*[st.integers(-4, 4)] * rs.dim))
    rep = references.dominant_rep(rs, w)
    first = rs.dominant_rep(w)
    assert first == rep and rs.dominant_rep(w) is first  # a repeat reads the memo
    assert rs.orbit_size(w) == rs.orbit_size(w) == rs.orbit_size(rep)
    for v in (w, rep):  # rep is dominant, so True answers are as common as False
        assert rs.is_dominant(v) is references.is_dominant(rs, v), v


# The sparse Racah-Speiser kernel against the dense sort-and-sign reference.
# Its precondition is a base lam + 2 rho with lam dominant; the weights of p of
# the family each kind belongs to, and F4's (+-1, +-1, +-1, +-1) on the first
# four coordinates, all keep it.

P_WEIGHTS = {"B": lambda r: tensor._p_weights("SO", 2 * r + 1),
             "D": lambda r: tensor._p_weights("SO", 2 * r),
             "A": lambda r: tensor._p_weights("SU", r),
             "CC": lambda r: tensor._p_weights("Sp", r)}


def random_dominant(rs, data):
    """A dominant doubled weight whose coordinates are all even or all odd,
    with equal and zero head coordinates common."""
    odd = data.draw(st.sampled_from([0, 1]), label="odd")
    gaps = data.draw(st.lists(st.integers(0, 2), min_size=rs.rank, max_size=rs.rank), label="gaps")
    head = [odd + 2 * sum(gaps[i:]) for i in range(rs.rank)]
    if rs.kind == "D" and data.draw(st.booleans(), label="negate last"):
        head[-1] = -head[-1]
    if rs.kind == "A":  # a U(n) weight may be negative
        offset = 2 * data.draw(st.integers(0, 3), label="offset")
        head = [x - offset for x in head]
    tail = [odd + 2 * data.draw(st.integers(0 if rs.kind == "CC" else -3, 3), label="tail")
            for _ in range(rs.dim - rs.rank)]
    lam = tuple(head + tail)
    assert rs.is_dominant(lam), lam
    return lam


@pytest.mark.parametrize("kind", weyl.KINDS)
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_the_sparse_chamber_kernel_matches_the_dense_reference(kind, data):
    rank = data.draw(st.integers(1, 60), label="rank")
    rs = weyl.KINDS[kind](rank)
    base = w_add(random_dominant(rs, data), rs.two_rho)
    betas = P_WEIGHTS[kind](rank) + (tensor._p_weights("F4", None) if rank >= 4 else ())
    for beta in betas:
        moves, sign = rs.to_dominant_chamber(base, beta)
        dom, expected_sign = references.to_dominant_chamber(rs, shift(base, beta, 1))
        if dom is None:
            assert (moves, sign) == (None, 0), (base, beta)
        else:
            assert (shift(base, moves, 1), sign) == (dom, expected_sign), (base, beta)


def test_the_sparse_chamber_kernel_refuses_a_base_too_close_to_a_wall():
    # (3, 2) is strictly dominant but not lam + 2 rho: moving 2 up by 2 would pass 3
    for kind in ("A", "B", "D", "CC"):
        rs = weyl.KINDS[kind](2)
        base = (3, 2) + (1,) * (rs.dim - 2)
        with pytest.raises(AssertionError, match="strictly dominant"):
            rs.to_dominant_chamber(base, ((1, 2),))


@pytest.mark.parametrize("kernel", [w_add, w_sub, w_dot])
def test_weight_kernels_refuse_different_lengths(kernel):
    # map stops at the shorter argument, so the kernel must check the lengths itself
    for a, b in [((1, 2), (1, 2, 3)), ((1, 2, 3), (1, 2)), ((), (0,))]:
        with pytest.raises(ValueError, match="weights of lengths"):
            kernel(a, b)


def _clear_root_system_caches():
    for cached in (k_root_system, *weyl.KINDS.values(), tensor._dominant_multiplicities,
                   weyl.RootSystem.dominant_rep, weyl.RootSystem._dominant_children):
        cached.cache_clear()


def test_the_chamber_kernel_runs_once_per_distinct_weight(capsys, monkeypatch):
    """A ratchet on the dominant_rep memo: over one `verify tensor --depth 3`
    from cold caches, the cache misses once per distinct (root system,
    weight) that the oracle asks about, keeps every entry it computed, and
    answers the repeated questions from memory."""
    _clear_root_system_caches()
    asked = []
    public = weyl.RootSystem.dominant_rep

    def counted_public(rs, w):
        asked.append((id(rs), w))
        return public(rs, w)

    monkeypatch.setattr(weyl.RootSystem, "dominant_rep", counted_public)
    assert main(["verify", "tensor", "--depth", "3"]) == 0
    capsys.readouterr()
    info = public.cache_info()
    assert asked
    assert info.misses == info.currsize == len(set(asked))
    assert info.hits == len(asked) - len(set(asked)) > 0


def test_the_dominant_walk_expands_each_weight_once(capsys, monkeypatch):
    """A ratchet on the dominant_weights_below memo: over one `verify tensor
    --depth 3` from cold caches, the walk expands each distinct (root system,
    dominant weight) exactly once, though every Freudenthal table reads the
    dominant weights below its highest weight."""
    _clear_root_system_caches()
    asked = []
    public = weyl.RootSystem.dominant_weights_below

    def counted_public(rs, mu):
        asked.append((id(rs), mu))
        return public(rs, mu)

    monkeypatch.setattr(weyl.RootSystem, "dominant_weights_below", counted_public)
    assert main(["verify", "tensor", "--depth", "3"]) == 0
    capsys.readouterr()
    info = weyl.RootSystem._dominant_children.cache_info()
    assert len(asked) == len(set(asked))  # one table per (root system, highest weight)
    assert info.misses == info.currsize > len(asked)
    assert info.hits > 0


def test_weyl_dim_caches_only_what_it_returns():
    """A ValueError is raised afresh on every call: a refused weight is not cached."""
    rs = type_b(2)
    before = weyl.RootSystem.weyl_dim.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValueError, match="not dominant"):
            rs.weyl_dim((2, 4))
    assert weyl.RootSystem.weyl_dim.cache_info().currsize == before
    assert rs.weyl_dim((4, 2)) == rs.weyl_dim((4, 2)) == 35


def test_the_oracle_convolution_asks_one_dominant_rep_per_pair(monkeypatch):
    """A ratchet on the oracle's convolution: once the Freudenthal tables are
    built, one `character_oracle` call asks `dominant_rep` once per pair of a
    dominant weight of V_lam and a weight of p, and never again for a second
    lookup pass over the product's dominant weights."""
    asked = []
    public = weyl.RootSystem.dominant_rep

    def counted(rs, w):
        asked.append(w)
        return public(rs, w)

    monkeypatch.setattr(weyl.RootSystem, "dominant_rep", counted)
    for fam, coords in [(so(5), (3,)), (so(8), (2,)), (su(3), (2, 1)), (sp(2), (3, 1)),
                        (f4(), (2, 2))]:
        lab = ktypes.label(fam, *coords)
        tensor.character_oracle(fam, lab)  # builds every table the call reads
        table = tensor._dominant_multiplicities(fam.variant, fam.n, ktypes.highest_weight(lab))
        asked.clear()
        tensor.character_oracle(fam, lab)
        assert len(asked) == len(table) * len(tensor._p_weights(fam.variant, fam.n)), (fam, lab)


def test_the_dominant_walk_needs_no_recursion():
    # B1's dominant weights below 2200 e_1 (doubled) are a chain of 1101, deeper
    # than the default recursion limit; a fresh B1 shares no cached walk with type_b(1)
    rs = weyl.RootSystem("B", 1)
    assert rs.dominant_weights_below((2200,)) == {(x,) for x in range(0, 2201, 2)}


@pytest.mark.parametrize("rs", SYSTEMS, ids=IDS)
def test_regular_orbit_has_weyl_group_order(rs):
    # a strictly dominant weight has a trivial stabiliser, so |orbit| = |W| / 1
    w = tuple([2 * (rs.rank - i) + 1 for i in range(rs.rank)] + [3] * (rs.dim - rs.rank))
    assert references.is_dominant(rs, w, strict=True)
    assert len(orbit(rs, w)) == rs.orbit_size(w) == weyl_order(rs)
    assert len(reference_orbit(rs, halve(w))) == weyl_order(rs)


@pytest.mark.parametrize("rs", SYSTEMS, ids=IDS)
def test_weyl_dim_matches_fraction_formula(rs):
    rng = random.Random(rs.dim * 17 + rs.rank)
    checked = 0
    for _ in range(200):
        lam = rs.dominant_rep(double(tuple(rng.choice(HALF_INTEGERS) for _ in range(rs.dim))))
        try:
            expected = reference_weyl_dim(rs, halve(lam))
        except ValueError:
            with pytest.raises(ValueError):
                rs.weyl_dim(lam)
            continue
        assert rs.weyl_dim(lam) == expected
        checked += 1
    assert checked > 0


def test_so2_compact_root_system_is_d1():
    """SO(2) is one coordinate with no roots: every weight is dominant, of dimension 1."""
    rs = k_root_system("SO", 2)
    assert rs is type_d(1) and rs.positive_roots == () and rs.two_rho == (0,)
    fam = so(2)
    for k in range(-6, 7):
        assert rs.is_dominant((2 * k,))
        assert rs.weyl_dim((2 * k,)) == 1
        assert ktypes.weyl_dim(fam, ktypes.label(fam, k)) == 1


def test_k_root_system_rows_match_the_chain():
    cases = [(v, n) for v in ("SO", "SU", "Sp") for n in range(2, 201)] + [("F4", None)]
    for variant, n in cases:
        assert k_root_system(variant, n) is k_root_system_chain(variant, n), (variant, n)


def test_weyl_dim_every_family():
    for variant, n in [("SO", 3), ("SO", 6), ("SO", 9), ("SU", 5), ("Sp", 4), ("F4", None)]:
        rs = k_root_system(variant, n)
        rng = random.Random(n or 0)
        for _ in range(30):
            lam = rs.dominant_rep(tuple(2 * rng.randrange(-6, 7) for _ in range(rs.dim)))
            assert rs.weyl_dim(lam) == reference_weyl_dim(rs, halve(lam))


def test_weyl_dim_rejects_non_dominant_and_non_integral():
    with pytest.raises(ValueError, match="doubled weight .* not dominant"):
        type_b(2).weyl_dim((2, 4))
    with pytest.raises(ValueError, match="not dominant"):
        type_a_u(2).weyl_dim((0, 2, 0))
    # (1/2, 0) is dominant for D2 but outside the weight lattice of Spin(4)
    with pytest.raises(ValueError, match="not integral"):
        type_d(2).weyl_dim((1, 0))


@pytest.mark.parametrize("kind", weyl.KINDS)
@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(data=st.data())
def test_weyl_dim_over_the_support_matches_every_root(kind, data):
    # a dominant weight with at most 4 nonzero permuted coordinates, as every
    # family but F4 uses, at ranks far past the sweeps
    rs = weyl.KINDS[kind](data.draw(st.integers(1, 40), label="rank"))
    places = data.draw(st.lists(st.integers(0, rs.rank - 1), max_size=4, unique=True))
    # one draw in four has half-integer coordinates, mostly outside the weight lattice
    odd = data.draw(st.sampled_from([0, 0, 0, 1]))
    w = [0] * rs.dim
    for i in places:
        w[i] = 2 * data.draw(st.integers(-6, 6).filter(bool)) + odd
    if rs.dim > rs.rank:  # the central U(1) or the Sp(1) coordinate
        w[rs.rank] = 2 * data.draw(st.integers(-6, 6)) + odd
    lam = rs.dominant_rep(tuple(w))
    try:
        expected = reference_weyl_dim(rs, halve(lam))
    except ValueError:
        with pytest.raises(ValueError, match="not integral"):
            rs.weyl_dim(lam)
        return
    assert rs.weyl_dim(lam) == expected


@pytest.mark.parametrize("kind", weyl.KINDS)
def test_closed_form_two_rho_is_the_sum_of_positive_roots(kind):
    counts = {"B": lambda r: r * r, "D": lambda r: r * (r - 1),
              "A": lambda r: r * (r - 1) // 2, "CC": lambda r: r * r + 1}
    for rank in range(1, 13):
        rs = weyl.KINDS[kind](rank)
        total = [0] * rs.dim
        for root in rs.positive_roots:
            for i, c in root:
                total[i] += c
        assert rs.two_rho == tuple(total), rank
        assert len(set(rs.positive_roots)) == len(rs.positive_roots) == counts[kind](rank)


@pytest.mark.parametrize("argv", [["tensor", "SO", "300", "Y3"],
                                  ["socle", "Sp", "800", "--ell", "100"]], ids=" ".join)
def test_large_rank_queries_never_enumerate_the_roots(capsys, monkeypatch, argv):
    def refuse(rs):
        raise AssertionError(f"enumerated the positive roots of {rs.kind}{rs.rank}")

    # a property takes precedence over a value cached on the instance
    monkeypatch.setattr(weyl.RootSystem, "positive_roots", property(refuse))
    assert main(argv) == 0
    capsys.readouterr()


def test_a_scalars_query_at_the_n_cap_builds_nothing_of_length_n(capsys, monkeypatch):
    # K's coordinate length comes from its kind and rank, 2 rho is built only
    # when read and the lattice holds the count of its zeros, not the zeros: a
    # dense weight of length 10^6 alone would take 8 MB
    def refuse(rs):
        raise AssertionError(f"built 2 rho of {rs.kind}{rs.rank}")

    monkeypatch.setattr(weyl.RootSystem, "two_rho", property(refuse))
    for cached in (ktypes.lattice, k_root_system, *weyl.KINDS.values()):
        cached.cache_clear()
    tracemalloc.start()
    try:
        assert main(["scalars", "Sp", "1000000", "V1,1", "V2,1"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 4 * 2 ** 20

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone import tensor, weyl
from rankone.groups import UnsupportedFamilyError, f4, so, sp, structural_data, su
from rankone.ktypes import highest_weight, label, labels, weyl_dim
from rankone.tensor import (AlgorithmViolation, character_oracle, dimension_sum_check,
                            expected_summand_labels, racah_speiser, racah_speiser_weight)
from rankone.weyl import k_root_system, shift, w_add, w_dot
from tests import references
from tests.references import orbit


FAMILIES = ([so(n) for n in range(3, 9)] + [su(n) for n in range(2, 6)]
            + [sp(n) for n in range(2, 5)] + [f4()])
ORACLE_FAMILIES = ([so(n) for n in range(3, 9)] + [su(n) for n in range(2, 5)]
                   + [sp(2), sp(3), f4()])  # rank of K at most 4


# Every weight below is doubled: (2, 0) is e_1, (1, 1, 1, 1) is (1/2, 1/2, 1/2, 1/2).


def p_weights(fam):
    """The weights of p as dense doubled weights."""
    zero = (0,) * k_root_system(fam.variant, fam.n).dim
    return tuple(shift(zero, beta, 1) for beta in tensor._p_weights(fam.variant, fam.n))


def test_weights_of_p_counts():
    assert set(p_weights(so(5))) == {(2, 0), (-2, 0), (0, 2), (0, -2), (0, 0)}
    sp2 = p_weights(sp(2))
    assert len(sp2) == 8 and (2, 0, 2) in sp2 and (0, -2, 2) in sp2
    assert len(p_weights(f4())) == 16
    assert all(abs(c) == 1 for w in p_weights(f4()) for c in w)
    for fam in FAMILIES:
        ws = p_weights(fam)
        assert len(ws) == len(set(ws)) == structural_data(fam).dim_p, fam


def test_so2_unsupported():
    with pytest.raises(UnsupportedFamilyError):
        racah_speiser(so(2), label(so(2), 1))
    with pytest.raises(UnsupportedFamilyError):
        character_oracle(so(2), label(so(2), 1))
    with pytest.raises(UnsupportedFamilyError):
        expected_summand_labels(so(2), label(so(2), 1))


def test_so_odd_stated_form():
    fam = so(5)
    for k in range(1, 8):
        dec = racah_speiser(fam, label(fam, k))
        assert dec.weights() == {(2 * k - 2, 0), (2 * k + 2, 0), (2 * k, 2)}
        flags = {s.weight: s.label is not None for s in dec.summands}
        assert flags[(2 * k, 2)] is False
        assert flags[(2 * k - 2, 0)] and flags[(2 * k + 2, 0)]


def test_so3_special_case():
    fam = so(3)
    for k in range(1, 8):
        assert racah_speiser(fam, label(fam, k)).weights() == {(2 * k - 2,), (2 * k,), (2 * k + 2,)}
    assert racah_speiser(fam, label(fam, 0)).weights() == {(2,)}


def test_so4_has_both_chiral_middle_summands():
    fam = so(4)
    for k in range(1, 6):
        dec = racah_speiser(fam, label(fam, k))
        assert dec.weights() == {(2 * k - 2, 0), (2 * k + 2, 0), (2 * k, 2), (2 * k, -2)}
        assert dimension_sum_check(dec)


def test_su_six_summand_form():
    fam = su(3)
    for p in range(1, 5):
        for q in range(1, 5):
            dec = racah_speiser(fam, label(fam, p, q))
            spherical = {highest_weight(label(fam, a, b))
                         for a, b in ((p + 1, q), (p - 1, q), (p, q + 1), (p, q - 1))}
            v1 = (2 * q, 2, -2 * p, 2 * (p - q - 1))
            v2 = (2 * q, -2, -2 * p, 2 * (p - q + 1))
            assert dec.weights() == spherical | {v1, v2}
            flags = {s.weight: s.label is not None for s in dec.summands}
            assert not flags[v1] and not flags[v2]


def test_trivial_type_gives_p_itself():
    for fam in FAMILIES:
        triv = label(fam, *((0,) if fam.variant == "SO" else (0, 0)))
        dec = racah_speiser(fam, triv)
        p_weight = {
            "SO": (2,) + (0,) * (fam.n // 2 - 1) if fam.n else None,
            "SU": (2,) + (0,) * (fam.n - 2) + (0, -2) if fam.variant == "SU" else None,
        }
        total = sum(s.multiplicity * weyl_dim(fam, s.weight) for s in dec.summands)
        assert total == structural_data(fam).dim_p
        if fam.variant == "SO":
            assert dec.weights() == {p_weight["SO"]}


@pytest.mark.parametrize("fam", FAMILIES)
def test_closed_form_multiplicity_and_dimension(fam):
    for lab in labels(fam, 10):
        dec = racah_speiser(fam, lab)
        assert dec.weights() == expected_summand_labels(fam, lab), lab
        assert all(s.multiplicity == 1 for s in dec.summands), lab
        assert dimension_sum_check(dec), lab


@pytest.mark.parametrize("fam", ORACLE_FAMILIES)
def test_character_oracle_agrees(fam):
    for lab in labels(fam, 4):
        rs = racah_speiser(fam, lab)
        oracle = character_oracle(fam, lab)
        assert rs.weights() == oracle.weights(), lab
        assert {s.weight: s.multiplicity for s in rs.summands} \
            == {s.weight: s.multiplicity for s in oracle.summands}, lab


def reference_character_oracle(fam, lab):
    """The oracle on full weight multisets: every Freudenthal table expanded to
    its Weyl orbits, the whole character convolved with p, and the residual
    rescanned for its (rho-pairing, lex) maximum before each peel."""
    rs = k_root_system(fam.variant, fam.n)

    def full(lam2):
        out = {}
        for w, m in tensor._dominant_multiplicities(fam.variant, fam.n, lam2):
            for v in orbit(rs, w):
                out[v] = m
        assert sum(out.values()) == rs.weyl_dim(lam2)
        return out

    lam = highest_weight(lab)
    char = Counter()
    for w, m in full(lam).items():
        for beta in p_weights(fam):
            char[w_add(w, beta)] += m
    acc = Counter()
    for _ in range(512):
        support = +char
        if not support:
            break
        top = max(support, key=lambda w: (w_dot(w, rs.two_rho), w))
        assert rs.is_dominant(top)
        acc[top] += support[top]
        for w, mw in full(top).items():
            char[w] -= support[top] * mw
    else:
        raise AlgorithmViolation("character peeling did not terminate")
    assert not any(char.values())
    return tensor._decomposition(fam, lam, acc)


@pytest.mark.parametrize("fam", ORACLE_FAMILIES)
def test_character_oracle_matches_full_orbit_reference(fam):
    for lab in labels(fam, 4):
        reference = reference_character_oracle(fam, lab)
        assert character_oracle(fam, lab).summands == reference.summands, lab


def _corrupt_one_table(monkeypatch, lam2):
    """Add 1 to the lowest non-top dominant multiplicity of V_lam2 only."""
    true = tensor._dominant_multiplicities

    def corrupted(variant, n, lam):
        table = true(variant, n, lam)
        if lam != lam2:
            return table
        target = min(w for w, _ in table if w != lam)
        return tuple((w, m + (w == target)) for w, m in table)

    monkeypatch.setattr(tensor, "_dominant_multiplicities", corrupted)


def test_oracle_rejects_a_wrong_source_multiplicity(monkeypatch):
    fam, lab = su(3), label(su(3), 2, 1)
    _corrupt_one_table(monkeypatch, highest_weight(lab))
    with pytest.raises(AssertionError, match="dim p"):
        character_oracle(fam, lab)


def test_oracle_rejects_a_wrong_summand_multiplicity(monkeypatch):
    fam, lab = su(3), label(su(3), 2, 1)
    summand = racah_speiser(fam, lab).summands[0].weight
    _corrupt_one_table(monkeypatch, summand)
    with pytest.raises(AlgorithmViolation, match="negative residual"):
        character_oracle(fam, lab)


def test_oracle_rejects_a_weight_of_p_counted_twice(monkeypatch):
    """With one weight of p listed twice the weights of p are no longer W-stable
    and number dim p + 1: the orbit counts stop dividing, or the dimension
    check fails."""
    true = tensor._p_weights
    monkeypatch.setattr(tensor, "_p_weights",
                        lambda variant, n: true(variant, n) + true(variant, n)[:1])
    caught_by_dim_p = set()
    for fam in ORACLE_FAMILIES:
        for lab in labels(fam, 2):
            with pytest.raises(AssertionError, match="multiple of its orbit size|dim p") as err:
                character_oracle(fam, lab)
            caught_by_dim_p.add("dim p" in str(err.value))
    assert caught_by_dim_p == {False, True}  # each check catches some label


def _random_label(fam, data):
    box = {lab.coords: lab for lab in labels(fam, 12)}
    width = len(next(iter(box)))
    coords = data.draw(st.tuples(*[st.integers(0, 12)] * width).filter(box.__contains__))
    return box[coords]


@pytest.mark.parametrize("fam", ORACLE_FAMILIES)
@settings(derandomize=True, database=None, max_examples=6, deadline=None)
@given(data=st.data())
def test_character_oracle_agrees_on_random_labels(fam, data):
    lab = _random_label(fam, data)
    assert character_oracle(fam, lab).summands == racah_speiser(fam, lab).summands, lab


@pytest.mark.parametrize("fam", ORACLE_FAMILIES)
@settings(derandomize=True, database=None, max_examples=6, deadline=None)
@given(data=st.data())
def test_the_one_pass_product_character_is_the_two_pass_one(fam, data):
    lam = highest_weight(_random_label(fam, data))
    assert (tensor._product_character(fam.variant, fam.n, lam)
            == references.product_character_two_pass(fam, lam)), lam


@pytest.mark.parametrize("fam", ORACLE_FAMILIES)
def test_racah_speiser_beyond_the_bound_box(fam):
    # two seeded labels with coordinates in 5..9, outside the labels(fam, 4) above
    rng = random.Random(str(fam))
    box = [lab for lab in labels(fam, 9) if min(lab.coords) >= 5]
    for lab in rng.sample(box, 2):
        rs = racah_speiser(fam, lab)
        assert rs.summands == character_oracle(fam, lab).summands, lab
        assert rs.weights() == expected_summand_labels(fam, lab), lab


def test_racah_speiser_reads_no_oracle_kernel(monkeypatch):
    # the two routes are checked against each other, so Racah-Speiser and the
    # closed form must not go through the oracle's memoised chamber kernels
    def refuse(rs, w):
        raise AssertionError(f"oracle kernel called on {w}")

    def refuse_roots(rs):
        raise AssertionError(f"oracle roots read on {rs.kind}{rs.rank}")

    for name in ("dominant_rep", "orbit_size", "dominant_weights_below", "_dominant_children"):
        monkeypatch.setattr(weyl.RootSystem, name, refuse)
    # a property takes precedence over a value cached on the instance
    for name in ("positive_roots", "root_norms"):
        monkeypatch.setattr(weyl.RootSystem, name, property(refuse_roots))
    for fam in FAMILIES:
        for lab in labels(fam, 3):
            assert racah_speiser(fam, lab).weights() == expected_summand_labels(fam, lab), lab


RS_FAMILIES = ([so(n) for n in (3, 4, 5, 6, 9, 40, 121)] + [su(n) for n in (2, 3, 7, 60)]
               + [sp(n) for n in (2, 3, 8, 60)] + [f4()])


@pytest.mark.parametrize("fam", RS_FAMILIES)
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(data=st.data())
def test_racah_speiser_matches_the_dense_route_on_random_dominant_weights(fam, data):
    # any dominant weight, not only a label's: all-even or all-odd coordinates,
    # often equal or zero, so that many weights of p land on walls
    rs = k_root_system(fam.variant, fam.n)
    w = data.draw(st.tuples(*[st.integers(-4, 4)] * rs.dim))
    odd = data.draw(st.sampled_from([0, 1]))
    lam = rs.dominant_rep(tuple(2 * x + odd for x in w))
    expected = +references.racah_speiser_dense(fam, lam)
    dec = racah_speiser_weight(fam, lam)
    assert {s.weight: s.multiplicity for s in dec.summands} == expected, lam


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data())
def test_closed_form_chamber_test_matches_is_dominant(data):
    # every kind at ranks 1..60 (SO gives B and D, F4 the half-spin weights of B4),
    # dominant weights drawn as in the Racah-Speiser test above
    variant, n = data.draw(st.one_of(
        st.tuples(st.sampled_from(("SU", "Sp")), st.integers(1, 60)),
        st.tuples(st.just("SO"), st.integers(2, 121)),
        st.just(("F4", None))))
    rs = k_root_system(variant, n)
    w = data.draw(st.tuples(*[st.integers(-4, 4)] * rs.dim))
    odd = data.draw(st.sampled_from([0, 1]))
    lam = rs.dominant_rep(tuple(2 * x + odd for x in w))
    for beta in tensor._p_weights(variant, n):
        moved = {i: lam[i] + d for i, d in beta}
        assert (rs.wall_gap(lam, moved) >= 0) == rs.is_dominant(shift(lam, beta, 1)), \
            (rs.kind, lam, beta)


def test_racah_speiser_makes_no_dense_weight_operation_per_beta(monkeypatch):
    """A ratchet on the sparse kernel: at Sp(1000,1), with 4n = 4000 weights of
    p, racah_speiser_weight adds 2 rho to lam once, tests lam for dominance
    once and builds one dense weight per surviving shift, so the dense
    add-and-sort per weight of p cannot come back."""
    calls = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    for module in (tensor, weyl):
        for name in ("w_add", "w_dot", "shift"):
            counted(module, name)
    for name in ("to_dominant_chamber", "is_dominant", "dominant_rep", "weyl_dim"):
        counted(weyl.RootSystem, name)
    fam = sp(1000)
    dec = racah_speiser(fam, label(fam, 6, 2))
    assert calls["to_dominant_chamber"] == len(tensor._p_weights("Sp", 1000)) == 4000
    assert calls["w_add"] == calls["is_dominant"] == 1
    assert calls["shift"] == len(dec.summands) == 10
    assert calls["w_dot"] == calls["dominant_rep"] == calls["weyl_dim"] == 0


def test_the_oracle_never_calls_the_racah_speiser_kernel(monkeypatch):
    # nor the chamber walls that Racah-Speiser and the closed form read
    def refuse(rs, base, beta):
        raise AssertionError(f"Racah-Speiser kernel called on {base}")

    for fam in ORACLE_FAMILIES:
        for lab in labels(fam, 2):
            expected = expected_summand_labels(fam, lab)
            with monkeypatch.context() as m:
                m.setattr(weyl.RootSystem, "to_dominant_chamber", refuse)
                m.setattr(weyl.RootSystem, "wall_gap", refuse)
                assert character_oracle(fam, lab).weights() == expected, lab


@pytest.mark.parametrize("fam", [so(4), so(5), so(6), su(2), su(3), sp(2), f4()])
def test_adjacency_symmetry(fam):
    # V <= Y (x) p iff Y <= V (x) p, also through non-spherical summands
    for lab in labels(fam, 6):
        lam = highest_weight(lab)
        for s in racah_speiser(fam, lab).summands:
            assert lam in racah_speiser_weight(fam, s.weight).weights(), (lab, s.weight)


def test_racah_speiser_weight_rejects_non_dominant():
    with pytest.raises(ValueError):
        racah_speiser_weight(su(3), (0, 2, 0, -2))

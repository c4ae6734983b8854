"""Acceptance checks, one per criterion, each printing a pass line with its runtime.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion report.
Every tolerance and bound is pinned here; the numerical checks of criterion 10
use central differences with step 1e-4 against a 1e-5 budget, everything else
is exact rational arithmetic.
"""
import time
from fractions import Fraction as Q

import pytest

from rankone import so_model
from rankone.groups import (SpectralParam, exceptional_in_interval, exceptional_mu, f4,
                            rho_H, so, sp, structural_data, su)
from rankone.ktypes import (label, labels, langlands, minimal_ktype, minimal_ktype_closed,
                            weyl_dim)
from rankone.hypergeom import RELATION_IDS, check_contiguous
from rankone.scalars import (growth_order, growth_order_stated, growth_product,
                             t_root, t_scalar, vanishing_table_check)
from rankone.spherical import lambda_scalar, omega_h_expand, verify_omega_identity
from rankone.tensor import (character_oracle, dimension_sum_check, expected_summand_labels,
                            racah_speiser)
from tests.references import fraction_terms, vanishing_mu
from tests.test_hypergeom import _seeded_triples
from tests.test_spherical import stated_row

ALL_FAMILIES = ([so(n) for n in range(2, 11)] + [su(n) for n in range(2, 9)]
                + [sp(n) for n in range(2, 7)] + [f4()])
SWEEP_FAMILIES = ([so(n) for n in range(3, 9)] + [su(n) for n in range(2, 6)]
                  + [sp(n) for n in range(2, 5)] + [f4()])
ORACLE_FAMILIES = ([so(n) for n in range(3, 9)] + [su(n) for n in range(2, 5)]
                   + [sp(2), sp(3), f4()])
VANISH_FAMILIES = ([so(n) for n in range(3, 9)] + [su(n) for n in range(2, 6)]
                   + [sp(n) for n in range(2, 5)] + [f4()])


class _Timed:
    def __init__(self, name, limit):
        self.name, self.limit = name, limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} {self.name}  [{elapsed:.2f}s / limit {self.limit}s]")
        assert elapsed < self.limit, f"{self.name} exceeded its runtime budget"
        return False


def test_criterion_01_structural_table():
    with _Timed("criterion 1: structural table, all instances", 1):
        for fam in ALL_FAMILIES:
            sd = structural_data(fam)
            n = fam.n
            expected = {
                "SO": (n - 1, 0, Q(n - 1, 2)) if n else None,
                "SU": (2 * n - 2, 1, Q(n)) if n else None,
                "Sp": (4 * n - 4, 3, Q(2 * n + 1)) if n else None,
                "F4": (8, 7, Q(11)),
            }[fam.variant]
            assert (sd.m_alpha, sd.m_2alpha, sd.rho_H) == expected
            assert sd.dim_p == sd.m_alpha + sd.m_2alpha + 1
            assert sd.sphere_dim == sd.dim_p - 1


def test_criterion_02_exceptional_dual_route():
    with _Timed("criterion 2: exceptional parameters, dual route on [-60, 0]", 1):
        for fam in ALL_FAMILIES:
            scanned = [Q(t, 2) for t in exceptional_in_interval(fam, -120)]
            closed, ell = [], 0
            while True:
                mu = exceptional_mu(fam, ell).mu_H
                if mu < -60:
                    break
                if mu <= 0:
                    closed.append(mu)
                ell += 1
            assert sorted(scanned) == sorted(closed), fam


def test_criterion_03_tensor_decompositions():
    with _Timed("criterion 3: tensor decompositions and character oracle", 120):
        for fam in SWEEP_FAMILIES:
            for lab in labels(fam, 10):
                dec = racah_speiser(fam, lab)
                assert dec.weights() == expected_summand_labels(fam, lab), (fam, lab)
                assert all(s.multiplicity == 1 for s in dec.summands), (fam, lab)
                assert dimension_sum_check(dec), (fam, lab)
        for fam in ORACLE_FAMILIES:
            for lab in labels(fam, 4):
                assert (character_oracle(fam, lab).weights()
                        == racah_speiser(fam, lab).weights()), (fam, lab)


def test_criterion_04_lambda_invariants():
    with _Timed("criterion 4: lambda positivity, total mass, reciprocity", 30):
        for fam in SWEEP_FAMILIES:
            for lab in labels(fam, 10):
                terms = fraction_terms(omega_h_expand(fam, lab))
                assert {t.coords: c for t, c in terms} == stated_row(fam, lab)
                assert all(c > 0 for _, c in terms)
                assert sum(c for _, c in terms) == 1
                for tgt, lam in terms:
                    assert lam * weyl_dim(fam, lab) \
                        == lambda_scalar(fam, tgt, lab) * weyl_dim(fam, tgt)


def test_criterion_05_recurrence_identities():
    with _Timed("criterion 5: omega(H) recurrences as exact identities", 60):
        for fam in SWEEP_FAMILIES:
            for lab in labels(fam, 10):
                assert verify_omega_identity(fam, lab, omega_h_expand(fam, lab)), (fam, lab)


def test_criterion_06_hypergeometric_relations():
    with _Timed("criterion 6: contiguous relations on 200 seeded triples", 5):
        triples = _seeded_triples(200)
        assert len(triples) == 200
        for relation in RELATION_IDS:
            for a, b, c in triples:
                assert check_contiguous(relation, a, b, c), (relation, a, b, c)


def test_criterion_07_scalar_vanishing():
    with _Timed("criterion 7: T vanishing table and the root at rho", 10):
        for fam in VANISH_FAMILIES:
            assert vanishing_table_check(fam, 10), fam
            triv = label(fam, *((0,) if fam.variant == "SO" else (0, 0)))
            for y, _ in omega_h_expand(fam, triv).nums:
                assert t_root(fam, y, triv) == rho_H(fam)
            for v in labels(fam, 10):
                for y, lam in fraction_terms(omega_h_expand(fam, v)):
                    mu = SpectralParam(vanishing_mu(fam, v, y))
                    assert t_scalar(fam, v, y, mu, lam) == 0


def test_criterion_08_growth_products():
    with _Timed("criterion 8: growth products and polynomial orders", 10):
        for fam in (su(2), su(3), su(5), sp(2), sp(3), f4()):
            for ell in range(4):
                for steps in (1, 5, 13, 40):
                    product, closed = growth_product(fam, ell, steps)
                    assert product == closed, (fam, ell, steps)
        assert growth_order(su(3), 1) == 2 * 3 + 1
        assert growth_order(sp(2), 0) == 2 * 2 - 1
        assert growth_order(f4(), 0) == 5
        for fam in (su(2), su(4), sp(3), f4()):
            for ell in (0, 2):
                assert growth_order(fam, ell) == growth_order_stated(fam, ell)


def test_criterion_09_socle_and_langlands():
    with _Timed("criterion 9: minimal K-types and Langlands classification", 10):
        for fam in SWEEP_FAMILIES:
            for ell in range(6):
                assert minimal_ktype(fam, ell) == minimal_ktype_closed(fam, ell)
        # the two limit-of-discrete-series cases, and only those
        for fam in ALL_FAMILIES:
            for ell in range(8):
                rec = langlands(fam, ell)
                is_limit = rec.limit_of_discrete_series
                expected = (fam.variant == "Sp" and fam.n == 2 and ell == 0) or \
                    (fam.variant == "F4" and ell <= 2)
                assert is_limit == expected, (fam, ell)
                if rec.S == "G":
                    assert rec.discrete_series == (exceptional_mu(fam, ell).mu_H
                                                   <= -rho_H(fam))


def test_criterion_10_so_model_numerics():
    with _Timed("criterion 10: SO(n,1) model numerics", 120):
        for n in (3, 4, 5):
            for k in range(9):
                assert so_model.zonal_l2_norm(n, k) \
                    == Q(1, weyl_dim(so(n), label(so(n), k)))
        assert ((so_model.SAMPLES, so_model.STEP_H, so_model.NUM_POINTS, so_model.TOLERANCE)
                == (100, 1e-4, 50, 1e-5))
        for n in (3, 4, 5):
            assert so_model.iwasawa_roundtrip_error(n, 0) <= 1e-9
        worst = 0.0
        for n in (3, 4):
            for k in range(4):
                for mu in (Q(-2), Q(-1), Q(-1, 2), Q(0), Q(1, 2), Q(1)):
                    rep = so_model.verify_intertwining(n, k, SpectralParam(mu), 0)
                    worst = max(worst, rep.residual, rep.gradient_h_residual)
        assert worst <= 1e-5
        vanish = max(so_model.exceptional_vanishing_residual(n, ell, 0)
                     for n in (3, 4) for ell in range(3))
        assert vanish <= 1e-5
        for n in range(2, 7):
            assert so_model.check_2rho(n)

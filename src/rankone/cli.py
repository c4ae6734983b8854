"""Command line front end: every computation as a deterministic, machine-readable report.

Subcommands: structure, exceptional, socle, tensor, scalars, verify.  Reports
are JSON documents (rationals rendered exactly as num/den strings, never as
floats) or CSV tables for sweeps; `verify` exits 0 only if every check passes.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

from . import groups, ktypes, scalars, so_model, spherical, tensor
from .groups import GroupFamily, SpectralParam, UnsupportedFamilyError


class UsageError(ValueError):
    pass


def _fmt(value):
    """Exact, JSON-friendly rendering; rationals become strings."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, str, float)):
        return value
    if isinstance(value, SpectralParam):
        return str(value.mu_H)
    if isinstance(value, ktypes.KTypeLabel):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _fmt(v) for k, v in value.items()}
    return str(value)


def parse_family(tokens: list[str]) -> tuple[GroupFamily, list[str]]:
    if not tokens:
        raise UsageError("missing family (SO | SU | Sp | F4)")
    name = tokens[0]
    rest = tokens[1:]
    variants = {v.lower(): v for v in groups.VARIANTS}
    if name.lower() not in variants:
        raise UsageError(f"unknown family {name!r}; expected SO, SU, Sp or F4")
    variant = variants[name.lower()]
    if variant == "F4":
        return groups.f4(), rest
    if not rest:
        raise UsageError(f"{variant} needs the integer parameter n")
    try:
        n = int(rest[0])
        fam = GroupFamily(variant, n)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return fam, rest[1:]


def parse_label(family: GroupFamily, token: str) -> ktypes.KTypeLabel:
    body = token.lstrip("YV")
    try:
        coords = tuple(int(p) for p in body.split(","))
        return ktypes.KTypeLabel(family, coords)
    except ValueError as exc:
        raise UsageError(f"bad label {token!r} for {family}: {exc}") from None


def _seed(token: str) -> int:
    try:
        value = int(token)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"seed must be a nonnegative integer, got {token!r}")


def _tolerance(token: str) -> float:
    try:
        value = float(token)
        if math.isfinite(value) and value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"tolerance must be a finite nonnegative number, got {token!r}")


def parse_rational(token: str) -> Fraction:
    try:
        value = Fraction(token)
        str(value)  # reports render it; too many digits raises ValueError here
        return value
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad rational {token!r}") from None


class Report:
    def __init__(self, command: str, inputs: dict):
        self.command = command
        self.inputs = _fmt(inputs)
        self.results: dict = {}
        self.checks: list[dict] = []

    def result(self, key, value):
        self.results[key] = _fmt(value)

    def check(self, check_id: str, ok: bool | None, instance: str = ""):
        status = "n/a" if ok is None else ("pass" if ok else "fail")
        self.checks.append({"id": check_id, "instance": instance, "status": status})

    @property
    def status(self) -> str:
        if not self.checks:
            return "n/a"
        return "fail" if any(c["status"] == "fail" for c in self.checks) else "pass"

    def to_dict(self) -> dict:
        return {"command": self.command, "inputs": self.inputs,
                "results": self.results, "checks": self.checks, "status": self.status}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["section", "key", "value"])
        for key in sorted(self.results):
            value = self.results[key]
            if isinstance(value, list):
                for i, item in enumerate(value):
                    writer.writerow(["results", f"{key}[{i}]", json.dumps(item, sort_keys=True)])
            else:
                writer.writerow(["results", key, json.dumps(value, sort_keys=True)])
        for c in self.checks:
            writer.writerow(["checks", f"{c['id']}:{c['instance']}", c["status"]])
        writer.writerow(["status", "", self.status])
        return buf.getvalue()


# -- subcommands ---------------------------------------------------------------


def cmd_structure(family: GroupFamily) -> Report:
    rep = Report("structure", {"family": str(family)})
    sd = groups.structural_data(family)
    rep.result("m_alpha", sd.m_alpha)
    rep.result("m_2alpha", sd.m_2alpha)
    rep.result("rho_H", sd.rho_H)
    rep.result("dim_p", sd.dim_p)
    rep.result("sphere_dim", sd.sphere_dim)
    c, d = groups.FAMILY_SPECS[family.variant].shift
    shift = ("ell" if c == 1 else f"{c} ell") + (f" - {-d}" if d else "")
    rep.result("exceptional_closed_form", f"mu_ell(H) = -rho(H) - ({shift})")
    rep.result("first_exceptional", [m.mu_H for m in groups.exceptional_params(family, 4)])
    rep.check("structure-consistency",
              sd.rho_H == Fraction(sd.m_alpha, 2) + sd.m_2alpha
              and sd.dim_p == sd.m_alpha + sd.m_2alpha + 1
              and sd.sphere_dim == sd.dim_p - 1, str(family))
    return rep


def cmd_exceptional(family: GroupFamily, count: int) -> Report:
    rep = Report("exceptional", {"family": str(family), "count": count})
    closed = [m.mu_H for m in groups.exceptional_params(family, count)]
    lower = closed[-1]
    scanned = sorted(groups.exceptional_in_interval(family, lower), reverse=True)
    rep.result("closed_form", closed)
    rep.result("gamma_pole_scan", scanned)
    rep.check("exceptional-dual-route", closed == scanned, str(family))
    return rep


def _socle_condition(family: GroupFamily, ell: int) -> str:
    lo = ell + 1
    if family.variant == "SO":
        return f"|k| >= {lo}" if family.n == 2 else f"k >= {lo}"
    if family.variant == "SU":
        return f"p >= {lo} and q >= {lo}"
    if family.variant == "Sp":
        return f"a >= b >= {lo}"
    return f"m - k >= {2 * ell + 2} and m = k mod 2"


def cmd_socle(family: GroupFamily, ell: int) -> Report:
    rep = Report("socle", {"family": str(family), "ell": ell})
    mu = groups.exceptional_mu(family, ell)
    rep.result("mu_H", mu.mu_H)
    rep.result("casimir", ktypes.casimir_scalar(family, mu))
    rep.result("socle_condition", _socle_condition(family, ell))
    closed = ktypes.minimal_ktype_closed(family, ell)
    rep.result("minimal_ktype_closed_form", closed)
    if family.variant == "SO" and family.n == 2:
        rep.result("note", "two discrete-series constituents; labels come in +- pairs")
    searched = ktypes.minimal_ktype(family, ell)
    rep.result("minimal_ktype_search", searched)
    rep.result("minimal_ktype_dim", ktypes.weyl_dim(family, searched))
    rep.check("minimal-ktype-agreement", searched == closed, f"{family} ell={ell}")
    rec = ktypes.langlands(family, ell)
    rep.result("langlands", {
        "S": rec.S, "tempered": rec.tempered, "discrete_series": rec.discrete_series,
        "limit_of_discrete_series": rec.limit_of_discrete_series,
        "nu_H": rec.nu_H, "omega": rec.omega_expr,
    })
    return rep


def cmd_tensor(family: GroupFamily, lab: ktypes.KTypeLabel) -> Report:
    rep = Report("tensor", {"family": str(family), "label": str(lab)})
    try:
        dec = tensor.racah_speiser(family, lab)
    except UnsupportedFamilyError as exc:
        raise UsageError(f"unsupported: {exc}") from None
    rows = []
    total = 0
    for s in dec.summands:
        dim = ktypes.weyl_dim(family, s.weight)
        total += s.multiplicity * dim
        rows.append({"weight": list(s.weight), "multiplicity": s.multiplicity,
                     "m_spherical": s.m_spherical,
                     "label": str(s.label) if s.label else None, "dim": dim})
    rep.result("summands", rows)
    expected = tensor.expected_summand_labels(family, lab)
    dim_p = groups.structural_data(family).dim_p
    rep.result("dim_p_times_dim", dim_p * ktypes.weyl_dim(family, lab))
    rep.result("summand_dim_total", total)
    rep.check("tensor-dimension-sum", tensor.dimension_sum_check(family, lab), str(lab))
    rep.check("tensor-multiplicity-free", all(s.multiplicity == 1 for s in dec.summands), str(lab))
    rep.check("tensor-closed-form", dec.weights() == expected, str(lab))
    return rep


def cmd_scalars(family: GroupFamily, v: ktypes.KTypeLabel, y: ktypes.KTypeLabel,
                mu: Fraction) -> Report:
    rep = Report("scalars", {"family": str(family), "V": str(v), "Y": str(y), "mu_H": mu})
    try:
        lam = spherical.lambda_scalar(family, v, y)
    except UnsupportedFamilyError as exc:
        raise UsageError(f"unsupported: {exc}") from None
    rep.result("lambda", lam)
    if lam == 0:
        rep.result("nu", Fraction(0))
        rep.result("T", Fraction(0))
        rep.result("note", "pair is not omega-related; all scalars vanish")
        return rep
    rep.result("nu", scalars.nu_scalar(family, v, y))
    rep.result("T", scalars.t_scalar(family, v, y, SpectralParam(mu)))
    rep.result("T_root_mu_H", scalars.t_root(family, v, y))
    return rep


# -- verification sweeps ---------------------------------------------------------


def _tensor_families():
    fams = [groups.so(n) for n in range(3, 9)] + [groups.su(n) for n in range(2, 6)]
    fams += [groups.sp(n) for n in range(2, 5)] + [groups.f4()]
    return fams


def verify_groups(rep: Report, depth: int, tolerance: float, seed: int):
    bound = 10 * depth
    fams = ([groups.so(n) for n in range(2, 11)] + [groups.su(n) for n in range(2, 9)]
            + [groups.sp(n) for n in range(2, 7)] + [groups.f4()])
    for fam in fams:
        scanned = groups.exceptional_in_interval(fam, Fraction(-bound))
        closed = []
        ell = 0
        while True:
            mu = groups.exceptional_mu(fam, ell).mu_H
            if mu < -bound:
                break
            if mu <= 0:
                closed.append(mu)
            ell += 1
        rep.check("exceptional-dual-route", sorted(scanned) == sorted(closed), str(fam))
        sd = groups.structural_data(fam)
        rep.check("rho-bookkeeping", 2 * sd.rho_H == sd.m_alpha + 2 * sd.m_2alpha, str(fam))


def verify_tensor(rep: Report, depth: int, tolerance: float, seed: int):
    for fam in _tensor_families():
        ok_closed = ok_dim = ok_free = ok_sym = True
        decs = {}
        for lab in ktypes.labels(fam, depth):
            dec = tensor.racah_speiser(fam, lab)
            decs[lab] = dec
            ok_closed &= dec.weights() == tensor.expected_summand_labels(fam, lab)
            ok_dim &= tensor.dimension_sum_check(fam, lab)
            ok_free &= all(s.multiplicity == 1 for s in dec.summands)
        for lab, dec in decs.items():
            for s in dec.summands:
                other = s.label
                if other is not None and other in decs:
                    ok_sym &= ktypes.highest_weight(lab) in decs[other].weights()
        rep.check("tensor-closed-form", ok_closed, str(fam))
        rep.check("tensor-dimension-sum", ok_dim, str(fam))
        rep.check("tensor-multiplicity-free", ok_free, str(fam))
        rep.check("tensor-adjacency-symmetry", ok_sym, str(fam))
        rank = {"SO": (fam.n or 0) // 2, "SU": fam.n, "Sp": (fam.n or 0) + 1, "F4": 4}[fam.variant]
        if rank <= 4:
            ok_oracle = True
            for lab in ktypes.labels(fam, min(depth, 4)):
                ok_oracle &= (tensor.character_oracle(fam, lab).weights()
                              == decs.get(lab, tensor.racah_speiser(fam, lab)).weights())
            rep.check("tensor-character-oracle", ok_oracle, str(fam))


def verify_spherical(rep: Report, depth: int, tolerance: float, seed: int):
    for fam in _tensor_families():
        ok_identity = ok_sum = ok_rec = ok_adj = True
        for lab in ktypes.labels(fam, depth):
            row = spherical.omega_h_expand(fam, lab)
            ok_sum &= sum(c for _, c in row.terms) == 1 and all(c >= 0 for _, c in row.terms)
            ok_identity &= spherical.verify_omega_identity(fam, lab)
            for tgt, lam in row.terms:
                ok_rec &= (lam * ktypes.weyl_dim(fam, lab)
                           == spherical.lambda_scalar(fam, tgt, lab) * ktypes.weyl_dim(fam, tgt))
        for lab in ktypes.labels(fam, min(depth, 8)):
            dec = tensor.racah_speiser(fam, lab)
            neighbours = {t for t, _ in spherical.omega_h_expand(fam, lab).terms}
            spherical_summands = dec.spherical_labels()
            if fam.variant == "SO" and fam.n == 3:
                spherical_summands = spherical_summands - {lab}
            ok_adj &= neighbours == spherical_summands
        rep.check("omega-recurrence-identity", ok_identity, str(fam))
        rep.check("lambda-row-convexity", ok_sum, str(fam))
        rep.check("lambda-dim-reciprocity", ok_rec, str(fam))
        rep.check("omega-vs-tensor-adjacency", ok_adj, str(fam))


def verify_scalars(rep: Report, depth: int, tolerance: float, seed: int):
    for fam in _tensor_families():
        rep.check("scalar-vanishing-table", scalars.vanishing_table_check(fam, depth), str(fam))
        (triv,) = ktypes.labels(fam, 0)
        ok_root = all(scalars.t_root(fam, y, triv) == groups.rho_H(fam)
                      for y, _ in spherical.omega_h_expand(fam, triv).terms)
        rep.check("trivial-route-root-at-rho", ok_root, str(fam))
    for fam in [groups.su(2), groups.su(3), groups.sp(2), groups.sp(3), groups.f4()]:
        ok_growth = True
        for ell in range(4):
            for steps in (1, 7, min(40, 4 * depth)):
                product, closed = scalars.growth_product(fam, ell, steps)
                ok_growth &= product == closed
        rep.check("growth-product-closed-form", ok_growth, str(fam))
        rep.check("growth-order",
                  scalars.growth_order_estimate(fam, 1) == scalars.growth_order_stated(fam, 1),
                  str(fam))


def verify_so_model(rep: Report, depth: int, tolerance: float, seed: int):
    for n in (3, 4, 5):
        ok_l2 = all(so_model.zonal_l2_norm(n, k)
                    == Fraction(1, ktypes.weyl_dim(groups.so(n), ktypes.label(groups.so(n), k)))
                    for k in range(min(depth, 8) + 1))
        rep.check("zonal-l2-inverse-dim", ok_l2, f"n={n}")
        ok_harm = all(so_model.harmonic_extension_is_harmonic(n, k) for k in range(depth + 1))
        rep.check("zonal-harmonicity", ok_harm, f"n={n}")
    for n in (3, 4, 5):
        err = so_model.iwasawa_roundtrip_error(n, samples=100, seed=seed)
        rep.check("iwasawa-roundtrip", err <= 1e-9, f"n={n} err={err:.2e}")
    rep.check("reproducing-exact",
              all(so_model.reproducing_check(3, k, so_model.pythagorean_rotation(3, 0, 1))
                  for k in range(min(depth, 6) + 1)), "n=3")
    mus = [Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)]
    worst = 0.0
    for n in (3, 4):
        for k in range(min(depth, 3) + 1):
            for mu in mus:
                report = so_model.verify_intertwining(n, k, SpectralParam(mu), seed=seed)
                worst = max(worst, report.residual, report.gradient_h_residual)
    rep.result("intertwining_max_residual", f"{worst:.3e}")
    rep.check("intertwining-residual", worst <= tolerance, f"max={worst:.2e}")
    vanish = max(so_model.exceptional_vanishing_residual(n, ell, seed=seed)
                 for n in (3, 4) for ell in (0, 1, 2))
    rep.check("exceptional-coefficient-vanishing", vanish <= tolerance, f"max={vanish:.2e}")
    rep.check("bracket-half-sum", all(so_model.check_2rho(n) for n in range(2, 7)), "n=2..6")


# every suite takes (report, depth, tolerance, seed)
SUITES = {
    "groups": verify_groups,
    "tensor": verify_tensor,
    "spherical": verify_spherical,
    "scalars": verify_scalars,
    "so-model": verify_so_model,
}


def cmd_verify(suite: str, depth: int, tolerance: float, seed: int) -> Report:
    rep = Report("verify", {"suite": suite, "depth": depth,
                            "tolerance": tolerance, "seed": seed})
    names = list(SUITES) if suite == "all" else [suite]
    for name in names:
        SUITES[name](rep, depth, tolerance, seed)
    rep.result("checks_total", len(rep.checks))
    rep.result("checks_failed", sum(1 for c in rep.checks if c["status"] == "fail"))
    return rep


# -- argument parsing ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", help="write the report to this file instead of stdout")
    common.add_argument("--seed", type=_seed, default=0, help="sampling seed (so-model)")
    common.add_argument("--tolerance", type=_tolerance, default=1e-5,
                        help="numerical tolerance (so-model)")

    parser = argparse.ArgumentParser(
        prog="rankone",
        description="Exact structural data, K-type lattices, tensor decompositions "
                    "and intertwining scalars of the rank-one groups, with a "
                    "numerical SO(n,1) verification model.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("structure", parents=[common],
                       help="root multiplicities and derived constants")
    p.add_argument("params", nargs="+")

    p = sub.add_parser("exceptional", parents=[common],
                       help="exceptional parameters via both routes")
    p.add_argument("params", nargs="+")
    p.add_argument("--count", type=int, default=8)

    p = sub.add_parser("socle", parents=[common],
                       help="socle data at the ell-th exceptional parameter")
    p.add_argument("params", nargs="+")
    p.add_argument("--ell", type=int, default=0)

    p = sub.add_parser("tensor", parents=[common], help="decompose a K-type tensored with p")
    p.add_argument("params", nargs="+", help="family [n] label")

    p = sub.add_parser("scalars", parents=[common],
                       help="lambda, nu and T for a pair of K-types")
    p.add_argument("params", nargs="+", help="family [n] V Y")
    p.add_argument("--mu", default="0", help="mu(H) as an exact rational")

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("suite", choices=("all",) + tuple(SUITES))
    p.add_argument("--depth", type=int, default=6)
    return parser


def _dispatch(args) -> Report:
    if args.command == "verify":
        if args.depth < 1:
            raise UsageError("depth must be positive")
        return cmd_verify(args.suite, args.depth, args.tolerance, args.seed)
    family, rest = parse_family(args.params)
    if args.command == "structure":
        if rest:
            raise UsageError(f"unexpected arguments {rest}")
        return cmd_structure(family)
    if args.command == "exceptional":
        if rest:
            raise UsageError(f"unexpected arguments {rest}")
        if args.count < 1:
            raise UsageError("count must be positive")
        return cmd_exceptional(family, args.count)
    if args.command == "socle":
        if rest:
            raise UsageError(f"unexpected arguments {rest}")
        if args.ell < 0:
            raise UsageError("ell must be nonnegative")
        return cmd_socle(family, args.ell)
    if args.command == "tensor":
        if len(rest) != 1:
            raise UsageError("tensor needs exactly one label")
        return cmd_tensor(family, parse_label(family, rest[0]))
    if args.command == "scalars":
        if len(rest) != 2:
            raise UsageError("scalars needs two labels V Y")
        v = parse_label(family, rest[0])
        y = parse_label(family, rest[1])
        return cmd_scalars(family, v, y, parse_rational(args.mu))
    raise UsageError(f"unknown command {args.command}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = _dispatch(args)
    except UsageError as exc:
        parser.exit(2, f"error: {exc}\n")
    text = report.to_csv() if args.format == "csv" else report.to_json() + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 1 if report.status == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())

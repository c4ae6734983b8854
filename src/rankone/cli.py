"""Command line front end: every computation as a deterministic, machine-readable report.

Subcommands: structure, exceptional, socle, tensor, scalars, verify.  Reports
are JSON documents (rationals rendered exactly as num/den strings, never as
floats) or CSV tables for sweeps; `verify` exits 0 only if every check passes.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import re
import sys
from collections.abc import Callable, Iterable
from fractions import Fraction

from . import groups, ktypes, scalars, so_model, spherical, tensor
from .groups import GroupFamily, SpectralParam, UnsupportedFamilyError


class UsageError(ValueError):
    pass


# one encoder for every scalar of a report, JSON or CSV; json.dumps would
# build a new one per call
_CELL_ENCODER = json.JSONEncoder(sort_keys=True)
_encode_str = json.encoder.encode_basestring_ascii


# An int of at most this many bits has fewer than 640 decimal digits, the least
# value `sys.set_int_max_str_digits` accepts, so it always renders.
_INT_STR_SAFE_BITS = 2000


def _all_str(items) -> bool:
    # isinstance(item, str) for every item, without a Python-level loop
    return all(map(str.__instancecheck__, items))


def _fmt(value):
    """Exact, JSON-friendly rendering; rationals become strings."""
    # str and int first: most values are already rendered or plain integers,
    # and the isinstance test against Fraction (an ABC) is the slow one
    if isinstance(value, (str, float)) or value is None:
        return value
    if isinstance(value, int):
        if value.bit_length() > _INT_STR_SAFE_BITS:
            str(value)  # more digits than int-to-str conversion allows raises ValueError here
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, ktypes.KTypeLabel):
        return str(value)
    if type(value) in (list, tuple):
        # exact types: a record (a NamedTuple) renders through str below;
        # an already rendered list is copied in C
        return list(value) if _all_str(value) else [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _fmt(v) for k, v in value.items()}
    return str(value)


def _emit(value, pad: str) -> str:
    """The bytes of `json.dumps(value, indent=2, sort_keys=True)` for a report
    value with str keys, `pad` being the indent of the line value starts on.

    json's indented encoder is pure Python; here every scalar goes through
    the C encoder and a list of strings is one join.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        body = (",\n" + inner).join([f"{_encode_str(k)}: {_emit(v, inner)}"
                                      for k, v in sorted(value.items())])
        return f"{{\n{inner}{body}\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        items = map(_encode_str, value) if _all_str(value) else [_emit(v, inner) for v in value]
        body = (",\n" + inner).join(items)
        return f"[\n{inner}{body}\n{pad}]"
    return _CELL_ENCODER.encode(value)


def _half(t: int) -> str:
    """t/2 rendered as `_fmt` renders the Fraction t/2."""
    return str(t // 2) if t % 2 == 0 else f"{t}/2"


# an integer argument: ASCII digits with at most one leading minus; int() alone
# also reads underscores, a plus sign, surrounding whitespace and non-ASCII digits
_INTEGER = re.compile(r"-?[0-9]+")


def _ascii_int(token: str) -> int:
    if not _INTEGER.fullmatch(token):
        raise ValueError(f"expected an integer of ASCII digits, got {token!r}")
    return int(token)


# argparse names the type in its "invalid int value" message
_ascii_int.__name__ = "int"


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
        n = _ascii_int(rest[0])
        fam = GroupFamily(variant, n)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return fam, rest[1:]


# label coordinates: ASCII digits with at most one leading minus, comma-separated
_LABEL_COORDS = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")


def parse_label(family: GroupFamily, token: str) -> ktypes.KTypeLabel:
    # at most one leading letter, the family's own: Y or V as reports print it
    body = token[1:] if token[:1] == ktypes.lattice(family).spec.letter else token
    if not _LABEL_COORDS.fullmatch(body):
        raise UsageError(f"bad label {token!r} for {family}: "
                         "expected comma-separated integer coordinates")
    try:
        return ktypes.KTypeLabel(family, tuple(int(p) for p in body.split(",")))
    except ValueError as exc:
        raise UsageError(f"bad label {token!r} for {family}: {exc}") from None


def _seed(token: str) -> int:
    try:
        value = _ascii_int(token)
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


# a rational argument: an ASCII integer, a/b, or a decimal with an optional
# exponent, with at most one leading minus; Fraction() alone also reads
# underscores, a plus sign, surrounding whitespace and non-ASCII digits
_RATIONAL = re.compile(r"-?(?:[0-9]+/[0-9]+|([0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE]([-+]?[0-9]+))?)")


def parse_rational(token: str) -> Fraction:
    match = _RATIONAL.fullmatch(token)
    if match:
        try:
            # Fraction builds 10**|e| first, seconds at 10**7; past the digit limit
            # plus the mantissa's digits a nonzero value has too many to render
            limit = sys.get_int_max_str_digits()
            exponent = abs(int(match[2] or 0))
            if not limit or exponent <= limit + len((match[1] or "").replace(".", "")):
                value = Fraction(token)
                str(value)  # reports render it; too many digits raises ValueError here
                return value
        except (ValueError, ZeroDivisionError):
            pass
    raise UsageError(f"bad rational {token!r}")


# csv.writer(lineterminator="\n") quotes a field iff it holds the delimiter, the
# quote character or the line terminator (a lone "\r" stays bare), and doubles
# the quotes inside it
_CSV_QUOTED = re.compile(r'[,"\n]')


def _csv_cell(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if _CSV_QUOTED.search(text) else text


# what a computation raises when it breaks one of the library's own invariants
INTERNAL_FAULTS = (tensor.AlgorithmViolation, AssertionError)


class Report:
    def __init__(self, command: str, inputs: dict):
        self.command = command
        self.inputs = _fmt(inputs)
        self.results: dict = {}
        self.checks: list[dict] = []

    def result(self, key, value):
        try:
            rendered = _fmt(value)
        except ValueError:  # more digits than int-to-str conversion allows
            raise UsageError(f"result {key} has too many digits to render") from None
        self.results[key] = rendered

    def check(self, check_id: str, ok: bool, instance: str):
        self.checks.append({"id": check_id, "instance": instance,
                            "status": "pass" if ok else "fail"})

    def check_each(self, check_id: str, instance: str, cases: Iterable, holds: Callable):
        """One check that passes iff holds(case) is true for every case.

        Every case is tried, also after a failing one.  A case whose
        computation breaks one of the library's own invariants (it raises
        AlgorithmViolation or AssertionError) fails, and the run goes on;
        any other exception propagates.
        """
        ok = True
        for case in cases:
            try:
                ok = bool(holds(case)) and ok
            except INTERNAL_FAULTS:
                ok = False
        self.check(check_id, ok, instance)

    @property
    def status(self) -> str:
        if not self.checks:
            return "n/a"
        return "fail" if any(c["status"] == "fail" for c in self.checks) else "pass"

    def to_dict(self) -> dict:
        return {"command": self.command, "inputs": self.inputs,
                "results": self.results, "checks": self.checks, "status": self.status}

    def to_json(self) -> str:
        return _emit(self.to_dict(), "")

    def to_csv(self) -> str:
        """The rows (section, key, value) as csv.writer(lineterminator="\n")
        writes them, without its per-cell work: each value is JSON-encoded."""
        rows = ["section,key,value"]
        for key in sorted(self.results):
            value = self.results[key]
            if isinstance(value, list):
                # "[", "]" and digits are never quoted, so key[i] is quoted iff key is
                quote = '"' if _CSV_QUOTED.search(key) else ""
                stem = "results," + quote + key.replace('"', '""')
                if value and _all_str(value):
                    # JSON-encoded strings hold no newline, so one pass doubles the
                    # quotes of them all; each starts with a quote, so is quoted
                    doubled = "\n".join(map(_encode_str, value)).replace('"', '""')
                    rows += [f'{stem}[{i}]{quote},"{cell}"'
                             for i, cell in enumerate(doubled.split("\n"))]
                else:
                    cells = map(_csv_cell, map(_CELL_ENCODER.encode, value))
                    rows += [f"{stem}[{i}]{quote},{cell}" for i, cell in enumerate(cells)]
            else:
                rows.append(f"results,{_csv_cell(key)},{_csv_cell(_CELL_ENCODER.encode(value))}")
        rows += [f"checks,{_csv_cell(c['id'] + ':' + c['instance'])},{c['status']}"
                 for c in self.checks]
        rows.append(f"status,,{self.status}\n")
        return "\n".join(rows)


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
    rep.result("first_exceptional", list(map(_half, groups.exceptional_doubled(family, 4))))
    rep.check("structure-consistency",
              sd.rho_H == Fraction(sd.m_alpha, 2) + sd.m_2alpha
              and sd.dim_p == sd.m_alpha + sd.m_2alpha + 1
              and sd.sphere_dim == sd.dim_p - 1, str(family))
    return rep


def cmd_exceptional(family: GroupFamily, count: int) -> Report:
    rep = Report("exceptional", {"family": str(family), "count": count})
    # both routes run on the integers t = 2 mu(H); each value renders once
    closed = groups.exceptional_doubled(family, count)
    scanned = groups.exceptional_in_interval(family, closed[-1])[::-1]
    closed_text = list(map(_half, closed))
    rep.result("closed_form", closed_text)
    rep.result("gamma_pole_scan",
               closed_text if scanned == closed else list(map(_half, scanned)))
    rep.check("exceptional-dual-route", closed == scanned, str(family))
    return rep


def cmd_socle(family: GroupFamily, ell: int) -> Report:
    rep = Report("socle", {"family": str(family), "ell": ell})
    mu = groups.exceptional_mu(family, ell)
    rep.result("mu_H", mu.mu_H)
    rep.result("casimir", ktypes.casimir_scalar(family, mu))
    rep.result("socle_condition", ktypes.socle_condition(family, ell))
    closed = ktypes.minimal_ktype_closed(family, ell)
    rep.result("minimal_ktype_closed_form", closed)
    if ktypes.lattice(family).spec.signed:
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
    except INTERNAL_FAULTS:  # a report with the failed label, as check_each gives in verify
        rep.check("tensor-racah-speiser", False, str(lab))
        return rep
    rows = []
    total = 0
    for s in dec.summands:
        dim = ktypes.weyl_dim(family, s.weight)
        total += s.multiplicity * dim
        rows.append({"weight": [_half(t) for t in s.weight], "multiplicity": s.multiplicity,
                     "m_spherical": s.label is not None,
                     "label": str(s.label) if s.label else None, "dim": dim})
    rep.result("summands", rows)
    expected = tensor.expected_summand_labels(family, lab)
    dim_p_times_dim = groups.structural_data(family).dim_p * ktypes.weyl_dim(family, lab)
    rep.result("dim_p_times_dim", dim_p_times_dim)
    rep.result("summand_dim_total", total)
    rep.check("tensor-dimension-sum", total == dim_p_times_dim, str(lab))
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
    rep.result("nu", scalars.nu_scalar(family, v, y, lam))
    rep.result("T", scalars.t_scalar(family, v, y, SpectralParam(mu), lam))
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
        # 2 mu_ell(H) <= 0 falls by at least 2 per step, so the first bound + 1
        # parameters hold every one in [-2 bound, 0]
        closed = [t for t in groups.exceptional_doubled(fam, bound + 1) if t >= -2 * bound]
        rep.check_each("exceptional-dual-route", str(fam), [fam],
                       lambda f: groups.exceptional_in_interval(f, -2 * bound)[::-1] == closed)
        rep.check_each("rho-bookkeeping", str(fam), [groups.structural_data(fam)],
                       lambda sd: 2 * sd.rho_H == sd.m_alpha + 2 * sd.m_2alpha)


def verify_tensor(rep: Report, depth: int, tolerance: float, seed: int):
    for fam in _tensor_families():
        decs = {}  # the labels that decompose, each with its decomposition

        def closed_form(lab):
            dec = decs[lab] = tensor.racah_speiser(fam, lab)
            return dec.weights() == tensor.expected_summand_labels(fam, lab)

        rep.check_each("tensor-closed-form", str(fam), ktypes.labels(fam, depth), closed_form)
        rep.check_each("tensor-dimension-sum", str(fam), decs.values(),
                       tensor.dimension_sum_check)
        rep.check_each("tensor-multiplicity-free", str(fam), decs.values(),
                       lambda dec: all(s.multiplicity == 1 for s in dec.summands))
        rep.check_each("tensor-adjacency-symmetry", str(fam),
                       [(dec, s.label) for dec in decs.values() for s in dec.summands
                        if s.label in decs],
                       lambda pair: pair[0].source in decs[pair[1]].weights())
        rank = {"SO": (fam.n or 0) // 2, "SU": fam.n, "Sp": (fam.n or 0) + 1, "F4": 4}[fam.variant]
        if rank <= 4:
            # labels at min(depth, 4) are a subset of those at depth; a label
            # that did not decompose has nothing to compare, so it fails
            rep.check_each("tensor-character-oracle", str(fam), ktypes.labels(fam, min(depth, 4)),
                           lambda lab: lab in decs and (tensor.character_oracle(fam, lab).weights()
                                                        == decs[lab].weights()))


def verify_spherical(rep: Report, depth: int, tolerance: float, seed: int):
    for fam in _tensor_families():
        row = functools.partial(spherical.omega_h_expand, fam)
        dim = functools.cache(functools.partial(ktypes.weyl_dim, fam))
        labs = ktypes.labels(fam, depth)
        rep.check_each("omega-recurrence-identity", str(fam), labs,
                       lambda lab: spherical.verify_omega_identity(fam, lab, row(lab)))
        rep.check_each("lambda-row-convexity", str(fam), labs,
                       lambda lab: spherical.row_is_convex(row(lab)))

        def reciprocity(lab):
            row_v, dim_v = row(lab), dim(lab)
            return all(spherical.lambda_dim_reciprocal(row_v, row(tgt), dim_v, dim(tgt))
                       for tgt, _ in row_v.nums)

        rep.check_each("lambda-dim-reciprocity", str(fam), labs, reciprocity)

        def adjacency(lab):
            spherical_summands = tensor.racah_speiser(fam, lab).spherical_labels()
            if fam.variant == "SO" and fam.n == 3:
                spherical_summands = spherical_summands - {lab}
            return {t for t, _ in row(lab).nums} == spherical_summands

        rep.check_each("omega-vs-tensor-adjacency", str(fam), ktypes.labels(fam, min(depth, 8)),
                       adjacency)


def verify_scalars(rep: Report, depth: int, tolerance: float, seed: int):
    for fam in _tensor_families():
        rep.check_each("scalar-vanishing-table", str(fam), [depth],
                       functools.partial(scalars.vanishing_table_check, fam))
        (triv,) = ktypes.labels(fam, 0)
        two_rho = groups.two_rho_H(fam)
        rep.check_each("trivial-route-root-at-rho", str(fam), [triv],
                       lambda t: all(-two_rho - two_r == two_rho
                                     for _, y, _, _, two_r in scalars.edges(fam, 1) if y == t))
    for fam in [groups.su(2), groups.su(3), groups.sp(2), groups.sp(3), groups.f4()]:
        rep.check_each("growth-product-closed-form", str(fam),
                       [(ell, steps) for ell in range(4) for steps in (1, 7, min(40, 4 * depth))],
                       lambda case: operator.eq(*scalars.growth_product(fam, *case)))
        rep.check_each("growth-order", str(fam), [1],
                       lambda ell: (scalars.growth_order(fam, ell)
                                    == scalars.growth_order_stated(fam, ell)))


def _or_inf(measure: Callable[..., float], *args) -> float:
    """measure(*args), or inf when so_model.iwasawa refuses a matrix of the
    Lorentz model (ValueError: outside the identity component or its K A N
    chart), so that the measured check fails and the suite goes on."""
    try:
        return measure(*args)
    except ValueError:
        return math.inf


def _intertwining_residual(n: int, k: int, mu: Fraction, seed: int) -> float:
    report = so_model.verify_intertwining(n, k, SpectralParam(mu), seed)
    return max(report.residual, report.gradient_h_residual)


def verify_so_model(rep: Report, depth: int, tolerance: float, seed: int):
    for n in (3, 4, 5):
        fam = groups.so(n)
        rep.check_each("zonal-l2-inverse-dim", f"n={n}", range(min(depth, 8) + 1),
                       lambda k: (so_model.zonal_l2_norm(n, k)
                                  == Fraction(1, ktypes.weyl_dim(fam, ktypes.label(fam, k)))))
        rep.check_each("zonal-harmonicity", f"n={n}", range(depth + 1),
                       functools.partial(so_model.harmonic_extension_is_harmonic, n))
    for n in (3, 4, 5):
        err = _or_inf(so_model.iwasawa_roundtrip_error, n, seed)
        rep.check("iwasawa-roundtrip", err <= 1e-9, f"n={n} err={err:.2e}")
    rotation = so_model.pythagorean_rotation(3, 0, 1)
    rep.check_each("reproducing-exact", "n=3", range(min(depth, 6) + 1),
                   lambda k: so_model.reproducing_check(3, k, rotation))
    mus = [Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)]
    worst = max(_or_inf(_intertwining_residual, n, k, mu, seed)
                for n in (3, 4) for k in range(min(depth, 3) + 1) for mu in mus)
    rep.result("intertwining_max_residual", f"{worst:.3e}")
    rep.check("intertwining-residual", worst <= tolerance, f"max={worst:.2e}")
    vanish = max(_or_inf(so_model.exceptional_vanishing_residual, n, ell, seed)
                 for n in (3, 4) for ell in (0, 1, 2))
    rep.check("exceptional-coefficient-vanishing", vanish <= tolerance, f"max={vanish:.2e}")
    rep.check_each("bracket-half-sum", "n=2..6", range(2, 7), so_model.check_2rho)


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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="write the report to this file instead of stdout")
    p.add_argument("--seed", type=_seed, default=0, help="sampling seed (so-model)")
    p.add_argument("--tolerance", type=_tolerance, default=1e-5,
                   help="numerical tolerance (so-model)")


def _args_structure(p: argparse.ArgumentParser) -> None:
    p.add_argument("params", nargs="+")


def _args_exceptional(p: argparse.ArgumentParser) -> None:
    p.add_argument("params", nargs="+")
    p.add_argument("--count", type=_ascii_int, default=8)


def _args_socle(p: argparse.ArgumentParser) -> None:
    p.add_argument("params", nargs="+")
    p.add_argument("--ell", type=_ascii_int, default=0)


def _args_tensor(p: argparse.ArgumentParser) -> None:
    p.add_argument("params", nargs="+", help="family [n] label")


def _args_scalars(p: argparse.ArgumentParser) -> None:
    p.add_argument("params", nargs="+", help="family [n] V Y")
    p.add_argument("--mu", default="0", help="mu(H) as an exact rational")


def _args_verify(p: argparse.ArgumentParser) -> None:
    p.add_argument("suite", choices=("all",) + tuple(SUITES))
    p.add_argument("--depth", type=_ascii_int, default=6)


# subcommand -> (its line in `rankone -h`, adds its own arguments after the common ones)
COMMANDS = {
    "structure": ("root multiplicities and derived constants", _args_structure),
    "exceptional": ("exceptional parameters via both routes", _args_exceptional),
    "socle": ("socle data at the ell-th exceptional parameter", _args_socle),
    "tensor": ("decompose a K-type tensored with p", _args_tensor),
    "scalars": ("lambda, nu and T for a pair of K-types", _args_scalars),
    "verify": ("run a verification suite", _args_verify),
}


def _add_arguments(p: argparse.ArgumentParser, name: str) -> None:
    _add_common(p)
    COMMANDS[name][1](p)


def build_parser() -> argparse.ArgumentParser:
    """The full parser, with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="rankone",
        description="Exact structural data, K-type lattices, tensor decompositions "
                    "and intertwining scalars of the rank-one groups, with a "
                    "numerical SO(n,1) verification model.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


@functools.cache
def _subcommand_parser(name: str) -> argparse.ArgumentParser:
    """The parser of subcommand `name` alone, built as the full parser builds
    its subparser and under the same prog, so its help and errors are the same.

    It is built once per process and kept: parsing leaves no state on it
    (parse_known_args returns a new Namespace, every default is immutable and
    no action appends, extends or counts), and its help is wrapped to the
    terminal width when it is printed, not when the parser is built.
    """
    parser = argparse.ArgumentParser(prog=f"rankone {name}")
    _add_arguments(parser, name)
    return parser


def _parse(argv: list[str]) -> tuple[argparse.ArgumentParser, argparse.Namespace]:
    """The parser that read argv, and what it read.

    A command line that names a subcommand is read by that subcommand's own
    parser.  The full parser is built only for what it alone reports: the
    top-level help, a missing or unknown command and tokens left over.  It
    re-reads the whole argv, so those messages are the ones it always printed.
    """
    if argv and argv[0] in COMMANDS:
        name = argv[0]
        parser = _subcommand_parser(name)
        args, extra = parser.parse_known_args(argv[1:])
        if not extra:
            args.command = name
            return parser, args
    parser = build_parser()
    return parser, parser.parse_args(argv)


# Caps on the size arguments, each set so that a query inside them answers in
# about 2 s or less (measured at the slowest family, Sp, on a 2-vCPU host):
# tensor adds each of the ~4n weights of p to a weight of length n, and the Weyl
# dimension of a weight supported on a few coordinates multiplies O(n) factors
# into an integer of O(n) digits.  exceptional costs O(count) at any n, since
# its closed form and its Gamma-pole scan both step through arithmetic
# progressions; its n cap is no time limit, and stays until a report at a
# larger n is pinned by a golden.  scalars reads labels on a K-type lattice of length ~n.
MAX_N = {"exceptional": 100_000, "socle": 10_000, "tensor": 1000, "scalars": 10**6}
MAX_COUNT = 200_000
MAX_ELL = 100  # the minimal-K-type search costs the same at every ell
MAX_DEPTH = 16  # `verify all`, the five suites in turn, is the slowest


def _dispatch(args) -> Report:
    if args.command == "verify":
        if args.depth < 1:
            raise UsageError("depth must be positive")
        if args.depth > MAX_DEPTH:
            raise UsageError(f"depth must be at most {MAX_DEPTH}")
        return cmd_verify(args.suite, args.depth, args.tolerance, args.seed)
    family, rest = parse_family(args.params)
    max_n = MAX_N.get(args.command)
    if max_n is not None and family.n is not None and family.n > max_n:
        raise UsageError(f"n must be at most {max_n} for {args.command}")
    if args.command == "structure":
        if rest:
            raise UsageError(f"unexpected arguments {rest}")
        return cmd_structure(family)
    if args.command == "exceptional":
        if rest:
            raise UsageError(f"unexpected arguments {rest}")
        if args.count < 1:
            raise UsageError("count must be positive")
        if args.count > MAX_COUNT:
            raise UsageError(f"count must be at most {MAX_COUNT}")
        return cmd_exceptional(family, args.count)
    if args.command == "socle":
        if rest:
            raise UsageError(f"unexpected arguments {rest}")
        if args.ell < 0:
            raise UsageError("ell must be nonnegative")
        if args.ell > MAX_ELL:
            raise UsageError(f"ell must be at most {MAX_ELL}")
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


def _attach_negative_mu(argv: list[str]) -> list[str]:
    """Rewrite `--mu -5/2` as `--mu=-5/2`, and its abbreviation `--m -5/2` as `--m=-5/2`.

    argparse takes a token that starts with '-' and is not a plain negative
    decimal (such as -5/2 or -1e-3) for an option, so the separate-token form
    of a negative rational would fail with "expected one argument".
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] in ("--m", "--mu") and re.match(r"-[0-9.]", token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser, args = _parse(_attach_negative_mu(sys.argv[1:] if argv is None else list(argv)))
    try:
        report = _dispatch(args)
    except UsageError as exc:
        parser.exit(2, f"error: {exc}\n")
    text = report.to_csv() if args.format == "csv" else report.to_json() + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            parser.exit(2, f"error: cannot write {args.out}: {exc.strerror}\n")
    else:
        sys.stdout.write(text)
    return 1 if report.status == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point for reproducible verification runs.

Subcommands: verify-facet, verify-lemmas, verify-slack, reduce,
clique-oracle, protocol.  Human-readable lines go to stdout; --json FILE
writes the machine-readable report.  Identical command plus seed yields a
byte-identical report up to the timings field.  Exit status is 0 exactly
when every verdict in the report passes.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import __version__
from .config import Caps, caps_from_config, parse_config
from .errors import QappolyError
from .geometry import (
    MatchPattern,
    check_equality_set,
    check_identity1,
    check_identity2,
    check_s0_connectivity,
    make_identity1_family,
    make_identity2_chain,
    verify_facet,
    verify_s3ss0,
    verify_skasnxt4,
    verify_szeroins,
    vertex_space,
)
from .graphs import max_clique_bruteforce, parse_graph
from .inequalities import (
    Qap1Params,
    Qap2Params,
    Qap3Params,
    Qap4Params,
    Qap5Params,
    build_qap1,
    build_qap2,
    build_qap3,
    build_qap4,
    build_qap5,
    closed_form_slack,
    enumerate_family,
    family_segments,
    slack_table_csv,
)
from .perms import Permutation, require_enumerable
from .protocols import as_bits, hard_matrix_entry, HardMatrixSpec, protocol_n0, slack_protocol
from .reductions import (
    brute_force_membership,
    build_point_qap1,
    build_point_qap2,
    build_point_qap4,
    clique_via_membership_oracle,
)


@dataclass
class RunReport:
    command: str
    parameters: dict
    verdicts: list[dict] = field(default_factory=list)
    seeds: dict = field(default_factory=dict)
    tool_version: str = __version__
    timings: dict = field(default_factory=dict)

    def add(self, name: str, passed: bool, **details):
        self.verdicts.append({"name": name, "passed": bool(passed),
                              "details": details})
        print(f"[{'PASS' if passed else 'FAIL'}] {name}"
              + (f"  {details}" if details else ""))

    @property
    def all_passed(self) -> bool:
        return all(v["passed"] for v in self.verdicts)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2, default=str)


def _ints(flag: str, text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise QappolyError(f"{flag} takes integers, got {text!r}") from None


def _coeff_map(text: str) -> dict:
    # "i,j:v;i,j:v" sparse coefficient notation
    out = {}
    for chunk in filter(None, map(str.strip, text.split(";"))):
        pos, _, val = chunk.partition(":")
        try:
            i, j = _ints("--coeffs", pos)
            value = int(val)
        except ValueError:
            raise QappolyError(f"--coeffs takes 'i,j:v;i,j:v', got {chunk!r}") from None
        if (i, j) in out:
            raise QappolyError(f"--coeffs gives cell {i},{j} more than once")
        out[(i, j)] = value
    return out


def _build_form(args):
    n = args.n
    missing = ["--" + name.replace("_", "-") for name in FACET_OPTIONS[args.family]
               if name != "m" and getattr(args, name) is None]   # qap4's m defaults to n
    if missing:
        raise QappolyError(f"{args.family} needs {', '.join(missing)}")
    if args.family == "qap4":
        m = n if args.m is None else args.m
        return build_qap4(Qap4Params(n=n, i_set=tuple(range(1, m + 1)),
                                     j_set=tuple(range(1, m + 1))))
    if args.family == "qap2":
        return build_qap2(Qap2Params(n=n, p_set=_ints("--P", args.P),
                                     q_set=_ints("--Q", args.Q), beta=args.beta))
    if args.family == "qap3":
        return build_qap3(Qap3Params(n=n, p1_set=_ints("--P1", args.P1),
                                     p2_set=_ints("--P2", args.P2),
                                     q_set=_ints("--Q", args.Q), beta=args.beta))
    if args.family == "qap1":
        return build_qap1(Qap1Params(n=n, i_set=_ints("--i-set", args.i_set),
                                     j_set=_ints("--j-set", args.j_set), k=args.k, l=args.l))
    return build_qap5(Qap5Params(n=n, beta=args.beta, coeffs=_coeff_map(args.coeffs)))


# The options each family, lemma or protocol action reads.
FACET_OPTIONS = {
    "qap1": ("i_set", "j_set", "k", "l"),
    "qap2": ("P", "Q", "beta"),
    "qap3": ("P1", "P2", "Q", "beta"),
    "qap4": ("m",),
    "qap5": ("beta", "coeffs"),
}
REDUCE_OPTIONS = {"qap1": ("k", "l"), "qap2": (), "qap4": ()}
LEMMA_OPTIONS = {"identity1": ("samples",), "identity2": ("samples",),
                 "szeroconn": ("m",), "skasnxt4": ("m", "samples"),
                 "s3ss0": ("m", "samples"), "szeroins": ("m", "samples"),
                 "all": ("m", "samples")}
DEFAULT_LEMMA_SAMPLES = 200
PROTOCOL_OPTIONS = {"n0": ("samples",), "slack": ("family",)}


def _refuse_unread(args, options: dict, variant: str) -> None:
    """Refuse an option that the chosen variant does not read, rather than
    ignore it and record it in the report."""
    unread = sorted({name for names in options.values() for name in names}
                    - set(options[variant]))
    given = ["--" + name.replace("_", "-") for name in unread
             if getattr(args, name) is not None]
    if given:
        raise QappolyError(f"{variant} does not read {', '.join(given)}")


def _require_count(flag: str, value: int) -> None:
    """Refuse a negative count or seed; 0 keeps the meaning each flag documents."""
    if value < 0:
        raise QappolyError(f"{flag} must be >= 0, got {value}")


def _cmd_verify_facet(args, report: RunReport, caps: Caps):
    _refuse_unread(args, FACET_OPTIONS, args.family)
    require_enumerable(args.n, caps.enumeration_cap)
    form = _build_form(args)
    facet = verify_facet(form, args.n, certify=args.certify)
    report.add("validity", True, note="no violating vertex found")
    details = {"polytope_dim": facet.polytope_dim, "tight_dim": facet.tight_dim,
               "tight_count": facet.tight_count,
               "ranks": facet.polytope_rank.ranks,
               # the tight one is None only for an empty tight set
               "certificate": {
                   "polytope": facet.polytope_rank.certificate,
                   "tight": facet.tight_rank and facet.tight_rank.certificate}}
    if args.expect == "valid-only":
        report.add("facet-analysis", True, verdict=facet.verdict, **details)
    else:
        report.add("facet", facet.verdict == "facet", verdict=facet.verdict, **details)
    if args.family == "qap4":
        eq = check_equality_set(form, args.n)
        report.add("equality-set", eq.ok, tight_count=eq.tight_count,
                   sizes_by_k=eq.sizes_by_k)


def _cmd_verify_lemmas(args, report: RunReport, caps: Caps):
    n = args.n
    which = args.which
    _refuse_unread(args, LEMMA_OPTIONS, which)
    if which != "szeroconn":
        if args.samples is None:
            args.samples = report.parameters["samples"] = DEFAULT_LEMMA_SAMPLES
        _require_count("--samples", args.samples)
        if args.samples == 0:
            raise QappolyError("--samples must be >= 1 for a sampled check")
    if n < 5:
        raise QappolyError("lemma checks need n >= 5 (identity chains use "
                           "four or five distinct indices)")
    rng = random.Random(args.seed)
    report.seeds["lemmas"] = args.seed
    pattern = MatchPattern.diagonal(n if args.m is None else args.m)

    if which in ("identity1", "all"):
        failures = 0
        for _ in range(args.samples):
            positions = rng.sample(range(1, n + 1), 5)
            base = Permutation(tuple(rng.sample(range(1, n + 1), n)))
            family = make_identity1_family(base, *positions[:3])
            res = check_identity1(family, positions[3], positions[4])
            failures += not res.is_zero
        report.add("identity1 signed sums vanish", failures == 0,
                   runs=args.samples, failures=failures)
    if which in ("identity2", "all"):
        bad = 0
        for _ in range(args.samples):
            i, j, ip, jp = rng.sample(range(1, n + 1), 4)
            base = Permutation(tuple(rng.sample(range(1, n + 1), n)))
            chain = make_identity2_chain(base, i, j, ip, jp)
            res = check_identity2(*chain, i, j, ip, jp)
            if (res.nonzero_count, res.plus_count, res.minus_count) != (32, 16, 16):
                bad += 1
        report.add("identity2 has 32 nonzeros (16 of each sign)", bad == 0,
                   runs=args.samples, failures=bad)
    if which in ("szeroconn", "all"):
        require_enumerable(n, caps.enumeration_cap)
        res = check_s0_connectivity(n, pattern)
        report.add("S0 transposition graph connected", res.connected,
                   size=res.size, components=res.component_count, status=res.status)
    for lemma, verify, name in (
            ("skasnxt4", verify_skasnxt4, "S_k spans (k>=4)"),
            ("s3ss0", verify_s3ss0, "S_3 span membership"),
            ("szeroins", verify_szeroins, "S_0 neighbor differences in span(S)")):
        if which in (lemma, "all"):
            require_enumerable(n, caps.enumeration_cap)
            res = verify(n, pattern, samples=args.samples, seed=args.seed)
            # one per generator set
            report.add(name, res.all_member, samples=res.samples,
                       members=res.member_count, certificates=res.certificates)


def _cmd_verify_slack(args, report: RunReport, caps: Caps):
    n = args.n
    _require_count("--limit", args.limit)
    require_enumerable(n, caps.enumeration_cap)
    if not any(run.count for run in family_segments(n, args.family)):
        raise QappolyError(f"{args.family} has no forms at n={n} to verify")
    space = vertex_space(n)
    checked = 0
    mismatches = 0
    invalid = 0
    csv_forms = []
    for form in enumerate_family(n, args.family):
        scaled = form.scaled_slack_on_match_rows(space.zt)
        expected = form.scale * closed_form_slack(args.family, form.params, space.zt,
                                                  check=False)
        mismatches += int((scaled != expected).sum())
        invalid += int((scaled < 0).sum())
        if args.csv and checked < 5:
            csv_forms.append(form)
        checked += 1
        if args.limit and checked >= args.limit:
            break
    report.add("slack formulas agree with direct evaluation", mismatches == 0,
               forms=checked, vertices=len(space.images), mismatches=mismatches)
    report.add("all enumerated forms valid on all vertices", invalid == 0,
               violations=invalid)
    if args.csv:
        Path(args.csv).write_text(
            slack_table_csv(args.family, csv_forms, space.images))
        print(f"slack table for the first {len(csv_forms)} forms -> {args.csv}")


def _cmd_reduce(args, report: RunReport, caps: Caps):
    _refuse_unread(args, REDUCE_OPTIONS, args.family)
    graph = parse_graph(Path(args.graph).read_text())
    if args.family == "qap1":
        point = build_point_qap1(graph, 1 if args.k is None else args.k,
                                 1 if args.l is None else args.l, args.t)
    elif args.family == "qap2":
        point = build_point_qap2(graph, args.t)
    elif args.family == "qap4":
        point = build_point_qap4(graph, args.t)
    else:
        raise QappolyError(f"reduce supports qap1, qap2, qap4; got {args.family!r}")
    verdict = brute_force_membership(point, args.family, cap=caps.enumeration_cap)
    detail = {"member": verdict.member, "forms_checked": verdict.forms_checked}
    if verdict.witness is not None:
        detail["witness_index"] = verdict.witness_index
        detail["witness"] = json.loads(verdict.witness.to_json())
    report.add("membership decided (witness confirmed when violated)", True, **detail)


def _cmd_clique_oracle(args, report: RunReport, caps: Caps):
    graph = parse_graph(Path(args.graph).read_text())
    oracle = clique_via_membership_oracle(graph, args.family,
                                          cap=caps.enumeration_cap)
    exact, witness = max_clique_bruteforce(graph, cap=caps.clique_cap)
    report.add("oracle agrees with exact solver", oracle.clique_size == exact,
               oracle=oracle.clique_size, exact=exact, witness=list(witness),
               mode=oracle.mode, queries=len(oracle.queries))


def _cmd_protocol(args, report: RunReport, caps: Caps):
    _refuse_unread(args, PROTOCOL_OPTIONS, args.action)
    _require_count("--samples", args.samples or 0)
    if args.action == "n0":
        a, b = as_bits(args.a), as_bits(args.b, len(as_bits(args.a)))
        res = protocol_n0(a, b, mode="exact")
        expected = hard_matrix_entry(HardMatrixSpec("N", 0, len(a)), a, b)
        report.add("exact expectation equals N0", res.expectation == expected,
                   expectation=str(res.expectation), bits=res.max_bits,
                   bound=res.bit_bound)
        report.add("bit bound respected", res.max_bits <= res.bit_bound)
        if args.samples:
            sampled = protocol_n0(a, b, mode="sample", samples=args.samples,
                                  seed=args.seed)
            report.seeds["protocol"] = args.seed
            err = abs(float(sampled.expectation) - float(expected))
            within = err <= 4 * (sampled.std_error or 0) or err == 0
            report.add("sampled mean within 4 standard errors", within,
                       mean=str(sampled.expectation), exact=expected,
                       std_error=sampled.std_error, samples=args.samples)
    elif args.action == "slack":
        res = slack_protocol(args.family, args.a, args.b)
        report.add("slack equals half of N1", res.ok, mode=res.mode,
                   slack=str(res.slack), target=str(res.target),
                   reason=res.reason, setup_bits=res.setup_bits,
                   in_family=res.in_family)
    else:
        raise QappolyError(f"unknown protocol action {args.action!r}")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call: parsing never
    changes it, and each ``parse_args`` fills a fresh Namespace."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="FILE", help="write the JSON report here")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--config", metavar="FILE", help="key=value caps file")
    common.add_argument("--acknowledge-caps", action="store_true",
                        help="required to raise caps above their defaults")

    parser = argparse.ArgumentParser(
        prog="qappoly",
        description="Exact verification toolkit for the QAP polytope's "
                    "inequality families, facets, reductions, and protocols.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    facet = add("verify-facet", help="validity plus facet dimension check")
    facet.add_argument("--family", required=True,
                       choices=["qap1", "qap2", "qap3", "qap4", "qap5"])
    facet.add_argument("--n", type=int, required=True)
    facet.add_argument("--m", type=int)
    facet.add_argument("--P")
    facet.add_argument("--Q")
    facet.add_argument("--P1")
    facet.add_argument("--P2")
    facet.add_argument("--beta", type=int)
    facet.add_argument("--i-set", dest="i_set")
    facet.add_argument("--j-set", dest="j_set")
    facet.add_argument("--k", type=int)
    facet.add_argument("--l", type=int)
    facet.add_argument("--coeffs", help="qap5 sparse coefficients 'i,j:v;i,j:v'")
    facet.add_argument("--expect", choices=["facet", "valid-only"], default="facet")
    facet.add_argument("--certify", action="store_true",
                       help="re-check ranks with exact rational elimination")
    facet.set_defaults(func=_cmd_verify_facet)

    lemmas = add("verify-lemmas", help="run the lemma checkers")
    lemmas.add_argument("--which", required=True,
                        choices=["identity1", "identity2", "szeroconn",
                                 "skasnxt4", "s3ss0", "szeroins", "all"])
    lemmas.add_argument("--n", type=int, required=True)
    lemmas.add_argument("--m", type=int)
    lemmas.add_argument("--samples", type=int,
                        help=f"samples per sampled check (default "
                             f"{DEFAULT_LEMMA_SAMPLES}); szeroconn takes none")
    lemmas.set_defaults(func=_cmd_verify_lemmas)

    slack = add("verify-slack", help="closed-form slack agreement sweep")
    slack.add_argument("--family", required=True,
                       choices=["qap1", "qap2", "qap3", "qap4"])
    slack.add_argument("--n", type=int, required=True)
    slack.add_argument("--limit", type=int, default=0,
                       help="stop after this many forms (0 = all)")
    slack.add_argument("--csv", metavar="FILE",
                       help="dump a slack table for the first few forms")
    slack.set_defaults(func=_cmd_verify_slack)

    reduce_p = add("reduce", help="build a reduction point and test membership")
    reduce_p.add_argument("--family", required=True, choices=["qap1", "qap2", "qap4"])
    reduce_p.add_argument("--graph", required=True)
    reduce_p.add_argument("--t", type=int, required=True)
    reduce_p.add_argument("--k", type=int)
    reduce_p.add_argument("--l", type=int)
    reduce_p.set_defaults(func=_cmd_reduce)

    oracle = add("clique-oracle",
                 help="clique number through membership sweeps vs exact solver")
    oracle.add_argument("--family", required=True, choices=["qap1", "qap2", "qap4"])
    oracle.add_argument("--graph", required=True)
    oracle.set_defaults(func=_cmd_clique_oracle)

    proto = add("protocol", help="run an expectation protocol")
    proto.add_argument("action", choices=["n0", "slack"])
    proto.add_argument("--a", required=True)
    proto.add_argument("--b", required=True)
    proto.add_argument("--family", choices=["qap1", "qap2", "qap3", "qap4"])
    proto.add_argument("--samples", type=int)
    proto.set_defaults(func=_cmd_protocol)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    params = {k: v for k, v in vars(args).items()
              if k not in ("func", "json") and v is not None}
    report = RunReport(command=args.command, parameters=params,
                       seeds={"global": args.seed})
    start = time.perf_counter()
    try:
        _require_count("--seed", args.seed)
        caps = Caps()
        if args.config:
            caps = caps_from_config(parse_config(Path(args.config).read_text()),
                                    acknowledge=args.acknowledge_caps)
        args.func(args, report, caps)
    except (QappolyError, OSError) as exc:   # OSError: an unreadable input file
        print(f"error: {exc}", file=sys.stderr)
        report.add("usage", False, error=str(exc))
    report.timings["total_seconds"] = round(time.perf_counter() - start, 3)
    if args.json:
        Path(args.json).write_text(report.to_json() + "\n")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())

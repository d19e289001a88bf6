"""Command-line front end: build an instance file, run checks, report.

Commands: ring-info, idempotents, lcp {scan|verify|residue},
checkable {ideal|census}, verify-all. Reports render as TSV (columns
check_id, law, status, witness, micros) or aligned text, and are
byte-identical across runs unless --timing adds measured times.

Exit codes: 0 all checks pass, 1 a check failed or a ring failed a
construction audit, 2 usage or instance-file errors, 3 an operation
exceeded its scale bound.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time

from .config import max_elements
from .errors import (ConstructionError, FalsificationError, ParseError,
                     ScaleError)
from .idem import idempotent_census
from .instance import build_instance, load_instance
from .lcp import (is_lcp, lcp_certificate, lcp_residue_correspondence,
                  refine_certificate)
# bound here although the commands read the pairs from the workspace:
# perfbench's tracer self-test checks that names imported this way are
# rebound together
from .lcp import lcp_scan  # noqa: F401
# the law matrix (glab.verify) and the checkable engine (glab.chk) are
# imported where they run, so that no other command compiles them
from .workspace import (FAIL, INFO, PASS, CheckLine, Report, Workspace,
                        certificate_splits, hat_transfer, is_partition_of_one,
                        pairs_match_idempotents)


# ---------------------------------------------------------------------------
# command bodies: each returns a Report

def _info(check_id: str, law: str, witness) -> CheckLine:
    return CheckLine(check_id, law, INFO, str(witness))


def _verdict(check_id: str, law: str, ok: bool, witness: str) -> CheckLine:
    return CheckLine(check_id, law, PASS if ok else FAIL, witness)


def _report(ws: Workspace, command: str, lines: list[CheckLine]) -> Report:
    return Report(command, ws.built.digest, ws.alg.label, lines)


def cmd_ring_info(ws: Workspace) -> Report:
    ring = ws.alg.ring
    st = ws.ring_structure
    fr = ws.frobenius_verdict
    law = "ring-info"
    lines = [
        _info("ring.label", law, ring.label),
        _info("ring.card", law, ring.card),
        _info("ring.commutative", law, str(ring.is_commutative).lower()),
        _info("ring.units", law, len(st.units)),
        _info("ring.radical-size", law, len(st.radical)),
        _info("ring.nilpotency-index", law, st.nilpotency_index),
        _info("ring.local", law, str(st.is_local).lower()),
        _info("ring.frobenius", law, fr.status),
        _info("ring.generating-character", law,
              "(" + ", ".join(str(k) for k in fr.character) + ")"
              if fr.character is not None else "-"),
    ]
    return _report(ws, "ring-info", lines)


def cmd_idempotents(ws: Workspace) -> Report:
    alg = ws.alg
    census = idempotent_census(alg, ws.idempotent_order)
    law = "idempotent-census"
    central = [i.element for i in census if i.central]
    primitive = [i.element for i in census if i.primitive]
    parts = ws.parts_of_one
    partition = is_partition_of_one(alg, parts)
    named = "; ".join(f"{p} = {alg.text(p)}" for p in parts) or "-"
    lines = [
        _info("idempotents.count", law, len(census)),
        _info("idempotents.central", law, central),
        _info("idempotents.primitive", law, primitive),
        _info("idempotents.decompose-one", law, named),
        _verdict("idempotents.partition-of-one", law, partition,
                 f"{len(parts)} primitive parts sum to 1" if partition else
                 "parts are not orthogonal idempotents summing to 1"),
    ]
    return _report(ws, "idempotents", lines)


def cmd_lcp_scan(ws: Workspace) -> Report:
    alg, pairs = ws.alg, ws.pairs
    law = "lcp-split"
    lines = [_verdict(f"lcp-scan.pair-{k:03d}", law,
                      certificate_splits(alg, p.c, p.d, p.certificate),
                      f"certificate {p.certificate}; |C| = {p.c.cardinality}, "
                      f"|D| = {p.d.cardinality}")
             for k, p in enumerate(pairs)]
    status, witness = pairs_match_idempotents(ws)
    lines.append(_verdict("lcp-scan.count", law, status == PASS,
                          f"{len(pairs)} complementary pairs"
                          if status == PASS else witness))
    return _report(ws, "lcp scan", lines)


def _named_ideal(ws: Workspace, name: str):
    try:
        return ws.built.ideals[name]
    except KeyError:
        known = ", ".join(sorted(ws.built.ideals)) or "none defined"
        raise ParseError(f"no ideal named {name!r} in the instance "
                         f"(known: {known})") from None


def cmd_lcp_verify(ws: Workspace, pair: tuple[str, str]) -> Report:
    alg = ws.alg
    c, d = _named_ideal(ws, pair[0]), _named_ideal(ws, pair[1])
    law = "lcp-split"
    lines: list[CheckLine] = []
    complementary = is_lcp(c, d)
    lines.append(_verdict(
        "lcp-verify.complementary", law, complementary,
        f"|C| = {c.cardinality}, |D| = {d.cardinality}, "
        f"|RG| = {alg.card}" if complementary else
        f"not complementary: |C| = {c.cardinality}, |D| = {d.cardinality}, "
        f"|RG| = {alg.card}"))
    if complementary:
        e = lcp_certificate(c, d)
        lines.append(_info("lcp-verify.certificate", law,
                           f"e = {e} = {alg.text(e)}"))
        pc, pd = refine_certificate(alg, e, ws.idempotent_order)
        lines.append(_info("lcp-verify.refinement", law,
                           f"C parts {pc}; D parts {pd}"))
        sizes, image = hat_transfer(ws, c, d)
        lines.append(_verdict("lcp-verify.hat-sizes", "hat-transfer", sizes,
                              f"|C| = {c.cardinality} vs |dual(D)|"))
        if alg.is_central(e):
            lines.append(_verdict("lcp-verify.hat-image", "hat-transfer", image,
                                  "central certificate; inversion image of "
                                  f"C {'equals' if image else 'differs from'} "
                                  "dual(D)"))
        else:
            lines.append(_info("lcp-verify.hat-image", "hat-transfer",
                               "certificate not central; no image claim"))
    return _report(ws, "lcp verify", lines)


def cmd_lcp_residue(ws: Workspace, pair: tuple[str, str]) -> Report:
    alg = ws.alg
    c, d = _named_ideal(ws, pair[0]), _named_ideal(ws, pair[1])
    rt, = lcp_residue_correspondence([(c, d)], ws.residue, ws.projection)
    law = "residue-lcp"
    lines = [
        _info("lcp-residue.base", law, str(rt.lcp_base).lower()),
        _info("lcp-residue.residue", law, str(rt.lcp_residue).lower()),
        _verdict("lcp-residue.biconditional", law, rt.biconditional,
                 "base and residue complementarity agree"
                 if rt.biconditional else
                 "base pair complementary but residue pair is not"
                 if rt.lcp_base else
                 "residue pair complementary but base pair is not"),
        _info("lcp-residue.residue-certificate", law,
              rt.residue_certificate if rt.residue_certificate is not None
              else "-"),
        _info("lcp-residue.lifted-certificate", law,
              f"{rt.lifted_certificate} = {alg.text(rt.lifted_certificate)}"
              if rt.lifted_certificate is not None else "-"),
    ]
    return _report(ws, "lcp residue", lines)


def cmd_checkable_ideal(ws: Workspace, name: str) -> Report:
    from .chk import is_checkable
    alg = ws.alg
    c = _named_ideal(ws, name)
    v = is_checkable(c, ws.dual(c), ws.ann("left", c), *ws.checkable_tables())
    law = "checkable-routes"
    lines = [
        _info("checkable-ideal.checkable", law, str(v.checkable).lower()),
        _info("checkable-ideal.check-element", law,
              f"{v.check_element} = {alg.text(v.check_element)}"
              if v.check_element is not None else "-"),
        _info("checkable-ideal.ann-generator", law,
              v.ann_generator if v.ann_generator is not None else "-"),
        _info("checkable-ideal.dual-principal", law,
              f"generator {v.dual_generator}"
              if v.dual_generator is not None else
              ("dual is not a right ideal" if not v.dual_is_right_ideal
               else "not principal")),
        _verdict("checkable-ideal.consistency", law, v.consistency,
                 "all three detection routes agree" if v.consistency else
                 "detection routes disagree"),
    ]
    return _report(ws, "checkable ideal", lines)


def cmd_checkable_census(ws: Workspace) -> Report:
    cen = ws.checkable_census
    law = "checkable-routes"
    lines = [_info(f"checkable-census.ideal-{i:03d}", law,
                   f"size {c.cardinality}; checkable "
                   f"{str(v.checkable).lower()}; u "
                   f"{v.check_element if v.check_element is not None else '-'}")
             for i, (c, v) in enumerate(cen.verdicts)]
    lines.append(_info("checkable-census.code-checkable", law,
                       str(cen.all_checkable).lower()))
    consistent = all(v.consistency for _, v in cen.verdicts)
    bad = sum(not v.consistency for _, v in cen.verdicts)
    lines.append(_verdict("checkable-census.consistency", law, consistent,
                          f"all {len(cen.verdicts)} ideals consistent"
                          if consistent else
                          f"{bad}/{len(cen.verdicts)} ideals have "
                          f"disagreeing routes"))
    return _report(ws, "checkable census", lines)


# ---------------------------------------------------------------------------
# rendering

def render_tsv(report: Report) -> str:
    out = [f"# command: {report.command}",
           f"# instance: {report.digest}",
           f"# algebra: {report.algebra_label}",
           "check_id\tlaw\tstatus\twitness\tmicros"]
    for l in report.lines:
        micros = str(l.micros) if l.micros is not None else "-"
        out.append(f"{l.check_id}\t{l.law}\t{l.status}\t{l.witness}\t{micros}")
    return "\n".join(out) + "\n"


def render_text(report: Report) -> str:
    out = [f"command {report.command} | algebra {report.algebra_label} | "
           f"instance {report.digest[:16]}"]
    width = max((len(l.check_id) for l in report.lines), default=0)
    for l in report.lines:
        timing = f"  [{l.micros} us]" if l.micros is not None else ""
        out.append(f"  {l.status:<4}  {l.check_id:<{width}}  "
                   f"{l.witness}{timing}")
    tally = {}
    for l in report.lines:
        tally[l.status] = tally.get(l.status, 0) + 1
    out.append("summary: " + ", ".join(
        f"{tally[s]} {s}" for s in ("pass", "fail", "skip", "info")
        if s in tally))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def _positive(text: str) -> int:
    """A bound given on the command line: at least 1, as in a file."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glab",
        description="exact checks for one-sided group codes over finite rings")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="instance file path")
        p.add_argument("--bound", type=_positive, default=None,
                       help="override the elementwise scan bound")
        p.add_argument("--census-bound", type=_positive, default=None,
                       help="override the ideal-census bound")
        p.add_argument("--format", choices=("tsv", "text"), default="text")
        p.add_argument("--timing", action="store_true",
                       help="measure and print per-check times")

    common(sub.add_parser("ring-info", help="coefficient ring facts"))
    common(sub.add_parser("idempotents", help="idempotent census"))

    lcp = sub.add_parser("lcp", help="complementary-pair checks")
    lcp.add_argument("mode", choices=("scan", "verify", "residue"))
    common(lcp)
    lcp.add_argument("--pair", nargs=2, metavar=("C", "D"),
                     help="two ideal names from the instance file")

    chk = sub.add_parser("checkable", help="checkability checks")
    chk.add_argument("mode", choices=("ideal", "census"))
    common(chk)
    chk.add_argument("--ideal", metavar="C",
                     help="ideal name from the instance file")

    common(sub.add_parser("verify-all", help="run the whole law matrix"))
    return parser


def _run(args) -> Report:
    max_elements()      # a malformed cap is refused before any table is built
    ws = Workspace(build_instance(load_instance(args.file), bound=args.bound,
                                  census_bound=args.census_bound))
    if args.command == "ring-info":
        return cmd_ring_info(ws)
    if args.command == "idempotents":
        return cmd_idempotents(ws)
    if args.command == "lcp":
        if args.mode == "scan":
            return cmd_lcp_scan(ws)
        if args.pair is None:
            raise ParseError(f"lcp {args.mode} needs --pair C D")
        if args.mode == "verify":
            return cmd_lcp_verify(ws, tuple(args.pair))
        return cmd_lcp_residue(ws, tuple(args.pair))
    if args.command == "checkable":
        if args.mode == "census":
            return cmd_checkable_census(ws)
        if args.ideal is None:
            raise ParseError("checkable ideal needs --ideal C")
        return cmd_checkable_ideal(ws, args.ideal)
    from .verify import verify_all
    return verify_all(ws, timing=args.timing)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter_ns()
    try:
        report = _run(args)
    except (ParseError, ConstructionError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ScaleError, MemoryError) as exc:
        print(f"scale error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except FalsificationError as exc:
        print(f"falsified: {exc}", file=sys.stderr)
        return 1
    if args.timing and args.command != "verify-all":
        total = (time.perf_counter_ns() - started) // 1000
        report.lines.append(CheckLine("timing.total", "timing", INFO,
                                      "whole command", total))
    text = render_tsv(report) if args.format == "tsv" else render_text(report)
    sys.stdout.write(text)
    return 1 if report.failed else 0


def entry() -> int:
    """The process entry point of `python -m glab` and the `glab` script:
    run `main`, then freeze every object still alive, so that the
    interpreter's collection at exit does not walk them. `main` itself
    never freezes: tests and library callers run it many times in one
    process."""
    code = main()
    gc.freeze()
    return code

"""Command-line front end: build an instance file, run checks, report.

    glab COMMAND [MODE] FILE [OPTION ...]

Commands: ring-info, idempotents, lcp {scan|verify|residue},
checkable {ideal|census}, verify-all. Options come anywhere after
COMMAND, each as `--opt value` or `--opt=value` (`--pair C D` takes
two values) and spelled in full, with no abbreviations; -h or --help
prints the usage. Reports render as TSV (columns check_id, law,
status, witness, micros) or aligned text, and are byte-identical
across runs unless --timing adds measured times.

Exit codes: 0 all checks pass or -h printed the usage, 1 a check
failed, a ring failed a construction audit or the report could not be
written (a closed stdout, `BrokenPipeError`), 2 usage or instance-file
errors, 3 an operation exceeded its scale bound.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from types import SimpleNamespace
from typing import NoReturn

from .config import max_elements
from .errors import (ConstructionError, FalsificationError, ParseError,
                     ScaleError)
from .finring import frobenius, structure
from .instance import build_instance, load_instance
from .lcp import (lcp_certificate, lcp_residue_correspondence,
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
    st = structure(ring)
    fr = frobenius(ring)
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
    alg, order = ws.alg, ws.idempotent_order
    es = order.elements
    law = "idempotent-census"
    parts = ws.parts_of_one
    partition = is_partition_of_one(alg, parts)
    named = "; ".join(f"{p} = {alg.text(p)}" for p in parts) or "-"
    lines = [
        _info("idempotents.count", law, len(es)),
        _info("idempotents.central", law, es[alg.central(es)].tolist()),
        _info("idempotents.primitive", law, es[order.primitive].tolist()),
        _info("idempotents.decompose-one", law, named),
        _verdict("idempotents.partition-of-one", law, partition,
                 f"{len(parts)} primitive parts sum to 1" if partition else
                 "parts are not orthogonal idempotents summing to 1"),
    ]
    return _report(ws, "idempotents", lines)


def cmd_lcp_scan(ws: Workspace) -> Report:
    alg, pairs = ws.alg, ws.pairs
    law = "lcp-split"
    lines = [_verdict(f"lcp-scan.pair-{k:03d}", law, ok,
                      f"certificate {p.certificate}; |C| = {p.c.cardinality}, "
                      f"|D| = {p.d.cardinality}")
             for k, (p, ok) in enumerate(zip(
                 pairs, certificate_splits(alg, pairs)))]
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
    e = lcp_certificate(c, d)
    complementary = e is not None
    lines.append(_verdict(
        "lcp-verify.complementary", law, complementary,
        f"|C| = {c.cardinality}, |D| = {d.cardinality}, "
        f"|RG| = {alg.card}" if complementary else
        f"not complementary: |C| = {c.cardinality}, |D| = {d.cardinality}, "
        f"|RG| = {alg.card}"))
    if complementary:
        lines.append(_info("lcp-verify.certificate", law,
                           f"e = {e} = {alg.text(e)}"))
        pc, pd = refine_certificate(alg, e, ws.idempotent_order)
        lines.append(_info("lcp-verify.refinement", law,
                           f"C parts {pc}; D parts {pd}"))
        sizes, image = hat_transfer(ws, c, d)
        lines.append(_verdict("lcp-verify.hat-sizes", "hat-transfer", sizes,
                              f"|C| = {c.cardinality} vs |dual(D)|"))
        if alg.central([e])[0]:
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
    rt, = lcp_residue_correspondence(
        [(c, d)], [lcp_certificate(c, d)],
        [lcp_certificate(ws.projection(c), ws.projection(d))],
        ws.residue, ws.projection, ws.lift)
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
    v = is_checkable(c, ws.dual(c), ws.ann("left", c), *ws.checkable_tables)
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
    verdicts = ws.checkable_census
    law = "checkable-routes"
    lines = [_info(f"checkable-census.ideal-{i:03d}", law,
                   f"size {c.cardinality}; checkable "
                   f"{str(v.checkable).lower()}; u "
                   f"{v.check_element if v.check_element is not None else '-'}")
             for i, (c, v) in enumerate(verdicts)]
    lines.append(_info("checkable-census.code-checkable", law,
                       str(all(v.checkable for _, v in verdicts)).lower()))
    bad = sum(not v.consistency for _, v in verdicts)
    lines.append(_verdict("checkable-census.consistency", law, not bad,
                          f"all {len(verdicts)} ideals consistent"
                          if not bad else
                          f"{bad}/{len(verdicts)} ideals have "
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

def _invalid(value: str, choices) -> str:
    return (f"invalid choice: {value!r} "
            f"(choose from {', '.join(repr(c) for c in choices)})")


def _positive(text: str) -> int:
    """A bound given on the command line: at least 1, as in a file."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"must be a positive integer, got {text!r}")
    return value


def _format(text: str) -> str:
    if text not in ("tsv", "text"):
        raise ValueError(_invalid(text, ("tsv", "text")))
    return text


def _verify_all(ws: Workspace, timing: bool) -> Report:
    from .verify import verify_all
    return verify_all(ws, timing=timing)


# command: help, and each mode (None for a command without modes) with
# its handler and the option whose value the handler takes after the
# workspace, if any; an option so taken that is left unset is refused
_COMMANDS = {
    "ring-info": ("coefficient ring facts", {None: (cmd_ring_info, None)}),
    "idempotents": ("idempotent census", {None: (cmd_idempotents, None)}),
    "lcp": ("complementary-pair checks", {
        "scan": (cmd_lcp_scan, None), "verify": (cmd_lcp_verify, "--pair"),
        "residue": (cmd_lcp_residue, "--pair")}),
    "checkable": ("checkability checks", {
        "ideal": (cmd_checkable_ideal, "--ideal"),
        "census": (cmd_checkable_census, None)}),
    "verify-all": ("run the whole law matrix",
                   {None: (_verify_all, "--timing")}),
}

# option: its values, the one command that takes it (None: every
# command), how each value is read, help
_OPTIONS = {
    "--bound": ("N", None, _positive, "override the elementwise scan bound"),
    "--census-bound": ("N", None, _positive, "override the ideal-census bound"),
    "--format": ("{tsv,text}", None, _format, "report format, default text"),
    "--timing": ("", None, str, "measure and print per-check times"),
    "--pair": ("C D", "lcp", str, "two ideal names from the instance file"),
    "--ideal": ("C", "checkable", str, "ideal name from the instance file"),
}


def _usage() -> str:
    lines = ["usage: glab COMMAND [MODE] FILE [OPTION ...]", "",
             "exact checks for one-sided group codes over finite rings", "",
             "commands:"]
    for command, (text, modes) in _COMMANDS.items():
        head = command if None in modes else f"{command} {{{','.join(modes)}}}"
        lines.append(f"  {head:<26}{text}")
    lines += ["", "options, anywhere after COMMAND, as --opt value or "
              "--opt=value:"]
    for name, (metavar, only, _, text) in _OPTIONS.items():
        lines.append(f"  {name + ' ' + metavar:<26}{text}"
                     + (f" ({only} only)" if only else ""))
    lines.append(f"  {'-h, --help':<26}print this help and exit")
    return "\n".join(lines) + "\n"


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The fields of `COMMAND [MODE] FILE` with options anywhere after
    COMMAND, and `run`: the mode's handler and the values it takes after
    the workspace. None when -h or --help asks for the usage. A token is
    an option when it starts with '-'; an option's values are the tokens
    after it, or the text after '=' for an option of one value. A usage
    error, such as a missing option that the mode needs, raises
    ParseError before any file is read."""
    if "-h" in argv or "--help" in argv:
        return None
    if not argv:
        raise ParseError("the following arguments are required: command")
    command, rest = argv[0], argv[1:]
    if command not in _COMMANDS:
        raise ParseError(f"argument command: {_invalid(command, _COMMANDS)}")
    handlers = _COMMANDS[command][1]
    modes = [m for m in handlers if m is not None]
    args = dict(command=command, bound=None, census_bound=None,
                format="text", timing=False, pair=None, ideal=None)
    positional, tokens = [], iter(rest)
    for token in tokens:
        if not token.startswith("-"):
            positional.append(token)
            continue
        name, eq, value = token.partition("=")
        if name not in _OPTIONS or _OPTIONS[name][1] not in (None, command):
            raise ParseError(f"unrecognized arguments: {token}")
        metavar, _, read, _ = _OPTIONS[name]
        n = len(metavar.split())
        values = [value] if eq else [t for _, t in zip(range(n), tokens)]
        if len(values) != n or any(v.startswith("--") for v in values):
            raise ParseError(f"argument {name}: expected "
                             + ("one argument" if n == 1 else f"{n} arguments"))
        try:
            values = [read(v) for v in values]
        except ValueError as exc:
            raise ParseError(f"argument {name}: {exc}") from None
        args[_field(name)] = (
            True if n == 0 else values[0] if n == 1 else tuple(values))
    names = ("mode", "file") if modes else ("file",)
    if modes and positional and positional[0] not in modes:
        raise ParseError(f"argument mode: {_invalid(positional[0], modes)}")
    if len(positional) > len(names):
        raise ParseError("unrecognized arguments: "
                         + " ".join(positional[len(names):]))
    if len(positional) < len(names):
        raise ParseError("the following arguments are required: "
                         + ", ".join(names[len(positional):]))
    args["mode"], args["file"] = positional if modes else (None, *positional)
    handler, option = handlers[args["mode"]]
    operands = () if option is None else (args[_field(option)],)
    if None in operands:
        raise ParseError(f"{command} {args['mode']} needs {option} "
                         f"{_OPTIONS[option][0]}")
    return SimpleNamespace(**args, run=(handler, operands))


def _field(option: str) -> str:
    """The field of `_parse`'s result that holds an option's value."""
    return option[2:].replace("-", "_")


def _run(args) -> Report:
    max_elements()      # a malformed cap is refused before any table is built
    handler, operands = args.run
    return handler(Workspace(build_instance(
        load_instance(args.file), bound=args.bound,
        census_bound=args.census_bound)), *operands)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(_usage())
            return 0
        started = time.perf_counter_ns()
        report = _run(args)
    except (ParseError, ConstructionError) as exc:
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


def entry() -> NoReturn:
    """The process entry point of `python -m glab` and the `glab` script.

    It freezes every object the imports made and turns cyclic collection
    on (`__main__` turns it off while glab loads), so that the command's
    collections never walk the start-up objects. Once `main` returns it
    flushes stdout and stderr and ends the process with `main`'s code,
    skipping the interpreter's teardown. An exception from `main`
    propagates as usual. A report that stays in stdout's buffer and
    cannot be flushed (a closed pipe, a full disk) is reported on stderr
    and the process exits 1, as when `main`'s own write fails. `main`
    itself never freezes: tests and library callers run it many times
    in one process."""
    gc.freeze()
    gc.enable()
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 1
    sys.stderr.flush()
    os._exit(code)

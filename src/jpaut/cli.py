"""Batch verification front end.

Four subcommands: verify runs the axiom suite on a parsed system spec,
check runs one claim from the catalog, enumerate produces automorphism
sets, and claims lists the claim catalog.  All output is JSON (human
tables behind --pretty); exit codes are
0 pass, 1 claim or axiom failure, 2 usage error, 3 budget exceeded.
"""

import argparse
import functools
import itertools
import json
import os
import re
import stat
import sys
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import claims as claimcat
from .catalog import parse_system
from .errors import (BadDims, BadInput, BudgetExceeded, NonEnumerableRing,
                     NonFieldRing, ParseError, ShapeMismatch, ToolkitError,
                     UnknownClaim, check_jobs)
from .jordan import check_axioms
from .oracle import enumerate_automorphisms

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_USAGE_ERRORS = (ParseError, UnknownClaim, BadDims, BadInput,
                 NonEnumerableRing, NonFieldRing, ShapeMismatch)


def _pretty_lines(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, _Dump):
        obj = obj.to_jsonable()
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list, _Dump)) and value:
                yield f"{pad}{key}:"
                yield from _pretty_lines(value, indent + 1)
            else:
                yield f"{pad}{key}: {json.dumps(value, default=str)}"
    elif isinstance(obj, list):
        for value in obj:
            if isinstance(value, (dict, list)):
                yield f"{pad}-"
                yield from _pretty_lines(value, indent + 1)
            else:
                yield f"{pad}- {json.dumps(value, default=str)}"
    else:
        yield f"{pad}{json.dumps(obj, default=str)}"


class _Dump:
    """The elements of an automorphism set, for --dump-elements.

    Written by _indented as the list of their to_jsonable() forms, without
    building those: one placeholder element is rendered whose leaves are
    its positions in the set's int64 rows (oracle._Rows), and each row
    fills that template.  The rows go out in blocks of about CHUNK
    template cells (fastscan.CHUNK), each with its own table of quoted
    payload strings, so the text of the whole set is never held at once.
    """

    def __init__(self, aset):
        self.aset = aset

    def __len__(self):
        return self.aset.order

    def to_jsonable(self) -> list:
        return [el.to_jsonable() for el in self.aset.elements]

    def pieces(self, pad: str):
        """The JSON list text at indent pad: the opening bracket, then one
        piece per block of rows, the last one closing the list."""
        from .fastscan import CHUNK
        inner = pad + "  "
        codec, rows = self.aset.codec, self.aset.rows
        first = codec.decode(rows[:1])[0]
        template = "".join(_indented(_numbered(first.to_jsonable(),
                                               itertools.count()), inner))
        parts = re.split(r'"(\d+)"', template)
        order = [int(k) for k in parts[1::2]]
        text = np.array(parts[0::2], dtype=object)
        step = max(1, CHUNK // len(parts))
        yield "[" + inner
        for start in range(0, len(rows), step):
            block = rows[start:start + step]
            values, index = np.unique(block, return_inverse=True)
            quoted = np.array([_quote(codec.ring.payload_str(x))
                               for x in codec.payloads(values).tolist()],
                              dtype=object)
            cells = np.empty((len(block), len(parts)), dtype=object)
            cells[:, 0::2] = text
            cells[:, -1] = parts[-1] + "," + inner
            if start + step >= len(rows):
                cells[-1, -1] = parts[-1] + pad + "]"
            cells[:, 1::2] = quoted[index.reshape(block.shape)[:, order]]
            yield "".join(cells.ravel().tolist())


def _numbered(obj, count):
    """obj with its leaves replaced by "0", "1", ... in iteration order,
    which for Matrix and PairMap forms is the _Rows row order."""
    if isinstance(obj, dict):
        return {k: _numbered(v, count) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_numbered(v, count) for v in obj]
    return str(next(count))


_CONTAINERS = (dict, list, tuple, _Dump)


def _indented(obj, pad: str = "\n"):
    """The text of json.dumps(obj, indent=2, sort_keys=True, default=str),
    byte for byte, in pieces, with a _Dump written as its to_jsonable()
    list; the pieces of a _Dump are its blocks (_Dump.pieces).

    indent sends json.dumps through its pure-Python encoder, one generator
    per value; this yields each container's punctuation directly and
    encodes each leaf with the C encoder.  Raw newlines occur in JSON text
    only between tokens, so text rendered at the top level moves to depth
    by replacing "\n" with pad: dicts with a key that is not a string go
    that way through json.dumps itself.
    """
    if isinstance(obj, _Dump) and obj:
        yield from obj.pieces(pad)
        return
    if not obj:
        yield "{}" if isinstance(obj, dict) else "[]"
        return
    inner = pad + "  "
    if isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):
            yield json.dumps(obj, indent=2, sort_keys=True,
                             default=str).replace("\n", pad)
            return
        items, brackets = [(_quote(k) + ": ", v)
                           for k, v in sorted(obj.items())], "{}"
    else:
        items, brackets = [("", v) for v in obj], "[]"
    lead = brackets[0] + inner
    for head, value in items:
        if isinstance(value, _CONTAINERS):
            yield lead + head
            yield from _indented(value, inner)
        else:
            yield lead + head + _leaf(value)
        lead = "," + inner
    yield pad + brackets[1]


def _leaf(value) -> str:
    if value.__class__ is str:
        return _quote(value)
    return json.dumps(value, default=str)


def _replace(path: str, pieces) -> None:
    """Write the pieces to a new file beside the file path names, with its
    mode, then move it over that file, so a failure part-way leaves what
    was there and no other file.  A symlink is written through.  What is
    not a regular file (os.devnull, /dev/stdout, a FIFO), or sits in a
    directory that cannot take a new file, is written in place."""
    try:
        old = os.stat(path)
    except FileNotFoundError:
        old = None
    real = os.path.realpath(path)
    if ((old is not None and not stat.S_ISREG(old.st_mode))
            or not os.access(os.path.dirname(real), os.W_OK)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
        return
    tmp = f"{real}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            if old is not None:
                os.chmod(fh.fileno(), stat.S_IMODE(old.st_mode))
            fh.writelines(pieces)
        os.replace(tmp, real)
    except BaseException:
        os.remove(tmp)
        raise


def _emit(report: dict, args) -> None:
    """Write the report's JSON as _indented renders it, to --out (replaced
    whole, see _replace) or to stdout; --pretty prints the table."""
    out = getattr(args, "out", None)
    if out:
        _replace(out, itertools.chain(_indented(report), ["\n"]))
    elif getattr(args, "pretty", False):
        print("\n".join(_pretty_lines(report)))
    else:
        sys.stdout.writelines(_indented(report))
        sys.stdout.write("\n")


def _cmd_verify(args) -> int:
    system = parse_system(args.system)
    ax = check_axioms(system.structure)
    report = {
        "system": system.name,
        "ring": system.ring.name,
        "ok": ax.ok,
        "kind": ax.kind,
        "identities_checked": ax.checked,
        "failures": list(ax.failures[:4]),
    }
    _emit(report, args)
    return EXIT_PASS if ax.ok else EXIT_FAIL


def _cmd_check(args) -> int:
    report = claimcat.run_claim(args.claim, ring=args.ring, n=args.n,
                                m=args.m, budget=args.budget,
                                jobs=args.jobs)
    _emit(report, args)
    return EXIT_PASS if report["pass"] else EXIT_FAIL


def _cmd_enumerate(args) -> int:
    system = parse_system(args.system)
    if args.mode == "exhaustive":
        aset = enumerate_automorphisms(system, budget=args.budget,
                                       jobs=args.jobs)
        provenance = (f"exhaustive scan of {aset.candidates} candidates "
                      f"(engine {aset.engine})")
    else:
        aset, provenance = claimcat.standard_generated(system,
                                                       budget=args.budget)
    report = {
        "system": aset.system,
        "ring": aset.ring_name,
        "mode": aset.mode,
        "order": aset.order,
        "generator_provenance": provenance,
    }
    if args.dump_elements:
        report["elements"] = _Dump(aset)
    _emit(report, args)
    return EXIT_PASS


def _cmd_claims(args) -> int:
    _emit({"claims": claimcat.list_claims()}, args)
    return EXIT_PASS


def _add_output_flags(sub) -> None:
    sub.add_argument("--out", help="write the JSON report to this file")
    sub.add_argument("--pretty", action="store_true",
                     help="human-readable table instead of JSON on stdout")


def _jobs(text: str) -> int:
    """A --jobs value; below 1 it is a usage error (exit 2)."""
    jobs = int(text)
    try:
        check_jobs(jobs)
    except BadInput as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return jobs


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The jpaut parser, built once per process: parse_args leaves it
    unchanged, so main may call it any number of times."""
    parser = argparse.ArgumentParser(
        prog="jpaut",
        description="Exact-arithmetic checks of Jordan pair, triple and "
                    "algebra automorphism groups at desk scale.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_verify = subs.add_parser(
        "verify", help="run the axiom suite on a system spec like "
                       "'VIV(n=2,ring=F5)' or 'VhI(1,2,F3)'")
    p_verify.add_argument("system")
    _add_output_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_check = subs.add_parser(
        "check", help="run one claim from the catalog")
    p_check.add_argument("claim")
    p_check.add_argument("--ring", help="ring name, e.g. F3, F5, F3xF3")
    p_check.add_argument("--n", type=int)
    p_check.add_argument("--m", type=int)
    p_check.add_argument("--budget", type=int,
                         help="candidate/closure budget override")
    p_check.add_argument("--jobs", type=_jobs,
                         default=os.cpu_count() or 1,
                         help="worker count (results never depend on it)")
    _add_output_flags(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_enum = subs.add_parser(
        "enumerate", help="enumerate the automorphism set of a system")
    p_enum.add_argument("system")
    p_enum.add_argument("--mode", choices=("exhaustive", "generated"),
                        default="exhaustive")
    p_enum.add_argument("--budget", type=int)
    p_enum.add_argument("--jobs", type=_jobs, default=os.cpu_count() or 1)
    p_enum.add_argument("--dump-elements", action="store_true",
                        help="include the element list in the JSON")
    _add_output_flags(p_enum)
    p_enum.set_defaults(func=_cmd_enumerate)

    p_claims = subs.add_parser("claims", help="list the claim catalog")
    _add_output_flags(p_claims)
    p_claims.set_defaults(func=_cmd_claims)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ToolkitError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)}, args)
        if isinstance(exc, BudgetExceeded):
            return EXIT_BUDGET
        # a domain error that is not a usage error is a claim-level failure
        return EXIT_USAGE if isinstance(exc, _USAGE_ERRORS) else EXIT_FAIL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())

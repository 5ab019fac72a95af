"""Command-line front end.

Subcommands: enumerate, orbits, prob, fibers, encode. Output formats:
table (default), json (canonical: sorted keys, compact separators), csv.
Exit codes: 0 success, 1 expectation failure, 2 over the work budget
(`--cap-unsafe` lifts it) or beyond int64 word indices, 3 input error.

Each `main` call builds a fresh parser: the top-level parser plus the one
subcommand that argv's first element names. All five are registered only
when that element names none of them (no arguments, `-h`, a typo), so
help, usage errors and exit codes read as if all five always were. No
parser outlives a call. Building one per process would be faster still,
but the benchmark keeps every query's interval for the whole run, so
faster calls fit more passes and read as a larger `peak_rss_mb`; the
parser waits for that repair (ROADMAP item 1).
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from ._kernels import RadixOverflowError
from .enumeration import (
    WORK_BUDGET,
    CapExceededError,
    StrictTableError,
    count_parking,
    expected_parking_count,
    orbit_audit,
)
from .forests import (
    all_fiber_counts_brute,
    all_shape_counts,
    encode,
    fiber_count_brute,
    fiber_counts,
    pair_to_json,
    total_displacement,
)
from .probabilistic import (
    orbit_parking_mass,
    parking_probability,
    parse_prob_spec,
    total_parking_mass,
)
from .procedures import load_dir_table, table_procedure


class InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse's own failures to exit 3
        raise InputError(message)


@dataclass
class Report:
    command: str
    params: dict
    results: dict
    elapsed_s: float = 0.0
    failed_expectation: bool = False


def frac_str(x: Fraction) -> str:
    """`x`, a Fraction or an int, as "numerator/denominator"."""
    return f"{x.numerator}/{x.denominator}"


def word_str(word) -> str:
    return ",".join(map(str, word))


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def render(report: Report, fmt: str) -> str:
    doc = {
        "command": report.command,
        "params": report.params,
        "results": report.results,
        "elapsed_s": report.elapsed_s,
    }
    if fmt == "json":
        return canonical_json(doc)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in sorted(report.params.items()):
            writer.writerow([f"params.{key}", value])
        for key, value in sorted(report.results.items()):
            if isinstance(value, list):
                for i, item in enumerate(value):
                    writer.writerow([f"{key}[{i}]", json.dumps(item, sort_keys=True)])
            else:
                writer.writerow([key, value])
        return buf.getvalue()
    lines = [f"{report.command}  " + " ".join(f"{k}={v}" for k, v in report.params.items())]
    for key, value in report.results.items():
        if isinstance(value, list):
            lines.append(f"{key}:")
            lines.extend(f"  {json.dumps(item, sort_keys=True)}" for item in value)
        else:
            lines.append(f"{key}: {value}")
    lines.append(f"elapsed_s: {report.elapsed_s}")
    return "\n".join(lines) + "\n"


def _resolve_proc(args):
    if args.proc and args.proc_file:
        raise InputError("--proc and --proc-file exclude each other")
    if args.proc_file:
        return table_procedure(load_dir_table(args.proc_file), strict=args.strict)
    if not args.proc:
        raise InputError("one of --proc / --proc-file is required")
    # only a table has rows to hold r to
    if args.strict:
        raise InputError("--strict needs --proc-file")
    return parse_prob_spec(args.proc)


def _cap(args) -> int | None:
    return None if args.cap_unsafe else WORK_BUDGET


def _parse_word(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as e:
        raise InputError(f"bad word {text!r}: {e}") from None


# ---------------------------------------------------------------------------
# handlers


def cmd_enumerate(args) -> Report:
    p = _resolve_proc(args)
    count = count_parking(p, args.r, cap=_cap(args))
    expected = expected_parking_count(args.r)
    results = {"count": count, "expected_universal": expected, "universal": count == expected}
    return Report(
        command="enumerate",
        params={"proc": p.name, "r": args.r},
        results=results,
        failed_expectation=args.expect_universal and count != expected,
    )


def cmd_orbits(args) -> Report:
    p = _resolve_proc(args)
    report = orbit_audit(p, args.r, cap=_cap(args))
    results = {
        "orbit_count": report.orbit_count,
        "parking_total": report.parking_total,
        "histogram": {str(k): v for k, v in report.histogram.items()},
        "violations": [
            {
                "representative": word_str(v.representative),
                "members": [word_str(w) for w in v.members],
                "parking_count": v.parking_count,
                "parking_words": [word_str(w) for w in v.parking_words],
            }
            for v in report.violations
        ],
        "all_one": report.all_one,
    }
    return Report(
        command="orbits",
        params={"proc": p.name, "r": args.r},
        results=results,
    )


def cmd_prob(args) -> Report:
    if (args.word is None) == (args.mass is None):
        raise InputError("exactly one of --word / --mass is required")
    if args.per_orbit and args.mass is None:
        raise InputError("--per-orbit needs --mass")
    pp = _resolve_proc(args)
    params = {"proc": pp.name}
    results = {}
    if args.word is not None:
        word = _parse_word(args.word)
        params["word"] = word_str(word)
        results["parking_probability"] = frac_str(parking_probability(pp, word))
    else:
        params["mass_r"] = args.mass
        cap = _cap(args)
        results["total_parking_mass"] = frac_str(total_parking_mass(pp, args.mass, cap=cap))
        results["expected_universal"] = expected_parking_count(args.mass)
        if args.per_orbit:
            results["orbit_mass"] = {
                word_str(rep): frac_str(m)
                for rep, m in sorted(orbit_parking_mass(pp, args.mass, cap=cap).items())
            }
    return Report(
        command="prob",
        params=params,
        results=results,
    )


def cmd_fibers(args) -> Report:
    import numpy as np

    p = _resolve_proc(args)
    if not p.decides_by_block:
        raise InputError(f"{p.name} is not memoryless+locally decided; no fiber formula")
    if args.sigma is not None:
        sigma = _parse_word(args.sigma)
        if len(sigma) != args.r:
            raise InputError(f"--sigma {args.sigma} has length {len(sigma)}, not --r {args.r}")
        # one outcome's words, walked without growing the others
        brute = [fiber_count_brute(p, sigma, cap=_cap(args))]
        sigmas = np.array([sigma], np.int64)
        texts = [word_str(sigma)]
    else:
        sigmas, brute = all_fiber_counts_brute(p, args.r, cap=_cap(args))
        # the outcomes' texts in the same lexicographic order
        texts = map(",".join, itertools.permutations([str(i) for i in range(1, args.r + 1)]))
    table = [
        {"sigma": text, "formula": f, "brute": b}
        for text, f, b in zip(texts, fiber_counts(p, sigmas), brute)
    ]
    shapes = sorted(all_shape_counts(p, args.r, cap=_cap(args)), reverse=True)
    results = {
        "fibers": table,
        "formula_total": sum(row["formula"] for row in table),
        "shape_counts": shapes,
        "shape_total": sum(shapes),
    }
    return Report(
        command="fibers",
        params={"proc": p.name, "r": args.r, "sigma": args.sigma or ""},
        results=results,
    )


def cmd_encode(args) -> Report:
    p = _resolve_proc(args)
    word = _parse_word(args.word)
    pair = encode(p, word)
    results = dict(pair_to_json(pair))
    results["displacement"] = total_displacement(p, word)
    return Report(
        command="encode",
        params={"proc": p.name, "word": word_str(word)},
        results=results,
    )


# ---------------------------------------------------------------------------
# parser


# the help's description: the docstring's first two paragraphs, which say
# what a user can run (None under python -OO, as the docstring)
_DESCRIPTION = __doc__ and "\n\n".join(__doc__.split("\n\n")[:2])


def _common(sp, word=False, r=False):
    sp.add_argument("--proc", help="procedure spec, e.g. right, naples:k=2, kw:q=1/2")
    sp.add_argument("--proc-file", help="path to a direction-table JSON document")
    sp.add_argument("--strict", action="store_true", help="refuse r beyond the table's r_max")
    sp.add_argument("--format", choices=("table", "json", "csv"), default="table")
    sp.add_argument("--cap-unsafe", action="store_true", help="lift the work budget")
    if r:
        sp.add_argument("--r", type=int, required=True)
    if word:
        sp.add_argument("--word", help="comma-separated letters, e.g. 1,2,1")


def _enumerate_options(sp):
    _common(sp, r=True)
    sp.add_argument("--expect-universal", action="store_true",
                    help="exit 1 unless the count equals (r+1)^(r-1)")


def _prob_options(sp):
    _common(sp, word=True)
    sp.add_argument("--mass", type=int, help="sum parking probabilities over all words of this length")
    sp.add_argument("--per-orbit", action="store_true", help="also report per-orbit masses")


def _fibers_options(sp):
    _common(sp, r=True)
    sp.add_argument("--sigma", help="restrict to one outcome permutation, e.g. 1,2,3")


# name -> (help, handler, options), in the order the help lists them
_SUBCOMMANDS = {
    "enumerate": ("count parking words of length r", cmd_enumerate, _enumerate_options),
    "orbits": ("parking words per cyclic orbit", cmd_orbits, lambda sp: _common(sp, r=True)),
    "prob": ("exact parking probabilities", cmd_prob, _prob_options),
    "fibers": ("outcome fiber sizes: formula vs brute force", cmd_fibers, _fibers_options),
    "encode": ("forest pair of one run", cmd_encode, lambda sp: _common(sp, word=True)),
}


def build_parser(command: str | None = None) -> _Parser:
    """A fresh parser that registers only the subcommand `command` names,
    or all of them when it names none, as for help or a misspelt name."""
    parser = _Parser(prog="parkline", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in _SUBCOMMANDS else _SUBCOMMANDS:
        help_text, handler, options = _SUBCOMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        options(sp)
        sp.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "word", None) is None and args.command == "encode":
            raise InputError("--word is required")
        t0 = time.perf_counter()
        report = args.handler(args)
        report.elapsed_s = round(time.perf_counter() - t0, 6)
    except (CapExceededError, RadixOverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (InputError, StrictTableError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    sys.stdout.write(render(report, args.format))
    return 1 if report.failed_expectation else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

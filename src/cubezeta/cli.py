"""Command-line surface: counts, orbit checks, identity verification, tables.

Subcommands
-----------

* ``count A|B|a3`` -- single exact values (square-root counts, orbit counts,
  rank-3 coefficients).
* ``orbits`` -- the orbit count of one invariant cell by formula, optionally
  cross-checked against the enumeration oracle.
* ``pairs`` -- the congruence pairs of a cell and, optionally, the cube
  representative constructed from each pair.
* ``ppart`` -- the trivariate prime-part coefficient polynomials (or their
  values at a chosen p).
* ``verify`` -- one of the named identity checks over its default or given
  range, emitting a schema-versioned JSON report; ``verify thm13`` with all
  of --D, --a1 and --a2 (and no --Dmax or --amax) checks one cell instead.
* ``table B|a3`` -- CSV tables over a (D, m, n) box.
* ``zeta`` -- floating truncation of the three-variable Dirichlet sum.
* ``moduli`` -- the oriented ideal-class pairs of one cell as JSON lines,
  each with its exact fiber cardinality.

Exit codes: 0 when every assertion passed (including "pass_with_findings"
verification reports, whose defects are expected and documented), 1 when a
verification found a real mismatch, 2 on usage errors, among them a verify
range flag below its least value or one that the identity does not read,
on running out of memory (in this process or in a pool worker), and on
output errors: an --output that cannot be opened, or a stdout that its
reader closed before the output ended.  ``main`` opens --output before the
command runs, so a path that cannot be opened fails at once, and a command
that fails after that leaves the file empty or partly written.

Start-up compiles and builds only the command it runs.  This module holds
the parser, the dispatch, ``run`` and ``main``.  ``_parse_plain`` reads a
plain command line (a command, its flags each once as ``--flag value``)
from the same table of arguments without importing argparse, and gives the
namespace that argparse would.  Anything else (help, a usage error, a
rarer form) goes to the argparse parser that ``_build_parser`` builds with
all eight subparsers, whose help and error text stay the only ones.  ``run``
imports the
command's handler module, ``cubezeta.commands.<name>``, when the command
runs, and each handler imports the library modules it reads (``count A``
``congruence`` only, ``table B`` ``orbits`` too, and only ``pairs --cubes``
and ``orbits --oracle`` ``cube``); ``verify`` looks its verifier up by name.
This module imports only ``congruence``, which every command reads, and the
handlers' shared plumbing in ``cubezeta.commands``.  The other library
modules stay registered but unrun (see the package docstring).  ``table``
runs the module of its row worker before a pool forks, so that the workers
inherit it.

The env var CUBEZETA_THREADS (or --threads) sets the worker-process count
for range subcommands.  A ``table`` too small to repay starting a process
pool, under 1.5 M rows for ``table B`` and 0.8 M for ``table a3``, runs in
one process whatever it says (see ``commands.table._workers``), and the
pool machinery is imported only when a pool starts.  Results are
written in submission order as they arrive (``table`` one discriminant at a
time), so output is byte-identical for every parallelism degree.
"""

from __future__ import annotations

import importlib
import os
import sys
from types import SimpleNamespace

from .commands import IDENTITIES, UsageError
from .congruence import DomainError, RangeError

_INT = {"type": int}
_REQUIRED = {"type": int, "required": True}
_CELL = {"type": int, "help": "single-cell mode (thm13)"}

# the flags of every command, as (name, add_argument keywords), first after -h
_COMMON = [
    ("--threads", {"type": int,
                   "help": "worker processes (default: CUBEZETA_THREADS or CPU count)"}),
    ("--output", {"help": "write to this file instead of stdout"}),
]

# command: (its help, its arguments after the common flags; a positional
# one comes first); the handler is ``commands.<command>.run``
_COMMANDS = {
    "count": ("one exact value", [
        ("what", {"choices": ["A", "B", "a3"]}),
        ("--d", {"type": int, "help": "discriminant-like integer (count A)"}),
        ("--a", {"type": int, "help": "modulus (count A)"}),
        ("--D", {"type": int, "help": "discriminant (count B / a3)"}),
        ("--m", _INT), ("--n", _INT),
    ]),
    "orbits": ("orbit count of one cell, optionally vs the enumeration oracle", [
        ("--D", _REQUIRED), ("--m", _REQUIRED), ("--n", _REQUIRED),
        ("--oracle", {"action": "store_true"}),
        ("--entry-bound", _INT), ("--slack", {"type": int, "default": 5}),
    ]),
    "pairs": ("congruence pairs of one cell", [
        ("--D", _REQUIRED), ("--m", _REQUIRED), ("--n", _REQUIRED),
        ("--cubes", {"action": "store_true",
                     "help": "append the cube representative of each pair"}),
    ]),
    "ppart": ("trivariate prime-part coefficients up to an index bound", [
        ("--kmax", _REQUIRED), ("--p", {"type": int, "help": "evaluate at this p"}),
    ]),
    "verify": ("run one identity check", [
        ("identity", {"choices": IDENTITIES}),
        ("--Dmax", _INT), ("--M", _INT), ("--kmax", _INT), ("--amax", _INT), ("--T", _INT),
        ("--D", _CELL), ("--a1", _CELL), ("--a2", _CELL),
    ]),
    "table": ("CSV table over a (D, m, n) box", [
        ("what", {"choices": ["B", "a3"]}), ("--Dmax", _REQUIRED), ("--Mmax", _REQUIRED),
    ]),
    "zeta": ("floating truncation of the three-variable Dirichlet sum", [
        ("--s1", {"type": float, "required": True}),
        ("--s2", {"type": float, "required": True}),
        ("--w", {"type": float, "required": True}),
        ("--Dmax", _REQUIRED), ("--Mmax", _REQUIRED),
    ]),
    "moduli": ("oriented ideal-class pairs of one cell, JSON per line", [
        ("--D", _REQUIRED), ("--a1", _REQUIRED), ("--a2", _REQUIRED),
    ]),
}


def run(args) -> int:
    """Execute one parsed invocation; returns the process exit code.

    Imports the handler module of the command here, so that a process
    compiles only the handler it runs.  ``args.output`` is the open output
    file, or None for stdout.
    """
    return importlib.import_module(f".commands.{args.subcommand}", __package__).run(args)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _parse_plain(argv: list) -> SimpleNamespace | None:
    """The namespace that argparse gives a plain command line; None for any other.

    Plain: a command; its positional choice next, if it takes one; then each
    of its flags at most once, exactly as spelled, a store_true flag alone and
    any other with one value, which its type reads; every required flag.  A
    value is a token that does not start with "-", or a negative integer.
    Help, usage errors, abbreviated flags, "--flag=value" and the like are
    left to argparse, whose text and reading stay the only ones.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    args = {"subcommand": argv[0]}
    flags = {}
    rest = iter(argv[1:])
    for name, keywords in [*_COMMON, *_COMMANDS[argv[0]][1]]:
        if not name.startswith("-"):
            args[name] = next(rest, None)
            if args[name] not in keywords["choices"]:
                return None
        else:
            flags[name] = keywords
            default = False if keywords.get("action") == "store_true" else None
            args[name.lstrip("-").replace("-", "_")] = keywords.get("default", default)
    given = set()
    for flag in rest:
        keywords = flags.get(flag)
        if keywords is None or flag in given:
            return None
        given.add(flag)
        dest = flag.lstrip("-").replace("-", "_")
        if keywords.get("action") == "store_true":
            args[dest] = True
            continue
        value = next(rest, None)
        if value is None or value.startswith("-") and not value[1:].isdecimal():
            return None
        try:
            args[dest] = keywords.get("type", str)(value)
        except ValueError:
            return None
    if any(keywords.get("required") and flag not in given for flag, keywords in flags.items()):
        return None
    return SimpleNamespace(**args)


def _build_parser():
    """The argparse parser, all eight subparsers: help, usage errors, rarer forms."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="cubezeta",
        description="Exact orbit counts, coefficient identities, and tables "
        "for integer cubes and their discriminant data.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in [*_COMMON, *arguments]:
            p.add_argument(flag, **keywords)
    return parser


def _resolve_threads(flag: int | None) -> int:
    if flag is not None:
        return max(1, flag)
    env = os.environ.get("CUBEZETA_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise UsageError(f"CUBEZETA_THREADS must be an integer, got {env!r}") from exc
    return os.cpu_count() or 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_plain(argv)
        if args is None:  # help, a usage error or a rarer form: argparse reads it
            args = _build_parser().parse_args(argv)
        args.threads = _resolve_threads(args.threads)
        if args.output is None:
            return run(args)
        try:  # before the work, so that a path that cannot be opened fails at once
            args.output = open(args.output, "w")
        except OSError as exc:
            raise UsageError(exc) from exc
        with args.output:
            return run(args)
    except SystemExit as exc:
        # argparse exits itself on usage errors / --help; surface the code
        return int(exc.code or 0)
    except (UsageError, DomainError, RangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # raised in this process, or re-raised from a pool worker
        print("error: out of memory", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (as `| head` does); what is still buffered
        # goes to devnull, so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

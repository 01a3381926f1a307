"""The command handlers of ``cubezeta``, one module per command, and their plumbing.

``cli.run`` imports ``cubezeta.commands.<name>`` when command <name> runs and
calls its ``run(args)`` with the parsed command line, each flag an attribute
of ``args``, so a process compiles only the handler that it runs.  This
package module holds what the handlers share; ``cli`` imports it for
``UsageError`` and ``IDENTITIES``.  No handler imports ``cli``: under ``python -m cubezeta.cli``
that module runs as ``__main__``, and importing it by name would compile it
a second time, with a second ``UsageError`` that ``main`` does not catch.
"""

from __future__ import annotations

import itertools
import sys


# the identities of ``verify``: the choices of its subparser, in the order of
# the rows of ``commands.verify._CHECKS``
IDENTITIES = ("prop21", "cor24", "prop25", "thm12", "thm44", "thm13", "siegel")


class UsageError(Exception):
    pass


def _discriminants(Dmax: int):
    """Nonzero D = 0, 1 mod 4 with |D| <= Dmax, ascending, one at a time."""
    return (D for D in range(-Dmax, Dmax + 1) if D and D % 4 in (0, 1))


def _discriminant_count(Dmax: int) -> int:
    """How many D ``_discriminants(Dmax)`` yields: D = 4k, and D = 4k + 1 on either side of 0."""
    return 2 * (Dmax // 4) + (Dmax + 3) // 4 + (Dmax + 1) // 4


# The most items in one batch of the pool: a batch's results are held at once,
# and a table row item is Mmax**2 rows.
_BATCH_CAP = 64


def _run_batch(fn, batch: list) -> list:
    return [fn(*item) for item in batch]


def _map_ordered(fn, items, threads: int, count: int):
    """Yield fn(*item) over the iterable items, in order; count is how many
    items there are, or fewer (siegel counts three cells per discriminant).

    A process pool runs them when threads > 1 and count > 1, in batches of
    count / (8 * threads) items, at most _BATCH_CAP.  Items are read as
    batches are submitted, and the pool holds at most 2 * threads batches
    that are submitted but not yet yielded, so neither the items nor
    finished results pile up while the caller lags.  A worker that dies, as
    one killed for memory does, is a UsageError.
    """
    if threads <= 1 or count <= 1:
        yield from (fn(*item) for item in items)
        return
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    chunk = min(max(1, count // (threads * 8)), _BATCH_CAP)
    items = iter(items)
    pending = []
    try:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            while batch := list(itertools.islice(items, chunk)):
                pending.append(pool.submit(_run_batch, fn, batch))
                if len(pending) >= 2 * threads:
                    yield from pending.pop(0).result()
            while pending:
                yield from pending.pop(0).result()
    except BrokenProcessPool as exc:
        raise UsageError("a worker process died, perhaps killed for lack of memory") from exc


def _write(texts, output) -> None:
    """Write each text as it comes, to stdout or to the output file that main opened."""
    out = output or sys.stdout
    out.writelines(texts)
    out.flush()  # a closed stdout raises here, inside main


def _emit(lines: list, output) -> None:
    _write(["".join(line + "\n" for line in lines)], output)


def _require(args, *names: str) -> list:
    """The flags of ``count`` that its value needs, which argparse cannot require."""
    values = [getattr(args, name) for name in names]
    missing = [name for name, value in zip(names, values) if value is None]
    if missing:
        raise UsageError("missing required flag(s): " + ", ".join(f"--{m}" for m in missing))
    return values


def _box(args) -> list:
    """--Dmax and --Mmax of a range command; a negative one is a usage error."""
    if args.Dmax < 0 or args.Mmax < 0:
        raise UsageError("--Dmax and --Mmax must be nonnegative")
    return [args.Dmax, args.Mmax]

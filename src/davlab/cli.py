"""Command line front end.

Exit codes: 0 success, 2 usage or validation problem, 3 budget exhausted
(partial rows are still emitted, with a stderr note), 4 an exact value
escaped its closed-form bracket, 130 an interrupt.  The command class
_Command enforces them: it maps the library's errors to codes 2 and 4 and
an interrupt to 130, and every command ends through _emit, which exits 2
when it cannot write --output and ends a truncated run with the note and 3.
The console script main is click's standalone run of cli, the same path
that click's CliRunner takes, so both give the same codes and stderr.

Thread count changes only wall time for a search that finishes inside its
wall-clock budget; where that budget cuts a search depends on scheduling.
See SearchBudget.
"""

import contextlib
import csv
import io
import json
import os
import sys
import tempfile

import click

from .bounds import table_row
from .davenport import SearchBudget, exact_davenport, verify_sandwich
from .errors import (
    BoundViolationError,
    BudgetExceededError,
    NoValidSplitError,
    TooLargeError,
)
from .metacyclic import GroupSpec, classify_extremal, format_sequence
from .modring import (
    WeightSet,
    crt_split,
    involutions,
    is_squarefree,
    quadratic_residue_weights,
)

ENV_BUDGET_SECONDS = "DAVLAB_BUDGET_SECONDS"
DEFAULT_BUDGET_SECONDS = 60.0


def _default_seconds():
    raw = os.environ.get(ENV_BUDGET_SECONDS)
    if raw is None:
        return DEFAULT_BUDGET_SECONDS
    try:
        value = float(raw)
    except ValueError:
        raise click.UsageError(
            f"{ENV_BUDGET_SECONDS} must be a number, got {raw!r}"
        )
    if not value > 0:
        raise click.UsageError(f"{ENV_BUDGET_SECONDS} must be positive")
    return value


def _budget(threads, max_nodes, budget_seconds):
    seconds = budget_seconds if budget_seconds is not None else _default_seconds()
    return SearchBudget(
        max_nodes=max_nodes, max_seconds=seconds, parallel_width=threads
    )


def parse_weight_family(n, text):
    """Weight families: one, pm1, qr, range:R, onestwo:S, or a comma list."""
    text = text.strip()
    try:
        if text == "one":
            return WeightSet(n, (1,))
        if text == "pm1":
            return WeightSet(n, (1, n - 1))
        if text == "qr":
            if n % 2 == 0 or not is_squarefree(n):
                click.echo(
                    f"note: n={n} is not odd squarefree; quadratic residue "
                    "weights carry no closed form there",
                    err=True,
                )
            return quadratic_residue_weights(n)
        if text.startswith("range:"):
            r = int(text.partition(":")[2])
            if not 1 <= r <= n - 1:
                raise click.UsageError(
                    f"range bound must lie in [1, {n - 1}], got {r}"
                )
            return WeightSet(n, range(1, r + 1))
        if text.startswith("onestwo:"):
            s = int(text.partition(":")[2]) % n
            if s not in involutions(n):
                raise click.UsageError(
                    f"s={s} is not a nontrivial involution mod {n}"
                )
            return WeightSet(n, (1, s))
        return WeightSet(n, (int(p) for p in text.split(",")))
    except ValueError as e:
        raise click.UsageError(f"bad weight family {text!r}: {e}")


def _render(rows, columns, fmt):
    if fmt == "json":
        payload = [{c: r.get(c) for c in columns} for r in rows]
        return json.dumps({"rows": payload}, indent=2) + "\n"
    cells = [["" if r.get(c) is None else str(r.get(c)) for c in columns] for r in rows]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([columns, *cells])
        return buf.getvalue()
    widths = [
        max(len(c), *(len(row[i]) for row in cells)) if cells else len(c)
        for i, c in enumerate(columns)
    ]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    if not rows:
        lines.append("(no rows)")
    return "\n".join(lines) + "\n"


class _OutputError(click.FileError):
    """An --output file that cannot be written: a usage problem, exit 2."""

    exit_code = 2


def _emit(rows, columns, fmt, output, cut=None):
    """Write the rows to stdout, or atomically to the file output.  A search
    cut short passes cut, the tail of its stderr note: the note goes out
    first, then the rows, and the run exits 3."""
    if cut:
        click.echo(f"search truncated; {cut}", err=True)
    text = _render(rows, columns, fmt)
    if output is None:
        click.echo(text, nl=False)
    else:
        # Write-then-rename so readers never observe a half-written file.
        directory = os.path.dirname(os.path.abspath(output))
        try:
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".davlab-")
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(text)
                os.replace(tmp, output)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
        except OSError as e:
            raise _OutputError(output, hint=e.strerror) from None
    if cut:
        sys.exit(3)


def _format_options(fn):
    fn = click.option(
        "--format",
        "fmt",
        type=click.Choice(["human", "csv", "json"]),
        default="human",
        show_default=True,
        help="Output format.",
    )(fn)
    return click.option(
        "--output", type=click.Path(dir_okay=False), default=None,
        help="Write the result to a file (atomically) instead of stdout.",
    )(fn)


def _budget_options(fn):
    fn = click.option(
        "--threads", type=int, default=1, show_default=True,
        help="Parallel root branches; changes no emitted value of a search "
        "that finishes inside its wall-clock budget.",
    )(fn)
    fn = click.option(
        "--max-nodes", type=int, default=SearchBudget.max_nodes,
        show_default=True,
        help="Node budget per root branch: one node per new search state or "
        "listed chain (memo hits cost none), in exact and classify alike.",
    )(fn)
    return click.option(
        "--budget-seconds", type=float, default=None,
        help=f"Wall-clock deadline per search, shared by all its workers "
        f"(default ${ENV_BUDGET_SECONDS} or {DEFAULT_BUDGET_SECONDS:g}).",
    )(fn)


class _Command(click.Command):
    """A subcommand whose library errors become exit codes: a ValueError or
    TooLargeError is a usage error (2) that shows this subcommand's usage,
    a BoundViolationError exits 4 and an interrupt 130."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, TooLargeError) as e:
            raise click.UsageError(str(e), ctx)
        except BoundViolationError as e:
            click.echo(f"bound violation: {e}", err=True)
            sys.exit(4)
        except KeyboardInterrupt:
            click.echo(err=True)  # end the ^C line, as click does
            sys.exit(130)


@click.group()
def cli():
    """Weighted zero-sum constants over Z_n and product-one-free sequences."""


cli.command_class = _Command


@cli.command("involutions")
@click.option("--n", type=int, required=True, help="Modulus.")
@_format_options
def involutions_cmd(n, fmt, output):
    """List nontrivial square roots of 1 mod n and their preferred splits."""
    rows = []
    for s in involutions(n):
        try:
            split = crt_split(n, s)
            rows.append(
                {"n": n, "s": s, "n1": split.n1, "n2": split.n2, "status": "ok"}
            )
        except NoValidSplitError:
            rows.append({"n": n, "s": s, "status": "no_valid_split"})
    _emit(rows, ["n", "s", "n1", "n2", "status"], fmt, output)


@cli.command("table")
@click.option("--n-max", type=int, required=True, help="Largest modulus scanned.")
@click.option("--exact", "with_exact", is_flag=True,
              help="Also compute the exact constant per row.")
@_budget_options
@_format_options
def table_cmd(n_max, with_exact, threads, max_nodes, budget_seconds, fmt, output):
    """Bracket table over all (n, s) with a valid split, n up to --n-max."""
    budget = _budget(threads, max_nodes, budget_seconds)
    rows = []
    cut = None
    for n in range(2, n_max + 1):
        for s in involutions(n):
            try:
                bracket = table_row(n, s)
            except NoValidSplitError:
                continue
            row = {
                "n": n, "s": s, "n1": bracket.n1, "n2": bracket.n2,
                "lower": bracket.lower, "upper": bracket.upper,
            }
            if with_exact:
                try:
                    row["exact"] = verify_sandwich(n, s, budget).exact
                except BudgetExceededError as e:
                    row["exact"] = f">={e.partial.exact}"
                    cut = "exact cells marked >= are lower estimates"
            rows.append(row)
    _emit(rows, ["n", "s", "n1", "n2", "lower", "exact", "upper"], fmt,
          output, cut)


@cli.command("exact")
@click.option("--n", type=int, required=True, help="Modulus.")
@click.option("--weights", "weights_text", required=True,
              help="one | pm1 | qr | range:R | onestwo:S | comma list.")
@click.option("--witnesses", "with_witnesses", is_flag=True,
              help="Also list every longest zero-sum-free sequence.")
@_budget_options
@_format_options
def exact_cmd(n, weights_text, with_witnesses, threads, max_nodes,
              budget_seconds, fmt, output):
    """Exact weighted Davenport constant for one modulus and weight family."""
    if n < 2:
        raise click.UsageError(f"need n >= 2, got {n}")
    weight_set = parse_weight_family(n, weights_text)
    budget = _budget(threads, max_nodes, budget_seconds)
    row = {"n": n, "weights": "|".join(str(w) for w in weight_set)}
    cut = None
    try:
        res = exact_davenport(n, weight_set, budget)
        row["constant"] = res.constant
        row["exhaustive"] = True
        row["witness_count"] = len(res.witnesses)
        if with_witnesses:
            row["witnesses"] = "|".join(
                " ".join(str(x) for x in w.elements) for w in res.witnesses
            )
    except BudgetExceededError as e:
        row["constant"] = f">={e.partial.constant}"
        row["exhaustive"] = False
        cut = "the constant is a lower estimate"
    _emit(
        [row],
        ["n", "weights", "constant", "exhaustive", "witness_count", "witnesses"],
        fmt, output, cut,
    )


@cli.command("classify")
@click.option("--n", type=int, required=True, help="Order of the cyclic part.")
@click.option("--s", type=int, required=True, help="Conjugation multiplier.")
@click.option("--length", type=int, required=True, help="Sequence length.")
@_budget_options
@_format_options
def classify_cmd(n, s, length, threads, max_nodes, budget_seconds, fmt, output):
    """All product-one-free sequences of one length in C_n : C_2."""
    spec = GroupSpec(n, s)
    budget = _budget(threads, max_nodes, budget_seconds)
    cut = None
    try:
        report = classify_extremal(spec, length, budget)
    except BudgetExceededError as e:
        report, cut = e.partial, "the listing may be incomplete"
    rows = [
        {"family": "claimed", "sequence": format_sequence(seq)}
        for seq in report.claimed
    ]
    rows += [
        {"family": "other", "sequence": format_sequence(seq)}
        for seq in report.other
    ]
    _emit(rows, ["family", "sequence"], fmt, output, cut)


main = cli  # the console script


if __name__ == "__main__":
    main()

"""Command line front end.

Exit codes: 0 success, 2 usage or validation problem, 3 budget exhausted
(partial rows are still emitted), 4 an exact value escaped its closed-form
bracket.  Thread count changes only wall time for a search that finishes
inside its wall-clock budget; where that budget cuts a search depends on
scheduling.  See SearchBudget.
"""

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
    DavlabError,
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
    try:
        return SearchBudget(
            max_nodes=max_nodes, max_seconds=seconds, parallel_width=threads
        )
    except ValueError as e:
        raise click.UsageError(str(e))


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
            if (s * s) % n != 1 or s in (0, 1, n - 1):
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
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for r in rows:
            writer.writerow(
                ["" if r.get(c) is None else str(r.get(c)) for c in columns]
            )
        return buf.getvalue()
    cells = [[("" if r.get(c) is None else str(r.get(c))) for c in columns] for r in rows]
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


def _emit(rows, columns, fmt, output):
    text = _render(rows, columns, fmt)
    if output is None:
        click.echo(text, nl=False)
        return
    # Write-then-rename so readers never observe a half-written file.
    directory = os.path.dirname(os.path.abspath(output))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".davlab-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, output)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


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
        "--max-nodes", type=int, default=20_000_000, show_default=True,
        help="Node budget per root branch: one node per new search state or "
        "listed chain (memo hits cost none), in exact and classify alike.",
    )(fn)
    return click.option(
        "--budget-seconds", type=float, default=None,
        help=f"Wall-clock deadline per search, shared by all its workers "
        f"(default ${ENV_BUDGET_SECONDS} or {DEFAULT_BUDGET_SECONDS:g}).",
    )(fn)


@click.group()
def cli():
    """Weighted zero-sum constants over Z_n and product-one-free sequences."""


@cli.command("involutions")
@click.option("--n", type=int, required=True, help="Modulus.")
@_format_options
def involutions_cmd(n, fmt, output):
    """List nontrivial square roots of 1 mod n and their preferred splits."""
    try:
        roots = involutions(n)
    except ValueError as e:
        raise click.UsageError(str(e))
    rows = []
    for s in roots:
        try:
            split = crt_split(n, s)
            rows.append(
                {"n": n, "s": s, "n1": split.n1, "n2": split.n2, "status": "ok"}
            )
        except NoValidSplitError:
            rows.append(
                {"n": n, "s": s, "n1": None, "n2": None,
                 "status": "no_valid_split"}
            )
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
    exceeded = False
    for n in range(2, n_max + 1):
        for s in involutions(n):
            try:
                bracket = table_row(n, s)
            except NoValidSplitError:
                continue
            row = {
                "n": n, "s": s, "n1": bracket.n1, "n2": bracket.n2,
                "lower": bracket.lower, "exact": None, "upper": bracket.upper,
            }
            if with_exact:
                try:
                    row["exact"] = verify_sandwich(n, s, budget).exact
                except BudgetExceededError as e:
                    row["exact"] = f">={e.partial.exact}"
                    exceeded = True
                except BoundViolationError as e:
                    click.echo(f"bound violation: {e}", err=True)
                    sys.exit(4)
            rows.append(row)
    _emit(rows, ["n", "s", "n1", "n2", "lower", "exact", "upper"], fmt, output)
    if exceeded:
        sys.exit(3)


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
    row = {
        "n": n,
        "weights": "|".join(str(w) for w in weight_set),
        "constant": None,
        "exhaustive": None,
        "witness_count": None,
        "witnesses": None,
    }
    exceeded = False
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
        exceeded = True
        click.echo("search truncated; the constant is a lower estimate", err=True)
    except TooLargeError as e:
        raise click.UsageError(str(e))
    _emit(
        [row],
        ["n", "weights", "constant", "exhaustive", "witness_count", "witnesses"],
        fmt, output,
    )
    if exceeded:
        sys.exit(3)


@cli.command("classify")
@click.option("--n", type=int, required=True, help="Order of the cyclic part.")
@click.option("--s", type=int, required=True, help="Conjugation multiplier.")
@click.option("--length", type=int, required=True, help="Sequence length.")
@_budget_options
@_format_options
def classify_cmd(n, s, length, threads, max_nodes, budget_seconds, fmt, output):
    """All product-one-free sequences of one length in C_n : C_2."""
    try:
        spec = GroupSpec(n, s)
    except ValueError as e:
        raise click.UsageError(str(e))
    budget = _budget(threads, max_nodes, budget_seconds)
    exceeded = False
    try:
        report = classify_extremal(spec, length, budget)
    except ValueError as e:
        raise click.UsageError(str(e))
    except BudgetExceededError as e:
        report = e.partial
        exceeded = True
        click.echo("search truncated; the listing may be incomplete", err=True)
    rows = [
        {"family": "claimed", "sequence": format_sequence(seq)}
        for seq in report.claimed
    ]
    rows += [
        {"family": "other", "sequence": format_sequence(seq)}
        for seq in report.other
    ]
    _emit(rows, ["family", "sequence"], fmt, output)
    if exceeded:
        sys.exit(3)


def main():
    try:
        cli(standalone_mode=False)
    except click.exceptions.Abort:
        sys.exit(130)
    except click.ClickException as e:
        e.show()
        sys.exit(max(e.exit_code, 2))
    except BoundViolationError as e:
        click.echo(f"bound violation: {e}", err=True)
        sys.exit(4)
    except DavlabError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    main()

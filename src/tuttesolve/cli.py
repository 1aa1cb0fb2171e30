"""Command line entry point.

One subcommand, ``solve``, runs the whole pipeline on a single equation and
prints the report.  Exit codes: 0 when the result is proven, 2 when only a
conjectural (uncertified) result was produced, 1 on any error.
"""

from __future__ import annotations

import sys

import click

from . import __version__
from .errors import TutteSolveError
from .pipeline import PipelineConfig, run_pipeline
from .report import FORMATS, render_report


@click.group()
@click.version_option(version=__version__)
def main():
    """Exact solver for Tutte-type functional equations."""


@main.command()
@click.option("--equation", required=True,
              help="equation text, e.g. 'psi - 1 - x*(y*psi + g)'")
@click.option("--guess-order", default=24, show_default=True, type=int,
              help="initial series expansion order K")
@click.option("--max-complexity", default=8, show_default=True, type=int,
              help="cap on recurrence order + degree for minimization")
@click.option("--eval-at", default=1000, show_default=True, type=int,
              help="sequence index G to evaluate exactly")
@click.option("--column", default=0, show_default=True, type=int,
              help="also extract the coefficients of y^m (guess only)")
@click.option("--format", "fmt", default="text", show_default=True,
              type=click.Choice(FORMATS),
              help="report rendering")
@click.option("--prove/--no-prove", default=True, show_default=True,
              help="certify the guessed equations (or label them conjectural)")
@click.option("--max-degree", default=16, show_default=True, type=int,
              help="ceiling on guessed degrees")
@click.option("--seed-report", default=None,
              type=click.Path(dir_okay=False, writable=True),
              help="also write the structured report to this path")
def solve(equation, guess_order, max_complexity, eval_at, column, fmt,
          prove, max_degree, seed_report):
    """Solve one functional equation and print the report."""
    try:
        cfg = PipelineConfig(equation=equation, guess_order=guess_order,
                             max_complexity=max_complexity, eval_at=eval_at,
                             column=column, prove=prove, max_degree=max_degree)
        rep = run_pipeline(cfg)
    except TutteSolveError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    click.echo(render_report(rep, fmt), nl=False)
    if seed_report:
        with open(seed_report, "w", encoding="utf-8") as fh:
            fh.write(render_report(rep, "structured"))
    sys.exit(0 if rep.proven else 2)


if __name__ == "__main__":
    main()

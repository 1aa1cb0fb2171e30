"""Command line entry point.

One subcommand, ``solve``, runs the whole pipeline on a single equation and
prints the report.  Exit codes: 0 when the result is proven, 2 when only a
conjectural (uncertified) result was produced, 1 on any error.
"""

from __future__ import annotations

import sys
from dataclasses import fields

import click

from . import __version__
from .errors import TutteSolveError
from .pipeline import PipelineConfig, run_pipeline
from .report import FORMATS, render_report

_DEFAULT = {f.name: f.default for f in fields(PipelineConfig)}


@click.group()
@click.version_option(version=__version__)
def main():
    """Exact solver for Tutte-type functional equations."""


@main.command(context_settings={"show_default": True})
@click.option("--equation", required=True,
              help="equation text, e.g. 'psi - 1 - x*(y*psi + g)'")
@click.option("--guess-order", default=_DEFAULT["guess_order"], type=int,
              help="initial order K of the prefix of g the guess is fitted to")
@click.option("--max-complexity", default=_DEFAULT["max_complexity"], type=int,
              help="cap on recurrence order + degree for minimization")
@click.option("--eval-at", default=_DEFAULT["eval_at"], type=int,
              help="sequence index G to evaluate exactly")
@click.option("--column", default=_DEFAULT["column"], type=int,
              help="also extract the coefficients of y^m (guess only)")
@click.option("--format", "fmt", default="text",
              type=click.Choice(FORMATS), help="report rendering")
@click.option("--prove/--no-prove", default=_DEFAULT["prove"],
              help="certify the guessed equations (or label them conjectural)")
@click.option("--max-degree", default=_DEFAULT["max_degree"], type=int,
              help="ceiling on guessed degrees")
@click.option("--seed-report", default=None,
              type=click.Path(dir_okay=False, writable=True),
              help="also write the structured report to this path")
def solve(fmt, seed_report, **options):
    """Solve one functional equation and print the report."""
    try:
        # every other option is the PipelineConfig field of its name
        rep = run_pipeline(PipelineConfig(**options))
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

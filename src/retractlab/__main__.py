"""`python -m retractlab`: the same command line as the `retractlab` script."""

from .cli import main

main()

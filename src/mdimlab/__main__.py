"""`python -m mdimlab`: the command line of `mdimlab.cli`."""

from .cli import main

# guarded so that importing every module (as a tracer does) runs nothing
if __name__ == "__main__":
    raise SystemExit(main())

"""Functions of ddqsim that none of ``output_digest.py``'s commands call.

Runs the commands of ``tools/output_digest.py`` (its digest goes to stderr)
under ``sys.setprofile`` and ``threading.setprofile``, so calls made on the
worker threads of ``--threads 2`` count too. Prints, grouped by module, the
functions and methods defined in ``src/ddqsim`` (nested ``def``s included,
lambdas and comprehensions not) that no command called, then the line count
of ``src/ddqsim/*.py``.

    python3 tools/reach.py            # ddqsim from ../src
    python3 tools/reach.py --src DIR  # ddqsim from another tree
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import importlib
import inspect
import os
import pkgutil
import sys
import threading
import types

import output_digest


def defined_codes(module) -> dict:
    """Code objects of the functions defined in ``module``'s file, with
    their qualified names: its functions, the methods and properties of its
    classes, and the ``def``s nested in any of them."""
    path = module.__file__
    tops = []
    for obj in vars(module).values():
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr in vars(obj).values():
                if isinstance(attr, (staticmethod, classmethod)):
                    attr = attr.__func__
                if isinstance(attr, property):
                    attr = attr.fget
                tops.append(attr)
        else:
            tops.append(obj)
    todo = [(f.__code__, f.__qualname__) for f in tops
            if isinstance(f, types.FunctionType)
            and f.__code__.co_filename == path]
    out = {}
    while todo:
        code, name = todo.pop()
        if code in out or code.co_name.startswith("<"):
            continue
        out[code] = name
        todo += [(c, f"{name}.<locals>.{c.co_name}") for c in code.co_consts
                 if isinstance(c, types.CodeType)]
    return out


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                        help="directory holding the ddqsim package")
    args = parser.parse_args(argv)

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            output_digest.main(["--src", args.src])
    finally:
        sys.setprofile(None)
        threading.setprofile(None)

    import ddqsim
    total = unreached = 0
    for info in sorted(pkgutil.iter_modules(ddqsim.__path__),
                       key=lambda m: m.name):
        module = importlib.import_module(f"ddqsim.{info.name}")
        codes = defined_codes(module)
        total += len(codes)
        missed = sorted((c.co_firstlineno, name) for c, name in codes.items()
                        if c not in called)
        unreached += len(missed)
        if missed:
            print(module.__name__)
            for line, name in missed:
                print(f"  {name}  (line {line})")
    print(f"{unreached} of {total} functions called by no command")
    lines = 0
    for path in sorted(glob.glob(os.path.join(ddqsim.__path__[0], "*.py"))):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    print(f"src/ddqsim/*.py: {lines} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())

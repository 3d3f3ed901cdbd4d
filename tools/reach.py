"""Functions of ddqsim that none of ``output_digest.py``'s commands call.

Runs the commands of ``tools/output_digest.py`` (its digest goes to stderr)
under ``sys.setprofile`` and ``threading.setprofile``, so calls made on the
worker threads of ``--threads 2`` count too. Prints, grouped by module, the
functions and methods defined in ``src/ddqsim`` (nested ``def``s included,
lambdas and comprehensions not) that no command called, then the line count
of ``src/ddqsim/*.py``.

With ``--lines`` it traces lines instead (``sys.settrace`` and
``threading.settrace``) and prints, grouped by module, the statements no
command executed. ``raise`` statements, the bodies of ``except`` clauses,
docstrings and ``try`` headers are left out: the first two are the error
paths a digest command does not take, the others run no code of their own.

    python3 tools/reach.py                  # ddqsim from ../src
    python3 tools/reach.py --src DIR        # ddqsim from another tree
    python3 tools/reach.py --lines          # unexecuted statements
"""

from __future__ import annotations

import argparse
import ast
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


def statements(path: str) -> dict:
    """First line -> (the lines of its own code, its source line) of each
    statement in the file ``path`` that ``--lines`` reports: a compound
    statement owns its header lines, not those of the statements it
    holds."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    text = source.splitlines()
    out = {}

    def visit(body, docstring_ok):
        for i, node in enumerate(body):
            if isinstance(node, ast.Raise) or (
                    docstring_ok and i == 0 and isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(
                node, "decorator_list", ())])
            own = set(range(first, node.end_lineno + 1))
            head = set(own)
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
            for name in ("body", "orelse", "finalbody", "handlers"):
                for child in getattr(node, name, ()):
                    own -= set(range(child.lineno, child.end_lineno + 1))
                if name == "handlers":
                    continue   # except bodies are error paths
                visit(getattr(node, name, ()), is_def and name == "body")
            if not isinstance(node, (ast.Try, ast.TryStar)):
                # a one-line "if x: y" owns no line of its own
                out[first] = (own or head, text[node.lineno - 1].strip())

    visit(ast.parse(source).body, True)
    return out


def executed_lines(run, package_dir: str) -> dict:
    """File name -> the lines executed in it while ``run()`` runs, on any
    thread, for the files under ``package_dir``."""
    hits, ours = {}, {}
    prefix = os.path.join(os.path.abspath(package_dir), "")

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if path not in ours:
            ours[path] = path.startswith(prefix)
        if not ours[path]:
            return None
        lines = hits.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hits


def report_lines(hits: dict) -> None:
    import ddqsim
    total = unexecuted = 0
    for info in sorted(pkgutil.iter_modules(ddqsim.__path__),
                       key=lambda m: m.name):
        path = importlib.import_module(f"ddqsim.{info.name}").__file__
        lines = hits.get(path, set())
        stmts = statements(path)
        total += len(stmts)
        missed = [(first, src) for first, (own, src) in sorted(stmts.items())
                  if not own & lines]
        unexecuted += len(missed)
        if missed:
            print(f"ddqsim.{info.name}")
            for first, src in missed:
                print(f"  {first}: {src}")
    print(f"{unexecuted} of {total} statements executed by no command")


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                        help="directory holding the ddqsim package")
    parser.add_argument("--lines", action="store_true",
                        help="list unexecuted statements, not functions")
    args = parser.parse_args(argv)

    def run_digest():
        with contextlib.redirect_stdout(sys.stderr):
            output_digest.main(["--src", args.src])

    if args.lines:
        report_lines(executed_lines(run_digest,
                                    os.path.join(args.src, "ddqsim")))
        print_line_count()
        return 0
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        run_digest()
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
    print_line_count()
    return 0


def print_line_count() -> None:
    import ddqsim
    lines = 0
    for path in sorted(glob.glob(os.path.join(ddqsim.__path__[0], "*.py"))):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    print(f"src/ddqsim/*.py: {lines} lines")


if __name__ == "__main__":
    sys.exit(main())

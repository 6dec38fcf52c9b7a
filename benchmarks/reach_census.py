"""Which ``src/`` functions each test module, script or benchmark reaches.

A stdlib stand-in for a coverage tool: ``sys.setprofile`` sees every Python
call whose callee lives under ``src/`` and records it against the context
that was running (a test module, a benchmark module, a script, or imports).
It is a census to read, not a gate; its name matches no ``bench_*`` pattern,
so pytest never collects it.

Record, one JSON file per run::

    python -m pytest -q -p benchmarks.reach_census --reach-out=census/tests.json
    python -m pytest -q benchmarks/ -p benchmarks.reach_census --reach-out=census/bench.json
    python benchmarks/reach_census.py run census/quickstart.json examples/quickstart.py
    python benchmarks/reach_census.py run census/cli.json -m repro.cli simulate --n 2000

Report::

    python benchmarks/reach_census.py report census/*.json

Each run records, per context and function, the ways the function was
entered: ``"direct"`` (called from outside ``src/``, e.g. by the test
itself) and ``"via_src"`` (called by other ``src/`` code).  The report lists
the functions defined under ``src/`` that no script, benchmark or import
reaches, split into those some test calls directly (reached only by their
own unit tests, whether or not other ``src/`` code also calls them), those
tests reach only through other ``src/`` code, and those nothing reaches.
Pool worker processes are not traced.
"""

from __future__ import annotations

import json
import os
import runpy
import sys
import threading
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src") + os.sep


def _key(code) -> str:
    return f"{os.path.relpath(code.co_filename, ROOT)}:{code.co_qualname}"


class Census:
    """Call edges into ``src/``, grouped by the running context."""

    def __init__(self) -> None:
        self.context = "import"
        # context -> {callee code: the ways it was entered, "direct"/"via_src"}
        self.reached: dict[str, dict] = defaultdict(dict)

    def profile(self, frame, event, arg) -> None:
        if event != "call" or not frame.f_code.co_filename.startswith(SRC):
            return
        code = frame.f_code
        back = frame.f_back
        via_src = (
            back is not None
            and back.f_code is not code
            and back.f_code.co_filename.startswith(SRC)
        )
        seen = self.reached[self.context]
        seen.setdefault(code, set()).add("via_src" if via_src else "direct")

    def start(self) -> None:
        threading.setprofile(self.profile)
        sys.setprofile(self.profile)

    def dump(self, path: str) -> None:
        sys.setprofile(None)
        threading.setprofile(None)
        payload = {
            context: {_key(code): sorted(ways) for code, ways in seen.items()}
            for context, seen in self.reached.items()
        }
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=0, sort_keys=True)


_CENSUS = Census()


def pytest_addoption(parser):
    parser.addoption("--reach-out", default="reach-census.json",
                     help="where to write the reach census (JSON)")


def pytest_configure(config):
    _CENSUS.start()


def pytest_runtest_setup(item):
    path = item.location[0]
    kind = "bench" if path.startswith("benchmarks") else "test"
    _CENSUS.context = f"{kind}:{path}"


def pytest_unconfigure(config):
    _CENSUS.dump(config.getoption("--reach-out"))


def _defined_functions() -> set[str]:
    """Every named function and method defined under ``src/``."""
    names: set[str] = set()
    for folder, _, files in os.walk(SRC):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path) as handle:
                stack = [compile(handle.read(), path, "exec")]
            while stack:
                code = stack.pop()
                stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
                if not code.co_qualname.rpartition(".")[2].startswith("<"):
                    names.add(_key(code))
    return names


def report(paths: list[str]) -> None:
    production: set[str] = set()
    via_src: set[str] = set()
    direct: dict[str, set[str]] = defaultdict(set)
    for path in paths:
        with open(path) as handle:
            for context, seen in json.load(handle).items():
                for key, ways in seen.items():
                    if not context.startswith("test:"):
                        production.add(key)
                        continue
                    if "direct" in ways:
                        direct[key].add(context[len("test:"):])
                    if "via_src" in ways:
                        via_src.add(key)
    defined = _defined_functions()
    own_tests = sorted(k for k in direct if k in defined and k not in production)
    tests_via_src = sorted(k for k in via_src if k in defined
                           and k not in production and k not in direct)
    unreached = sorted(defined - production - via_src - set(direct))
    print(f"# reached only by their own unit tests ({len(own_tests)})")
    for key in own_tests:
        print(f"{key}  <- {', '.join(sorted(direct[key]))}")
    print(f"\n# reached by tests only through other src code ({len(tests_via_src)})")
    print("\n".join(tests_via_src))
    print(f"\n# reached by nothing ({len(unreached)})")
    print("\n".join(unreached))


def main(argv: list[str]) -> None:
    if argv[:1] == ["report"]:
        report(argv[1:])
        return
    if len(argv) < 3 or argv[0] != "run":
        raise SystemExit(__doc__)
    out, target, rest = argv[1], argv[2], argv[3:]
    module = target == "-m"
    if module:
        target, rest = rest[0], rest[1:]
    sys.argv = [target, *rest]
    sys.path[:0] = [SRC] if module else [SRC, os.path.dirname(os.path.abspath(target))]
    _CENSUS.context = "script:" + " ".join(sys.argv)
    _CENSUS.start()
    try:
        if module:
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(target, run_name="__main__")
    except SystemExit as exit_:
        if exit_.code not in (None, 0):
            raise
    finally:
        _CENSUS.dump(out)


if __name__ == "__main__":
    main(sys.argv[1:])

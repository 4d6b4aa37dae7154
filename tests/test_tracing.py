"""The benchmark's traced run wraps redarg functions by name, so a
refactor that renames or deletes one leaves its span or counter empty."""

import importlib
import importlib.util
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module, func", tracing.SPANS + tracing.COUNTED)
def test_traced_names_are_callables(module, func):
    assert callable(getattr(importlib.import_module(f"redarg.{module}"), func, None))


# Library functions that no command calls, so no command-line run can
# record them (ROADMAP items 6 and 7).
LIBRARY_ONLY = {"analysis.variable_case", "analysis.pattern_case"}


def test_every_traced_name_records_a_call(corpus_dir):
    import redarg.cli

    applast = str(corpus_dir / "applast.trs")
    runs = [
        ["check", str(corpus_dir / "negative" / "nonconfluent.trs")],
        ["analyze", applast],
        ["erase", applast, "--reduced"],
        ["verify", applast, "--trials", "5"],
        ["eval", applast, "-e", "applast(cons(Z, nil), S(Z))", "--trace"],
        ["oracle", applast, "-f", "lastnew", "-i", "1", "--ctx-depth", "1",
         "--term-depth", "2", "--json"],
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv in runs:
            out = io.StringIO()
            with redirect_stdout(out):
                # looked up on the module, where the tracer rebinds it
                assert redarg.cli.main(argv) == 0, argv
    finally:
        tracer.uninstall()
    calls = tracer.self_times()[1]
    silent = [f"{m}.{f}" for m, f in tracing.SPANS if not calls.get(f"{m}.{f}")]
    silent += [f"{m}.{f}" for m, f in tracing.COUNTED if not tracer.counts.get(f"{m}.{f}.calls")]
    assert set(silent) == LIBRARY_ONLY
    # per_layer reads oracle.cases as half the plug calls
    cases = json.loads(out.getvalue())["cases_checked"]
    assert cases > 0
    assert tracer.counts["oracle.plug.calls"] == 2 * cases

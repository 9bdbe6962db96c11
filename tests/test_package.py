"""The package surface: its exported names and the README quickstart."""

import importlib
import importlib.util
import pathlib
import re

import oudesign
from oudesign import CollapseInterval, SearchResult

MODULES = ("model", "fim", "objectives", "search", "asymptotics", "mc", "exceptions")
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
TRACING = README.parent / "bench" / "tracing.py"


def test_package_exports_exactly_the_modules_public_names():
    names = oudesign.__all__
    assert len(names) == len(set(names))
    modules = [getattr(oudesign, m).__all__ for m in MODULES]
    assert set(names) == {"__version__"}.union(*modules)
    assert sum(len(m) for m in modules) == len(names) - 1  # no name in two modules
    for name in names:
        assert getattr(oudesign, name) is not None


def quickstart_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quickstart_runs_and_its_claims_hold():
    printed = []
    exec(quickstart_block(), {"print": printed.append})
    fim, evaluation, interval, three_point, two_point, doubling, eff_percent = printed
    assert isinstance(interval, CollapseInterval)
    assert (round(interval.lower, 4), round(interval.upper, 4)) == (0.5718, 4.9586)
    assert three_point.collapsed and interval.contains(1.0)
    assert isinstance(two_point, SearchResult)
    assert round(two_point.argopt, 4) == 0.1943
    assert 112.0 <= eff_percent <= 118.0


def test_every_name_the_benchmark_tracer_wraps_exists():
    # the traced benchmark wraps these functions by module and name; a
    # rename would otherwise only fail a traced benchmark run
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # imports only the standard library
    for mod, names in tracing.LAYERS.items():
        module = importlib.import_module(f"oudesign.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"oudesign.{mod}.{name}"

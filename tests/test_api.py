import copy
import importlib
import importlib.util
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import colorref
import colorref.cli

# The whole public surface. Pinning it exactly keeps helpers that only
# tests used from coming back, and catches a dangling export.
PUBLIC_NAMES = [
    "Coloring",
    "CounterexampleWitness",
    "Graph",
    "ParseError",
    "Partition",
    "RefinementTrace",
    "TraceDocument",
    "coloring_from_labels",
    "colorings_isomorphic",
    "emit_coloring",
    "emit_dot",
    "emit_edge_list",
    "emit_trace_document",
    "expand_edges",
    "find_inequitable_pair",
    "naive_refine",
    "new_graph",
    "parse_coloring",
    "parse_dimacs",
    "parse_edge_list",
    "parse_trace",
    "partition_of",
    "random_graph",
    "refine_step",
    "refine_to_fixpoint",
    "search_refinement_counterexample",
    "trace_document",
    "violation_witness",
    "zero_coloring",
]

LIBRARY_MODULES = ("_trace", "coloring", "formats", "graph", "oracle", "refine")


def test_all_is_sorted_and_pinned():
    assert colorref.__all__ == sorted(colorref.__all__)
    assert colorref.__all__ == PUBLIC_NAMES


def test_every_export_resolves():
    for name in colorref.__all__:
        getattr(colorref, name)
    namespace = {}
    exec("from colorref import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(colorref.__all__)


def test_library_modules_define_no_unexported_public_names():
    exported = set(colorref.__all__)
    for short in LIBRARY_MODULES:
        module = importlib.import_module(f"colorref.{short}")
        defined = {
            name
            for name, obj in vars(module).items()
            if not name.startswith("_")
            and getattr(obj, "__module__", None) == module.__name__
        }
        assert defined <= exported, (short, sorted(defined - exported))


def test_cli_imports_only_the_standard_library():
    # Compared against the modules already loaded at start-up, since site
    # hooks may import third-party packages before any user code runs. The
    # second line lists what every command would pay to load and never
    # uses: dataclasses pulls in inspect, and inspect ast, dis and tokenize.
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import colorref.cli\n"
        "added = set(sys.modules) - before\n"
        "tops = {name.partition('.')[0] for name in added}\n"
        "print(*sorted(tops - set(sys.stdlib_module_names) - {'colorref'}))\n"
        "print(*sorted(added & {'dataclasses', 'inspect'}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(colorref.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout == "\n\n"


def test_only_search_compiles_the_oracle(tmp_path):
    # refine, verify and gen never need the oracle; the package resolves its
    # names on first use, and the search command imports it
    probe = (
        "import sys, colorref.cli\n"
        "from pathlib import Path\n"
        "main = colorref.cli.main\n"
        "main(['gen', '8', '0.5', '--out', 'g.edges'])\n"
        "main(['refine', 'g.edges'])\n"
        "main(['refine', 'g.edges', '--expand-edges'])\n"
        "Path('g.colors').write_text(''.join(f'{v} 0\\n' for v in range(8)))\n"
        "main(['verify', 'g.edges', 'g.colors'])\n"
        "print('colorref.oracle' in sys.modules)\n"
        "main(['search', '--max-n', '3', '--attempts', '5'])\n"
        "print('colorref.oracle' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(colorref.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env,
        cwd=tmp_path, check=True,
    )
    assert proc.stdout.splitlines()[-3::2] == ["False", "True"]
    from colorref import oracle

    for name in ("CounterexampleWitness", "naive_refine",
                 "search_refinement_counterexample", "violation_witness"):
        assert getattr(colorref, name) is getattr(oracle, name)
    with pytest.raises(AttributeError, match="^module 'colorref' has no attribute 'nothing'$"):
        colorref.nothing


def test_no_command_loads_typing(tmp_path):
    # the stream annotations name io.TextIOBase, and io is loaded by every
    # interpreter; without site hooks (-S) nothing else loads typing, which
    # costs about 10 ms of start-up
    probe = (
        "import sys, colorref.cli\n"
        "from pathlib import Path\n"
        "main = colorref.cli.main\n"
        "main(['gen', '8', '0.5', '--out', 'g.edges'])\n"
        "main(['refine', 'g.edges', '--expand-edges', '--dot', 'g.dot'])\n"
        "Path('g.colors').write_text(''.join(f'{v} 0\\n' for v in range(8)))\n"
        "main(['verify', 'g.edges', 'g.colors'])\n"
        "main(['compare', 'g.colors', 'g.colors'])\n"
        "main(['search', '--max-n', '3', '--attempts', '5'])\n"
        "print('typing' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(colorref.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env,
        cwd=tmp_path, check=True,
    )
    assert proc.stdout.splitlines()[-1] == "False"


def test_trace_document_holds_only_the_trace_and_what_it_cannot_derive():
    # Every other record (n, initial, palette sizes, colorings, classes and
    # the edge colors) is read from the trace and the original graph, so a
    # second stored copy cannot drift from them.
    g = colorref.new_graph(3, [(0, 1), (1, 2)])
    x = colorref.expand_edges(g)
    trace = colorref.refine_to_fixpoint(x, colorref.zero_coloring(x))
    doc = colorref.trace_document(trace, g, expanded=True)
    assert vars(doc) == {"trace": trace, "edge_count": 4, "original": g}


def test_refinement_trace_holds_only_its_colorings():
    # converged_at and the palette sizes are read from the colorings
    colorings = (colorref.Coloring((0, 0), 1), colorref.Coloring((1, 0), 2))
    assert vars(colorref.RefinementTrace(colorings)) == {"colorings": colorings}


# Each public record's stored fields, in order.
RECORD_FIELDS = {
    "Coloring": ("colors", "palette_size"),
    "CounterexampleWitness": ("graph", "initial", "step", "merged_pair", "before", "after"),
    "Graph": ("vertex_count", "offsets", "targets"),
    "RefinementTrace": ("colorings",),
    "TraceDocument": ("trace", "edge_count", "original"),
}


def _record_arguments(name):
    # The constructor's keyword arguments for a small record of class
    # ``name``, from new objects on every call, and one argument changed.
    c0 = colorref.Coloring((0, 0, 0), 1)
    c = colorref.Coloring([0, 1, 0], 2)
    g = colorref.new_graph(3, [(0, 1), (1, 2)])
    trace = colorref.RefinementTrace((c0, c))
    return {
        "Coloring": ({"colors": (0, 1, 0), "palette_size": 2}, {"colors": (1, 0, 1)}),
        "CounterexampleWitness": (
            {"graph": g, "initial": c, "step": 0, "merged_pair": (0, 2), "before": c, "after": c0},
            {"step": 1},
        ),
        "Graph": (
            {"vertex_count": 3, "adjacency": ((1,), (0, 2), (1,))},
            {"adjacency": ((2,), (), (0,))},
        ),
        "RefinementTrace": ({"colorings": (c0, c)}, {"colorings": (c0,)}),
        "TraceDocument": ({"trace": trace, "edge_count": 2, "original": None}, {"edge_count": 3}),
    }[name]


@pytest.mark.parametrize("name", sorted(RECORD_FIELDS))
def test_records_are_immutable_values(name):
    cls = getattr(colorref, name)
    kwargs, changed = _record_arguments(name)
    a = cls(**kwargs)
    b = cls(*_record_arguments(name)[0].values())
    assert a == b and hash(a) == hash(b)
    c = cls(**{**kwargs, **changed})
    assert a != c and hash(a) != hash(c)
    for field in (*RECORD_FIELDS[name], "extra"):
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    values = tuple(getattr(a, field) for field in RECORD_FIELDS[name])
    assert a == b and a != values and values != a
    assert a.__eq__(values) is NotImplemented  # so the tuple's side decides
    for other in RECORD_FIELDS.keys() - {name}:
        assert a != getattr(colorref, other)(**_record_arguments(other)[0])
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(RECORD_FIELDS[name], values))
    assert repr(a) == f"{name}({shown})"


def test_benchmark_wraps_only_names_the_cli_has(monkeypatch):
    # bench/run.py --trace 1 swaps each CLI_CALLS name on colorref.cli for a
    # timing wrapper, so a renamed CLI import would break that run.
    # Importing the script only defines names; its dataclasses need it
    # registered in sys.modules while it loads.
    path = Path(__file__).resolve().parents[1] / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("colorref_bench_run", path)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)
    spec.loader.exec_module(bench)
    missing = [name for name in bench.CLI_CALLS if not hasattr(colorref.cli, name)]
    assert bench.CLI_CALLS and missing == []


# What the README's "Library quick start" shows in its comments, by the
# expression each comment follows.
QUICK_START_SHOWS = {
    "trace.palette_sizes": (1, 2, 3, 3),
    "trace.converged_at": 3,
    "cr.partition_of(trace.final)": ((0, 4), (1, 3), (2,)),
    "cr.find_inequitable_pair(g, trace.final)": None,
    "cr.colorings_isomorphic(trace.colorings[2], trace.final)": (0, 1, 2),
}


def test_the_readme_quick_start_shows_what_it_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start\n\n```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    assert capsys.readouterr().out == "n 5\n0 1\n1 2\n2 3\n3 4\n"
    shown = dict(line.split("#", 1) for line in block.splitlines() if "#" in line)
    shown = {code.strip(): comment.strip() for code, comment in shown.items()}
    assert shown["cr.emit_edge_list(g, sys.stdout)"].startswith(
        '"n 5\\n0 1\\n1 2\\n2 3\\n3 4\\n"; returns None'
    )
    for code, value in QUICK_START_SHOWS.items():
        assert shown[code].startswith(repr(value)), code
        assert eval(code, namespace) == value, code

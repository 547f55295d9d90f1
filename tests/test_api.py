"""The documented API: the README's library quick start runs as written,
every name the package exports resolves, importing the set-up names loads
no run module, NumPy loads with one BLAS thread unless the caller chose a
count, every config and record field has a type the one annotation rule
knows, numpy is the only runtime dependency, records.py is the only module
that writes a file, the evolution loop and the oracle sweep are the only
callers of the evaluator, only the CLI forks, and the CLI passes every
config setting."""

import ast
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import qfselect
from qfselect import records
from qfselect.classifier import EvaluatorSpec
from qfselect.evolution import EvolutionConfig, MutationConfig
from qfselect.records import DistributionRow, GenerationEntry, OracleRecord, RunRecord, RunTotals

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_python_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert "-> evolved" in capsys.readouterr().out


def test_every_exported_name_resolves():
    missing = [name for name in qfselect.__all__ if not hasattr(qfselect, name)]
    assert missing == []
    assert len(set(qfselect.__all__)) == len(qfselect.__all__)
    assert set(qfselect.__all__) <= set(dir(qfselect))
    with pytest.raises(AttributeError, match="no_such_name"):
        qfselect.no_such_name


THREAD_COUNTS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Defines blas_threads(): OpenBLAS's own thread count, read through its
# getter, or -1 where no loaded library has one (another BLAS build).
BLAS_THREADS = """
import ctypes

def blas_threads():
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "blas" in line.lower()}
    except OSError:
        return -1
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return getter()
    return -1
"""


def fresh_python(code, **variables):
    """What `code` prints in a new interpreter whose environment sets none
    of THREAD_COUNTS beyond `variables`, split on whitespace."""
    env = {key: value for key, value in os.environ.items() if key not in THREAD_COUNTS}
    env.update(variables, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", BLAS_THREADS + code],
        capture_output=True, text=True, check=True, timeout=60, env=env,
    )
    return out.stdout.split()


def test_the_setup_imports_load_no_run_module():
    # A set-up (load, split, make_evaluator) pays for only the modules it calls.
    loaded = fresh_python(
        "import sys\n"
        "from qfselect import EvaluatorSpec, load_csv, make_evaluator, stratified_split\n"
        "for name in ('evolution', 'simulator', 'objective', 'cli'):\n"
        "    print(f'qfselect.{name}' in sys.modules)\n"
    )
    assert loaded == ["False"] * 4


def _threads_of_plain_numpy(**variables):
    (threads,) = fresh_python("import numpy\nprint(blas_threads())\n", **variables)
    if threads == "-1":
        pytest.skip("no OpenBLAS thread-count getter in this NumPy's BLAS")
    return threads


def test_numpy_loads_with_one_blas_thread_and_the_environment_is_kept():
    _threads_of_plain_numpy()
    assert fresh_python(
        "import os\n"
        "before = dict(os.environ)\n"
        "import qfselect, numpy\n"
        "print(blas_threads(), dict(os.environ) == before)\n"
    ) == ["1", "True"]


@pytest.mark.parametrize("variable", THREAD_COUNTS)
def test_a_thread_count_the_caller_set_wins(variable):
    # OpenBLAS caps the count at the CPUs it sees, so the expected count is
    # what plain NumPy reports under the same setting.
    expected = _threads_of_plain_numpy(**{variable: "2"})
    assert fresh_python(
        "import qfselect, numpy\nprint(blas_threads())\n", **{variable: "2"}
    ) == [expected]


def test_numpy_loaded_first_keeps_its_thread_count():
    expected = _threads_of_plain_numpy()
    assert fresh_python(
        "import numpy\n"
        "first = blas_threads()\n"
        "import qfselect\n"
        "print(first, blas_threads())\n"
    ) == [expected, expected]


def _config_annotation_has_a_rule(annotation, module):
    # `records.check_types` reads a table name or a class of the config's
    # module, or several of these joined by " | ".
    return all(
        name in records._JSON_TYPES or isinstance(getattr(module, name, None), type)
        for name in annotation.split(" | ")
    )


def _record_annotation_has_a_rule(annotation):
    # `records._decode` reads a table name, a record row, or a list of these.
    outer, _, item = annotation.partition("[")
    if item:
        return outer == "list" and _record_annotation_has_a_rule(item[:-1])
    return annotation in records._JSON_TYPES or annotation in records._ROWS


def test_every_config_and_record_field_has_a_type_rule():
    # A field of a type the one rule does not know would otherwise fail
    # only at its first use.
    unknown = [
        f"{cls.__name__}.{f.name}: {f.type}"
        for cls in (EvaluatorSpec, MutationConfig, EvolutionConfig)
        for f in fields(cls)
        if not _config_annotation_has_a_rule(f.type, sys.modules[cls.__module__])
    ]
    unknown += [
        f"{cls.__name__}.{f.name}: {f.type}"
        for cls in (RunRecord, OracleRecord, GenerationEntry, DistributionRow, RunTotals)
        for f in fields(cls)
        if not _record_annotation_has_a_rule(f.type)
    ]
    assert unknown == []


def test_numpy_is_the_only_runtime_dependency():
    allowed = sys.stdlib_module_names | {"numpy", "qfselect"}
    outside = []
    for path in sorted((ROOT / "src" / "qfselect").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one: qfselect's own
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in allowed]
    assert outside == []


def disk_writes(path):
    """The calls in module `path` that may write or rename a file, by line."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "open":
            # open(file, mode) or path.open(mode); a mode that is not a
            # literal may be a writing one.
            position = 1 if isinstance(func, ast.Name) else 0
            modes = [k.value for k in node.keywords if k.arg == "mode"]
            modes += node.args[position:position + 1]
            writes = any(
                not (isinstance(mode, ast.Constant) and isinstance(mode.value, str))
                or set(mode.value) & set("wxa")
                for mode in modes
            )
        else:
            writes = name in ("write_text", "write_bytes") or (
                name in ("replace", "rename")
                and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "os"
            )
        if writes:
            found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def test_records_is_the_one_way_to_disk():
    # Every record reaches disk through records.py's one temp-and-rename path.
    modules = sorted((ROOT / "src" / "qfselect").glob("*.py"))
    assert disk_writes(ROOT / "src" / "qfselect" / "records.py") != []
    assert [w for path in modules if path.name != "records.py" for w in disk_writes(path)] == []


def test_evolve_and_the_oracle_sweep_each_call_the_evaluator_at_one_site():
    # A run's memo is evolve's own dict: each batch is scored by
    # evaluate_batch and its best kept by first_best, each called once in
    # evolution.py and once in cli.py, and nowhere else.
    callers = {"evaluate_batch": [], "first_best": []}
    for path in sorted((ROOT / "src" / "qfselect").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in callers:
                    callers[name].append(path.name)
    assert callers == {
        "evaluate_batch": ["cli.py", "evolution.py"],
        "first_best": ["cli.py", "evolution.py"],
    }


def test_only_the_cli_forks():
    # The oracle sweep forks its workers; no library function forks its
    # caller's process.
    forks = []
    for path in sorted((ROOT / "src" / "qfselect").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("fork", "forkpty"):
                    forks.append(path.name)
    assert forks == ["cli.py"]


def test_every_config_setting_has_a_cli_caller():
    # A setting no command passes is a constant: every init field of the
    # three configs is given by keyword where cli.py builds that config.
    passed = {}
    tree = ast.parse((ROOT / "src" / "qfselect" / "cli.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            passed.setdefault(node.func.id, set()).update(k.arg for k in node.keywords)
    unset = [
        f"{cls.__name__}.{f.name}"
        for cls in (EvaluatorSpec, MutationConfig, EvolutionConfig)
        for f in fields(cls)
        if f.init and f.name not in passed.get(cls.__name__, set())
    ]
    assert unset == []

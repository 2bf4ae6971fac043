"""The entry point the console script and `python -m qlandauer.cli` run,
`cli.main()`, in fresh processes: it gives what `parse_and_dispatch` gives in
process, it alone freezes the import-time heap, a failed write to standard
output is exit 1 with a named error, and a failed write to standard error
leaves the exit code as it was."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qlandauer
from qlandauer.cli import parse_and_dispatch

# The children import the package the tests import.
SRC = str(Path(qlandauer.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
UNBUFFERED_ENV = {**ENV, "PYTHONUNBUFFERED": "1"}
BUFFERED_ENV = {key: value for key, value in ENV.items() if key != "PYTHONUNBUFFERED"}

# The six README commands the benchmark times as fresh processes, each with
# the table file it writes, if any.
README_COMMANDS = [
    (["verify"], None),
    (["sweep-temp"], "temp.csv"),
    (["sweep-theta"], "theta.csv"),
    (["crossings"], None),
    (["readout", "--shots", "100"], None),
    (["run", "--shots", "100"], None),
]


def run(args, env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE):
    """Run a fresh interpreter with ``args`` to exit."""
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout,
                          stderr=stderr, timeout=120)


@pytest.mark.parametrize("argv, table", README_COMMANDS,
                         ids=[argv[0] for argv, _ in README_COMMANDS])
def test_module_entry_point_matches_in_process(argv, table, tmp_path):
    path = tmp_path / (table or "unused")
    argv = [*argv, "--seed", "7", *(["-o", str(path)] if table else [])]
    child = run(["-m", "qlandauer.cli", *argv])
    child_table = path.read_bytes() if table else None
    if table:
        path.unlink()
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = parse_and_dispatch(argv)
    assert (child.returncode, child.stderr) == (code, err.getvalue().encode("utf-8")) == (0, b"")
    assert child.stdout == out.getvalue().encode("utf-8")
    assert child_table == (path.read_bytes() if table else None)


def test_main_freezes_the_import_time_heap():
    child = run(["-c", (
        "import gc, os, sys\n"
        "import qlandauer.cli as cli\n"
        "sys.argv = ['qlandauer', 'verify', '-o', os.devnull]\n"
        "try:\n"
        "    cli.main()\n"
        "except SystemExit as exc:\n"
        "    print(gc.get_freeze_count(), exc.code)\n")])
    frozen, code = child.stdout.split()
    assert int(frozen) > 0 and code == b"0"


def test_import_and_dispatch_leave_gc_alone():
    # The in-process benchmark workloads and the tests import the module and
    # call parse_and_dispatch; neither may change how they collect.
    child = run(["-c", (
        "import gc\n"
        "import qlandauer.cli as cli\n"
        "code = cli.parse_and_dispatch(['verify'])\n"
        "print(gc.get_freeze_count(), gc.isenabled(), code)\n")])
    assert child.stdout.splitlines()[-1] == b"0 True 0"


def assert_one_named_error(child):
    assert child.returncode == 1
    lines = child.stderr.decode("utf-8").splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: cannot write standard output: ")


def require_full_device():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")


@pytest.mark.parametrize("env", [UNBUFFERED_ENV, BUFFERED_ENV], ids=["unbuffered", "buffered"])
def test_full_device_on_stdout_is_a_named_error(env):
    require_full_device()
    with open("/dev/full", "wb") as full:
        child = run(["-m", "qlandauer.cli", "verify"], env=env, stdout=full)
    assert_one_named_error(child)
    assert b"No space left on device" in child.stderr


def test_closed_pipe_on_buffered_stdout_is_a_named_error():
    # Closed before the child starts, so every write to it fails; the
    # interpreter's flush at exit must not fail again (exit 120).
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = run(["-m", "qlandauer.cli", "verify"], env=BUFFERED_ENV, stdout=write_end)
    finally:
        os.close(write_end)
    assert_one_named_error(child)
    assert b"Exception ignored" not in child.stderr


@pytest.mark.parametrize("env", [UNBUFFERED_ENV, BUFFERED_ENV], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv, code, verdict", [
    (["verify", "--nbar0", "-1"], 1, None),
    (["verify", "--n-max", "2", "--nbar0", "2"], 2, b"verified = no\n"),
], ids=["validation", "numerical"])
def test_full_device_on_stderr_keeps_the_exit_code(argv, code, verdict, env):
    # The error line is lost, but the exit code it explains stands, and a
    # numerical failure still writes its output; neither becomes exit 120
    # from the flush at exit or a traceback's exit 1.
    require_full_device()
    with open("/dev/full", "wb") as full:
        child = run(["-m", "qlandauer.cli", *argv], env=env, stderr=full)
    assert child.returncode == code
    assert child.stdout.endswith(verdict) if verdict else child.stdout == b""

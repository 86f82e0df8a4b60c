"""End-to-end command-line tests: in-process, plus subprocess runs of the
module and of the reproduce.sh commands."""
import importlib.util
import os
import shlex
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest

from fdridge import cli
from fdridge.cli import _build_parser, main
from fdridge.experiments import _config_comment, load_config

REPO = Path(__file__).resolve().parents[1]
REPRODUCE = REPO / "scripts" / "reproduce.sh"
# the iterate command's methods that run in seconds: the two fixed FD
# sketches and one fixed SJLT draw
ITERATE_CUT = ("ifdrr:fd", "ifdrr:rfd", "single:sjlt")

CONFIG_TEXT = """\
# tiny instance so the suite stays fast
dataset = synthetic
n = 48
d = 16
r = 0.25
noise_sd = 1.0
m = 8
gammas = 2^-1, 2
methods = exact, classical:gauss
trials = 3
seed = 0
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEXT)
    return path


def test_sweep_subcommand(config_path, tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(["sweep", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    assert out.exists()
    stdout = capsys.readouterr().out
    assert f"wrote {out} (4 rows)" in stdout

    first = out.read_bytes()
    assert main(["sweep", "--config", str(config_path),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == first  # reruns are byte identical


def test_sweep_raw_flag(config_path, tmp_path):
    out = tmp_path / "table.csv"
    code = main(["sweep", "--config", str(config_path), "--out", str(out),
                 "--raw"])
    assert code == 0
    assert (tmp_path / "table.csv.raw.csv").exists()


def test_set_overrides_config(config_path, tmp_path):
    out = tmp_path / "a.csv"
    other = tmp_path / "b.csv"
    main(["sweep", "--config", str(config_path), "--out", str(out)])
    main(["sweep", "--config", str(config_path), "--out", str(other),
          "--set", "trials=5", "--set", "seed=3"])
    table_a = np.loadtxt(out, delimiter=",", skiprows=4, usecols=(2, 3, 4))
    table_b = np.loadtxt(other, delimiter=",", skiprows=4, usecols=(2, 3, 4))
    assert table_a.shape == table_b.shape
    assert not np.array_equal(table_a, table_b)


def test_iterate_subcommand(config_path, tmp_path, capsys):
    out = tmp_path / "iters.csv"
    code = main(["iterate", "--config", str(config_path), "--t", "3",
                 "--out", str(out), "--set", "methods=ifdrr:fd,ihs:gauss",
                 "--set", "m=32"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[3] == "method,gamma,iteration,log10_error,diverged"
    assert len(lines) == 4 + 2 * 2 * 3


def test_iterate_requires_t(config_path):
    with pytest.raises(SystemExit) as info:
        main(["iterate", "--config", str(config_path)])
    assert info.value.code == 2


def test_sketch_acc_subcommand(config_path, tmp_path):
    out = tmp_path / "acc.csv"
    code = main(["sketch-acc", "--config", str(config_path),
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[3] == "method,m,k,spectral_error,bound,within_bound"


@pytest.mark.parametrize("argv_tail,fragment", [
    (["--set", "zorp=1"], "unknown config key"),
    (["--set", "seed"], "KEY=VALUE"),
    (["--set", "methods=ifdrr:fd"], "one-shot"),
    (["--set", "noise_sd=inf"], "noise_sd"),
    (["--set", "dataset=gaussian-rff", "--set", "rff_gamma=inf"],
     "rff_gamma"),
    (["--set", "dataset=gaussian-rff", "--set", "noise_sd=-1"], "noise_sd"),
    (["--set", "dataset=gaussian-rff", "--set", "noise_sd=nan"], "noise_sd"),
    # a power form that cannot be evaluated is no grid entry
    (["--set", "gammas=0^-1"], "could not parse gammas = '0^-1'"),
    (["--set", "gammas=10^400"], "could not parse gammas = '10^400'"),
    (["--set", "gammas=-8^0.5"], "could not parse gammas = '-8^0.5'"),
    # a key given twice is refused, as a key set twice in a file is
    (["--set", "m=128", "--set", "m=64"], "--set gives 'm' twice"),
    # a table's path is the command's --out, not a config key
    (["--set", "out=x.csv"], "unknown config key 'out'"),
])
def test_cli_errors_exit_2(config_path, capsys, argv_tail, fragment):
    code = main(["sweep", "--config", str(config_path)] + argv_tail)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("fdridge: error:")
    assert fragment in err


@pytest.mark.parametrize("command,argv_tail", [
    ("sweep", ["--jobs", "0"]),
    ("iterate", ["--t", "2", "--jobs", "-3"]),
    ("iterate", ["--t", "2", "--jobs", "two"]),
    ("sketch-acc", ["--jobs", "2"]),
    ("sweep", ["--jobs", "2"]),
])
def test_jobs_flag_rejected(config_path, capsys, command, argv_tail):
    # cells run one at a time: --jobs takes only 1, and only on gridded runs
    with pytest.raises(SystemExit) as info:
        main([command, "--config", str(config_path)] + argv_tail)
    assert info.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["sweep"],
    ["iterate", "--t", "2", "--set", "methods=ifdrr:fd"],
])
def test_jobs_one_still_runs(config_path, tmp_path, command):
    out = tmp_path / "table.csv"
    code = main(command + ["--config", str(config_path), "--out", str(out),
                           "--jobs", "1"])
    assert code == 0
    assert out.exists()


def _reproduce_commands() -> list:
    """The argv of every fdridge command in scripts/reproduce.sh."""
    return [shlex.split(line) for line in REPRODUCE.read_text().splitlines()
            if line.startswith("python3 -m fdridge.cli ")]


def _tables(argv) -> list:
    """The results/ tables a reproduce.sh command writes, by name: its
    ``--out`` file, and that name plus .raw.csv under ``--raw``."""
    name = Path(argv[argv.index("--out") + 1]).name
    return [name] + ([f"{name}.raw.csv"] if "--raw" in argv else [])


def test_reproduce_script_parses():
    """Every fdridge line of scripts/reproduce.sh parses, writes into
    results/ and names a config that loads, so a bad key or value fails
    here, and line 2 of each results/ table it writes is that config's
    line, so a key added, dropped or reformatted fails here too, the
    iterate table included; nothing is run."""
    lines = _reproduce_commands()
    assert {argv[3] for argv in lines} == {"sweep", "iterate", "sketch-acc"}
    parser = _build_parser()
    for argv in lines:
        try:
            args = parser.parse_args(argv[3:])
        except SystemExit:
            pytest.fail(f"reproduce.sh line does not parse: {shlex.join(argv)}")
        assert Path(args.out).parent == Path("results"), shlex.join(argv)
        config = load_config(REPO / args.config)
        expected = "# " + _config_comment(config) + (
            f" t={args.t}" if args.command == "iterate" else "")
        for table in _tables(argv):
            text = (REPO / "results" / table).read_text(encoding="utf-8")
            assert text.splitlines()[1] == expected, table


def test_results_are_the_reproduce_tables():
    """results/ holds exactly the tables reproduce.sh writes, so none is
    left behind by a command that no longer writes it."""
    written = [table for argv in _reproduce_commands()
               for table in _tables(argv)]
    assert len(set(written)) == len(written)
    assert sorted(p.name for p in (REPO / "results").iterdir()) == \
        sorted(written)


def _first_difference(path, ref):
    """The first line, 1-based, at which two files' bytes differ, or None."""
    ours = path.read_bytes().splitlines(keepends=True)
    theirs = ref.read_bytes().splitlines(keepends=True)
    for lineno, (a, b) in enumerate(zip_longest(ours, theirs), start=1):
        if a != b:
            return lineno
    return None


def _run_reproduce_command(config, out, extra=(), threads=1) -> list:
    """Run the reproduce.sh command for ``config`` in a subprocess at
    ``threads`` BLAS threads (reproduce.sh pins one), writing into the
    directory ``out``; return its tables."""
    argv = next(argv for argv in _reproduce_commands()
                if Path(argv[argv.index("--config") + 1]).name == config)
    tables = _tables(argv)
    argv[argv.index("--out") + 1] = str(out / tables[0])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable] + argv[1:] + list(extra),
                          cwd=REPO, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.iterdir()) == sorted(tables)
    return tables


@pytest.mark.parametrize("config", ["sweep_lowrank.cfg", "sweep_midrank.cfg",
                                    "sketch_accuracy.cfg"])
def test_reproduce_command_rewrites_results_byte_for_byte(config, tmp_path):
    """The reproduce.sh command for ``config``, run in a subprocess at one
    BLAS thread, writes tables byte-identical to those in results/: the
    ``#`` lines, the header and every body line."""
    tables = _run_reproduce_command(config, tmp_path)
    for table in tables:
        line = _first_difference(tmp_path / table, REPO / "results" / table)
        assert line is None, f"{table} differs from results/ at line {line}"


def test_iterate_command_rewrites_its_methods_rows_byte_for_byte(tmp_path):
    """The iterate reproduce.sh command cut to three of its methods (the
    two fixed FD sketches and one fixed SJLT draw) writes, byte for byte,
    those methods' body rows of results/iterate-rff.csv, 3 x 3 gammas x
    10 iterations of them: each cell's seeds follow from the method's
    name, not from the list it runs in.  The full command takes about a
    minute; this cut runs in a few seconds."""
    [table] = _run_reproduce_command(
        "iterate_rff.cfg", tmp_path,
        ["--set", "methods=" + ",".join(ITERATE_CUT)])

    def body(path):
        lines = path.read_bytes().splitlines(keepends=True)
        start = lines.index(b"method,gamma,iteration,log10_error,diverged\n")
        return lines[start + 1:]

    ours = body(tmp_path / table)
    theirs = [line for line in body(REPO / "results" / table)
              if line.split(b",")[0].decode() in ITERATE_CUT]
    assert len(theirs) == 90
    assert ours == theirs


def test_tables_at_two_blas_threads_pass_the_cross_machine_check(tmp_path):
    """At two BLAS threads the matrix products sum in another order, as
    they may on another machine, and the tables' last digits move.  The
    sweep_lowrank.cfg command's tables and the iterate cut's rows must
    still pass every rule of scripts/check_results.py against results/;
    the cut's rows are compared with the same methods' rows there, since
    its ``#`` line names its methods.  Whether the bytes differ is not
    asserted: on some BLAS builds they do not."""
    spec = importlib.util.spec_from_file_location(
        "check_results", REPO / "scripts" / "check_results.py")
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    for config, extra in (
            ("sweep_lowrank.cfg", ()),
            ("iterate_rff.cfg", ["--set", "methods=" + ",".join(ITERATE_CUT)])):
        out = tmp_path / config
        out.mkdir()
        for table in _run_reproduce_command(config, out, extra, threads=2):
            new_comments, new_rows = check.read_table(out / table)
            ref_comments, ref_rows = check.read_table(REPO / "results" / table)
            if extra:
                new_comments = ref_comments = ()
                ref_rows = [r for r in ref_rows if r["method"] in ITERATE_CUT]
            ok = check.compare(new_rows, ref_rows, table,
                               new_comments, ref_comments)
            assert ok, f"{table} at 2 BLAS threads fails check_results.py"


@pytest.mark.parametrize("command", [
    ["sweep"],
    ["iterate", "--t", "2", "--set", "methods=ifdrr:fd"],
    ["sketch-acc"],
])
def test_default_out_is_named_by_command(config_path, tmp_path, monkeypatch,
                                         command):
    workdir = tmp_path / "work"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    assert main(command + ["--config", str(config_path)]) == 0
    assert [p.name for p in workdir.iterdir()] == [f"fdridge-{command[0]}.csv"]


@pytest.mark.parametrize("command", [
    ["sweep", "--raw"],
    ["iterate", "--t", "2"],
    ["sketch-acc"],
])
def test_missing_out_directory_fails_before_the_run(config_path, tmp_path,
                                                    monkeypatch, capsys,
                                                    command):
    # the table's directory is checked before any work, not after it, and
    # so is an --out that names a directory rather than a file
    entered = []
    for runner in ("run_bias_variance_sweep", "run_iterative_experiment",
                   "run_sketch_accuracy"):
        monkeypatch.setattr(cli, runner, lambda *a, **k: entered.append(a))
    missing = tmp_path / "nodir"
    folder = tmp_path / "fd"
    folder.mkdir()
    # (--out, the path the error names): a file in a missing directory, an
    # existing directory, and a missing one written as a directory; and
    # for --raw, an --out whose per-trial table is a directory
    cases = [(missing / "table.csv", missing), (folder, folder),
             (f"{missing}/", f"{missing}/")]
    if "--raw" in command:
        (tmp_path / "x.csv.raw.csv").mkdir()
        cases.append((tmp_path / "x.csv", tmp_path / "x.csv.raw.csv"))
    for out, named in cases:
        code = main(command + ["--config", str(config_path),
                               "--out", str(out)])
        assert code == 2 and entered == []
        err = capsys.readouterr().err
        assert err.startswith("fdridge: error:") and repr(str(named)) in err
    assert not missing.exists() and list(folder.iterdir()) == []
    assert not (tmp_path / "x.csv").exists()


def test_malformed_libsvm_file_is_named(tmp_path, capsys):
    # a parse error's line and column are the data file's, so the error
    # names that file, not the config
    data = tmp_path / "data.txt"
    data.write_text("1 1:2.0\n1 0:3.0\n")
    config = tmp_path / "libsvm.cfg"
    config.write_text(f"dataset = libsvm\nlibsvm_path = {data}\n"
                      "methods = ifdrr:fd\nm = 2\n")
    code = main(["iterate", "--config", str(config), "--t", "2",
                 "--out", str(tmp_path / "table.csv")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"fdridge: error: {data}: line 2, column 3: index 0 is not positive "
        "(indices are 1-based)\n")
    assert not (tmp_path / "table.csv").exists()


def test_libsvm_file_not_utf8_is_named_by_line(tmp_path, capsys):
    # a byte that is not UTF-8 is named by the data file, its line and
    # column, not by an offset into a read buffer
    data = tmp_path / "data.txt"
    data.write_bytes(b"1 1:2.0\n\xff1 2:3.0\n")
    config = tmp_path / "libsvm.cfg"
    config.write_text(f"dataset = libsvm\nlibsvm_path = {data}\n"
                      "methods = ifdrr:fd\nm = 2\n")
    code = main(["iterate", "--config", str(config), "--t", "2",
                 "--out", str(tmp_path / "table.csv")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"fdridge: error: {data}: line 2, column 1: byte 0xff is not UTF-8\n")
    assert not (tmp_path / "table.csv").exists()


def test_config_file_not_utf8_is_named_by_line(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"n = 48\n\xffm = 8\n")
    code = main(["sweep", "--config", str(config),
                 "--out", str(tmp_path / "table.csv")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"fdridge: error: {config}:2:1: byte 0xff is not UTF-8\n")
    assert not (tmp_path / "table.csv").exists()


@pytest.mark.parametrize("index", [10 ** 12, 2 ** 61])
def test_libsvm_file_too_wide_to_hold_dense_exits_2(tmp_path, capsys, index):
    # the file parses, but its width makes the dense instance too large:
    # a configuration error, not a numpy traceback
    data = tmp_path / "data.txt"
    data.write_text(f"1 1:2.0\n1 {index}:3.0\n")
    config = tmp_path / "libsvm.cfg"
    config.write_text(f"dataset = libsvm\nlibsvm_path = {data}\n"
                      "methods = ifdrr:fd\nm = 2\n")
    code = main(["iterate", "--config", str(config), "--t", "2",
                 "--out", str(tmp_path / "table.csv")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"fdridge: error: {data}: a dense 2 x {index} array does not fit "
        "in memory\n")
    assert not (tmp_path / "table.csv").exists()


def test_missing_config_file(tmp_path, capsys):
    code = main(["sweep", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "fdridge: error:" in capsys.readouterr().err


def test_module_invocation(config_path, tmp_path):
    out = tmp_path / "module.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "fdridge.cli", "sketch-acc",
         "--config", str(config_path), "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "rows)" in proc.stdout
    assert out.exists()

"""CLI tests."""

import argparse
import contextlib
import glob
import io
import os
import re
import shlex

import pytest

from repro import cli
from repro.cli import build_parser, main


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["overhead"])
    assert args.command == "overhead"


def test_overhead_command(capsys):
    assert main(["overhead"]) == 0
    out = capsys.readouterr().out
    assert "57 B" in out
    assert "352 KB/s" in out


def test_profile_command(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text("""
.func main
    addi x1, x0, 0
    addi x2, x0, 300
loop:
    add  x3, x3, x1
    addi x1, x1, 1
    bne  x1, x2, loop
    halt
""")
    assert main(["profile", str(source), "--period", "7"]) == 0
    out = capsys.readouterr().out
    assert "instruction profile" in out
    assert "TIP" in out
    assert "Oracle" in out


def test_stacks_command(capsys):
    assert main(["stacks", "lbm", "--scale", "0.05",
                 "--period", "29"]) == 0
    out = capsys.readouterr().out
    assert "cycle stacks" in out
    assert "lbm" in out


def test_suite_command_subset(capsys):
    assert main(["suite", "exchange2", "--scale", "0.05",
                 "--period", "29"]) == 0
    out = capsys.readouterr().out
    assert "instruction-level error" in out
    assert "exchange2" in out


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_suite_unknown_benchmark_exits_2(capsys):
    assert main(["suite", "gcc", "nosuchbench"]) == 2
    err = capsys.readouterr().err
    assert "nosuchbench" in err
    assert "unknown benchmark" in err


def test_stacks_unknown_benchmark_exits_2(capsys):
    assert main(["stacks", "typo1", "typo2"]) == 2
    err = capsys.readouterr().err
    assert "typo1" in err and "typo2" in err


def test_lint_file_warnings_only_exits_0(tmp_path, capsys):
    source = tmp_path / "hot.s"
    source.write_text("""
.entry main
.func main
main:
    addi x1, x0, 4
loop:
    frflags x7
    addi x1, x1, -1
    bne  x1, x0, loop
    halt
""")
    assert main(["lint", str(source)]) == 0
    out = capsys.readouterr().out
    assert "warning[L001]" in out
    assert "hint: replace with `nop`" in out


def test_lint_errors_exit_1(tmp_path, capsys):
    source = tmp_path / "dead.s"
    source.write_text("""
.entry main
.func main
main:
    jal  x0, out
    addi x1, x1, 1
out:
    halt
""")
    assert main(["lint", str(source)]) == 1
    assert "error[L003]" in capsys.readouterr().out


def test_lint_directory_and_benchmark(tmp_path, capsys):
    (tmp_path / "clean.s").write_text("""
.entry main
.func main
main:
    halt
""")
    assert main(["lint", str(tmp_path), "imagick-opt"]) == 0
    out = capsys.readouterr().out
    assert "clean.s: 0 error(s), 0 warning(s)" in out
    assert "imagick-opt: 0 error(s), 0 warning(s)" in out


def test_lint_bad_target_exits_2(capsys):
    assert main(["lint", "no/such/file.s"]) == 2
    assert "cannot lint" in capsys.readouterr().err


def test_lint_json(capsys):
    import json
    assert main(["lint", "imagick-orig", "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert reports[0]["program"] == "imagick-orig"
    # Each of the four CSR sites draws the syntactic L001 plus the
    # semantic (dataflow-proven) L012.
    assert reports[0]["warnings"] == 8
    assert {d["rule"] for d in reports[0]["diagnostics"]} == \
        {"L001", "L012"}


HOT_LOOP = """
.entry main
.func main
main:
    addi x1, x0, 4
loop:
    frflags x7
    addi x1, x1, -1
    bne  x1, x0, loop
    halt
"""


def test_lint_strict_warnings_exit_1(tmp_path):
    source = tmp_path / "hot.s"
    source.write_text(HOT_LOOP)
    assert main(["lint", str(source)]) == 0
    assert main(["lint", str(source), "--strict"]) == 1


def test_lint_no_dataflow_suppresses_semantic_rules(tmp_path, capsys):
    source = tmp_path / "hot.s"
    source.write_text(HOT_LOOP)
    assert main(["lint", str(source), "--no-dataflow"]) == 0
    out = capsys.readouterr().out
    assert "warning[L001]" in out
    assert "L012" not in out


def test_lint_format_json_carries_locations(tmp_path, capsys):
    import json
    source = tmp_path / "hot.s"
    source.write_text(HOT_LOOP)
    assert main(["lint", str(source), "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    diags = reports[0]["diagnostics"]
    assert {d["rule"] for d in diags} == {"L001", "L012"}
    for diag in diags:
        assert diag["path"] == str(source)
        assert diag["line"] == 7  # the frflags line
        assert diag["addr"] == "0x10004"
        assert "fix_hint" in diag


def test_lint_assembler_error_exits_2(tmp_path, capsys):
    source = tmp_path / "broken.s"
    source.write_text("main:\n    frobnicate x1\n")
    assert main(["lint", str(source)]) == 2
    assert "cannot lint" in capsys.readouterr().err


def test_lint_observers_shipped_tree_is_clean(capsys):
    import repro
    import os
    tree = os.path.dirname(repro.__file__)
    assert main(["lint", "--observers", tree, "--strict"]) == 0
    assert "observer class(es)" in capsys.readouterr().out


def test_lint_observers_seeded_violation_exits_1(tmp_path, capsys):
    seeded = tmp_path / "seeded.py"
    seeded.write_text("""
class HalfBlockNative(TraceObserver):
    def on_block(self, start, instructions, cycles):
        self.cycles = cycles
""")
    assert main(["lint", "--observers", str(seeded)]) == 1
    assert "C002" in capsys.readouterr().out


def test_lint_observers_strict_promotes_warnings(tmp_path):
    seeded = tmp_path / "seeded.py"
    seeded.write_text("""
class Registered(TraceObserver):
    def on_block(self, start, instructions, cycles):
        self.cycles = cycles

    def on_cycle(self, record):
        self.cycle = record.cycle
""")
    # on_cycle is concrete, so C002 is only a warning here.
    assert main(["lint", "--observers", str(seeded)]) == 0
    assert main(["lint", "--observers", str(seeded), "--strict"]) == 1


def test_lint_observers_json(tmp_path, capsys):
    import json
    seeded = tmp_path / "seeded.py"
    seeded.write_text("""
class HalfBlockNative(TraceObserver):
    def on_block(self, start, instructions, cycles):
        self.cycles = cycles
""")
    assert main(["lint", "--observers", str(seeded),
                 "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["errors"] == 1
    assert data["diagnostics"][0]["rule"] == "C002"
    assert data["diagnostics"][0]["path"] == str(seeded)


def test_lint_observers_bad_target_exits_2(capsys):
    assert main(["lint", "--observers", "no/such/dir"]) == 2
    assert "cannot lint" in capsys.readouterr().err


def test_profile_sanitize(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text("""
.func main
    addi x1, x0, 0
    addi x2, x0, 200
loop:
    addi x1, x1, 1
    bne  x1, x2, loop
    halt
""")
    assert main(["profile", str(source), "--period", "7",
                 "--sanitize"]) == 0
    out = capsys.readouterr().out
    assert "sanitizer:" in out and "clean" in out


def test_suite_sanitize(capsys):
    assert main(["suite", "exchange2", "--scale", "0.05",
                 "--period", "29", "--sanitize"]) == 0
    out = capsys.readouterr().out
    assert "exchange2: sanitizer:" in out
    assert "clean" in out


def test_record_and_replay_commands(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text("""
.func main
    addi x1, x0, 0
    addi x2, x0, 400
loop:
    add  x3, x3, x1
    addi x1, x1, 1
    bne  x1, x2, loop
    halt
""")
    trace = tmp_path / "run.tiptrace"
    assert main(["record", str(source), "-o", str(trace),
                 "--sanitize"]) == 0
    out = capsys.readouterr().out
    assert "recorded" in out
    assert "sanitizer:" in out and "clean" in out
    assert trace.stat().st_size > 100

    assert main(["replay", str(trace), str(source),
                 "--policy", "TIP", "--period", "11",
                 "--sanitize"]) == 0
    out = capsys.readouterr().out
    assert "replayed" in out
    assert "error" in out
    assert "sanitizer:" in out and "clean" in out


LOOP_SOURCE = """
.func main
    addi x1, x0, 0
    addi x2, x0, 600
loop:
    add  x3, x3, x1
    addi x1, x1, 1
    bne  x1, x2, loop
    halt
"""


def test_record_replay_both_engines(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text(LOOP_SOURCE)
    trace = tmp_path / "run.tiptrace"
    assert main(["record", str(source), "-o", str(trace)]) == 0
    assert "recorded" in capsys.readouterr().out

    lines = {}
    for engine in ("block", "cycle"):
        assert main(["replay", str(trace), str(source), "--engine",
                     engine, "--period", "11", "--sanitize"]) == 0
        out = capsys.readouterr().out
        assert f"({engine} engine)" in out
        assert "clean" in out
        lines[engine] = [line for line in out.splitlines()
                         if "error" in line]
    assert lines["block"] == lines["cycle"]

    # One format: the format, chunking and compression options, the
    # converter and sharded replay are gone.
    for argv in (["record", str(source), "--format", "v2"],
                 ["record", str(source), "--chunk-cycles", "64"],
                 ["record", str(source), "--compress"],
                 ["convert-trace", str(trace), "-o", "x.tiptrace"],
                 ["replay", str(trace), str(source), "--jobs", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()


def _unreadable_trace(kind, tmp_path):
    """A path that is not a readable trace, and a word of the reason."""
    path = tmp_path / f"{kind}.tiptrace"
    if kind == "missing":
        return path, "No such file"
    if kind == "random":
        path.write_bytes(bytes(range(7, 7 + 64)))
        return path, "not a TIP trace"
    if kind in ("v1", "v2"):
        path.write_bytes(f"TIPTRC0{kind[1]}".encode() + bytes(64))
        return path, f"format {kind} is no longer supported"
    source = tmp_path / "prog.s"
    source.write_text(LOOP_SOURCE)
    assert main(["record", str(source), "-o", str(path)]) == 0
    data = bytearray(path.read_bytes())
    if kind == "zlib":
        data[9] |= 1  # file-header flags byte, bit 0: zlib payloads
        path.write_bytes(bytes(data))
        return path, "zlib"
    path.write_bytes(bytes(data[:len(data) - 24]))
    return path, "truncated"


@pytest.mark.parametrize("kind", ["missing", "random", "v1", "v2", "zlib",
                                  "truncated"])
def test_replay_unreadable_trace_exits_2(kind, tmp_path, capsys):
    """Outside input that is not a readable trace ends in one stderr
    line naming the file and the reason, not a traceback."""
    path, reason = _unreadable_trace(kind, tmp_path)
    source = tmp_path / "prog.s"
    source.write_text(LOOP_SOURCE)
    capsys.readouterr()
    assert main(["replay", str(path), str(source)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert str(path) in err and reason in err, err
    if kind in ("v1", "v2"):
        assert "re-record" in err


def test_suite_parallel_jobs(capsys):
    assert main(["suite", "exchange2", "lbm", "--scale", "0.05",
                 "--period", "29", "--jobs", "2", "--sanitize"]) == 0
    out = capsys.readouterr().out
    assert "exchange2" in out and "lbm" in out
    assert "sanitizer:" in out and "clean" in out


def test_bench_command(capsys):
    """``bench`` has one mode; without ``--sim`` it says so."""
    assert main(["bench"]) == 2
    err = capsys.readouterr().err
    assert "--sim" in err
    for gone in (["-o", "x.json"], ["--scale", "0.1"], ["--jobs", "2"],
                 ["--chunk-cycles", "64"], ["--compress"],
                 ["--trace", "t.tiptrace"], ["--program", "p.s"],
                 ["--hotpath-output", "x.json"], ["--seed", "1"],
                 ["--period", "7"], ["--random"]):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--sim"] + gone)
        assert exc.value.code == 2
    capsys.readouterr()


# -- the module docstring is the CLI's manual; keep it honest --------------------


_LITERAL = re.compile(r"``([^`]+)``")
_FLAG = re.compile(r"--[a-z][a-z-]*")


def _subcommands():
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _docstring_claims(commands):
    """command -> ``--flags`` the module docstring attributes to it.

    Entries under "Commands" attribute every flag in their header and
    description to the header's command; in the closing paragraphs a
    sentence attributes its flags to every command it names.
    """
    _, _, body = cli.__doc__.partition("--------\n")
    entries, _, closing = body.partition("\n\n")
    claims = {}
    for entry in re.split(r"\n(?=``)", entries):
        command = _LITERAL.match(entry).group(1).split()[0]
        claims.setdefault(command, set()).update(_FLAG.findall(entry))
    for sentence in re.split(r"\.\s+", " ".join(closing.split())):
        named = [literal.split()[0]
                 for literal in _LITERAL.findall(sentence)]
        for command in named:
            if command in commands:
                claims.setdefault(command, set()).update(
                    _FLAG.findall(sentence))
    return claims


def test_docstring_matches_parser():
    commands = _subcommands()
    doc = cli.__doc__
    for command in commands:
        assert f"``{command}" in doc, f"{command} is undocumented"

    claims = _docstring_claims(commands)
    assert "--engine" in claims["replay"]  # the parse found something
    assert "--jobs" in claims["suite"]
    for command, flags in claims.items():
        assert command in commands, f"docstring names {command}"
        known = {option for action in commands[command]._actions
                 for option in action.option_strings}
        assert flags <= known, \
            f"{command}: docstring mentions {sorted(flags - known)}"


# -- the docs' command lines must parse; a removed verb or flag fails here -------


_DOC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_DOC_COMMAND = re.compile(
    r"^\s*(?:\$\s*)?(?:python3?\s+-m\s+repro|repro)\s+(.*)$")


def _doc_commands():
    """(where, argv) for every ``repro ...`` line in a fenced block of
    README.md and docs/*.md; ``\\``-continued lines count as one
    command and a trailing ``# comment`` is dropped."""
    paths = [os.path.join(_DOC_ROOT, "README.md")] + sorted(
        glob.glob(os.path.join(_DOC_ROOT, "docs", "*.md")))
    for path in paths:
        with open(path) as handle:
            lines = handle.read().splitlines()
        fenced, pending, start = False, "", 0
        for number, line in enumerate(lines, 1):
            if line.lstrip().startswith("```"):
                fenced, pending = not fenced, ""
                continue
            if not fenced:
                continue
            if not pending:
                start = number
            line = pending + line
            if line.rstrip().endswith("\\"):
                pending = line.rstrip()[:-1] + " "
                continue
            pending = ""
            match = _DOC_COMMAND.match(line)
            if match:
                argv = shlex.split(match.group(1), comments=True)
                yield f"{os.path.relpath(path, _DOC_ROOT)}:{start}", argv


def test_doc_command_lines_parse():
    commands = list(_doc_commands())
    assert len(commands) > 20  # the scan found the docs' examples
    failures = []
    for where, argv in commands:
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                build_parser().parse_args(argv)
        except SystemExit:
            failures.append(f"{where}: repro {' '.join(argv)}: "
                            f"{stderr.getvalue().strip()}")
    assert not failures, "\n".join(failures)


"""The chaos and shard CLIs reject an unusable ``--out`` (and the shard
CLI an unknown algorithm or a workload value that is not finite or not
in range) before any work runs: exit 2, one unquoted ``error:`` line,
nothing on stdout."""

import pytest

from repro.chaos.__main__ import main as chaos_main
from repro.shard.__main__ import main as shard_main

SHARD = ["--shards", "2", "--ops", "10", "--keys", "8"]
COMMANDS = {
    "chaos": (chaos_main, ["--algo", "eq_aso", "--seeds", "1"]),
    **{f"shard-{cmd}": (shard_main, [cmd, *SHARD]) for cmd in ("run", "oracle", "chaos")},
}


@pytest.mark.parametrize(
    ("cli", "argv"),
    [
        *(
            pytest.param(cli, [*argv, "--out", out], id=f"{name}-{out}")
            for name, (cli, argv) in COMMANDS.items()
            for out in ("FILE", "FILE/x")
        ),
        pytest.param(shard_main, ["run", *SHARD, "--algo", "nope"], id="shard-unknown-algo"),
        *(
            pytest.param(shard_main, ["run", *SHARD, *workload], id=f"shard-{name}")
            for name, workload in {
                "zipf-nan": ["--zipf", "nan"],
                "zipf-negative": ["--zipf", "-1"],
                "zipf-overflow": ["--zipf", "1e6"],
                "rate-inf": ["--rate", "inf"],
                "off-rate-inf": ["--off-rate", "inf", "--mean-off", "1"],
                "mean-on-inf": ["--mean-on", "inf", "--mean-off", "1"],
                "mean-off-inf": ["--mean-off", "inf"],
            }.items()
        ),
    ],
)
def test_unusable_input_exits_two_before_running(cli, argv, tmp_path, capsys):
    file = tmp_path / "report.txt"
    file.write_text("not a directory\n")
    assert cli([arg.replace("FILE", str(file)) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert not lines[0].startswith('error: "'), "a KeyError message printed with quotes"

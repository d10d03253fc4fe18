"""``python -m repro.check``: list, explore, smoke, save, replay."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def _check(*args: str, expect: int = 0) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-m", "repro.check", *args],
        capture_output=True, text=True, cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == expect, proc.stdout + proc.stderr
    return proc


def test_list_names_models_and_mutations():
    out = _check("--list").stdout
    for name in ("lock", "barrier-recovery", "grid-barrier", "put-signal",
                 "fastpath-credit", "deadlock-demo"):
        assert name in out
    for mutation in ("dropped-credit-ack", "lost-doorbell",
                     "dropped-nudge", "unchecked-token-wait"):
        assert mutation in out


def test_explore_lock_json():
    out = _check("lock", "--json").stdout
    payload = json.loads(out[out.index("["):])
    (entry,) = payload
    assert entry["model"] == "lock"
    assert entry["exhausted"] is True
    assert entry["violations"] == 0
    assert entry["prune_ratio"] > 0.5


def test_unexpected_violation_sets_exit_code():
    # A mutation finding on a model that should be healthy is a failure.
    _check("put-signal", "--mutate", "lost-doorbell", "--stop-on-first",
           "--max-steps", "60000", expect=1)


def test_positive_control_expected_to_fail_exits_zero():
    # deadlock-demo is the harness's positive control: finding its
    # deadlock is the PASS condition.
    _check("deadlock-demo", "--stop-on-first")


def test_expect_violation_inverts_exit():
    _check("deadlock-demo", "--stop-on-first", "--expect-violation")
    # ...and a healthy model with --expect-violation fails the smoke.
    _check("lock", "--expect-violation", expect=1)


def test_mutation_smoke_saves_and_replays(tmp_path):
    out_dir = tmp_path / "cex"
    result = _check(
        "put-signal", "--mutate", "lost-doorbell", "--expect-violation",
        "--stop-on-first", "--max-steps", "60000",
        "--save-traces", str(out_dir),
    )
    assert "violation found" in result.stdout
    (cex_file,) = sorted(out_dir.glob("*.json"))
    payload = json.loads(cex_file.read_text())
    assert payload["model"] == "put-signal"
    assert payload["mutation"] == "lost-doorbell"

    replay = _check("--replay", str(cex_file))
    assert "reproduced" in replay.stdout


def test_unknown_model_is_an_error():
    proc = _check("no-such-model", expect=1)
    assert "unknown model" in proc.stderr

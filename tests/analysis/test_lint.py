"""The determinism/layering lint: rule triggers, suppression, clean tree."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from repro.analysis.lint import lint_file, lint_paths, main

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _write(tmp_path: Path, relative: str, source: str) -> Path:
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


# ----------------------------------------------------------- rule: wallclock
def test_time_import_flagged_in_simulated_package(tmp_path):
    path = _write(tmp_path, "repro/sim/bad.py", "import time\n")
    issues = lint_file(path)
    assert [issue.rule for issue in issues] == ["wallclock"]
    assert issues[0].line == 1


def test_random_from_import_flagged(tmp_path):
    path = _write(tmp_path, "repro/ntb/bad.py",
                  "from random import randint\n")
    assert [issue.rule for issue in lint_file(path)] == ["wallclock"]


def test_numpy_random_attribute_flagged(tmp_path):
    path = _write(
        tmp_path, "repro/core/bad.py",
        "import numpy as np\nvalue = np.random.rand()\n",
    )
    issues = lint_file(path)
    assert [issue.rule for issue in issues] == ["wallclock"]
    assert issues[0].line == 2


def test_wallclock_flagged_in_every_repro_package(tmp_path):
    # The rule covers all of repro.*, not just the simulated layers: a
    # stray wall-clock read in bench or obsv breaks determinism too.
    for relative in ("repro/bench/timing.py", "repro/obsv/clock.py",
                     "repro/analysis/when.py"):
        path = _write(tmp_path, relative,
                      "import time\nt0 = time.perf_counter()\n")
        assert [issue.rule for issue in lint_file(path)] == ["wallclock"], \
            relative


def test_wallclock_exempt_files_may_read_the_host_clock(tmp_path):
    # The bench CLI measures wall time by design (WALLCLOCK_EXEMPT).
    path = _write(tmp_path, "repro/bench/__main__.py",
                  "import time\nt0 = time.perf_counter()\n")
    assert lint_file(path) == []


def test_wallclock_exemption_is_per_package_and_filename(tmp_path):
    # The exemption names (package, filename) pairs: the same filename
    # in a different package is still banned.
    for relative in ("repro/core/__main__.py", "repro/obsv/profiler.py"):
        path = _write(tmp_path, relative, "import time\n")
        assert [issue.rule for issue in lint_file(path)] == ["wallclock"], \
            relative


def test_wallclock_allowed_outside_repro(tmp_path):
    path = _write(tmp_path, "scripts/timing.py",
                  "import time\nt0 = time.perf_counter()\n")
    assert lint_file(path) == []


# ----------------------------------------------------------- rule: bare-yield
def test_bare_yield_flagged(tmp_path):
    path = _write(
        tmp_path, "repro/core/bad.py",
        "def proc(env):\n    yield\n",
    )
    issues = lint_file(path)
    assert [issue.rule for issue in issues] == ["bare-yield"]


def test_constant_yield_flagged(tmp_path):
    path = _write(
        tmp_path, "repro/core/bad.py",
        "def proc(env):\n    yield 5\n",
    )
    assert [issue.rule for issue in lint_file(path)] == ["bare-yield"]


def test_yield_of_expression_allowed(tmp_path):
    path = _write(
        tmp_path, "repro/core/good.py",
        "def proc(env):\n    yield env.timeout(1.0)\n",
    )
    assert lint_file(path) == []


def test_pragma_suppresses(tmp_path):
    path = _write(
        tmp_path, "repro/core/ok.py",
        "def proc(env):\n"
        "    return\n"
        "    yield  # pragma: no cover - keeps this a generator\n",
    )
    assert lint_file(path) == []


def test_lint_skip_marker_suppresses(tmp_path):
    path = _write(
        tmp_path, "repro/sim/ok.py",
        "import time  # lint: skip\n",
    )
    assert lint_file(path) == []


# ---------------------------------------------------- rule: register-mutation
def test_register_mutation_outside_ntb_flagged(tmp_path):
    path = _write(
        tmp_path, "repro/core/bad.py",
        "def poke(endpoint):\n"
        "    endpoint.doorbell._pending = 0\n"
        "    endpoint.incoming[0].translation_address = 4096\n",
    )
    issues = lint_file(path)
    assert [issue.rule for issue in issues] == ["register-mutation"] * 2


def test_register_mutation_inside_ntb_allowed(tmp_path):
    path = _write(
        tmp_path, "repro/ntb/device_like.py",
        "def program(window):\n"
        "    window.translation_address = 4096\n",
    )
    assert lint_file(path) == []


def test_self_mutation_allowed_anywhere(tmp_path):
    path = _write(
        tmp_path, "repro/sim/thing.py",
        "class Tracer:\n"
        "    def __init__(self, enabled):\n"
        "        self.enabled = enabled\n",
    )
    assert lint_file(path) == []


def test_augassign_register_mutation_flagged(tmp_path):
    path = _write(
        tmp_path, "repro/core/bad.py",
        "def poke(db):\n    db._mask |= 1\n",
    )
    assert [issue.rule for issue in lint_file(path)] == ["register-mutation"]


# --------------------------------------------------------- rule: bounded-wait
def test_direct_wait_yield_in_core_flagged(tmp_path):
    path = _write(
        tmp_path, "repro/core/bad.py",
        "def proc(rt):\n    value = yield rt.heap_updated.wait()\n",
    )
    assert [issue.rule for issue in lint_file(path)] == ["bounded-wait"]


def test_remote_wait_helper_allowed(tmp_path):
    path = _write(
        tmp_path, "repro/core/good.py",
        "from .waits import remote_wait\n"
        "def proc(rt, event):\n"
        "    value = yield from remote_wait(rt, event, what='x')\n",
    )
    assert lint_file(path) == []


def test_waits_module_itself_exempt(tmp_path):
    path = _write(
        tmp_path, "repro/core/waits.py",
        "def remote_wait(rt, signal):\n    yield signal.wait()\n",
    )
    assert lint_file(path) == []


def test_wait_yield_outside_core_allowed(tmp_path):
    path = _write(
        tmp_path, "repro/fabric/fine.py",
        "def proc(signal):\n    yield signal.wait()\n",
    )
    assert lint_file(path) == []


def test_local_rendezvous_suppressed_with_marker(tmp_path):
    path = _write(
        tmp_path, "repro/core/ok.py",
        "def proc(latch):\n"
        "    yield latch.wait()  # local rendezvous  # lint: skip\n",
    )
    assert lint_file(path) == []


def test_contextmanager_bare_yield_allowed(tmp_path):
    path = _write(
        tmp_path, "repro/core/ok.py",
        "from contextlib import contextmanager\n"
        "@contextmanager\n"
        "def shadowed(target):\n"
        "    original = target.method\n"
        "    try:\n"
        "        yield\n"
        "    finally:\n"
        "        target.method = original\n",
    )
    assert lint_file(path) == []


# ------------------------------------------------------ rule: registered-wait
def test_spin_loop_without_registration_flagged(tmp_path):
    path = _write(
        tmp_path, "repro/core/bad.py",
        "def poll(rt, cell):\n"
        "    while cell.value == 0:\n"
        "        yield rt.env.timeout(rt.poll_us)\n",
    )
    issues = lint_file(path)
    assert [issue.rule for issue in issues] == ["registered-wait"]
    assert issues[0].line == 3


def test_spin_loop_with_wait_graph_registration_allowed(tmp_path):
    path = _write(
        tmp_path, "repro/core/ok.py",
        "def poll(rt, cell, resource):\n"
        "    with rt.wait_graph.blocked_on(rt.my_pe_id, resource):\n"
        "        while cell.value == 0:\n"
        "            yield rt.env.timeout(rt.poll_us)\n",
    )
    assert lint_file(path) == []


def test_spin_loop_outside_core_allowed(tmp_path):
    path = _write(
        tmp_path, "repro/fabric/fine.py",
        "def poll(rt, cell):\n"
        "    while cell.value == 0:\n"
        "        yield rt.env.timeout(5.0)\n",
    )
    assert lint_file(path) == []


def test_bounded_retry_suppressed_with_marker(tmp_path):
    path = _write(
        tmp_path, "repro/core/ok.py",
        "def retry(rt, attempts):\n"
        "    while attempts < 8:\n"
        "        yield rt.env.timeout(50.0)  # lint: skip\n"
        "        attempts += 1\n",
    )
    assert lint_file(path) == []


# ----------------------------------------------------------- rule: fixed-poll
#: The four poll loops this rule was written against, as they stood before
#: core.waits.poll_wait replaced them (all registered with the wait graph,
#: so ``registered-wait`` was content).
_OLD_POLL_LOOPS = (
    "def quiet(self):\n"
    "    with self.blocked_on('quiet'):\n"
    "        while True:\n"
    "            busy = [l for l in self.links.values() if not l.idle]\n"
    "            if not busy:\n"
    "                return\n"
    "            yield self.env.timeout(1.0)\n"
    "\n"
    "def forwarding_quiesce(self):\n"
    "    with self.blocked_on('forwarding-quiesce'):\n"
    "        while not self.service.quiescent:\n"
    "            yield self.env.timeout(1.0)\n"
    "\n"
    "def stop(self):\n"
    "    with self.rt.blocked_on('service-stop'):\n"
    "        while self.active_forwards or self._work:\n"
    "            if self.env.now >= self.deadline:\n"
    "                self.flush()\n"
    "            yield self.env.timeout(1.0)\n"
    "\n"
    "def onward(self, msg):\n"
    "    with self.rt.blocked_on('ctrl-relay data flush'):\n"
    "        while self.active_forwards:\n"
    "            yield self.env.timeout(1.0)\n"
    "    yield from self.send(msg)\n"
)


def test_fixed_interval_poll_loops_flagged(tmp_path):
    path = _write(tmp_path, "repro/core/bad.py", _OLD_POLL_LOOPS)
    issues = lint_file(path)
    assert [(issue.rule, issue.line) for issue in issues] == [
        ("fixed-poll", 7), ("fixed-poll", 12), ("fixed-poll", 19),
        ("fixed-poll", 24)]


def test_fixed_poll_needs_a_literal_period_and_no_other_yield(tmp_path):
    path = _write(
        tmp_path, "repro/core/ok.py",
        "def handshake(self, link):\n"
        "    with self.blocked_on('hello'):\n"
        "        while True:\n"
        "            value = yield from link.driver.spad_read(0)\n"
        "            if value:\n"
        "                return\n"
        "            yield self.env.timeout(5.0)\n"
        "\n"
        "def backoff(self, cell):\n"
        "    with self.blocked_on('cell'):\n"
        "        while cell.value == 0:\n"
        "            yield self.env.timeout(self.config.poll_us)\n",
    )
    assert lint_file(path) == []


def test_fixed_poll_nested_loop_reported_once(tmp_path):
    path = _write(
        tmp_path, "repro/core/bad.py",
        "def drain(self, queues):\n"
        "    with self.blocked_on('drain'):\n"
        "        while queues:\n"
        "            while queues[-1].busy:\n"
        "                yield self.env.timeout(2)\n"
        "            queues.pop()\n",
    )
    assert [(issue.rule, issue.line) for issue in lint_file(path)] == [
        ("fixed-poll", 5)]


def test_fixed_poll_outside_core_and_suppressed(tmp_path):
    loop = ("def poll(rt, cell):\n"
            "    with rt.blocked_on('cell'):\n"
            "        while cell.value == 0:\n"
            "            yield rt.env.timeout(1.0){marker}\n")
    assert lint_file(_write(tmp_path, "repro/fabric/fine.py",
                            loop.format(marker=""))) == []
    assert lint_file(_write(tmp_path, "repro/core/ok.py",
                            loop.format(marker="  # lint: skip"))) == []


# ------------------------------------------------------ rule: span-discipline
def test_raw_span_open_flagged_outside_obsv(tmp_path):
    path = _write(
        tmp_path, "repro/core/bad.py",
        "def f(scope):\n"
        "    span = scope.span_open('x', 'op', 't', None, {})\n"
        "    scope.span_close(span)\n",
    )
    issues = lint_file(path)
    assert [issue.rule for issue in issues] == ["span-discipline"] * 2


def test_span_context_manager_allowed(tmp_path):
    path = _write(
        tmp_path, "repro/core/good.py",
        "def f(scope):\n"
        "    with scope.span('x', category='op'):\n"
        "        pass\n",
    )
    assert lint_file(path) == []


def test_callback_stage_span_pair_admitted(tmp_path):
    path = _write(
        tmp_path, "repro/pcie/stage.py",
        "def granted(scope, parent):\n"
        "    return scope.begin_span('x', 'link', 't', parent, nbytes=1)\n"
        "def served(scope, span):\n"
        "    scope.end_span(span)\n",
    )
    assert lint_file(path) == []


def test_span_primitives_allowed_inside_obsv(tmp_path):
    path = _write(
        tmp_path, "repro/obsv/spans_like.py",
        "def f(scope):\n"
        "    span = scope.span_open('x', 'op', 't', None, {})\n"
        "    scope.span_close(span)\n",
    )
    assert lint_file(path) == []


# ---------------------------------------------------------------- whole tree
def test_repo_source_tree_is_clean():
    issues = lint_paths([REPO_SRC])
    assert issues == [], "\n".join(str(issue) for issue in issues)


def test_syntax_error_reported_not_raised(tmp_path):
    path = _write(tmp_path, "repro/core/broken.py", "def f(:\n")
    issues = lint_file(path)
    assert [issue.rule for issue in issues] == ["syntax"]


def test_main_exit_codes(tmp_path):
    bad = _write(tmp_path, "repro/sim/bad.py", "import random\n")
    good = _write(tmp_path, "repro/bench/good.py", "x = 1\n")
    assert main([str(good)]) == 0
    assert main([str(bad)]) == 1
    assert main([str(tmp_path / "missing.py")]) == 2


def test_cli_module_invocation():
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis.lint", str(REPO_SRC)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean" in result.stdout

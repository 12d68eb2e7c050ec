"""Tests of the benchmark's own arithmetic.

Run with ``python3 -m pytest bench/test_bench.py -q`` from the repo root.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import spans
from hostclock import HostClock, Stopwatch
from stats import Outcomes, interquartile_mean, percentile, quartile_spread, tail

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_covered_length_merges_overlaps_and_clips():
    assert spans.covered_length([], 0.0, 10.0) == 0.0
    assert spans.covered_length([(1, 3), (2, 5)], 0.0, 10.0) == 4.0
    assert spans.covered_length([(-2, 1), (9, 12)], 0.0, 10.0) == 2.0
    assert spans.covered_length([(4, 6), (1, 2), (5, 7)], 0.0, 10.0) == 4.0


def test_self_time_subtracts_covered_child_intervals():
    assert spans.self_time(0.0, 10.0, [(1, 3), (2, 5), (7, 8)]) == 5.0
    assert spans.self_time(0.0, 10.0, []) == 10.0


def test_tracer_counts_outermost_group_time_and_self_time():
    # outer certify [0, 10] holds eigenpairs [1, 4] holding a nested
    # certify [2, 3], then basis [5, 9]
    tracer = spans.Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5, 9, 10))
    outer = tracer.enter("verify.certify")
    middle = tracer.enter("verify.eigenpairs")
    inner = tracer.enter("verify.certify")
    tracer.exit(inner)
    tracer.exit(middle)
    basis = tracer.enter("verify.basis")
    tracer.exit(basis)
    tracer.exit(outer)

    assert tracer.inclusive == {
        "verify.certify": 10, "verify.eigenpairs": 3, "verify.basis": 4}
    assert tracer.self_s == {
        "verify.certify": 1 + 3, "verify.eigenpairs": 2, "verify.basis": 4}
    assert tracer.top_level_s == 10
    assert tracer.calls["verify"] == 4


def test_tracer_rejects_spans_closed_out_of_order():
    tracer = spans.Tracer(clock=FakeClock(0, 1, 2))
    outer = tracer.enter("cli.main")
    tracer.enter("cayley.adjacency")
    with pytest.raises(RuntimeError):
        tracer.exit(outer)


def test_merge_sums_counts_and_keeps_peaks():
    first, second = spans.Tracer(), spans.Tracer()
    first.add("cayley.adjacency_bytes", 10)
    first.peak("verify.worst_residual_ratio", 0.5)
    second.add("cayley.adjacency_bytes", 5)
    second.peak("verify.worst_residual_ratio", 0.25)
    second.calls["cli"] = 2
    second.top_level_s = 1.5
    first.merge(json.loads(json.dumps(second.summary())))
    assert first.counters == {
        "cayley.adjacency_bytes": 15, "verify.worst_residual_ratio": 0.5}
    assert first.calls["cli"] == 2
    assert first.top_level_s == 1.5


@pytest.mark.parametrize("count, expected", [
    (19, None),
    (20, (50.0, 10)),
    (99, (50.0, 49)),
    (100, (90.0, 10)),
    (999, (90.0, 99)),
    (1000, (99.0, 10)),
    (10000, (99.9, 10)),
])
def test_tail_picks_highest_percentile_with_ten_samples_beyond(count, expected):
    found = tail(list(range(count)))
    if expected is None:
        assert found is None
        return
    q, value, beyond = found
    assert (q, beyond) == expected
    assert sum(v > value for v in range(count)) == beyond


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert percentile(values, 50) == 3
    assert percentile(values, 100) == 5
    assert percentile(values, 0) == 1


def test_interquartile_mean_drops_a_quarter_at_each_end():
    assert interquartile_mean([7.0]) == 7.0
    assert interquartile_mean([1, 2, 3]) == 2.0
    assert interquartile_mean([100, 1, 2, 3, 4, 5, 6, -100]) == 3.5
    # eleven jobs: two dropped at each end, the middle seven averaged
    assert interquartile_mean([0.8, 0.9] + [2.0] * 7 + [2.6, 19.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        interquartile_mean([])


def test_host_clock_scales_each_stretch_by_the_latest_loop_timing():
    clock = HostClock(nominal_s=0.01, t=100.0, loop_s=0.01)
    assert clock.read(100.01) == pytest.approx((100.0, 0.0))
    assert clock.read(101.01) == pytest.approx((101.0, 1.0))
    clock.sample(101.01, 0.02)   # host got slower: loop twice the nominal
    assert clock.read(101.03) == pytest.approx((101.0, 1.0))  # the loop is not counted
    assert clock.read(103.03) == pytest.approx((103.0, 2.0))
    clock.sample(103.03, 0.005)  # and then faster
    assert clock.read(103.535) == pytest.approx((103.5, 3.0))
    assert clock.loops == [0.01, 0.02, 0.005]


def test_stopwatch_laps_wall_and_calibrated_time_without_its_probes():
    watch = Stopwatch(period_s=None, nominal_s=0.01)
    watch.start()
    assert watch.running
    watch.probe()
    wall, calibrated = watch.stop()
    assert not watch.running
    # the probe ran inside the lap but is left out of it
    assert 0 <= wall < watch.clock.loops[-1]
    assert calibrated >= 0


def test_stopwatch_timer_probes_during_a_job_and_stops_with_the_block():
    with Stopwatch(period_s=0.01) as watch:
        watch.start()
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        wall, calibrated = watch.stop()
    probes = len(watch.clock.loops) - 1
    assert 5 <= probes <= 31
    assert wall == pytest.approx(0.3 - sum(watch.clock.loops[1:]), abs=0.01)
    assert calibrated > 0
    time.sleep(0.05)  # no alarm is left to fire
    assert len(watch.clock.loops) - 1 == probes


def test_alarm_free_stream_delivers_a_large_write_whole():
    script = """
import sys
sys.path.insert(0, sys.argv[1])
import hostclock
from cli_shim import AlarmFreeStream
out = AlarmFreeStream(sys.stdout)
with hostclock.Stopwatch(period_s=0.001) as watch:
    for _ in range(5):
        out.write("x" * 4_000_000)
    out.flush()
sys.stderr.write(str(len(watch.clock.loops)))
"""
    done = subprocess.run([sys.executable, "-c", script, str(ROOT / "bench")],
                          capture_output=True, text=True, check=True, timeout=120)
    assert len(done.stdout) == 20_000_000
    assert int(done.stderr) >= 1


def test_outcomes_count_failures_against_attempts():
    outcomes = Outcomes()
    outcomes.record("n=610", None)
    outcomes.record("n=610", "certification failed")
    outcomes.record("n=610", "second reason")
    outcomes.record("n=889", None)
    assert (outcomes.attempted, outcomes.failed) == (4, 2)
    assert outcomes.failed_ratio == 0.5
    assert outcomes.reasons == {"n=610": "certification failed"}
    assert Outcomes().failed_ratio == 0.0


def test_quartile_spread_is_a_share_of_the_median():
    assert quartile_spread([10.0] * 10) == 0.0
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(5.5 / 5.5)


def test_install_catches_calls_the_library_makes_to_itself():
    script = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans
from cayleyspec import cayley, spectra, verify
tracer = spans.Tracer()
spans.install(tracer)
group, conn = cayley.nonnormal_family(7, 3, 2)
color = cayley.color_from_set(group, conn.elements)
layers = cayley.layers_from_set(group, conn.elements)
spectrum = spectra.spectrum_metacyclic(7, 3, 2, layers)
verify.certify(cayley.adjacency_matrix(group, color), spectrum, color)
print(json.dumps(tracer.summary()))
"""
    out = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=120).stdout
    summary = json.loads(out)
    # certify reaches verify_eigenpairs and verify_basis through module names
    assert {"verify.certify", "verify.eigenpairs", "verify.basis"} <= set(summary["inclusive"])
    # nonnormal_family reaches classify_connection_set, which reaches
    # is_generating_set
    assert {"cayley.classify", "groups.generating"} <= set(summary["inclusive"])
    assert summary["counters"]["cayley.adjacency_bytes"] == 16 * 21 * 21
    assert summary["counters"]["spectra.lines"] == 21

"""Tests of the benchmark itself: run with ``python3 -m pytest bench``."""
import json

import pytest

import layers
import run
from workloads import ROTATIONS, WORKLOADS, make_job


@pytest.fixture(scope="module")
def cli():
    module = run.load_cli()
    assert module is not None, "qsysid sources not found under src/"
    return module


def _index_of(workload, kind):
    return next(i for i, k in enumerate(ROTATIONS[workload]) if k.name == kind)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_configs(workload):
    for index in range(len(ROTATIONS[workload])):
        assert make_job(workload, 5, index).text == make_job(workload, 5, index).text
    assert make_job(workload, 5, 0).text != make_job(workload, 6, 0).text


def test_corrupted_qfi_entry_is_counted_failed(cli):
    job = make_job("screen-mixed", 0, _index_of("screen-mixed", "qfi-d2k1m4"))
    _, text, error = run.execute(cli, job)
    report = json.loads(text)
    report["result"]["matrix"][0][1] *= -1.0
    report["result"]["matrix"][1][0] *= -1.0
    tally = run.Tally()
    tally.add(job, text, error)
    tally.add(job, json.dumps(report), None)
    assert (tally.attempted, tally.failed, tally.unexpected) == (2, 1, 1)


def test_known_defect_is_failed_but_expected(cli):
    job = make_job("semigroup-d4-d8", 0, _index_of("semigroup-d4-d8", "cov-converge-d4k1m2"))
    _, text, error = run.execute(cli, job)
    report = json.loads(text)
    tally = run.Tally()
    tally.add(job, text, error)
    assert (tally.failed, tally.unexpected) == (1, 0)
    report["result"]["series"][0]["limit"][0] += 1.0
    tally.add(job, json.dumps(report), None)
    assert (tally.failed, tally.unexpected) == (2, 1)


def test_traced_counts_repeat_and_match_hand_count(cli):
    job = make_job("fisher-d8", 0, _index_of("fisher-d8", "qfi-d8k2m20"))
    layer_of = layers.LayerMap(str(run.SRC / "qsysid"))
    counts = []
    for _ in range(2):
        stats, _ = layers.profile(lambda j: run.execute(cli, j), [job])
        per_job = layers.aggregate(stats, layer_of, 1)
        counts.append({name: per_job[name] for name in layers.COUNTS})
    assert counts[0] == counts[1]
    # qfi_rate with m = 20: one diagnosis, then per tangent one generator build and one solve
    assert counts[0]["lindblad.generator_builds"] == 21
    assert counts[0]["lindblad.restricted_solves"] == 20
    assert counts[0]["kernel.lstsq_calls"] == 20
    assert counts[0]["lindblad.ergodicity_diagnoses"] == 1

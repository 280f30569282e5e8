"""Tests of the benchmark itself: oracles, seeding, and span bookkeeping."""

import gc
import json
import os
import random
import sys

import pytest

import spans
import worker
import workloads

sys.path.insert(0, worker.SRC)
import fglab  # noqa: E402
import fglab.cli  # noqa: E402

PREV = workloads.PREV


def run_op(op, results=None):
    """Run an op's steps in process and check it: (outputs, oracle verdict)."""
    _, outputs, error = worker.run_steps(fglab.cli, op["steps"], PREV)
    assert error is None, error
    results = dict(results or {}, **{op["id"]: outputs})
    return outputs, workloads.check(op, outputs, results)


@pytest.fixture
def small(monkeypatch):
    """Shrink the size constants so every workload builds and runs in moments."""
    monkeypatch.setattr(workloads, "WITNESS_GRID", {2: 2, 3: 1, 4: 1})
    monkeypatch.setattr(workloads, "VERIFY_BATTERIES", ((4, (5, 9)),))
    monkeypatch.setattr(workloads, "LONG_WORDS_N", (1, 3, 5))
    monkeypatch.setattr(workloads, "PERM_DEGREES", (7, 12))
    monkeypatch.setattr(workloads, "CYCLIC_DEGREE", (6, 9))
    monkeypatch.setattr(workloads, "LONG_GENERATORS", ((3, 40), (2, 70)))


def run_workload(spec):
    results = {}
    for op in spec["ops"]:
        _, outputs, error = worker.run_steps(fglab.cli, op["steps"], PREV)
        assert error is None, error
        results[op["id"]] = outputs
    return results


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_oracle_accepts_the_seed_outputs(small, tmp_path, name):
    spec = workloads.build(name, 7, str(tmp_path))
    results = run_workload(spec)
    for op in spec["ops"]:
        assert workloads.check(op, results[op["id"]], results) is None, op["id"]


def find(spec, prefix):
    return next(op for op in spec["ops"] if op["id"].startswith(prefix))


def test_witness_oracle_rejects_a_flipped_p_vector(small, tmp_path):
    op = find(workloads.build("witness", 3, str(tmp_path)), "witness:")
    outputs, verdict = run_op(op)
    assert verdict is None
    cert = json.loads(outputs[0])
    cert["p_vector"] = [-p for p in cert["p_vector"]]
    assert "path counting" in workloads.check(op, [json.dumps(cert)], {})
    cert = json.loads(outputs[0])
    cert["lcs_weight"]["value"] += 1
    assert "lcs weight" in workloads.check(op, [json.dumps(cert)], {})


def test_verify_oracle_rejects_a_failed_row(small, tmp_path):
    op = find(workloads.build("verify", 3, str(tmp_path)), "verify:d")
    outputs, verdict = run_op(op)
    assert verdict is None
    report = json.loads(outputs[0])
    report["results"][-1]["eigen"] = False
    assert "checks" in workloads.check(op, [json.dumps(report)], {})


def test_long_words_oracle_rejects_a_dropped_letter(small, tmp_path):
    op = find(workloads.build("long_words", 3, str(tmp_path)), "long_words:n5")
    outputs, verdict = run_op(op)
    assert verdict is None
    tokens = outputs[1].split()
    dropped = " ".join(tokens[:1] + tokens[2:])
    assert workloads.check(op, [outputs[0], dropped], {}) is not None
    assert "omega" in workloads.check(op, ["x " + outputs[0], outputs[1]], {})


def test_subgroup_oracles_reject_corrupted_outputs(small, tmp_path):
    spec = workloads.build("subgroup", 3, str(tmp_path))
    results = run_workload(spec)

    index = find(spec, "index:perm12")
    assert "expected 12" in workloads.check(index, ['{"index":11}'], results)
    contains = find(spec, "contains:perm12:out")
    assert workloads.check(contains, ['{"contains":true}'], results) is not None
    for normal in (find(spec, "normal:perm12"), find(spec, "normal:cyclic")):
        flipped = json.dumps({"normal": not normal["check"]["expect"]})
        assert workloads.check(normal, [flipped], results) is not None

    rewrite = find(spec, "rewrite:perm12")
    tokens = json.loads(results[rewrite["id"]][0])["rewrite"].split()
    dropped = json.dumps({"rewrite": " ".join(tokens[1:])})
    assert "round-trip" in workloads.check(rewrite, [dropped], results)

    basis = find(spec, "basis:perm12")
    entries = json.loads(results[basis["id"]][0])["basis"]
    assert "Schreier" in workloads.check(
        basis, [json.dumps({"basis": entries[1:]})], results)


def test_long_generator_files_have_a_certified_outside_word(small, tmp_path):
    spec = workloads.build("subgroup", 5, str(tmp_path))
    for op in spec["ops"]:
        if op["id"].startswith("contains:long"):
            word = workloads.parse(op["steps"][0][-1], ["a", "b", "c"])
            a_sum = sum(1 if c == 1 else -1 for c in word if abs(c) == 1)
            assert (a_sum % workloads.A_SUM_MODULUS == 0) == op["check"]["expect"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_the_same_ops(tmp_path, name):
    def ops(seed, sub):
        os.mkdir(tmp_path / sub)
        spec = workloads.build(name, seed, str(tmp_path / sub))
        return json.dumps(spec["ops"]).replace(str(tmp_path / sub), "DIR")

    first = ops(11, "a")
    assert first == ops(11, "b")
    assert first != ops(12, "c")


def test_path_counting_matches_the_certificate_example():
    # README: the d = 3, m = 2 certificate has p_vector [-1, 1, 0]
    assert workloads.residue_buckets(workloads.omega_letters(0), 3) == (0, [-1, 1, 0])


def test_own_word_code_round_trips():
    rng = random.Random(0)
    names = ["a", "b", "c"]
    w = workloads.random_word(rng, 200, 3)
    assert workloads.parse(workloads.fmt(w, names), names) == w
    assert workloads.reduce_letters(w + workloads.invert(w)) == []


def test_reference_loop_leaves_the_collector_alone():
    gc.collect()
    first, second = gc.get_count(), gc.get_count()   # each read makes one tuple
    gc.collect()
    before = gc.get_count()
    worker.reference_s()
    assert gc.get_count()[0] - before[0] == second[0] - first[0]


def test_scaling_is_identity_at_the_reference_speed():
    r = worker.REFERENCE_S
    assert worker.scaled(2.0, r, r) == pytest.approx(2.0)
    assert worker.scaled(2.0, 2 * r, 2 * r) == pytest.approx(1.0)


@pytest.fixture
def tracer():
    t = spans.Tracer()
    originals = (fglab.omega, fglab.cli.main, fglab.words.Word.__str__)
    t.install()
    try:
        yield t
    finally:
        t.uninstall()
    assert (fglab.omega, fglab.cli.main, fglab.words.Word.__str__) == originals


def test_every_binding_is_wrapped(tracer):
    bindings = {fglab.omega, fglab.words.omega, fglab.engine.omega, fglab.cli.omega}
    assert len(bindings) == 1
    assert hasattr(fglab.omega, "__wrapped__")
    assert hasattr(fglab.words.Word.__str__, "__wrapped__")


def traced_batch(tracer, small, tmp_path):
    op_time = 0.0
    for name in ("witness", "subgroup"):
        spec = workloads.build(name, 2, str(tmp_path))
        for op in spec["ops"]:
            tracer.op = op["id"]
            seconds, _, error = worker.run_steps(fglab.cli, op["steps"], PREV)
            assert error is None
            op_time += seconds
    return op_time


def test_spans_nest_inside_their_parents(tracer, small, tmp_path):
    traced_batch(tracer, small, tmp_path)
    assert tracer.spans
    for name, start, end, parent, op in tracer.spans:
        assert start <= end
        if parent >= 0:
            p_name, p_start, p_end, _, p_op = tracer.spans[parent]
            assert p_start <= start and end <= p_end, (name, p_name)
            assert op == p_op
        else:
            assert name == "cli.main"


def test_self_times_sum_to_at_most_the_op_time(tracer, small, tmp_path):
    op_time = traced_batch(tracer, small, tmp_path)
    own = spans.self_times(tracer.spans)
    assert min(own) > -1e-9
    assert sum(own) <= op_time
    metrics = spans.layer_metrics(tracer, op_time)
    shares = [metrics[layer + ".self_share"] for layer in spans.LAYERS]
    assert 0 < sum(shares) <= 1


def test_benchmark_names_come_from_the_layer_map():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "layers.json")) as fh:
        layer_map = json.load(fh)
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    mapped = {n for layer in layer_map["layers"].values() for n in layer["metrics"]}
    assert {m["name"] for m in bench["per_layer"]} <= mapped
    assert [w["name"] for w in bench["workloads"]] == list(layer_map["workloads"])
    assert list(layer_map["workloads"]) == list(workloads.WORKLOADS)

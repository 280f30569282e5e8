import json
import os
import subprocess
import sys
import time
from importlib import resources

import pytest

from fglab import cli, magnus
from fglab.cli import MAX_VERIFY_D, MAX_WITNESS_M, build_parser, main

FIXTURES = resources.files("fglab") / "fixtures"
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def fixture(name):
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out.rstrip("\n")


class TestReduce:
    def test_cancellation(self, capsys):
        assert run(capsys, "reduce", "-a", "x,y", "x x^-1 y") == (0, "y")

    def test_already_reduced(self, capsys):
        code, out = run(capsys, "reduce", "-a", "x,y", "x y x^-1 y^-1")
        assert (code, out) == (0, "x y x^-1 y^-1")

    def test_run_collapse(self, capsys):
        assert run(capsys, "reduce", "-a", "x,y", "x^2 x^-3") == (0, "x^-1")

    def test_parse_error_exit_2(self, capsys):
        assert main(["reduce", "-a", "x,y", "z"]) == 2

    def test_non_ascii_exponent_exit_2(self, capsys):
        assert main(["reduce", "-a", "x", "x^\u0663"]) == 2
        assert capsys.readouterr().err == (
            "error: malformed token: 'x^\u0663'\n")

    def test_long_exponent_exit_2(self, capsys):
        assert main(["reduce", "-a", "x", "x^" + "9" * 5000]) == 2
        assert capsys.readouterr().err == (
            "error: token x^... has a 5000-digit exponent, more than the "
            "67108864 letters allowed\n")

    def test_too_many_letters_exit_2(self, capsys):
        assert main(["reduce", "-a", "x", "x x^1000000000"]) == 2
        assert capsys.readouterr().err == (
            "error: word has 1000000001 letters, more than the 67108864 allowed\n")


class TestOmega:
    def test_omega0(self, capsys):
        assert run(capsys, "omega", "0") == (0, "x y x^-1 y^-1")

    def test_omega1_is_forced(self, capsys):
        code, out = run(capsys, "omega", "1")
        assert code == 0
        from fglab.words import XY, parse_word, omega
        assert parse_word(out, XY) == omega(1)

    def test_too_long_is_usage_error(self, capsys):
        assert main(["omega", "30"]) == 2
        assert capsys.readouterr().err.startswith("error: omega_30 has 2^32 + 2")

    def test_negative_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["omega", "--", "-1"])
        assert err.value.code == 2


class TestSubgroup:
    def test_index(self, capsys):
        assert run(capsys, "subgroup", "index", fixture("paper_index3.json")) \
            == (0, "3")

    def test_normal(self, capsys):
        assert run(capsys, "subgroup", "normal", fixture("paper_index3.json")) \
            == (0, "false")

    def test_rewrite_paper_identity(self, capsys):
        code, out = run(capsys, "subgroup", "rewrite",
                        fixture("kernel_d3.json"), "x y x^-1 y^-1")
        assert (code, out) == (0, "b2 b1^-1")

    def test_contains(self, capsys):
        assert run(capsys, "subgroup", "contains",
                   fixture("paper_index3.json"), "b")[1] == "false"
        assert run(capsys, "subgroup", "contains",
                   fixture("paper_index3.json"), "a")[1] == "true"

    def test_basis(self, capsys):
        code, out = run(capsys, "subgroup", "basis", fixture("kernel_d2.json"))
        assert code == 0
        assert out.splitlines() == ["a = x^2", "b1 = y", "b2 = x y x^-1"]

    def test_rewrite_outside_subgroup_exit_3(self, capsys):
        assert main(["subgroup", "rewrite", fixture("kernel_d3.json"), "x"]) == 3

    def test_rewrite_off_an_infinite_index_graph_exit_3(self, capsys, tmp_path):
        # <a^2> has no b-edge, so the path of a b a^-1 breaks after a
        path = tmp_path / "sub.json"
        path.write_text('{"alphabet": ["a", "b"], "generators": ["a^2"]}')
        assert main(["subgroup", "rewrite", str(path), "a b a^-1"]) == 3
        assert capsys.readouterr().err == (
            "error: word 'a b a^-1' does not return to base\n")

    @pytest.mark.parametrize("query", ["contains", "rewrite"])
    def test_word_query_without_a_word_exit_2(self, capsys, query):
        assert main(["subgroup", query, fixture("kernel_d3.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s needs a word argument\n" % query

    # a word that does not parse, one that does, and the empty word
    @pytest.mark.parametrize("word", ["zz^", "a", ""])
    @pytest.mark.parametrize("query", ["index", "normal", "basis"])
    def test_query_taking_no_word_refuses_one_exit_2(self, capsys, query, word):
        assert main(["subgroup", query, fixture("paper_index3.json"), word]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s takes no word argument\n" % query

    def test_missing_file_exit_2(self, capsys):
        assert main(["subgroup", "index", "no_such_file.json"]) == 2

    def test_kernel_without_map_names_key_and_file(self, capsys, tmp_path):
        path = tmp_path / "kernel.json"
        path.write_text('{"alphabet": ["x", "y"], "kernel": {"d": 3}}')
        assert main(["subgroup", "index", str(path)]) == 2
        err = capsys.readouterr().err
        assert "'f'" in err and str(path) in err

    def test_kernel_map_off_the_alphabet_names_key_and_file(
            self, capsys, tmp_path):
        path = tmp_path / "kernel.json"
        path.write_text('{"alphabet": ["x", "y"], '
                        '"kernel": {"d": 5, "f": {"x": 1, "y": 0, "z": 3}}}')
        assert main(["subgroup", "index", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s: " % path) and "'z'" in err

    @pytest.mark.parametrize("desc,field", [
        ('{"alphabet": ["x", "y"], "kernel": 5}', "kernel"),
        ('{"alphabet": ["x", "y"], "kernel": {"d": 3, "f": {"x": "1", "y": 0}}}',
         "kernel f"),
        ('{"alphabet": ["x", "y"], "kernel": {"d": "three", "f": {"x": 1, "y": 0}}}',
         "kernel d"),
        ('{"alphabet": ["x", "y"], "generators": "x y"}', "generators"),
        ('{"alphabet": "xy", "generators": ["x"]}', "alphabet"),
    ], ids=["kernel", "f", "d", "generators", "alphabet"])
    def test_mistyped_field_exit_2(self, capsys, tmp_path, desc, field):
        path = tmp_path / "sub.json"
        path.write_text(desc)
        assert main(["subgroup", "index", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s: %s " % (path, field))

    @pytest.mark.parametrize("content", [
        b'{"alphabet": ["x", "y"], generators: []}', b'\xff{}', b'["x", "y"]'],
        ids=["not-json", "not-utf8", "not-an-object"])
    def test_unreadable_file_exit_2(self, capsys, tmp_path, content):
        path = tmp_path / "sub.json"
        path.write_bytes(content)
        assert main(["subgroup", "index", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: %s: " % path)

    def test_deeply_nested_file_exit_2(self, capsys, tmp_path):
        # json.load raises RecursionError here, not ValueError
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["subgroup", "index", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: %s: JSON nested too deeply\n" % path)

    @pytest.mark.parametrize("desc", [
        '{"alphabet": ["x", "y"]}',
        '{"alphabet": ["x", "y"], "generators": ["x"], '
        '"kernel": {"d": 2, "f": {"x": 1, "y": 0}}}',
    ], ids=["neither", "both"])
    def test_not_exactly_one_of_generators_and_kernel_exit_2(
            self, capsys, tmp_path, desc):
        path = tmp_path / "sub.json"
        path.write_text(desc)
        assert main(["--json", "subgroup", "index", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: %s: " % path)
        assert "generators" in captured.err and "kernel" in captured.err

    def test_empty_generator_list_is_the_trivial_subgroup(self, capsys, tmp_path):
        path = tmp_path / "sub.json"
        path.write_text('{"alphabet": ["x", "y"], "generators": []}')
        assert run(capsys, "--json", "subgroup", "index", str(path)) \
            == (0, '{"index":"infinite"}')

    def test_file_letter_bound_exit_2(self, capsys, tmp_path):
        # an 85-byte file whose texts each pass the bound but spell
        # 1.8 * 10^8 letters together: refused before any is spelled
        path = tmp_path / "sub.json"
        path.write_text('{"alphabet": ["x","y"], "generators": '
                        '["x^60000000", "y^60000000", "x y^60000000 x"]}')
        assert path.stat().st_size == 85
        start = time.perf_counter()
        assert main(["--json", "subgroup", "index", str(path)]) == 2
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr().err == (
            "error: %s: the words have 180000002 letters, more than the "
            "67108864 allowed\n" % path)

    def test_kernel_d_over_the_cap_exit_2(self, capsys, tmp_path, monkeypatch):
        from fglab import stallings

        def no_graph(*args):
            raise AssertionError("the graph was built")

        monkeypatch.setattr(stallings, "kernel_graph", no_graph)
        path = tmp_path / "kernel.json"
        path.write_text(json.dumps({"alphabet": ["x", "y"], "kernel": {
            "d": stallings.MAX_KERNEL_D + 1, "f": {"x": 1, "y": 0}}}))
        assert main(["subgroup", "index", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s: kernel d must be at most %d, got %d"
                              % (path, stallings.MAX_KERNEL_D,
                                 stallings.MAX_KERNEL_D + 1))

    def test_rewrite_at_the_kernel_cap(self, capsys, tmp_path):
        from fglab import stallings
        d = stallings.MAX_KERNEL_D
        path = tmp_path / "kernel.json"
        path.write_text(json.dumps({"alphabet": ["x", "y"], "kernel": {
            "d": d, "f": {"x": 1, "y": 0}}}))
        assert run(capsys, "subgroup", "rewrite", str(path),
                   "x^%d" % d) == (0, "a")

    def test_normal_at_the_kernel_cap(self, capsys, tmp_path):
        from fglab import stallings
        path = tmp_path / "kernel.json"
        path.write_text(json.dumps({"alphabet": ["x", "y"], "kernel": {
            "d": stallings.MAX_KERNEL_D, "f": {"x": 1, "y": 3}}}))
        assert run(capsys, "subgroup", "normal", str(path)) == (0, "true")

    @pytest.mark.parametrize("gens, normal", [(["a"], "false"), ([], "true")])
    def test_normal_on_infinite_index(self, capsys, tmp_path, gens, normal):
        path = tmp_path / "sub.json"
        path.write_text(json.dumps({"alphabet": ["a", "b"], "generators": gens}))
        assert run(capsys, "subgroup", "normal", str(path)) == (0, normal)


class TestWeight:
    def test_commutator(self, capsys):
        assert run(capsys, "weight", "x y x^-1 y^-1") == (0, "2")

    def test_identity(self, capsys):
        assert run(capsys, "weight", "") == (0, "identity")

    def test_omega4_with_cap(self, capsys):
        from fglab.words import omega
        assert run(capsys, "weight", "--cap", "8", str(omega(4))) == (0, "6")

    def test_cap_exceeded(self, capsys):
        from fglab.words import omega
        assert run(capsys, "weight", "--cap", "3", str(omega(4))) == (0, ">=4")

    def test_cap_exceeded_json_keeps_bound(self, capsys):
        from fglab.words import omega
        code, out = run(capsys, "--json", "weight", "--cap", "3", str(omega(4)))
        assert code == 0
        assert json.loads(out) == {"cap": 3, "weight": {"at_least": 4}}

    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("FGLAB_MAGNUS_CAP", "2")
        from fglab.words import omega
        assert run(capsys, "weight", str(omega(2))) == (0, ">=3")

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "",
                                       str(magnus.MAX_CAP + 1), "100000",
                                       "\u0663", " \u0663", "1_0", " 3"])
    def test_bad_env_cap_exit_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("FGLAB_MAGNUS_CAP", value)
        assert main(["weight", "x y x^-1 y^-1"]) == 2
        assert "FGLAB_MAGNUS_CAP" in capsys.readouterr().err

    def test_cap_over_the_bound_exit_2(self, capsys):
        cap = str(magnus.MAX_CAP)
        assert run(capsys, "weight", "--cap", cap, "x^-1") == (0, "1")
        with pytest.raises(SystemExit) as err:
            main(["weight", "--cap", str(magnus.MAX_CAP + 1), "x^-1"])
        assert err.value.code == 2
        assert "--cap" in capsys.readouterr().err

    def test_env_cap_read_only_by_weight(self, capsys, monkeypatch):
        monkeypatch.setenv("FGLAB_MAGNUS_CAP", "abc")
        assert run(capsys, "omega", "0") == (0, "x y x^-1 y^-1")
        assert run(capsys, "weight", "--cap", "4", "x y x^-1 y^-1") == (0, "2")


class TestWitness:
    def test_d3_m2(self, capsys):
        code, out = run(capsys, "--json", "witness", "--d", "3", "--m", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["p_vector"] == [-1, 1, 0]
        assert payload["lcs_weight"] == {"cap": 3, "value": 2}

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "cert.json"
        code, _ = run(capsys, "witness", "--d", "2", "--m", "4",
                      "--out", str(target))
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["p_vector"] == [-4, 4]

    def test_out_file_bytes(self, capsys, tmp_path):
        # json.dumps(payload, sort_keys=True, indent=2) + "\n", with or
        # without --json; --json still prints the compact form on stdout
        frozen = """{
  "a_sum": 0,
  "basis": [
    "x^2",
    "y",
    "x y x^-1"
  ],
  "d": 2,
  "lcs_weight": {
    "cap": 3,
    "value": 2
  },
  "m": 2,
  "p_vector": [
    -1,
    1
  ],
  "transversal": [
    "",
    "x"
  ],
  "verdicts": {
    "in_Fm": true,
    "in_G2": false
  },
  "witness": "x y x^-1 y^-1"
}
"""
        human, compact = tmp_path / "human.json", tmp_path / "compact.json"
        args = ("witness", "--d", "2", "--m", "2", "--out")
        assert run(capsys, *args, str(human)) == (0, "wrote %s" % human)
        assert run(capsys, "--json", *args, str(compact)) == (
            0, json.dumps(json.loads(frozen), separators=(",", ":")))
        assert human.read_bytes() == compact.read_bytes() == frozen.encode()

    def test_g2_recheck_catches_a_wrong_p_vector(self, capsys, monkeypatch):
        from fglab import engine
        build = engine.WitnessCertificate

        def flipped(**fields):
            cert = build(**fields)
            return cert._replace(p_vec=tuple(-p for p in cert.p_vec))
        monkeypatch.setattr(engine, "WitnessCertificate", flipped)
        assert main(["witness", "--d", "3", "--m", "3"]) == 1
        assert "G_2 re-check" in capsys.readouterr().err

    def test_fm_recheck_catches_a_wrong_weight(self, capsys, monkeypatch):
        from fglab import engine
        build = engine.WitnessCertificate

        def raised(**fields):
            cert = build(**fields)
            return cert._replace(weight=cert.weight + 1)
        monkeypatch.setattr(engine, "WitnessCertificate", raised)
        assert main(["witness", "--d", "3", "--m", "4"]) == 1
        assert "F_m re-check failed: the weight is 4, the certificate " \
            "prints 5" in capsys.readouterr().err

    def test_m_over_the_word_bound_exit_2(self, capsys):
        assert main(["witness", "--d", "3", "--m", "30"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: m must be at most %d, got 30" % MAX_WITNESS_M)

    def test_m_at_the_word_bound_exit_0(self, capsys):
        m = MAX_WITNESS_M
        code, out = run(capsys, "--json", "witness", "--d", "3", "--m", str(m))
        assert code == 0
        payload = json.loads(out)
        assert payload["lcs_weight"] == {"cap": m + 1, "value": m}
        assert payload["verdicts"] == {"in_Fm": True, "in_G2": False}

    def test_m_one_over_the_word_bound_exit_2(self, capsys, monkeypatch):
        from fglab import engine

        def no_certificate(*args):
            raise AssertionError("the certificate was built")

        monkeypatch.setattr(engine, "witness", no_certificate)
        m = MAX_WITNESS_M + 1
        assert main(["witness", "--d", "3", "--m", str(m)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: m must be at most %d, got %d" % (m - 1, m))

    def test_d_over_the_kernel_cap_exit_2(self, capsys, monkeypatch):
        from fglab import stallings

        def no_graph(*args):
            raise AssertionError("the graph was built")

        monkeypatch.setattr(stallings, "kernel_graph", no_graph)
        d = stallings.MAX_KERNEL_D + 1
        assert main(["witness", "--d", str(d), "--m", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: d must be at most %d, got %d\n" % (d - 1, d))

    def test_m1_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["witness", "--d", "3", "--m", "1"])
        assert err.value.code == 2


class TestVerify:
    def test_small_battery(self, capsys):
        code, out = run(capsys, "verify", "--d-max", "4", "--n-max", "10")
        assert code == 0 and "all checks passed" in out

    def test_json_battery(self, capsys):
        code, out = run(capsys, "--json", "verify", "--d-max", "3",
                        "--n-max", "10")
        payload = json.loads(out)
        assert code == 0 and payload["ok"]
        assert [row["d"] for row in payload["results"]] == [2, 3]

    def test_json_reports_coverage(self, capsys):
        code, out = run(capsys, "--json", "verify", "--d-max", "3",
                        "--n-max", "50")
        payload = json.loads(out)
        assert code == 0 and payload["ok"]
        assert payload["n_max"] == 50 and payload["recurrence_n_max"] == 8
        for row in payload["results"]:
            assert set(row) == {"d", "recurrence", "char_poly", "eigen",
                                "nonvanishing"}
            assert all(row[k] is True for k in row if k != "d")

    def test_summary_states_bounds(self, capsys):
        code, out = run(capsys, "verify", "--d-max", "3", "--n-max", "5")
        assert code == 0
        assert out.splitlines()[-1] == (
            "all checks passed for 2 <= d <= 3: recurrence for n <= 5; "
            "char_poly, eigen and nonvanishing for all n")

    @pytest.mark.parametrize("mode", ["raises", "returns_false"])
    @pytest.mark.parametrize("position, check, function, message", [
        (0, "recurrence", "verify_recurrence", "recurrence mismatch"),
        (1, "char_poly", "char_poly_check", "char_poly mismatch"),
        (2, "eigen", "eigen_check", "eigen identities failed"),
        (3, "nonvanishing", "nonvanishing_check",
         "the all-n nonvanishing argument failed"),
    ], ids=["recurrence", "char_poly", "eigen", "nonvanishing"])
    def test_a_failing_check_ends_its_row(self, capsys, monkeypatch, position,
                                          check, function, message, mode):
        from fglab import engine

        real = getattr(engine, function)

        def failing_at_3(*args):
            if getattr(args[0], "d", args[0]) != 3:
                return real(*args)
            if mode == "raises":
                raise engine.VerificationError("planted %s failure" % check)
            return False

        monkeypatch.setattr(engine, function, failing_at_3)
        reason = "planted %s failure" % check if mode == "raises" else message
        code, out = run(capsys, "verify", "--d-max", "4", "--n-max", "5")
        assert code == 1
        rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[1:4]}
        assert rows == {
            "2": ["pass"] * 4,
            "3": ["pass"] * position + ["FAIL"] + ["skip"] * (3 - position),
            "4": ["pass"] * 4}
        assert out.splitlines()[-1] == "FAILED at d=3: %s" % reason
        code, out = run(capsys, "--json", "verify", "--d-max", "4", "--n-max", "5")
        names = ["recurrence", "char_poly", "eigen", "nonvanishing"]
        payload = json.loads(out)
        assert code == 1 and payload["ok"] is False
        assert payload["results"][1] == {"d": 3, **dict.fromkeys(names[:position], True),
                                         check: False}
        assert payload["results"][2] == {"d": 4, **dict.fromkeys(names, True)}

    def test_d_max_1_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--d-max", "1"])
        assert err.value.code == 2

    def test_d_max_over_the_bound_exit_2(self, capsys, monkeypatch):
        from fglab import engine

        def no_check(*args):
            raise AssertionError("a check ran")

        for name in ("verify_recurrence", "char_poly_check", "eigen_check",
                     "nonvanishing_check"):
            monkeypatch.setattr(engine, name, no_check)
        args = build_parser().parse_args(
            ["verify", "--d-max", str(MAX_VERIFY_D)])
        assert args.d_max == MAX_VERIFY_D
        with pytest.raises(SystemExit) as err:
            main(["verify", "--d-max", str(MAX_VERIFY_D + 1)])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(
            "argument --d-max: must be <= %d\n" % MAX_VERIFY_D)


class TestIntegerOptions:
    @pytest.mark.parametrize("argv, option, value", [
        (["omega", "n"], "n", "n"),
        (["weight", "--cap", "abc", "x"], "--cap", "abc"),
        (["witness", "--d", "two", "--m", "2"], "--d", "two"),
        (["witness", "--d", "2", "--m", "2.5"], "--m", "2.5"),
        (["verify", "--d-max", "1x"], "--d-max", "1x"),
        (["verify", "--n-max", ""], "--n-max", ""),
        # int() reads these too; integer options take ASCII digits only
        (["omega", "\u0663"], "n", "\u0663"),
        (["verify", "--n-max", "\u0663"], "--n-max", "\u0663"),
        (["witness", "--d", "\u0663", "--m", "2"], "--d", "\u0663"),
        (["witness", "--d", "3", "--m", "1_0"], "--m", "1_0"),
        (["weight", "--cap", " 3", "x"], "--cap", " 3"),
        (["verify", "--d-max", "+3"], "--d-max", "+3"),
    ])
    def test_non_integer_is_an_invalid_int(self, capsys, argv, option, value):
        # argparse's own wording for type=int, not the converter's name
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument %s: invalid int value: %r\n" % (option, value))


class TestJsonStability:
    def test_byte_stable_output(self, capsys):
        args = ("--json", "subgroup", "basis", fixture("kernel_d3.json"))
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first == second

    def test_words_round_trip(self, capsys):
        from fglab.words import XY, parse_word
        for n in ("0", "2", "5"):
            _, out = run(capsys, "omega", n)
            assert str(parse_word(out, XY)) == out


class TestOneParser:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Clear main's parser cache and count the parsers built after that."""
        monkeypatch.setattr(cli, "_parser", None)
        build, built = cli.build_parser, []

        def counted():
            built.append(1)
            return build()
        monkeypatch.setattr(cli, "build_parser", counted)
        return built

    def test_one_parser_and_no_state_between_calls(self, capsys, builds):
        good = ("witness", "--d", "3", "--m", "3")
        first = run(capsys, *good)
        assert first[0] == 0
        with pytest.raises(SystemExit) as err:   # argparse rejects d = 1
            main(["--json", "witness", "--d", "1", "--m", "2"])
        assert err.value.code == 2
        assert main(["--json", "reduce", "-a", "x,y", "z"]) == 2
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        capsys.readouterr()
        assert run(capsys, *good) == first
        assert builds == [1]

    def test_commands_are_looked_up_when_they_run(self, capsys, monkeypatch):
        assert run(capsys, "omega", "0") == (0, "x y x^-1 y^-1")

        def patched(args):
            print("patched omega %d" % args.n)
            return 0
        monkeypatch.setattr(cli, "cmd_omega", patched)
        assert run(capsys, "omega", "0") == (0, "patched omega 0")


class TestStartup:
    def test_import_loads_no_dataclasses_or_inspect(self):
        # each CLI run is a fresh interpreter; dataclasses and the inspect,
        # ast and dis modules it pulls in took 12-14 ms of a 37 ms import
        # on 2 vCPUs
        code = ('import sys, fglab.cli; '
                'print(sorted({"dataclasses", "inspect"} & set(sys.modules)))')
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": SRC}).stdout
        assert out == "[]\n"

    def test_import_builds_no_parser(self):
        # main builds the one parser on its first call, never at import
        code = ("import argparse\n"
                "built, init = [], argparse.ArgumentParser.__init__\n"
                "def counted(self, *args, **kwargs):\n"
                "    built.append(1)\n"
                "    init(self, *args, **kwargs)\n"
                "argparse.ArgumentParser.__init__ = counted\n"
                "from fglab import cli\n"
                "print(len(built), cli._parser is None)\n"
                "cli.main(['omega', '0'])\n"
                "first = len(built)\n"
                "cli.main(['omega', '1'])\n"
                "print(first > 0, len(built) == first)\n")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": SRC}).stdout
        assert out.splitlines()[0] == "0 True"
        assert out.splitlines()[-1] == "True True"

    @pytest.mark.parametrize("argv, absent", [
        (["subgroup", "index", fixture("paper_index3.json")],
         {"fglab.engine", "fglab.magnus"}),
        (["omega", "3"], {"fglab.engine", "fglab.magnus"}),
        (["verify", "--d-max", "2", "--n-max", "1"], {"fglab.magnus"}),
    ])
    def test_command_loads_only_its_layers(self, argv, absent):
        # each CLI run is a fresh interpreter, which compiles every layer it
        # imports; the subgroup queries and omega run on words and stallings,
        # and verify also on engine
        code = ("import sys\n"
                "from fglab import cli\n"
                "code = cli.main(sys.argv[1:])\n"
                "print(code, *sorted(m for m in sys.modules if m.startswith('fglab')))\n")
        out = subprocess.run([sys.executable, "-c", code, *argv], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": SRC}).stdout
        code, *loaded = out.splitlines()[-1].split()
        assert code == "0"
        assert {"fglab.cli", "fglab.stallings", "fglab.words"} <= set(loaded)
        assert not absent & set(loaded)

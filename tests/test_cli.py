"""Black-box exercises of the command-line surface.

Commands run in-process through main(argv). The subprocess tests at
the end check the entry points: `python -m raagcrypt.cli`,
`python -m raagcrypt`, and the console script declared in
pyproject.toml, run through the body of the wrapper that an install
writes. A last test runs the `raagcrypt` executable itself and is
skipped where the package is not installed. The exit-code discipline
under test: 0 success/accept, 1 semantic negative, 2 usage or format
error.
"""

import collections
import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import raagcrypt
from raagcrypt import auth, bench
from raagcrypt.cli import ROUND_FILES, TRANSCRIPT_FILE, main
from raagcrypt.graphs import GraphError, parse_graph
from raagcrypt.raag import sample_trivial_word

EDGE_GRAPH = "vertices a b\nedge a b\n"
FREE_GRAPH = "vertices a b\n"
COMMUTATOR = "a b a^-1 b^-1\n"


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:  # argparse usage errors
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def edge_graph(tmp_path):
    p = tmp_path / "edge.txt"
    p.write_text(EDGE_GRAPH)
    return str(p)


@pytest.fixture
def free_graph(tmp_path):
    p = tmp_path / "free.txt"
    p.write_text(FREE_GRAPH)
    return str(p)


class TestGraphCommands:
    def test_gen_is_byte_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run(capsys, "graph", "gen", "--vertices", "7", "--edge-prob", "0.4",
                   "--seed", "5", "--out", str(a))[0] == 0
        assert run(capsys, "graph", "gen", "--vertices", "7", "--edge-prob", "0.4",
                   "--seed", "5", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gen_requires_seed(self, capsys):
        code, _, _ = run(capsys, "graph", "gen", "--vertices", "3", "--edge-prob", "0.5")
        assert code == 2

    def test_validate_ok(self, capsys, edge_graph):
        code, out, _ = run(capsys, "graph", "validate", edge_graph)
        assert code == 0 and out.strip() == "ok"

    def test_validate_reports_violations(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("vertices a\nedge a a\n")
        code, out, _ = run(capsys, "graph", "validate", str(p))
        assert code == 1 and "loop" in out

    def test_validate_unparsable(self, capsys, tmp_path):
        p = tmp_path / "junk.txt"
        p.write_text("what is this\n")
        assert run(capsys, "graph", "validate", str(p))[0] == 2

    def test_validate_agrees_with_parse_graph(self, capsys, tmp_path):
        texts = ["vertices a b\nvertices c\nedge a c\n", "vertices a b\nedge a\n",
                 "edge a b\n", "vertices a\nedge a a\n", "vertices a a\n",
                 "# c\nvertices a b c\n\nedge a b\nedge b c\n"]
        for k, text in enumerate(texts):
            p = tmp_path / f"g{k}.txt"
            p.write_text(text)
            code, out, err = run(capsys, "graph", "validate", str(p))
            try:
                parse_graph(text)
            except GraphError as e:
                assert code != 0 and str(e) in out + err, text
            else:
                assert code == 0 and out.strip() == "ok", text
        code, _, err = run(capsys, "graph", "validate", str(tmp_path / "g0.txt"))
        assert code == 2 and "repeated 'vertices' line" in err

    def test_missing_file(self, capsys):
        assert run(capsys, "graph", "validate", "/nonexistent/g.txt")[0] == 2


class TestWordCommands:
    def test_check_trivial(self, capsys, edge_graph, tmp_path):
        w = tmp_path / "w.txt"
        w.write_text(COMMUTATOR)
        code, out, _ = run(capsys, "word", "check", edge_graph, str(w))
        assert code == 0 and out.strip() == "trivial"

    def test_check_nontrivial(self, capsys, free_graph, tmp_path):
        w = tmp_path / "w.txt"
        w.write_text(COMMUTATOR)
        code, out, _ = run(capsys, "word", "check", free_graph, str(w))
        assert code == 1 and out.strip() == "nontrivial"

    def test_check_malformed_token(self, capsys, edge_graph, tmp_path):
        w = tmp_path / "w.txt"
        w.write_text("a^2\n")
        assert run(capsys, "word", "check", edge_graph, str(w))[0] == 2

    def test_sample_feeds_check(self, capsys, edge_graph, tmp_path):
        w = tmp_path / "w.txt"
        assert run(capsys, "word", "sample", "--graph", edge_graph, "--kind", "trivial",
                   "--length", "12", "--seed", "4", "--out", str(w))[0] == 0
        assert run(capsys, "word", "check", edge_graph, str(w))[0] == 0
        assert run(capsys, "word", "sample", "--graph", edge_graph, "--kind", "nontrivial",
                   "--length", "12", "--seed", "4", "--out", str(w))[0] == 0
        assert run(capsys, "word", "check", edge_graph, str(w))[0] == 1

    def test_sample_odd_trivial_length(self, capsys, edge_graph):
        assert run(capsys, "word", "sample", "--graph", edge_graph, "--kind", "trivial",
                   "--length", "7", "--seed", "4")[0] == 2


class TestSharingCommands:
    def test_nn_pipeline(self, capsys, tmp_path):
        d = tmp_path / "nn"
        assert run(capsys, "deal-nn", "--secret", "10110", "--participants", "3",
                   "--generators", "4", "--seed", "9", "--out-dir", str(d))[0] == 0
        decoded = []
        for j in (1, 2, 3):
            out = d / f"dec{j}.txt"
            code, _, _ = run(capsys, "decode-share", "--share", str(d / f"share_p{j}.txt"),
                             "--graph", str(d / f"secret_graph_p{j}.txt"), "--out", str(out))
            assert code == 0
            decoded.append(str(out))
        code, out, _ = run(capsys, "reconstruct-nn", *decoded, "--expect", "10110")
        assert code == 0 and out.strip() == "10110"
        code, _, err = run(capsys, "reconstruct-nn", *decoded, "--expect", "00000")
        assert code == 1 and "mismatch" in err

    def test_reconstruct_nn_refuses_a_repeated_participant(self, capsys, tmp_path):
        # a column given twice cancels out of the XOR: d1 d1 d3 read 01110 for 10110
        d = tmp_path / "nn"
        assert run(capsys, "deal-nn", "--secret", "10110", "--participants", "3",
                   "--generators", "4", "--seed", "9", "--out-dir", str(d))[0] == 0
        for j in (1, 3):
            assert run(capsys, "decode-share", "--share", str(d / f"share_p{j}.txt"),
                       "--graph", str(d / f"secret_graph_p{j}.txt"),
                       "--out", str(d / f"d{j}"))[0] == 0
        d1, d3, copy = d / "d1", d / "d3", d / "copy"
        copy.write_bytes(d1.read_bytes())
        for files, second in [((d1, d1, d3), d1), ((d1, d3, copy), copy)]:
            code, out, err = run(capsys, "reconstruct-nn", *map(str, files))
            assert code == 2 and out == ""
            assert f"{d1} and {second} both hold participant 1" in err

    def test_nn_deal_is_byte_deterministic(self, capsys, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            assert run(capsys, "deal-nn", "--secret", "101", "--participants", "2",
                       "--generators", "3", "--seed", "77", "--out-dir", str(d))[0] == 0
        for name in ("share_p1.txt", "share_p2.txt", "secret_graph_p1.txt"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_nn_pads_are_independent_of_the_holders_graph(self, capsys, tmp_path):
        # one --seed once fed both the graph stream and the deal stream, so pad bit
        # 2j of participant 1 was the complement of edge bit j of their own graph
        agree = 0
        for seed in range(1, 21):
            d = tmp_path / str(seed)
            assert run(capsys, "deal-nn", "--secret", "000000000000", "--participants", "2",
                       "--generators", "5", "--seed", str(seed), "--out-dir", str(d))[0] == 0
            code, out, _ = run(capsys, "decode-share", "--share", str(d / "share_p1.txt"),
                               "--graph", str(d / "secret_graph_p1.txt"))
            assert code == 0
            pad = dict(line.split() for line in out.splitlines())["bits"]
            graph = parse_graph((d / "secret_graph_p1.txt").read_text())
            vs = graph.vertices
            edges = [graph.has_edge(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]]
            agree += sum(int(pad[2 * j]) == 1 - edges[j] for j in range(len(pad) // 2))
        assert agree < 100  # 120 of 120 when the streams coincide

    @pytest.mark.parametrize("argv, message", [
        (["deal-nn", "--secret", "101", "--participants", "1", "--generators", "3"],
         "need at least 2 participants"),
        (["deal-tn", "--secret", "5", "--prime", "11", "--threshold", "2",
          "--participants", "3", "--generators", "0"], "need at least one public generator"),
    ])
    def test_deal_input_errors_exit_2(self, capsys, tmp_path, argv, message):
        code, out, err = run(capsys, *argv, "--seed", "1", "--out-dir", str(tmp_path / "x"))
        assert code == 2 and out == "" and message in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, message", [
        (["deal-nn", "--secret", "101", "--participants", "0", "--generators", "3"],
         "need at least 2 participants"),
        (["deal-nn", "--secret", "101", "--participants", "1", "--generators", "3"],
         "need at least 2 participants"),
        (["deal-tn", "--secret", "5", "--prime", "11", "--threshold", "2",
          "--participants", "1", "--generators", "3"], "threshold must not exceed n"),
        (["deal-tn", "--secret", "5", "--prime", "11", "--threshold", "2",
          "--participants", "3", "--generators", "0"], "need at least one public generator"),
    ])
    def test_dealer_sizes_exit_2_with_the_dealer_message(self, capsys, tmp_path, argv, message):
        code, out, err = run(capsys, *argv, "--seed", "1", "--out-dir", str(tmp_path / "x"))
        assert code == 2 and out == "" and err == f"error: {message}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("length", ["3", "0"])
    @pytest.mark.parametrize("argv", [
        ["deal-nn", "--secret", "101", "--participants", "3", "--generators", "3"],
        ["deal-tn", "--secret", "5", "--prime", "11", "--threshold", "2",
         "--participants", "3", "--generators", "3"],
    ])
    def test_word_length_not_positive_even_exits_2(self, capsys, tmp_path, argv, length):
        code, out, err = run(capsys, *argv, "--word-length", length, "--seed", "1",
                             "--out-dir", str(tmp_path / "x"))
        assert code == 2 and out == ""
        assert err == "error: word length must be a positive even integer\n"
        assert not (tmp_path / "x").exists()

    def test_tn_pipeline_with_threshold_subset(self, capsys, tmp_path):
        d = tmp_path / "tn"
        assert run(capsys, "deal-tn", "--secret", "5", "--prime", "11", "--threshold", "2",
                   "--participants", "4", "--generators", "4", "--seed", "12",
                   "--out-dir", str(d))[0] == 0
        decoded = []
        for j in (2, 4):  # any t-subset suffices
            out = d / f"dec{j}.txt"
            assert run(capsys, "decode-share", "--share", str(d / f"share_p{j}.txt"),
                       "--graph", str(d / f"secret_graph_p{j}.txt"), "--out", str(out))[0] == 0
            decoded.append(str(out))
        code, out, _ = run(capsys, "reconstruct-tn", *decoded, "--expect", "5")
        assert code == 0 and out.strip() == "5"

    def test_tn_decoded_file_without_participant(self, capsys, tmp_path):
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        good.write_text("scheme tn\nparticipant 1\nbits 0011\np 17\nt 2\n")
        bad.write_text("scheme tn\nbits 0101\np 17\nt 2\n")
        code, _, err = run(capsys, "reconstruct-tn", str(good), str(bad))
        assert code == 2 and "missing 'participant' line" in err

    def test_decoded_file_with_repeated_key(self, capsys, tmp_path):
        repeated, other = tmp_path / "repeated.txt", tmp_path / "other.txt"
        repeated.write_text("scheme nn\nbits 0101\nbits 1111\n")
        other.write_text("scheme nn\nbits 0000\n")
        code, out, err = run(capsys, "reconstruct-nn", str(repeated), str(other))
        assert code == 2 and out == "" and "repeated 'bits' line" in err

    @pytest.mark.parametrize("second, message", [
        ("scheme nn\nbits 0101\ncolour red\n", "unknown 'colour' line"),
        ("scheme nn\nparticipant banana\nbits 0101\n", "expected 'participant <positive int>'"),
        ("scheme nn\nparticipant 0\nbits 0101\n", "expected 'participant <positive int>'"),
        ("scheme nn\nbits 0101\np 11\n", "unknown 'p' line"),
    ])
    def test_reconstruct_nn_checks_decoded_keys(self, capsys, tmp_path, second, message):
        first, bad = tmp_path / "first.txt", tmp_path / "second.txt"
        first.write_text("scheme nn\nparticipant 1\nbits 0011\n")
        bad.write_text(second)
        code, out, err = run(capsys, "reconstruct-nn", str(first), str(bad))
        assert code == 2 and out == "" and f"{bad}: {message}" in err

    @pytest.mark.parametrize("header, words", [("participant 1\nk 0\n", ""),
                                               ("participant 1\nk -1\n", ""),
                                               ("participant -3\nk 1\n", "a\n"),
                                               ("participant 0\nk 1\n", "a\n"),
                                               ("participant 1\nkey 1\n", "a\n")])
    def test_decode_rejects_share_header_below_one(self, capsys, tmp_path, edge_graph,
                                                   header, words):
        share = tmp_path / "share.txt"
        share.write_text("scheme nn\n" + header + words)
        code, out, err = run(capsys, "decode-share", "--share", str(share),
                             "--graph", edge_graph)
        assert code == 2 and out == "" and "<positive int>" in err

    @pytest.mark.parametrize("decoded, message", [
        (["scheme tn\nparticipant 1\nbits 0001\np 12\nt 2\n",
          "scheme tn\nparticipant 2\nbits 0010\np 12\nt 2\n"], "12 is not prime"),
        (["scheme tn\nparticipant 1\nbits 0101\np 11\nt 1\n"], "threshold must be at least 2"),
        (["scheme tn\nparticipant 1\nbits 1111\np 11\nt 2\n",
          "scheme tn\nparticipant 2\nbits 0011\np 11\nt 2\n"], "outside Z_11"),
        (["scheme tn\nparticipant 11\nbits 0001\np 11\nt 2\n",
          "scheme tn\nparticipant 2\nbits 0010\np 11\nt 2\n"], "evaluation index divisible by p"),
    ])
    def test_reconstruct_tn_applies_shamir_rules(self, capsys, tmp_path, decoded, message):
        paths = []
        for j, text in enumerate(decoded):
            paths.append(tmp_path / f"dec{j}.txt")
            paths[-1].write_text(text)
        code, out, err = run(capsys, "reconstruct-tn", *map(str, paths))
        assert code == 2 and out == "" and message in err

    @pytest.mark.parametrize("second, message", [
        ("scheme tn\nparticipant 2\nbits 0101\np 11\nt 2\nvalue 9\n",
         "'value 9' disagrees with 'bits 0101'"),
        ("scheme tn\nparticipant 2\nbits 0101\np 11\nt 2\nvalue five\n",
         "'value five' disagrees with 'bits 0101'"),
        ("scheme tn\nparticipant 2\nbits 0101\np x\nt 2\n", "expected 'p <positive int>'"),
        ("scheme tn\nparticipant x\nbits 0101\np 11\nt 2\n",
         "expected 'participant <positive int>'"),
        ("scheme tn\nparticipant 2\nbits 0101\np 11\nt +2\n", "expected 't <positive int>'"),
        ("scheme tn\nparticipant 2\nbits 01x1\np 11\nt 2\n", "bit column entries must be 0 or 1"),
        ("scheme tn\nparticipant 2\nbits 0101\np 13\nt 2\n", "inconsistent p or t across shares"),
        ("scheme tn\nparticipant 2\nbits 0101\np 11\nt 3\n", "inconsistent p or t across shares"),
        ("scheme tn\nparticipant 2\nbits 0101 1\np 11\nt 2\n", "line 3: expected '<key> <value>'"),
        ("scheme tn\nparticipant\nbits 0101\np 11\nt 2\n", "line 2: expected '<key> <value>'"),
        ("scheme nn\nbits 0101\n", "expected 'scheme tn', got 'scheme nn'"),
        ("scheme tn\nparticipant 2\nbits 0101\np 11\nt 2\ncolour red\n", "unknown 'colour' line"),
    ])
    def test_reconstruct_tn_checks_decoded_values(self, capsys, tmp_path, second, message):
        first, bad = tmp_path / "first.txt", tmp_path / "second.txt"
        first.write_text("scheme tn\nparticipant 1\nbits 0011\np 11\nt 2\nvalue 3\n")
        bad.write_text(second)
        code, out, err = run(capsys, "reconstruct-tn", str(first), str(bad))
        assert code == 2 and out == "" and f"{bad}: {message}" in err

    def test_reconstruct_tn_names_shares_off_the_polynomial(self, capsys, tmp_path):
        # with t = 3, shares 1-3 fix the polynomial; a wrong share 1 used to give a wrong
        # secret with exit 0, in either file order, and share 4 was never read
        d = tmp_path / "tn"
        assert run(capsys, "deal-tn", "--secret", "40", "--prime", "97", "--threshold", "3",
                   "--participants", "5", "--generators", "5", "--seed", "3",
                   "--out-dir", str(d))[0] == 0
        decoded = [d / f"d{j}.txt" for j in (1, 2, 3, 4)]
        for j, out in enumerate(decoded, 1):
            assert run(capsys, "decode-share", "--share", str(d / f"share_p{j}.txt"),
                       "--graph", str(d / f"secret_graph_p{j}.txt"), "--out", str(out))[0] == 0
        assert run(capsys, "reconstruct-tn", *map(str, decoded)) == (0, "40\n", "")
        text = decoded[0].read_text()
        assert "bits 1011000\n" in text and "value 88\n" in text
        decoded[0].write_text(text.replace("bits 1011000", "bits 1011011")
                              .replace("value 88", "value 91"))
        for files in (decoded, decoded[::-1]):
            code, out, err = run(capsys, "reconstruct-tn", *map(str, files), "--expect", "40")
            assert code == 1 and out == ""
            assert err == ("inconsistent shares: off the polynomial through participants "
                           "1, 2, 3: participant 4\n")
        assert run(capsys, "reconstruct-tn", *map(str, decoded[1:])) == (0, "40\n", "")

    def test_reconstruct_tn_checks_every_share_given(self, capsys, tmp_path):
        # f(X) = 3 + 2X over Z_11: a third share must be a valid point too
        paths = [tmp_path / f"dec{j}.txt" for j in (1, 2, 3)]
        paths[0].write_text("scheme tn\nparticipant 1\nbits 0101\np 11\nt 2\n")
        paths[1].write_text("scheme tn\nparticipant 2\nbits 0111\np 11\nt 2\n")
        for third, code, out, message in [("participant 3\nbits 1001", 0, "3\n", ""),
                                          ("participant 3\nbits 1111", 2, "", "outside Z_11"),
                                          ("participant 2\nbits 0111", 2, "", "duplicate")]:
            paths[2].write_text(f"scheme tn\n{third}\np 11\nt 2\n")
            result = run(capsys, "reconstruct-tn", *map(str, paths))
            assert result[:2] == (code, out) and message in result[2]

    def test_reconstruct_tn_expect_mismatch(self, capsys, tmp_path):
        paths = [tmp_path / "dec1.txt", tmp_path / "dec2.txt"]
        paths[0].write_text("scheme tn\nparticipant 1\nbits 0011\np 11\nt 2\n")  # f(1) = 3
        paths[1].write_text("scheme tn\nparticipant 2\nbits 0101\np 11\nt 2\n")  # f(2) = 5
        code, out, err = run(capsys, "reconstruct-tn", *map(str, paths), "--expect", "2")
        assert code == 1 and out == "1\n" and "mismatch: expected 2" in err

    def test_reconstruct_tn_at_a_large_prime(self, capsys, tmp_path):
        p, secret, slope = 2 ** 61 - 1, 2 ** 61 - 2, 2 ** 60  # f(X) = secret + slope * X
        paths = []
        for i in (1, 2):
            paths.append(tmp_path / f"dec{i}.txt")
            y = (secret + slope * i) % p
            paths[-1].write_text(f"scheme tn\nparticipant {i}\nbits {y:061b}\np {p}\nt 2\n")
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "reconstruct-tn", *map(str, paths), "--expect", str(secret))
        assert code == 0 and out.strip() == str(secret)
        assert time.perf_counter() - t0 < 5.0
        too_large = 2 ** 64 + 13
        for path in paths:
            path.write_text(path.read_text().replace(f"p {p}", f"p {too_large}"))
        code, out, err = run(capsys, "reconstruct-tn", *map(str, paths))
        assert code == 2 and out == "" and "need p < 2^64" in err
        code, _, err = run(capsys, "deal-tn", "--secret", "5", "--prime", str(too_large),
                           "--threshold", "2", "--participants", "3", "--generators", "3",
                           "--seed", "1", "--out-dir", str(tmp_path / "x"))
        assert code == 2 and "need p < 2^64" in err

    def test_tn_composite_prime_rejected(self, capsys, tmp_path):
        assert run(capsys, "deal-tn", "--secret", "5", "--prime", "10", "--threshold", "2",
                   "--participants", "3", "--generators", "3", "--seed", "1",
                   "--out-dir", str(tmp_path / "x"))[0] == 2

    def test_decode_rejects_mismatched_share_file(self, capsys, tmp_path, edge_graph):
        bad = tmp_path / "bad_share.txt"
        bad.write_text("scheme nn\nparticipant 1\nk 2\na\n")
        assert run(capsys, "decode-share", "--share", str(bad),
                   "--graph", edge_graph)[0] == 2


class TestAuthCommands:
    @pytest.mark.parametrize("scheme", ["hom", "sub"])
    def test_keygen_prove_verify(self, capsys, tmp_path, scheme):
        key_dir = tmp_path / "key"
        run_dir = tmp_path / "run"
        assert run(capsys, "auth", "keygen", "--scheme", scheme, "--seed", "5",
                   "--out-dir", str(key_dir))[0] == 0
        assert run(capsys, "auth", "prove", "--public", str(key_dir / "public_key.txt"),
                   "--private", str(key_dir / "private_key.txt"), "--rounds", "5",
                   "--seed", "11", "--challenge-seed", "22", "--out-dir", str(run_dir))[0] == 0
        code, out, _ = run(capsys, "auth", "verify", "--public", str(key_dir / "public_key.txt"),
                           "--dir", str(run_dir), "--rounds", "5")
        assert code == 0
        assert out.count("verdict accept") == 5 and "accept true" in out

    @pytest.mark.parametrize("scheme", ["hom", "sub"])
    def test_prove_builds_the_key_pair_once(self, capsys, tmp_path, monkeypatch, scheme):
        # the private key is checked by building its key pair; prove runs on that build
        key_dir = tmp_path / "key"
        assert run(capsys, "auth", "keygen", "--scheme", scheme, "--seed", "5",
                   "--out-dir", str(key_dir))[0] == 0
        cls, builds = auth.KEY_PAIRS[scheme], []
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *a: builds.append(init(self, *a)))
        assert run(capsys, "auth", "prove", "--public", str(key_dir / "public_key.txt"),
                   "--private", str(key_dir / "private_key.txt"), "--rounds", "2",
                   "--seed", "11", "--challenge-seed", "22",
                   "--out-dir", str(tmp_path / "run"))[0] == 0
        assert len(builds) == 1

    def test_tampered_response_rejected(self, capsys, tmp_path):
        key_dir, run_dir = tmp_path / "key", tmp_path / "run"
        run(capsys, "auth", "keygen", "--scheme", "sub", "--seed", "5",
            "--out-dir", str(key_dir))
        run(capsys, "auth", "prove", "--public", str(key_dir / "public_key.txt"),
            "--private", str(key_dir / "private_key.txt"), "--rounds", "3",
            "--seed", "11", "--challenge-seed", "22", "--out-dir", str(run_dir))
        response = run_dir / "round2_response.txt"
        lines = response.read_text().splitlines()
        first = lines[0].split()
        second = lines[1].split()
        first[2], second[2] = second[2], first[2]
        lines[0], lines[1] = " ".join(first), " ".join(second)
        response.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "auth", "verify", "--public", str(key_dir / "public_key.txt"),
                           "--dir", str(run_dir), "--rounds", "3")
        assert code == 1
        assert "round 2" in out and "accept false" in out

    def test_truncated_response_is_reject_not_crash(self, capsys, tmp_path):
        key_dir, run_dir = tmp_path / "key", tmp_path / "run"
        run(capsys, "auth", "keygen", "--scheme", "hom", "--seed", "5",
            "--out-dir", str(key_dir))
        run(capsys, "auth", "prove", "--public", str(key_dir / "public_key.txt"),
            "--private", str(key_dir / "private_key.txt"), "--rounds", "2",
            "--seed", "11", "--challenge-seed", "22", "--out-dir", str(run_dir))
        response = run_dir / "round1_response.txt"
        lines = response.read_text().splitlines()
        response.write_text("\n".join(lines[1:]) + "\n")
        code, out, _ = run(capsys, "auth", "verify", "--public", str(key_dir / "public_key.txt"),
                           "--dir", str(run_dir), "--rounds", "2")
        assert code == 1 and "round 1 challenge" in out

    def test_transcript_after_its_accept_line_exits_2(self, capsys, tmp_path):
        key_dir, run_dir = tmp_path / "key", tmp_path / "run"
        run(capsys, "auth", "keygen", "--scheme", "hom", "--seed", "5",
            "--out-dir", str(key_dir))
        run(capsys, "auth", "prove", "--public", str(key_dir / "public_key.txt"),
            "--private", str(key_dir / "private_key.txt"), "--rounds", "1",
            "--seed", "11", "--challenge-seed", "22", "--out-dir", str(run_dir))
        transcript = run_dir / "transcript.txt"
        first, accept = transcript.read_text().splitlines()
        # a second accept line used to override the first
        for tail, message in (("accept false\naccept true", "bad or repeated accept line"),
                              (f"{accept}\n{first}", "bad round line")):
            transcript.write_text(f"{first}\n{tail}\n")
            code, out, err = run(capsys, "auth", "verify", "--public",
                                 str(key_dir / "public_key.txt"), "--dir", str(run_dir),
                                 "--rounds", "1")
            assert code == 2 and out == "" and message in err

    def test_repeated_round_rejected(self, capsys, tmp_path):
        key_dir, run_dir = tmp_path / "key", tmp_path / "run"
        run(capsys, "auth", "keygen", "--scheme", "hom", "--seed", "5",
            "--out-dir", str(key_dir))
        run(capsys, "auth", "prove", "--public", str(key_dir / "public_key.txt"),
            "--private", str(key_dir / "private_key.txt"), "--rounds", "4",
            "--seed", "11", "--challenge-seed", "22", "--out-dir", str(run_dir))
        transcript = run_dir / "transcript.txt"
        lines = transcript.read_text().splitlines()
        transcript.write_text("\n".join([lines[0]] * 4 + [lines[-1]]) + "\n")
        code, out, err = run(capsys, "auth", "verify", "--public", str(key_dir / "public_key.txt"),
                             "--dir", str(run_dir), "--rounds", "4")
        assert code == 2 and "accept true" not in out and "expected round 2" in err

    @pytest.mark.parametrize("scheme", ["hom", "sub"])
    def test_malformed_commitment_is_a_rejected_round(self, capsys, tmp_path, scheme):
        key_dir, run_dir = tmp_path / "key", tmp_path / "run"
        public = str(key_dir / "public_key.txt")
        run(capsys, "auth", "keygen", "--scheme", scheme, "--seed", "5",
            "--out-dir", str(key_dir))
        run(capsys, "auth", "prove", "--public", public,
            "--private", str(key_dir / "private_key.txt"), "--rounds", "3",
            "--seed", "11", "--challenge-seed", "22", "--out-dir", str(run_dir))
        (run_dir / "round2_commitment.txt").write_text("vertices c0 c1\nedge c0 c0\n")
        code, out, err = run(capsys, "auth", "verify", "--public", public,
                             "--dir", str(run_dir), "--rounds", "3")
        assert code == 1 and err == ""
        lines = out.splitlines()
        assert [line.split()[-1] for line in lines] == ["accept", "reject", "accept", "false"]
        assert [line.split()[:2] for line in lines[:3]] == [["round", "1"], ["round", "2"],
                                                           ["round", "3"]]

    def test_empty_hom_commitments_are_rejected_rounds(self, capsys, tmp_path):
        # an empty commitment takes the empty map into either target: no proof
        key_dir, run_dir = tmp_path / "key", tmp_path / "run"
        public = str(key_dir / "public_key.txt")
        run(capsys, "auth", "keygen", "--scheme", "hom", "--seed", "5",
            "--out-dir", str(key_dir))
        run_dir.mkdir()
        rounds = ((1, 0), (2, 1), (3, 0))
        for i, _ in rounds:
            (run_dir / f"round{i}_commitment.txt").write_text("vertices\n")
            (run_dir / f"round{i}_response.txt").write_text("")
        (run_dir / "transcript.txt").write_text(
            "".join(f"round {i} challenge {c} verdict accept\n" for i, c in rounds)
            + "accept true\n")
        code, out, err = run(capsys, "auth", "verify", "--public", public,
                             "--dir", str(run_dir), "--rounds", "3")
        assert code == 1 and err == ""
        assert out.splitlines() == [f"round {i} challenge {c} verdict reject"
                                    for i, c in rounds] + ["accept false"]

    def test_missing_round_file_prints_no_verdict(self, capsys, tmp_path):
        key_dir, run_dir = tmp_path / "key", tmp_path / "run"
        public = str(key_dir / "public_key.txt")
        run(capsys, "auth", "keygen", "--scheme", "hom", "--seed", "5",
            "--out-dir", str(key_dir))
        run(capsys, "auth", "prove", "--public", public,
            "--private", str(key_dir / "private_key.txt"), "--rounds", "3",
            "--seed", "11", "--challenge-seed", "22", "--out-dir", str(run_dir))
        (run_dir / "round3_response.txt").unlink()
        code, out, err = run(capsys, "auth", "verify", "--public", public,
                             "--dir", str(run_dir), "--rounds", "3")
        assert code == 2 and out == "" and "round3_response.txt" in err

    @pytest.mark.parametrize("scheme, name, old, new, message", [
        ("hom", None, None, None, "need at least one round"),
        ("hom", "public_key.txt", "graph g2", "graph g2 extra", "bad graph section header"),
        ("hom", "public_key.txt", "graph g2\n", "graph g2\nedge b0 b0\n", "bad graph in key file"),
        ("sub", "public_key.txt", "subset s2", "subset\nsubset s2", "bad subset line 'subset'"),
        ("sub", "public_key.txt", "subset s2 ", "subset s2 zz ",
         "bad subset in key file: subset member 'zz' is not a vertex"),
        ("sub", "transcript.txt", "accept ", "hello world\naccept ",
         "unknown transcript line 'hello world'"),
    ])
    def test_verify_input_errors_exit_2(self, capsys, tmp_path, scheme, name, old, new, message):
        key_dir, run_dir = tmp_path / "key", tmp_path / "run"
        public = str(key_dir / "public_key.txt")
        run(capsys, "auth", "keygen", "--scheme", scheme, "--seed", "5",
            "--out-dir", str(key_dir))
        run(capsys, "auth", "prove", "--public", public,
            "--private", str(key_dir / "private_key.txt"), "--rounds", "2",
            "--seed", "11", "--challenge-seed", "22", "--out-dir", str(run_dir))
        if name is not None:
            path = (key_dir if name == "public_key.txt" else run_dir) / name
            assert old in path.read_text()
            path.write_text(path.read_text().replace(old, new, 1))
        code, out, err = run(capsys, "auth", "verify", "--public", public, "--dir", str(run_dir),
                             "--rounds", "2" if name else "0")
        assert code == 2 and out == "" and err.startswith("error: ") and message in err

    def test_sub_key_with_empty_subsets_exits_2(self, capsys, tmp_path):
        # empty subsets took the empty map each round: every round accepted, no key needed
        key_dir, run_dir = tmp_path / "key", tmp_path / "run"
        run(capsys, "auth", "keygen", "--scheme", "sub", "--seed", "1", "--out-dir", str(key_dir))
        public, private = tmp_path / "empty.txt", tmp_path / "none.txt"
        public.write_text("".join(
            " ".join(line.split()[:2]) + "\n" if line.startswith("subset ") else line
            for line in (key_dir / "public_key.txt").read_text().splitlines(keepends=True)))
        private.write_text("")
        code, out, err = run(capsys, "auth", "prove", "--public", str(public),
                             "--private", str(private), "--rounds", "3", "--seed", "1",
                             "--challenge-seed", "2", "--out-dir", str(run_dir))
        assert code == 2 and out == "" and "bad subset line 'subset s1'" in err
        assert not run_dir.exists()
        run_dir.mkdir()
        for i in (1, 2, 3):
            (run_dir / f"round{i}_commitment.txt").write_text("vertices\n")
            (run_dir / f"round{i}_response.txt").write_text("")
        (run_dir / "transcript.txt").write_text(
            "".join(f"round {i} challenge {i % 2} verdict accept\n" for i in (1, 2, 3))
            + "accept true\n")
        code, out, err = run(capsys, "auth", "verify", "--public", str(public),
                             "--dir", str(run_dir), "--rounds", "3")
        assert code == 2 and out == "" and "bad subset line 'subset s1'" in err

    def test_prove_on_an_empty_g1_exits_2(self, capsys, tmp_path):
        public, private = tmp_path / "public_key.txt", tmp_path / "private_key.txt"
        public.write_text("scheme hom\ngraph g1\nvertices\ngraph g2\nvertices b0 b1 b2\n"
                          "edge b0 b1\nedge b0 b2\nedge b1 b2\n")
        private.write_text("")
        code, out, err = run(capsys, "auth", "prove", "--public", str(public),
                             "--private", str(private), "--rounds", "2", "--seed", "1",
                             "--challenge-seed", "2", "--out-dir", str(tmp_path / "run"))
        assert code == 2 and out == "" and "target graph must have at least one vertex" in err

    def test_simulate_needs_a_trial(self, capsys):
        code, out, err = run(capsys, "auth", "simulate", "--scheme", "hom", "--strategy",
                             "honest", "--rounds", "2", "--trials", "0", "--seed", "1")
        assert code == 2 and out == "" and "need at least one trial" in err

    def test_simulate_prints_rate(self, capsys):
        code, out, _ = run(capsys, "auth", "simulate", "--scheme", "sub", "--strategy",
                           "cheat-guess-0", "--rounds", "1", "--trials", "400", "--seed", "3")
        assert code == 0
        rate = float(out.strip().split()[-1])
        assert 0.35 <= rate <= 0.65

    def test_verifier_rounds_reject_truncated_transcript(self, capsys, tmp_path):
        key_dir, run_dir = tmp_path / "key", tmp_path / "run"
        public = str(key_dir / "public_key.txt")
        run(capsys, "auth", "keygen", "--scheme", "hom", "--seed", "5",
            "--out-dir", str(key_dir))
        run(capsys, "auth", "prove", "--public", public,
            "--private", str(key_dir / "private_key.txt"), "--rounds", "4",
            "--seed", "11", "--challenge-seed", "22", "--out-dir", str(run_dir))
        assert run(capsys, "auth", "verify", "--public", public, "--dir", str(run_dir),
                   "--rounds", "4")[0] == 0
        transcript = run_dir / "transcript.txt"
        lines = transcript.read_text().splitlines()
        transcript.write_text(f"{lines[0]}\naccept true\n")
        code, out, _ = run(capsys, "auth", "verify", "--public", public, "--dir", str(run_dir),
                           "--rounds", "4")
        assert code == 1
        assert "transcript has 1 rounds, verifier requires 4" in out
        assert "accept true" not in out

    def test_verify_requires_the_round_count(self, capsys, tmp_path):
        # without it the transcript's own round count set the soundness error 2^-r
        key_dir, run_dir = tmp_path / "key", tmp_path / "run"
        public = str(key_dir / "public_key.txt")
        run(capsys, "auth", "keygen", "--scheme", "hom", "--seed", "5",
            "--out-dir", str(key_dir))
        run(capsys, "auth", "prove", "--public", public,
            "--private", str(key_dir / "private_key.txt"), "--rounds", "4",
            "--seed", "11", "--challenge-seed", "22", "--out-dir", str(run_dir))
        code, out, err = run(capsys, "auth", "verify", "--public", public, "--dir", str(run_dir))
        assert code == 2 and out == "" and "--rounds" in err

    @pytest.mark.parametrize("scheme,strategy,rounds,expect", [
        ("sub", "honest", "3", "all"),
        ("sub", "cheat-guess-0", "20", "none"),
        ("hom", "cheat-random", "1", None),
    ])
    def test_simulate_reports_count_and_wilson_interval(self, capsys, scheme, strategy,
                                                        rounds, expect):
        trials = 60
        code, out, _ = run(capsys, "auth", "simulate", "--scheme", scheme, "--strategy",
                           strategy, "--rounds", rounds, "--trials", str(trials), "--seed", "4")
        assert code == 0
        fields = out.split()
        accepted = int(fields[fields.index("accepted") + 1])
        at = fields.index("wilson95")
        low, high = float(fields[at + 1]), float(fields[at + 2])
        rate = float(fields[-1])
        assert fields[-2] == "acceptance" and rate == pytest.approx(accepted / trials)
        assert 0.0 <= low <= rate <= high <= 1.0 and low < high
        if expect == "all":
            assert accepted == trials and high == 1.0 and low > 0.9
        elif expect == "none":
            assert accepted == 0 and low == 0.0 and high < 0.1
        else:
            assert 0 < accepted < trials and low > 0.0 and high < 1.0

    def test_simulate_requires_seed(self, capsys):
        assert run(capsys, "auth", "simulate", "--scheme", "sub", "--strategy", "honest",
                   "--rounds", "1", "--trials", "10")[0] == 2

    def test_simulate_refuses_an_unknown_strategy_naming_the_table(self, capsys):
        code, out, err = run(capsys, "auth", "simulate", "--scheme", "hom", "--strategy",
                             "replay", "--rounds", "2", "--trials", "1", "--seed", "1")
        assert code == 2 and out == ""
        line = next(line for line in err.splitlines() if "invalid choice" in line)
        # argparse versions quote the choices differently, so only names and order are read
        choices = line.split("choose from", 1)[1]
        assert re.findall(r"honest|cheat-[a-z]+(?:-[01])?", choices) == [
            "honest", "cheat-guess-0", "cheat-guess-1", "cheat-random"]


class TestAuthCliGolden:
    # a digest over the files, stdout, stderr and exit code of every auth command on
    # both schemes: a change to how the CLI reaches the round rules leaves it as is
    DIGEST = "ce91a36ef79ef89bfc6e2d64de360ce71daf80066b9829dfa9c570d89393069d"

    def test_auth_cli_output_is_pinned(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps a usage line to the terminal
        h = hashlib.sha256()

        def add(text):
            h.update(text.replace(str(tmp_path), "<tmp>").encode())
            h.update(b"\0")

        def call(*argv):
            code, out, err = run(capsys, *argv)
            for text in (str(code), out, err):
                add(text)

        def tamper(path, edit):
            lines = path.read_text().splitlines()
            edit(lines)
            path.write_text("".join(line + "\n" for line in lines))

        def swap_images(lines):
            first, second = lines[0].split(), lines[1].split()
            first[2], second[2] = second[2], first[2]
            lines[0], lines[1] = " ".join(first), " ".join(second)

        def unknown_image(lines):
            lines[-1] = " ".join(lines[-1].split()[:2] + ["nowhere"])

        for scheme in ("hom", "sub"):
            for seed in ("1", "7", "42"):
                key_dir, run_dir = tmp_path / f"{scheme}{seed}", tmp_path / f"run{scheme}{seed}"
                public = str(key_dir / "public_key.txt")
                call("auth", "keygen", "--scheme", scheme, "--seed", seed,
                     "--out-dir", str(key_dir))
                call("auth", "prove", "--public", public,
                     "--private", str(key_dir / "private_key.txt"), "--rounds", "4",
                     "--seed", seed, "--challenge-seed", seed + "0", "--out-dir", str(run_dir))
                for path in sorted(key_dir.iterdir()) + sorted(run_dir.iterdir()):
                    add(path.name)
                    add(path.read_text())
                call("auth", "verify", "--public", public, "--dir", str(run_dir),
                     "--rounds", "4")
                call("auth", "verify", "--public", public, "--dir", str(run_dir))
                tamper(run_dir / "round1_response.txt", swap_images)
                tamper(run_dir / "round2_response.txt", unknown_image)
                tamper(run_dir / "round3_response.txt", lambda lines: lines.pop(0))
                call("auth", "verify", "--public", public, "--dir", str(run_dir),
                     "--rounds", "4")
                for strategy in ("honest", "cheat-guess-0", "cheat-guess-1", "cheat-random"):
                    call("auth", "simulate", "--scheme", scheme, "--strategy", strategy,
                         "--rounds", "3", "--trials", "20", "--seed", seed)
        assert h.hexdigest() == self.DIGEST


class TestBenchCommand:
    def test_needs_three_lengths(self, capsys, edge_graph):
        assert run(capsys, "bench", "word", "--graph", edge_graph, "--lengths",
                   "100,200", "--seed", "1")[0] == 2

    def test_zero_repetitions(self, capsys, edge_graph):
        assert run(capsys, "bench", "word", "--graph", edge_graph, "--lengths",
                   "100,200,400", "--repetitions", "0", "--seed", "1")[0] == 2

    @pytest.mark.parametrize("graph, lengths, message", [
        (EDGE_GRAPH, "40,20,10", "strictly ascending"),
        ("vertices\n", "10,20,40", "benchmark graph must have at least one vertex"),
    ])
    def test_input_errors_exit_2(self, capsys, tmp_path, graph, lengths, message):
        path = tmp_path / "graph.txt"
        path.write_text(graph)
        code, out, err = run(capsys, "bench", "word", "--graph", str(path), "--lengths",
                             lengths, "--seed", "1")
        assert code == 2 and out == "" and message in err

    def test_every_length_is_checked_before_a_word_is_sampled(self, capsys, monkeypatch,
                                                              edge_graph):
        sampled = []

        def short_word(group, length, seed):  # raises on an odd length as the sampler does
            word = sample_trivial_word(group, 2 if length % 2 == 0 else length, seed)
            sampled.append(length)
            return word

        monkeypatch.setattr(bench, "sample_trivial_word", short_word)
        code, out, err = run(capsys, "bench", "word", "--graph", edge_graph, "--lengths",
                             "1000000,2000000,3000001", "--seed", "1")
        assert (code, out) == (2, "")
        assert "target length must be a positive even integer" in err
        assert sampled == []

    def test_small_run_reports_slope(self, capsys, edge_graph):
        code, out, _ = run(capsys, "bench", "word", "--graph", edge_graph, "--lengths",
                           "400,800,1600", "--repetitions", "2", "--seed", "1")
        assert code == 0
        assert "loglog_slope" in out


class TestBenchJson:
    # a fixed result in place of the timings, so the printed text is exact
    FIXED = bench.BenchResult(points=(bench.BenchPoint(100, (0.001, 0.003)),
                                      bench.BenchPoint(200, (0.004,)),
                                      bench.BenchPoint(400, (0.008, 0.008))), slope=1.5)

    @pytest.fixture
    def fixed(self, monkeypatch):
        monkeypatch.setattr(bench, "run_word_benchmark", lambda *args: self.FIXED)

    def test_table_is_unchanged(self, capsys, edge_graph, fixed):
        code, out, _ = run(capsys, "bench", "word", "--graph", edge_graph, "--lengths",
                           "100,200,400", "--seed", "1")
        assert code == 0
        assert out == ("    length       mean_s  samples_s\n"
                       "       100     0.002000  0.001000 0.003000\n"
                       "       200     0.004000  0.004000\n"
                       "       400     0.008000  0.008000 0.008000\n"
                       "loglog_slope 1.5000\n")

    def test_json_is_one_object(self, capsys, edge_graph, fixed):
        code, out, _ = run(capsys, "bench", "word", "--graph", edge_graph, "--lengths",
                           "100,200,400", "--seed", "1", "--json")
        assert code == 0 and out.count("\n") == 1
        record = json.loads(out)
        assert record["loglog_slope"] == 1.5
        assert [p["length"] for p in record["points"]] == [100, 200, 400]
        assert [p["samples_s"] for p in record["points"]] == [[0.001, 0.003], [0.004],
                                                              [0.008, 0.008]]
        for p, mean in zip(record["points"], (0.002, 0.004, 0.008)):
            assert p["mean_s"] == pytest.approx(mean)
            assert p["ns_per_letter"] == pytest.approx(mean / p["length"] * 1e9)

    def test_json_from_a_real_run(self, capsys, edge_graph):
        code, out, _ = run(capsys, "bench", "word", "--graph", edge_graph, "--lengths",
                           "400,800,1600", "--repetitions", "2", "--seed", "1", "--json")
        assert code == 0
        record = json.loads(out)
        assert [p["length"] for p in record["points"]] == [400, 800, 1600]
        for p in record["points"]:
            assert len(p["samples_s"]) == 2 and p["mean_s"] > 0 and p["ns_per_letter"] > 0
        assert math.isfinite(record["loglog_slope"])

    def test_json_points_carry_the_smallest_sample_per_letter(self, capsys, edge_graph, fixed):
        code, out, _ = run(capsys, "bench", "word", "--graph", edge_graph, "--lengths",
                           "100,200,400", "--seed", "1", "--json")
        assert code == 0
        points = json.loads(out)["points"]
        for p, least in zip(points, (0.001, 0.004, 0.008)):
            assert p["min_ns_per_letter"] == pytest.approx(least / p["length"] * 1e9)
            assert p["min_ns_per_letter"] <= p["ns_per_letter"]


# ---------------------------------------------------------------------------
# malformed input: every reader answers a mutated file with exit 0, 1 or 2


# tokens that a mutation writes into a file: numbers, signs, labels and keywords of
# every file format, a comment mark, a non-ASCII letter and a NUL
MUTATION_TOKENS = ("", "0", "-1", "1.0", "2", "99999999999999999999", "zz", "v0", "v0^-1",
                   "v1^-2", "^-1", "#", "é", "\x00", "vertices", "edge", "map", "scheme",
                   "nn", "tn", "participant", "k", "p", "t", "bits", "value", "round")


def mutate(rng, text, foreign):
    """``text`` with one of eight mutations: a character replaced by a token, a line
    deleted or duplicated, a token replaced or copied within its line, the text
    truncated, a token appended to a line, or a line inserted anywhere: a ``#`` comment,
    a blank line or one of ``foreign``, directive lines of other files. Tokens come from
    MUTATION_TOKENS or the text itself."""
    lines = text.split("\n")
    i = rng.randrange(len(lines))
    tokens = lines[i].split()
    token = rng.choice(MUTATION_TOKENS + tuple(text.split()))
    kind = rng.randrange(8)
    if kind == 0:
        at = rng.randrange(len(text) + 1)
        return text[:at] + token + text[at + 1:]
    if kind == 5:
        return text[:rng.randrange(len(text) + 1)]
    if kind == 1:
        del lines[i]
    elif kind == 2:
        lines.insert(i, lines[i])
    elif kind == 3 and tokens:
        tokens[rng.randrange(len(tokens))] = token
        lines[i] = " ".join(tokens)
    elif kind == 4 and tokens:
        tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(tokens))
        lines[i] = " ".join(tokens)
    elif kind == 7:
        line = ("# " + token, "", rng.choice(foreign))[rng.randrange(3)]
        lines.insert(rng.randrange(len(lines) + 1), line)
    else:
        lines[i] += " " + token
    return "\n".join(lines)


def walkthrough_targets(root):
    """Write the README walkthrough's files under ``root`` (the auth runs cut to 4
    rounds) and return every reader as ``(argv, file it reads)``, one entry per file."""
    def ok(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([a.format(root) for a in argv]) == 0, argv

    ok("graph", "gen", "--vertices", "10", "--edge-prob", "0.5", "--seed", "7",
       "--out", "{}/g.txt")
    ok("word", "sample", "--graph", "{}/g.txt", "--kind", "trivial", "--length", "20",
       "--seed", "3", "--out", "{}/w.txt")
    ok("deal-nn", "--secret", "10110", "--participants", "3", "--generators", "4",
       "--seed", "9", "--out-dir", "{}/nn")
    ok("deal-tn", "--secret", "5", "--prime", "11", "--threshold", "2", "--participants", "4",
       "--generators", "4", "--seed", "12", "--out-dir", "{}/tn")
    decodes = [(f"{{}}/{scheme}/share_p{j}.txt", f"{{}}/{scheme}/secret_graph_p{j}.txt",
                f"{{}}/{scheme}/dec_p{j}.txt") for scheme, js in (("nn", (1, 2, 3)), ("tn", (2, 4)))
               for j in js]
    for share, graph, out in decodes:
        ok("decode-share", "--share", share, "--graph", graph, "--out", out)
    for scheme in ("hom", "sub"):
        ok("auth", "keygen", "--scheme", scheme, "--seed", "5", "--out-dir", f"{{}}/{scheme}_key")
        ok("auth", "prove", "--public", f"{{}}/{scheme}_key/public_key.txt", "--private",
           f"{{}}/{scheme}_key/private_key.txt", "--rounds", "4", "--seed", "11",
           "--challenge-seed", "22", "--out-dir", f"{{}}/{scheme}_run")
    nn_decoded = [out for _, _, out in decodes[:3]]
    readers = [
        (("graph", "validate", "{}/g.txt"), ["{}/g.txt"]),
        (("word", "check", "{}/g.txt", "{}/w.txt"), ["{}/g.txt", "{}/w.txt"]),
        (("word", "sample", "--graph", "{}/g.txt", "--kind", "nontrivial", "--length", "9",
          "--seed", "1"), ["{}/g.txt"]),
        (("bench", "word", "--graph", "{}/g.txt", "--lengths", "10,20", "--repetitions", "1",
          "--seed", "2", "--json"), ["{}/g.txt"]),
        (("reconstruct-nn", *nn_decoded, "--expect", "10110"), nn_decoded),
        (("reconstruct-tn", "{}/tn/dec_p2.txt", "{}/tn/dec_p4.txt", "--expect", "5"),
         ["{}/tn/dec_p2.txt", "{}/tn/dec_p4.txt"]),
    ]
    readers += [(("decode-share", "--share", share, "--graph", graph), [share, graph])
                for share, graph, _ in (decodes[0], decodes[3])]  # nn p1, tn p2
    for scheme in ("hom", "sub"):
        public, private = (f"{{}}/{scheme}_key/{name}_key.txt" for name in ("public", "private"))
        run_dir = f"{{}}/{scheme}_run"
        readers.append((("auth", "prove", "--public", public, "--private", private, "--rounds",
                         "2", "--seed", "1", "--challenge-seed", "2", "--out-dir", "{}/proved"),
                        [public, private]))
        rounds = [f"{run_dir}/{name.format(i)}" for i in range(1, 5) for name in ROUND_FILES]
        readers.append((("auth", "verify", "--public", public, "--dir", run_dir, "--rounds", "4"),
                        [public, f"{run_dir}/{TRANSCRIPT_FILE}", *rounds]))
    return [([a.format(root) for a in argv], path.format(root))
            for argv, paths in readers for path in paths]


def fuzz_readers(root, seed, per_target):
    """Run every walkthrough reader on ``per_target`` mutations of each file it reads,
    one file mutated at a time, and count the inputs by exit code. Fails on an
    exception escaping ``main`` or an exit code other than 0, 1 or 2."""
    rng, codes = random.Random(seed), collections.Counter()
    targets = walkthrough_targets(root)
    originals = {path: Path(path).read_text(encoding="utf-8") for _, path in targets}
    for argv, path in targets:
        original = originals[path]
        foreign = [line for other, text in originals.items() if other != path
                   for line in text.splitlines() if line.strip() and line.split()[0][0] != "#"]
        for _ in range(per_target):
            text = mutate(rng, original, foreign)
            Path(path).write_text(text, encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except (Exception, SystemExit) as e:
                    raise AssertionError(f"{argv} on {path} = {text!r}: {e!r}") from e
            assert code in (0, 1, 2), (argv, path, text, code)
            codes[code] += 1
        Path(path).write_text(original, encoding="utf-8")
    return codes


def test_malformed_input_exits_0_1_or_2_from_every_reader(tmp_path):
    # 8 mutations of each of the 38 files that some reader reads, about 1 s; the
    # mutations reach refusals (2), rejections and nontrivial verdicts (1) and outputs (0)
    codes = fuzz_readers(tmp_path, seed=28, per_target=8)
    assert sum(codes.values()) == 8 * 38 and set(codes) == {0, 1, 2}


# The directory that holds the imported raagcrypt package. Child
# processes put it first on PYTHONPATH so they run the code under test,
# not some other installed copy.
PACKAGE_ROOT = Path(raagcrypt.__file__).resolve().parent.parent
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

# The body of the wrapper that setuptools writes for the console script.
CONSOLE_SCRIPT_BODY = "import sys\nfrom raagcrypt.cli import main\nsys.exit(main())\n"


@pytest.mark.parametrize("argv", [
    ["graph", "gen", "--vertices", "6", "--edge-prob", "0.5", "--seed", "3"],
    ["word", "sample", "--graph", "{dir}/g.txt", "--kind", "nontrivial", "--length", "9",
     "--seed", "4"],
    ["decode-share", "--share", "{dir}/tn/share_p2.txt", "--graph", "{dir}/tn/secret_graph_p2.txt"],
])
def test_stdout_holds_the_bytes_out_writes(capsys, tmp_path, argv):
    (tmp_path / "g.txt").write_text(EDGE_GRAPH)
    assert run(capsys, "deal-tn", "--secret", "5", "--prime", "11", "--threshold", "2",
               "--participants", "3", "--generators", "3", "--seed", "1",
               "--out-dir", str(tmp_path / "tn"))[0] == 0
    argv = [a.format(dir=tmp_path) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "" and out
    assert run(capsys, *argv, "--out", str(tmp_path / "out.txt")) == (0, "", "")
    assert (tmp_path / "out.txt").read_bytes() == out.encode()


def run_child(*argv):
    inherited = os.environ.get("PYTHONPATH")
    path = str(PACKAGE_ROOT) + (os.pathsep + inherited if inherited else "")
    return subprocess.run(list(argv), capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_console_script_installed():
    result = run_child(sys.executable, "-m", "raagcrypt.cli", "graph", "gen",
                       "--vertices", "3", "--edge-prob", "1", "--seed", "0")
    assert result.returncode == 0
    assert result.stdout.startswith("vertices v0 v1 v2")
    module = run_child(sys.executable, "-m", "raagcrypt", "--help")
    assert module.returncode == 0 and module.stdout.startswith("usage: raagcrypt")
    script = run_child(sys.executable, "-c", CONSOLE_SCRIPT_BODY, "--help")
    assert script.returncode == 0 and "raagcrypt" in script.stdout
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts["raagcrypt"] == "raagcrypt.cli:main"


@pytest.mark.skipif(shutil.which("raagcrypt") is None,
                    reason="raagcrypt console script not installed")
def test_console_script_on_path():
    script = run_child("raagcrypt", "--help")
    assert script.returncode == 0 and "raagcrypt" in script.stdout

"""The command line interface: outputs, formats, and exit codes."""

from __future__ import annotations

import pytest

from gapchart.cli import main
from gapchart.data import path as data_path


TOY = data_path("toy.gram")
AMBIG = data_path("ambig.gram")
SORTS = data_path("sorts.gram")
FRAGMENTS = data_path("fragments.gram")
BAD = data_path("bad_closure.gram")
TOYCORPUS = data_path("toy_corpus.txt")
NBEST = data_path("nbest.tsv")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err.splitlines()


def test_validate_reports_grammar_shape(capsys):
    code, out, err = run(capsys, "validate", TOY)
    assert code == 0
    assert "rules\t8" in out
    assert "cd\tnp_gap s_gap vp_gap" in out
    assert "nullable\tnp_gap" in out
    assert out[-1] == "ok"
    assert err == []


def test_validate_closure_violation_exits_2(capsys):
    code, out, err = run(capsys, "validate", BAD)
    assert code == 2
    assert err == ["closure\tx begins y"]
    assert "ok" not in out


def test_validate_missing_file_exits_1(capsys):
    code, _out, err = run(capsys, "validate", "/no/such/file.gram")
    assert code == 1
    assert err and err[0].startswith("input:")


# a directory where a file is expected, for each path option; "DIR"
# stands for the directory
UNREADABLE_PATHS = [
    pytest.param(["parse", "DIR", "--utt", "x"], id="grammar"),
    pytest.param(["parse", TOY, "--corpus", "DIR"], id="corpus"),
    pytest.param(["cover", FRAGMENTS, "--utt", "list flights", "--weights", "DIR"],
                 id="weights"),
    pytest.param(["rescore", FRAGMENTS, "--nbest", "DIR"], id="nbest"),
]


@pytest.mark.parametrize("argv", UNREADABLE_PATHS)
def test_unreadable_path_exits_1(capsys, tmp_path, argv):
    code, out, err = run(capsys, *[str(tmp_path) if a == "DIR" else a for a in argv])
    assert code == 1
    assert out == []
    assert len(err) == 1 and err[0].startswith("input:") and str(tmp_path) in err[0]


def test_validate_bad_grammar_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.gram"
    bad.write_text("rule r : s(agr=x) ->\n")
    code, _out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert all(e.startswith("grammar: ") for e in err)
    assert any("line 1" in e for e in err)


def test_parse_single_utterance(capsys):
    code, out, _err = run(
        capsys, "parse", TOY, "--utt", "the pilot booked the flight",
        "--trees", "1",
    )
    assert code == 0
    assert out[0] == "UTT\tthe pilot booked the flight"
    assert out[1] == "STATS\twords=5\tedges=9\tpreds=0\tcomplete=1"
    assert out[2] == "TREE\t1\t(r1 (r2 the pilot) (r8 booked (r2 the flight)))"


@pytest.mark.parametrize("n", ["-1", "-2", "two"])
def test_parse_tree_count_not_a_whole_number_is_a_usage_error(capsys, n):
    with pytest.raises(SystemExit) as exc:
        main(["parse", AMBIG, "--utt", "the man saw the dog with the dog", "--trees", n])
    assert exc.value.code == 2
    assert "argument --trees: expected a whole number 0 or more" in capsys.readouterr().err


def test_parse_tree_count_lists_every_tree_up_to_it(capsys):
    code, out, _err = run(capsys, "parse", AMBIG, "--utt",
                          "the man saw the dog with the dog", "--trees", "3")
    assert code == 0
    assert [line.split("\t")[1] for line in out if line.startswith("TREE")] == ["1", "2"]


def test_parse_readings_at_semantic_depth(capsys):
    code, out, _err = run(
        capsys, "parse", SORTS, "--utt", "the pilot flies",
        "--depth", "deferred",
    )
    assert code == 0
    assert any(line.startswith("READING\t1\t") for line in out)


def test_parse_corpus_emits_block_per_utterance(capsys):
    code, out, _err = run(capsys, "parse", TOY, "--corpus", TOYCORPUS)
    assert code == 0
    assert sum(1 for l in out if l.startswith("UTT\t")) == 30


def test_parse_unknown_word_exits_1(capsys):
    code, _out, err = run(capsys, "parse", TOY, "--utt", "the zeppelin")
    assert code == 1
    assert err and "zeppelin" in err[0]


def test_parse_robust_skips_unknown_words(capsys):
    code, out, _err = run(
        capsys, "parse", TOY, "--utt", "the zeppelin", "--robust",
    )
    assert code == 0
    assert any("complete=0" in l for l in out)


def test_parse_sorts_depth_needs_sort_table(capsys):
    code, _out, err = run(
        capsys, "parse", TOY, "--utt", "the", "--depth", "sorts",
    )
    assert code == 2
    assert err and err[0].startswith("config:")


def test_parse_trace_goes_to_stderr(capsys):
    code, out, err = run(
        capsys, "parse", TOY, "--utt", "the pilots land", "--trace",
    )
    assert code == 0
    assert any(e.startswith("ADD-EDGE\t") for e in err)
    assert all(not l.startswith("ADD-EDGE") for l in out)


def test_parse_dump_chart(capsys):
    code, out, _err = run(
        capsys, "parse", TOY, "--utt", "the pilots land", "--dump-chart",
    )
    assert code == 0
    chart_lines = [l for l in out if l.startswith("CHART\t")]
    assert len(chart_lines) >= 5


def test_stats_rows_per_variant(capsys):
    code, out, _err = run(
        capsys, "stats", TOY, "--corpus", TOYCORPUS,
        "--variants", "bu", "lc", "llc", "llc:syn",
    )
    assert code == 0
    assert len(out) == 4
    for line in out:
        token, edges, preds, parsed = line.split("\t")
        assert token in {"bu", "lc", "llc", "llc:syn"}
        assert int(edges) > 0
        assert parsed.endswith("/30")
    # llc and llc:syn are the same configuration
    assert out[2].split("\t")[1:] == out[3].split("\t")[1:]


def test_stats_strict_orderings(capsys):
    code, out, _err = run(capsys, "stats", TOY, "--corpus", TOYCORPUS)
    assert code == 0
    rows = {l.split("\t")[0]: l.split("\t") for l in out}
    edges = {k: int(v[1]) for k, v in rows.items()}
    preds = {k: int(v[2]) for k, v in rows.items()}
    assert edges["bu"] > edges["llc"] > edges["lc"]
    assert preds["lc"] > preds["llc"] > preds["bu"] == 0


def test_stats_unknown_variant_exits_1(capsys):
    code, _out, err = run(
        capsys, "stats", TOY, "--corpus", TOYCORPUS, "--variants", "zigzag",
    )
    assert code == 1
    assert err and "zigzag" in err[0]


def test_cover_rows(capsys):
    code, out, _err = run(
        capsys, "cover", FRAGMENTS, "--utt", "list flights of fare code of q",
    )
    assert code == 0
    (row,) = out
    utt, count, flag, score, bracketing = row.split("\t")
    assert count == "2" and flag == "0"
    assert score == "-2.2500"
    assert bracketing == "[list flights] [of fare code of q]"


def test_cover_of_an_empty_utterance_scores_positive_zero(capsys):
    code, out, _err = run(capsys, "cover", FRAGMENTS, "--utt", "")
    assert code == 0
    assert out == ["\t0\t0\t0.0000\t"]


def test_cover_well_formed_filter(capsys):
    code, out, _err = run(
        capsys, "cover", FRAGMENTS, "--utt", "of q", "--well-formed",
    )
    assert code == 0
    assert out == []
    code2, out2, _err2 = run(
        capsys, "cover", FRAGMENTS, "--utt", "list flights", "--well-formed",
    )
    assert code2 == 0
    assert len(out2) == 1 and out2[0].split("\t")[2] == "1"


def test_cover_weights_file(capsys, tmp_path):
    weights = tmp_path / "w.json"
    weights.write_text('{"fallback_cost": 0.4}')
    code, out, _err = run(
        capsys, "cover", FRAGMENTS, "--utt", "list flights",
        "--weights", str(weights),
    )
    assert code == 0
    assert out[0].split("\t")[4] == "?list ?flights"


@pytest.mark.parametrize("weight", ["nan", "inf", "Infinity"])
def test_cover_grammar_with_non_finite_disprefer_weight_exits_2(capsys, tmp_path, weight):
    grammar = tmp_path / "g.gram"
    grammar.write_text(f"start s()\nrule r : s() -> w()\nlex a : w()\ndisprefer r {weight}\n")
    code, out, err = run(capsys, "cover", str(grammar), "--utt", "a", "--depth", "syn")
    assert code == 2 and out == []
    assert err == [f"grammar: line 4: bad weight {weight!r}"]


# each names the key the error message must name
BAD_WEIGHTS = [
    pytest.param('{"bogus": 1}', "bogus", id="unknown-key"),
    pytest.param('{"scale": null}', "'scale'", id="null"),
    pytest.param('{"scale": [1]}', "'scale'", id="list"),
    pytest.param('{"scale": true}', "'scale'", id="bool"),
    pytest.param('{"scale": "nan"}', "'scale'", id="string"),
    pytest.param('{"fallback_cost": NaN}', "'fallback_cost'", id="nan"),
    pytest.param('{"sentence_bonus": Infinity}', "'sentence_bonus'", id="inf"),
    pytest.param('{"scale": 1%s}' % ("0" * 400), "'scale'", id="too-large"),
]


@pytest.mark.parametrize("text, key", BAD_WEIGHTS)
def test_cover_bad_weights_exits_1(capsys, tmp_path, text, key):
    weights = tmp_path / "w.json"
    weights.write_text(text)
    code, _out, err = run(
        capsys, "cover", FRAGMENTS, "--utt", "list flights",
        "--weights", str(weights),
    )
    assert code == 1
    assert err and err[0].startswith("input:") and key in err[0]


@pytest.mark.parametrize("text, key", BAD_WEIGHTS)
def test_rescore_bad_weights_exits_1(capsys, tmp_path, text, key):
    weights = tmp_path / "w.json"
    weights.write_text(text)
    code, _out, err = run(
        capsys, "rescore", FRAGMENTS, "--nbest", NBEST, "--weights", str(weights),
    )
    assert code == 1
    assert err and err[0].startswith("input:") and key in err[0]


def test_rescore_golden_rows(capsys):
    code, out, _err = run(capsys, "rescore", FRAGMENTS, "--nbest", NBEST)
    assert code == 0
    assert out == [
        "utt1\t1\t-103.2500\t-101.0000\t-2.2500\t2\t0\tlist flights of fare code of q",
        "utt1\t2\t-104.2500\t-100.0000\t-4.2500\t4\t0\tlist flights of fare code a q",
        "utt2\t1\t-10.5000\t-10.0000\t-0.5000\t1\t1\tlist flights",
        "utt2\t2\t-13.0000\t-12.0000\t-1.0000\t1\t0\tof q",
    ]


def test_rescore_row_of_an_empty_hypothesis_scores_positive_zero(capsys, tmp_path):
    nbest = tmp_path / "nbest.tsv"
    nbest.write_text("u1\t1\t-3\t\n")
    code, out, _err = run(capsys, "rescore", FRAGMENTS, "--nbest", str(nbest))
    assert code == 0
    assert out == ["u1\t1\t-3.0000\t-3.0000\t0.0000\t0\t0\t"]


@pytest.mark.parametrize("text", [
    pytest.param("onlyonefield\n", id="one-field"),
    pytest.param("u\t1\tx\tlist flights\n", id="non-numeric-score"),
    pytest.param("u\t1\tnan\tlist flights\n", id="nan-score"),
    pytest.param("u\t1\t-1\tlist flights\nu\t2\t-inf\tof q\n", id="inf-score-on-line-2"),
])
def test_rescore_malformed_nbest_exits_1(capsys, tmp_path, text):
    bad = tmp_path / "bad.tsv"
    bad.write_text(text)
    code, _out, err = run(capsys, "rescore", FRAGMENTS, "--nbest", str(bad))
    assert code == 1
    assert err and err[0].startswith("input:") and f"line {text.count(chr(10))}" in err[0]


def test_missing_required_argument_is_a_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["rescore", FRAGMENTS])

"""Byte pins of the CLI text: results, run reports, experiment and bench lines.

Each report is compared with its ``wall_time_ns`` value masked as ``N``; every
other byte of stdout and stderr, and the exit status, must match exactly.
"""

import json
import re

import pytest

from transub.cli import main

INPUTS = {
    "mixed": "5 7\n1 2\n2 3\n3 1\n3 4\n4 5\n5 3\n2 2\n",
    "matrix": "0110\n0011\n1001\n0100\n",
    "sub": "5 3\n1 2\n2 2\n3 4\n",
    "chain": "3 3\n1 2\n1 3\n2 3\n",
}

# (argv with '@name' for the input file of INPUTS[name], exit status, stdout, stderr)
CASES = [
    (
        ['maximal', '--input', '@mixed', '--verify'], 0,
        '5 3\n1 2\n2 2\n3 4\n',
        'command=maximal n=5 m=7 result_size=3'
        ' checks=transitive:pass,contained:pass,maximal:pass wall_time_ns=N\n',
    ),
    (
        ['maximal', '--input', '@mixed', '--verify', '--algorithm', 'v1', '--json'], 0,
        '5 3\n1 2\n2 2\n3 4\n',
        '{"command": "maximal", "n": 5, "m": 7, "result_size": 3, "checks": [{"name":'
        ' "transitive", "pass": true}, {"name": "contained", "pass": true}, {"name":'
        ' "maximal", "pass": true}], "wall_time_ns": N}\n',
    ),
    (
        ['maximum', '--input', '@mixed', '--mode', 'exact', '--verify'], 0,
        '5 3\n1 2\n2 2\n3 4\n',
        'command=maximum n=5 m=7 result_size=3 checks=transitive:pass,contained:pass'
        ' wall_time_ns=N\n',
    ),
    (
        ['maximum', '--input', '@mixed', '--mode', 'quarter', '--verify'], 0,
        '5 2\n1 2\n3 4\n',
        'command=maximum n=5 m=7 result_size=2'
        ' checks=size_ge_quarter:pass,transitive:pass,contained:pass wall_time_ns=N\n',
    ),
    (
        ['maximum', '--input', '@mixed', '--mode', 'dicut-exact', '--verify'], 0,
        '5 2\n2 3\n5 3\n',
        'command=maximum n=5 m=7 result_size=2 checks=transitive:pass,contained:pass'
        ' wall_time_ns=N\n',
    ),
    (
        ['maximum', '--input', '@mixed', '--mode', 'dicut-local', '--verify'], 0,
        '5 2\n1 2\n4 5\n',
        'command=maximum n=5 m=7 result_size=2 checks=transitive:pass,contained:pass'
        ' wall_time_ns=N\n',
    ),
    (
        ['maximum', '--input', '@mixed', '--mode', 'dicut-local', '--seed', '3', '--json'], 0,
        '5 2\n3 1\n3 4\n',
        '{"command": "maximum", "n": 5, "m": 7, "result_size": 2, "checks": [],'
        ' "wall_time_ns": N}\n',
    ),
    (
        ['closure', '--input', '@mixed'], 0,
        '5 25\n1 1\n1 2\n1 3\n1 4\n1 5\n2 1\n2 2\n2 3\n2 4\n2 5\n3 1\n3 2\n3 3\n3 4\n3 5\n4'
        ' 1\n4 2\n4 3\n4 4\n4 5\n5 1\n5 2\n5 3\n5 4\n5 5\n',
        'command=closure n=5 m=7 result_size=25 checks=transitive:pass,contains_input:pass'
        ' wall_time_ns=N\n',
    ),
    (
        ['check', '--input', '@mixed'], 1,
        '',
        'command=check n=5 m=7 result_size=7 checks=transitive:fail,path_length_two:pass'
        ' wall_time_ns=N\n',
    ),
    (
        ['maximal', '--input', '@matrix', '--verify'], 0,
        '0110\n0010\n0000\n0000\n',
        'command=maximal n=4 m=7 result_size=3'
        ' checks=transitive:pass,contained:pass,maximal:pass wall_time_ns=N\n',
    ),
    (
        ['maximal', '--input', '@matrix', '--verify', '--algorithm', 'v1', '--json'], 0,
        '0110\n0010\n0000\n0000\n',
        '{"command": "maximal", "n": 4, "m": 7, "result_size": 3, "checks": [{"name":'
        ' "transitive", "pass": true}, {"name": "contained", "pass": true}, {"name":'
        ' "maximal", "pass": true}], "wall_time_ns": N}\n',
    ),
    (
        ['maximum', '--input', '@matrix', '--mode', 'exact', '--verify'], 0,
        '0110\n0010\n0000\n0000\n',
        'command=maximum n=4 m=7 result_size=3 checks=transitive:pass,contained:pass'
        ' wall_time_ns=N\n',
    ),
    (
        ['maximum', '--input', '@matrix', '--mode', 'quarter', '--verify'], 0,
        '0100\n0000\n0000\n0100\n',
        'command=maximum n=4 m=7 result_size=2'
        ' checks=size_ge_quarter:pass,transitive:pass,contained:pass wall_time_ns=N\n',
    ),
    (
        ['maximum', '--input', '@matrix', '--mode', 'dicut-exact', '--verify'], 0,
        '0010\n0011\n0000\n0000\n',
        'command=maximum n=4 m=7 result_size=3 checks=transitive:pass,contained:pass'
        ' wall_time_ns=N\n',
    ),
    (
        ['maximum', '--input', '@matrix', '--mode', 'dicut-local', '--verify'], 0,
        '0110\n0000\n0000\n0100\n',
        'command=maximum n=4 m=7 result_size=3 checks=transitive:pass,contained:pass'
        ' wall_time_ns=N\n',
    ),
    (
        ['maximum', '--input', '@matrix', '--mode', 'dicut-local', '--seed', '3', '--json'], 0,
        '0000\n0001\n1001\n0000\n',
        '{"command": "maximum", "n": 4, "m": 7, "result_size": 3, "checks": [],'
        ' "wall_time_ns": N}\n',
    ),
    (
        ['closure', '--input', '@matrix'], 0,
        '1111\n1111\n1111\n1111\n',
        'command=closure n=4 m=7 result_size=16 checks=transitive:pass,contains_input:pass'
        ' wall_time_ns=N\n',
    ),
    (
        ['check', '--input', '@matrix'], 1,
        '',
        'command=check n=4 m=7 result_size=7 checks=transitive:fail,path_length_two:pass'
        ' wall_time_ns=N\n',
    ),
    (
        ['closure', '--input', '@chain', '--json'], 0,
        '3 3\n1 2\n1 3\n2 3\n',
        '{"command": "closure", "n": 3, "m": 3, "result_size": 3, "checks": [{"name":'
        ' "transitive", "pass": true}, {"name": "contains_input", "pass": true}],'
        ' "wall_time_ns": N}\n',
    ),
    (
        ['check', '--input', '@chain'], 0,
        '',
        'command=check n=3 m=3 result_size=3 checks=transitive:pass,path_length_two:pass'
        ' wall_time_ns=N\n',
    ),
    (
        ['check', '--input', '@mixed', '--sub', '@sub'], 0,
        '',
        'command=check n=5 m=7 result_size=3'
        ' checks=contained:pass,transitive:pass,maximal:pass wall_time_ns=N\n',
    ),
    (
        ['check', '--input', '@mixed', '--sub', '@chain', '--json'], 1,
        '',
        '{"command": "check", "n": 5, "m": 7, "result_size": 3, "checks": [{"name":'
        ' "contained", "pass": false}, {"name": "transitive", "pass": true}, {"name":'
        ' "maximal", "pass": false}], "wall_time_ns": N}\n',
    ),
    (
        ['check', '--input', '@mixed', '--sub', '@mixed'], 1,
        '',
        'command=check n=5 m=7 result_size=7'
        ' checks=contained:pass,transitive:fail,maximal:fail wall_time_ns=N\n',
    ),

]


def _mask(report: str) -> str:
    return re.sub(r'wall_time_ns(=|": )\d+', r"wall_time_ns\1N", report)


@pytest.mark.parametrize("argv, code, out, err", CASES, ids=[" ".join(c[0]) for c in CASES])
def test_relation_commands(tmp_path, capsys, argv, code, out, err):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert _mask(captured.err) == err


EXPERIMENT_TEXT = (
    "trial seed=12587370737594032228 n=6 m=8 max_dicut=6 bound_m4=2.0"
    " bound_upper=9.278031643091577 balanced_fraction=0.25806451612903225\n"
    "trial seed=13847876567842155106 n=6 m=8 max_dicut=5 bound_m4=2.0"
    " bound_upper=9.278031643091577 balanced_fraction=0.3870967741935484\n"
    "trial seed=4894335158745139638 n=6 m=8 max_dicut=6 bound_m4=2.0"
    " bound_upper=9.278031643091577 balanced_fraction=0.3225806451612903\n"
    "summary trials=3 n=6 m=8 k=2 delta=0.5 cprime=1.0 chernoff_bound=117.76568507255338"
    " unbalanced_fraction=1.0 balance_guaranteed=False min_max_dicut=5 max_max_dicut=6\n"
)

EXPERIMENT_JSON_TRIALS = [
    (12587370737594032228, 6, 0.25806451612903225),
    (13847876567842155106, 5, 0.3870967741935484),
]


def test_experiment_text(capsys):
    argv = ["experiment", "--n", "6", "--m", "8", "--trials", "3", "--seed", "9"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (EXPERIMENT_TEXT, "")


def test_experiment_json(capsys):
    argv = ["experiment", "--n", "6", "--m", "8", "--trials", "2", "--seed", "9", "--json"]
    assert main(argv) == 0
    trials = [
        {"seed": seed, "n": 6, "m": 8, "max_dicut": cut, "bound_m4": 2.0,
         "bound_upper": 9.278031643091577, "balanced_fraction": fraction}
        for seed, cut, fraction in EXPERIMENT_JSON_TRIALS
    ]
    summary = {
        "trials": 2, "n": 6, "m": 8, "k": 2, "delta": 0.5, "cprime": 1.0,
        "chernoff_bound": 117.76568507255338, "unbalanced_fraction": 1.0,
        "balance_guaranteed": False, "min_max_dicut": 5, "max_max_dicut": 6,
    }
    document = {"command": "experiment", "n": 6, "m": 8, "trials": trials, "summary": summary}
    assert capsys.readouterr().out == json.dumps(document, indent=2) + "\n"


def test_bench_line_shapes(capsys):
    assert main(["bench", "--sizes", "8,16", "--repetitions", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    for line, n, m in zip(lines, (8, 16), (32, 64)):
        assert re.fullmatch(
            rf"bench n={n} m={m} v1_median_ns=\d+ v2_median_ns=\d+ speedup=\d+\.\d\d", line
        ), line
    assert re.fullmatch(r"doubling n=8->16 v1_ratio=\d+\.\d\d v2_ratio=\d+\.\d\d", lines[2])


def test_bench_json_shape(capsys):
    assert main(["bench", "--sizes", "8,16", "--repetitions", "1", "--json"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert list(doc) == ["command", "density", "repetitions", "rows", "doubling"]
    assert (doc["command"], doc["density"], doc["repetitions"]) == ("bench", "sparse", 1)
    assert [list(row) for row in doc["rows"]] == [["n", "m", "v1_median_ns", "v2_median_ns"]] * 2
    assert [(row["n"], row["m"]) for row in doc["rows"]] == [(8, 32), (16, 64)]
    assert [list(d) for d in doc["doubling"]] == [["n", "n2", "v1_ratio", "v2_ratio"]]
    assert out.endswith("}\n") and out.startswith('{\n  "command": "bench",\n')

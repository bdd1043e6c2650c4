import hashlib
import json
import shlex
from pathlib import Path

import pytest

from qaffine.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_qh_product_example(capsys):
    code, out = run(capsys, "qh", "product", "--type", "A1", "--u", "s1", "--v", "s1", "--equivariant")
    assert code == 0
    assert json.loads(out) == {"(s1,)": "a1", "(id,q1)": "1"}


def test_pi_p_example(capsys):
    code, out = run(capsys, "pi-p", "--type", "A3", "--ip", "2,3", "--coroot", "-1,0,0")
    assert code == 0
    assert json.loads(out) == {"w": "r2 r3", "t": "-1,-1,-1"}


def test_pi_p_b3(capsys):
    code, out = run(capsys, "pi-p", "--type", "B3", "--ip", "2,3", "--coroot", "-1,0,0")
    assert code == 0
    assert json.loads(out) == {"w": "r2 r3 r2", "t": "-1,-2,-1"}


def test_rootsys_show(capsys):
    code, out = run(capsys, "rootsys", "show", "--type", "A2")
    assert code == 0
    data = json.loads(out)
    assert data["theta"] == [1, 1] and data["weyl_order"] == 6


def test_weyl_length_and_grassmannian(capsys):
    code, out = run(capsys, "weyl", "length", "--type", "A2", "--word", "0")
    assert code == 0
    assert json.loads(out)["length"] == 1
    code, out = run(capsys, "weyl", "grassmannian", "--type", "A2", "--word", "0")
    assert json.loads(out)["grassmannian"] is True
    code, out = run(capsys, "weyl", "covers", "--type", "A1", "--word", "0")
    data = json.loads(out)
    assert len(data["cocovers"]) == 1


def test_qbg_commands(capsys):
    code, out = run(capsys, "qbg", "export", "--type", "A1")
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 2 and len(data["edges"]) == 2
    code, out = run(capsys, "qbg", "export", "--type", "A1", "--dot")
    assert out.startswith("digraph")
    code, out = run(capsys, "qbg", "tilted", "--type", "A2", "--u", "id", "--w", "s1", "--v", "s1 s2")
    assert json.loads(out)["tilted_leq"] is True


def test_qh_gw_and_poly(capsys):
    code, out = run(capsys, "qh", "gw", "--type", "A1", "--u", "s1", "--v", "s1", "--w", "id", "--qexp", "1")
    assert json.loads(out) == {"coefficient": "1"}
    code, out = run(capsys, "qh", "schubert-poly", "--type", "A2", "--w", "s1")
    data = json.loads(out)
    assert data["terms"] == [{"coefficient": "1", "q": "", "word": [1]}]


def test_gr_commands(capsys):
    code, out = run(capsys, "gr", "product", "--type", "A1", "--x", "0", "--z", "0")
    assert code == 0
    data = json.loads(out)
    assert data["product"] == {'{"t": [-1], "w": "id"}': 1}
    code, out = run(capsys, "gr", "pieri0", "--type", "A1", "--x", "0")
    assert json.loads(out) == {'{"t": [-1], "w": "id"}': 1}
    code, out = run(capsys, "gr", "j-class", "--type", "A1", "--w", "s1", "--t", "-12")
    data = json.loads(out)
    assert len(data["j"]) == 3


def test_lm_and_strange(capsys):
    code, out = run(capsys, "lm-map", "--n", "7", "--j", "4", "--partition", "3,2")
    assert json.loads(out) == {"s4 s5 s2 s3 s4": 1}
    code, out = run(capsys, "strange-dual", "--n", "4", "--j", "2", "--w", "id")
    assert json.loads(out) == {"(id,q^0)": "1"}


def test_pw_lift(capsys):
    code, out = run(capsys, "pw-lift", "--type", "A3", "--ip", "2,3", "--coset", "-1")
    assert json.loads(out) == {"lam_B": "-1,-1,-1", "I_P'": [2], "v": "s2 s3"}


def test_verify_exit_code(capsys):
    code, out = run(capsys, "verify", "paper-examples")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_compare_restricted(capsys):
    code, out = run(capsys, "verify", "compare", "--type", "A1", "--qdeg", "2")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True and data["checks"] > 0


def test_determinism(capsys):
    _, out1 = run(capsys, "qh", "product", "--type", "A2", "--u", "s1 s2", "--v", "s2 s1", "--equivariant")
    _, out2 = run(capsys, "qh", "product", "--type", "A2", "--u", "s1 s2", "--v", "s2 s1", "--equivariant")
    assert out1 == out2


def test_bad_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["qh", "product", "--type", "A1"])
    assert exc.value.code == 2
    assert main(["rootsys", "show", "--type", "Z9"]) == 2


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["qh", "product", "--type", "A2", "--u", "s9", "--v", "s1"], "letter 9"),
        (["weyl", "length", "--type", "A2", "--word", "0 1 7"], "letter 7"),
        (["gr", "j-class", "--type", "A1", "--w", "s1", "--t", "-1"], "margin needed 8, found -4"),
        (["verify", "chevalley", "--type", "A1"], "does not accept types"),
        (["lm-map", "--n", "4", "--j", "0", "--partition", "1"], "j must lie in 1..n-1"),
        (["strange-dual", "--n", "4", "--j", "5", "--w", "s1"], "j must lie in 1..n-1"),
        (["verify", "compare", "--qdeg", "-1"], "qdeg must be at least 0"),
        (["strange-dual", "--n", "3", "--j", "1", "--w", "s1 s2"], "s1 s2 does not lie in W^P"),
        (["verify", "bogus"], "unknown suite 'bogus'"),
        (["lm-map", "--n", "4", "--j", "2", "--partition", "3,-1"], "partition parts must be nonnegative, got -1"),
        (["lm-map", "--n", "4", "--j", "2", "--partition=-2"], "partition parts must be nonnegative, got -2"),
        (["pi-p", "--type", "A3", "--ip", "2", "--coroot", "x,0,0"], "'x' in 'x,0,0' is not an integer"),
        (["pw-lift", "--type", "A3", "--ip", "2", "--coset", "x"], "'x' in 'x' is not an integer"),
        (["gr", "j-class", "--type", "A1", "--w", "s1", "--t", "x"], "'x' in 'x' is not an integer"),
        (["lm-map", "--n", "4", "--j", "2", "--partition", "2,x"], "'x' in '2,x' is not an integer"),
        (["weyl", "length", "--type", "A2", "--word", "s1 sx"], "'x' in 's1 sx' is not an integer"),
        # argparse's own failures, in the parser and in a subparser
        (["qh", "product", "--type", "A2", "--u", "s1", "s2", "--v", "s1"], "unrecognized arguments: s2"),
        (["qh", "product", "--type", "A2", "--u", "s1"], "the following arguments are required: --v"),
        (["bogus"], "invalid choice: 'bogus'"),
        (["lm-map", "--n", "x", "--j", "1", "--partition", "1"], "invalid int value: 'x'"),
        (["lm-map", "--n", "0", "--j", "1", "--partition", "1"], "n must lie in 2..9, got n = 0"),
        (["strange-dual", "--n", "10", "--j", "1", "--w", "s1"], "n must lie in 2..9, got n = 10"),
    ],
)
def test_malformed_input_exit_2_one_error_line(capsys, argv, needle):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse exits from inside parse_args
        code = exc.code
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert code == 2 and captured.out == ""
    assert len(lines) == 1 and lines[0].startswith("error:") and needle in lines[0]


def test_cli_imports_only_the_layers_a_command_uses(run_python):
    lazy = ["suites", "peterson", "parabolic", "quantum", "nilhecke", "qbruhat", "coeffring"]
    code = "\n".join([
        "import sys",
        "import qaffine.cli",
        f"print(sorted(m for m in {lazy!r} if 'qaffine.' + m in sys.modules))",
        "qaffine.cli.main(['pi-p', '--type', 'A3', '--ip', '2', '--coroot', '1,0,0'])",
        f"print(sorted(m for m in {lazy!r} if 'qaffine.' + m in sys.modules))",
        "qaffine.cli.main(['qh', 'product', '--type', 'A1', '--u', 's1', '--v', 's1'])",
        "print('qaffine.quantum' in sys.modules, 'qaffine.suites' in sys.modules)",
    ])
    lines = run_python("-c", code).stdout.splitlines()
    assert lines[0] == "[]"
    # pi_P needs the parabolic layer and its coefficient ring, not the affine route
    assert lines[2] == "['coeffring', 'parabolic']"
    assert lines[-1] == "True False"


@pytest.mark.parametrize("suite", ["chevalley", "compare", "lapointe-morse", "operators", "paper-examples",
                                   "parabolic", "peterson-borel", "positivity", "tilted"])
def test_verify_reports_the_same_under_python_O(suite, run_python):
    # every certificate is an explicit raise, so python -O checks as much
    runs = [run_python(*flags, "-m", "qaffine.cli", "verify", suite, check=False) for flags in ([], ["-O"])]
    plain, optimized = runs
    assert plain.returncode == optimized.returncode == 0
    assert optimized.stdout == plain.stdout
    checks = {"chevalley": 610, "compare": 4682, "lapointe-morse": 174, "operators": 375, "paper-examples": 8,
              "parabolic": 142, "peterson-borel": 204, "positivity": 4951, "tilted": 728}
    assert json.loads(plain.stdout)["checks"] == checks[suite]


# the stdout of each command in the README's "Command line" block: the text
# itself, or the sha256 of a long one
README_OUTPUTS = {
    'qaffine rootsys show --type B3':
        'sha256:58f49debd8349d196d723c96ed9d9292c4695bc7f307a6e996ee88d8e0add7c6',
    'qaffine weyl length --type A2 --word "0 1 2"':
        '{"element": {"t": [0, 1], "w": "r1"}, "length": 3}',
    'qaffine weyl covers --type A2 --w "r1" --t -1,0':
        'sha256:bdf769d480a71c08328e126398f4b24d6faf6c1377a153ba60152e56309a639a',
    'qaffine qbg export --type A2 --dot':
        'sha256:6409ce8399495d93a98e2b9f161498ab1a74de69410eb6273b2d7a7f24063b4f',
    'qaffine qbg tilted --type A2 --u id --w s1 --v "s1 s2"':
        '{"d(u,v)": 2, "d(u,w)": 1, "tilted_leq": true}',
    'qaffine qh product --type A1 --u s1 --v s1 --equivariant':
        '{"(id,q1)": "1", "(s1,)": "a1"}',
    'qaffine qh schubert-poly --type B2 --w "s2 s1"':
        'sha256:8400b0129eba8822b7a8d44b3fb8ff536801bdae6d4b0bf86201517e02e37c7c',
    'qaffine qh gw --type A2 --u s1 --v s2 --w id --qexp 1,1':
        '{"coefficient": "0"}',
    'qaffine gr product --type A1 --x 0 --z 0':
        '{"denominator": [0], "product": {"{\\"t\\": [-1], \\"w\\": \\"id\\"}": 1}}',
    'qaffine gr j-class --type A1 --w s1 --t -12':
        'sha256:1f01a49bfebdd09b1200b8873f5f2c120dd165b601ca56dfbbae3574ff2984b4',
    'qaffine gr pieri0 --type A2 --x 0':
        '{"{\\"t\\": [-1, -1], \\"w\\": \\"r1 r2\\"}": 1, "{\\"t\\": [-1, -1], \\"w\\": \\"r2 r1\\"}": 1}',
    'qaffine pi-p --type B3 --ip 2,3 --coroot -1,0,0':
        '{"t": "-1,-2,-1", "w": "r2 r3 r2"}',
    'qaffine pw-lift --type A3 --ip 2,3 --coset -1':
        '{"I_P\'": [2], "lam_B": "-1,-1,-1", "v": "s2 s3"}',
    'qaffine strange-dual --n 4 --j 2 --w "s1 s2"':
        '{"(s3 s2,q^-1)": "1"}',
    'qaffine lm-map --n 7 --j 4 --partition 3,2':
        '{"s4 s5 s2 s3 s4": 1}',
    'qaffine verify compare --type A2 --qdeg 2':
        '{"checks": 731, "failures": [], "ok": true, "suite": "compare"}',
}


def test_readme_commands_print_pinned_output(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.splitlines() if line.startswith("qaffine ")]
    assert commands == list(README_OUTPUTS)
    for command, want in README_OUTPUTS.items():
        code, out = run(capsys, *shlex.split(command)[1:])
        assert code == 0, command
        if want.startswith("sha256:"):
            assert "sha256:" + hashlib.sha256(out.encode()).hexdigest() == want, command
        else:
            assert out == want + "\n", command

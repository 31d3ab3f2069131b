import hashlib
import importlib.util
import json
import operator
import os
import subprocess
import sys
from concurrent.futures import Future

import pytest

from gpd import cli, verify
from gpd.cli import main, render_flux_lattice
from gpd import flux as fluxmod

from test_flux import DREAM1, DREAM2


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_reference_values(capsys):
    code, out, _ = run(capsys, "count", "--m", "4", "--n", "5", "--beta", "WWWW", "--pi", "1,2,5,3")
    assert code == 0 and out == "78\n"
    code, out, _ = run(capsys, "count", "--m", "4", "--n", "5", "--beta", "EWEW", "--pi", "1,2,5,3")
    assert code == 0 and out == "76\n"


def test_poly_1x1(capsys):
    code, out, _ = run(capsys, "poly", "--m", "1", "--n", "1", "--beta", "W", "--pi", "1")
    assert code == 0 and out == "A + B\n"


def test_poly_json_is_stable(capsys):
    code, first, _ = run(capsys, "poly", "--m", "2", "--n", "2", "--pi", "2,1", "--format", "json")
    code2, second, _ = run(capsys, "poly", "--m", "2", "--n", "2", "--pi", "2,1", "--format", "json")
    assert code == code2 == 0
    assert first == second
    payload = json.loads(first)
    assert payload["beta"] == "WW" and payload["pi"] == [2, 1]


def test_schubert_command(capsys):
    code, out, _ = run(capsys, "schubert", "--m", "3", "--n", "3", "--pi", "3,1,2")
    assert code == 0
    assert out.strip() == "x1^2 - x1*y1 - x1*y2 + y1*y2"


def test_enumerate_stream_deterministic(capsys):
    code, first, _ = run(capsys, "enumerate", "--m", "2", "--n", "2", "--beta", "WE")
    code2, second, _ = run(capsys, "enumerate", "--m", "2", "--n", "2", "--beta", "WE")
    assert code == code2 == 0 and first == second
    blocks = [b for b in first.split("\n\n") if b.strip()]
    assert len(blocks) == 3  # all 2x2 dreams of type WE


def test_enumerate_streams_the_joined_bytes(capsys, tmp_path):
    # each dream is written as the walk yields it; the bytes are those of
    # the whole stream joined with "\n", on stdout and with --out alike
    from gpd.grid import enumerate_dreams, serialize

    for beta in ("WEW", "EEW"):
        joined = "\n".join(serialize(d) for d in enumerate_dreams(3, 3, beta))
        code, out, _ = run(capsys, "enumerate", "--m", "3", "--n", "3", "--beta", beta)
        assert code == 0 and out == joined
        target = tmp_path / f"{beta}.txt"
        assert main(["enumerate", "--m", "3", "--n", "3", "--beta", beta, "--out", str(target)]) == 0
        assert target.read_bytes() == joined.encode()


def test_traced_run_smoke(tmp_path):
    # the benchmark's tracer wraps gpd names by attribute at install time;
    # a traced verify ybe fails here if a refactor removes one of them
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    metrics = tmp_path / "m.json"
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "traced_gpd.py"), src, str(metrics),
         "verify", "ybe"],
        cwd=root, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "PASS yang-baxter" in done.stdout.splitlines()
    assert json.loads(metrics.read_text())["yangbaxter.cluster_sums"] == 32


def test_tracer_inner_names_resolve():
    # the tracer looks every undotted INNER name up in its gpd module at
    # install time, so a refactor that deletes one crashes every traced
    # run; any other name it spans (a method, a GROUPS or CALLS member) is
    # wrapped only if it still resolves, and a metric of names that do not
    # silently reads 0
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(root, "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for short, names in tracer.INNER.items():
        module = importlib.import_module(f"gpd.{short}")
        for name in names:
            if "." not in name:
                assert callable(getattr(module, name, None)), f"{short}.{name}"
    spanned = {f"{short}.{name}" for short, names in tracer.INNER.items() for name in names}
    for table in (tracer.GROUPS, tracer.CALLS):
        spanned.update(name for names in table.values() for name in names)
    unresolved = set()
    for name in spanned:
        short, attr = name.split(".", 1)
        try:
            operator.attrgetter(attr)(importlib.import_module(f"gpd.{short}"))
        except AttributeError:
            unresolved.add(name)
    # pinned: three names the tracer still spans left _packed earlier, so
    # packed.unpack_*, packed.pack_s and packed.product_calls read 0
    assert unresolved == {"_packed.Packer.unpack", "_packed.Packer.pack_poly", "_packed.product"}


def test_verify_check_names_are_the_parsers():
    # argparse reads cli's own tuple, since import gpd.cli loads no verify
    assert cli._CHECK_NAMES == tuple(verify.CHECKS)


def test_import_builds_no_pool_and_no_layouts():
    # the process pool and the Yang-Baxter layouts cost every command at
    # import; only --jobs > 1 and the ybe check need them
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    probe = (
        "import sys, gpd.cli\n"
        "from gpd import yangbaxter\n"
        "print('concurrent.futures.process' in sys.modules, yangbaxter._layouts.cache_info().misses)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "0"]


def test_only_json_output_loads_json():
    # the json module costs every command at import; text output runs
    # without it
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    probe = (
        "import contextlib, io, sys, gpd.cli\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert gpd.cli.main(list(argv)) == 0, argv\n"
        "    return 'json' in sys.modules\n"
        "print(run('verify', 'beta', '--m', '2', '--n', '2'),\n"
        "      run('count', '--m', '2', '--n', '2', '--format', 'json'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]


def test_poly_leaves_numpy_ma_unloaded():
    # np.unique without return_inverse asks numpy.ma whether its argument
    # is masked, which imports numpy.ma; the text order finds its distinct
    # degrees and substitute its groups without it, so poly, schubert and
    # verify ybe (whose diamonds substitute y1) never load numpy.ma
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    probe = (
        "import contextlib, io, sys, gpd.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert gpd.cli.main(['poly', '--m', '3', '--n', '3', '--pi', '1,2,3']) == 0\n"
        "    assert gpd.cli.main(['schubert', '--m', '3', '--n', '3', '--pi', '2,1,3']) == 0\n"
        "    assert gpd.cli.main(['verify', 'ybe']) == 0\n"
        "print('numpy.ma' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_commands_load_only_the_modules_they_run():
    # import gpd.cli loads NumPy (the benchmark's setup child reads its
    # version) but none of the modules that only some commands run
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    probe = (
        "import contextlib, io, json, sys\n"
        "import gpd.cli\n"
        "heavy = ['gpd.schubert', 'gpd.verify', 'gpd.flux', 'gpd.yangbaxter']\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert gpd.cli.main(list(argv)) == 0, argv\n"
        "    return [m for m in heavy if m in sys.modules]\n"
        "seen = {'import': [m for m in heavy if m in sys.modules], 'numpy': 'numpy' in sys.modules}\n"
        "seen['count'] = run('count', '--m', '3', '--n', '4', '--pi', '2,1,4')\n"
        "seen['enumerate'] = run('enumerate', '--m', '2', '--n', '3', '--pi', '3,1')\n"
        "seen['poly'] = run('poly', '--m', '2', '--n', '2', '--pi', '2,1')\n"
        "seen['verify'] = run('verify', 'beta', '--m', '2', '--n', '2')\n"
        "print(json.dumps(seen))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen["numpy"] is True
    assert seen["import"] == seen["count"] == seen["enumerate"] == []
    assert "gpd.verify" not in seen["poly"]
    assert "gpd.flux" not in seen["verify"] and "gpd.yangbaxter" not in seen["verify"]


def test_ybe_and_pool_are_made_on_use(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "ybe")
    assert code == 0 and out == "PASS yang-baxter\n"
    from concurrent.futures import ProcessPoolExecutor

    made = []
    make = verify.ProcessPoolExecutor

    def spy(max_workers):
        made.append(make(max_workers))
        return made[-1]

    monkeypatch.setattr(verify, "ProcessPoolExecutor", spy)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    code, out, _ = run(capsys, "verify", "beta", "--m", "2", "--n", "3", "--jobs", "2")
    assert code == 0 and out == "PASS beta-independence (2,3)\n"
    assert len(made) == 1 and isinstance(made[0], ProcessPoolExecutor)


def test_enumerate_nongeneric_filter(capsys):
    from gpd.grid import Tile, parse_dream

    code, out, _ = run(
        capsys, "enumerate", "--m", "2", "--n", "2", "--beta", "WE", "--mode", "nongeneric"
    )
    assert code == 0
    for block in out.split("\n\n"):
        if not block.strip():
            continue
        d = parse_dream(block)
        assert Tile.STRAIGHT_V not in d.tiles[0]  # W row
        assert Tile.DOUBLE_ELBOW not in d.tiles[1]  # E row


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "all", "--m", "2", "--n", "2")
    assert code == 0
    names = [line.split(" ", 1)[0] for line in out.strip().splitlines()]
    assert names == ["PASS"] * 7


def test_verify_ybe_modes(capsys):
    for mode in ("ww", "we"):
        code, out, _ = run(capsys, "verify", "ybe", "--mode", mode)
        assert code == 0 and out.startswith("PASS")


class _PoolRecorder:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    def __init__(self, seen, max_workers):
        seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def _record_pools(monkeypatch):
    seen = []
    monkeypatch.setattr(
        verify, "ProcessPoolExecutor", lambda max_workers: _PoolRecorder(seen, max_workers)
    )
    return seen


def test_verify_jobs_do_not_change_bytes(capsys, monkeypatch):
    code, serial, _ = run(capsys, "verify", "beta", "--m", "2", "--n", "3")
    code2, parallel, _ = run(capsys, "verify", "beta", "--m", "2", "--n", "3", "--jobs", "2")
    assert code == code2 == 0
    assert serial == parallel
    seen = _record_pools(monkeypatch)
    many = str(4 * (os.cpu_count() or 1) + 1)
    code3, capped, _ = run(capsys, "verify", "beta", "--m", "2", "--n", "3", "--jobs", many)
    assert code3 == 0 and capped == serial
    assert all(w <= (os.cpu_count() or 1) for w in seen)


@pytest.mark.parametrize(
    "jobs, cpus, m, workers",
    [
        (64, 3, 2, [3]),  # capped by the CPUs
        (64, 8, 2, [4]),  # capped by the 4 row types of m = 2
        (2, 8, 3, [2]),  # as asked
        (64, None, 3, []),  # unknown CPU count: serial, no pool
        (64, 8, 1, [2]),  # the 2 row types of m = 1
    ],
)
def test_beta_check_caps_workers(monkeypatch, jobs, cpus, m, workers):
    seen = _record_pools(monkeypatch)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    assert verify.run_checks(["beta"], m, 3, jobs=jobs)[0].ok
    assert seen == workers


# stdout SHA-256 as the term-by-term renderer and the row-by-row
# enumeration wrote it; any change to the canonical text or to the dream
# stream order fails here
_GOLDEN_SHA256 = {
    ("poly", "--m", "3", "--n", "4", "--pi", "1,2,4"):
        "e0e7b6305640e279071debd98f95d0288e44b5e324b85a181f85d7df982eae29",
    ("poly", "--m", "3", "--n", "4", "--pi", "1,2,4", "--format", "json"):
        "aea671b3c064e435367d6a91494e1d6aeb7f343ee8c29db3394037f018ea1ca5",
    ("poly", "--m", "4", "--n", "4", "--pi", "1,3,4,2"):
        "ba090822f59312ecf9a7b2a5cd2b2f8facb7f1c535713168d9ff371b76eebc87",
    ("schubert", "--m", "3", "--n", "4", "--pi", "2,3,1"):
        "740b22a1e402409de5af32de1a430882ec5cffe5a7a968f04c7cf047ded87d86",
    ("enumerate", "--m", "3", "--n", "4", "--beta", "WWW"):
        "e6ee10c2150ef19f45e49ba96414742d3b95991329bf5d784ef9e02405626ff8",
    ("enumerate", "--m", "3", "--n", "4", "--beta", "WWE"):
        "ca221080461395e77433537ca6c61cbc96aefb94e21e6696f72b43f6936b72e2",
    ("enumerate", "--m", "3", "--n", "4", "--beta", "WEW"):
        "3fa7d1e8d5736390344f3874705a93274dd9c01cd577a3d46f7c5602f840658b",
    ("enumerate", "--m", "3", "--n", "4", "--beta", "WEE"):
        "b7853a9154334f63c1d0ab6ef48dec814ec73b8af6faeaf32f0b181da55c329b",
    ("enumerate", "--m", "3", "--n", "4", "--beta", "EWW"):
        "f5cdc436a55474b12717b161e7fae16f3f26e9cd34b9a691e74de1a635aacad0",
    ("enumerate", "--m", "3", "--n", "4", "--beta", "EWE"):
        "8cd94683baa18a2835b87bc7085ddf3286df574e649f9e292c2d6c451fb44324",
    ("enumerate", "--m", "3", "--n", "4", "--beta", "EEW"):
        "ebe728fe7d00887a901629f3a8a78f1ac88989023da831965bd37c66cf607907",
    ("enumerate", "--m", "3", "--n", "4", "--beta", "EEE"):
        "07ea084598e66427591e7762581ca15bd075851300d79cd20a4e4f55d4692a47",
    ("enumerate", "--m", "3", "--n", "4", "--beta", "EWE", "--format", "json"):
        "00793412cbfbe5ed24aad363fa1a0ef5c687d02adb4104a811eecf5c8b82f8c5",
    ("enumerate", "--m", "3", "--n", "4", "--beta", "WWW", "--mode", "nongeneric"):
        "7c451a4927a532f0a774238faa618f63e248660d2fa51c03bdcc2da34cc5afd9",
    ("enumerate", "--m", "3", "--n", "4", "--beta", "EWE", "--mode", "nongeneric"):
        "92b1b6e09766dc146ed046457952322a0eb26660ce0eb6fc580bfc31fb0025c3",
    ("enumerate", "--m", "3", "--n", "4", "--pi", "3,1,4"):
        "64030646a430d403e543532e4c8f8852d161288f80a9bced446a5395eae09b52",
    ("count", "--m", "4", "--n", "5", "--beta", "WEEW"):
        "d34bcccbcfa9c6fba360a029db238556547a9d204d5b41545cdaf08b0d220514",
}


@pytest.mark.parametrize("argv", list(_GOLDEN_SHA256))
def test_polynomial_output_bytes_are_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _GOLDEN_SHA256[argv]


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "count", "--m", "3", "--n", "2", "--beta", "WWW")[0] == 2
    assert run(capsys, "count", "--m", "2", "--n", "2", "--beta", "QQ")[0] == 2
    assert run(capsys, "poly", "--m", "2", "--n", "2", "--pi", "1,1")[0] == 2
    assert run(capsys, "count", "--m", "6", "--n", "6", "--beta", "WWWWWW")[0] == 2


def test_max_work_override(capsys):
    argv = ["count", "--m", "1", "--n", "31", "--beta", "W", "--pi", "31"]
    assert run(capsys, *argv)[0] == 2  # 31 cells exceeds the default guard
    code, out, _ = run(capsys, *argv, "--max-work", "31")
    assert code == 0 and out == "1\n"


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "g.txt"
    code, out, _ = run(
        capsys, "poly", "--m", "1", "--n", "1", "--pi", "1", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text() == "A + B\n"


def test_flux_lattice_shape(capsys):
    code, out, _ = run(capsys, "flux", "--m", "2", "--n", "2", "--beta", "WE")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5  # (2m+1) lattice rows
    assert "x11y11+x12y21" in lines[1]
    assert "x11y11+x21y12" in lines[0]


_DREAM_TEXT = {
    DREAM1: """\
connectivity: 1,2
zero X entries: x12, x21
zero Y entries: none
independent equations: 2
flux labels (nonzero):
  H(0,1) = t1
  H(0,2) = t2
  H(1,2) = t2
  V(1,0) = t1
  V(2,2) = t2
""",
    DREAM2: """\
connectivity: 1,2
zero X entries: none
zero Y entries: y22
independent equations: 2
flux labels (nonzero):
  H(0,1) = t1
  H(0,2) = t2
  H(1,1) = t2
  V(1,0) = t1
  V(1,1) = t2
  V(2,1) = t2
  V(2,2) = t2
""",
}

_DREAM_JSON = {
    DREAM1: {
        "beta": "WE",
        "flux_labels": {"H(0,1)": 1, "H(0,2)": 2, "H(1,2)": 2, "V(1,0)": 1, "V(2,2)": 2},
        "independent_equations": 2,
        "m": 2,
        "n": 2,
        "pi": [1, 2],
        "zero_x": [[1, 2], [2, 1]],
        "zero_y": [],
    },
    DREAM2: {
        "beta": "WE",
        "flux_labels": {
            "H(0,1)": 1, "H(0,2)": 2, "H(1,1)": 2, "V(1,0)": 1,
            "V(1,1)": 2, "V(2,1)": 2, "V(2,2)": 2,
        },
        "independent_equations": 2,
        "m": 2,
        "n": 2,
        "pi": [1, 2],
        "zero_x": [],
        "zero_y": [[2, 2]],
    },
}


def test_flux_dream_equations(tmp_path, capsys):
    # stdout byte for byte: edge names print as V(i,j) / H(i,j)
    dream = tmp_path / "d.txt"
    for text in (DREAM1, DREAM2):
        dream.write_text(text)
        assert run(capsys, "flux", "--dream", str(dream)) == (0, _DREAM_TEXT[text], "")
        want = json.dumps(_DREAM_JSON[text], sort_keys=True, indent=2) + "\n"
        assert run(capsys, "flux", "--dream", str(dream), "--format", "json") == (0, want, "")


def test_flux_bad_dream_names_the_edge(tmp_path, capsys):
    dream = tmp_path / "bad.txt"
    dream.write_text("1 2\nW\nnn\n")  # second cell claims a West pipe that is not there
    code, out, err = run(capsys, "flux", "--dream", str(dream))
    assert code == 2 and out == ""
    assert "V(1,1)" in err


def test_flux_requires_dream_or_shape(capsys):
    assert run(capsys, "flux")[0] == 2


def test_render_flux_lattice_dimensions():
    table = fluxmod.flux_grid(1, 3, "W")
    text = render_flux_lattice(1, 3, table)
    assert len(text.splitlines()) == 3


def test_verify_json_carries_failures(capsys, monkeypatch):
    from gpd import cli

    def failing(m, n, mode):
        for k in range(7):
            yield f"broken flip {k}"

    crossing = verify.CHECKS["crossing"]._replace(failures=failing)
    monkeypatch.setitem(verify.CHECKS, "crossing", crossing)
    code, out, _ = run(capsys, "verify", "crossing", "--format", "json")
    assert code == 1
    assert json.loads(out) == {
        "checks": [
            {
                "name": "crossing-flip (n<=5)",
                "status": "FAIL",
                "failures": [f"broken flip {k}" for k in range(5)],
            }
        ]
    }
    code, out, _ = run(capsys, "verify", "crossing")
    assert code == 1
    assert out == "FAIL crossing-flip (n<=5): broken flip 0\n" + "".join(
        f"     broken flip {k}\n" for k in range(1, 5)
    )


def test_memory_error_exits_2(capsys, monkeypatch):
    # the backstop for an admitted input that does not fit, without running out
    def exhausted(*args):
        raise MemoryError("Unable to allocate 2.00 GiB for an array")

    monkeypatch.setattr("gpd.grid.count_dreams", exhausted)
    code, out, err = run(capsys, "count", "--m", "2", "--n", "2")
    assert code == 2 and out == ""
    assert err == "error: out of memory (MemoryError) Unable to allocate 2.00 GiB for an array\n"

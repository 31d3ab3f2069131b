import json

from gpd.cli import main, render_flux_lattice
from gpd import flux as fluxmod


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


def test_verify_jobs_do_not_change_bytes(capsys):
    code, serial, _ = run(capsys, "verify", "beta", "--m", "2", "--n", "3")
    code2, parallel, _ = run(capsys, "verify", "beta", "--m", "2", "--n", "3", "--jobs", "2")
    assert code == code2 == 0
    assert serial == parallel


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


def test_flux_dream_equations(tmp_path, capsys):
    dream = tmp_path / "d.txt"
    dream.write_text("2 2\nWE\nn|\n.n\n")
    code, out, _ = run(capsys, "flux", "--dream", str(dream))
    assert code == 0
    assert "x21" in out and "x12" in out
    assert "independent equations: 2" in out
    code, out, _ = run(capsys, "flux", "--dream", str(dream), "--format", "json")
    payload = json.loads(out)
    assert payload["zero_x"] == [[1, 2], [2, 1]]
    assert payload["independent_equations"] == 2


def test_flux_requires_dream_or_shape(capsys):
    assert run(capsys, "flux")[0] == 2


def test_render_flux_lattice_dimensions():
    table = fluxmod.flux_grid(1, 3, "W")
    text = render_flux_lattice(1, 3, table)
    assert len(text.splitlines()) == 3


def test_verify_json_carries_failures(capsys, monkeypatch):
    from gpd import cli

    def failing(args):
        report = cli.CheckReport("crossing-flip (n<=5)")
        for k in range(7):
            report.fail(f"broken flip {k}")
        return report

    monkeypatch.setitem(cli._CHECKS, "crossing", failing)
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

"""Command-line surface: outputs, determinism, exit codes."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from permsym import cli
from permsym import hilbert as hb
from permsym import models as md
from permsym import sectors as sec
from permsym import symgroup as sg
from permsym import symmetriser as sym

from dense_json import decompose_report, matrix_obj, vector_obj


def run_cli(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "text,value",
    [
        ("1", 1 + 0j),
        ("-2.5", -2.5 + 0j),
        ("1+2i", 1 + 2j),
        ("-i", -1j),
        ("i", 1j),
        ("0.3-0.7j", 0.3 - 0.7j),
        (" 2 i ", 2j),
    ],
)
def test_parse_complex(text, value):
    assert cli.parse_complex(text) == value


@pytest.mark.parametrize("bad", ["", "abc", "1+", "2i2"])
def test_parse_complex_rejects(bad):
    with pytest.raises(ValueError):
        cli.parse_complex(bad)


def test_decompose_json_report(capsys):
    code, out, _ = run_cli(capsys, ["decompose", "--n", "3", "--d", "2", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["tolerance"] == hb.EPS_ABS  # the rays' certificate tolerance
    assert report["ranks"] == {"symmetric": 4, "antisymmetric": 0, "para": 4}
    total = sum(
        ray["dim"] for comp in report["components"] for ray in comp["rays"]
    )
    assert total == 8
    by_partition = {tuple(c["partition"]): c for c in report["components"]}
    assert by_partition[(2, 1)]["copies"] == 2
    assert by_partition[(1, 1, 1)]["rays"] == []


def test_decompose_seven_particles(capsys):
    code, out, _ = run_cli(capsys, ["decompose", "--n", "7", "--d", "2", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["ranks"] == {"symmetric": 8, "antisymmetric": 0, "para": 120}
    assert sum(ray["dim"] for comp in report["components"] for ray in comp["rays"]) == 128


def test_decompose_single_particle_is_usage_error(capsys):
    code, out, err = run_cli(capsys, ["decompose", "--n", "1", "--d", "3"])
    assert code == 2
    assert out == ""
    assert "n >= 2" in err


def test_sector_commands_never_cross_the_group(capsys, monkeypatch):
    crossings, draws = [], []
    enumerate_group, rng_for = sg.all_permutations, hb.rng_for
    monkeypatch.setattr(sg, "all_permutations", lambda n: crossings.append(n) or enumerate_group(n))
    monkeypatch.setattr(hb, "rng_for", lambda seed: draws.append(seed) or rng_for(seed))
    code, _, _ = run_cli(capsys, ["decompose", "--n", "4", "--d", "2", "--json"])
    assert code == 0
    v = np.full(16, 0.25, dtype=complex)
    monkeypatch.setattr(sys, "stdin", io.StringIO(hb.vector_to_json(v)))
    code, _, _ = run_cli(capsys, ["classify", "--n", "4", "--d", "2", "--input", "-"])
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(hb.matrix_to_json(np.eye(16) / 16)))
    code, _, _ = run_cli(capsys, ["superselect", "--n", "4", "--d", "2", "--input", "-"])
    assert code == 0
    # weight blocks and closed forms: no pass over S_4 and no random draw
    assert crossings == [] and draws == []


def test_decompose_ignores_the_seed(capsys):
    outputs = [
        run_cli(capsys, ["decompose", "--n", "4", "--d", "3", *seed, "--json"])[1]
        for seed in (["--seed", "0"], ["--seed", "5"], [])
    ]
    assert outputs[0] == outputs[1] == outputs[2]
    assert json.loads(outputs[0])["seed"] is None


@pytest.mark.parametrize("n,d", [(7, 4), (8, 5)])
@pytest.mark.parametrize("command", ["decompose", "classify"])
def test_assemblies_past_the_dense_budget_are_usage_errors(capsys, command, n, d):
    # refused by AssemblyConfig before any operator or input is read
    argv = [command, "--n", str(n), "--d", str(d)] + (["--input", "-"] if command == "classify" else [])
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert "exceeds cap" in err


@pytest.mark.parametrize("n", [sg.N_MAX + 1, 100])
def test_decompose_past_n_max_is_refused_before_any_partition_work(capsys, n):
    # p(100) is about 1.9e8: the refusal has to come before partitions(n)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["decompose", "--n", str(n), "--d", "1"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert f"exceeds supported maximum {sg.N_MAX}" in err


class Reached(Exception):
    """Raised in place of the decomposition, to see whether a guard let it start."""


@pytest.mark.parametrize(
    "n,d,json_flag,refused",
    [(8, 3, True, True), (6, 4, True, True), (5, 5, True, True), (7, 3, True, False), (8, 3, False, False)],
)
def test_dense_json_report_past_its_budget_is_usage_error(capsys, monkeypatch, n, d, json_flag, refused):
    def reached(config):
        raise Reached

    monkeypatch.setattr(sec, "all_isotypic", reached)
    argv = ["decompose", "--n", str(n), "--d", str(d)] + ["--json"] * json_flag
    if not refused:
        with pytest.raises(Reached):
            cli.run(argv)
        return
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert f"dim**2 = {(d**n) ** 2}" in err and str(cli.JSON_PAIR_CAP) in err


def test_decompose_human_output(capsys):
    code, out, _ = run_cli(capsys, ["decompose", "--n", "2", "--d", "2"])
    assert code == 0
    assert "symmetric     3" in out
    assert "antisymmetric 1" in out
    assert "para          0" in out


def test_decompose_text_report_builds_no_vectors(capsys, monkeypatch):
    def refuse(length, blocks):
        raise AssertionError("the text report wrote a ray vector")

    monkeypatch.setattr(hb, "rays_to_json", refuse)
    code, out, _ = run_cli(capsys, ["decompose", "--n", "4", "--d", "3"])
    assert code == 0
    assert out.splitlines()[:4] == [
        "sector ranks for n=4, d=3 (dim 81):",
        "  symmetric     15",
        "  antisymmetric 0",
        "  para          66",
    ]


@pytest.mark.parametrize("n,d", [(3, 2), (4, 3), (5, 3)])
def test_decompose_json_formats_its_entries_in_one_pass(capsys, monkeypatch, n, d):
    calls = []
    real_json_words = hb._real_json_words
    monkeypatch.setattr(hb, "_real_json_words", lambda flat: calls.append(flat.size) or real_json_words(flat))
    code, out, _ = run_cli(capsys, ["decompose", "--n", str(n), "--d", str(d), "--json"])
    assert code == 0 and json.loads(out)["command"] == "decompose"
    assert len(calls) == 1


@pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3), (6, 2)])
def test_decompose_json_is_the_dense_report(capsys, n, d):
    # the ray vectors placed in the report's gaps read as json.dumps would write them
    code, out, _ = run_cli(capsys, ["decompose", "--n", str(n), "--d", str(d), "--json"])
    assert code == 0
    assert out == json.dumps(decompose_report(n, d), allow_nan=False) + "\n"


def test_decompose_is_byte_deterministic(capsys):
    argv = ["decompose", "--n", "3", "--d", "2", "--seed", "5", "--json"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_symmetrise_single_slot_is_bit_exact(capsys, tmp_path):
    rng = hb.rng_for(77)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    text = hb.matrix_to_json(m)
    src = tmp_path / "m.json"
    src.write_text(text, encoding="utf-8")
    code, out, _ = run_cli(capsys, ["symmetrise", "--n", "1", "--d", "4", "--input", str(src)])
    assert code == 0
    assert out == text + "\n"


def test_symmetrise_two_coins(capsys, tmp_path):
    ht = hb.basis_state(hb.AssemblyConfig(2, 2), (0, 1)).projector()
    src = tmp_path / "ht.json"
    src.write_text(hb.matrix_to_json(ht), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["symmetrise", "--n", "2", "--d", "2", "--input", str(src)])
    assert code == 0
    got = hb.matrix_from_json(out)
    th = hb.basis_state(hb.AssemblyConfig(2, 2), (1, 0)).projector()
    assert np.array_equal(got, (ht + th) / 2)


def test_symmetrise_shape_mismatch_is_usage_error(capsys, tmp_path):
    src = tmp_path / "m.json"
    src.write_text(hb.matrix_to_json(np.eye(3)), encoding="utf-8")
    code, _, err = run_cli(capsys, ["symmetrise", "--n", "2", "--d", "2", "--input", str(src)])
    assert code == 2
    assert err == "error: expected shape (4, 4), got (3, 3)\n"


def test_missing_input_file_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, ["symmetrise", "--n", "2", "--d", "2", "--input", "/nonexistent.json"]
    )
    assert code == 2
    assert "error" in err


def test_verify_identities_passes(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify-identities", "--n", "2", "--d", "2", "--samples", "20", "--seed", "3"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["max_residual_a"] <= 1e-10
    assert report["max_residual_b"] <= 1e-10


def test_verify_identities_unreachable_tolerance_fails(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "verify-identities",
            "--n", "2", "--d", "2",
            "--samples", "5",
            "--tolerance", "1e-30",
        ],
    )
    assert code == 1
    assert json.loads(out)["pass"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-identities", "--n", "2", "--d", "2", "--samples", "2"],
        ["classify", "--n", "2", "--d", "2", "--input", "-"],
        ["fig3"],
    ],
)
def test_tolerance_defaults_to_eps_abs(capsys, monkeypatch, argv):
    # the parser leaves --tolerance unset; run fills in hilbert's constant
    assert cli.build_parser().parse_args(argv).tolerance is None
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"length": 4, "data": [[1, 0], [0, 0], [0, 0], [0, 0]]})))
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and json.loads(out)["tolerance"] == hb.EPS_ABS


@pytest.mark.parametrize("n,d", [(3, 2), (4, 3)])
@pytest.mark.parametrize("seed", [0, 7])
def test_verify_identities_symmetrises_twice_per_sample(capsys, monkeypatch, n, d, seed):
    # oracle: the residuals as four separate Σ calls per sample compute them
    config = hb.AssemblyConfig(n, d)
    rng = hb.rng_for(seed)
    worst_a = worst_b = 0.0
    for _ in range(3):
        w = hb.random_density(config, rng)
        q = hb.random_observable(config, rng)
        sw, sq = sym.symmetrise(config, w), sym.symmetrise(config, q)
        worst_a = max(worst_a, abs(complex(np.sum(sw.T * q)) - complex(np.sum(sw.T * sq))))
        worst_b = max(worst_b, abs(complex(np.sum(w.T * sq)) - complex(np.sum(sw.T * sq))))
    # each sample symmetrises W and Q once each, from one set of pair-orbit labels
    operands, labels = [], []
    symmetrise_each, pair_orbit_labels = sym._symmetrise_each, sym._pair_orbit_labels
    monkeypatch.setattr(sym, "_symmetrise_each", lambda c, *ops: operands.extend(ops) or symmetrise_each(c, *ops))
    monkeypatch.setattr(sym, "_pair_orbit_labels", lambda c: labels.append(c) or pair_orbit_labels(c))
    argv = ["verify-identities", "--n", str(n), "--d", str(d), "--samples", "3", "--seed", str(seed)]
    code, out, _ = run_cli(capsys, argv)
    assert (code, len(operands), len(labels)) == (0, 6, 3)
    report = json.loads(out)
    assert (report["max_residual_a"], report["max_residual_b"]) == (worst_a, worst_b)
    assert out == json.dumps(report) + "\n"


HH = hb.vector_to_json(hb.basis_state(hb.AssemblyConfig(2, 2), (0, 0)).amplitudes)


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--n", "2", "--d", "2", "--input", "-", "--tolerance", "-1"],
        ["classify", "--n", "2", "--d", "2", "--input", "-", "--tolerance", "nan"],
        ["classify", "--n", "2", "--d", "2", "--input", "-", "--tolerance", "inf"],
        ["verify-identities", "--n", "2", "--d", "2", "--samples", "0"],
        ["verify-identities", "--n", "2", "--d", "2", "--samples", "-3"],
        ["verify-identities", "--n", "2", "--d", "2", "--samples", "2", "--tolerance", "nan"],
        ["verify-identities", "--n", "2", "--d", "2", "--samples", "2", "--tolerance", "-0.5"],
        ["fig3", "--tolerance", "-1"],
        ["fig3", "--tolerance", "nan"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
)
def test_nonsensical_tolerance_or_sample_count_is_usage_error(capsys, monkeypatch, argv):
    # refused by argparse, before any work and before any output
    monkeypatch.setattr(sys, "stdin", io.StringIO(HH))
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert f"argument {argv[-2]}: must be" in err


def test_classify_reads_stdin(capsys, monkeypatch):
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0  # |HT>
    monkeypatch.setattr(sys, "stdin", io.StringIO(hb.vector_to_json(v)))
    code, out, _ = run_cli(capsys, ["classify", "--n", "2", "--d", "2", "--input", "-"])
    assert code == 0
    report = json.loads(out)
    assert report["label"] == "skew"
    assert report["weights"]["symmetric"] == pytest.approx(0.5)
    assert report["weights"]["antisymmetric"] == pytest.approx(0.5)


def test_classify_wrong_length_is_usage_error(capsys, tmp_path):
    src = tmp_path / "v.json"
    src.write_text(hb.vector_to_json(np.ones(3) / math.sqrt(3)), encoding="utf-8")
    code, _, err = run_cli(capsys, ["classify", "--n", "2", "--d", "2", "--input", str(src)])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "command,payload",
    [
        ("classify", vector_obj(np.full(4, np.nan))),
        ("symmetrise", matrix_obj(np.full((4, 4), np.nan))),
        ("superselect", matrix_obj(np.full((4, 4), np.nan))),
    ],
)
def test_non_finite_input_is_usage_error(capsys, monkeypatch, command, payload):
    # json.dumps writes NaN as a bare literal, which json.loads accepts
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    code, out, err = run_cli(capsys, [command, "--n", "2", "--d", "2", "--input", "-"])
    assert code == 2
    assert out == ""
    assert "non-finite" in err


def test_superselect_matches_block_truncation(capsys, tmp_path):
    cfg = hb.AssemblyConfig(3, 2)
    w = hb.random_density(cfg, hb.rng_for(31))
    src = tmp_path / "w.json"
    src.write_text(hb.matrix_to_json(w), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["superselect", "--n", "3", "--d", "2", "--input", str(src)])
    assert code == 0
    fam = sec.SectorProjectors.build(cfg)
    assert np.array_equal(hb.matrix_from_json(out), sym.superselect(fam, w))
    data = np.array(json.loads(out)["data"])
    assert not np.signbit(data[data == 0]).any()  # no -0.0 in the output


def test_coins_exact_bytes(capsys):
    code, out, _ = run_cli(capsys, ["coins", "--measure", "bose"])
    assert code == 0
    assert out == '{"HH": "1/3", "mixed": "1/3", "TT": "1/3"}\n'
    code, out, _ = run_cli(capsys, ["coins", "--measure", "maxwell_boltzmann"])
    assert code == 0
    assert out == '{"HH": "1/4", "HT": "1/4", "TH": "1/4", "TT": "1/4"}\n'
    code, out, _ = run_cli(capsys, ["coins", "--measure", "fermi_dirac"])
    assert code == 0
    assert out == '{"HH": "0", "mixed": "1", "TT": "0"}\n'


def test_coins_bad_measure_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, ["coins", "--measure", "pirate"])
    assert code == 2


def test_bloch_point_json(capsys):
    code, out, _ = run_cli(capsys, ["bloch", "--xi", "1", "--eta", "0"])
    assert code == 0
    report = json.loads(out)
    assert report["z"] == [1.0, 0.0]
    assert report["p"] == 0.5
    assert report["height"] == 1.0
    assert report["pure"] is True
    assert report["symmetric"] is False


def test_bloch_antisymmetric_pole(capsys):
    code, out, _ = run_cli(capsys, ["bloch", "--xi", "1", "--eta", "-1"])
    assert code == 0
    report = json.loads(out)
    assert report["z"] == "inf"
    assert report["p"] == 0.0
    assert report["height"] == 0.0


def test_bloch_complex_arguments(capsys):
    code, out, _ = run_cli(capsys, ["bloch", "--xi", "1+i", "--eta", "1-i"])
    assert code == 0
    report = json.loads(out)
    # z = (xi - eta)/(xi + eta) = i
    assert report["z"][0] == pytest.approx(0.0, abs=1e-15)
    assert report["z"][1] == pytest.approx(1.0, abs=1e-15)


def test_bloch_negative_real_part_needs_equals_form(capsys):
    code, out, _ = run_cli(capsys, ["bloch", "--xi=-0.5+1i", "--eta=1"])
    assert code == 0
    # z = (xi - eta)/(xi + eta) = (-1.5+i)/(0.5+i)
    z = (-1.5 + 1j) / (0.5 + 1j)
    assert json.loads(out)["z"] == pytest.approx([z.real, z.imag], abs=1e-15)


def test_bloch_amplitudes_near_the_float_limit_print_their_ray(capsys):
    # |1.5e308 (1 + i)| overflows a float; the ray is that of the same
    # amplitudes times 2**-600, and prints the same bytes
    xi, eta = complex(1.5e308, 1.5e308), complex(1.5e308, -1e308)
    code, out, err = run_cli(capsys, ["bloch", f"--xi={xi.real!r}+{xi.imag!r}i", f"--eta={eta.real!r}{eta.imag!r}i"])
    assert (code, err) == (0, "")
    xi, eta = xi * 2.0**-600, eta * 2.0**-600
    scaled = run_cli(capsys, ["bloch", f"--xi={xi.real!r}+{xi.imag!r}i", f"--eta={eta.real!r}{eta.imag!r}i"])
    assert scaled == (0, out, "")


def test_bloch_sweep_past_its_row_budget_is_usage_error(capsys):
    from permsym import casebook

    assert 1024**2 <= casebook.SWEEP_ROW_CAP < 1025**2
    start = time.perf_counter()
    with pytest.raises(ValueError, match="past the cap"):
        casebook.bloch_sweep(1025)
    code, out, err = run_cli(capsys, ["bloch", "--sweep", "100000"])
    assert (code, out) == (2, "")
    assert "past the cap" in err
    # refused before any row is built
    assert time.perf_counter() - start < 1.0


def test_bloch_needs_arguments(capsys):
    code, _, err = run_cli(capsys, ["bloch"])
    assert code == 2
    assert "error" in err


def test_bloch_sweep_csv(capsys):
    code, out, _ = run_cli(capsys, ["bloch", "--sweep", "5"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "theta,phi,re_z,im_z,p,re_q,im_q,x,y,height"
    assert len(lines) == 1 + 25
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 10
        x, y, h = float(cells[7]), float(cells[8]), float(cells[9])
        assert x * x + y * y + (h - 1.0) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert lines[-1].split(",")[2] == "inf"
    # byte determinism
    _, again, _ = run_cli(capsys, ["bloch", "--sweep", "5"])
    assert again == out


def test_fig3_passes(capsys):
    code, out, _ = run_cli(capsys, ["fig3"])
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert all(report["checks"].values())
    assert report["plane_commutant_dimension"] == 1
    assert report["orbit_span_rank"] == 2
    _, again, _ = run_cli(capsys, ["fig3"])
    assert again == out


# ---------------------------------------------------------------------------
# model and theory subcommands

MODEL = md.FiniteModel(("a", "b"), {"R": md.Relation(2, frozenset({("a", "b")}))})


def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(md.model_to_json(MODEL), encoding="utf-8")
    return str(path)


def test_model_echo_roundtrip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, ["model", "--input", model_file(tmp_path)])
    assert code == 0
    assert out == md.model_to_json(MODEL) + "\n"


def test_model_describe(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, ["model", "--input", model_file(tmp_path), "--describe", "state"]
    )
    assert code == 0
    formula = md.parse_formula(out.strip())
    assert md.satisfies(MODEL, formula)
    code, out, _ = run_cli(
        capsys, ["model", "--input", model_file(tmp_path), "--describe", "structure"]
    )
    assert code == 0
    formula = md.parse_formula(out.strip())
    assert out.strip().startswith("(exists")
    for m in md.permute_class(MODEL):
        assert md.satisfies(m, formula)


def test_model_permutes(capsys, tmp_path):
    code, out, _ = run_cli(capsys, ["model", "--input", model_file(tmp_path), "--permutes"])
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 2
    assert len(report["models"]) == 2


def test_model_symmetric_report(capsys, tmp_path):
    code, out, _ = run_cli(capsys, ["model", "--input", model_file(tmp_path), "--symmetric"])
    assert code == 0
    report = json.loads(out)
    assert report["symmetric"] is False
    assert report["fully_symmetric"] is False
    assert report["stabilizers"] == ["()"]


def test_model_check_formula(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        ["model", "--input", model_file(tmp_path), "--check-formula", "(rel R a b)"],
    )
    assert code == 0
    assert json.loads(out)["satisfied"] is True
    code, out, _ = run_cli(
        capsys,
        ["model", "--input", model_file(tmp_path), "--check-formula", "(rel R b a)"],
    )
    assert json.loads(out)["satisfied"] is False


def test_model_apply_perm(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, ["model", "--input", model_file(tmp_path), "--apply-perm", "(1 2)"]
    )
    assert code == 0
    got = md.model_from_json(out)
    assert got.relations["R"].tuples == frozenset({("b", "a")})


def test_model_pad(capsys, tmp_path):
    path = tmp_path / "unary.json"
    unary = md.FiniteModel(("a", "b"), {"P": md.Relation(1, frozenset({("a",)}))})
    path.write_text(md.model_to_json(unary), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["model", "--input", str(path), "--pad", "P:2"])
    assert code == 0
    got = md.model_from_json(out)
    assert got.relations["P"].tuples == frozenset({("a", "a"), ("a", "b")})


def test_model_bad_json_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{", encoding="utf-8")
    code, _, err = run_cli(capsys, ["model", "--input", str(path)])
    assert code == 2
    assert "error" in err


def test_model_flags_are_mutually_exclusive(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys,
        ["model", "--input", model_file(tmp_path), "--permutes", "--symmetric"],
    )
    assert code == 2


def test_model_bad_formula_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        ["model", "--input", model_file(tmp_path), "--check-formula", "(zap a)"],
    )
    assert code == 2
    assert "error" in err


def theory_file(tmp_path, closed=True):
    space = tuple(md.enumerate_models(("a", "b"), {"duty": 1}))
    only_a = space.index(
        md.FiniteModel(("a", "b"), {"duty": md.Relation(1, frozenset({("a",)}))})
    )
    only_b = space.index(
        md.FiniteModel(("a", "b"), {"duty": md.Relation(1, frozenset({("b",)}))})
    )
    chosen = (only_a, only_b) if closed else (only_a,)
    theory = md.Theory(space, {"rota": chosen})
    path = tmp_path / "theory.json"
    path.write_text(md.theory_to_json(theory), encoding="utf-8")
    return str(path)


def test_theory_gpc_report(capsys, tmp_path):
    code, out, _ = run_cli(capsys, ["theory", "--input", theory_file(tmp_path)])
    assert code == 0
    report = json.loads(out)
    assert report == {
        "command": "theory",
        "permutable": True,
        "fixity": False,
        "gpc_consistent": True,
    }


def test_theory_quotient(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, ["theory", "--input", theory_file(tmp_path), "--quotient"]
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["quotient"]["rota"]) == 1


def test_theory_quotient_of_non_permutable_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        ["theory", "--input", theory_file(tmp_path, closed=False), "--quotient"],
    )
    assert code == 2
    assert "error" in err


def test_toy_theories_report(capsys):
    code, out, _ = run_cli(capsys, ["toy-theories"])
    assert code == 0
    report = json.loads(out)["theories"]
    assert report["renovators"]["permutable"] is True
    assert report["renovators"]["fixity"] is False
    assert report["scribes"]["fixity"] is True
    for entry in report.values():
        assert entry["gpc_consistent"] is True


def test_model_describe_golden(capsys, tmp_path):
    # domain names that a naive x1/y naming would capture
    model = md.FiniteModel(("y", "x1"), {"R": md.Relation(1, frozenset({("y",)}))})
    path = tmp_path / "model.json"
    path.write_text(md.model_to_json(model), encoding="utf-8")
    outputs = [
        run_cli(capsys, ["model", "--input", str(path), "--describe", kind])[1]
        for kind in ("state", "structure")
    ]
    assert outputs == [
        "(and (rel R y) (not (rel R x1)) (!= y x1) (forall _y (or (= _y y) (= _y x1))))\n",
        "(exists _x1 (and (rel R _x1) (exists x2 (and (not (rel R x2)) (!= _x1 x2) "
        "(forall _y (or (= _y _x1) (= _y x2)))))))\n",
    ]


@pytest.mark.parametrize(
    "tuples,stabilizers",
    [
        ([("a", "b")], ["()"]),
        ([("a", "b"), ("b", "a")], ["()", "(1 2)"]),
        ([(x, x) for x in "abc"], ["()", "(2 3)", "(1 2)", "(1 2 3)", "(1 3 2)", "(1 3)"]),
    ],
)
def test_model_symmetric_crosses_the_group_once(capsys, tmp_path, monkeypatch, tuples, stabilizers):
    model = md.FiniteModel(("a", "b", "c"), {"R": md.Relation(2, frozenset(tuples))})
    path = tmp_path / "model.json"
    path.write_text(md.model_to_json(model), encoding="utf-8")
    crossings, enumerate_group = [], sg.all_permutations
    monkeypatch.setattr(sg, "all_permutations", lambda n: crossings.append(n) or enumerate_group(n))
    code, out, _ = run_cli(capsys, ["model", "--input", str(path), "--symmetric"])
    assert code == 0 and crossings == [3]
    assert json.loads(out) == {
        "command": "model",
        "symmetric": len(stabilizers) > 1,
        "fully_symmetric": len(stabilizers) == 6,
        "stabilizers": stabilizers,
    }


def test_permutability_verdict_ignores_the_hash_seed():
    # {a} is selected with {a, b}; {a}'s permute {c} is missing from the
    # space, so the check is ill-posed whichever model a set yields first
    space = [
        {"domain": ["a", "b", "c"], "relations": {"P": {"arity": 1, "tuples": [[x] for x in names]}}}
        for names in ("a", "b", "c", "ab", "bc")
    ]
    text = json.dumps({"space": space, "selection": {"s": [0, 3]}})
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    for seed in ("0", "3"):
        proc = subprocess.run(
            [sys.executable, "-m", "permsym.cli", "theory", "--input", "-"],
            input=text,
            capture_output=True,
            text=True,
            timeout=60,
            env=dict(env, PYTHONHASHSEED=seed),
        )
        assert (proc.returncode, proc.stdout) == (2, ""), seed
        assert "absent from the state space" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr  # importing permsym leaves the CLI unloaded


def test_atom_enumeration_past_the_cap_is_usage_error():
    unary = md.FiniteModel(("a", "b", "c"), {"R": md.Relation(1, frozenset({("a",)}))})
    wide = md.FiniteModel(("a", "b", "c"), {"R": md.Relation(40, frozenset())})
    start = time.perf_counter()
    requests = [
        (unary, ["--pad", "R:40"]),
        (wide, ["--describe", "state"]),
        (wide, ["--describe", "structure"]),
    ]
    for model, request in requests:
        assert run_with_stdin(["model", "--input", "-", *request], md.model_to_json(model)) == (2, "")
    # refused before any atom is built, not after a long enumeration
    assert time.perf_counter() - start < 5.0


def test_models_past_the_image_table_budget_permute_and_wider_ones_are_refused():
    # 3**13 atoms: more than ATOM_CAP, yet an int of 200 KB that permutes
    tuples = [["a"] * 13, ["a", "b"] + ["c"] * 11]
    wide = json.dumps({"domain": ["a", "b", "c"], "relations": {"R": {"arity": 13, "tuples": tuples}}})
    assert run_with_stdin(["model", "--input", "-"], wide) == (0, wide + "\n")
    code, out = run_with_stdin(["model", "--input", "-", "--permutes"], wide)
    assert code == 0 and json.loads(out)["count"] == 6
    code, out = run_with_stdin(["model", "--input", "-", "--symmetric"], wide)
    assert code == 0 and json.loads(out)["stabilizers"] == ["()"]
    code, out = run_with_stdin(["model", "--input", "-", "--apply-perm", "(1 2)"], wide)
    swapped = [["b", "a"] + ["c"] * 11, ["b"] * 13]
    assert code == 0 and json.loads(out)["relations"]["R"]["tuples"] == swapped
    # 3**16 atoms: past BIT_CAP the model's int is refused as it is read
    past = json.dumps({"domain": ["a", "b", "c"], "relations": {"R": {"arity": 16, "tuples": [["a"] * 16]}}})
    start = time.perf_counter()
    for request in ([], ["--permutes"], ["--symmetric"], ["--apply-perm", "(1 2)"]):
        assert run_with_stdin(["model", "--input", "-", *request], past) == (2, "")
    assert time.perf_counter() - start < 5.0


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    capsys.readouterr()
    assert cli.run(["decompose", "--help"]) == 0
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli.run(["frobnicate"]) == 2
    capsys.readouterr()


def test_parser_is_built_once(capsys, monkeypatch):
    argv = ["coins", "--measure", "bose"]
    first = run_cli(capsys, argv)

    def refuse(*args, **kwargs):
        raise AssertionError("the parser was built again")

    monkeypatch.setattr(cli.argparse, "ArgumentParser", refuse)
    assert run_cli(capsys, argv) == first


def test_every_subcommand_has_a_handler():
    # run dispatches by name: a missing handler would be a KeyError traceback, exit 1
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert len(sub.choices) == 11
    for name in sub.choices:
        assert callable(getattr(cli, "_cmd_" + name.replace("-", "_"), None)), name


@pytest.mark.parametrize(
    "error",
    [MemoryError(), np.linalg.LinAlgError("SVD did not converge"), RecursionError("maximum recursion depth exceeded")],
)
def test_memory_and_linear_algebra_failures_exit_3(capsys, monkeypatch, error):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_coins", fail)
    code, out, err = run_cli(capsys, ["coins", "--measure", "bose"])
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: {type(error).__name__}") and err.count("\n") == 1


P_MODEL = '{"domain": ["a"], "relations": {"P": {"arity": 1, "tuples": [["a"]]}}}'


@pytest.mark.parametrize("command", ["classify", "symmetrise", "superselect"])
def test_deeply_nested_matrix_and_vector_json_is_usage_error(command):
    deep = "[" * 100_000
    reader = hb.vector_from_json if command == "classify" else hb.matrix_from_json
    with pytest.raises(ValueError, match="recursion"):
        reader(deep)
    assert run_with_stdin([command, "--n", "2", "--d", "2", "--input", "-"], deep) == (2, "")


def test_deeply_nested_formula_is_usage_error(capsys, monkeypatch):
    deep = "(not " * 3000 + "(rel P a)" + ")" * 3000
    monkeypatch.setattr(sys, "stdin", io.StringIO(P_MODEL))
    code, out, err = run_cli(capsys, ["model", "--input", "-", "--check-formula", deep])
    assert (code, out) == (2, "")
    assert err == "error: formula nests too deeply to read\n"


@pytest.mark.parametrize("head", ["and", "or"])
def test_four_hundred_nested_connectives_evaluate_and_print(capsys, monkeypatch, head):
    text = f"({head} " * 400 + "(rel P a)" + ")" * 400
    monkeypatch.setattr(sys, "stdin", io.StringIO(P_MODEL))
    code, out, _ = run_cli(capsys, ["model", "--input", "-", "--check-formula", text])
    assert code == 0
    assert json.loads(out) == {"command": "model", "formula": text, "satisfied": True}


def test_structure_description_past_the_name_cap_exits_2(capsys, monkeypatch):
    # one nested exists per name: 1000 would exhaust the printer's recursion
    names = [f"n{i}" for i in range(1000)]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"domain": names})))
    code, out, err = run_cli(capsys, ["model", "--input", "-", "--describe", "structure"])
    assert (code, out) == (2, "")
    assert err == f"error: 1000 names exceed the structure description cap {md.STRUCTURE_NAME_CAP}\n"


def test_structure_description_at_the_name_cap_prints_and_reads_back(capsys, monkeypatch):
    names = [f"n{i}" for i in range(md.STRUCTURE_NAME_CAP)]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"domain": names})))
    code, out, _ = run_cli(capsys, ["model", "--input", "-", "--describe", "structure"])
    assert code == 0
    text = out.strip()
    assert text.count("(exists ") == len(names)
    assert md.format_formula(md.parse_formula(text)) == text


@pytest.mark.parametrize(
    "model,kind",
    [
        ({"domain": ["a b", "c"], "relations": {"R": {"arity": 2, "tuples": [["a b", "c"]]}}}, "state"),
        ({"domain": ["a", "(b)"]}, "state"),
        ({"domain": ["a"], "relations": {"R S": {"arity": 1, "tuples": []}}}, "structure"),
    ],
)
def test_describe_refuses_names_it_cannot_print(capsys, monkeypatch, model, kind):
    # "(rel R a b c)" would be printed for the first, and reads back as another formula
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(model)))
    code, out, err = run_cli(capsys, ["model", "--input", "-", "--describe", kind])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "one s-expression token" in err


def test_python_dash_m_permsym_runs_the_command_line():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "permsym", "coins", "--measure", "bose"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == '{"HH": "1/3", "mixed": "1/3", "TT": "1/3"}\n'
    assert proc.stderr == ""


def test_console_script_is_installed():
    proc = subprocess.run(
        ["permsym", "coins", "--measure", "bose"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == '{"HH": "1/3", "mixed": "1/3", "TT": "1/3"}\n'


# ---------------------------------------------------------------------------
# the JSON readers, fuzzed: every malformed payload is a ValueError in the
# library and exit 2 with empty stdout on the command line

NUMBER = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(10**6), 10**6)
PAIR = st.tuples(NUMBER, NUMBER).map(list)
BAD_SCALAR = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400]),  # 10**400 overflows a float
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(NUMBER, max_size=2),
)
BAD_ENTRY = st.one_of(
    st.tuples(BAD_SCALAR, NUMBER).map(list),
    st.tuples(NUMBER, BAD_SCALAR).map(list),
    st.lists(NUMBER, max_size=4).filter(lambda entry: len(entry) != 2),  # ragged
    NUMBER,
    st.none(),
    st.text(max_size=3),
    st.dictionaries(st.text(max_size=2), NUMBER, max_size=3),
)
BAD_HEADER = st.one_of(
    st.none(),
    st.booleans(),  # JSON true and false are not integers
    st.sampled_from([2.0, 2.9, math.inf]),  # nor are floats, integral or not
    st.text(max_size=3),
    st.text("0123456789", min_size=1, max_size=2),  # nor digit strings
    st.lists(NUMBER, max_size=2),
)


@st.composite
def bad_data(draw):
    """A list of [re, im] pairs with one malformed entry somewhere in it."""
    entries = draw(st.lists(PAIR, max_size=5))
    entries.insert(draw(st.integers(0, len(entries))), draw(BAD_ENTRY))
    return entries


@st.composite
def malformed_vectors(draw):
    kind = draw(st.sampled_from(["entry", "length", "data", "header", "shape"]))
    entries = draw(st.lists(PAIR, max_size=5))
    obj = {"length": len(entries), "data": entries}
    if kind == "entry":
        obj["data"] = draw(bad_data())
        obj["length"] = len(obj["data"])
    elif kind == "length":
        obj["length"] = draw(st.integers(-3, 8).filter(lambda k: k != len(entries)))
    elif kind == "data":
        obj["data"] = draw(st.one_of(NUMBER, st.none(), st.lists(st.none(), min_size=1, max_size=3)))
    elif kind == "header":
        obj["length"] = draw(BAD_HEADER)
    else:
        obj = draw(st.one_of(st.lists(PAIR, max_size=3), NUMBER, st.just({"data": entries})))
    return json.dumps(obj)


@st.composite
def malformed_matrices(draw):
    kind = draw(st.sampled_from(["entry", "length", "data", "header", "shape"]))
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    entries = draw(st.lists(PAIR, min_size=rows * cols, max_size=rows * cols))
    obj = {"rows": rows, "cols": cols, "data": entries}
    if kind == "entry":
        obj["data"] = draw(bad_data())
        obj["rows"], obj["cols"] = 1, len(obj["data"])
    elif kind == "length":
        obj["data"] = draw(st.lists(PAIR, max_size=10).filter(lambda e: len(e) != rows * cols))
    elif kind == "data":
        obj["data"] = draw(st.one_of(NUMBER, st.none(), st.lists(st.none(), min_size=1, max_size=3)))
    elif kind == "header":
        obj[draw(st.sampled_from(["rows", "cols"]))] = draw(BAD_HEADER)
    else:
        obj = draw(st.one_of(st.lists(PAIR, max_size=3), NUMBER, st.just({"rows": rows, "data": entries})))
    return json.dumps(obj)


def run_with_stdin(argv, text):
    """cli.run with text on stdin, returning (exit code, stdout)."""
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


@given(malformed_vectors())
def test_vector_reader_refuses_malformed_json(text):
    with pytest.raises(ValueError):
        hb.vector_from_json(text)
    assert run_with_stdin(["classify", "--n", "2", "--d", "2", "--input", "-"], text) == (2, "")


@given(malformed_matrices())
def test_matrix_reader_refuses_malformed_json(text):
    with pytest.raises(ValueError):
        hb.matrix_from_json(text)
    for command in ("symmetrise", "superselect"):
        assert run_with_stdin([command, "--n", "2", "--d", "2", "--input", "-"], text) == (2, "")


VALID_MODEL = {
    "domain": ["a", "b"],
    "relations": {"P": {"arity": 1, "tuples": [["a"]]}, "R": {"arity": 2, "tuples": [["a", "b"]]}},
}
MISSING = object()
SCALAR = st.one_of(st.booleans(), st.none(), st.floats())
NOT_STRING = SCALAR | st.integers(-3, 3) | st.lists(st.just("a"), max_size=2)
NOT_INTEGER = SCALAR | st.text(max_size=2) | st.lists(st.integers(0, 2), max_size=2)
NOT_LIST = SCALAR | st.integers(-3, 3) | st.text(max_size=3) | st.dictionaries(st.text(max_size=1), st.integers(0, 1), max_size=2)
NOT_OBJECT = SCALAR | st.integers(-3, 3) | st.text(max_size=3) | st.lists(st.text(max_size=1), max_size=2)


def put(obj: dict, key, value) -> None:
    if value is MISSING:
        del obj[key]
    else:
        obj[key] = value


@st.composite
def malformed_model_objs(draw):
    """VALID_MODEL with one part replaced by something of the wrong JSON type."""
    obj = json.loads(json.dumps(VALID_MODEL))
    rel = obj["relations"][draw(st.sampled_from(["P", "R"]))]
    kind = draw(st.sampled_from(["model", "domain", "name", "relations", "spec", "arity", "tuples", "tuple", "relatum"]))
    if kind == "model":
        return draw(NOT_OBJECT)
    if kind == "domain":
        put(obj, "domain", draw(NOT_LIST | st.just(MISSING)))
    elif kind == "name":
        obj["domain"][draw(st.integers(0, 1))] = draw(NOT_STRING)
    elif kind == "relations":
        obj["relations"] = draw(NOT_OBJECT)
    elif kind == "spec":
        obj["relations"]["P"] = draw(NOT_OBJECT)
    elif kind == "arity":
        put(rel, "arity", draw(NOT_INTEGER | st.just(MISSING)))
    elif kind == "tuples":
        put(rel, "tuples", draw(NOT_LIST | st.just(MISSING)))
    elif kind == "tuple":
        rel["tuples"][0] = draw(NOT_LIST)
    else:
        rel["tuples"][0][0] = draw(NOT_STRING)
    return obj


@st.composite
def malformed_theories(draw):
    other = json.loads(json.dumps(VALID_MODEL))
    other["relations"]["P"]["tuples"] = [["b"]]
    obj = {"space": [VALID_MODEL, other], "selection": {"s": [0, 1]}}
    kind = draw(st.sampled_from(["theory", "space", "member", "selection", "indices", "index"]))
    if kind == "theory":
        obj = draw(NOT_OBJECT)
    elif kind == "space":
        put(obj, "space", draw(NOT_LIST | st.just(MISSING)))
    elif kind == "member":
        obj["space"][draw(st.integers(0, 1))] = draw(malformed_model_objs())
    elif kind == "selection":
        obj["selection"] = draw(NOT_OBJECT)
    elif kind == "indices":
        obj["selection"]["s"] = draw(NOT_LIST)
    else:
        obj["selection"]["s"][draw(st.integers(0, 1))] = draw(NOT_INTEGER)
    return json.dumps(obj)


@given(malformed_model_objs().map(json.dumps))
def test_model_reader_refuses_malformed_json(text):
    with pytest.raises(ValueError):
        md.model_from_json(text)
    assert run_with_stdin(["model", "--input", "-"], text) == (2, "")


@given(malformed_theories())
def test_theory_reader_refuses_malformed_json(text):
    with pytest.raises(ValueError):
        md.theory_from_json(text)
    assert run_with_stdin(["theory", "--input", "-"], text) == (2, "")


SPACE = '[{"domain": ["a"]}, {"domain": ["a"], "relations": {"P": {"arity": 1, "tuples": [["a"]]}}}]'
MEASURED_CASES = {
    # once tracebacks that exited 1
    "relations-array": ("model", '{"domain": ["a"], "relations": []}'),
    "domain-number": ("model", '{"domain": 5}'),
    "arity-overflow": ("model", '{"domain": ["a"], "relations": {"P": {"arity": 1e400, "tuples": []}}}'),
    "selection-array": ("theory", '{"space": %s, "selection": []}' % SPACE),
    "index-overflow": ("theory", '{"space": %s, "selection": {"s": [1e400]}}' % SPACE),
    "deep-nesting": ("model", "[" * 100_000),
    # once read as something else
    "arity-true": ("model", '{"domain": ["a"], "relations": {"P": {"arity": true, "tuples": [["a"]]}}}'),
    "name-array": ("model", '{"domain": [["a"]]}'),
    "tuple-string": ("model", '{"domain": ["a", "b"], "relations": {"R": {"arity": 2, "tuples": ["ab"]}}}'),
    "index-fraction": ("theory", '{"space": %s, "selection": {"s": [0.7]}}' % SPACE),
}


@pytest.mark.parametrize("command,text", MEASURED_CASES.values(), ids=MEASURED_CASES.keys())
def test_model_and_theory_readers_refuse_measured_cases(command, text):
    reader = md.model_from_json if command == "model" else md.theory_from_json
    with pytest.raises(ValueError):
        reader(text)
    assert run_with_stdin([command, "--input", "-"], text) == (2, "")


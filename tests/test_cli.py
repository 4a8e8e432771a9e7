"""Command-line surface: exit codes and artifact outputs."""

import base64
import os
import socket
import time

import pytest

from cyberlogic import cli, codec, scenarios
from cyberlogic.crypto import Directory
from cyberlogic.services import TrustedServices


def run(argv):
    return cli.main(argv)


def test_keygen_writes_key_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CYBERLOGIC_KEYDIR", str(tmp_path))
    assert run(["keygen", "Kay", "--seed", "7"]) == 0
    assert (tmp_path / "Kay.key").exists()
    out = capsys.readouterr().out
    assert "fingerprint" in out


def test_scenario_writes_checking_certificate(tmp_path, capsys):
    cert = tmp_path / "hospital.cert"
    assert run(["scenario", "hospital", "--seed", "0", "--out", str(cert)]) == 0
    assert cert.exists()
    out = capsys.readouterr().out
    assert "ok" in out and "spine" in out


def test_unknown_scenario_is_usage_error(capsys):
    assert run(["scenario", "nonesuch"]) == 2


def test_check_ok_and_tamper_nok(tmp_path, capsys):
    cert = tmp_path / "h.cert"
    assert run(["scenario", "hospital", "--out", str(cert)]) == 0

    pol_dir = tmp_path / "policies"
    pol_dir.mkdir()
    world = scenarios.run_hospital(0).world
    for owner, text in (("A", scenarios.HOSPITAL_A), ("B", scenarios.HOSPITAL_B),
                        ("C", scenarios.HOSPITAL_C)):
        (pol_dir / owner).write_text(text)
    directory = tmp_path / "dir.txt"
    world.directory.save(str(directory))

    capsys.readouterr()
    assert run(["check", str(cert), "--policies", str(pol_dir),
                "--directory", str(directory),
                "--formula", "A says readMedRec(Alice, Peter)"]) == 0
    assert capsys.readouterr().out.startswith("ok")

    bad = tmp_path / "bad.cert"
    assert run(["tamper", str(cert), "--bit", "999", "--out", str(bad)]) == 0
    capsys.readouterr()
    assert run(["check", str(bad), "--policies", str(pol_dir),
                "--directory", str(directory)]) == 1
    assert capsys.readouterr().out.startswith("nok")


def test_check_wrong_formula_rejected(tmp_path, capsys):
    cert = tmp_path / "h.cert"
    assert run(["scenario", "hospital", "--out", str(cert)]) == 0
    pol_dir = tmp_path / "policies"
    pol_dir.mkdir()
    (pol_dir / "A").write_text(scenarios.HOSPITAL_A)
    capsys.readouterr()
    assert run(["check", str(cert), "--policies", str(pol_dir),
                "--formula", "A says isHospital(C)"]) == 1


def test_check_cyl1_certificate_is_unreadable(tmp_path, capsys):
    from test_codec import CYL1_TOP

    cert = tmp_path / "old.cert"
    cert.write_bytes(CYL1_TOP)
    assert run(["check", str(cert)]) == 1
    assert capsys.readouterr().out == "nok: unreadable certificate: not a certificate\n"


def test_check_text_certificate_is_unreadable(tmp_path, capsys):
    data = codec.encode_certificate(scenarios.run_hospital(0).certificate)
    cert = tmp_path / "h.txt"  # the retired text format: a header, then base64
    cert.write_text("cyberlogic-cert v1\n" + base64.b64encode(data).decode() + "\n")
    assert run(["check", str(cert)]) == 1
    assert capsys.readouterr().out.startswith("nok: unreadable certificate: ")


def test_query_local_policy(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CYBERLOGIC_KEYDIR", str(tmp_path))
    pol = tmp_path / "Q"
    pol.write_text("pred p(Principal).\nprincipal Q.\nq1: p(Q).\n")
    cert = tmp_path / "q.cert"
    monkeypatch.chdir(tmp_path)
    assert run(["query", "p(x)", "--policy", str(pol),
                "--out", str(cert)]) == 0
    assert cert.exists()
    out = capsys.readouterr().out
    assert "x = Q" in out


def test_query_proves_a_1000_step_chain_within_its_depth(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CYBERLOGIC_KEYDIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    pol_dir = tmp_path / "policies"
    pol_dir.mkdir()
    lines = ["sort Key.", "principal K.", "const k: Key."]
    lines += [f"pred p{i}(Key)." for i in range(1001)]
    lines += [f"r{i}: forall x:Key. p{i + 1}(x) => p{i}(x)." for i in range(1000)]
    (pol_dir / "K").write_text("\n".join(lines + ["f: p1000(k)."]) + "\n")
    directory = Directory()
    TrustedServices(seed=0).register_keys(directory)  # the query's clock, at its seed
    directory.save(str(tmp_path / "dir.txt"))
    cert = tmp_path / "chain.cert"
    assert run(["query", "p0(k)", "--policy", str(pol_dir / "K"), "--depth", "1016",
                "--out", str(cert)]) == 0
    capsys.readouterr()
    assert run(["check", str(cert), "--policies", str(pol_dir),
                "--directory", str(tmp_path / "dir.txt")]) == 0
    assert capsys.readouterr().out.startswith("ok")


def test_query_without_proof_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CYBERLOGIC_KEYDIR", str(tmp_path))
    pol = tmp_path / "Q"
    pol.write_text("pred p(Principal).\nprincipal Q, R.\n")
    monkeypatch.chdir(tmp_path)
    assert run(["query", "p(Q)", "--policy", str(pol)]) == 1


def test_query_nested_too_deep_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CYBERLOGIC_KEYDIR", str(tmp_path))
    pol = tmp_path / "Q"
    pol.write_text("pred p(Principal).\nprincipal Q.\nq1: p(Q).\n")
    monkeypatch.chdir(tmp_path)
    goal = "p(Q) \\/ (" * 300 + "p(Q)" + ")" * 300
    assert run(["query", goal, "--policy", str(pol)]) == 2
    assert "nested deeper than" in capsys.readouterr().err


def test_query_timeout_flag_bounds_the_wait_for_a_peer(tmp_path, monkeypatch):
    monkeypatch.setenv("CYBERLOGIC_KEYDIR", str(tmp_path))
    pol = tmp_path / "Q"
    pol.write_text("pred good(Principal).\nprincipal Q, R.\n")
    monkeypatch.chdir(tmp_path)
    with socket.create_server(("127.0.0.1", 0)) as silent:  # never replies
        host, port = silent.getsockname()
        t0 = time.monotonic()
        assert run(["query", "R says good(R)", "--policy", str(pol),
                    "--peer", f"R={host}:{port}", "--timeout", "200"]) == 3
        assert time.monotonic() - t0 < 5.0


def test_timeout_flag_only_on_networked_subcommands():
    ap = cli.build_arg_parser()
    assert ap.parse_args(["node", "--timeout", "5"]).timeout == 5
    with pytest.raises(SystemExit):
        ap.parse_args(["check", "c.bin", "--timeout", "5"])


def test_revocation_use_before_and_after_cutoff(capsys):
    assert run(["scenario", "revocation", "--revoke-at", "10",
                "--use-at", "3"]) == 0
    assert "granted" in capsys.readouterr().out
    assert run(["scenario", "revocation", "--revoke-at", "10",
                "--use-at", "12"]) == 1
    assert "refused" in capsys.readouterr().out


def test_registry_lists_digests(tmp_path, capsys):
    pol_dir = tmp_path / "policies"
    pol_dir.mkdir()
    (pol_dir / "A").write_text(scenarios.HOSPITAL_A)
    (pol_dir / "B").write_text(scenarios.HOSPITAL_B)
    assert run(["registry", "--policies", str(pol_dir)]) == 0
    out = capsys.readouterr().out
    assert "chain ok" in out
    assert out.count("\n") >= 3

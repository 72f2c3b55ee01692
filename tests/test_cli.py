"""Tests for the command-line frontend: output bytes and exit codes."""

import signal
from contextlib import contextmanager

import pytest

from swfloer import cli
from swfloer.cli import main
from swfloer.floerring import build_oracle
from swfloer.glueadj import universal_matrix
from swfloer.qlinalg import QMatrix
from swfloer.symprod import BiPoly, sector_normal_form

from helpers import dense_gram


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextmanager
def deadline(seconds, what):
    """Fail the test if the block runs longer than seconds.  (main turns a
    TimeoutError, being an OSError, into exit code 2.)"""
    def timeout(signum, frame):
        pytest.fail(f"{what} took over {seconds} s")
    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


# -- happy paths -----------------------------------------------------------

def test_betti_output(capsys):
    code, out, _ = run(capsys, "betti", "--g", "4", "--d", "2")
    assert code == 0
    assert out == "1 8 29 8 1\n"


def test_sp_relation_output(capsys):
    code, out, _ = run(capsys, "sp-relation", "--g", "3", "--d", "1",
                       "--k", "0")
    assert code == 0
    assert out == "e - 1/3*t\n"


def test_sp_nf_output(capsys):
    code, out, _ = run(capsys, "sp-nf", "--g", "3", "--d", "1", "--k", "0",
                       "--expr", "e")
    assert code == 0
    assert out == "1/3*t\n"


def test_floer_relations_tilde(capsys):
    code, out, _ = run(capsys, "floer-relations", "--g", "2", "--r", "1")
    assert code == 0
    assert out == "k=0: e - e^2 - e*t - 1/2*t^2\nk=1: 1\n"


def test_floer_relations_recursion(capsys):
    code, out, _ = run(capsys, "floer-relations", "--g", "5", "--r", "1",
                       "--variant", "recursion")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k=0: e^2 - 2/5*e*t + 1/20*t^2 - 2/15*t^3"
    assert lines[-1] == "k=4: 1"


def test_floer_dim_output(capsys):
    code, out, _ = run(capsys, "floer-dim", "--g", "3", "--r", "1")
    assert code == 0
    assert out == "oracle=8 presentation=8\n"


def test_floer_nf_output(capsys):
    code, out, _ = run(capsys, "floer-nf", "--g", "3", "--r", "1",
                       "--expr", "x")
    assert code == 0
    assert out == "1/3*g1*g4 + 1/3*g2*g5 + 1/3*g3*g6\n"


def test_gram_genus_two(capsys):
    code, out, _ = run(capsys, "gram", "--g", "2", "--r", "1")
    assert code == 0
    assert out == "# basis\nz1 = 1\n# gram 1x1\n1\n"


def test_umatrix_genus_two(capsys):
    code, out, _ = run(capsys, "umatrix", "--g", "2", "--r", "1")
    assert code == 0
    assert out == "# basis\nz1 = 1\n# inverse gram 1x1\n1\n"


def test_umatrix_legend_lists_whole_basis(capsys):
    code, out, _ = run(capsys, "umatrix", "--g", "3", "--r", "2")
    assert code == 0
    legend = [l for l in out.splitlines() if l.startswith("z")]
    assert len(legend) == 1  # d = 0: only the unit
    code, out, _ = run(capsys, "gram", "--g", "3", "--r", "1")
    legend = [l for l in out.splitlines() if l.startswith("z")]
    assert len(legend) == 8
    assert legend[0] == "z1 = 1"


def test_glue_files(tmp_path, capsys):
    t1 = tmp_path / "t1.swt"
    t2 = tmp_path / "t2.swt"
    t1.write_text("genus 3 r 2\n1 3/2\n", encoding="utf-8")
    t2.write_text("genus 3 r 2\n1 -2\n", encoding="utf-8")
    code, out, _ = run(capsys, "glue", "--g", "3", "--r", "2",
                       "--t1", str(t1), "--t2", str(t2))
    assert code == 0
    assert out == "-3\n"


def test_adjunct_excluded(capsys):
    code, out, _ = run(capsys, "adjunct", "--g", "2", "--sigma2", "0",
                       "--c1dot", "-2", "--degb", "1", "--bplus", "2")
    assert code == 0
    assert out == "EXCLUDED (thm adjunction, deg form)\n"


def test_adjunct_allowed(capsys):
    code, out, _ = run(capsys, "adjunct", "--g", "3", "--sigma2", "0",
                       "--c1dot", "-2", "--degb", "2", "--bplus", "2")
    assert code == 0
    assert out == "ALLOWED\n"


def test_adjunct_optional_flags(capsys):
    code, out, _ = run(capsys, "adjunct", "--g", "3", "--sigma2", "0",
                       "--c1dot", "-2", "--degb", "2", "--bplus", "2",
                       "--l", "2")
    assert code == 0
    assert out == "EXCLUDED (thm adjunction, cycle form)\n"
    code, out, _ = run(capsys, "adjunct", "--g", "2", "--sigma2", "0",
                       "--c1dot", "-2", "--bplus", "2", "--ds", "1")
    assert code == 0
    assert out == "EXCLUDED (thm adjunction, dim form)\n"


def test_verify_single_case(capsys):
    code, out, _ = run(capsys, "verify", "--g", "2", "--r", "1")
    assert code == 0
    lines = out.splitlines()
    assert all(l.startswith("PASS ") for l in lines)
    names = {l.split()[1] for l in lines}
    assert "dimension-match" in names
    assert "relations-annihilate" in names
    # the global checks only run with --all
    assert "betti-triple-count" not in names


# -- error paths -----------------------------------------------------------

def test_domain_error_is_usage(capsys):
    code, _, err = run(capsys, "betti", "--g", "3", "--d", "9")
    assert code == 2
    assert err.startswith("DomainError:")


def test_floer_bad_twist(capsys):
    code, _, err = run(capsys, "floer-dim", "--g", "3", "--r", "5")
    assert code == 2
    assert err.startswith("DomainError:")


def test_glue_genus_mismatch(tmp_path, capsys):
    t1 = tmp_path / "t1.swt"
    t2 = tmp_path / "t2.swt"
    t1.write_text("genus 3 r 2\n1 1\n", encoding="utf-8")
    t2.write_text("genus 3 r 2\n1 1\n", encoding="utf-8")
    code, _, err = run(capsys, "glue", "--g", "3", "--r", "1",
                       "--t1", str(t1), "--t2", str(t2))
    assert code == 2
    assert err.startswith("GenusMismatch:")


def test_glue_missing_file(tmp_path, capsys):
    t1 = tmp_path / "t1.swt"
    t1.write_text("genus 3 r 2\n1 1\n", encoding="utf-8")
    code, _, err = run(capsys, "glue", "--g", "3", "--r", "2",
                       "--t1", str(t1), "--t2", str(tmp_path / "no.swt"))
    assert code == 2
    assert err.startswith("FileNotFoundError:")


def test_glue_directory_table(tmp_path, capsys):
    t1 = tmp_path / "t1.swt"
    t1.write_text("genus 3 r 2\n1 1\n", encoding="utf-8")
    code, out, err = run(capsys, "glue", "--g", "3", "--r", "2",
                         "--t1", str(t1), "--t2", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("IsADirectoryError:")
    assert err.count("\n") == 1


def test_glue_non_utf8_table(tmp_path, capsys):
    t1 = tmp_path / "t1.swt"
    t1.write_text("genus 3 r 2\n1 1\n", encoding="utf-8")
    t2 = tmp_path / "t2.swt"
    t2.write_bytes(b"genus 3 r 2\n1 \xff\xfe\n")
    code, out, err = run(capsys, "glue", "--g", "3", "--r", "2",
                         "--t1", str(t1), "--t2", str(t2))
    assert code == 2
    assert out == ""
    assert err.startswith("DomainError:")
    assert err.count("\n") == 1


def test_bad_expression(capsys):
    for argv in [("floer-nf", "--g", "3", "--r", "1", "--expr", "q7"),
                 ("floer-nf", "--g", "3", "--r", "1", "--expr", "1/0*x"),
                 ("sp-nf", "--g", "4", "--d", "2", "--k", "0",
                  "--expr", "1/0*e")]:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("DomainError:"), argv
        assert err.count("\n") == 1, argv


def test_sp_nf_high_power_is_bounded(capsys):
    # terms above the sector's weight cap are dropped, not reduced, so a
    # high power costs no more than a low one
    with deadline(10, "sector normal form of e^200"):
        assert sector_normal_form(4, 2, 0, BiPoly.eta(200)).is_zero()
        code, out, _ = run(capsys, "sp-nf", "--g", "4", "--d", "2",
                           "--k", "0", "--expr", "e^200")
    assert code == 0
    assert out == "0\n"


@pytest.mark.parametrize("argv, var, want", [
    (("floer-nf", "--g", "3", "--r", "1"), "x",
     "1/3*g1*g4 + 1/3*g2*g5 + 1/3*g3*g6\n"),
    (("sp-nf", "--g", "3", "--d", "1", "--k", "0"), "e", "1/3*t\n"),
], ids=["floer-nf", "sp-nf"])
def test_long_sum_parses_in_linear_time(capsys, argv, var, want):
    # a sum is built in one pass, so 8,000 distinct terms (55 KB) parse in
    # well under a second; a fold that rebuilt the partial sum at every
    # term took over a minute.  Every power past the first reduces to
    # zero, so both lengths give the normal form of the first term.
    for n in (200, 8000):
        expr = "+".join(f"{var}^{i}" for i in range(1, n + 1))
        with deadline(10, f"{argv[0]} of a {n}-term sum"):
            code, out, _ = run(capsys, *argv, "--expr", expr)
        assert code == 0
        assert out == want


def test_genus_above_ceiling_is_bounded(capsys):
    # every command but adjunct rejects a genus above 6 before any work
    with deadline(10, "commands at a genus above the ceiling"):
        for argv in [("betti", "--g", "100000000", "--d", "99999999"),
                     ("sp-relation", "--g", "100000000", "--d", "99999999",
                      "--k", "0"),
                     ("sp-nf", "--g", "7", "--d", "6", "--k", "0",
                      "--expr", "e"),
                     ("floer-relations", "--g", "100000", "--r", "1"),
                     ("floer-dim", "--g", "40", "--r", "1"),
                     ("umatrix", "--g", "7", "--r", "1"),
                     ("verify", "--g", "7", "--r", "1")]:
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert out == "", argv
            assert err.startswith("DomainError:"), argv
            assert err.count("\n") == 1, argv
        assert run(capsys, "floer-dim", "--g", "6", "--r", "5")[1] == \
            "oracle=1 presentation=1\n"
        assert run(capsys, "adjunct", "--g", "100000000", "--sigma2", "0",
                   "--c1dot", "2")[1] == "ALLOWED\n"


def test_glue_table_with_theta_key_is_bounded(tmp_path, capsys):
    # a t factor in a key is rejected before theta is expanded; at genus
    # 20000 the expansion alone outlasts the deadline
    t1 = tmp_path / "t1.swt"
    t1.write_text("genus 2 r 1\n1 1\n", encoding="utf-8")
    t2 = tmp_path / "t2.swt"
    t2.write_text("genus 20000 r 1\nt^2 1\n", encoding="utf-8")
    with deadline(10, "a table keyed by t^2 at genus 20000"):
        code, out, err = run(capsys, "glue", "--g", "2", "--r", "1",
                             "--t1", str(t1), "--t2", str(t2))
    assert code == 2
    assert out == ""
    assert err.startswith("DomainError:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["1e99999999", "1e999999", "2.5", "1_000",
                                   "0x10", "3/0", "1/-2", "1" * 5000])
def test_glue_table_value_outside_the_rational_grammar(value, tmp_path,
                                                       capsys):
    # Fraction() alone reads exponents, decimals and underscores: the
    # 12-byte 1e99999999 ran past 20 s, and 1e999999 died rendering
    t1 = tmp_path / "t1.swt"
    t1.write_text(f"genus 2 r 1\n1 {value}\n", encoding="utf-8")
    t2 = tmp_path / "t2.swt"
    t2.write_text("genus 2 r 1\n1 3/2\n", encoding="utf-8")
    with deadline(10, f"a table holding {value[:12]}"):
        code, out, err = run(capsys, "glue", "--g", "2", "--r", "1",
                             "--t1", str(t1), "--t2", str(t2))
    assert code == 2
    assert out == ""
    assert err.startswith("DomainError: line 2: bad rational")
    assert err.count("\n") == 1


@pytest.mark.parametrize("header", ["genus 0_3 r +1", "genus 2 r 1_0"])
def test_glue_table_header_outside_the_integer_grammar(header, tmp_path,
                                                       capsys):
    # int() alone reads underscores: 'genus 0_3' was a genus-3 table
    t1 = tmp_path / "t1.swt"
    t1.write_text(f"{header}\n1 1\n", encoding="utf-8")
    t2 = tmp_path / "t2.swt"
    t2.write_text("genus +2 r +1\n1 3/2\n", encoding="utf-8")  # signs read
    code, out, err = run(capsys, "glue", "--g", "2", "--r", "1",
                         "--t1", str(t1), "--t2", str(t2))
    assert (code, out) == (2, "")
    assert err == (f"DomainError: line 1: non-integer genus or twist in "
                   f"{header!r}\n")
    code, out, err = run(capsys, "glue", "--g", "2", "--r", "1",
                         "--t1", str(t2), "--t2", str(t2))
    assert (code, err) == (0, "")


def test_glue_answer_longer_than_the_int_string_limit(tmp_path, capsys):
    # each table holds 10^3000; at (2, 1) the Gram matrix is (1), so the
    # answer 10^6000 has more digits than str(int) converts by default
    for name in ("t1.swt", "t2.swt"):
        (tmp_path / name).write_text("genus 2 r 1\n1 1" + "0" * 3000 + "\n",
                                     encoding="utf-8")
    code, out, err = run(capsys, "glue", "--g", "2", "--r", "1",
                         "--t1", str(tmp_path / "t1.swt"),
                         "--t2", str(tmp_path / "t2.swt"))
    assert (code, err) == (0, "")
    assert out == "1" + "0" * 6000 + "\n"


def test_gram_structure_compares_every_block_entry_with_the_pairing(
        monkeypatch, capsys):
    # the ring's blocks come from the primitive factorisation; one wrong
    # entry below the antidiagonal must fail against class_pair
    ring = build_oracle(3, 1)
    degs = ring.basis_degrees()
    entries = list(ring.block_entries())
    k = next(n for n, (i, j, _) in enumerate(entries)
             if degs[i] + degs[j] < 2 * ring.d)
    i, j, v = entries[k]
    entries[k] = (i, j, v + 1)
    # the inverse entries stay true, or the lru-cached universal matrix
    # that gluing-cap builds from them would keep the doctored Gram
    block_entries = ring.block_entries
    monkeypatch.setattr(ring, "block_entries", lambda inverse=False:
                        block_entries(True) if inverse else iter(entries))
    code, out, _ = run(capsys, "verify", "--g", "3", "--r", "1")
    assert code == 1
    assert (f"FAIL gram-structure: (3,1): block entry ({i},{j}) differs "
            f"from the pairing of the basis elements\n") in out


def test_adjunct_torsion_rejected(capsys):
    code, _, err = run(capsys, "adjunct", "--g", "3", "--sigma2", "0",
                       "--c1dot", "0")
    assert code == 2
    assert err.startswith("DomainError:")


def test_usage_errors(capsys):
    assert run(capsys, "betti", "--g", "3")[0] == 2          # missing flag
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "adjunct", "--g", "3", "--sigma2", "0",
               "--c1dot", "2", "--bplus", "7")[0] == 2       # bad choice


def test_verify_needs_case_or_all(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert err.startswith("DomainError:")


def test_verify_all_rejects_case_flags(capsys):
    # --all runs the whole sweep; a case flag beside it is a usage error,
    # not silently ignored
    for flags in (["--g", "3"], ["--r", "1"], ["--g", "3", "--r", "1"]):
        code, out, err = run(capsys, "verify", "--all", *flags)
        assert code == 2, flags
        assert out == ""
        assert err.startswith("DomainError:") and err.count("\n") == 1


def test_gram_structure_certificate_reads_the_weights(monkeypatch):
    # with a wrong weight function the gamma-set certificate must fail:
    # the volume monomial reaches the volume but gets a nonzero weight
    assert cli.check_gram_structure([(3, 1)]) == []
    monkeypatch.setattr(cli, "mono_weight",
                        lambda g, m: (len(m.gammas),) + (0,) * (g - 1))
    fails = cli.check_gram_structure([(3, 1)])
    assert fails and "nonzero off the weight blocks" in fails[0]


@pytest.mark.parametrize("where", ["off-block", "in-block"])
def test_gluing_cap_catches_a_wrong_universal_matrix(where, monkeypatch):
    # the check multiplies every row of the dense universal matrix, so an
    # entry outside the weight blocks is caught like one inside.  Adding 1
    # at (i, j) of M = G^-1 adds row j of G to row i of M G = I, so the
    # first failure is (i, k) for the first k with G[j, k] != 0, read
    # here from the dense Gram table, which is computed without weights
    g, r = 4, 1
    ring = build_oracle(g, r)
    labels, m = universal_matrix(g, r)
    entries = list(ring.block_entries(inverse=True))
    if where == "in-block":
        cells = [(i, j) for i, j, v in entries if v]
    else:
        inside = {(i, j) for i, j, _ in entries}
        cells = [(i, j) for i in range(ring.dim) for j in range(ring.dim)
                 if (i, j) not in inside]
    i, j = cells[len(cells) // 2]
    rows = m.to_rows()
    rows[i][j] += 1
    k = next(k for k, v in enumerate(dense_gram(ring).row(j)) if v)
    assert cli.check_gluing_cap([(g, r)]) == []
    monkeypatch.setattr(cli, "universal_matrix",
                        lambda g, r: (labels, QMatrix(rows, ring.dim)))
    assert cli.check_gluing_cap([(g, r)]) == [
        f"({g},{r}): cap identity fails at ({i},{k})"]

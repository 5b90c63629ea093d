"""Catalog lookups, the presentation file format, and the command line."""

import contextlib
import hashlib
import io
import itertools
import time
from datetime import timedelta

import pytest
from hypothesis import example, given, settings, strategies as st

from foxcalc.catalog import (
    YOSHIKAWA_KEYS,
    catalog_lookup,
    load_presentation,
    parse_presentation_file,
    theta_presentation,
    theta_wirtinger_presentation,
)
from foxcalc.cli import main
from foxcalc.maps import cyclic_map
from foxcalc.presentations import ParseError, Presentation, Word, parse_word


def test_theta_presentation_structure():
    pres = theta_presentation(5)
    assert pres.s == 5 and pres.t == 1
    gens = pres.gen_index
    want = parse_word(
        "x1 x5 x1^-1 x2 x1 x2^-1 x3 x2 x3^-1 x4 x3 x4^-1 x5 x4 x5^-1", gens
    )
    assert pres.relators[0] == want


def test_theta_wirtinger_structure():
    n = 4
    pres = theta_wirtinger_presentation(n)
    assert pres.s == 3 * n and pres.t == 2 * n + 1
    gens = pres.gen_index
    assert pres.relators[0] == parse_word("x1 x4 y1^-1 x4^-1", gens)
    assert pres.relators[n] == parse_word("z4 x1 x4^-1 x1^-1", gens)
    assert pres.relators[2 * n] == parse_word("z4 z1 z2 z3", gens)


def _index_wirtinger_reference(n):
    """The Wirtinger presentation of the theta-n group by index arithmetic:
    x_i, y_i, z_i are generators i - 1, n + i - 1 and 2n + i - 1."""
    names = tuple(f"{c}{i}" for c in "xyz" for i in range(1, n + 1))

    def x(i):
        return (i - 1) % n

    def y(i):
        return n + (i - 1) % n

    def z(i):
        return 2 * n + (i - 1) % n

    relators = []
    for i in range(1, n + 1):
        prev = n if i == 1 else i - 1
        relators.append(Word(((x(i), 1), (x(prev), 1), (y(i), -1), (x(prev), -1))))
    for i in range(1, n + 1):
        prev = n if i == 1 else i - 1
        relators.append(Word(((z(prev), 1), (x(i), 1), (x(prev), -1), (x(i), -1))))
    relators.append(Word(tuple((z(i), 1) for i in [n] + list(range(1, n)))))
    return Presentation(names, tuple(relators))


def test_theta_wirtinger_matches_index_reference():
    for n in range(3, 31):
        assert theta_wirtinger_presentation(n) == _index_wirtinger_reference(n), n
    for n in (2, 0, -1):
        with pytest.raises(ParseError):
            theta_wirtinger_presentation(n)


def test_catalog_has_23_surface_links():
    assert len(YOSHIKAWA_KEYS) == 23
    for key in YOSHIKAWA_KEYS:
        entry = catalog_lookup(f"yoshikawa:{key}")
        assert entry.presentation.s >= 1
        # the tables' alpha (all generators to t, order 2) is valid on each
        assert cyclic_map(entry.presentation, (1,) * entry.presentation.s, 2) is not None


def test_corrected_group_differs_from_its_partner():
    fixed = catalog_lookup("yoshikawa:9_1^1,-2").presentation
    assert fixed.render() == "< x, y | x y x y^-1, x^2 >"
    other = catalog_lookup("yoshikawa:8_1^-1,-1").presentation
    assert other.render() == "< x, y | x y x y^-1, x^-2 y^2 >"


def test_catalog_rejects_unknown_keys():
    for key in ("yoshikawa:3_1", "theta:2", "nonsense", "theta:x"):
        with pytest.raises(ParseError):
            catalog_lookup(key)


def test_presentation_file_format(tmp_path):
    text = """# trefoil-like example
group demo
gens x1 x2
rel x1 x2 x1 x2^-1 x1^-1 x2^-1
"""
    pres, name = parse_presentation_file(text)
    assert name == "demo"
    assert pres.s == 2 and pres.t == 1
    path = tmp_path / "demo.txt"
    path.write_text(text)
    loaded, _ = load_presentation(str(path))
    assert loaded == pres


def test_presentation_file_errors():
    with pytest.raises(ParseError):
        parse_presentation_file("rel x\n")  # no gens line
    with pytest.raises(ParseError):
        parse_presentation_file("gens x\nbogus y\n")
    with pytest.raises(ParseError):
        parse_presentation_file("gens x\ngens y\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["table3", "yoshikawa:99"], "unknown surface-link id '99'"),
        (["table3", "theta:2"], "index must be >= 3"),
        (["reps", "theta:x"], "bad index 'x'"),
        (["reps", "knot:3_1"], "unknown catalog key 'knot:3_1'"),
    ],
)
def test_cli_bad_catalog_key_reports_its_own_error(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_existing_file_wins_over_a_catalog_key(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "theta:3").write_text("gens a\nrel a^2\n")
    pres, entry = load_presentation("theta:3")
    assert pres.render() == "< a | a^2 >" and entry is None


def test_cli_file_not_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe")
    assert main(["reps", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} is not UTF-8") and err.count("\n") == 1, err


def test_load_presentation_inline():
    pres, entry = load_presentation("< a, b | a b a^-1 b^-1 >")
    assert pres.generators == ("a", "b")
    assert entry is None


# ---------------------------------------------------------------------------
# CLI.


def test_cli_ideal_command(capsys):
    rc = main(
        [
            "ideal",
            "< x1, x2 | x1 x2 x1 x2^-1 x1^-1 x2^-1 >",
            "--alpha",
            "x1=t,x2=t@t^inf",
            "--d",
            "1",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "E_1 = (1-t+t^2)" in out


def test_cli_ideal_all_d(capsys):
    rc = main(["ideal", "theta:3", "--alpha", "x1=t,x2=t,x3=t^-2@t^inf", "--all-d"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert out[0] == "E_0 = (0)"
    assert out[-1] == "E_3 = (1)"


def test_cli_table3(capsys):
    rc = main(["table3", "yoshikawa:0_1"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "{(0,1)_3}"


def test_cli_table3_json(capsys):
    import json

    rc = main(["table3", "yoshikawa:0_1", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rows"] == [{"entries": ["0", "1"], "multiplicity": 3}]


def test_cli_table1(capsys):
    rc = main(["table1", "< x, y | >"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "{(1,1,1)_11}"


def test_cli_reps(capsys):
    rc = main(["reps", "yoshikawa:8_1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "homomorphisms: 12" in out
    assert "conjugacy classes: 4" in out


def test_cli_twisted(capsys):
    rc = main(
        [
            "twisted",
            "theta:5",
            "--alpha",
            "x1=t,x2=t,x3=t,x4=t,x5=t^-4@t^inf",
            "--rho",
            "lemma36",
            "--d",
            "8",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "E_8 = (1+t)" in out


def test_cli_ideal_laurent_saturated(capsys):
    # E_1 = (2, t) in Z[t]; t is a unit of Z[t, t^-1], so E_1 = (1)
    source = "< x, y | y^2, x y x^-1 y^2 >"
    for p in ("0", "2"):
        rc = main(["ideal", source, "--alpha", "x=t,y=t^0@t^inf", "--all-d", "--p", p])
        assert rc == 0
        assert capsys.readouterr().out == "E_0 = (0)\nE_1 = (1)\nE_2 = (1)\n"


def test_cli_finite_size_cap(capsys):
    # over Z_2[t]/(t^(10^9) - 1) E_1 = (1 + t) has 2^(10^9 - 1) elements, too
    # many to render; neither that size nor t^(10^9) - 1 is ever formed
    alpha = "x=t,y=t@t^1000000000"
    assert main(["ideal", "< x, y | x y x^-1 y^-1 >", "--alpha", alpha, "--p", "2"]) == 1
    err = capsys.readouterr().err
    assert err == "error: finite ideal of 2^999999999 elements over DISPLAY_SIZE_CAP = 4096\n"
    # the whole ring needs no normal form
    assert main(["ideal", "< x | >", "--alpha", "x=t@t^1000000000", "--p", "2"]) == 0
    assert capsys.readouterr().out == "E_1 = (1)\n"


def test_cli_minor_cap_exit_1(capsys):
    # over Z every entry is 1 + t or -(1 + t), so no pivot reduces the 21 x 7
    # matrix, and E_1 needs C(21, 6) * C(7, 6) minors of size 6
    gens = [f"x{i}" for i in range(7)]
    relators = [f"x{i}^2 x{j}^-2" for i, j in itertools.combinations(range(7), 2)]
    source = f"< {', '.join(gens)} | {', '.join(relators)} >"
    alpha = ",".join(f"{g}=t" for g in gens) + "@t^inf"
    assert main(["ideal", source, "--alpha", alpha]) == 1
    assert capsys.readouterr().err == "error: 379848 minors of size 6 over MINOR_CAP = 100000\n"
    # over Z_2 E_d comes from invariant factors, not minors: the matrix is
    # 1 + t times the incidence matrix of K_7, whose invariant factors are
    # six 1s, so E_1 = ((1 + t)^6)
    assert main(["ideal", source, "--alpha", alpha, "--p", "2"]) == 0
    assert capsys.readouterr().out == "E_1 = (1+t^2+t^4+t^6)\n"


def test_cli_finite_size_cap_before_an_elimination_over_long_entries(capsys):
    # over Z_2[t]/(t^999999 - 1) entries such as 1 + t^999996 span almost the
    # whole order; the elimination takes their least-span lifts, such as
    # t^-3 + 1, so E_1 is found at once and then refused by its render
    source = "< x, y | x y x^-1 y^-1, x^2 y x^-2 y^-1 >"
    argv = ["ideal", source, "--alpha", "x=t^-2,y=t^-3@t^999999", "--p", "2", "--all-d"]
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 10
    out, err = capsys.readouterr()
    assert out == "E_0 = (0)\n"
    assert err == "error: finite ideal of 2^999998 elements over DISPLAY_SIZE_CAP = 4096\n"


@pytest.mark.parametrize(
    "argv, limit, want",
    [
        # E_1 = (1 + t + t^2) over Z_2[t^±1], whose gcd with t^20 - 1 is 1
        (["ideal", "< x, y | x^3 y^-3 >", "--alpha", "x=t,y=t@t^20", "--p", "2"], 10, 0),
        # Delta_2 of the trivial class's matrix would have degree 1,032,704
        (["table3", "< x, y, z | x^2147483647 y^-2147483647 >", "--k", "1000000", "--p", "2"],
         20, "DEGREE_CAP"),
        # 296 classes by 2,304 epimorphisms, refused before any entry is evaluated
        (["table1", "< x, y | x^-60 y^60 >", "--p", "5", "--k", "60", "--d", "2"],
         10, "TABLE_ENTRY_CAP"),
    ],
)
def test_cli_one_variable_zp_at_large_orders(capsys, argv, limit, want):
    start = time.perf_counter()
    rc = main(argv)
    assert time.perf_counter() - start < limit
    out, err = capsys.readouterr()
    if want == 0:
        assert (rc, out) == (0, "E_1 = (1)\n")
    else:
        assert rc == 1 and err.startswith("error: ") and want in err, err


def test_cli_split_order_of_few_coefficients_answers_at_once(capsys):
    # 500,001 divides p - 1 = 1,000,002, but the matrix is 1 x 2: E_1 =
    # (1 + t + t^2) comes from one elimination, not from ranks at 500,001
    # roots of unity, and its render is refused
    argv = ["ideal", "< x, y | x^3 y^-3 >", "--alpha", "x=t,y=t@t^500001", "--p", "1000003"]
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err == "error: finite ideal of 1000003^499999 elements over DISPLAY_SIZE_CAP = 4096\n"


def test_cli_long_letters_at_a_large_order(capsys):
    # each letter's 2^31 - 1 terms fill the 10^6 slots of its cell in a few
    # slices: 2,147 whole periods and one run of the 483,647 terms left
    start = time.perf_counter()
    argv = ["ideal", "< x, y | x^2147483647 y^-2147483647 >", "--alpha", "x=t,y=t@t^1000000"]
    assert main(argv + ["--p", "2"]) == 0
    assert time.perf_counter() - start < 20
    assert capsys.readouterr().out == "E_1 = (1)\n"


def test_cli_table3_row_render_keeps_parentheses(capsys):
    # E_2 of one class is (1+t+t^2+t^3,1+2t+t^2+2t^3), one entry, not two
    assert main(["table3", "yoshikawa:6_1^0,1", "--p", "3", "--k", "4"]) == 0
    assert ",(0,(1+t+t^2+t^3,1+2t+t^2+2t^3),1)_1," in capsys.readouterr().out


def test_cli_hom_search_budget_exit_1(capsys):
    # 6^12 leaves over SL(2;Z_2); the budget stops the search in seconds
    assert main(["table3", "theta:12"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "HOM_SEARCH_NODE_CAP" in err


@pytest.mark.parametrize(
    "argv", [["table1", "theta:4", "--k", "60"], ["table1", "< x, y | >", "--k", "1000"]]
)
def test_cli_epi_search_budget_exit_1(capsys, argv):
    # 60^4 and 1000^2 assignments onto Z_k, refused before any is tried
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "HOM_SEARCH_NODE_CAP" in err


@pytest.mark.parametrize(
    "argv, entry, columns, classes",
    [
        (["table1", "< x, y | >", "--p", "5", "--k", "60"], "1", 2304, 296),
        (["table1", "< x, y, z | >", "--p", "2", "--k", "17", "--d", "1"], "0", 4912, 49),
    ],
)
def test_cli_shape_decided_table1_at_large_orders(capsys, argv, entry, columns, classes):
    # p^k far past FINITE_SIZE_CAP, and with no relators the shape decides
    # every entry: one class's row is evaluated, in well under a second,
    # where evaluating every row took 4 to 7 s
    start = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - start < 3
    assert capsys.readouterr().out == "{(" + ",".join([entry] * columns) + f")_{classes}}}\n"


def test_cli_canonicalization_budget_exit_1(capsys, monkeypatch):
    from foxcalc import invariants

    # this table takes 10 search nodes to canonicalize
    monkeypatch.setattr(invariants, "CANON_NODE_CAP", 5)
    assert main(["table1", "yoshikawa:10_1^0,0,1", "--d", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "CANON_NODE_CAP = 5" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["table3", "yoshikawa:6_1^0,1", "--k", "16"],
            "finite ideal of 2^14 elements over DISPLAY_SIZE_CAP = 4096",
        ),
        (
            ["ideal", "< x, y | x y x^-1 y^-1 >", "--alpha", "x=t,y=t@t^16", "--p", "2"],
            "finite ideal of 2^15 elements over DISPLAY_SIZE_CAP = 4096",
        ),
        (
            ["reps", "yoshikawa:8_1", "--p", "19"],
            "target matrix space of 19^4 elements over 10 * HOM_TARGET_CAP = 100000",
        ),
        (
            # refused before the Fox walk adds a term: E_1's generator would
            # be 1 + t + ... + t^(10^8 - 1)
            ["ideal", "< x, y | x^100000000 y^-100000000 >", "--alpha", "x=t,y=t@t^inf"],
            "polynomial degree 99999999 over DEGREE_CAP = 1000000",
        ),
        (
            # the terms spread over [0, 599999] after two letters, and the
            # third takes them to 1099998: refused before its terms are added
            ["ideal", "< x, y | x^600000 y^-1 x^500000 y^-1099999 >", "--alpha", "x=t,y=t@t^inf"],
            "polynomial degree 1099998 over DEGREE_CAP = 1000000",
        ),
    ],
)
def test_cli_budget_message_names_the_cap(capsys, argv, message):
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_walk_just_under_degree_cap(capsys):
    # the terms of x^600000 y^600000 under y -> t^-1 span [-1, 599999]
    argv = ["ideal", "< x, y | x^600000 y^600000 >", "--alpha", "x=t,y=t^-1@t^inf"]
    assert main(argv) == 0
    want = "+".join(["1", "t"] + [f"t^{i}" for i in range(2, 600000)])
    assert capsys.readouterr().out == f"E_1 = ({want})\n"


def test_cli_product_over_degree_cap_refused_before_it_is_formed(capsys):
    # the 2 x 2 determinant multiplies two runs of 700,000 terms each
    argv = ["ideal", "< x, y | x^700000 y^-700000, x^700000 y^-700000 >"]
    start = time.perf_counter()
    assert main(argv + ["--alpha", "x=t,y=t@t^inf", "--d", "0"]) == 1
    assert time.perf_counter() - start < 15
    assert capsys.readouterr().err == "error: polynomial degree 1399998 over DEGREE_CAP = 1000000\n"


def test_cli_groebner_work_cap(monkeypatch, capsys):
    # over Z[t]/(t^k - 1) the basis of E_1 = (2^31 - 1, 2^31 - 2 + t) takes
    # about 2.8 * 10^6 coefficient operations at k = 4000, superquadratic in k
    argv = ["ideal", "< x, y | x^2147483647 y^-2147483647 >", "--alpha", "x=t,y=t@t^4000"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "E_1 = (2147483647,2147483646+t)\n"
    from foxcalc import ideals

    monkeypatch.setattr(ideals, "GROEBNER_WORK_CAP", 10**6)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: Groebner basis over GROEBNER_WORK_CAP = 1000000 coefficient operations\n"


def test_cli_groebner_work_cap_charges_each_combination(capsys):
    # at order 10^6 the S- and G-polynomials of runs near 10^6 terms long are
    # charged as they are formed, so the budget stops the basis in seconds
    argv = ["ideal", "< x, y, z | z^0 y^0 x^-3 y^100243535 x^-100243532 >",
            "--alpha=x=t,y=t,z=t@t^1000000", "--p=0", "--all-d"]
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 20
    out, err = capsys.readouterr()
    assert out == "E_0 = (0)\nE_1 = (0)\n"
    assert err == "error: Groebner basis over GROEBNER_WORK_CAP = 30000000 coefficient operations\n"


def test_cli_groebner_work_cap_weighs_coefficient_size(capsys):
    # over Z[t]/(t^60 - 1) the basis's coefficients pass 40,000 bits within
    # 66 reductions; each charge grows with the 64-bit words of the leading
    # coefficients or the quotient, so the budget stops the basis in seconds
    argv = ["ideal", "< x, y, z | x^-94277344 y^-337074984 z^49 x^431352279 >",
            "--alpha=x=t,y=t,z=t@t^60", "--p=0", "--all-d"]
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 10
    out, err = capsys.readouterr()
    assert out == "E_0 = (0)\nE_1 = (0)\n"
    assert err == "error: Groebner basis over GROEBNER_WORK_CAP = 30000000 coefficient operations\n"


def test_cli_ideal_groebner_render_omits_zero_generators(capsys):
    # over Z[t]/(t^2 - 1) the reduced Z[t] basis of E_1 is {2 + 2t, t^2 - 1}
    rc = main(["ideal", "< x, y | x^4 y^-4 >", "--alpha", "x=t,y=t@t^2"])
    assert rc == 0
    assert capsys.readouterr().out == "E_1 = (2+2t)\n"
    rc = main(["ideal", "yoshikawa:8_1^-1,-1", "--alpha", "x=t,y=t@t^2", "--d", "0"])
    assert rc == 0
    assert capsys.readouterr().out == "E_0 = (2+2t)\n"


def test_cli_ideal_groebner_render_skips_repeated_images(capsys):
    # over Z[t]/(t^3 - 1) the reduced Z[t] basis of E_1 is {2, t^3 + 1}, and
    # t^3 + 1 is 2 in the ring
    rc = main(["ideal", "< x, y | y^2 >", "--alpha", "x=t,y=t^0@t^3", "--d", "1"])
    assert rc == 0
    assert capsys.readouterr().out == "E_1 = (2)\n"


def test_cli_ideal_long_letter_at_finite_order(capsys):
    # over Z[t]/(t^2 - 1) the Fox walk adds one period of each letter's
    # 2^31 - 1 terms: A = (m+1)/2 + (m-1)/2 t has A(1 - t) = 1 - t and
    # A = m mod (1 - t), so E_1 = (m, m - 1 + t)
    argv = ["ideal", "< x, y | x^2147483647 y^-2147483647 >", "--alpha", "x=t,y=t@t^2"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "E_1 = (2147483647,2147483646+t)\n"


def test_cli_reps_counts_homs_by_class_sizes(capsys):
    assert main(["reps", "theta:5"]) == 0
    assert capsys.readouterr().out == "homomorphisms: 1296\nconjugacy classes: 251\n"


def test_cli_verify(capsys):
    assert main(["verify", "theorem3.4", "--n-max", "5"]) == 0
    assert main(["verify", "lemma3.6", "--n-list", "5,7"]) == 0
    capsys.readouterr()


BAD_INPUTS = [
    ["ideal", "yoshikawa:3_1", "--alpha", "x=t@t^2"],
    ["ideal", "< x | >", "--alpha", "x=t"],  # missing target
    ["ideal", "< x | >", "--alpha", "x=t^a@t^inf"],
    ["ideal", "< x | >", "--alpha", "x=t@t^zz"],
    ["ideal", "< x | >", "--alpha", "x=t@t^"],
    ["ideal", "< x | >", "--alpha", "x=t@t^-3"],
    ["ideal", "< x | >", "--alpha", "x=tzz@t^2"],
    ["ideal", "< x | x^2 >", "--alpha", "x=t,x=t^2,zz=t@t^2"],
    ["ideal", "< x | x^2 >", "--alpha", "x=t,x=t@t^2"],  # repeated name
    ["ideal", "< x | x^2 >", "--alpha", "x=t,zz=t@t^2"],  # not a generator
    ["table3", "yoshikawa:0_1", "--k", "1"],  # trivial target
    ["table3", "yoshikawa:0_1", "--k", "-2"],
    ["table1", "theta:3", "--k", "1"],
    ["table1", "theta:3", "--k", "0"],
    # an empty n range checked nothing and exited 0, and an n outside the
    # theorem's hypotheses exited 1 from inside a check: no check runs
    ["verify", "theorem3.4", "--n-max", "2"],
    ["verify", "remark3.4", "--n-max", "2"],
    ["verify", "theorem3.7", "--n-list="],
    ["verify", "lemma3.6", "--n-list=,"],
    ["verify", "theorem3.7", "--n-list", "4"],
    ["verify", "theorem3.7", "--n-list", "5,9"],
    ["verify", "lemma3.6", "--n-list", "5,3"],
]


def test_cli_parse_errors_exit_2(capsys):
    for argv in BAD_INPUTS:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


@st.composite
def cli_argvs(draw):
    """A command line of any subcommand: a random presentation, exponents up
    to 2^31 - 1, alpha targets of order 0 to 6, 60, 1000 or 10^6 or any
    text, --p from 0 to 7 (to 5 where it picks a target group, 3 with three
    generators, whose free group has 29,288 classes over SL(2;Z_5)), table1
    and table3 orders 60, 1000 and 10^6 as well, whose k^s epimorphism
    assignments the search budget refuses for table1 but for k = 60 and
    1000 on one generator and k = 60 on two, and the subcommand's flags,
    each present or not."""
    command = draw(st.sampled_from(["ideal", "twisted", "reps", "table1", "table3", "verify"]))
    s = draw(st.integers(1, 3))
    names = ("x", "y", "z")[:s]
    big = 2**31 - 1
    exponent = st.one_of(
        st.integers(-3, 3), st.sampled_from([big, -big, big - 1, 12, -60]), st.integers(-big, big)
    )
    words = st.lists(st.lists(st.tuples(st.sampled_from(names), exponent), max_size=4), max_size=2)
    relators = []
    for word in draw(words):
        total = sum(e for _, e in word)
        if total and draw(st.booleans()):  # balanced, so that x, y, z -> t kills it
            word.append((names[0], -total))
        relators.append(" ".join(f"{g}^{e}" for g, e in word))
    source = f"< {', '.join(names)} | {', '.join(r for r in relators if r)} >"
    source = draw(st.sampled_from([source, source, "theta:3", "yoshikawa:6_1^0,1", "nope:1"]))
    order = draw(st.one_of(st.integers(0, 6), st.sampled_from([60, 1000, 10**6])))
    if draw(st.booleans()):
        images = ",".join(f"{g}=t^{draw(exponent)}" for g in names)
    else:
        images = ",".join(f"{g}=t" for g in names)
    alpha = f"{images}@t^{order or 'inf'}"
    alpha = draw(st.one_of(st.just(alpha), st.text("xyzt^@=,-+ 0123456789inf", max_size=24)))

    def flag(name, values):
        return [f"--{name}={draw(values)}"] if draw(st.booleans()) else []

    target_p, d = st.integers(0, 5 if s < 3 else 3), st.integers(-1, 4)
    if command == "ideal":
        rest = [source, f"--alpha={alpha}"] + flag("d", d) + flag("p", st.integers(0, 7))
        rest += ["--all-d"] if draw(st.booleans()) else []
    elif command == "twisted":
        rho = draw(st.sampled_from(["lemma36", "other"]))
        rest = [source, f"--alpha={alpha}", f"--rho={rho}", f"--d={draw(d)}"]
    elif command == "reps":
        rest = [source] + flag("p", target_p)
    elif command in ("table1", "table3"):
        orders = st.one_of(st.integers(-1, 4), st.sampled_from([60, 1000, 10**6]))
        rest = [source] + flag("p", target_p) + flag("k", orders)
        rest += (flag("d", d) if command == "table1" else []) + ["--json"] * draw(st.booleans())
    else:
        target = draw(st.sampled_from(["theorem3.4", "remark3.4", "theorem3.7", "lemma3.6", "x"]))
        ns = ",".join(str(n) for n in draw(st.lists(st.integers(-2, 13), max_size=3)))
        rest = [target] + flag("n-max", st.integers(-1, 9)) + [f"--n-list={ns}"]
    return [command] + rest


# a draw whose Smith elimination multiplies runs some 3,600 terms long
LONG_RUNS_ARGV = ["table3", "< x, y, z | z^3634 x^-3634 >", "--k=0"]


@settings(max_examples=300, deadline=timedelta(seconds=10))
@given(cli_argvs())
@example(LONG_RUNS_ARGV)
def test_cli_fuzz(argv):
    # any command line ends in exit 0, 1 or 2 (3 would be a wrong theorem),
    # with one error line and no traceback when it is not 0
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse
            rc = exc.code
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert rc in (0, 1, 2), (rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert len(errors) == (rc != 0), err.getvalue()


def test_cli_long_runs_table_pinned(capsys):
    # the fuzz draw above: its 181,121-byte table, pinned by its sha256, in
    # seconds, where schoolbook products took 17 to 25 s
    start = time.perf_counter()
    assert main(LONG_RUNS_ARGV) == 0
    assert time.perf_counter() - start < 10
    out = capsys.readouterr().out.encode()
    assert len(out) == 181121
    want = "59b5dcb2de1ded0094ffeb6d81b057453279e6d926f9f1de3bfd955423db3a62"
    assert hashlib.sha256(out).hexdigest() == want


def test_cli_bad_alpha_exit_1(capsys):
    # alpha that does not kill the relator: computation error
    assert main(["ideal", "< x | x^2 >", "--alpha", "x=t@t^inf"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ideal", "< x | x^2 >", "--alpha", "x=t@t^2", "--d", "-1"], "-1 is negative"),
        (["twisted", "theta:5", "--alpha", "x1=t,x2=t,x3=t,x4=t,x5=t^-4@t^inf",
          "--rho", "lemma36", "--d", "-1"], "-1 is negative"),
        (["table1", "theta:3", "--d", "-1"], "-1 is negative"),
        (["ideal", "< x | x^2 >", "--alpha", "x=t@t^2", "--p", "1"], "1 is not prime"),
        (["ideal", "< x | x^2 >", "--alpha", "x=t@t^2", "--p", "4"], "4 is not prime"),
        (["ideal", "< x | x^2 >", "--alpha", "x=t@t^2", "--p=-3"], "-3 is not prime"),
    ],
)
def test_cli_bad_d_or_ideal_p_exit_2(argv, message, capsys):
    # --d is at least 0; --p on ideal is 0 (meaning Z) or prime
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["reps", "table1", "table3"])
@pytest.mark.parametrize("p", ["0", "1", "4", "6", "-3"])
def test_cli_non_prime_p_exit_2(command, p, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "yoshikawa:8_1", f"--p={p}"])
    assert exc.value.code == 2
    assert f"{p} is not prime" in capsys.readouterr().err

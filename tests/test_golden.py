import hashlib
import json
from pathlib import Path

from qsnake.cli import main
from qsnake.loopring import from_text, to_text
from qsnake.qchar import fundamental_qchar, snake_qchar

GOLDEN = Path(__file__).parent / "golden"

# sha256 of the standard output of `qsnake qchar --n 3 --snake-l 7`,
# 10,866 lines, as printed by the plain exponent-map monomials; a change
# of monomial representation must reproduce it byte for byte
SNAKE_N3_L7_SHA256 = (
    "950506e41e26f047c86bc3a3155604ce8a2836dbfceeed3c7d322b51d375943b")

# sha256 of the standard output of `qsnake all --json -` at seed 0 (58
# checks, fused loop ranks at k <= 3); it is the output of the suite table
# with the dense elimination loops, plus the (1,3) and (2,3) rank reports,
# with the two "vertex yang-baxter" reports decided at their Kronecker
# point (B, B^3) and naming the base B; ALL_JSON_CHECKS below says which
# reports a change of it moved
ALL_JSON_SHA256 = (
    "e6d98a2676acdf745e6dd4f4ea8dd32c3cf759c45bb633830d5048a5cf770ec3")

# the same output split by check name: the first 16 hex digits of the
# sha256 of each name's reports, in output order, as compact sorted JSON
ALL_JSON_CHECKS = {
    "antisymmetrizer idempotent": "554e34946bca140f",
    "binomial census shift": "805d9cf2205c0118",
    "composition completeness": "8441513e26545072",
    "extended t-system recursion": "299d17d7f30abdad",
    "fibonacci census": "477b38ea2a7dc7d2",
    "fundamental closed form": "c3301794460a2d8e",
    "fused loop rank against snake dimension": "d129337be3ce32bd",
    "fused window invariance": "f0331f4f4bcc36bd",
    "fused window relation at one loop": "1399c2a20042c7e7",
    "kirillov-reshetikhin dimensions": "2e353929f9eb1f2c",
    "kirillov-reshetikhin t-system": "9462fe2d3a8e7295",
    "pairwise snake identity": "e657e2b2e7f28250",
    "pole profile sweep": "9adb75c2592cd3e6",
    "singlet insertions on the fused product": "2d9e5a2020ce0e80",
    "singlet vertex rank": "bff115f88780e79f",
    "singlet-projected window reduction": "59bb1a5ff961e7bc",
    "snake structural trio": "b268c1203a5189dd",
    "tower against single-level assembly": "5d019ee2d05ba8d4",
    "tower contraction order": "91c5c19d40e702ed",
    "vertex crossing": "899042ab067ece66",
    "vertex unitarity": "d78d39fd5ca5508f",
    "vertex yang-baxter": "ce6bd1db5e723303",
    "window colour conservation": "556628a6808e508f",
    "window difference equations": "f49888cf1fee9651",
    "window exchange relation": "1ea9e7e87075e93c",
    "window global invariance": "ab019b8bab15b541",
    "window reduction": "066a312f78ab1f18",
    "window translation covariance": "d9ea7ca737ab34b0",
    "window unit trace": "c0761341893cbcf5",
}

# sha256 of the standard output of `qsnake rqkz --L 5 --json -` at seed 0
# (10 checks, all passing): the window-shift maps at the 3 <= m < L
# crossings, which `all` at L = 3 never reaches
RQKZ_L5_JSON_SHA256 = (
    "9fe5e4136be3c12ae76bd02f7874651537fcd95b35f22c286bb319ad52a3798f")

# sha256 of the standard output of `qsnake lattice --L 5 --json -` at
# seed 0: the window suite at L = 2..5 and m <= 3 (unit trace,
# reduction, invariance, exchange and translation residuals), as the
# windows with Fraction entries gave it; comparing (map, trace) pairs
# must reproduce it byte for byte
LATTICE_L5_JSON_SHA256 = (
    "f09b0f95a8c9fc468c32b3c88b87478e3592c101ac150607ea5d01eff9f81aaa")

# sha256 of to_text of S_odd(3, 3, shift 4) * S_even(3, 3, shift 0), whose
# coefficients are 1, 2 and 4, and of that product times the fundamental
# character of node 1 at shift 0 (coefficients 1, 2, 3, 4, 6 and 8):
# products of operands that are not thin, merged over several pairs of
# coefficient groups
SNAKE_PRODUCT_SHA256 = (
    "830d26e68d491c08c36d1c75630de3ce88b04718e80304be1b8cb82c08a00c84")
SNAKE_PRODUCT_TIMES_FUND_SHA256 = (
    "cd134790cb4f05a0ededca75aa1d840f596bd6a04f32fc1ba6beadea3e057c38")


def check(name, char):
    want = (GOLDEN / name).read_text()
    assert to_text(char) == want
    assert from_text(want) == char


def test_fundamental_golden():
    check("fund_n2_node1_s0.txt", fundamental_qchar(2, 1, 0))
    check("fund_n2_node2_s0.txt", fundamental_qchar(2, 2, 0))


def test_snake_golden():
    check("snake_n2_even_l2_s0.txt", snake_qchar(2, "even", 2, 0))


def test_products_of_non_thin_characters_golden():
    p = snake_qchar(3, "odd", 3, 4) * snake_qchar(3, "even", 3, 0)
    q = p * fundamental_qchar(3, 1, 0)
    assert sorted(set(p.terms.values())) == [1, 2, 4]
    assert sorted(set(q.terms.values())) == [1, 2, 3, 4, 6, 8]
    for char, want in ((p, SNAKE_PRODUCT_SHA256),
                       (q, SNAKE_PRODUCT_TIMES_FUND_SHA256)):
        text = to_text(char)
        assert hashlib.sha256(text.encode()).hexdigest() == want
        assert from_text(text) == char


def test_snake_listing_byte_identical(capsys):
    assert main(["qchar", "--n", "3", "--snake-l", "7"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 10866
    assert hashlib.sha256(out.encode()).hexdigest() == SNAKE_N3_L7_SHA256


def test_all_json_byte_identical(capsys):
    assert main(["all", "--json", "-"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ALL_JSON_SHA256


def check_digests(out):
    """ALL_JSON_CHECKS of the JSON that follows the summary lines."""
    groups = {}
    for report in json.loads(out[out.index("\n[\n") + 1:]):
        groups.setdefault(report["check"], []).append(report)
    return {name: hashlib.sha256(json.dumps(reports, sort_keys=True)
                                 .encode()).hexdigest()[:16]
            for name, reports in groups.items()}


def test_all_json_reports_by_check_name(capsys):
    assert main(["all", "--json", "-"]) == 0
    got = check_digests(capsys.readouterr().out)
    moved = sorted(name for name in got.keys() | ALL_JSON_CHECKS.keys()
                   if got.get(name) != ALL_JSON_CHECKS.get(name))
    assert not moved, f"reports moved: {moved}"


def test_rqkz_l5_json_byte_identical(capsys):
    assert main(["rqkz", "--L", "5", "--json", "-"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == RQKZ_L5_JSON_SHA256


def test_lattice_l5_json_byte_identical(capsys):
    assert main(["lattice", "--L", "5", "--json", "-"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LATTICE_L5_JSON_SHA256

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

# sha256 of the standard output of `qsnake all --json -` at seed 0 (64
# checks, fused loop ranks and weights at k <= 3); it is the output of the
# suite table with the dense elimination loops, plus the (1,3) and (2,3)
# rank reports, with the two "vertex yang-baxter" reports decided at their
# Kronecker point (B, B^3) and naming the base B, the "window translation
# covariance" reports read from the strip's vertex arguments (vertices
# compared, how many moved), the six "fused loop weights against snake
# character" reports, the "window difference equations" anchor naming
# the crossing each equation holds on, the two "window in the
# permutation basis" reports, which compare both variants' algebra
# windows with the row way's, and the "window global invariance"
# witness counting the n + 1 maps (E_01 and the colour transpositions)
# applied per window, and the "window global invariance" and "fused
# window invariance" anchors naming E_01 and the colour transpositions;
# ALL_JSON_CHECKS below says which reports a change of it moved
ALL_JSON_SHA256 = (
    "9402ed75b9396e6e8278e1d9ecc88f1a7fd675bf5620ba60febbe3896440ff14")

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
    "fused loop weights against snake character": "359e918943240b86",
    "fused window invariance": "9c60c949bf24bee4",
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
    "window difference equations": "2f239a5c7e7173b2",
    "window exchange relation": "1ea9e7e87075e93c",
    "window global invariance": "c0623903ebb6d57d",
    "window in the permutation basis": "06782348a01ab68a",
    "window reduction": "066a312f78ab1f18",
    "window translation covariance": "0766403918568eb9",
    "window unit trace": "c0761341893cbcf5",
}

# sha256 of the standard output of `qsnake rqkz --L 5 --json -` at seed 0
# (10 checks, all passing): the window-shift maps at the 3 <= m < L
# crossings, which `all` at L = 3 never reaches, under the anchor that
# names each equation's crossing
RQKZ_L5_JSON_SHA256 = (
    "21298c0e63a825fc04c7c22364b298fa8830758f30b3d26f5114d907d7b05fd6")

# sha256 of the standard output of `qsnake lattice --L 5 --json -` at
# seed 0: the window suite at L = 2..5 and m <= 3 (unit trace,
# reduction, invariance and exchange residuals, as the windows with
# Fraction entries gave them; comparing (map, trace) pairs must reproduce
# them byte for byte), with translation covariance read from the strip's
# vertex arguments and one "window in the permutation basis" report per L,
# over both variants, and (n + 1) maps counted per window by "window
# global invariance", whose anchor names E_01 and the colour
# transpositions
LATTICE_L5_JSON_SHA256 = (
    "05335ef4500bf1216a6e7068605fca0145f11edde51c76bc9f73d83da42bef52")

# sha256 of the standard output of `qsnake lattice --n 1 --L 5 --m 5
# --json -` at seed 0, as the row maps gave it: there m > n + 1, where the
# image of a window element is not faithful, so two elements can differ
# while their images agree.  "window reduction" compares elements (all 12
# of its comparisons here agree as elements) and falls back to their
# images where they differ, and must reproduce the row residuals byte
# for byte; "window global invariance" counts (n + 1) maps per window
# and names E_01 and the colour transpositions in its anchor
LATTICE_N1_L5_M5_JSON_SHA256 = (
    "28f06187cefc4aec60afca0b68a7f46503b17323b7625d0010acb5bde732118c")

# sha256 of the standard output of `qsnake snail --n 3 --max-k 2 --seed 1
# --json -`, as the formal RatFun level gave "tower against single-level
# assembly": the tower checks at rank 3, which `all` (rank 2) never
# reaches; the algebra level at the pole must reproduce it byte for
# byte; "fused window invariance" names E_01 and the colour
# transpositions in its anchor
SNAIL_N3_K2_SEED1_JSON_SHA256 = (
    "e207f3223dbec5a685e499e70b088efc5da0d3c0754b6e559c7d59db062883fd")

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


def test_lattice_past_the_faithful_range_byte_identical(capsys):
    assert main(["lattice", "--n", "1", "--L", "5", "--m", "5", "--json",
                 "-"]) == 0
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest()
            == LATTICE_N1_L5_M5_JSON_SHA256)


def test_snail_rank_three_json_byte_identical(capsys):
    assert main(["snail", "--n", "3", "--max-k", "2", "--seed", "1",
                 "--json", "-"]) == 0
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest()
            == SNAIL_N3_K2_SEED1_JSON_SHA256)

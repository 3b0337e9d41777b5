import json
from fractions import Fraction

import numpy as np
import pytest

from tpass.decompose import BimatrixGame
from tpass.errors import InputError
from tpass.game import TpassGame, random_tpass
from tpass.gamefile import dumps_game, load_game, parse_game, save_game


def test_parse_tpass_with_fractions_and_decimals():
    text = '{"kind": "tpass", "A": [[0, 1], [-1, 0]], "pi": ["1/2", "3/4"], "rho": [0.5, 0.75]}'
    g = parse_game(text)
    assert isinstance(g, TpassGame)
    assert g.pi.tolist() == [0.5, 0.75]
    assert g.rho.tolist() == [0.5, 0.75]


def test_fraction_and_decimal_forms_agree_exactly():
    a = parse_game('{"kind": "tpass", "A": [["1/10"]], "pi": ["-3/4"], "rho": ["7e-2"]}')
    b = parse_game('{"kind": "tpass", "A": [[0.1]], "pi": [-0.75], "rho": [0.07]}')
    assert a.A[0, 0] == b.A[0, 0]
    assert a.pi[0] == b.pi[0]
    assert a.rho[0] == b.rho[0]


def test_parse_bimatrix():
    text = '{"kind": "bimatrix", "B": [[1, 2]], "C": [["1/3", 4]]}'
    bg = parse_game(text)
    assert isinstance(bg, BimatrixGame)
    assert bg.C[0, 0] == pytest.approx(1 / 3)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("not json", "invalid JSON"),
        ("[1, 2]", "JSON object"),
        ('{"kind": "other"}', "kind"),
        ('{"kind": "tpass", "pi": [0], "rho": [0]}', "'A' is missing"),
        ('{"kind": "tpass", "A": [[0, 1], [2]], "pi": [0, 0], "rho": [0, 0]}', "A[2]"),
        ('{"kind": "tpass", "A": [["x"]], "pi": [0], "rho": [0]}', "A[1][1]"),
        ('{"kind": "tpass", "A": [["1/0"]], "pi": [0], "rho": [0]}', "zero denominator"),
        ('{"kind": "tpass", "A": [[true]], "pi": [0], "rho": [0]}', "boolean"),
        ('{"kind": "tpass", "A": [[null]], "pi": [0], "rho": [0]}', "A[1][1]: expected a number"),
        ('{"kind": "tpass", "A": [[{}]], "pi": [0], "rho": [0]}', "A[1][1]: expected a number"),
        ('{"kind": "tpass", "A": [[0]], "pi": [], "rho": [0]}', "'pi' must be a nonempty list"),
        ('{"kind": "tpass", "A": [], "pi": [0], "rho": [0]}', "'A' must be a nonempty list"),
        ('{"kind": "tpass", "A": [[]], "pi": [0], "rho": [0]}', "A[1] must be a nonempty list"),
        ('{"kind": "tpass", "A": [[Infinity]], "pi": [0], "rho": [0]}', "not finite"),
        ('{"kind": "tpass", "A": [["-1e400"]], "pi": [0], "rho": [0]}', "A[1][1]: value is too large"),
        ('{"kind": "tpass", "A": [[0]], "pi": [0, 1], "rho": [0]}', "pi"),
        ('{"kind": "bimatrix", "B": [[0]], "C": [[0, 1]]}', "shape"),
        # nesting past the JSON decoder's recursion limit
        pytest.param("[" * 1000 + "]" * 1000, "invalid JSON", id="deep-nesting"),
    ],
)
def test_parse_errors_name_the_problem(text, fragment):
    with pytest.raises(InputError) as err:
        parse_game(text)
    assert fragment in str(err.value)


def _deep_document(token: str) -> str:
    """A 128x128 tpass document with the raw JSON ``token`` at A[97][113]."""
    rng = np.random.default_rng(97)
    A = rng.uniform(-1, 1, (128, 128)).tolist()
    A[96][112] = "BAD"
    doc = {"kind": "tpass", "A": A, "pi": [0.0] * 128, "rho": [0.0] * 128}
    return json.dumps(doc).replace('"BAD"', token)


@pytest.mark.parametrize(
    "token, message",
    [
        ("true", "A[97][113]: expected a number, got a boolean"),
        ('"x"', "A[97][113]: cannot parse 'x' as a number"),
        ('"1/0"', "A[97][113]: fraction '1/0' has a zero denominator"),
        ("1e999", "A[97][113]: value inf is not finite"),
        ("9" * 400, "A[97][113]: value is too large for a float"),
    ],
    ids=["boolean", "text", "zero-denominator", "overflowing-float", "400-digit-integer"],
)
def test_bad_entry_deep_in_a_large_matrix_is_named_exactly(token, message):
    with pytest.raises(InputError) as err:
        parse_game(_deep_document(token))
    assert str(err.value) == message


def test_mixed_entry_forms_parse_to_the_bits_of_their_fractions():
    entries = [3, -7, 0, "1/3", "-22/7", " 5/8 ", "0.1", "-2.5e-3", "7e2", 0.1, -1e-300, 12345678901234567]
    text = json.dumps({"kind": "tpass", "A": [entries], "pi": [0], "rho": entries})
    g = parse_game(text)
    expected = [float(Fraction(v.strip()) if isinstance(v, str) else Fraction(v)) for v in entries]
    assert g.A[0].tolist() == expected
    assert g.rho.tolist() == expected


def test_missing_file_is_input_error(tmp_path):
    with pytest.raises(InputError):
        load_game(tmp_path / "nope.json")


def test_file_that_is_not_utf8_is_input_error(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"kind": "tpass", "A": [[1]], "pi": [0], "rho": ["\u00bd"]}'.encode("latin-1"))
    with pytest.raises(InputError) as err:
        load_game(path)
    assert str(path) in str(err.value)
    assert "not UTF-8" in str(err.value)


def test_round_trip_is_byte_stable(tmp_path):
    g = random_tpass(3, 2, -1.0, 1.0, seed=2024)
    text = dumps_game(g)
    again = dumps_game(parse_game(text))
    assert text == again
    path = tmp_path / "game.json"
    save_game(g, path)
    loaded = load_game(path)
    assert np.array_equal(loaded.A, g.A)
    assert np.array_equal(loaded.pi, g.pi)
    assert np.array_equal(loaded.rho, g.rho)


def test_dumps_bimatrix_round_trip():
    bg = BimatrixGame([[1.0, 0.5]], [[0.25, 0.0]])
    loaded = parse_game(dumps_game(bg))
    assert np.array_equal(loaded.B, bg.B)
    assert np.array_equal(loaded.C, bg.C)

"""Game files: a single JSON document per game.

Schema (UTF-8, field names exact)::

    {"kind": "tpass",    "A": [[...], ...], "pi": [...], "rho": [...]}
    {"kind": "bimatrix", "B": [[...], ...], "C": [[...], ...]}

Matrix and vector entries may be JSON numbers or exact fraction strings
such as ``"3/4"`` (decimal strings like ``"0.75"`` are accepted too).
Parsing is locale-independent; the decimal separator is always a dot.
Error messages name the offending field with 1-based indices.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isfinite
from pathlib import Path

import numpy as np

from .decompose import BimatrixGame
from .errors import InputError
from .game import TpassGame

_KINDS = ("tpass", "bimatrix")


def _parse_number(value, name: str, *index: int) -> float:
    """``value`` as a finite float.  ``name`` and the 0-based ``index``
    place it in the error message, which is formatted only when raised."""
    if type(value) is float and isfinite(value):
        return value
    if isinstance(value, bool):
        problem = "expected a number, got a boolean"
    elif not isinstance(value, (int, float, str)):
        problem = f"expected a number or fraction string, got {type(value).__name__}"
    else:
        try:
            out = float(Fraction(value.strip()) if isinstance(value, str) else value)
        except ZeroDivisionError:
            problem = f"fraction {value!r} has a zero denominator"
        except ValueError:
            problem = f"cannot parse {value!r} as a number"
        except OverflowError:
            problem = "value is too large for a float"
        else:
            if isfinite(out):
                return out
            problem = f"value {value!r} is not finite"
    raise InputError(name + "".join(f"[{k + 1}]" for k in index) + ": " + problem)


def _parse_vector(raw, name: str) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise InputError(f"field '{name}' must be a nonempty list of numbers")
    return np.array([_parse_number(v, name, k) for k, v in enumerate(raw)])


def _parse_matrix(raw, name: str) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise InputError(f"field '{name}' must be a nonempty list of rows")
    rows = []
    width = None
    for i, row in enumerate(raw):
        if not isinstance(row, list) or not row:
            raise InputError(f"{name}[{i + 1}] must be a nonempty list of numbers")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InputError(
                f"{name}[{i + 1}] has {len(row)} entries but {name}[1] has {width}"
            )
        rows.append([_parse_number(v, name, i, j) for j, v in enumerate(row)])
    return np.array(rows)


def _require(doc: dict, field: str):
    if field not in doc:
        raise InputError(f"field '{field}' is missing")
    return doc[field]


def parse_game(text: str) -> TpassGame | BimatrixGame:
    """Parse a game document; raises :class:`InputError` on any defect."""
    # json.loads raises JSONDecodeError, ValueError for an integer beyond
    # Python's digit limit and RecursionError for nesting past its limit
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("top level must be a JSON object")
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise InputError(f"field 'kind' must be one of {_KINDS}, got {kind!r}")
    if kind == "tpass":
        A = _parse_matrix(_require(doc, "A"), "A")
        pi = _parse_vector(_require(doc, "pi"), "pi")
        rho = _parse_vector(_require(doc, "rho"), "rho")
        return TpassGame(A, pi, rho)
    B = _parse_matrix(_require(doc, "B"), "B")
    C = _parse_matrix(_require(doc, "C"), "C")
    return BimatrixGame(B, C)


def load_game(path) -> TpassGame | BimatrixGame:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 text (byte {exc.start})") from None
    return parse_game(text)


def dumps_game(game: TpassGame | BimatrixGame) -> str:
    """Serialize a game with stable formatting (same game, same bytes)."""
    if isinstance(game, TpassGame):
        doc = {
            "kind": "tpass",
            "A": game.A.tolist(),
            "pi": game.pi.tolist(),
            "rho": game.rho.tolist(),
        }
    elif isinstance(game, BimatrixGame):
        doc = {"kind": "bimatrix", "B": game.B.tolist(), "C": game.C.tolist()}
    else:
        raise InputError(f"cannot serialize {type(game).__name__}")
    return json.dumps(doc, indent=2) + "\n"


def save_game(game: TpassGame | BimatrixGame, path) -> None:
    Path(path).write_text(dumps_game(game), encoding="utf-8")

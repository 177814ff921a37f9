"""Loaders for the JSON file formats used by the command-line front end.

Formats:
- algebra: handled in `algebra` (name/dimension/basis/unit/structure).
- bracket table: {"algebra": name-ref, "entries": [[i, j, ["p/q", ...]], ...]}
  with omitted entries equal to zero.
- submodule: {"ambient": "E" | "epsilon", "vectors": [["p/q", ...], ...]}.
- two-form: {"algebra": name-ref, "coords": ["p/q", ...]} against the
  canonical degree-2 homology class basis.
- omni bracket table: {"entries": [[i, j, ["p/q", ...]], ...]} giving
  mu(v_i, v_j) in V = Q^n, with omitted entries equal to zero.

Bundled example algebras and tables ship in the package data directory and
can be referred to by bare name (e.g. "v1_3") anywhere a file is accepted.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING

from .algebra import (AlgebraError, FiniteAlgebra, algebra_from_json,
                      entry_table, rational_list)
from .exactlin import HccourantError, QMatrix, ZERO

if TYPE_CHECKING:  # dirac is imported by the loaders that build its objects
    from .courant import CourantSpace, EpsilonSpace, ESpace
    from .dirac import BracketTable, Submodule, TwoFormClass

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

#: bundled algebra names -> data files
BUNDLED_ALGEBRAS = ("q", "qx2", "qx3", "v1_1", "v1_2", "v1_3", "m2q", "ut2")
#: bundled bracket tables (all over v1_3)
BUNDLED_TABLES = ("bracket_zero_v1_3", "bracket_so3_v1_3",
                  "bracket_nonjacobi_v1_3")


class FileFormatError(HccourantError):
    pass


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(
                f"{path}: invalid JSON at line {exc.lineno}, "
                f"column {exc.colno}") from exc
        except (UnicodeDecodeError, RecursionError) as exc:
            raise FileFormatError(f"{path}: unreadable: {exc}") from exc


def resolve_path(ref: str, bundled: tuple = BUNDLED_ALGEBRAS) -> str:
    """A bare bundled name or an actual path; bundled names win only when
    no such file exists."""
    if not os.path.exists(ref) and ref in bundled:
        return os.path.join(DATA_DIR, f"{ref}.json")
    return ref


def load_algebra_ref(ref: str) -> FiniteAlgebra:
    path = resolve_path(ref)
    if not os.path.exists(path):
        raise FileFormatError(
            f"no such algebra file or bundled name: {ref!r} "
            f"(bundled: {', '.join(BUNDLED_ALGEBRAS)})")
    return algebra_from_json(_load_json(path))


def load_table(path: str, d: int) -> list:
    """The d x d table of length-d rational vectors in an ``entries`` file
    (a bracket table, or the omni bracket table mu with mu[i][j] the
    coordinates of mu(v_i, v_j)); omitted entries are zero."""
    return _entries(_load_json(path), path, d)


def _check_algebra(doc, path: str, A: FiniteAlgebra) -> None:
    """A file's ``"algebra"`` field, when present, is resolved like
    ``--algebra`` and must give A's structure constants and unit."""
    if not isinstance(doc, dict) or "algebra" not in doc:
        return
    ref = doc["algebra"]
    if not isinstance(ref, str):
        raise FileFormatError(f"{path}: 'algebra' must be a name or a path")
    B = load_algebra_ref(ref)
    if (B.structure, B.unit) != (A.structure, A.unit):
        raise FileFormatError(
            f"{path}: the file is over {ref!r}, not over {A.name}")


def _entries(doc, path: str, d: int) -> list:
    try:
        entries = doc["entries"]
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"{path}: missing 'entries'") from exc
    try:
        cells = entry_table(entries, d)
    except AlgebraError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    zero = (ZERO,) * d
    return [[cells.get((i, j), zero) for j in range(d)] for i in range(d)]


def load_bracket_table(ref: str, A: FiniteAlgebra) -> BracketTable:
    from .dirac import BracketTable
    path = resolve_path(ref, BUNDLED_TABLES)
    if not os.path.exists(path):
        raise FileFormatError(
            f"no such bracket-table file or bundled name: {ref!r}")
    doc = _load_json(path)
    _check_algebra(doc, ref, A)  # errors name ref, not an install path
    return BracketTable(A, tuple(map(tuple, _entries(doc, ref, A.dim))))


def load_submodule(path: str, E: ESpace, eps: EpsilonSpace) -> Submodule:
    from .dirac import Submodule
    doc = _load_json(path)
    try:
        ambient_name = doc["ambient"]
        vectors = doc["vectors"]
    except (KeyError, TypeError) as exc:
        raise FileFormatError(
            f"{path}: submodule files need 'ambient' and 'vectors'") from exc
    if ambient_name == "E":
        ambient: CourantSpace = E
    elif ambient_name == "epsilon":
        ambient = eps
    else:
        raise FileFormatError(
            f"{path}: ambient must be \"E\" or \"epsilon\", "
            f"got {ambient_name!r}")
    try:
        rows = [rational_list(row) for row in vectors]
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: malformed vector: {exc}") from exc
    for row in rows:
        if len(row) != ambient.dim:
            raise FileFormatError(
                f"{path}: vector length {len(row)} does not match the "
                f"ambient dimension {ambient.dim}")
    return Submodule(ambient, QMatrix(rows or [], cols=ambient.dim))


def load_two_form(path: str, E: ESpace) -> TwoFormClass:
    from .dirac import two_form
    doc = _load_json(path)
    _check_algebra(doc, path, E.algebra)
    try:
        coords = rational_list(doc["coords"])
    except (KeyError, TypeError) as exc:
        raise FileFormatError(
            f"{path}: two-form files need rational 'coords'") from exc
    except ValueError as exc:
        raise FileFormatError(f"{path}: coords: {exc}") from exc
    return two_form(E, coords)

"""Model configuration files.

Models are declared in YAML.  The schema (documented in the README):

.. code-block:: yaml

    name: two_type_cascade        # optional
    types: 2
    laws:
      - parent: 1
        kind: product
        children:
          1: {family: geometric, mean: 1.0}
          2: {family: poisson, mean: 1.0}
      - parent: 2
        kind: table
        rows:
          - {counts: [0, 0], prob: 0.5}
          - {counts: [0, 2], prob: 0.5}

Families: ``geometric`` (``mean``), ``poisson`` (``mean``),
``bernoulli`` (``p``), ``pointmass`` (``k``).  Table rows carry full
count vectors over all N types.  Errors name the offending field and,
when available, the source line.
"""

from __future__ import annotations

import io
import os
from typing import Any

import yaml

from .errors import ConfigError, ModelStructureError
from .families import marginal_from_config
from .model import ProcessSpec, ProductLaw, TableLaw

_LINE_KEY = "__line__"


class _MarkedLoader(yaml.SafeLoader):
    """SafeLoader that stamps every mapping with its source line."""


def _construct_mapping(loader, node, deep=False):
    mapping = yaml.SafeLoader.construct_mapping(loader, node, deep=deep)
    mapping[_LINE_KEY] = node.start_mark.line + 1
    return mapping


_MarkedLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _construct_mapping
)


def _line(obj: Any) -> int | None:
    if isinstance(obj, dict):
        return obj.get(_LINE_KEY)
    return None


def _need(mapping: dict, key: str, path: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"missing required key '{key}'",
                          field=path, line=_line(mapping))
    return mapping[key]


def _as_int(value: Any, path: str, line: int | None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}",
                          field=path, line=line)
    return value


def loads_model(text: str, *, name: str | None = None) -> ProcessSpec:
    """Parse a model from YAML text."""
    try:
        doc = yaml.load(io.StringIO(text), Loader=_MarkedLoader)
    except yaml.MarkedYAMLError as exc:
        line = exc.problem_mark.line + 1 if exc.problem_mark else None
        raise ConfigError(f"invalid YAML: {exc.problem}", line=line) from exc
    if not isinstance(doc, dict):
        raise ConfigError("top level must be a mapping")

    n_types = _as_int(_need(doc, "types", "types"), "types", _line(doc))
    if n_types < 1:
        raise ConfigError("'types' must be at least 1",
                          field="types", line=_line(doc))
    laws_node = _need(doc, "laws", "laws")
    if not isinstance(laws_node, list):
        raise ConfigError("'laws' must be a list",
                          field="laws", line=_line(doc))
    if len(laws_node) != n_types:
        raise ConfigError(
            f"need exactly {n_types} laws, got {len(laws_node)}",
            field="laws", line=_line(doc),
        )

    laws = []
    for pos, node in enumerate(laws_node):
        path = f"laws[{pos}]"
        if not isinstance(node, dict):
            raise ConfigError("law entry must be a mapping", field=path)
        laws.append(_parse_law(node, path, n_types))

    model_name = doc.get("name") or name or "model"
    try:
        return ProcessSpec(n_types=n_types, laws=tuple(laws),
                           name=str(model_name))
    except ModelStructureError as exc:
        raise ConfigError(str(exc), field="laws") from exc


def _parse_law(node: dict, path: str, n_types: int):
    line = _line(node)
    parent = _as_int(_need(node, "parent", f"{path}.parent"),
                     f"{path}.parent", line)
    kind = _need(node, "kind", f"{path}.kind")
    if kind == "product":
        children_node = _need(node, "children", f"{path}.children")
        if not isinstance(children_node, dict):
            raise ConfigError("'children' must be a mapping",
                              field=f"{path}.children", line=line)
        children = {}
        for raw_key, payload in children_node.items():
            if raw_key == _LINE_KEY:
                continue
            cpath = f"{path}.children[{raw_key}]"
            try:
                child = int(raw_key)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"child type key must be an integer, got {raw_key!r}",
                    field=cpath, line=line,
                ) from None
            if not isinstance(payload, dict):
                raise ConfigError("child entry must be a mapping",
                                  field=cpath, line=line)
            cline = _line(payload)
            family = _need(payload, "family", f"{cpath}.family")
            params = {k: v for k, v in payload.items()
                      if k not in ("family", _LINE_KEY)}
            try:
                children[child] = marginal_from_config(str(family), params)
            except (KeyError, ValueError, TypeError) as exc:
                detail = (f"missing parameter {exc}" if isinstance(exc, KeyError)
                          else str(exc))
                raise ConfigError(detail, field=cpath, line=cline) from exc
        try:
            return ProductLaw(parent=parent, children=children)
        except ModelStructureError as exc:
            raise ConfigError(str(exc), field=path, line=line) from exc
    if kind == "table":
        rows_node = _need(node, "rows", f"{path}.rows")
        if not isinstance(rows_node, list) or not rows_node:
            raise ConfigError("'rows' must be a non-empty list",
                              field=f"{path}.rows", line=line)
        rows = []
        for rpos, row in enumerate(rows_node):
            rpath = f"{path}.rows[{rpos}]"
            if not isinstance(row, dict):
                raise ConfigError("row must be a mapping", field=rpath)
            rline = _line(row)
            counts = _need(row, "counts", f"{rpath}.counts")
            prob = _need(row, "prob", f"{rpath}.prob")
            if (not isinstance(counts, list)
                    or len(counts) != n_types
                    or any(isinstance(c, bool) or not isinstance(c, int)
                           for c in counts)):
                raise ConfigError(
                    f"'counts' must be a list of {n_types} integers",
                    field=f"{rpath}.counts", line=rline,
                )
            if not isinstance(prob, (int, float)) or isinstance(prob, bool):
                raise ConfigError("'prob' must be a number",
                                  field=f"{rpath}.prob", line=rline)
            rows.append((tuple(counts), float(prob)))
        try:
            return TableLaw(parent=parent, rows=tuple(rows))
        except ModelStructureError as exc:
            raise ConfigError(str(exc), field=f"{path}.rows", line=line) from exc
    raise ConfigError(f"unknown law kind {kind!r} (use 'product' or 'table')",
                      field=f"{path}.kind", line=line)


def load_model(path: str) -> ProcessSpec:
    """Load a model spec from a YAML file, named from the file stem
    unless the file names it."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stem = os.path.splitext(os.path.basename(path))[0]
    return loads_model(text, name=stem)

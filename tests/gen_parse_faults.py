"""Write tests/parse_faults.json: malformed expression texts and the error
that `parse_expression` reports for each.

    PYTHONPATH=src python tests/gen_parse_faults.py

Each text is a generated expression, some of whose spaces are turned into
other layout or a comment, with one mutation: one of the characters
( ) " \\ ; and newline, or one keyword, deleted, duplicated or inserted.
Mutants that still parse are dropped.  The output is a JSON list
of [text, message, offset, line, column]; `test_parser.py` replays it.
"""
from __future__ import annotations

import json
import os
import random
import re

from nullvl.ast import render_expression
from nullvl.errors import ExprParseError
from nullvl.fuzz import ExpressionGenerator, FuzzConfig, default_schema
from nullvl.parser import parse_expression

SEED = 26
COUNT = 400
CHARS = ["(", ")", '"', "\\", ";", "\n"]
KEYWORDS = [
    "base", "project", "select", "product", "union-all", "intersect-all", "except-all",
    "distinct", "group", "mu", "union", "as", "tuple", "true", "false", "isnull", "cmp",
    "in", "empty", "any", "all", "and", "or", "not", "col", "num", "ord", "null", "fn",
    "arg", "count", "count-star", "sum", "max",
]
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "parse_faults.json")


def mutate(rng: random.Random, text: str) -> str:
    """``text`` with one character or keyword deleted, duplicated or inserted."""
    op = rng.choice(["delete", "duplicate", "insert"])
    if rng.random() < 0.5:
        item = rng.choice(CHARS)
        spans = [(m.start(), m.end()) for m in re.finditer(re.escape(item), text)]
        if op == "insert" or not spans:
            at = rng.randrange(len(text) + 1)
            return text[:at] + item + text[at:]
    else:
        item = rng.choice(KEYWORDS)
        spans = [(m.start(), m.end()) for m in re.finditer(rf"(?<=\() ?{re.escape(item)}(?=[ )])", text)]
        if op == "insert" or not spans:
            at = rng.choice([m.start() for m in re.finditer(r"[()]", text)])
            return text[:at] + item + " " + text[at:]
    start, end = rng.choice(spans)
    if op == "delete":
        return text[:start] + text[end:]
    return text[:end] + text[start:end] + text[end:]


def main() -> None:
    rng = random.Random(SEED)
    schema = default_schema()
    faults = []
    while len(faults) < COUNT:
        cfg = FuzzConfig(seed=rng.randrange(10**6), max_depth=rng.choice([2, 3, 4]))
        text = render_expression(ExpressionGenerator(schema, cfg, random.Random(cfg.seed)).expression())
        # the renderer writes no layout but single spaces: vary some
        text = re.sub(r" (?=\()", lambda m: rng.choice([" "] * 8 + ["\n", "\t", "\r\n", " ; c\n"]), text)
        text = mutate(rng, text)
        try:
            parse_expression(text)
        except ExprParseError as err:
            message = str(err)[: str(err).rindex(" (offset ")]
            faults.append([text, message, err.offset, err.line, err.column])
    with open(PATH, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(fault) for fault in faults) + "\n]\n")


if __name__ == "__main__":
    main()

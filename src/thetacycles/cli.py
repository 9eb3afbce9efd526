"""Command-line interface.

Exit codes: 0 success, 1 mathematical infeasibility (a computation that ran
fine but whose verdict is "no": non-integral class, unsolvable degree
equation, failed identity), 2 usage or input errors.  Output is
deterministic; rationals are printed as "p/q" strings, never floats.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from itertools import compress
from json.encoder import encode_basestring_ascii

from .cycles import CleanCycleModel, convolve, schur_cycle
from .lambdaring import (
    GroupRingElement,
    NonIntegralResultError,
    TensorConstruction,
    gr_adams,
    gr_multiply,
    lambda_op,
    schur_apply,
    sym_op,
)
from .lierep import (
    classify_wmf,
    freudenthal_character,
    quasi_minuscule_dim_search,
    root_system,
    wmf_tables_csv,
)
from .schottky import (
    PpavInput,
    _check_m_bound,
    cc_odp,
    fake_jacobian_solve,
    fourfold_table,
    fourfold_table_csv,
    genus5_obstruction,
    s_sets,
    simplicity_criteria,
    summand_bound,
    theta_group,
    theta_target,
    verify_inverse_galois,
)
from .symfun import _is_int, elementary_to_powersum, partitions, schur_to_powersum

USAGE_ERROR = 2
MATH_NO = 1


class InputError(Exception):
    pass


# key coordinates rendered per join: a slice of a pair list holds
# _SLICE // (key length + 1) + 1 pairs, so wide keys make no larger slices
_SLICE = 8192

# Keys of at least this many coordinates are written from their nonzeros
# (_dumps_pairs).  Zero runs overtook the coordinate join at widths of about
# 16, 28, 36 and 52 for keys with 1, 2, 3 and 4 nonzeros, and were up to 1.6x
# slower at width 16 (20,000 keys, best of 5, Python 3.11, 2 vCPU).  At 48
# the benchmark's pair lists of width 8-30 keep the join, and its width-60
# lists and genus-6 fibers, with 1-3 nonzeros a key, take 0.35-0.7 of the
# join's time.
_WIDE_KEY = 48


class _IntText(dict):
    """int -> its JSON text: a table of the small values, computed for the
    rest."""

    def __missing__(self, value):
        return int.__repr__(value)


_INT_TEXT = _IntText((i, str(i)) for i in range(-128, 128))


def _dumps_pairs(pairs: list, newline: str) -> list:
    """The pieces of _parts for a pair list, the (int tuple, coefficient)
    pairs of an element's terms, a character's weights or a power-sum
    expansion's terms: the brackets and one string per slice of about
    _SLICE key coordinates with the separators between them.  The caller
    joins them into its own text, or writes them in turn, so a block is
    copied once.  Each pair is one f-string over texts from _INT_TEXT;
    the coefficients, all ints or all "p/q" strings, take _INT_TEXT or
    encode_basestring_ascii as the first does; an empty key is written [].

    When every key has the same n >= _WIDE_KEY coordinates, a key is written
    from its nonzero positions: m zeros before a nonzero are ("0" + sep) * m,
    the m after the last one (sep + "0") * m, and an all-zero key "0" and
    n - 1 of (sep + "0"), so a key costs its nonzeros, not n.  Narrower keys
    and the mixed widths of a power-sum expansion's partitions are joined
    coordinate by coordinate, which is faster when keys are narrow."""
    inner = newline + "  "
    key = inner + "  "
    coord = key + "  "
    sep, coord_sep = "," + inner, "," + coord
    open_key = "[" + key + "[" + coord
    open_empty = "[" + key + "[]," + key
    close_key = key + "]," + key
    text = _INT_TEXT.__getitem__
    value = text if type(pairs[0][1]) is int else encode_basestring_ascii
    n = len(pairs[0][0])
    step = _SLICE // (n + 1) + 1
    wide = n >= _WIDE_KEY and all(len(g) == n for g, _ in pairs)
    if wide:
        zero, trail, positions = "0" + coord_sep, coord_sep + "0", range(n)
        all_zero = "0" + trail * (n - 1)

        def key_text(g):
            pieces, last = [], -1
            for i in compress(positions, g):
                pieces.append(zero * (i - last - 1) + text(g[i]))
                last = i
            return coord_sep.join(pieces) + trail * (n - 1 - last) if pieces else all_zero

    parts = ["[" + inner]
    for start in range(0, len(pairs), step):
        if start:
            parts.append(sep)
        parts.append(sep.join([
            f"{open_key}{key_text(g)}{close_key}{value(c)}{inner}]"
            for g, c in pairs[start:start + step]
        ] if wide else [
            f"{open_key}{coord_sep.join(map(text, g))}{close_key}{value(c)}{inner}]"
            if g else f"{open_empty}{value(c)}{inner}]"
            for g, c in pairs[start:start + step]
        ]))
    parts += (newline, "]")
    return parts


def _parts(value, newline: str, out: list) -> list:
    """Append to out the pieces of json.dumps(value, sort_keys=True,
    indent=2), written after newline, and return out.  A payload holds
    str-keyed dicts, lists, str, int, bool and None, and the pair lists of a
    value's to_json(), which the standard encoder writes as arrays of [key,
    coefficient] arrays since it writes a tuple as an array.  The standard
    encoder runs in pure Python whenever indent is set; here a dict's keys
    and values and a pair list's slices (_dumps_pairs) are spliced into out,
    a list of ints is one repr, and any other list is one piece joined from
    its items' pieces."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif not isinstance(value, (list, dict)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    elif not value:
        out.append("[]" if isinstance(value, list) else "{}")
    elif type(value) is list and type(value[0]) is tuple:
        out += _dumps_pairs(value, newline)
    else:
        inner = newline + "  "
        sep = "," + inner
        if isinstance(value, dict):
            start = len(out)
            for k in sorted(value):
                out += (sep, encode_basestring_ascii(k), ": ")
                _parts(value[k], inner, out)
            out[start] = "{" + inner
            out += (newline, "}")
        elif set(map(type, value)) == {int}:
            out.append(f"[{inner}{repr(value)[1:-1].replace(', ', sep)}{newline}]")
        else:
            items = []
            for v in value:
                items.append(sep)
                _parts(v, inner, items)
            items[0] = "[" + inner
            items += (newline, "]")
            out.append("".join(items))
    return out


def _dumps(value) -> str:
    """json.dumps(value, sort_keys=True, indent=2), joined from _parts."""
    return "".join(_parts(value, "\n", []))


def _emit(args, json_form, csv_text=None, text=None):
    """Write a result as JSON, CSV or text, which json_form, csv_text and
    text build when called with no arguments; only the form asked for is
    built, and a subcommand without it is a usage error.  json_form builds a
    nonempty dict, as every output schema's top level is an object, and it
    is written piece by piece (_parts), so its text is held once, not also
    joined."""
    if args.format != "json":
        build = csv_text if args.format == "csv" else text
        if build is None:
            name = "CSV" if args.format == "csv" else "text"
            raise InputError(f"this subcommand has no {name} output")
        out = build()
        sys.stdout.write(out if args.format == "csv" else out + "\n")
    else:
        sys.stdout.writelines(_parts(json_form(), "\n", []))
        sys.stdout.write("\n")


def _parse_coords(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad coordinate list {text!r}: {exc}") from None


def _parse_fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad rational {text!r}: expected p/q with q != 0") from None


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"{path} is nested too deeply to decode") from None


def _object_field(data, key) -> dict:
    """data[key] of an input document, which must be a JSON object."""
    value = data.get(key) if isinstance(data, dict) else None
    if not isinstance(value, dict):
        raise InputError(f"field {key!r} must be a JSON object")
    return value


def _int_field(data, key) -> int:
    """data[key] of an input object, which must be a JSON integer."""
    value = data.get(key)
    if not _is_int(value):
        raise InputError(f"field {key!r} must be an integer, got {value!r}")
    return value


def _partition_field(data, key) -> tuple:
    """data[key] of an input object, which must be a list of JSON integers."""
    value = data.get(key)
    if not isinstance(value, list) or not all(map(_is_int, value)):
        raise InputError(f"field {key!r} must be a list of integers, got {value!r}")
    return tuple(value)


def load_cycle(source) -> CleanCycleModel:
    """Load and fully validate a cycle, given as a file path or as a parsed
    document (the c1/c2/cycle objects embedded in an input file); error
    messages name the field."""
    if isinstance(source, dict):
        data, where = source, "embedded cycle"
    else:
        data, where = _load_json(source), source
    try:
        return CleanCycleModel.from_json(data)
    except (KeyError, TypeError) as exc:
        raise InputError(f"cycle schema violation in {where}: missing/bad field {exc}") from None
    except (ValueError, ArithmeticError) as exc:
        raise InputError(f"cycle invariant violated in {where}: {exc}") from None


def _load_element(data) -> GroupRingElement:
    try:
        return GroupRingElement.from_json(data)
    except (KeyError, TypeError) as exc:
        raise InputError(f"group-ring element schema violation: {exc}") from None


# -- subcommand handlers: return process exit code ---------------------------


def _cmd_symfun(args):
    if args.what == "partitions":
        ps = partitions(int(args.arg))
        _emit(args, lambda: {"n": int(args.arg), "partitions": list(map(list, ps))},
              text=lambda: "\n".join(map(str, ps)))
        return 0
    if args.what == "schur":
        expr = schur_to_powersum(_parse_coords(args.arg))
    else:
        expr = elementary_to_powersum(int(args.arg))
    _emit(args, expr.to_json, text=lambda: str(expr))
    return 0


def _cmd_lambda_eval(args):
    data = _load_json(args.input)
    x = _load_element(_object_field(data, "element"))
    op = _object_field(data, "op")
    kind = op["kind"]
    if kind == "adams":
        out = gr_adams(_int_field(op, "n"), x)
    elif kind == "lambda":
        out = lambda_op(_int_field(op, "k"), x)
    elif kind == "sym":
        out = sym_op(_int_field(op, "k"), x)
    elif kind == "schur":
        out = schur_apply(_partition_field(op, "alpha"), x)
    elif kind == "multiply":
        out = gr_multiply(x, _load_element(op["other"]))
    else:
        raise InputError(f"unknown op kind {kind!r}")
    _emit(args, out.to_json)
    return 0


def _cmd_cycle_convolve(args):
    data = _load_json(args.input)
    c1 = load_cycle(_object_field(data, "c1"))
    c2 = load_cycle(_object_field(data, "c2"))
    out = convolve(c1, c2, _int_field(data, "d_trunc"))
    _emit(args, out.to_json)
    return 0


def _cmd_cycle_schur(args):
    data = _load_json(args.input)
    c = load_cycle(_object_field(data, "cycle"))
    alpha, d_trunc = _partition_field(data, "alpha"), _int_field(data, "d_trunc")
    try:
        out = schur_cycle(alpha, c, d_trunc)
    except NonIntegralResultError as exc:
        _emit(args, lambda: {"error": "non-integral result", "detail": str(exc)})
        return MATH_NO
    _emit(args, out.to_json)
    return 0


def _cmd_rep_dim(args):
    rs = root_system(args.type)
    weight = _parse_coords(args.weight)
    dim = rs.weyl_dim(weight)
    _emit(args, lambda: {"type": rs.name, "weight": list(weight), "dim": dim},
          text=lambda: str(dim))
    return 0


def _cmd_rep_char(args):
    rs = root_system(args.type)
    ch = freudenthal_character(rs, _parse_coords(args.weight))
    _emit(args, ch.to_json, csv_text=lambda: "weight,multiplicity\n" + "".join([
        f"{' '.join(map(str, w))},{m}\n" for w, m in sorted(ch.weights.items())]))
    return 0


def _cmd_rep_classify(args):
    rows = classify_wmf(args.max_rank, args.max_dim)
    _emit(args, lambda: {"max_rank": args.max_rank, "max_dim": args.max_dim,
                         "rows": [r.to_json() for r in rows]},
          csv_text=lambda: "type,weight,dim,minuscule,fs,family,group\n" + "".join([
              f"{r.letter}{r.rank},{' '.join(map(str, r.weight))},{r.dim},"
              f"{r.minuscule},{r.fs},{r.family},{r.group}\n" for r in rows]))
    return 0


def _cmd_wmf_tables(args):
    csv_text = wmf_tables_csv(args.max_rank, args.max_dim)
    _emit(args, lambda: {"csv": csv_text}, csv_text=lambda: csv_text, text=lambda: csv_text)
    return 0


def _ppav_from_args(args):
    return PpavInput(
        g=args.g,
        k=args.k,
        symmetric=not args.not_symmetric,
        double_points_sum_zero=args.sum_zero,
        pairwise_torsion_independent=not args.torsion_dependent,
        gauss_finite=args.gauss_finite,
    )


def _cmd_theta_group(args):
    out = theta_group(_ppav_from_args(args))
    _emit(args, out.to_json, text=lambda: out.label)
    return 0


def _cmd_cc_odp(args):
    out = cc_odp(_ppav_from_args(args))
    _emit(args, out.to_json)
    return 0


def _cmd_genus5(args):
    p = PpavInput(g=5, k=args.k, gauss_finite=args.gauss_finite)
    rec = genus5_obstruction(p)
    _emit(args, lambda: rec)
    return 0 if rec["integral"] else MATH_NO


def _cmd_fake_jacobian(args):
    cm1 = _parse_fraction(args.cm1) if args.cm1 is not None else None
    target = theta_target(args.g, args.degree, cm1)
    rec = fake_jacobian_solve(args.g, target, hyperelliptic=args.hyperelliptic)
    _emit(args, lambda: rec)
    return 0 if rec["feasible"] else MATH_NO


def _cmd_summand_bound(args):
    dims = [int(x) for x in args.dims.split(",")] if args.dims else []
    rec = summand_bound(dims, args.dz)
    _emit(args, lambda: rec)
    return MATH_NO if rec["no_decomposition"] else 0


def _cmd_simplicity(args):
    _check_m_bound(args.m_bound)
    c = load_cycle(args.input)
    rec = simplicity_criteria(c, args.divisor, m_bound=args.m_bound)
    _emit(args, lambda: rec)
    return 0


def _cmd_fourfold_table(args):
    table = fourfold_table()
    _emit(args, lambda: table, csv_text=lambda: fourfold_table_csv(table))
    return 0


def _cmd_qm_search(args):
    matches = quasi_minuscule_dim_search(args.dim, args.max_rank)
    _emit(
        args,
        lambda: {
            "dim": args.dim,
            "max_rank": args.max_rank,
            "matches": [{"type": t, "weight": list(w)} for t, w in matches],
        },
    )
    return 0


def _cmd_s_sets(args):
    sm, sp = s_sets(args.bound)
    _emit(args, lambda: {"bound": args.bound, "s_minus": sm, "s_plus": sp})
    return 0


def _cmd_verify_ig(args):
    data = _load_json(args.input)
    target = _load_element(_object_field(data, "target"))
    try:
        construction = TensorConstruction.from_json(_object_field(data, "construction"))
    except (KeyError, TypeError) as exc:
        raise InputError(f"construction schema violation: {exc}") from None
    candidates = data["candidates"]
    if not isinstance(candidates, list):
        raise InputError("field 'candidates' must be a list")
    candidates = [_load_element(c) for c in candidates]
    ok = verify_inverse_galois(target, construction, _int_field(data, "e"), candidates)
    _emit(args, lambda: {"verified": ok})
    return 0 if ok else MATH_NO


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetacycles",
        description="exact calculus of clean cycles, characters and "
        "theta-divisor obstructions",
    )
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json")
    # the flag is also accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering the top-level value when absent
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "text"), default=argparse.SUPPRESS
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("symfun", help="partition and basis-transition queries")
    p.add_argument("what", choices=("partitions", "schur", "elementary"))
    p.add_argument("arg", help="integer or comma-separated partition")
    p.set_defaults(func=_cmd_symfun)

    p = add_parser("lambda-eval", help="evaluate group-ring operations")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_lambda_eval)

    p = add_parser("cycle-convolve", help="convolve two cycles")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_cycle_convolve)

    p = add_parser("cycle-schur", help="Schur operation on a cycle")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_cycle_schur)

    p = add_parser("rep-dim", help="Weyl dimension")
    p.add_argument("type")
    p.add_argument("weight")
    p.set_defaults(func=_cmd_rep_dim)

    p = add_parser("rep-char", help="full weight multiplicity map")
    p.add_argument("type")
    p.add_argument("weight")
    p.set_defaults(func=_cmd_rep_char)

    p = add_parser("rep-classify", help="weight multiplicity free sweep")
    p.add_argument("--max-rank", type=int, default=8)
    p.add_argument("--max-dim", type=int, default=600)
    p.set_defaults(func=_cmd_rep_classify)

    p = add_parser("wmf-tables", help="classification tables")
    p.add_argument("--max-rank", type=int, default=8)
    p.add_argument("--max-dim", type=int, default=600)
    p.set_defaults(func=_cmd_wmf_tables)

    for name, fn in (("theta-group", _cmd_theta_group), ("cc-odp", _cmd_cc_odp)):
        p = add_parser(name)
        p.add_argument("--g", type=int, required=True)
        p.add_argument("--k", type=int, default=0)
        p.add_argument("--sum-zero", action="store_true")
        p.add_argument("--torsion-dependent", action="store_true")
        p.add_argument("--not-symmetric", action="store_true")
        p.add_argument("--gauss-finite", action="store_true")
        p.set_defaults(func=fn)

    p = add_parser("genus5", help="genus-5 Schottky obstruction")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--gauss-finite", action="store_true")
    p.set_defaults(func=_cmd_genus5)

    p = add_parser("fake-jacobian", help="solve the exterior-power equation")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--hyperelliptic", action="store_true")
    p.add_argument("--cm1", help="degree-1 coefficient of the target, as p/q")
    p.set_defaults(func=_cmd_fake_jacobian)

    p = add_parser("summand-bound")
    p.add_argument("--dims", required=True, help="support dims, comma separated")
    p.add_argument("--dz", type=int, required=True)
    p.set_defaults(func=_cmd_summand_bound)

    p = add_parser("simplicity")
    p.add_argument("--input", required=True)
    p.add_argument("--divisor", default="theta")
    p.add_argument("--m-bound", type=int, default=4)
    p.set_defaults(func=_cmd_simplicity)

    p = add_parser("fourfold-table")
    p.set_defaults(func=_cmd_fourfold_table)

    p = add_parser("qm-search")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--max-rank", type=int, default=20)
    p.set_defaults(func=_cmd_qm_search)

    p = add_parser("s-sets")
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(func=_cmd_s_sets)

    p = add_parser("verify-ig", help="check an inverse-Galois identity")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_verify_ig)

    return parser


_PARSER = None  # run's parser, built on its first call and reused after


def run(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        return args.func(args)
    except (InputError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main():
    """run() as a process: an output that cannot be written (a closed pipe,
    a full disk, a standard output closed at start-up) ends with one line on
    stderr and exit 2, not a traceback."""
    try:
        if sys.stdout is None:  # fd 1 was closed when the interpreter started
            raise OSError("standard output is closed")
        code = run()
        sys.stdout.flush()
    except OSError as exc:
        if sys.stdout is not None:
            # the interpreter flushes stdout again at exit; let that go nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        code = USAGE_ERROR
    sys.exit(code)


if __name__ == "__main__":
    main()

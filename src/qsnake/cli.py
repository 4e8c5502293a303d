"""Command line driver for the verification suites.

Each subcommand runs a family of exact checks and emits a
VerificationReport per check: a one-line human summary on standard
output, plus a canonical JSON array written to --json PATH ('-' for
standard output).  Exit code 0 when no hard check failed, 1 otherwise,
2 on usage errors.  Exploratory reports never touch the exit code.

This module parses options and dispatches over SUITES; the report
builders live beside the modules whose claims they check.  Seeds are
recorded in the reports and report order is canonical, so identical
invocations give byte-identical JSON.
"""

import argparse
import functools
import json
import sys

from .lattice import VanishingNormalization, lattice_reports, rqkz_reports
from .loopring import to_text
from .qchar import (census_reports, factor_reports, kr_reports,
                    qchar_fundamental_reports, snake_qchar,
                    snake_trio_reports, tsystem_reports)
from .report import (OutOfScope, VerificationReport, jsonable,
                     reports_to_json)
from .rmat import rmatrix_reports
from .snail import (POLE_ANCHOR, expected_pole_order, pole_profile,
                    pole_reports, snail_reports)


def _ranks(o):
    """n_values of a rank sweep: the one rank --n names, else the
    family's own sweep."""
    return {} if o["n"] is None else {"n_values": (o["n"],)}


def _snake_listing(o):
    char = snake_qchar(o["n"], o["parity"], o["snake_l"], o["shift"])
    sys.stdout.write(to_text(char))
    return VerificationReport(
        check="snake character monomials",
        params={"n": o["n"], "l": o["snake_l"], "parity": o["parity"],
                "shift": o["shift"]},
        status="pass",
        anchor="canonical monomial listing of one snake character",
        witness={"monomials": len(char)})


def _pole_single(o):
    if not 0 <= o["l"] <= o["n"]:
        raise ValueError(f"--l must be in 0..{o['n']} for pole, got {o['l']}")
    f, order = pole_profile(o["n"], o["k"], o["l"])
    want = expected_pole_order(o["l"])
    print(f"pole order {order} (expected {want})")
    return VerificationReport(
        check="pole profile",
        params={"n": o["n"], "k": o["k"], "l": o["l"]},
        status="pass" if order == want else "fail",
        anchor=POLE_ANCHOR,
        witness={"order": order, "expected": want, "profile": str(f)})


# subcommand -> (builder, {option: (default, least value accepted)}).  A
# default stands in for an unset (None) option only; n=None keeps each
# family's own sweep of ranks.  `all` runs every entry.
SUITES = {
    "qchar": (lambda o: qchar_fundamental_reports(**_ranks(o))
              + snake_trio_reports(max_l=o["l"], **_ranks(o)),
              {"n": (None, 1), "l": (6, 0)}),
    # the composition factors stop at l=4
    "census": (lambda o: census_reports(max_l=o["l"], **_ranks(o))
               + factor_reports(max_l=min(o["l"], 4), **_ranks(o)),
               {"n": (None, 1), "l": (5, 1)}),
    "tsystem": (lambda o: tsystem_reports(max_l=o["l"], **_ranks(o))
                + kr_reports(),
                {"n": (None, 1), "l": (4, 1)}),
    "rmatrix": (lambda o: rmatrix_reports(**_ranks(o)), {"n": (None, 1)}),
    "lattice": (lambda o: lattice_reports(o["n"], o["L"], o["N"], o["m"],
                                          o["seed"]),
                {"n": (2, 1), "L": (3, 2), "N": (1, 1), "m": (3, 1),
                 "seed": (0, None)}),
    "rqkz": (lambda o: rqkz_reports(o["n"], o["L"], o["N"], o["seed"]),
             {"n": (2, 1), "L": (3, 2), "N": (1, 1), "seed": (0, None)}),
    "pole": (lambda o: pole_reports(k_values=tuple(range(1, o["k"] + 1)),
                                    **_ranks(o)),
             {"n": (None, 1), "k": (2, 1)}),
    # k runs up to its bound at every default rank, or at the rank --n names
    "snail": (lambda o: snail_reports(o["n"], o["k"], o["seed"]),
              {"n": (None, 1), "k": (3, 1), "seed": (0, None)}),
}

# single-item modes that take a subcommand over when their flag is set;
# the builder checks the flag's own value, and `all` never runs them
MODES = {
    "qchar": ("snake_l", _snake_listing,
              {"n": (2, 1), "parity": ("even", None), "shift": (0, None)}),
    "pole": ("l", _pole_single, {"n": (2, 1), "k": (1, 1)}),
}

SUBCOMMANDS = (*SUITES, "all")

CAPS = {"l": "max_l", "k": "max_k"}


def _options(name, table, opt, capped):
    """The options one suite runs with.  An unset option takes the
    table's default.  In a subcommand --max-l/--max-k set l/k like
    --l/--k and win over them; capped (under `all`) they cap the l/k
    defaults, and --l/--k are not read.  A value below the least one the
    suite accepts is a usage error that names its flag."""
    out = dict(opt)
    for key, (default, least) in table.items():
        flag = CAPS.get(key, key)
        if capped and flag != key:
            val = default if opt[flag] is None else min(opt[flag], default)
        else:
            flag = key if opt[flag] is None else flag
            val = default if opt[flag] is None else opt[flag]
        if least is not None and val is not None and val < least:
            raise ValueError(f"--{flag.replace('_', '-')} must be at least "
                             f"{least} for {name}, got {val}")
        out[key] = val
    return out


def run_subcommand(cmd, opt):
    """Build the report list for one subcommand.  opt maps option names
    to values; an absent or None option is unset.  A set option that the
    suites do not read, or with a mode's flag set that the mode does not
    read, is a usage error."""
    opt = {**dict.fromkeys(INT_OPTIONS + STR_OPTIONS), **opt}
    if cmd not in SUBCOMMANDS:
        raise ValueError(f"unknown subcommand {cmd!r}")
    names = list(SUITES) if cmd == "all" else [cmd]
    mode = cmd in MODES and opt[MODES[cmd][0]] is not None and MODES[cmd]
    tables = [mode[2]] if mode else [SUITES[name][1] for name in names]
    keys = {key for table in tables for key in table}
    # --seed is accepted everywhere: every benchmark line passes it
    read = {"seed", *(CAPS.get(key, key) for key in keys)}
    if cmd != "all":  # --l/--k beside --max-l/--max-k
        read |= keys
    if mode:
        read.add(mode[0])
    for key, val in opt.items():
        if val is not None and key not in read:
            raise ValueError(f"{cmd} does not read --{key.replace('_', '-')}")
    if mode:
        return [mode[1](_options(cmd, mode[2], opt, False))]
    runs = [(name, _options(name, SUITES[name][1], opt, cmd == "all"))
            for name in names]
    reports = []
    for name, o in runs:
        try:
            reports += _suite_reports(name, o)
        except OutOfScope as exc:
            if cmd != "all":
                raise
            print(f"all: skipped {name}: {exc}", file=sys.stderr)
    return reports


def _suite_reports(name, o):
    """One suite's reports.  A seed whose draws put a window on a zero of
    its normalization is replaced by seed + 1000, at most three times,
    with a line on standard error; the reports record the seed used."""
    for left in (3, 2, 1, 0):
        try:
            return SUITES[name][0](o)
        except VanishingNormalization as exc:
            if not left:
                raise
            print(f"{name}: redrawn seed {o['seed']}: {exc}",
                  file=sys.stderr)
            o = {**o, "seed": o["seed"] + 1000}


def read_scenario(path):
    """Line-oriented key=value options; '#' starts a comment line."""
    opts = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(
                    f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            opts[key.strip().replace("-", "_")] = value.strip()
    return opts


INT_OPTIONS = ("n", "l", "snake_l", "k", "m", "L", "N", "shift", "seed",
               "max_l", "max_k")
STR_OPTIONS = ("parity",)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qsnake",
        description="exact verification suites for snake characters, "
                    "vertex weights and finite-strip windows")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        for key in INT_OPTIONS:
            p.add_argument("--" + key.replace("_", "-"), type=int,
                           default=None)
        p.add_argument("--parity", choices=("even", "odd"), default=None)
        p.add_argument("--json", metavar="PATH", default=None)
        p.add_argument("--scenario", metavar="PATH", default=None)
    return parser


@functools.lru_cache(maxsize=None)
def _parser():
    """build_parser's parser, built on the first call in a process: every
    later main call reuses it, and importing the module builds none."""
    return build_parser()


def _merge_options(args):
    scenario = read_scenario(args.scenario) if args.scenario else {}
    for key in scenario:
        if key not in INT_OPTIONS + STR_OPTIONS:
            raise ValueError(f"unknown scenario option {key!r}")
    opt = {}
    for key in INT_OPTIONS + STR_OPTIONS:
        val = getattr(args, key)
        if val is None and key in scenario:
            val = int(scenario[key]) if key in INT_OPTIONS else scenario[key]
        opt[key] = val
    if opt["parity"] not in (None, "even", "odd"):
        raise ValueError("parity must be even or odd")
    return opt


def emit(reports, json_path):
    reports = sorted(
        reports,
        key=lambda r: (r.check,
                       json.dumps(jsonable(r.params), sort_keys=True)))
    for r in reports:
        print(r.summary())
    counts = {s: sum(r.status == s for r in reports)
              for s in ("pass", "fail", "exploratory")}
    print(f"{len(reports)} checks: {counts['pass']} pass, "
          f"{counts['fail']} fail, {counts['exploratory']} exploratory")
    if json_path:
        text = reports_to_json(reports) + "\n"
        if json_path == "-":
            sys.stdout.write(text)
        else:
            with open(json_path, "w") as fh:
                fh.write(text)
    return 1 if any(r.is_hard_fail() for r in reports) else 0


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        opt = _merge_options(args)
        if args.json not in (None, "-"):
            open(args.json, "a").close()  # fail before any suite runs
        reports = run_subcommand(args.command, opt)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return emit(reports, args.json)


if __name__ == "__main__":
    sys.exit(main())

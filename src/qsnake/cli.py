"""Command line driver for the verification suites.

Each subcommand runs a family of exact checks and emits a
VerificationReport per check: a one-line human summary on standard
output, plus a canonical JSON array written to --json PATH ('-' for
standard output).  Exit code 0 when no hard check failed, 1 otherwise,
2 on usage errors.  Exploratory reports never touch the exit code.

This module parses options in one pass over a flag table and dispatches
over SUITES; the report builders live beside the modules whose claims
they check.  Seeds are recorded in the reports and report order is
canonical, so identical invocations give byte-identical JSON.
"""

import json
import sys

from .lattice import (MAX_LABELS, VanishingNormalization, lattice_reports,
                      rqkz_reports)
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
    return [VerificationReport(
        check="snake character monomials",
        params={"n": o["n"], "l": o["snake_l"], "parity": o["parity"],
                "shift": o["shift"]},
        status="pass",
        anchor="canonical monomial listing of one snake character",
        witness={"monomials": len(char)})]


def _pole_single(o):
    if not 0 <= o["l"] <= o["n"]:
        raise ValueError(f"--l must be in 0..{o['n']} for pole, got {o['l']}")
    f, order = pole_profile(o["n"], o["k"], o["l"])
    want = expected_pole_order(o["l"])
    print(f"pole order {order} (expected {want})")
    return [VerificationReport(
        check="pole profile",
        params={"n": o["n"], "k": o["k"], "l": o["l"]},
        status="pass" if order == want else "fail",
        anchor=POLE_ANCHOR,
        witness={"order": order, "expected": want, "profile": str(f)})]


# subcommand -> runs (flag, builder, {option: (default, least[, most])}).
# A subcommand takes its first run whose flag is set, else its run with
# flag None, the one `all` takes.  A default stands in for an unset
# (None) option only; n=None keeps each family's own sweep of ranks.
SUITES = {
    "qchar": (("snake_l", _snake_listing,
               {"n": (2, 1), "parity": ("even", None), "shift": (0, None)}),
              (None, lambda o: qchar_fundamental_reports(**_ranks(o))
               + snake_trio_reports(max_l=o["l"], **_ranks(o)),
               {"n": (None, 1), "l": (6, 0)})),
    # the composition factors stop at l=4
    "census": ((None, lambda o: census_reports(max_l=o["l"], **_ranks(o))
                + factor_reports(max_l=min(o["l"], 4), **_ranks(o)),
                {"n": (None, 1), "l": (5, 1)}),),
    "tsystem": ((None, lambda o: tsystem_reports(max_l=o["l"], **_ranks(o))
                 + kr_reports(),
                 {"n": (None, 1), "l": (4, 1)}),),
    "rmatrix": ((None, lambda o: rmatrix_reports(**_ranks(o)),
                 {"n": (None, 1)}),),
    # L labels drawn clear of 0 and beta; rqkz draws L - 1 beside 0
    "lattice": ((None, lambda o: lattice_reports(o["n"], o["L"], o["N"],
                                                 o["m"], o["seed"]),
                 {"n": (2, 1), "L": (3, 2, MAX_LABELS), "N": (1, 1),
                  "m": (3, 1), "seed": (0, None)}),),
    "rqkz": ((None, lambda o: rqkz_reports(o["n"], o["L"], o["N"], o["seed"]),
              {"n": (2, 1), "L": (3, 2, MAX_LABELS + 1), "N": (1, 1),
               "seed": (0, None)}),),
    "pole": (("l", _pole_single, {"n": (2, 1), "k": (1, 1)}),
             (None, lambda o: pole_reports(
                 k_values=tuple(range(1, o["k"] + 1)), **_ranks(o)),
              {"n": (None, 1), "k": (2, 1)})),
    # k runs up to its bound at every default rank, or at the rank --n names
    "snail": ((None, lambda o: snail_reports(o["n"], o["k"], o["seed"]),
               {"n": (None, 1), "k": (3, 1), "seed": (0, None)}),),
}

SUBCOMMANDS = (*SUITES, "all")
INT_OPTIONS = ("n", "l", "snake_l", "k", "m", "L", "N", "shift", "seed",
               "max_l", "max_k")
OPTIONS = (*INT_OPTIONS, "parity")
CAPS = {"l": "max_l", "k": "max_k"}


def _flag(key):
    return "--" + key.replace("_", "-")


def _options(name, table, opt, capped):
    """The options one run takes.  An unset option takes the table's
    default.  In a subcommand --max-l/--max-k set l/k like --l/--k and
    win over them; capped (under `all`) they cap the l/k defaults.  A
    value out of the table's bounds is a usage error naming its flag."""
    out = dict(opt)
    for key, (default, least, *most) in table.items():
        flag = CAPS.get(key, key)
        if capped and flag != key:
            val = default if opt[flag] is None else min(opt[flag], default)
        else:
            flag = key if opt[flag] is None else flag
            val = default if opt[flag] is None else opt[flag]
        if least is not None and val is not None and val < least:
            raise ValueError(f"{_flag(flag)} must be at least {least} for "
                             f"{name}, got {val}")
        if most and val > most[0]:
            raise ValueError(f"{_flag(flag)} must be at most {most[0]} for "
                             f"{name}, got {val}")
        out[key] = val
    return out


def run_subcommand(cmd, opt):
    """The reports of one subcommand; opt maps OPTIONS to values, None if
    unset.  Every run's options are checked before the first one runs."""
    opt = {key: opt.get(key) for key in OPTIONS}
    if cmd not in SUBCOMMANDS:
        raise ValueError(f"unknown subcommand {cmd!r}")
    runs = [(name, next(run for run in SUITES[name] if run[0] is None
                        or cmd != "all" and opt[run[0]] is not None))
            for name in (SUITES if cmd == "all" else [cmd])]
    keys = {key for _, (_, _, table) in runs for key in table}
    # --seed is accepted everywhere: every benchmark line passes it
    read = {"seed", *(CAPS.get(key, key) for key in keys)}
    if cmd != "all":  # the run's flag, and --l/--k beside --max-l/--max-k
        read |= keys | {flag for _, (flag, _, _) in runs}
    for key, val in opt.items():
        if val is not None and key not in read:
            raise ValueError(f"{cmd} does not read {_flag(key)}")
    runs = [(name, build, _options(name, table, opt, cmd == "all"))
            for name, (_, build, table) in runs]
    reports = []
    for name, build, o in runs:
        try:
            reports += _suite_reports(name, build, o)
        except OutOfScope as exc:
            if cmd != "all":
                raise
            print(f"all: skipped {name}: {exc}", file=sys.stderr)
    return reports


def _suite_reports(name, build, o):
    """One run's reports.  A seed whose draws put a window on a zero of
    its normalization is replaced by seed + 1000, at most three times,
    with a line on standard error; the reports record the seed used."""
    for left in (3, 2, 1, 0):
        try:
            return build(o)
        except VanishingNormalization as exc:
            if not left:
                raise
            print(f"{name}: redrawn seed {o['seed']}: {exc}", file=sys.stderr)
            o = {**o, "seed": o["seed"] + 1000}


def scenario_flags(path):
    """A scenario file as command-line flags: each key=value line gives
    --key=value; blank lines and lines starting with '#' are skipped."""
    flags = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(
                    f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in OPTIONS:
                raise ValueError(f"unknown scenario option {key!r}")
            flags.append(f"{_flag(key)}={value.strip()}")
    return flags


def parse(argv):
    """The command line as a dict: "command", every OPTIONS key, "json"
    and "scenario", None where unset.  One subcommand and the flags _flag
    names, as --flag value (a value not starting --) or --flag=value, in
    any order; the last of a flag wins.  Usage errors are ValueErrors."""
    args = dict.fromkeys(("command", *OPTIONS, "json", "scenario"))
    flags = {_flag(key): key for key in args if key != "command"}
    tokens = iter(argv)
    for token in tokens:
        if not token.startswith("-"):
            if args["command"] is not None:
                raise ValueError(f"unexpected argument {token!r}")
            if token not in SUBCOMMANDS:
                raise ValueError(f"unknown subcommand {token!r}")
            args["command"] = token
            continue
        flag, eq, val = token.partition("=")
        if flag not in flags:
            raise ValueError(f"unknown flag {flag!r}")
        if not eq and (val := next(tokens, "--")).startswith("--"):
            raise ValueError(f"{flag} expects a value")
        key = flags[flag]
        if key in INT_OPTIONS:
            try:
                val = int(val)
            except ValueError:
                raise ValueError(f"{flag} expects an integer, got {val!r}")
        elif key == "parity" and val not in ("even", "odd"):
            raise ValueError(f"--parity must be even or odd, got {val!r}")
        args[key] = val
    if args["command"] is None:
        raise ValueError("missing subcommand: " + ", ".join(SUBCOMMANDS))
    return args


def emit(reports, json_path):
    reports = sorted(reports, key=lambda r: (
        r.check, json.dumps(jsonable(r.params), sort_keys=True)))
    for r in reports:
        print(r.summary())
    counts = {s: sum(r.status == s for r in reports)
              for s in ("pass", "fail", "exploratory")}
    print(f"{len(reports)} checks: {counts['pass']} pass, "
          f"{counts['fail']} fail, {counts['exploratory']} exploratory")
    if json_path == "-":
        sys.stdout.write(reports_to_json(reports) + "\n")
    elif json_path:
        with open(json_path, "w") as fh:
            fh.write(reports_to_json(reports) + "\n")
    return 1 if any(r.is_hard_fail() for r in reports) else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        print(f"usage: qsnake {{{'|'.join(SUBCOMMANDS)}}} ["
              + " INT] [".join(map(_flag, INT_OPTIONS)) + " INT] "
              "[--parity even|odd] [--json PATH] [--scenario PATH]")
        return 0
    try:
        args = parse(argv)
        if args["scenario"]:  # its lines come first, so argv's flags win
            args = parse(scenario_flags(args["scenario"]) + argv)
        if args["json"] not in (None, "-"):
            open(args["json"], "a").close()  # fail before any suite runs
        reports = run_subcommand(args["command"], args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return emit(reports, args["json"])


if __name__ == "__main__":
    sys.exit(main())

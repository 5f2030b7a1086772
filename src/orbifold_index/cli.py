"""Batch command-line front end.

Subcommands: index, correction, verify, orbifold-char, surfaces, example.
Output is a human-readable table on a terminal and deterministic JSON when
redirected or with --json (before or after the subcommand); exact rationals
are never rendered as decimals.

main parses a query in one argparse pass: an argv [--json] SUBCOMMAND REST,
with --json exactly as the first token or absent, goes to that subcommand's
own parser.  Any other argv goes through the whole parser: no subcommand, an
unknown word, a top-level -h, --js, --json=1, -- before the subcommand, or a
REST token starting with --=.  Help, usage messages and exit codes are
argparse's own either way.

The front end parses, dispatches and renders; the numbers come from the
library.  verify runs each suite of orbifold_index.verify.SUITES at every
order p = 2..N, order by order, and counts passes and failures.

Exit codes: 0 success, 1 usage error (raised as UsageError by the argument
checks), 2 verification failure, 3 internal consistency failure or any other
exception, a library ValueError included (a crash; in verify, also a check
that raised instead of answering), named by type and message on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import applications, bundles, index as index_mod, verify
from .bundles import GroupElement
from .index import (Duality, TopologicalData, correction_sum_closed_form, index_closed_form,
                    index_kawasaki, index_smooth)
from .scalars import ConsistencyError, int_digit_limit, parse_rational

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_CONSISTENCY = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract is 1
        raise UsageError(message)


# digits a result adds to its largest integer flag: the closed-form index is
# at most 30 times it, an example report's numbers at most 3 times, and the
# correction sum's h numerator 5p^2 - 29 at most 5 times the square of --p
_RESULT_DIGITS = 2


def _int_flag(text: str, power: int = 1) -> int:
    """type= of every integer flag.  A value with more digits than the
    interpreter's int-to-str limit less _RESULT_DIGITS, divided by the
    power of the flag that a result holds, is refused by the limit, not
    echoed, so every result it gives can be printed."""
    limit = (int_digit_limit() - _RESULT_DIGITS) // power
    if len(text) > limit and sum(map(str.isdigit, text)) > limit:
        raise argparse.ArgumentTypeError(f"more than {limit} digits: a result would pass the "
                                         f"interpreter's int-to-str limit, {int_digit_limit()}")
    try:
        return int(text)
    except ValueError:  # argparse's own text for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


# the type= of every --p: the correction sum's h coefficient holds p^2
_cone_order_flag = functools.partial(_int_flag, power=2)


def _emit(args, payload: dict, human: list[str]) -> None:
    if args.json or not sys.stdout.isatty():
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human:
            print(line)


def _check_parity(args) -> None:
    if (args.chi - args.tau) % 2:
        raise UsageError("chi(M) and tau(M) must have the same parity, as on "
                         "every closed four-manifold")


def _inputs(args, **extra) -> dict:
    """The four topology flags as a payload's "inputs", with extra keys."""
    return {"chi": args.chi, "tau": args.tau, "sigma_chi": args.sigma_chi,
            "sigma_sq": args.sigma_sq, **extra}


def _topology(args) -> TopologicalData:
    if args.p < 1:
        raise UsageError("cone order --p must be a positive integer")
    _check_parity(args)
    return TopologicalData(chi_M=args.chi, tau_M=args.tau,
                           chi_Sigma=args.sigma_chi, sigma_sq=args.sigma_sq,
                           p=args.p)


# ---------------------------------------------------------------------------
# index
# ---------------------------------------------------------------------------

def _cmd_index(args) -> int:
    data = _topology(args)
    duality = Duality(args.duality)  # argparse has checked the choice
    p, route = data.p, args.route
    if route == "closed" and p == 1:
        raise UsageError(
            "p = 1 is the smooth case: the closed form does not apply there; "
            "use --route kawasaki, which reduces to (1/2)(15 chi +- 29 tau)")
    payload: dict = {"inputs": _inputs(args, p=p, duality=duality.value), "route": route}
    title = f"index ({duality.value}, p={p}): "
    if route == "closed":
        payload["route"] = "closed_form"
        payload["index"] = idx = index_closed_form(data, duality)
        _emit(args, payload, [f"{title}{idx}"])
        return EXIT_OK
    payload["correction"] = c = index_mod.correction_sum(p).to_json()
    payload["index"] = idx = index_kawasaki(data, duality)
    human = [f"{title}{idx}"]
    agree = True
    if route == "kawasaki":
        if p == 1:
            payload["route"] = "smooth"  # the empty-sum route is the smooth formula
    else:  # both: the kawasaki route against the smooth formula or the closed form
        if p == 1:
            name, other = "smooth", index_smooth(data.chi_M, data.tau_M, duality)
        else:
            name, other = "closed_form", index_closed_form(data, duality)
        agree = idx == other
        payload["routes"] = {"kawasaki": idx, name: str(other) if p == 1 else other}
        payload["agree"] = agree
        label = name.replace("_", " ")
        human += [f"kawasaki route:   {idx}", f"{label} route: {other}",
                  f"agree:            {'yes' if agree else 'NO'}"]
    human.append(f"correction sum:   e: {c['e']}  h: {c['h']}")
    _emit(args, payload, human)
    if not agree:
        raise ConsistencyError(f"route disagreement at p={p}: kawasaki index {idx}, "
                               f"{label} index {other}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# correction
# ---------------------------------------------------------------------------

def _cmd_correction(args) -> int:
    p, j = args.p, args.dump_element
    if p < 1:
        raise UsageError("p must be a positive integer")
    if j is not None and not 1 <= j < p:
        raise UsageError("--dump-element needs 1 <= j < p")
    traced = index_mod.correction_sum(p)
    closed = correction_sum_closed_form(p) if p >= 2 else None
    agree = closed is None or traced == closed
    # the JSON key keeps its old name "brute": readers of --json depend on it
    payload: dict = {"p": p, "brute": traced.to_json(), "agree": agree,
                     "closed": None if closed is None else closed.to_json()}
    human = [f"correction sum at p={p}:",
             f"  class traces: e: {traced.coeff_e}  h: {traced.coeff_h}"]
    if closed is None:
        human.append("  closed form:  not defined at p = 1 (empty sum)")
    else:
        human += [f"  closed form:  e: {closed.coeff_e}  h: {closed.coeff_h}",
                  f"  agree: {'yes' if agree else 'NO'}"]
    if j is not None:
        gamma = GroupElement(p, j)
        try:  # through a table of x^s mod Phi_p per s < p, which a large p cannot build
            payload["characters"] = bundles.character_dump(gamma)
            payload["correction_at"] = index_mod.correction_at(gamma).to_json()
        except (OverflowError, MemoryError) as exc:
            raise UsageError(f"--p is too large for an element dump: its values at zeta_p "
                             f"cannot be built ({type(exc).__name__})")
        payload["element"] = {"p": p, "j": j}
        human.append(f"  (character dump for j={j} included in JSON output)")
    _emit(args, payload, human)
    if not agree:
        raise ConsistencyError(
            f"route disagreement at p={p}: class traces e={traced.coeff_e} h={traced.coeff_h}, "
            f"closed form e={closed.coeff_e} h={closed.coeff_h}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    p_max = args.p_max
    if p_max < 2:
        raise UsageError("--p-max must be at least 2")
    suites = {name: {"pass": 0, "fail": []} for name, _ in verify.SUITES}
    # order by order, so the per-order tables (scalars._reduction_rows) are
    # built once per order and dropped after it; each suite's fail list
    # still fills in order of p
    for p in range(2, p_max + 1):
        for name, fn in verify.SUITES:
            entry = suites[name]
            try:
                ok = fn(p)
            except ConsistencyError:
                ok = False
            except Exception as exc:  # a crash is not a verification verdict
                print(f"internal error: suite {name} at p={p} raised "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
                return EXIT_CONSISTENCY
            if ok:
                entry["pass"] += 1
            else:
                entry["fail"].append(p)
    all_ok = all(not entry["fail"] for entry in suites.values())
    total = p_max - 1
    payload = {"p_max": p_max, "suites": suites, "ok": all_ok}
    human = [f"verification sweep, p = 2..{p_max}:"]
    for name, entry in suites.items():
        status = "PASS" if not entry["fail"] else f"FAIL at p={entry['fail']}"
        human.append(f"  {name:<16} {entry['pass']}/{total}  {status}")
    human.append("all suites passed" if all_ok else "FAILURES detected")
    _emit(args, payload, human)
    return EXIT_OK if all_ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# orbifold-char / surfaces / example
# ---------------------------------------------------------------------------

def _cmd_orbifold_char(args) -> int:
    try:
        beta = parse_rational(args.beta)
    except ValueError as exc:
        raise UsageError(str(exc))
    if beta <= 0:
        raise UsageError("beta must be a positive rational a/b")
    _check_parity(args)
    chi = index_mod.chi_orb(args.chi, beta, args.sigma_chi)
    tau = index_mod.tau_orb(args.tau, beta, args.sigma_sq)
    try:  # tau_orb squares beta: a beta within the limit can give a value past it
        chi_s, tau_s = str(chi), str(tau)
    except ValueError as exc:
        raise UsageError(f"chi_orb or tau_orb at this beta cannot be printed: {exc}")
    payload = {"inputs": _inputs(args, beta=str(beta)), "chi_orb": chi_s, "tau_orb": tau_s}
    _emit(args, payload, [f"chi_orb: {chi_s}", f"tau_orb: {tau_s}"])
    return EXIT_OK


def _cmd_surfaces(args) -> int:
    j = args.j
    if j < 1:
        raise UsageError("--j must be at least 1")
    kind = applications.SurfaceKind(False, j)
    try:  # j + 1 values, one list: past the interpreter's list limit it cannot be built
        massey = applications.whitney_massey_values(j)
    except (OverflowError, MemoryError) as exc:
        raise UsageError(f"--j {j} is too large: its {j + 1} Massey values cannot be "
                         f"built as one list ({type(exc).__name__})")
    feasible = applications.feasible_self_intersections(j)
    payload = {"j": j, "euler_char": kind.euler_char,
               "h0_bound": applications.h0_bound(kind),
               "massey": massey, "feasible": feasible}
    human = [f"surface with {j} crosscaps (chi = {kind.euler_char}):",
             f"  realizable self-intersections: {massey}",
             f"  feasible for unobstructed metrics: {feasible}",
             f"  dim H0 bound: {payload['h0_bound']}"]
    _emit(args, payload, human)
    return EXIT_OK


def _cmd_example(args) -> int:
    if args.which == "ricci-flat":
        if None in (args.chi, args.tau, args.sigma_chi, args.sigma_sq):
            raise UsageError("ricci-flat needs --chi --tau --sigma-chi --sigma-sq")
        data = _topology(args)
        if data.p < 2:
            raise UsageError("ricci-flat needs --p P with P >= 2")
        dim = applications.ricci_flat_moduli_dim(data)
        payload = {"inputs": _inputs(args, p=args.p), "moduli_dim": dim,
                   "assumptions": ["no parallel vector fields",
                                   "no parallel self-dual Weyl tensors"]}
        human = [f"Ricci-flat moduli dimension: {dim}"]
        if dim < 0:
            human.append("  negative dimension: the hypotheses cannot all hold")
        _emit(args, payload, human)
        return EXIT_OK
    if args.which == "hitchin":
        if args.k is None or args.k < 3:
            raise UsageError("hitchin needs --k K with K >= 3")
        inputs = {"k": args.k}
        report = applications.hitchin_report(args.k)
        title = f"conical metric on (S^4, RP^2), k={args.k}:"
    else:  # lebrun
        if args.n is None or args.n < 1:
            raise UsageError("lebrun needs --n N with N >= 1")
        if args.p < 2:
            raise UsageError("lebrun needs --p P with P >= 2")
        inputs = {"n": args.n, "p": args.p}
        report = applications.lebrun_report(args.n, args.p)
        title = f"hyperbolic-monopole metric on {args.n}#CP^2, p={args.p}:"
    human = [title,
             f"  index: {report.index}",
             f"  dim H0: {report.dim_h0}  dim H1: {report.dim_h1}  dim H2: {report.dim_h2}",
             f"  verdict: {report.verdict}"]
    if report.assumptions:
        human.append(f"  assumptions: {', '.join(report.assumptions)}")
    _emit(args, {"inputs": inputs, "report": report.to_json()}, human)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _add_topology_flags(sp, required=True):
    sp.add_argument("--chi", type=_int_flag, required=required, help="chi(M)")
    sp.add_argument("--tau", type=_int_flag, required=required, help="tau(M)")
    sp.add_argument("--sigma-chi", dest="sigma_chi", type=_int_flag, required=required,
                    help="chi(Sigma)")
    sp.add_argument("--sigma-sq", dest="sigma_sq", type=_int_flag, required=required,
                    help="[Sigma]^2")


def build_parser() -> _Parser:
    parser = _Parser(prog="orbifold-index",
                     description="exact index computations for "
                                 "anti-self-dual orbifold-cone metrics")
    parser.add_argument("--json", action="store_true",
                        help="force JSON output (default when not a tty)")
    # --json after the subcommand: SUPPRESS keeps its absence from
    # overwriting a top-level --json
    json_after = argparse.ArgumentParser(add_help=False)
    json_after.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                            help="force JSON output (default when not a tty)")
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, parents=[json_after])

    sp = add_parser("index", help="deformation-complex index")
    _add_topology_flags(sp)
    sp.add_argument("--p", type=_cone_order_flag, required=True, help="cone order p >= 1")
    sp.add_argument("--duality", choices=["asd", "sd"], required=True)
    sp.add_argument("--route", choices=["kawasaki", "closed", "both"],
                    default="both")
    sp.set_defaults(fn=_cmd_index)

    sp = add_parser("correction", help="group-averaged correction term")
    sp.add_argument("--p", type=_cone_order_flag, required=True)
    sp.add_argument("--dump-element", type=_int_flag, default=None, metavar="J",
                    help="also dump all equivariant characters at element J")
    sp.set_defaults(fn=_cmd_correction)

    sp = add_parser("verify", help="run the exactness suites")
    sp.add_argument("--p-max", dest="p_max", type=_int_flag, required=True)
    sp.set_defaults(fn=_cmd_verify)

    sp = add_parser("orbifold-char", help="orbifold Euler characteristic and signature")
    _add_topology_flags(sp)
    sp.add_argument("--beta", type=str, required=True,
                    help="cone angle parameter as a rational, e.g. 1/2")
    sp.set_defaults(fn=_cmd_orbifold_char)

    sp = add_parser("surfaces", help="self-intersection feasibility for crosscap surfaces")
    sp.add_argument("--j", type=_int_flag, required=True, help="number of crosscaps")
    sp.set_defaults(fn=_cmd_surfaces)

    sp = add_parser("example", help="reproduce a worked example")
    sp.add_argument("which", choices=["hitchin", "lebrun", "ricci-flat"])
    sp.add_argument("--k", type=_int_flag, default=None)
    sp.add_argument("--n", type=_int_flag, default=None)
    sp.add_argument("--p", type=_cone_order_flag, default=2)
    _add_topology_flags(sp, required=False)
    sp.set_defaults(fn=_cmd_example)

    parser.commands = sub.choices  # name -> subcommand parser, read by _parse
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> _Parser:
    """The parser main() reuses: built on the first call, not at import,
    with its six subcommand parsers, which _parse reads from it, so that
    cache_clear() resets both.  parse_args only reads them and returns a
    fresh Namespace every call."""
    return build_parser()


def _parse(argv) -> argparse.Namespace:
    """main's parse.  For [--json] SUBCOMMAND REST (the module docstring
    says which argv qualify) REST goes to the subcommand's own parser, into
    a Namespace whose json and command are what the top-level --json and
    the subparsers action would set."""
    if argv is None:
        argv = sys.argv[1:]
    parser = _parser()
    head = 1 if argv and argv[0] == "--json" else 0
    sub = parser.commands.get(argv[head]) if len(argv) > head else None
    rest = argv[head + 1:]
    # the top-level parser reads every later token as a possible option of
    # its own, and finds a --= token ambiguous between --help and --json
    if sub is None or any(a.startswith("--=") for a in rest):
        return parser.parse_args(argv)
    return sub.parse_args(rest, argparse.Namespace(json=head == 1, command=argv[head]))


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except Exception as exc:  # a crash is neither a usage error nor a verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY


if __name__ == "__main__":
    sys.exit(main())

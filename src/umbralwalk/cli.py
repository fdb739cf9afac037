"""Command-line front end.

The parser is built once, at import. Each subcommand registers its
handler with `set_defaults`, so argparse both parses and dispatches:
`main` parses and calls the handler it finds on the namespace.

Structured results are JSON (rationals rendered as "p/q" strings, never
floats); series are CSV. Exit codes: 0 when every check in the
invocation passed, 1 when a verification or comparison failed, a
quadrature did not settle or the reader closed stdout early, 2 for usage
errors, whether argparse rejects the command line or the engine rejects
the values. The stated-variant audits of the full matrix expect a
nonzero residual and count as passing when they observe one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import montecarlo
from .identities import (
    IdentityId,
    IdentityParams,
    Status,
    TruncationPolicy,
    catalog,
    verify,
    verify_all_payload,
)
from .loopcalc import (
    LevelSystem,
    PhiMove,
    Walk,
    chain_mgf,
    direct_mgf,
    phi,
)
from .polynomials import (
    bernoulli_number,
    chebyshev_recip_weights,
    euler_number,
    eval_poly,
    hop_bernoulli,
    hop_euler,
)
from .series import to_csv
from .umbral import Family, QuadratureError, QuadratureParams, density_moment

_DEFAULT_SEED = 2024
_LEVEL_LIMIT = 8  # levels above the origin that --levels accepts
# steps t_max / dt that `simulate` accepts: 32 times the default 5 * 10^5
_STEP_LIMIT = 1 << 24
_HOPS = {Family.BERNOULLI: hop_bernoulli, Family.EULER: hop_euler}


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _levels(text: str) -> tuple[Fraction, ...]:
    """Parse a level list of at most `_LEVEL_LIMIT` levels above the origin.

    `series` lists the origin first and `verify` leaves it out; a leading
    0 is not counted. The bound keeps one chain from growing without end.
    """
    try:
        levels = tuple(Fraction(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a level list: {text!r}") from exc
    above = len(levels) - (levels[0] == 0)
    if above > _LEVEL_LIMIT:
        raise argparse.ArgumentTypeError(
            f"{above} levels above the origin is above the limit {_LEVEL_LIMIT}"
        )
    return levels


def _move(text: str) -> PhiMove:
    """Parse a site move "from,to" or "from,to,taboo" of level indices."""
    try:
        parts = [int(part) for part in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(
            f"move must be from,to or from,to,taboo: {text!r}"
        )
    return PhiMove(*parts)


def _at_most(limit: int):
    """Parse an int option, rejecting values above `limit`.

    The bounds keep a single call from starting runaway exact
    computation; each sits well above every value the test suite, the
    verify-all matrix and the benchmark use.
    """

    def parse(text: str) -> int:
        value = int(text)
        if value > limit:
            raise argparse.ArgumentTypeError(
                f"{value} is above the limit {limit}"
            )
        return value

    parse.__name__ = "int"  # argparse names the type in its invalid-value error
    return parse


def _dump(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_poly(ns: argparse.Namespace) -> int:
    poly = _HOPS[Family(ns.family)](ns.n, ns.order)
    payload = {
        "family": ns.family,
        "n": ns.n,
        "p": ns.order,
        "coefficients": [str(c) for c in poly.coeffs],
    }
    if ns.x is not None:
        payload["x"] = str(ns.x)
        payload["value"] = str(poly.eval(ns.x))
    _dump(payload)
    return 0


def _cmd_numbers(ns: argparse.Namespace) -> int:
    if ns.upto < 0:
        raise ValueError(f"upto must be nonnegative, got {ns.upto}")
    fn = bernoulli_number if ns.bernoulli else euler_number
    name = "bernoulli" if ns.bernoulli else "euler"
    _dump({"kind": name, "values": [str(fn(n)) for n in range(ns.upto + 1)]})
    return 0


def _cmd_weights(ns: argparse.Namespace) -> int:
    weights = chebyshev_recip_weights(ns.N, ns.count)
    _dump({"N": ns.N, "weights": [str(w) for w in weights]})
    return 0


def _cmd_series(ns: argparse.Namespace) -> int:
    system = LevelSystem(Walk(ns.walk), ns.levels)
    if ns.chain:
        series = chain_mgf(system, ns.order)
    elif ns.direct:
        series = direct_mgf(system, ns.order)
    else:
        series = phi(system, ns.move, ns.order)
    sys.stdout.write(to_csv(series))
    return 0


def _cmd_verify(ns: argparse.Namespace) -> int:
    params = IdentityParams(
        n=ns.n, x=ns.x, levels=ns.levels, cheb_index=ns.N, m=ns.m
    )
    policy = TruncationPolicy(ns.tol, ns.stable_run, ns.kmax)
    report = verify(IdentityId(ns.id), params, policy)
    _dump(report.to_json())
    return 0 if report.status in (Status.VERIFIED, Status.DEGENERATE_TRIVIAL) else 1


def _cmd_verify_all(ns: argparse.Namespace) -> int:
    payload = verify_all_payload(TruncationPolicy(tol=ns.tol, k_max=ns.kmax))
    _dump(payload)
    return 0 if payload["all_passed"] else 1


def _cmd_simulate(ns: argparse.Namespace) -> int:
    seed = ns.seed
    if seed is None:
        seed = int(os.environ.get("UMBRAL_WALK_SEED", _DEFAULT_SEED))
    cfg = montecarlo.WalkConfig(
        walk=Walk(ns.walk),
        start=ns.start,
        target=ns.target,
        z=ns.z,
        taboo=ns.taboo,
        dt=ns.dt,
        paths=ns.paths,
        seed=seed,
        t_max=ns.tmax,
    )
    steps = cfg.t_max / cfg.dt
    if steps > _STEP_LIMIT:
        raise ValueError(
            f"t_max / dt = {steps:.4g} steps is above the limit {_STEP_LIMIT}"
        )
    # the closed form validates the move, so evaluate it before simulating
    reference = montecarlo.eval_phi_numeric(
        cfg.walk, cfg.start, cfg.target, cfg.z, cfg.taboo
    )
    if cfg.taboo is None:
        est = montecarlo.simulate_hit(cfg)
    else:
        est = montecarlo.simulate_taboo(cfg)
    comparison = montecarlo.compare_closed_form(est, reference)
    _dump(
        {
            "config": cfg._asdict(),
            "estimate": est._asdict(),
            "reference": reference,
            "comparison": {
                "z_score": comparison.z_score,
                "rel_err": comparison.rel_err,
                "pass": comparison.passed,
            },
        }
    )
    return 0 if comparison.passed else 1


def _cmd_quadrature(ns: argparse.Namespace) -> int:
    family = Family(ns.family)
    value = density_moment(family, ns.n, ns.x, QuadratureParams(tol=ns.tol))
    exact = eval_poly(_HOPS[family](ns.n, 1), ns.x)
    diff = abs(value - float(exact))
    ok = diff < 1e-8
    _dump(
        {
            "family": ns.family,
            "n": ns.n,
            "x": str(ns.x),
            "quadrature": value,
            "exact": str(exact),
            "abs_diff": diff,
            "pass": ok,
        }
    )
    return 0 if ok else 1


def _cmd_catalog(ns: argparse.Namespace) -> int:
    _dump([entry._asdict() for entry in catalog()])
    return 0


def _build_parser() -> tuple[
    argparse.ArgumentParser, dict[str, argparse.ArgumentParser]
]:
    """The command line's one parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="umbralwalk",
        description=(
            "exact verification engine for hitting-time generating "
            "functions and higher-order Bernoulli/Euler identities"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    families = [f.value for f in _HOPS]
    walks = [w.value for w in Walk]

    p = sub.add_parser("poly", help="higher-order polynomial coefficients")
    p.set_defaults(handler=_cmd_poly)
    p.add_argument("--family", choices=families, required=True)
    p.add_argument("--n", type=_at_most(128), required=True, help="degree")
    p.add_argument(
        "--order", type=_at_most(256), required=True, help="polynomial order p"
    )
    p.add_argument("--x", type=_rational, help="optional evaluation point")

    p = sub.add_parser("numbers", help="Bernoulli or Euler numbers")
    p.set_defaults(handler=_cmd_numbers)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--bernoulli", action="store_true")
    group.add_argument("--euler", action="store_true")
    p.add_argument("--upto", type=_at_most(256), required=True)

    p = sub.add_parser("weights", help="reciprocal-Chebyshev weights")
    p.set_defaults(handler=_cmd_weights)
    p.add_argument("--N", type=_at_most(32), required=True)
    p.add_argument("--count", type=_at_most(4096), required=True)

    p = sub.add_parser("series", help="hitting-time series as CSV")
    p.set_defaults(handler=_cmd_series)
    p.add_argument("--walk", choices=walks, required=True)
    p.add_argument("--levels", type=_levels, required=True)
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--chain", action="store_true")
    what.add_argument("--direct", action="store_true")
    what.add_argument(
        "--move", type=_move,
        help='site move "from,to" or "from,to,taboo" (indices)',
    )
    p.add_argument(
        "--order", type=_at_most(512), default=48, help="series capacity"
    )

    p = sub.add_parser("verify", help="verify one identity instance")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument(
        "--id", choices=[i.value for i in IdentityId], required=True
    )
    p.add_argument("--n", type=_at_most(64), default=0)
    p.add_argument("--x", type=_rational)
    p.add_argument("--levels", type=_levels)
    p.add_argument(
        "--N", type=_at_most(32), help="Chebyshev index (EULER_CHEB)"
    )
    p.add_argument(
        "--m", type=_at_most(32), help="half-degree (EVEN_BERNOULLI)"
    )
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--kmax", type=_at_most(4096), default=512)
    p.add_argument("--stable-run", type=_at_most(4096), default=4)

    p = sub.add_parser(
        "verify-all", help="full expected matrix plus the errata audit"
    )
    p.set_defaults(handler=_cmd_verify_all)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--kmax", type=_at_most(4096), default=512)

    p = sub.add_parser("simulate", help="Monte Carlo hitting estimate")
    p.set_defaults(handler=_cmd_simulate)
    p.add_argument("--walk", choices=walks, required=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--taboo", type=float)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--paths", type=_at_most(1 << 20), default=100_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tmax", type=float, default=50.0)

    p = sub.add_parser(
        "quadrature", help="density moment versus the exact polynomial"
    )
    p.set_defaults(handler=_cmd_quadrature)
    p.add_argument("--family", choices=families, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=_rational, default=Fraction(0))
    p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("catalog", help="list the identity catalog")
    p.set_defaults(handler=_cmd_catalog)

    return parser, sub.choices


_PARSER, _COMMANDS = _build_parser()


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    """Parse a command line (`sys.argv[1:]` when `argv` is None).

    A line that starts with a subcommand goes to that subcommand's parser
    alone, as the top-level parser would pass it on; its leftovers are
    reported by the top-level parser, as they would be there. Any other
    line (none, `-h`, an unknown command) goes through the top-level one.
    """
    if argv is None:
        argv = sys.argv[1:]
    # the top-level parser for every line cost 9.8% on multi_level
    if not argv or argv[0] not in _COMMANDS:
        return _PARSER.parse_args(argv)
    ns, extras = _COMMANDS[argv[0]].parse_known_args(
        argv[1:], argparse.Namespace(command=argv[0])
    )
    if extras:
        _PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
    return ns


def main(argv: list[str] | None = None) -> int:
    ns = parse_args(argv)
    try:
        code = ns.handler(ns)
        sys.stdout.flush()
    except (ValueError, montecarlo.ConfigError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, QuadratureError) else 2
    except BrokenPipeError:
        # the reader left (`| head`): send the unflushed rest to devnull so
        # the flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
